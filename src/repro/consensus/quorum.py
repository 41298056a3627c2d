"""Quorum rules: every decision that a set of votes or values is enough.

Each rule is a pure function of a
:class:`~repro.consensus.config.Configuration` and the votes; engines
count votes through nothing else.

Classic quorum: a strict majority, ``floor(M/2) + 1``.
Fast quorum (Fast Paxos / Fast Raft): ``ceil(3M/4)``.

The correctness requirement (Zhao 2015, used in the paper's Lemma 2) is
that any classic quorum and any fast quorum intersect in more than half of
the classic quorum, so an entry inserted by a fast quorum has a strict
plurality of the votes in *any* classic quorum the leader might collect.
:func:`quorum_intersection_ok` checks that requirement directly and is
exercised for all cluster sizes by property tests. It is checked within
one configuration only: ``tests/test_quorum_across_configs.py`` shows
which one-member changes break it.

**Tiebreaker observers.** Observers replicate the log but never count
toward commit quorums. With two voters, losing one makes every classic
quorum (2-of-2) unreachable and the configuration wedges, so while the
voting set is that small (``<= 2``) the first observer by site id is
promoted to a tiebreaker voter -- for leader elections and CONFIG
entries only. A CONFIG entry that excludes a member may also count one
caught-up joiner replacing it. Only one observer and one joiner are
added: member-free majorities of a larger electorate could miss a
classic quorum entirely. For degenerate voting sets every classic quorum
is the full member set, so quorums drawn under any mix of these rules
intersect (``tests/test_observer_tiebreaker.py``) and two conflicting
configurations never both commit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.consensus.config import Configuration


def classic_quorum_size(members: int) -> int:
    """Strict majority of ``members``."""
    if members <= 0:
        raise ConfigurationError(f"need at least one member: {members!r}")
    return members // 2 + 1


def fast_quorum_size(members: int) -> int:
    """The paper's fast quorum, ``ceil(3M/4)``."""
    if members <= 0:
        raise ConfigurationError(f"need at least one member: {members!r}")
    return math.ceil(3 * members / 4)


def quorum_intersection_ok(members: int) -> bool:
    """Check the Fast Paxos safety condition for ``members`` sites.

    In the worst case a classic quorum CQ and a fast quorum FQ share
    ``CQ + FQ - M`` sites. Safety needs that shared part to be a strict
    majority of the classic quorum: every classic quorum the leader might
    hear from must reveal the fast-quorum entry as its plurality winner
    even if every other vote in the classic quorum went to a single rival.

    Plurality is guaranteed when ``overlap > CQ - overlap``, i.e.
    ``2 * (CQ + FQ - M) > CQ``.
    """
    cq = classic_quorum_size(members)
    fq = fast_quorum_size(members)
    overlap = cq + fq - members
    return 2 * overlap > cq


def _member_votes(config: Configuration, votes: Iterable[str] | int) -> int:
    """Distinct members among ``votes``, or ``votes`` if already a count."""
    if isinstance(votes, int):
        return votes
    return len(config._member_set.intersection(votes))


def has_classic_quorum(config: Configuration,
                       votes: Iterable[str] | int) -> bool:
    return _member_votes(config, votes) >= config.classic_quorum


def has_fast_quorum(config: Configuration,
                    votes: Iterable[str] | int) -> bool:
    return _member_votes(config, votes) >= config.fast_quorum


def tiebreaker(config: Configuration) -> str | None:
    """The promoted observer while ``size <= 2``, else None."""
    if config.observers and config.size <= 2:
        return config.observers[0]
    return None


def _expanded_majority(config: Configuration, voters: set[str],
                       joiners: Iterable[str] = ()) -> bool:
    """Strict majority of the members plus the tiebreaker plus the first
    joiner not already in; False when nothing is added."""
    electorate = set(config.members)
    promoted = tiebreaker(config)
    if promoted is not None:
        electorate.add(promoted)
    electorate.update(sorted(set(joiners) - electorate)[:1])
    if len(electorate) == config.size:
        return False
    return (len(electorate & voters)
            >= classic_quorum_size(len(electorate)))


def wins_election(config: Configuration, voters: Iterable[str]) -> bool:
    """A classic quorum, or a majority of members plus the tiebreaker."""
    voters = set(voters)
    return (has_classic_quorum(config, voters)
            or _expanded_majority(config, voters))


def decides_config_entry(config: Configuration, voters: Iterable[str],
                         joiners: Iterable[str] = ()) -> bool:
    """A classic quorum, or a majority of members plus the tiebreaker plus
    one of ``joiners`` (caught-up sites replacing the excluded member)
    that contains a member: observers and joiners alone never decide a
    configuration. Ordinary entries never use this rule."""
    voters = set(voters)
    if has_classic_quorum(config, voters):
        return True
    return (not config._member_set.isdisjoint(voters)
            and _expanded_majority(config, voters, joiners))


def classic_reached(config: Configuration, values: list[float]) -> float:
    """The highest value a classic quorum of members has reached, given
    one value per member: the ``classic_quorum``-th largest."""
    return sorted(values, reverse=True)[config.classic_quorum - 1]
