"""Lemma 2 across a one-member configuration change, checked exhaustively.

``quorum_intersection_ok`` holds a fast quorum and a classic quorum of
the *same* M members to Zhao's plurality condition. Fast Raft changes
membership one site at a time, and a value fast-chosen under C may be
recovered under the next configuration C'. This test enumerates every
configuration C of M <= 9 members, every one-member add or remove that
gives C', every fast quorum F of C and every classic quorum Q' of C',
all drawn through the rules in ``repro.consensus.quorum``. It asserts
that the fast-chosen value keeps the plurality in Q': its voters in Q'
outnumber all the other members of Q', even if those all back a single
rival (``|F & Q'| > |Q' - F|``).

The size pairs listed in ``ADJACENT_HOLES`` fail that condition today:
they are strict xfails until ROADMAP item 1 counts a fast quorum in the
configuration that governs the index. The expanded electorate of the
tiebreaker rules is outside this check (ROADMAP items 14 and 16).
Standard library only.
"""

from __future__ import annotations

import itertools

import pytest

from repro.consensus.config import Configuration
from repro.consensus.quorum import has_classic_quorum, has_fast_quorum

MAX_MEMBERS = 9

#: (M, M') pairs where a fast quorum of M sites can lose the plurality
#: in a classic quorum of the adjacent M' sites.
ADJACENT_HOLES = frozenset({(1, 2), (2, 3), (4, 3), (4, 5), (5, 6), (6, 7),
                            (8, 7), (8, 9), (9, 10)})

KNOWN_HOLE = pytest.mark.xfail(
    strict=True,
    reason="a fast quorum of M sites can tie or lose the plurality in "
           "a classic quorum of the adjacent size (ROADMAP item 1)")


def size_pairs():
    for m in range(1, MAX_MEMBERS + 1):
        for m_next in (m - 1, m + 1):
            if m_next < 1:
                continue
            marks = [KNOWN_HOLE] if (m, m_next) in ADJACENT_HOLES else []
            yield pytest.param(m, m_next, marks=marks,
                               id=f"{m}->{m_next}")


def quorums(config, rule):
    """Every subset of ``config``'s members that ``rule`` accepts."""
    members = config.members
    return [frozenset(combo)
            for size in range(len(members) + 1)
            for combo in itertools.combinations(members, size)
            if rule(config, combo)]


def adjacent_configs(members):
    """Every configuration one member away from ``members``."""
    yield Configuration(members + (f"s{len(members)}",))
    for gone in members:
        if len(members) > 1:
            yield Configuration(tuple(m for m in members if m != gone))


@pytest.mark.parametrize(("m", "m_next"), list(size_pairs()))
def test_fast_choice_keeps_plurality_after_one_member_change(m, m_next):
    config = Configuration(tuple(f"s{i}" for i in range(m)))
    fast = quorums(config, has_fast_quorum)
    checked = 0
    for successor in adjacent_configs(config.members):
        if successor.size != m_next:
            continue
        for recovery in quorums(successor, has_classic_quorum):
            for chosen in fast:
                backers = len(chosen & recovery)
                assert backers > len(recovery) - backers, (
                    f"fast quorum {sorted(chosen)} of {config} ties or "
                    f"loses in classic quorum {sorted(recovery)} of "
                    f"{successor}")
                checked += 1
    assert checked


def test_every_listed_hole_is_a_checked_pair():
    """A hole outside the parametrisation would never run as an xfail:
    both directions for every M <= MAX_MEMBERS, except 1 -> 0."""
    pairs = {tuple(p.values) for p in size_pairs()}
    assert len(pairs) == 2 * MAX_MEMBERS - 1
    assert ADJACENT_HOLES <= pairs
