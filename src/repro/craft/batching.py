"""Batch assembly: which locally committed entries go global, and when.

The paper's Fig. 5 configuration proposes "a batch of entries to the
global log after ten entries were committed in the local log"; the policy
here is count-based with an optional age-based flush so interactive
deployments do not strand a partial batch forever.

On top of the count-based default sits an opt-in *adaptive* mode: an
EWMA of the observed global-commit latency and of the batch byte-size
drives the effective ``batch_size`` / ``max_age`` / ``max_outstanding``
between configured floors and ceilings. Slow global rounds grow the
batch (amortizing the fixed per-round cost over more entries) and widen
the outstanding window; fast rounds shrink both back toward the floors
for responsiveness. A byte ceiling caps the entry count regardless of
what the latency signal asked for. ``adaptive=False`` (the default)
leaves every decision exactly where the paper's count-based policy put
it, so the fig5/ablation goldens are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.entry import BatchPayload, EntryKind, LogEntry
from repro.errors import ConfigurationError
from repro.net.sizes import estimate_size


@dataclass(frozen=True)
class BatchPolicy:
    """When to propose a batch."""

    #: Propose once this many local DATA entries await batching.
    batch_size: int = 10
    #: Also propose a partial batch once its oldest entry is this old
    #: (seconds); None disables age-based flushing (the paper's setup).
    max_age: float | None = None
    #: How many proposed-but-uncommitted batches may be outstanding.
    max_outstanding: int = 1

    # --- adaptive coalescing (opt-in; defaults keep the count-based
    # --- policy untouched) -------------------------------------------
    #: Let observed commit latency / batch bytes move the knobs.
    adaptive: bool = False
    #: Bounds the effective batch size may move between.
    batch_floor: int = 1
    batch_ceiling: int = 64
    #: Bounds for the effective age flush (None: age never adapts).
    age_floor: float | None = None
    age_ceiling: float | None = None
    #: Upper bound for the outstanding window (None: pinned at
    #: ``max_outstanding``).
    outstanding_ceiling: int | None = None
    #: Commit latency the controller steers toward (seconds).
    target_commit_latency: float = 0.5
    #: Byte ceiling per batch (None: bytes never cap the count).
    target_batch_bytes: int | None = None
    #: EWMA smoothing factor for both signals.
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not self.adaptive:
            return
        if not (1 <= self.batch_floor <= self.batch_ceiling):
            raise ConfigurationError(
                f"bad adaptive batch bounds "
                f"[{self.batch_floor}, {self.batch_ceiling}]")
        if (self.age_floor is not None and self.age_ceiling is not None
                and self.age_floor > self.age_ceiling):
            raise ConfigurationError(
                f"bad adaptive age bounds "
                f"[{self.age_floor}, {self.age_ceiling}]")
        if (self.outstanding_ceiling is not None
                and self.outstanding_ceiling < self.max_outstanding):
            raise ConfigurationError(
                "outstanding_ceiling below max_outstanding")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if self.target_commit_latency <= 0:
            raise ConfigurationError("target_commit_latency must be > 0")


class Batcher:
    """Tracks locally committed DATA entries not yet published globally."""

    def __init__(self, cluster: str, policy: BatchPolicy) -> None:
        self.cluster = cluster
        self.policy = policy
        self._pending: list[tuple[int, LogEntry]] = []
        self._pending_since: float | None = None
        self._next_unbatched = 1   # first local index not yet covered
        self._sequence = 0
        self._outstanding = 0
        # Adaptive-controller state (inert unless policy.adaptive).
        self._ewma_latency: float | None = None
        self._ewma_entry_bytes: float | None = None
        self._adaptive_size = policy.batch_size
        self._adaptive_age = (policy.max_age if policy.max_age is not None
                              else policy.age_floor)
        self._adaptive_outstanding = policy.max_outstanding

    # ------------------------------------------------------------------
    # Effective knobs (identical to the policy unless adaptive)
    # ------------------------------------------------------------------
    @property
    def effective_batch_size(self) -> int:
        if self.policy.adaptive:
            return self._adaptive_size
        return self.policy.batch_size

    @property
    def effective_max_age(self) -> float | None:
        if self.policy.adaptive:
            return self._adaptive_age
        return self.policy.max_age

    @property
    def effective_max_outstanding(self) -> int:
        if self.policy.adaptive:
            return self._adaptive_outstanding
        return self.policy.max_outstanding

    @property
    def has_age_flush(self) -> bool:
        """Whether an age-based flush can ever trigger (the server only
        arms its flush timer when this is set)."""
        return self.effective_max_age is not None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def observe_and_check(self, index: int, entry: LogEntry,
                          now: float) -> bool:
        """Feed one locally applied entry (entries arrive in order; a
        non-DATA entry or one an earlier batch covered is skipped) and
        return whether a batch proposal is now due."""
        if (index >= self._next_unbatched
                and entry.kind is EntryKind.DATA):
            pending = self._pending
            if not pending:
                self._pending_since = now
            pending.append((index, entry))
        return self.ready(now)

    def rebuild(self, applied: list[tuple[int, LogEntry]],
                next_unbatched: int, now: float) -> None:
        """Reset from a fresh leader's view: ``applied`` is the local
        applied log; entries at ``next_unbatched`` or later are pending."""
        self._next_unbatched = next_unbatched
        self._pending = [(i, e) for i, e in applied
                         if i >= next_unbatched
                         and e.kind is EntryKind.DATA]
        self._pending_since = now if self._pending else None
        self._outstanding = 0

    # ------------------------------------------------------------------
    # Adaptive controller
    # ------------------------------------------------------------------
    def observe_commit_latency(self, latency: float) -> None:
        """Feed one observed propose->global-commit latency (seconds).
        No-op unless the policy is adaptive."""
        policy = self.policy
        if not policy.adaptive:
            return
        alpha = policy.ewma_alpha
        if self._ewma_latency is None:
            self._ewma_latency = latency
        else:
            self._ewma_latency = (alpha * latency
                                  + (1.0 - alpha) * self._ewma_latency)
        self._adapt()

    def _observe_batch_bytes(self, total_bytes: int, count: int) -> None:
        if count <= 0:
            return
        alpha = self.policy.ewma_alpha
        per_entry = total_bytes / count
        if self._ewma_entry_bytes is None:
            self._ewma_entry_bytes = per_entry
        else:
            self._ewma_entry_bytes = (alpha * per_entry
                                      + (1.0 - alpha)
                                      * self._ewma_entry_bytes)

    def _adapt(self) -> None:
        policy = self.policy
        latency = self._ewma_latency
        if latency is None:
            return
        ratio = latency / policy.target_commit_latency
        size = self._adaptive_size
        if ratio > 1.1:
            # Global rounds are slow: amortize them over bigger batches
            # and a wider outstanding window.
            size = min(size + max(1, size // 4), policy.batch_ceiling)
            ceiling = (policy.outstanding_ceiling
                       if policy.outstanding_ceiling is not None
                       else policy.max_outstanding)
            self._adaptive_outstanding = min(
                self._adaptive_outstanding + 1, ceiling)
            if (self._adaptive_age is not None
                    and policy.age_ceiling is not None):
                self._adaptive_age = min(self._adaptive_age * 1.25,
                                         policy.age_ceiling)
        elif ratio < 0.9:
            # Rounds are fast: shrink back toward the floors for
            # responsiveness.
            size = max(size - max(1, size // 4), policy.batch_floor)
            self._adaptive_outstanding = max(
                self._adaptive_outstanding - 1, policy.max_outstanding)
            if (self._adaptive_age is not None
                    and policy.age_floor is not None):
                self._adaptive_age = max(self._adaptive_age * 0.8,
                                         policy.age_floor)
        if policy.target_batch_bytes and self._ewma_entry_bytes:
            cap = max(policy.batch_floor,
                      int(policy.target_batch_bytes
                          // max(self._ewma_entry_bytes, 1.0)))
            size = min(size, cap)
        self._adaptive_size = size

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    @property
    def next_unbatched(self) -> int:
        return self._next_unbatched

    def ready(self, now: float) -> bool:
        if self._outstanding >= self.effective_max_outstanding:
            return False
        if len(self._pending) >= self.effective_batch_size:
            return True
        max_age = self.effective_max_age
        if (max_age is not None and self._pending
                and self._pending_since is not None
                and now - self._pending_since >= max_age):
            return True
        return False

    def age_deadline(self) -> float | None:
        """When the oldest pending entry expires (None: no pending
        partial batch, or age flushing disabled). The server arms its
        precise flush timer from this."""
        max_age = self.effective_max_age
        if max_age is None or self._pending_since is None:
            return None
        return self._pending_since + max_age

    def take_batch(self, now: float) -> BatchPayload:
        """Assemble the next batch (caller checked :meth:`ready`)."""
        size = min(self.effective_batch_size, len(self._pending))
        taken = self._pending[:size]
        self._pending = self._pending[size:]
        self._pending_since = now if self._pending else None
        self._sequence += 1
        self._outstanding += 1
        first, last = taken[0][0], taken[-1][0]
        self._next_unbatched = last + 1
        if self.policy.adaptive:
            total = 0
            for _, entry in taken:
                memo = entry._est_size
                total += memo if memo is not None else estimate_size(entry)
            self._observe_batch_bytes(total, len(taken))
        return BatchPayload(cluster=self.cluster, sequence=self._sequence,
                            entries=tuple(e for _, e in taken),
                            local_range=(first, last))

    def batch_done(self) -> None:
        """A batch we proposed committed globally."""
        if self._outstanding > 0:
            self._outstanding -= 1

    def advance_covered(self, through_local_index: int) -> None:
        """Another leader's batch (or a recovered one of ours) already
        covers local entries through this index; drop them from pending."""
        if through_local_index < self._next_unbatched - 1:
            return
        self._next_unbatched = max(self._next_unbatched,
                                   through_local_index + 1)
        self._pending = [(i, e) for i, e in self._pending
                         if i >= self._next_unbatched]
        if not self._pending:
            self._pending_since = None


class ProposalCoalescer:
    """Leader-side arrival coalescing for the flat engines' ``ClientRequest``
    -> propose path (opt-in).

    The server buffers incoming client requests and hands them to the
    engine in one flush -- when the pending count reaches the effective
    batch size, or when the oldest buffered request hits the age bound
    (``max_age=None`` flushes on the next loop turn, coalescing only
    same-instant arrivals). Duplicate request ids coalesce; the stored
    occurrence keeps the first arrival's sender.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._pending: dict[str, tuple[Any, str]] = {}
        self._pending_since: float | None = None
        # The flush size is a Batcher's adaptive batch size, driven by
        # whatever latency the owner feeds in (its own queue stays
        # empty: only the controller is used).
        self._controller = Batcher("", policy)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def add(self, request_id: str, message: Any, sender: str,
            now: float) -> bool:
        """Buffer one request; True when the batch is flush-ready."""
        if not self._pending:
            self._pending_since = now
        if request_id not in self._pending:
            self._pending[request_id] = (message, sender)
        return len(self._pending) >= self._controller.effective_batch_size

    def age_deadline(self) -> float | None:
        """When the buffered batch must flush regardless of size."""
        if self._pending_since is None:
            return None
        return self._pending_since + (self.policy.max_age or 0.0)

    def drain(self) -> list[tuple[Any, str]]:
        drained = list(self._pending.values())
        self._pending.clear()
        self._pending_since = None
        return drained

    def observe_commit_latency(self, latency: float) -> None:
        """Adapt the flush size between the policy's floor/ceiling."""
        self._controller.observe_commit_latency(latency)
