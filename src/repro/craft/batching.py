"""Batch assembly: which locally committed entries go global, and when.

The paper's Fig. 5 configuration proposes "a batch of entries to the
global log after ten entries were committed in the local log"; the policy
here is count-based with an optional age-based flush so interactive
deployments do not strand a partial batch forever.

On top of the count-based default sits an opt-in *adaptive* mode: an
EWMA of the observed global-commit latency drives the effective
``batch_size`` / ``max_outstanding`` between fixed bounds
(:data:`BATCH_FLOOR` .. :data:`BATCH_CEILING` entries, at most
:data:`OUTSTANDING_CEILING` batches in flight). Global rounds slower than
:data:`TARGET_COMMIT_LATENCY` grow the batch (amortizing the fixed
per-round cost over more entries) and widen the outstanding window;
faster rounds shrink both back toward the policy's starting values.
``adaptive=False`` (the default) leaves every decision exactly where the
paper's count-based policy put it, so the fig5/ablation goldens are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.entry import BatchPayload, EntryKind, LogEntry
from repro.errors import ConfigurationError

#: Bounds the adaptive batch size moves between.
BATCH_FLOOR = 4
BATCH_CEILING = 64
#: Upper bound for the adaptive outstanding window.
OUTSTANDING_CEILING = 8
#: Global-commit latency the adaptive controller steers toward (seconds).
TARGET_COMMIT_LATENCY = 2.0
#: EWMA smoothing factor for the observed commit latency.
EWMA_ALPHA = 0.2


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
    #: Let observed global-commit latency move ``batch_size`` and
    #: ``max_outstanding`` within the fixed bounds above.
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not self.adaptive:
            return
        if not BATCH_FLOOR <= self.batch_size <= BATCH_CEILING:
            raise ConfigurationError(
                f"adaptive batch_size {self.batch_size} outside "
                f"[{BATCH_FLOOR}, {BATCH_CEILING}]")
        if self.max_outstanding > OUTSTANDING_CEILING:
            raise ConfigurationError(
                f"adaptive max_outstanding {self.max_outstanding} above "
                f"{OUTSTANDING_CEILING}")


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
        #: The knobs in force: the policy's, unless the adaptive
        #: controller has moved them.
        self.effective_batch_size = policy.batch_size
        self.effective_max_outstanding = policy.max_outstanding
        self._ewma_latency: float | None = None

    @property
    def has_age_flush(self) -> bool:
        """Whether an age-based flush can ever trigger (the server only
        arms its flush timer when this is set)."""
        return self.policy.max_age is not None

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
        if not self.policy.adaptive:
            return
        alpha = EWMA_ALPHA
        if self._ewma_latency is None:
            self._ewma_latency = latency
        else:
            self._ewma_latency = (alpha * latency
                                  + (1.0 - alpha) * self._ewma_latency)
        ratio = self._ewma_latency / TARGET_COMMIT_LATENCY
        size = self.effective_batch_size
        if ratio > 1.1:
            # Global rounds are slow: amortize them over bigger batches
            # and a wider outstanding window.
            self.effective_batch_size = min(size + max(1, size // 4),
                                            BATCH_CEILING)
            self.effective_max_outstanding = min(
                self.effective_max_outstanding + 1, OUTSTANDING_CEILING)
        elif ratio < 0.9:
            # Rounds are fast: shrink back toward the floors for
            # responsiveness.
            self.effective_batch_size = max(size - max(1, size // 4),
                                            BATCH_FLOOR)
            self.effective_max_outstanding = max(
                self.effective_max_outstanding - 1,
                self.policy.max_outstanding)

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
        max_age = self.policy.max_age
        if (max_age is not None and self._pending
                and self._pending_since is not None
                and now - self._pending_since >= max_age):
            return True
        return False

    def age_deadline(self) -> float | None:
        """When the oldest pending entry expires (None: no pending
        partial batch, or age flushing disabled). The server arms its
        precise flush timer from this."""
        max_age = self.policy.max_age
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
    engine in one flush -- when the pending count reaches the policy's
    ``batch_size``, or when the oldest buffered request hits the age bound
    (``max_age=None`` flushes on the next loop turn, coalescing only
    same-instant arrivals). Duplicate request ids coalesce; the stored
    occurrence keeps the first arrival's sender. The flush size is fixed:
    an adaptive policy is rejected.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        if policy.adaptive:
            raise ConfigurationError(
                "proposal coalescing flushes at a fixed batch_size; "
                "an adaptive BatchPolicy applies to C-Raft batching only")
        self.policy = policy
        self._pending: dict[str, tuple[Any, str]] = {}
        self._pending_since: float | None = None

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
        return len(self._pending) >= self.policy.batch_size

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
