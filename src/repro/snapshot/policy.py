"""When to snapshot, and how much log tail to keep.

One trigger: a *threshold* on committed-but-uncompacted entries (bounds
log growth). ``retain`` keeps a short committed tail in the log below the
capture point so slightly-lagging followers are still served by ordinary
AppendEntries instead of a full snapshot transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CompactionPolicy:
    """Triggers for taking a snapshot and compacting the log."""

    #: Take a snapshot once this many committed entries sit above the
    #: current compaction point.
    threshold: int = 64
    #: Committed entries kept in the log below the capture point.
    retain: int = 8

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ConfigurationError("compaction threshold must be >= 1")
        if self.retain < 0:
            raise ConfigurationError("compaction retain must be >= 0")
        if self.retain >= self.threshold:
            raise ConfigurationError(
                f"retain ({self.retain}) must be below threshold "
                f"({self.threshold}) or compaction never fires")

    def should_compact(self, commit_index: int,
                       snapshot_index: int) -> bool:
        """Is it time to snapshot, given the commit point and the current
        compaction point?"""
        return commit_index - snapshot_index >= self.threshold
