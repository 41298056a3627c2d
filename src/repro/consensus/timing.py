"""Timing parameters for the protocols and the experiment harness.

Defaults follow the paper's evaluation (Section VI): 100 ms leader
heartbeat for intra-cluster consensus, 500 ms for inter-cluster consensus,
member timeout of five missed heartbeat responses.

``decision_interval`` is the cadence of the leader's "periodically run"
decision procedure in Fast Raft. It defaults to half the heartbeat
interval: the decision procedure is a purely local computation, so it can
run more often than network dispatch; this calibration yields the paper's
observed fast-track latency of roughly half the classic-Raft commit
latency (the ``ablations`` scenario sweeps the ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TimingConfig:
    """All protocol timers, in seconds."""

    #: Period of the leader's AppendEntries / heartbeat dispatch.
    heartbeat_interval: float = 0.100
    #: Period of the Fast Raft leader's decision procedure. ``None`` means
    #: ``heartbeat_interval / 2``.
    decision_interval: float | None = None
    #: Election timeout sampled uniformly from this range per arming.
    election_timeout_min: float = 0.300
    election_timeout_max: float = 0.600
    #: Client/proposer retry period ("proposal timeout" in the paper).
    proposal_timeout: float = 1.000
    #: Joining-site retry period ("join timeout" in the paper).
    join_timeout: float = 1.000
    #: Missed consecutive heartbeat responses before the leader declares a
    #: silent leave ("member timeout" in the paper; the Fig. 4 run uses 5).
    member_timeout_beats: int = 5
    #: Fast Raft leader re-proposes at a gap index after this long without
    #: a decidable quorum (liveness fill; see fastraft.decision).
    leader_fill_timeout: float = 0.400
    #: Random delay bound for re-proposing an entry that lost its slot to
    #: a concurrent proposal. Zero re-proposes immediately -- right for a
    #: single proposer; under heavy contention (C-Raft's global level)
    #: jitter desynchronizes the losers so they claim distinct indices.
    repropose_jitter: float = 0.0
    #: Enable Section IV-F's degraded reconfiguration: when silent leaves
    #: take the responsive members below a classic quorum, the leader
    #: directly inserts exclusion entries and shrinks quorums so the
    #: survivors can make progress. The paper endorses this for liveness
    #: (Section IV-F) but its own Section IV-E safety argument relies on
    #: quorums never shrinking without consensus -- and indeed, if the
    #: "departed" sites are actually alive behind a partition, the
    #: degraded path can produce two independently committing
    #: configurations (demonstrated mechanically in
    #: tests/test_fastraft_membership.py). Disable it for partition-safe
    #: behaviour at the price of the paper's documented deadlock.
    allow_degraded_reconfig: bool = True
    #: Max entries per AppendEntries message.
    max_append_batch: int = 100
    #: If True, the leader dispatches AppendEntries immediately when new
    #: entries arrive instead of waiting for the next heartbeat tick.
    #: The paper's implementation is tick-driven (False); the ablation
    #: benches flip this.
    eager_append: bool = False
    #: Probe-before-trust recovery: how long a recovering site waits for
    #: a RecoveryProbeReply before falling back to trusting its restored
    #: configuration outright (the pre-probe behaviour, so a fully
    #: partitioned recovery still comes up). ``0`` disables the
    #: handshake. The default resolves an eviction-while-down well inside
    #: ``election_timeout_min``, the old worst-case detection latency.
    recovery_probe_timeout: float = 0.150
    #: Leader-lease duration for linearizable local reads: each
    #: quorum-acked heartbeat renews the lease for this long past the
    #: beat's send time. ``0`` (the default) disables leases entirely --
    #: no lease fields travel and reads are refused.
    lease_duration: float = 0.0
    #: Clock-skew safety margin subtracted from every advertised lease
    #: expiry (follower clocks may run ahead of the leader's by up to
    #: this much without breaking the no-second-leader guarantee).
    lease_skew: float = 0.010

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.decision_interval is not None and self.decision_interval <= 0:
            raise ConfigurationError("decision_interval must be positive")
        if not (0 < self.election_timeout_min <= self.election_timeout_max):
            raise ConfigurationError(
                f"bad election timeout range "
                f"[{self.election_timeout_min}, {self.election_timeout_max}]")
        if self.election_timeout_min < self.heartbeat_interval:
            raise ConfigurationError(
                "election timeout shorter than the heartbeat interval would "
                "trigger elections during normal operation")
        if self.member_timeout_beats < 1:
            raise ConfigurationError("member_timeout_beats must be >= 1")
        if self.max_append_batch < 1:
            raise ConfigurationError("max_append_batch must be >= 1")
        if self.recovery_probe_timeout < 0:
            raise ConfigurationError(
                "recovery_probe_timeout must be >= 0 (0 disables the "
                "recovery probe)")
        if self.lease_duration < 0:
            raise ConfigurationError(
                "lease_duration must be >= 0 (0 disables leases)")
        if self.lease_duration > 0:
            if self.lease_skew < 0:
                raise ConfigurationError("lease_skew must be >= 0")
            if self.lease_duration <= self.lease_skew:
                raise ConfigurationError(
                    "lease_duration must exceed lease_skew or every "
                    "lease expires before it is granted")
            if self.lease_duration < self.heartbeat_interval:
                raise ConfigurationError(
                    "lease_duration shorter than the heartbeat interval "
                    "would lapse between renewals")

    @property
    def effective_decision_interval(self) -> float:
        if self.decision_interval is not None:
            return self.decision_interval
        return self.heartbeat_interval / 2.0

    # ------------------------------------------------------------------
    # Paper presets
    # ------------------------------------------------------------------
    @classmethod
    def intra_cluster(cls) -> "TimingConfig":
        """Paper settings for one region: 100 ms heartbeat."""
        return cls()

    @classmethod
    def inter_cluster(cls) -> "TimingConfig":
        """Paper settings for the global level: 500 ms heartbeat."""
        return cls(heartbeat_interval=0.500,
                   election_timeout_min=1.500,
                   election_timeout_max=3.000,
                   proposal_timeout=4.000,
                   join_timeout=4.000,
                   leader_fill_timeout=2.000,
                   repropose_jitter=0.300)
