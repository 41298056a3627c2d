"""Property-based safety testing: randomized fault schedules.

Hypothesis generates whole failure scenarios -- loss rates, crash/recover
times, silent leaves -- runs them on the simulator, and checks the
paper's safety invariants (Definition 2.1 and the supporting lemmas) on
whatever state results. Liveness is deliberately NOT asserted here (the
paper only guarantees it conditionally); safety must hold always.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InvariantViolation
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster
from repro.harness.checkers import run_safety_checks
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.net.loss import BernoulliLoss
from repro.raft.server import RaftServer
from repro.smr.kv import KVStateMachine

SCENARIO_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

fault_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=6.0),   # when
        st.sampled_from(["crash", "recover", "silent_leave",
                         "silent_return"]),
        st.integers(min_value=0, max_value=4),     # which site
    ),
    max_size=5)


def run_scenario(server_cls, seed, loss_rate, plan, duration=10.0):
    # Random schedules include silent leaves of sites that are actually
    # alive (indistinguishable from partitions), so the paper's degraded
    # reconfiguration must be off for unconditional safety -- the hazard
    # itself is demonstrated by a dedicated test in
    # tests/test_fastraft_membership.py.
    from repro.consensus.timing import TimingConfig
    timing = TimingConfig(allow_degraded_reconfig=False)
    cluster = build_cluster(
        server_cls, n_sites=5, seed=seed, timing=timing,
        loss=BernoulliLoss(loss_rate) if loss_rate else None,
        state_machine_factory=KVStateMachine)
    cluster.start_all()
    faults = FaultInjector(cluster)
    crashed: set[str] = set()
    gone: set[str] = set()

    def apply_fault(kind: str, site: str) -> None:
        # Keep the schedule legal (no double crash etc.); illegal steps
        # become no-ops rather than invalidating the example.
        if kind == "crash" and site not in crashed:
            crashed.add(site)
            faults.crash(site)
        elif kind == "recover" and site in crashed:
            crashed.discard(site)
            faults.recover(site)
        elif kind == "silent_leave" and site not in gone:
            gone.add(site)
            faults.silent_leave(site)
        elif kind == "silent_return" and site in gone:
            gone.discard(site)
            faults.silent_return(site)

    for when, kind, index in plan:
        site = f"n{index}"
        cluster.loop.call_at(when, apply_fault, kind, site)
    client = cluster.add_client(site="n0", proposal_timeout=0.5)
    workload = ClosedLoopWorkload(client, max_requests=100)
    workload.start()
    cluster.run_for(duration)
    run_safety_checks(cluster.servers.values(), cluster.trace)
    return cluster, workload


class TestRandomizedFaultSchedules:
    @SCENARIO_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           loss=st.sampled_from([0.0, 0.02, 0.05, 0.10]),
           plan=fault_plans)
    def test_fastraft_safety_under_random_faults(self, seed, loss, plan):
        run_scenario(FastRaftServer, seed, loss, plan)

    @SCENARIO_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           loss=st.sampled_from([0.0, 0.05]),
           plan=fault_plans)
    def test_classic_raft_safety_under_random_faults(self, seed, loss,
                                                     plan):
        run_scenario(RaftServer, seed, loss, plan)

    @SCENARIO_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_fastraft_liveness_without_faults(self, seed):
        """Under the paper's liveness conditions (no failures, reliable
        enough delivery) every proposal commits."""
        cluster, workload = run_scenario(FastRaftServer, seed,
                                         loss_rate=0.0, plan=[],
                                         duration=15.0)
        assert workload.completed_count >= 100

    @SCENARIO_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           partition_at=st.floats(min_value=1.0, max_value=3.0),
           heal_at=st.floats(min_value=4.0, max_value=6.0),
           split=st.integers(min_value=1, max_value=4))
    def test_fastraft_safety_across_partitions(self, seed, partition_at,
                                               heal_at, split):
        from repro.consensus.timing import TimingConfig
        cluster = build_cluster(FastRaftServer, n_sites=5, seed=seed,
                                timing=TimingConfig(
                                    allow_degraded_reconfig=False),
                                state_machine_factory=KVStateMachine)
        cluster.start_all()
        names = sorted(cluster.servers)
        faults = FaultInjector(cluster)
        cluster.loop.call_at(
            partition_at,
            lambda: faults.partition([names[:split], names[split:]]))
        cluster.loop.call_at(heal_at, faults.heal_partition)
        client = cluster.add_client(site="n0", proposal_timeout=0.5)
        workload = ClosedLoopWorkload(client, max_requests=60)
        workload.start()
        cluster.run_for(12.0)
        run_safety_checks(cluster.servers.values(), cluster.trace)


# Two different CONFIG entries committed at index 26: one decision pass
# at the term-9 leader n0 decides 26-28, adopts each in turn, then
# fast-commits 26 with 2 matches counted against the 2-member
# configuration decided at 27 (the one governing 26 has 3 members).
# The term-10 leader commits the other entry at 26 on the classic track.
# A draw of test_fastraft_safety_under_random_faults, pinned so that it
# runs every time.
@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="fast commit counted in a later configuration")
def test_fastraft_config_entry_fast_committed_in_a_later_configuration():
    run_scenario(FastRaftServer, 7361, 0.1, [
        (4.0, "silent_return", 1), (6.0, "recover", 2),
        (1.5, "silent_leave", 1), (2.125, "crash", 2),
        (0.75, "silent_leave", 4)])
