"""Tests for the scenario harness: builder, faults, workloads, checkers."""

import pytest

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.errors import ExperimentError, InvariantViolation
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster
from repro.harness.checkers import (
    check_applied_consistency,
    check_commit_monotonic,
    check_committed_prefix_agreement,
    check_election_safety,
    check_log_matching,
)
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.raft.server import RaftServer
from repro.scenarios.spec import Event
from repro.sim.trace import TraceRecorder
from tests.conftest import started_cluster


class TestBuilder:
    def test_builds_requested_sites(self):
        cluster = build_cluster(RaftServer, n_sites=7, seed=0)
        assert len(cluster.servers) == 7
        assert sorted(cluster.servers) == [f"n{i}" for i in range(7)]

    def test_no_leader_before_start(self):
        cluster = build_cluster(RaftServer, n_sites=3, seed=0)
        assert cluster.leader() is None

    def test_same_seed_same_leader(self):
        leaders = {started_cluster(RaftServer, seed=42).leader()
                   for _ in range(3)}
        assert len(leaders) == 1

    def test_zero_sites_rejected(self):
        with pytest.raises(ExperimentError):
            build_cluster(RaftServer, n_sites=0)

    def test_client_to_unknown_site_rejected(self):
        cluster = build_cluster(RaftServer, n_sites=3, seed=0)
        with pytest.raises(ExperimentError):
            cluster.add_client(site="ghost")

    def test_run_until_timeout_returns_false(self):
        cluster = started_cluster(RaftServer, seed=0)
        assert not cluster.run_until(lambda: False, timeout=0.5)


class TestFaults:
    def test_injection_log(self):
        cluster = started_cluster(RaftServer, seed=1)
        faults = FaultInjector(cluster)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults.crash(victim)
        faults.recover(victim)
        kinds = [kind for _, kind, _ in faults.injected]
        assert kinds == ["crash", "recover"]

    def test_schedule_fires_at_time(self):
        cluster = started_cluster(RaftServer, seed=1)
        faults = FaultInjector(cluster)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        at = cluster.loop.now() + 1.0
        event = Event("crash", target=victim, at=at)
        cluster.loop.call_at(at, faults.apply_event, event)
        assert cluster.servers[victim].alive
        cluster.run_for(1.5)
        assert not cluster.servers[victim].alive

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ExperimentError):
            Event("meteor", target="n0", at=1.0)

    def test_unknown_site_rejected(self):
        cluster = started_cluster(RaftServer, seed=1)
        with pytest.raises(ExperimentError):
            FaultInjector(cluster).crash("ghost")


class TestNonleaderSelector:
    def test_resolves_against_fire_time_leader(self):
        """Leadership moved between schedule evaluation and application:
        the selector must exclude the *current* leader, or a follower
        fault silently becomes a leader fault."""
        from repro.harness.faults import resolve_event_targets
        from repro.scenarios.spec import Event
        event = Event("crash", target="nonleader:0", at=1.0)
        order = ["n0", "n1", "n2"]
        assert resolve_event_targets(event, order, "n0") == ["n1"]
        # the initial leader n0 lost leadership to n1 before fire time
        assert resolve_event_targets(event, order, "n0",
                                     current_leader="n1") == ["n0"]

    def test_pinned_by_sorted_node_id(self):
        """Selection is pinned to sorted site ids, not builder insertion
        order, so two construction paths agree on nonleader:i."""
        from repro.harness.faults import resolve_event_targets
        from repro.scenarios.spec import Event
        event = Event("crash", target="nonleader:1", at=1.0)
        shuffled = ["n2", "n0", "n1"]
        assert resolve_event_targets(event, shuffled, "n0") == ["n2"]

    def test_fire_time_resolution_end_to_end(self):
        """A scheduled nonleader crash after a leader change hits a
        follower of the *new* leader (regression: it used to be able to
        crash the live leader recorded as a non-leader initially)."""
        cluster = started_cluster(RaftServer, seed=1)
        initial = cluster.leader()
        faults = FaultInjector(cluster)
        # Depose the initial leader by crashing it; a new one emerges.
        faults.crash(initial)
        assert cluster.run_until(
            lambda: cluster.leader() not in (None, initial), timeout=15.0)
        faults.recover(initial)
        cluster.run_for(0.5)
        new_leader = cluster.leader()
        from repro.scenarios.spec import Event
        event = Event("crash", target="nonleader:0", at=1.0)
        sites = faults.apply_event(event, initial_leader=initial)
        assert sites and sites[0] != new_leader


class TestWorkloads:
    def test_closed_loop_completes_exactly_max(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=7)
        workload.start()
        assert cluster.run_until(lambda: workload.done, timeout=20.0)
        assert workload.completed_count == 7
        assert len(workload.records) == 7

    def test_closed_loop_is_sequential(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=5)
        workload.start()
        cluster.run_until(lambda: workload.done, timeout=20.0)
        records = workload.records
        for earlier, later in zip(records, records[1:]):
            assert later.submitted_at >= earlier.committed_at

    def test_closed_loop_stop(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=100)
        workload.start()
        cluster.run_for(0.3)
        workload.stop()
        done_at_stop = workload.completed_count
        cluster.run_for(2.0)
        assert workload.completed_count <= done_at_stop + 1


def _entry(entry_id, term=1, by=InsertedBy.LEADER):
    return LogEntry(entry_id=entry_id, kind=EntryKind.DATA, payload=None,
                    origin="x", term=term, inserted_by=by)


class FakeEngine:
    def __init__(self, name, entries, commit_index):
        from repro.consensus.log import RaftLog
        self.name = name
        self.log = RaftLog()
        for index, entry in entries:
            self.log.insert(index, entry)
        self.commit_index = commit_index


class TestCheckers:
    def test_prefix_agreement_passes(self):
        a = FakeEngine("a", [(1, _entry("x")), (2, _entry("y"))], 2)
        b = FakeEngine("b", [(1, _entry("x"))], 1)
        check_committed_prefix_agreement([a, b])

    def test_prefix_agreement_catches_divergence(self):
        a = FakeEngine("a", [(1, _entry("x"))], 1)
        b = FakeEngine("b", [(1, _entry("DIFFERENT"))], 1)
        with pytest.raises(InvariantViolation):
            check_committed_prefix_agreement([a, b])

    def test_prefix_agreement_catches_committed_hole(self):
        a = FakeEngine("a", [(1, _entry("x"))], 1)
        b = FakeEngine("b", [(2, _entry("y"))], 1)  # hole at 1
        with pytest.raises(InvariantViolation):
            check_committed_prefix_agreement([a, b])

    def test_log_matching_catches_same_term_conflict(self):
        a = FakeEngine("a", [(1, _entry("x", term=2))], 0)
        b = FakeEngine("b", [(1, _entry("y", term=2))], 0)
        with pytest.raises(InvariantViolation):
            check_log_matching([a, b])

    def test_log_matching_ignores_self_approved(self):
        a = FakeEngine("a", [(1, _entry("x", term=2, by=InsertedBy.SELF))], 0)
        b = FakeEngine("b", [(1, _entry("y", term=2))], 0)
        check_log_matching([a, b])  # no exception

    def test_election_safety_catches_double_leader(self):
        trace = TraceRecorder()
        trace.record(1.0, "n1", "raft.role.leader", scope="main", term=3)
        trace.record(1.1, "n2", "raft.role.leader", scope="main", term=3)
        with pytest.raises(InvariantViolation):
            check_election_safety(trace)

    def test_election_safety_allows_scoped_same_term(self):
        trace = TraceRecorder()
        trace.record(1.0, "n1", "craft.local.role.leader", scope="us", term=3)
        trace.record(1.1, "n2", "craft.local.role.leader", scope="eu", term=3)
        check_election_safety(trace)

    def test_commit_monotonic(self):
        check_commit_monotonic({"a": [0, 1, 2, 2, 5]})
        with pytest.raises(InvariantViolation):
            check_commit_monotonic({"a": [0, 3, 1]})

    def test_applied_consistency(self):
        class FakeServer:
            def __init__(self, applied):
                self.applied_log = applied

        ok_a = FakeServer([(1, _entry("x")), (2, _entry("y"))])
        ok_b = FakeServer([(1, _entry("x"))])
        check_applied_consistency([ok_a, ok_b])
        bad = FakeServer([(1, _entry("z"))])
        with pytest.raises(InvariantViolation):
            check_applied_consistency([ok_a, bad])
        gap = FakeServer([(4, _entry("x")), (6, _entry("w"))])
        with pytest.raises(InvariantViolation,
                           match="applied index 6 after 4"):
            check_applied_consistency([gap])
