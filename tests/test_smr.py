"""Tests for the state-machine layer and the client session."""

import pytest

from repro.fastraft.server import FastRaftServer
from repro.smr.kv import KVCommand, KVStateMachine
from machines import AppendOnlyLog, CounterMachine
from tests.conftest import live_servers, started_cluster


class TestMachines:
    def test_append_only_log_orders(self):
        machine = AppendOnlyLog()
        machine.apply("a")
        machine.apply("b")
        assert machine.snapshot() == ("a", "b")

    def test_counter(self):
        machine = CounterMachine()
        machine.apply({"op": "add", "amount": 3})
        machine.apply({"op": "add"})
        assert machine.snapshot() == 4

    def test_counter_rejects_unknown(self):
        with pytest.raises(ValueError):
            CounterMachine().apply({"op": "mul"})

    def test_kv_put_get_delete(self):
        machine = KVStateMachine()
        machine.apply(KVCommand.put("a", 1))
        assert machine.get("a") == 1
        machine.apply({"op": "delete", "key": "a"})
        assert machine.get("a") is None
        assert machine.get("a", "fallback") == "fallback"

    def test_kv_append(self):
        machine = KVStateMachine()
        machine.apply(KVCommand.append("log", "x"))
        machine.apply(KVCommand.append("log", "y"))
        assert machine.get("log") == "xy"

    def test_kv_snapshot_is_copy(self):
        machine = KVStateMachine()
        machine.apply(KVCommand.put("a", 1))
        snap = machine.snapshot()
        snap["a"] = 99
        assert machine.get("a") == 1

    def test_kv_rejects_bad_commands(self):
        with pytest.raises(ValueError):
            KVStateMachine().apply("not-a-dict")
        with pytest.raises(ValueError):
            KVStateMachine().apply({"op": "explode"})

    def test_kv_len(self):
        machine = KVStateMachine()
        machine.apply(KVCommand.put("a", 1))
        machine.apply(KVCommand.put("b", 2))
        assert len(machine.snapshot()) == 2


class TestClient:
    def test_latency_measured_from_first_submission(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        record = cluster.propose_and_wait(client, KVCommand.put("x", 1))
        assert record.latency is not None
        assert record.latency == record.committed_at - record.submitted_at
        assert record.attempts == 1

    def test_request_ids_unique_and_ordered(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        r1 = client.submit(KVCommand.put("a", 1))
        r2 = client.submit(KVCommand.put("b", 2))
        assert r1.request_id != r2.request_id

    def test_retry_on_timeout_preserves_request_id(self):
        """With the leader crashed mid-request, the client retries until a
        new leader commits; the entry applies exactly once."""
        cluster = started_cluster(FastRaftServer, seed=6)
        from repro.harness.faults import FaultInjector
        leader = cluster.leader()
        client = cluster.add_client(
            site=next(n for n in cluster.servers if n != leader),
            proposal_timeout=0.5)
        FaultInjector(cluster).crash(leader)
        record = client.submit(KVCommand.put("retry", 7))
        assert cluster.run_until(lambda: record.done, timeout=30.0)
        assert record.attempts >= 1
        cluster.run_for(1.0)
        values = [s.state_machine.get("retry") for s in live_servers(cluster)]
        assert all(v == 7 for v in values)

    def test_max_attempts_abandons(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        # isolate the attached site so nothing ever commits
        cluster.network.disconnect("n0")
        client = cluster.add_client(site="n0", proposal_timeout=0.2,
                                    max_attempts=3)
        # attached-site traffic is local, but n0 cannot reach the cluster
        record = client.submit(KVCommand.put("lost", 1))
        cluster.run_for(5.0)
        assert not record.done
        assert record in client.abandoned
        assert not client._pending

    def test_completed_ordering(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        for i in range(3):
            cluster.propose_and_wait(client, KVCommand.put(f"k{i}", i))
        assert [r.command["key"] for r in client.completed] == [
            "k0", "k1", "k2"]

    def test_attach_to_other_site(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")
        client.attach_to("n3")
        record = cluster.propose_and_wait(client, KVCommand.put("m", 1))
        assert record.done
