"""Scenario subsystem battery.

Three guarantees are pinned here:

1. **Migration fidelity** -- every migrated figure driver reproduces the
   exact table values the hand-written (pre-scenario) drivers produced
   for a pinned seed. The golden values below were captured from the
   seed-state code before the refactor; any drift in RNG stream usage,
   construction order, or event scheduling shows up as a mismatch.
2. **Serial == parallel** -- the SweepRunner produces identical metrics
   with ``jobs=1`` and ``jobs>1`` for the same cells.
3. **Spec semantics** -- the declarative layer (topology placement,
   event triggers, schedules, registry) behaves as documented.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import (
    AblationConfig,
    decision_cells,
    decision_table,
)
from repro.experiments.fig3_latency import Fig3Config
from repro.experiments.fig4_churn import Fig4Config
from repro.experiments.fig5_throughput import Fig5Config
from repro.experiments.large_mesh import LargeMeshConfig
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import SweepRunner, run_cell
from repro.scenarios.spec import (
    Cell,
    Event,
    EventSchedule,
    LatencySpec,
    ScenarioSpec,
    SLOSpec,
    TopologySpec,
    WorkloadSpec,
)
from tests.conftest import run_preset


def rows_equal(actual, expected):
    """Cell-wise equality that treats NaN == NaN (empty phases)."""
    assert len(actual) == len(expected)
    for row_a, row_e in zip(actual, expected):
        assert len(row_a) == len(row_e)
        for a, e in zip(row_a, row_e):
            if (isinstance(a, float) and isinstance(e, float)
                    and math.isnan(a) and math.isnan(e)):
                continue
            assert a == e, f"{row_a} != {row_e}"


# ----------------------------------------------------------------------
# 1. Migration fidelity: pinned-seed goldens from the pre-scenario code
# ----------------------------------------------------------------------
class TestGoldenTables:
    def test_rounds_golden(self):
        r = run_preset("rounds", "quick")
        assert [r.classic_commit_hops, r.classic_proposer_hops,
                r.fast_commit_hops, r.fast_proposer_hops] == [3, 4, 2, 3]

    def test_fig3_golden(self):
        r = get_scenario("fig3").run(Fig3Config(loss_rates=(0.0, 0.05),
                                                trials=8))
        rows_equal(r.table().as_dict()["rows"], [
            [0.0, 99.63279773782213, 49.3842454428823,
             100.07348202911001, 50.12365861729137, 2.01750167172357],
            [5.0, 161.77169408559584, 55.692111127086086,
             394.4196759970233, 82.99195823140847, 2.904750615692094],
        ])

    def test_fig4_golden(self):
        r = get_scenario("fig4").run(Fig4Config(warmup_commits=10,
                                                total_commits=50))
        table = r.table().as_dict()
        rows_equal(table["rows"], [
            ["before leave", 11, 49.22197213695124, 50.00000000000004,
             50.00000000000004],
            ["transition", 39, 62.82051282051274, 100.72072294255966,
             150.81615631430833],
            ["recovered", 0, float("nan"), float("nan"), float("nan")],
        ])
        assert table["notes"] == [
            "members after recovery: ['n2', 'n3', 'n4'], fast quorum 3",
            "silent leave at t=0.82s, loss 5%, member timeout 5 beats",
        ]

    def test_fig5_golden(self):
        # Re-pinned for the global-membership liveness work (PR 4): the
        # bootstrap seed now retires into a standing observer that keeps
        # receiving replication, which shifts the shared latency-RNG
        # stream and therefore the committed count within the window.
        r = get_scenario("fig5").run(Fig5Config(
            cluster_counts=(2,), trial_duration=20.0, trials=1, warmup=5.0))
        rows_equal(r.table().as_dict()["rows"], [[2, 4.0, 31.5, 7.875]])

    def test_ablation_decision_golden(self):
        config = AblationConfig(commits=10, decision_fractions=(0.5, 1.0))
        table = decision_table(config,
                               SweepRunner().run(decision_cells(config)))
        rows_equal(table.as_dict()["rows"], [
            [0.5, 50.0, 49.257631255792674],
            [1.0, 100.0, 99.38668269739864],
        ])

    def test_catchup_golden(self):
        fast, craft = (r.table().as_dict() for r in run_preset(
            "catchup", engines=("fastraft", "craft")))
        rows_equal(fast["rows"], [
            ["full replay", 71, 72, 0, 1749.9999999999632],
            ["snapshots", 71, 3, 1, 1449.9999999999695],
        ])
        rows_equal(craft["rows"], [
            ["full replay", 108, 124, 0, 2089.9999999999554],
            ["snapshots", 108, 22, 1, 1069.9999999999773],
        ])
        assert craft["notes"] == [
            "snapshots: 14 taken, 2 shipped, 1 installed, 314 entries "
            "compacted",
            "crash after 10 commits, recover after 70; compaction "
            "threshold 25, retain 4",
        ]

    def test_ablations_smoke_golden(self):
        """All four ablation tables at smoke scale, plus the claims each
        table exists to show."""
        decision, dispatch, proposers, batch = (
            t.as_dict()["rows"] for t in run_preset("ablations"))
        rows_equal(decision, [
            [0.5, 50.0, 49.257631255792674],
            [1.0, 100.0, 99.38668269739864],
        ])
        rows_equal(dispatch, [
            ["classic Raft", 99.81813775109907, 1.3772267277151862],
            ["Fast Raft", 49.18676923033523, 49.3538095748174],
        ])
        rows_equal(proposers, [[1, 49.71383015562724],
                               [2, 76.56702398702059]])
        rows_equal(batch, [[1, 6.9], [10, 66.5]])
        # Latency tracks the decision cadence.
        assert decision[-1][2] > decision[0][2]
        # Eager dispatch removes classic Raft's half-heartbeat queueing.
        assert dispatch[0][2] < dispatch[0][1]
        # More proposers contend for indices: never faster.
        assert proposers[-1][1] >= proposers[0][1] * 0.9
        # Batch size 10 amortizes the global round batch size 1 pays.
        rates = dict(batch)
        assert rates[10] > rates[1]


# ----------------------------------------------------------------------
# 2. Serial vs parallel: the identical-results guarantee
# ----------------------------------------------------------------------
class TestSweepRunnerParallel:
    def test_fig3_serial_equals_parallel(self):
        scenario = get_scenario("fig3")
        config = Fig3Config(loss_rates=(0.0, 0.05), trials=6)
        serial = scenario.run(config, jobs=1)
        parallel = scenario.run(config, jobs=3)
        assert serial.table().as_dict() == parallel.table().as_dict()

    def test_catchup_serial_equals_parallel(self):
        [serial] = run_preset("catchup", engines=("raft",), jobs=1)
        [parallel] = run_preset("catchup", engines=("raft",), jobs=2)
        assert serial.table().as_dict() == parallel.table().as_dict()
        table = serial.table().as_dict()
        rows_equal(table["rows"], [
            ["full replay", 71, 71, 0, 399.9999999999915],
            ["snapshots", 71, 4, 1, 299.99999999999363],
        ])
        assert table["notes"][0] == (
            "snapshots: 12 taken, 6 shipped, 1 installed, 263 entries "
            "compacted")

    def test_single_cell_runs_inline(self):
        """jobs > 1 with one cell must not pay the pool overhead."""
        scenario = get_scenario("fig4")
        config = Fig4Config(warmup_commits=5, total_commits=25)
        serial = scenario.run(config).table().as_dict()
        parallel = scenario.run(config, jobs=4).table().as_dict()
        rows_equal(serial["rows"], parallel["rows"])
        assert serial["notes"] == parallel["notes"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            SweepRunner(0)


# ----------------------------------------------------------------------
# 2b. The persistent worker pool
# ----------------------------------------------------------------------
class TestPersistentSweepPool:
    def test_pool_persists_until_shape_changes(self):
        from repro.scenarios import runner
        runner.close_sweep_pool()
        first = runner.sweep_pool(2)
        assert runner.sweep_pool(2) is first      # reused, not respawned
        resized = runner.sweep_pool(3)
        assert resized is not first               # shape change rebuilds
        runner.close_sweep_pool()
        assert runner._POOL is None
        runner.close_sweep_pool()                 # idempotent

    def test_only_a_pool_loads_multiprocessing(self):
        """Serial runs never load multiprocessing (nor the socket module
        it pulls in): ``sweep_pool`` imports it when a pool is built."""
        code = ("import sys, repro, repro.scenarios, "
                "repro.experiments.heavy_traffic; "
                "print('multiprocessing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_worker_failure_names_cell_and_terminates_pool(self):
        from repro.scenarios import runner
        spec = ScenarioSpec(name="boom", engine="raft",
                            topology=TopologySpec(n_sites=3),
                            workload=WorkloadSpec(requests=1),
                            drive="not_a_registered_drive")
        cells = [Cell(key=("boom", i), spec=spec, seed=i)
                 for i in range(2)]
        with pytest.raises(ExperimentError) as err:
            SweepRunner(jobs=2).map(cells)
        message = str(err.value)
        assert "'boom'" in message and "failed in worker" in message
        assert runner._POOL is None               # terminated, not leaked

    def test_per_cell_profiles_in_serial_and_parallel(self, tmp_path):
        import pstats

        from repro.experiments.fig3_latency import fig3_cells
        cells = fig3_cells(Fig3Config(loss_rates=(0.0,), trials=2))
        serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
        serial = SweepRunner(jobs=1, profile_dir=str(serial_dir)).map(cells)
        parallel = SweepRunner(jobs=2,
                               profile_dir=str(parallel_dir)).map(cells)
        assert serial == parallel                 # profiling changes nothing
        for directory in (serial_dir, parallel_dir):
            dumps = sorted(directory.glob("cell_*.pstats"))
            assert len(dumps) == len(cells)
            stats = pstats.Stats(str(dumps[0]))   # loadable, non-empty
            assert stats.total_calls > 0

    def test_profile_context_threads_through_nested_runs(self, tmp_path):
        from repro.scenarios.runner import per_cell_profiles
        with per_cell_profiles(tmp_path):
            get_scenario("fig3").run(Fig3Config(loss_rates=(0.0,),
                                                trials=1), jobs=1)
        assert list(tmp_path.glob("cell_*.pstats"))


# ----------------------------------------------------------------------
# 3. Spec semantics
# ----------------------------------------------------------------------
class TestSpecs:
    def test_topology_region_sizes(self):
        topo = TopologySpec(n_sites=5, regions=("core", "edge"),
                            region_sizes=(3, 2)).build()
        assert topo.nodes_in_region("core") == ["n0", "n1", "n2"]
        assert topo.nodes_in_region("edge") == ["n3", "n4"]

    def test_topology_rejects_bad_sizes(self):
        with pytest.raises(ExperimentError):
            TopologySpec(n_sites=5, regions=("a", "b"),
                         region_sizes=(3, 3))

    def test_event_needs_exactly_one_trigger(self):
        with pytest.raises(ExperimentError):
            Event("crash", target="n0")
        with pytest.raises(ExperimentError):
            Event("crash", target="n0", at=1.0, after_commits=5)
        with pytest.raises(ExperimentError):
            Event("explode", target="n0", at=1.0)

    def test_flapping_schedule_windows(self):
        schedule = EventSchedule.flapping_link(
            (("a",), ("b",)), first_outage=1.0, outage=0.5, stable=2.0,
            cycles=2)
        assert [(e.action, e.at) for e in schedule.timed()] == [
            ("partition", 1.0), ("heal_partition", 1.5),
            ("partition", 3.5), ("heal_partition", 4.0)]

    def test_craft_requires_regions(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec(name="x", engine="craft")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ExperimentError):
            WorkloadSpec(placement="everywhere")

    def test_latency_spec_builds_bandwidth_wrappers(self):
        from repro.net.latency import BandwidthLatencyModel, ConstantLatency
        plain = LatencySpec.constant(0.01, bandwidth=1000.0).build(None)
        assert type(plain) is BandwidthLatencyModel
        assert type(plain.base) is ConstantLatency
        assert plain.bandwidth == 1000.0

    def test_duplicate_cell_keys_rejected(self):
        spec = ScenarioSpec(name="dup", engine="raft",
                            topology=TopologySpec(n_sites=3),
                            workload=WorkloadSpec(requests=1))
        cells = [Cell(key=("same",), spec=spec, seed=1),
                 Cell(key=("same",), spec=spec, seed=2)]
        with pytest.raises(ExperimentError):
            SweepRunner().run(cells)

    def test_nonleader_target_requires_recorded_leader(self):
        from repro.harness.faults import resolve_event_targets
        event = Event("crash", target="nonleader:0", at=1.0)
        with pytest.raises(ExperimentError):
            resolve_event_targets(event, ["n0", "n1"], None)

    def test_timed_event_before_election_fires_instead_of_crashing(self):
        spec = ScenarioSpec(
            name="unit.early_event", engine="raft",
            topology=TopologySpec(n_sites=3),
            schedule=EventSchedule((
                Event("set_loss", at=0.05, args=(0.0,)),)),
            workload=WorkloadSpec(placement="leader", requests=5))
        stats = run_cell(spec, seed=4)
        assert stats.count == 5

    def test_run_cell_executes_spec_directly(self):
        spec = ScenarioSpec(
            name="unit.direct", engine="raft",
            topology=TopologySpec(n_sites=3),
            workload=WorkloadSpec(placement="leader", requests=5))
        stats = run_cell(spec, seed=1)
        assert stats.count == 5

    def test_timed_events_fire_in_order(self):
        spec = ScenarioSpec(
            name="unit.timed", engine="raft",
            topology=TopologySpec(n_sites=3),
            schedule=EventSchedule((
                Event("crash", target="nonleader:0", at=2.0),
                Event("recover", target="nonleader:0", at=4.0))),
            workload=WorkloadSpec(placement="leader", requests=30))
        stats = run_cell(spec, seed=2)
        assert stats.count == 30


# ----------------------------------------------------------------------
# Registry + new scenarios
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_scenarios_registered(self):
        names = scenario_names()
        for expected in ("rounds", "fig3", "fig4", "fig5", "ablations",
                         "catchup", "catchup_wan", "flapping_wan",
                         "migrated_region", "two_region_failover",
                         "large_mesh", "heavy_traffic"):
            assert expected in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ExperimentError):
            get_scenario("no_such_scenario")

    def test_registry_runs_a_scenario_end_to_end(self):
        scenario = get_scenario("fig4")
        result = scenario.run(Fig4Config(warmup_commits=5,
                                         total_commits=25), jobs=1)
        tables = scenario.tables(result)
        assert len(tables) == 1
        payload = scenario.as_dict(result)
        assert payload["scenario"] == "fig4"

    def test_every_scenario_configures_every_mode(self):
        """Modes come from the presets; ``full`` is the config's
        defaults, and every mode expands to a non-empty sweep."""
        for name in scenario_names():
            scenario = get_scenario(name)
            assert sorted(scenario.modes) == ["full", "quick", "smoke"]
            assert scenario.configure("full") == scenario.config()
            for mode in scenario.modes:
                assert scenario.cells(scenario.configure(mode)), name
        with pytest.raises(ExperimentError):
            get_scenario("fig3").configure("huge")


class TestNewScenarios:
    def test_flapping_wan_smoke(self):
        result = run_preset("flapping_wan")
        result.check_shape()
        # The link spends real time down, yet every commit lands and the
        # completions cluster into the stability windows.
        assert result.outage_commits <= result.stable_commits / 4
        table = result.table().as_dict()
        rows_equal(table["rows"],
                   [[25, 25, 0, 225.50419824639303, 1725.2695913131467]])
        assert table["notes"] == [
            "3 cycles of 0.8s outage / 1.5s stability; link down 2.1s of "
            "6.1s total"]

    def test_migrated_region_smoke(self):
        result = run_preset("migrated_region")
        result.check_shape()
        # The whole region adopted the image through the gated path.
        assert result.gated_sites == 3
        assert result.installs >= 1
        table = result.table().as_dict()
        rows_equal(table["rows"], [[9, 3, 60, 9, 1, 3, 4000.000000000057]])
        assert table["notes"] == [
            "region 'us-west' booted after global compaction (threshold 6 "
            "batches, retain 1)"]

    def test_large_mesh_smoke(self):
        """The 6x5 flapping mesh the core speedup makes tractable: the
        global level keeps committing while one region's uplink flaps."""
        result = run_preset("large_mesh")
        result.check_shape()
        assert result.config.clusters >= 6
        assert result.config.sites_per_cluster >= 5
        assert result.throughput > 0
        table = result.table().as_dict()
        rows_equal(table["rows"], [[6, 30, 85.55555555555556]])
        assert table["notes"] == [
            "4 cycles of 1.5s outage / 3.0s stability cutting one region; "
            "18s window, batch 10"]

    def test_large_mesh_rejects_small_meshes(self):
        with pytest.raises(ExperimentError):
            LargeMeshConfig(clusters=2)

    def test_two_region_failover_smoke(self):
        """The formerly-deadlocked shape at its pinned seed: the east
        leader's crash must not wedge the global configuration."""
        result = run_preset("two_region_failover")
        result.check_shape()
        assert result.observer  # a standing tiebreaker existed
        assert result.victim not in result.members_after
        assert result.successor in result.members_after
        table = result.table().as_dict()
        rows_equal(table["rows"], [["n1", "n0", "n0", 2.1, 5.5, 8.5, 10]])
        assert table["notes"] == [
            "members after failover: ['n0', 'n4']; the dead site never "
            "returned (round = one global heartbeat interval, budget 60)"]

    def test_heavy_traffic_smoke(self):
        """The serving capstone: a session fleet on the 6x5 mesh with
        adaptive batching; the run itself enforces the SLOSpec, so a
        clean return means every percentile bound held."""
        result = run_preset("heavy_traffic")
        result.check_shape()
        assert result.latency.count > 0
        assert result.latency.p99 >= result.latency.median
        assert result.abandoned_fraction <= 0.05
        assert result.fired >= 2  # the WAN flap is armed and live
        table = result.table().as_dict()
        rows_equal(table["rows"], [[300, 60.0, 32.7, 28.2, 60.4, 211.4, 0.0]])
        assert table["notes"] == [
            "10s window, adaptive batching, 3 WAN flap events fired, 0 "
            "duplicate retries suppressed without consensus"]

    def test_heavy_traffic_rejects_small_meshes(self):
        from repro.experiments.heavy_traffic import HeavyTrafficConfig
        with pytest.raises(ExperimentError):
            HeavyTrafficConfig(clusters=2)


class TestScenarioVocabulary:
    def test_new_actions_registered(self):
        from repro.scenarios.spec import EVENT_ACTIONS
        assert {"set_loss", "set_latency", "request_join"} <= EVENT_ACTIONS
        assert not {"set_link_loss", "set_bandwidth"} & EVENT_ACTIONS

    def test_set_latency_event_changes_delays_from_its_fire_time(self):
        """A scheduled ``set_latency`` swaps the fabric's latency model
        when it fires: a message sent earlier keeps the delay it drew,
        even while in flight across the swap; one sent later draws from
        the new model. ``LatencySpec()`` (kind "default") means the
        builder's ``DEFAULT_LATENCY``."""
        from repro.harness.builder import DEFAULT_LATENCY, build_cluster
        from repro.harness.faults import FaultInjector
        from repro.net.latency import ConstantLatency
        from repro.raft.server import RaftServer
        from repro.sim.actor import Actor

        class Stamp(Actor):
            def __init__(self, system, name):
                super().__init__(system.loop, name)
                self.arrivals = {}
                system.network.register(self)

            def on_message(self, message, sender):
                self.arrivals[message] = self.now()

        cluster = build_cluster(RaftServer, n_sites=1,
                                latency=ConstantLatency(0.010))
        Stamp(cluster, "p")
        sink = Stamp(cluster, "q")
        faults = FaultInjector(cluster)
        loop = cluster.loop
        for event in (
                Event("set_latency", at=1.0,
                      args=(LatencySpec.constant(0.050),)),
                Event("set_latency", at=2.0, args=(LatencySpec(),))):
            loop.call_at(event.at, faults.apply_event, event)
        sent = {"before": 0.5, "in_flight": 0.995, "after": 1.5,
                "default": 2.5}
        for message, at in sent.items():
            loop.call_at(at, cluster.network.send, "p", "q", message)
        loop.run_until(3.0)
        delay = {m: sink.arrivals[m] - at for m, at in sent.items()}
        assert delay["before"] == pytest.approx(0.010)
        assert delay["in_flight"] == pytest.approx(0.010)
        assert delay["after"] == pytest.approx(0.050)
        assert DEFAULT_LATENCY.low <= delay["default"] < DEFAULT_LATENCY.high
        assert [kind for _, kind, _ in faults.injected] == [
            "set_latency", "set_latency"]


class TestSLOSpec:
    def stats(self, median=0.5, p99=1.0, p999=2.0, maximum=3.0):
        from repro.metrics.summary import SummaryStats
        return SummaryStats(count=100, mean=median, median=median,
                            stdev=0.0, minimum=0.0, maximum=maximum,
                            p5=0.0, p95=p99, p99=p99, p999=p999)

    def test_within_bounds_passes(self):
        slo = SLOSpec(p50=1.0, p99=2.0, p999=4.0, min_throughput=10.0,
                      max_abandoned_fraction=0.05)
        slo.check(latency=self.stats(), throughput=50.0,
                  abandoned_fraction=0.0)

    def test_violations_name_every_failed_bound(self):
        slo = SLOSpec(p50=0.1, p999=1.0, min_throughput=100.0)
        with pytest.raises(ExperimentError) as err:
            slo.check(latency=self.stats(), throughput=50.0)
        message = str(err.value)
        assert "SLO violated" in message
        assert "p50" in message
        assert "p999" in message
        assert "throughput" in message
        assert "p99" not in message.replace("p999", "")  # unset: unchecked

    def test_throughput_bound_is_a_floor(self):
        SLOSpec(min_throughput=10.0).check(throughput=10.0)
        with pytest.raises(ExperimentError):
            SLOSpec(min_throughput=10.0).check(throughput=9.9)

    def test_none_measurements_are_unchecked(self):
        SLOSpec(p50=0.1, min_throughput=100.0).check()

    def test_abandoned_fraction_bound(self):
        with pytest.raises(ExperimentError):
            SLOSpec(max_abandoned_fraction=0.01).check(
                abandoned_fraction=0.02)
