"""Integration tests: every paper experiment runs at quick scale and
reproduces the expected shape."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, cell_seed
from repro.experiments.regions import (
    REGIONS,
    RTT_MATRIX,
    latency_model_for,
    regions_for,
)
from repro.net.topology import Topology
from repro.scenarios.registry import get_scenario
from tests.conftest import run_preset


class TestBase:
    def test_cell_seed_stable_and_distinct(self):
        assert cell_seed(1, "a", 2) == cell_seed(1, "a", 2)
        assert cell_seed(1, "a", 2) != cell_seed(1, "a", 3)
        assert cell_seed(1, "a") != cell_seed(2, "a")

    def test_table_formatting(self):
        table = ResultTable("T", ["col a", "b"])
        table.add_row(1.234567, "x")
        table.add_note("hello")
        text = table.format()
        assert "1.23" in text
        assert "note: hello" in text

    def test_table_rejects_wrong_arity(self):
        table = ResultTable("T", ["a", "b"])
        with pytest.raises(ExperimentError):
            table.add_row(1)


class TestRegions:
    def test_full_matrix_coverage(self):
        """Every region pair in the pool has an RTT (either ordering --
        RegionLatencyModel normalizes keys)."""
        for i, a in enumerate(REGIONS):
            for b in REGIONS[i + 1:]:
                assert ((a, b) in RTT_MATRIX or (b, a) in RTT_MATRIX), \
                    f"missing ({a}, {b})"

    def test_rtts_in_paper_envelope(self):
        """Paper: 10 to 300 ms between regions."""
        for rtt in RTT_MATRIX.values():
            assert 0.010 <= rtt <= 0.300

    def test_regions_for_bounds(self):
        assert len(regions_for(10)) == 10
        with pytest.raises(ExperimentError):
            regions_for(0)
        with pytest.raises(ExperimentError):
            regions_for(99)

    def test_latency_model_covers_topology(self):
        topo = Topology.even_clusters(20, regions_for(10))
        model = latency_model_for(topo)
        import random
        rng = random.Random(0)
        for node in topo.nodes:
            assert model.sample(rng, node, topo.nodes[0]) >= 0


class TestRounds:
    def test_reproduces_figs_1_2(self):
        result = run_preset("rounds", "quick")
        result.check_shape()
        assert result.classic_commit_hops == 3
        assert result.fast_commit_hops == 2


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_preset("fig3", "quick")

    def test_shape(self, result):
        result.check_shape()

    def test_headline_speedup(self, result):
        assert result.points[0].speedup == pytest.approx(2.0, abs=0.5)

    def test_table_has_all_points(self, result):
        table = result.table()
        assert len(table.rows) == len(result.config.loss_rates)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_preset("fig4", "quick")

    def test_shape(self, result):
        result.check_shape()

    def test_configuration_shrinks(self, result):
        assert len(result.final_members) == 3
        assert result.final_fast_quorum == 3

    def test_pre_leave_band_matches_paper(self, result):
        """Paper: 50-100 ms proposals before the leave."""
        pre, _, _ = result.phase_latencies()
        mean = sum(pre) / len(pre)
        assert 0.030 <= mean <= 0.110


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_preset("fig5", "smoke")

    def test_craft_wins_at_ten_clusters(self, result):
        assert result.points[-1].speedup >= 3.0

    def test_comparable_at_one_cluster(self, result):
        assert 0.4 <= result.points[0].speedup <= 2.5

    def test_table(self, result):
        table = result.table()
        assert len(table.rows) == 2


class TestCatchup:
    """Snapshot catch-up beats full replay in every engine (the snapshot
    subsystem's acceptance criterion, at quick scale)."""

    @pytest.mark.parametrize("engine", ["raft", "fastraft", "craft"])
    def test_snapshots_beat_full_replay(self, engine):
        [result] = run_preset("catchup", "quick", engines=(engine,))
        # Enforces strictly fewer replayed entries and strictly faster
        # catch-up with snapshots, plus >= 1 install.
        result.check_shape()

    def test_table_and_dict(self):
        results = run_preset("catchup", "quick", engines=("fastraft",))
        data = get_scenario("catchup").as_dict(results)
        assert data["scenario"] == "catchup"
        [table] = data["tables"]
        assert table["title"].endswith("fastraft")
        assert table["columns"][3] == "installs"
        full_replay, snapshots = table["rows"]
        assert full_replay[3] == 0 and snapshots[3] >= 1

    #: Smoke-scale WAN rejoin tables per engine, pinned: (mode, commits,
    #: image KB, chunks, catchup ms).
    WAN_GOLDEN = {
        "raft": [["chunked", 40, 36.2568359375, 16, 389.9999999999917],
                 ["chunked", 100, 102.203125, 83, 849.9999999999819],
                 ["monolithic", 40, 36.2568359375, 0, 589.9999999999874],
                 ["monolithic", 100, 102.203125, 0, 949.9999999999798]],
        "fastraft": [
            ["chunked", 40, 36.275390625, 10, 1749.9999999999627],
            ["chunked", 100, 102.224609375, 21, 1869.9999999999602],
            ["monolithic", 40, 36.275390625, 0, 1949.9999999999584],
            ["monolithic", 100, 102.224609375, 0, 2369.9999999999495]],
    }

    @pytest.mark.parametrize("engine", ["raft", "fastraft"])
    def test_wan_catchup_smoke(self, engine):
        """Chunked beats monolithic InstallSnapshot on a constrained link,
        on both flat engines."""
        result = run_preset("catchup_wan", engine=engine)
        result.check_shape()
        table = result.table().as_dict()
        assert table["rows"] == self.WAN_GOLDEN[engine]
        assert table["notes"] == [
            "one-way latency 40 ms, bandwidth 150 KB/s, chunk 8192 B x "
            "window 8"]


class TestProfileFlag:
    def test_profile_writes_stats_next_to_json(self, tmp_path):
        """--profile runs the cell under cProfile and dumps sorted stats
        next to the JSON results (the profile-first workflow)."""
        from repro.experiments.__main__ import main
        assert main(["--scenario", "rounds", "--profile",
                     "--json-dir", str(tmp_path)]) == 0
        stats = (tmp_path / "scenario_rounds.prof.txt").read_text()
        assert "cumulative" in stats and "tottime" in stats
        assert "run_cell" in stats  # the simulation, not just the CLI
        assert (tmp_path / "scenario_rounds.json").exists()

