"""A ladder rung that blows its event budget is recorded as failed and
returned from, not waited for; compare.py's verdicts."""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[3]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.suite import catalog, compare, run  # noqa: E402
from benchmarks.suite.workloads import ServingRW  # noqa: E402


class Starved(ServingRW):
    events_per_sim_s = 200       # a real rung needs ~3,500 / sim-s


def test_over_budget_rung_fails_instead_of_hanging():
    started = time.perf_counter()
    result = run.measure(Starved(), 7000, rate=600.0, smoke=True,
                         settled=False)
    assert time.perf_counter() - started < 5.0
    assert result["over_budget"] is True
    assert any("event budget" in p for p in result["problems"])
    assert run.rung_passes(Starved(), result) is False


def _result(wall, ack_p99, max_rate, walls):
    return {"workloads": {"serving_rw": {
        "timed": {"metrics": {"wall_s": wall, "sim_ack_p99_ms": ack_p99},
                  "trials": {"wall_s": walls}},
        "traced": {"metrics": {"sim_max_rate_rps": max_rate}}}}}


def test_compare_verdicts():
    base = _result(1.0, 100.0, 300.0, [1.0, 1.0, 1.0, 1.0])
    slow = _result(1.3, 104.0, 150.0, [1.3, 1.3, 1.3, 1.3])
    noisy = _result(1.02, 100.0, 300.0, [0.8, 1.3, 0.9, 1.4])
    verdicts = {m.name: s for _, m, _, _, _, s in compare.rows(base, slow)}
    assert verdicts == {"wall_s": "worse", "sim_ack_p99_ms": "ok",
                        "sim_max_rate_rps": "worse"}
    verdicts = {m.name: s for _, m, _, _, _, s in compare.rows(base, noisy)}
    assert verdicts["wall_s"] == "unresolved"
    assert all(s == "ok" for _, _, _, _, _, s in compare.rows(base, base))
    assert catalog.BY_NAME["wall_s"].bound == 0.25
