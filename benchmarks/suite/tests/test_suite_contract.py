"""BENCHMARK.json, the catalogue and what the runner prints agree."""

import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[3]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.suite import catalog, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_bounds_match_the_catalogue():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.PROTOCOL)
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == \
        catalog.CONTRACT_E2E
    assert tuple(m["name"] for m in SPEC["per_layer"]) == \
        catalog.CONTRACT_PER_LAYER
    assert len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        metric = catalog.BY_NAME[entry["name"]]
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["unit"] == metric.unit
        assert entry["better"] == metric.better
        if "bound" in entry:
            assert entry["bound"] == metric.bound
            assert 0 < entry["bound"] <= 0.25
    for workload in SPEC["workloads"]:
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_emits_every_listed_metric_with_its_unit(capsys, trace, key):
    status = run.main(["--workload", "lan_closed", "--smoke",
                       "--trace", str(trace)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}
    if trace:
        shares = sum(line["metrics"][f"{layer}.share"]["value"]
                     for layer in catalog.LAYERS)
        shares += line["metrics"]["host.other_share"]["value"]
        assert abs(shares - 1.0) < 0.01
        assert line["metrics"]["host.trace_overhead_x"]["value"] > 1.0


def test_layer_micro_emits_every_loop(capsys):
    assert run.main(["--workload", "layer_micro", "--smoke"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {m.name for m in catalog.MICRO} <= set(line["metrics"])
    assert all(line["metrics"][m.name]["value"] > 0 for m in catalog.MICRO)
