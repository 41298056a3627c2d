"""Same seed, same simulation: samples, counters and signature of two
smoke trials must agree bit for bit, for every protocol workload."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[3]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.suite import catalog, run  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", catalog.PROTOCOL)
def test_two_same_seed_smoke_trials_are_identical(name):
    workload = WORKLOADS[name]
    first = run.measure(workload, 7000, smoke=True)
    second = run.measure(workload, 7000, smoke=True)
    assert first["problems"] == []
    assert run.exact_part(first) == run.exact_part(second)
    assert first["samples"]["attempted"] > 0
    assert first["samples"]["failed"] == 0


def test_another_seed_is_another_simulation():
    workload = WORKLOADS["serving_rw"]
    a = run.measure(workload, 7000, smoke=True)
    b = run.measure(workload, 7001, smoke=True)
    assert a["signature"] != b["signature"]
