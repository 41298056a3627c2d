"""The host-speed reference: scaling arithmetic, a pass that leaves the
garbage collector alone, and passes on either side of every slice."""

import cProfile
import gc
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[3]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.suite import calib  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS, run_trial  # noqa: E402


def test_times_are_scaled_by_their_neighbouring_passes():
    usual = calib.REFERENCE_PASS_S
    assert calib.at_reference_speed([1.0, 2.0], [usual] * 3) == \
        pytest.approx(3.0)
    # A host running at half speed: passes and slices both take twice as
    # long, and the scaled time is unchanged.
    assert calib.at_reference_speed([2.0, 4.0], [2 * usual] * 3) == \
        pytest.approx(3.0)
    # Only the second slice ran slow.
    assert calib.at_reference_speed([1.0, 4.0],
                                    [usual, usual, 3 * usual]) == \
        pytest.approx(1.0 + 4.0 / 2)


def test_a_pass_allocates_next_to_nothing_the_collector_tracks():
    calib.reference_pass()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        assert calib.reference_pass() > 0.0
        assert gc.get_count()[0] - before < 10
    finally:
        gc.enable()


def test_every_slice_has_a_pass_on_either_side_unless_profiled():
    workload = WORKLOADS["lan_closed"]
    trial = run_trial(workload, 7000, smoke=True)
    assert len(trial.setup_passes) == 3
    assert len(trial.slice_passes) == len(trial.slices) + 1
    assert trial.slice_passes[0] == trial.setup_passes[-1]
    profiled = run_trial(workload, 7000, smoke=True,
                         profiler=cProfile.Profile())
    assert profiled.setup_passes == [] and profiled.slice_passes == []
    assert len(profiled.slices) == len(trial.slices)
