"""``benchmarks/sample_profile.py``: the SIGPROF line sampler."""

import signal
import time
import tracemalloc

from benchmarks.sample_profile import (HeapSampler, Sampler, main, report,
                                       report_heap)


def spin(seconds):
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        object.__setattr__(spin, "mark", None)  # a C slot wrapper


def test_sampler_charges_the_running_line_and_disarms():
    sampler = Sampler(interval=0.001)
    sampler.enable()
    spin(0.15)
    sampler.disable()
    taken = sum(sampler.samples.values())
    assert taken >= 20
    in_spin = sum(count for (filename, name, _), count
                  in sampler.samples.items()
                  if filename == __file__ and name == "spin")
    assert in_spin >= 0.9 * taken  # C work lands on the line calling it
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    spin(0.02)
    assert sum(sampler.samples.values()) == taken
    sampler.enable()                # re-armable: run_trial calls the pair
    spin(0.05)                      # once per profiled trial
    sampler.disable()
    assert sum(sampler.samples.values()) > taken


def test_report_groups_by_file_function_and_line(capsys):
    sampler = Sampler()
    sampler.samples.update({("a.py", "f", 3): 6, ("a.py", "f", 4): 2,
                            ("<init LogEntry>", "__init__", 1): 2})
    report(sampler.samples, top=5)
    out = capsys.readouterr().out
    assert "# 10 samples" in out
    assert " 80.00%  a.py\n" in out and " 20.00%  <init LogEntry>\n" in out
    assert " 80.00%  a.py:f\n" in out and " 60.00%  a.py:3 f\n" in out


def test_main_samples_the_timed_part_of_a_suite_trial(capsys):
    assert main(["--workload", "lan_closed", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "## by file" in out and "## by function" in out
    assert "./src/repro/sim/loop.py" in out
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def allocate():
    return [bytearray(1000) for _ in range(500)]


def test_heap_sampler_charges_live_blocks_to_the_allocating_line(capsys):
    line = allocate.__code__.co_firstlineno + 1
    heap = HeapSampler()
    tracemalloc.start()
    try:
        heap.enable()
        kept = allocate()
        heap.disable()
    finally:
        tracemalloc.stop()
    assert heap.trials == 1 and len(kept) == 500
    assert heap.counts[(__file__, line)] >= 500
    assert heap.sizes[(__file__, line)] >= 500_000
    report_heap(heap, top=3)
    out = capsys.readouterr().out
    assert "## by file" in out and "## by line" in out
    assert f" ./tests/test_sample_profile.py:{line}\n" in out


def test_main_heap_reports_the_end_of_the_window(capsys):
    assert main(["--workload", "lan_closed", "--trials", "1", "--heap",
                 "--top", "40"]) == 0
    out = capsys.readouterr().out
    assert "live per trial at the end of the window (1 trials)" in out
    assert "./src/repro/consensus/log.py" in out
    assert not tracemalloc.is_tracing()
