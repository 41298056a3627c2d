"""Print every registered scenario's sweep cells, per mode.

    PYTHONPATH=<checkout>/src python3 benchmarks/scenario_cells.py > cells.txt

One ``== <scenario> <mode>: <n> cells`` header per scenario and mode
(``full``, ``quick``, ``smoke``), then one ``repr((key, spec, seed))``
line per cell. A cell is the whole input of a simulation, so two
checkouts whose dumps are equal run the same experiments: diff the dumps
of a refactor's parent and change to show that it moved no experiment.

``SweepRunner.map`` is patched to record the cells it is handed and
abort before running any, so the dump costs no simulation, and the
script works on any checkout that has the scenario registry.
"""

from __future__ import annotations

from repro.scenarios import runner
from repro.scenarios.registry import run_scenario, scenario_names


class _Recorded(Exception):
    def __init__(self, cells: list) -> None:
        super().__init__()
        self.cells = cells


def _record(self, cells):
    raise _Recorded(list(cells))


def main() -> None:
    runner.SweepRunner.map = _record
    for name in scenario_names():
        for mode in ("full", "quick", "smoke"):
            try:
                run_scenario(name, mode=mode)
            except _Recorded as recorded:
                cells = recorded.cells
            else:
                raise SystemExit(f"{name} {mode}: ran without a sweep")
            print(f"== {name} {mode}: {len(cells)} cells")
            for cell in cells:
                print(repr((cell.key, cell.spec, cell.seed)))


if __name__ == "__main__":
    main()
