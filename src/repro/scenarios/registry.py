"""The named scenario registry.

Every experiment registers a :class:`Scenario` *declaration*: its config
dataclass (``config()`` is the ``full``, paper-scale run), the field
overrides of its scaled-down modes, the sweep cells a config expands
to, and how the cells' results assemble into the reported result. The
registry owns the one mode -> config -> :class:`SweepRunner` -> result
path; the CLI (``python -m repro.experiments --scenario <name> --jobs
N``), tests and CI all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.errors import ExperimentError
from repro.scenarios.runner import SweepRunner, load_catalog


@dataclass(frozen=True)
class Scenario:
    """A registered experiment, declared as data."""

    name: str
    description: str
    #: The config dataclass; ``config()`` is the ``full`` mode.
    config: Callable[[], Any]
    #: mode -> ``dataclasses.replace`` overrides of ``config()``.
    presets: Mapping[str, Mapping[str, Any]]
    #: ``cells(config) -> list[Cell]``: the sweep.
    cells: Callable[[Any], list]
    #: ``assemble(config, results_by_key) -> result``: a result object
    #: with ``table()`` / ``check_shape()``, a ResultTable, or a list.
    assemble: Callable[[Any, dict], Any]

    @property
    def modes(self) -> tuple[str, ...]:
        return (*self.presets, "full")

    def configure(self, mode: str) -> Any:
        """The config ``mode`` runs."""
        if mode not in self.modes:
            raise ExperimentError(
                f"scenario {self.name!r} has no mode {mode!r} "
                f"(choose from {self.modes})")
        return replace(self.config(), **self.presets.get(mode, {}))

    def run(self, config: Any, jobs: int = 1) -> Any:
        return self.assemble(config,
                             SweepRunner(jobs).run(self.cells(config)))

    def tables(self, result: Any) -> list:
        if isinstance(result, (list, tuple)):
            return [t for r in result for t in self.tables(r)]
        table = getattr(result, "table", None)
        return [result] if table is None else [table()]

    def check(self, result: Any) -> None:
        if isinstance(result, (list, tuple)):
            for item in result:
                self.check(item)
            return
        check = getattr(result, "check_shape", None)
        if check is not None:
            check()

    def as_dict(self, result: Any) -> dict[str, Any]:
        return {"scenario": self.name,
                "tables": [t.as_dict() for t in self.tables(result)]}


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ExperimentError(
            f"scenario already registered: {scenario.name!r}")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    load_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario: {name!r} (known: {scenario_names()})"
        ) from None


def scenario_names() -> list[str]:
    load_catalog()
    return sorted(_REGISTRY)


def run_scenario(name: str, mode: str = "quick", jobs: int = 1):
    """Resolve, configure, and run a scenario by name."""
    scenario = get_scenario(name)
    return scenario, scenario.run(scenario.configure(mode), jobs=jobs)
