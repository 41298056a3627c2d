"""Experiment declarations regenerating the paper's evaluation (Section VI).

One module per figure or scenario, each registered as a
:class:`~repro.scenarios.registry.Scenario` declaration over the
:mod:`repro.scenarios` subsystem (spec + registry + parallel sweep
runner): ``rounds`` (Figs. 1-2 commit hops), ``fig3_latency``,
``fig4_churn``, ``fig5_throughput``, ``ablations`` (the reproduction's
design knobs), ``catchup`` (snapshot catch-up, plus the WAN chunked
transfer variant), ``flapping``, ``migrated_region``,
``two_region_failover``, ``large_mesh`` and ``heavy_traffic``.

Each module declares a config dataclass (its defaults are the ``full``,
paper-scale run), the ``quick`` / ``smoke`` field overrides, the sweep
cells a config expands to, and how their results assemble into a result
whose ``table()`` renders the paper-style table and whose
``check_shape()`` enforces the expected *shape* (who wins, by roughly
what factor, where crossovers fall). The registry runs every one the
same way; ``jobs=N`` fans the cells out across worker processes with
results identical to serial.

Run from the command line::

    python -m repro.experiments fig3 --quick
    python -m repro.experiments --scenario flapping_wan --jobs 4

or from code: ``get_scenario("fig3").run(Fig3Config(trials=10), jobs=2)``.
"""

from repro.experiments.base import ResultTable, cell_seed

__all__ = ["ResultTable", "cell_seed"]
