"""Scenario harness: build clusters, drive workloads, inject faults,
check invariants.

This is the layer experiments and tests share: a
:class:`~repro.harness.builder.Cluster` wires servers, clients, network,
storage, and trace together from a handful of parameters; the fault
injector reproduces the paper's failure scenarios (crashes, silent
leaves, joins); checkers verify the paper's safety properties after
every run.
"""

from repro.harness.builder import Cluster, build_cluster
from repro.harness.checkers import (
    check_applied_consistency,
    check_committed_prefix_agreement,
    check_election_safety,
    check_log_matching,
    run_safety_checks,
)
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload

__all__ = [
    "ClosedLoopWorkload",
    "Cluster",
    "FaultInjector",
    "build_cluster",
    "check_applied_consistency",
    "check_committed_prefix_agreement",
    "check_election_safety",
    "check_log_matching",
    "run_safety_checks",
]
