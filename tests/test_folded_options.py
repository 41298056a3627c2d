"""Options stay folded.

Knobs that production never varied were deleted, or became module
constants with the one value production used: the adaptive batching
bounds, ``LatencySpec``'s intra-region RTT and jitter, fig3's proposer
RNG stream and the rest below. None may come back as a dataclass field
or a parameter, and the flat builder stays one function. CHANGES.md
records the change that folded each one.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.consensus.config import TransferConfig
from repro.craft.batching import BatchPolicy, ProposalCoalescer
from repro.craft.deployment import build_craft_deployment
from repro.experiments.regions import latency_model_for
from repro.harness import builder
from repro.harness.workload import ClosedLoopWorkload
from repro.net.topology import Topology
from repro.scenarios.spec import (LatencySpec, ScenarioSpec, SLOSpec,
                                  TopologySpec, WorkloadSpec)
from repro.sim.timers import PeriodicTimer
from repro.snapshot import CompactionPolicy

MESSAGE = "production sets one value: use the constant"

FOLDED_FIELDS = {
    BatchPolicy: {"batch_floor", "batch_ceiling", "age_floor",
                  "age_ceiling", "outstanding_ceiling",
                  "target_commit_latency", "target_batch_bytes",
                  "ewma_alpha"},
    TransferConfig: {"retry_timeout"},
    CompactionPolicy: {"min_interval"},
    LatencySpec: {"low", "high", "intra_rtt", "jitter"},
    TopologySpec: {"name_prefix"},
    WorkloadSpec: {"rng_stream"},
    SLOSpec: {"max_latency"},
    ScenarioSpec: {"propose_batch"},
}

FOLDED_PARAMETERS = {
    builder.build_cluster: {"name_prefix"},
    Topology.even_clusters: {"name_prefix"},
    LatencySpec.aws_regions: {"jitter"},
    latency_model_for: {"jitter"},
    CompactionPolicy.should_compact: {"now", "last_taken"},
    PeriodicTimer: {"jitter_rng", "jitter"},
    ClosedLoopWorkload: {"stop_at"},
    build_craft_deployment: {"global_seed_site"},
}

FOLDED_ATTRIBUTES = [
    (builder, "build_topology_cluster"),
    (ProposalCoalescer, "observe_commit_latency"),
]


@pytest.mark.parametrize("owner", list(FOLDED_FIELDS),
                         ids=lambda owner: owner.__qualname__)
def test_folded_field_stays_gone(owner):
    back = FOLDED_FIELDS[owner] & {f.name for f in dataclasses.fields(owner)}
    assert not back, (f"folded options are back: {owner.__qualname__}."
                      f"{', '.join(sorted(back))} -- {MESSAGE}")


@pytest.mark.parametrize("owner", list(FOLDED_PARAMETERS),
                         ids=lambda owner: owner.__qualname__)
def test_folded_parameter_stays_gone(owner):
    back = (FOLDED_PARAMETERS[owner]
            & set(inspect.signature(owner).parameters))
    assert not back, (f"folded options are back: {owner.__qualname__}"
                      f"({', '.join(sorted(back))}=) -- {MESSAGE}")


@pytest.mark.parametrize(("owner", "name"), FOLDED_ATTRIBUTES,
                         ids=[name for _, name in FOLDED_ATTRIBUTES])
def test_folded_function_stays_gone(owner, name):
    assert not hasattr(owner, name), (
        f"folded options are back: {name} -- {MESSAGE}")
