"""Shared fixtures and helpers for the protocol test suites."""

from __future__ import annotations

import sys

import pytest

from repro.consensus.config import Configuration
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import Cluster, build_cluster
from repro.harness.checkers import run_safety_checks
from repro.net import sizes
from repro.net.loss import LossModel, NoLoss
from repro.raft.server import RaftServer
from repro.sim.actor import Actor
from repro.smr.kv import KVStateMachine
from size_oracle import oracle_estimate, oracle_payload


def pytest_addoption(parser):
    parser.addoption(
        "--size-audit", action="store_true",
        help="compare every estimate_size / payload_size call of the run "
             "with the memo-blind walker; a mismatch fails the test that "
             "made it")


@pytest.fixture(autouse=True)
def size_audit(request, monkeypatch):
    """``--size-audit``: sizes are simulation data, so a wrong estimator
    or sizer does not crash anything -- it shifts delays and write
    accounting. Under the option, ``estimate_size`` and ``payload_size``
    (the way into the sizer registry) are replaced everywhere they were
    imported by wrappers that also ask the oracle."""
    if not request.config.getoption("--size-audit", default=False):
        yield
        return
    mismatches = []

    def audited(real, oracle):
        def wrapper(obj, *args):
            want = oracle(obj)
            got = real(obj, *args)
            if got != want:
                mismatches.append((real.__name__, obj, got, want))
                raise AssertionError(
                    f"{real.__name__}({obj!r}) = {got}, the walker "
                    f"says {want}")
            return got
        return wrapper

    for real, oracle in ((sizes.estimate_size, oracle_estimate),
                         (sizes.payload_size, oracle_payload)):
        wrapper = audited(real, oracle)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, wrapper)
    yield
    assert not mismatches, mismatches


def run_preset(name: str, mode: str = "smoke", jobs: int = 1, **overrides):
    """Run registered scenario ``name`` on its ``mode`` config with
    ``overrides`` replacing config fields."""
    from dataclasses import replace

    from repro.scenarios.registry import get_scenario
    scenario = get_scenario(name)
    return scenario.run(replace(scenario.configure(mode), **overrides),
                        jobs=jobs)


def make_cluster(server_cls, n_sites=5, seed=0, **kwargs) -> Cluster:
    kwargs.setdefault("state_machine_factory", KVStateMachine)
    cluster = build_cluster(server_cls, n_sites=n_sites, seed=seed, **kwargs)
    return cluster


def started_cluster(server_cls, n_sites=5, seed=0, **kwargs) -> Cluster:
    cluster = make_cluster(server_cls, n_sites=n_sites, seed=seed, **kwargs)
    cluster.start_all()
    cluster.run_until_leader()
    return cluster


def add_joining_server(cluster, name):
    """A fresh site that knows the current members as contacts; it joins
    by itself through the join-request protocol."""
    members = tuple(n for n in cluster.servers)
    server = FastRaftServer(
        name=name, loop=cluster.loop, network=cluster.network,
        store=cluster.fabric.store_for(name),
        bootstrap_config=Configuration(members), timing=cluster.timing,
        rng=cluster.rng, trace=cluster.trace,
        state_machine_factory=KVStateMachine)
    cluster.add_server(server)
    server.start()
    return server


def commit_n(cluster: Cluster, client, n: int, timeout=30.0):
    """Commit n puts through the client; returns the records."""
    records = []
    for i in range(n):
        records.append(cluster.propose_and_wait(
            client, {"op": "put", "key": f"k{i}", "value": i},
            timeout=timeout))
    return records


class Inbox(Actor):
    """A co-located endpoint that keeps every message it receives (a
    client whose replies a test reads)."""

    def __init__(self, system, name="inbox"):
        super().__init__(system.loop, name)
        self.replies = []
        system.network.register(self)

    def on_message(self, message, sender):
        self.replies.append(message)


def assert_safe(cluster: Cluster) -> None:
    run_safety_checks(cluster.servers.values(), cluster.trace)


def live_servers(cluster: Cluster) -> list:
    """Servers that are up and connected."""
    return [s for s in cluster.servers.values()
            if s.alive and not cluster.network.is_disconnected(s.name)]


def session_applied(server, session: str) -> bool:
    """Has ``server`` applied any request of ``session``?"""
    return server.frontend.sessions.last_applied(session)[0] >= 1


class LinkLoss(LossModel):
    """Bernoulli rates on chosen directed links over a ``base`` model for
    every other link (one bad route, as ``tc`` on a single path)."""

    def __init__(self, rates: dict, base: LossModel | None = None) -> None:
        self.rates = dict(rates)
        self.base = base if base is not None else NoLoss()

    @classmethod
    def around(cls, site: str, peers, rate: float) -> "LinkLoss":
        """``rate`` on every link between ``site`` and ``peers``, both
        directions."""
        rates = {}
        for peer in peers:
            if peer != site:
                rates[(site, peer)] = rates[(peer, site)] = rate
        return cls(rates)

    def should_drop(self, rng, src, dst, now):
        rate = self.rates.get((src, dst))
        if rate is None:
            return self.base.should_drop(rng, src, dst, now)
        return rate != 0 and rng.random() < rate


@pytest.fixture
def raft_cluster():
    return started_cluster(RaftServer, seed=1)


@pytest.fixture
def fast_cluster():
    return started_cluster(FastRaftServer, seed=1)
