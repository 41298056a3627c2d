"""Figures 1-2 validation: message rounds on the commit path.

The paper's message-flow diagrams claim classic Raft needs three
leader-coordinated message hops before the leader commits (proposer ->
leader, AppendEntries out, acknowledgements back) while Fast Raft's fast
track needs two (proposer -> all sites, votes -> leader). The proposer
additionally pays one notification hop in both protocols.

Method: constant one-way latency ``d``, zero loss, and every periodic
wait shrunk to a negligible epsilon (eager AppendEntries dispatch, a tiny
decision interval), so measured times become exact hop multiples of ``d``
and the hop count can be read off the latency (``repro.metrics.rounds``).
The commit instant comes from the leader's trace; the proposer-observed
latency from the client record. That per-commit trace probing is this
experiment's registered scenario drive (``rounds_hops``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.timing import TimingConfig
from repro.experiments.base import ResultTable, cell_seed, require
from repro.metrics.rounds import hops_from_latency
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import drive, elect_flat_leader
from repro.scenarios.spec import Cell, LatencySpec, ScenarioSpec, TopologySpec


@dataclass(frozen=True)
class RoundsConfig:
    n_sites: int = 5
    one_way_delay: float = 0.010   # 10 ms: dwarfs the epsilon timers
    commits: int = 10
    seed: int = 0


@dataclass
class RoundsResult:
    config: RoundsConfig
    classic_commit_hops: int      # hops until the leader commits
    classic_proposer_hops: int    # hops until the proposer learns
    fast_commit_hops: int
    fast_proposer_hops: int

    def table(self) -> ResultTable:
        table = ResultTable(
            "Figs. 1-2 -- one-way message hops on the commit path",
            ["protocol", "hops to leader commit", "hops to proposer"])
        table.add_row("classic Raft", self.classic_commit_hops,
                      self.classic_proposer_hops)
        table.add_row("Fast Raft (fast track)", self.fast_commit_hops,
                      self.fast_proposer_hops)
        table.add_note("constant one-way delay "
                       f"{self.config.one_way_delay * 1000:.0f} ms, "
                       "periodic timers shrunk to epsilon")
        return table

    def check_shape(self) -> None:
        require(self.classic_commit_hops == 3,
                f"classic Raft should commit after 3 hops (Fig. 1), got "
                f"{self.classic_commit_hops}")
        require(self.fast_commit_hops == 2,
                f"Fast Raft's fast track should commit after 2 hops "
                f"(Fig. 2), got {self.fast_commit_hops}")
        require(self.classic_proposer_hops == self.classic_commit_hops + 1,
                "proposer notification is one extra hop")
        require(self.fast_proposer_hops == self.fast_commit_hops + 1,
                "proposer notification is one extra hop")


def _epsilon_timing() -> TimingConfig:
    # member_timeout_beats is effectively disabled: with the heartbeat
    # shrunk far below the one-way delay, responses always lag by many
    # beats and the silent-leave detector would evict healthy sites.
    return TimingConfig(
        heartbeat_interval=0.0005,     # epsilon vs the 10ms delay
        decision_interval=0.0002,
        election_timeout_min=0.5, election_timeout_max=1.0,
        proposal_timeout=5.0, eager_append=True,
        member_timeout_beats=10 ** 9)


@drive("rounds_hops")
def drive_rounds_hops(cluster, spec: ScenarioSpec) -> tuple[int, int]:
    """Per-commit trace probing: read hop counts off exact latencies."""
    one_way_delay = spec.params["one_way_delay"]
    commits = spec.params["commits"]
    cluster.start_all()
    leader = elect_flat_leader(cluster, spec)
    proposer_site = next(n for n in cluster.servers if n != leader)
    client = cluster.add_client(site=proposer_site)
    cluster.run_for(1.0)  # drain election-time traffic
    commit_hops, proposer_hops = [], []
    for i in range(commits):
        commits_seen = len(cluster.trace.select(
            category=f"{cluster.servers[leader].engine.protocol_name}.commit",
            node=leader))
        submit_time = cluster.loop.now()
        record = cluster.propose_and_wait(
            client, {"op": "put", "key": f"k{i}", "value": i}, timeout=10.0)
        commit_events = cluster.trace.select(
            category=f"{cluster.servers[leader].engine.protocol_name}.commit",
            node=leader)
        new_commits = commit_events[commits_seen:]
        commit_time = new_commits[0].time
        commit_hops.append(hops_from_latency(
            commit_time - submit_time, one_way_delay))
        proposer_hops.append(hops_from_latency(
            record.latency, one_way_delay))
        cluster.run_for(0.2)  # let replication settle between probes
    # Hop counts must be stable across commits; take the mode.
    commit_mode = max(set(commit_hops), key=commit_hops.count)
    proposer_mode = max(set(proposer_hops), key=proposer_hops.count)
    return commit_mode, proposer_mode


def rounds_cells(config: RoundsConfig) -> list[Cell]:
    cells = []
    for key, engine, seed_tag in (("classic", "raft", "RaftServer"),
                                  ("fast", "fastraft", "FastRaftServer")):
        spec = ScenarioSpec(
            name=f"rounds.{key}", engine=engine,
            topology=TopologySpec(n_sites=config.n_sites),
            timing=_epsilon_timing(),
            latency=LatencySpec.constant(config.one_way_delay),
            drive="rounds_hops",
            params={"one_way_delay": config.one_way_delay,
                    "commits": config.commits})
        cells.append(Cell(key=(key,), spec=spec,
                          seed=cell_seed(config.seed, seed_tag)))
    return cells


register_scenario(Scenario(
    name="rounds",
    description="Message-hop validation of the Figs. 1-2 commit paths",
    config=RoundsConfig,
    presets={"quick": {"commits": 5}, "smoke": {"commits": 5}},
    cells=rounds_cells,
    assemble=lambda config, hops: RoundsResult(
        config, *hops[("classic",)], *hops[("fast",)])))
