"""Scenario execution and the process-parallel sweep runner.

``run_cell(spec, seed)`` executes one :class:`ScenarioSpec` in a fresh,
isolated :class:`~repro.sim.loop.SimLoop` and returns picklable metrics.
Which code drives the run and which extracts the metrics are *registered
functions* looked up by name (``spec.drive`` / ``spec.probe``), so specs
travel across process boundaries and workers resolve the names locally.

:class:`SweepRunner` fans a list of :class:`Cell`\\ s out across
``multiprocessing`` workers. Because every cell is a self-contained
simulation (own loop, own RNG registry, own fabric), parallelism is
embarrassingly safe: serial and parallel execution produce identical
results, in cell order, for the same specs and seeds. The pool itself
is module-persistent -- spin-up and per-worker catalog imports are paid
once per process, not once per sweep -- and :func:`close_sweep_pool`
(also an ``atexit`` hook) tears it down.
"""

from __future__ import annotations

import atexit
import pathlib
import re
from contextlib import contextmanager
from typing import Any, Callable

from repro.consensus.engine import Role
from repro.errors import ExperimentError
from repro.harness.builder import build_from_spec
from repro.harness.checkers import run_safety_checks
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.metrics.summary import summarize
from repro.scenarios.spec import Cell, Event, ScenarioSpec

# ----------------------------------------------------------------------
# Drive / probe registries
# ----------------------------------------------------------------------
DRIVES: dict[str, Callable] = {}
PROBES: dict[str, Callable] = {}


def drive(name: str):
    """Register a drive: ``fn(system, spec) -> picklable metrics``."""
    def decorator(fn):
        DRIVES[name] = fn
        return fn
    return decorator


def probe(name: str):
    """Register a probe: ``fn(ctx) -> picklable metrics``."""
    def decorator(fn):
        PROBES[name] = fn
        return fn
    return decorator


_catalog_loaded = False


def load_catalog() -> None:
    """Import every scenario-providing module (idempotent).

    Workers call this before resolving drive / probe / scenario names,
    so a spec built in one process runs identically in another.
    """
    global _catalog_loaded
    if not _catalog_loaded:
        _catalog_loaded = True
        import repro.scenarios.catalog  # noqa: F401  (import-for-effect)


def resolve_drive(name: str) -> Callable:
    load_catalog()
    try:
        return DRIVES[name]
    except KeyError:
        raise ExperimentError(f"unknown drive: {name!r}") from None


def resolve_probe(name: str) -> Callable:
    load_catalog()
    try:
        return PROBES[name]
    except KeyError:
        raise ExperimentError(f"unknown probe: {name!r}") from None


# ----------------------------------------------------------------------
# Run context: what drives build up and probes read
# ----------------------------------------------------------------------
class RunContext:
    """State shared between the generic drive steps and the probes."""

    def __init__(self, system, spec: ScenarioSpec) -> None:
        self.system = system
        self.spec = spec
        self.initial_leader: str | None = None
        self.clients: list = []
        self.workloads: list[ClosedLoopWorkload] = []
        self.faults = FaultInjector(system)
        #: (fire time, event, resolved sites) per fired schedule event.
        self.fired: list[tuple[float, Event, list[str]]] = []
        self.topology = getattr(system, "topology", None)
        #: Site order positional selectors resolve against (overridden
        #: for cluster-scoped events, e.g. C-Raft catch-up).
        self.server_order: list[str] = list(system.servers)

    def total_completed(self) -> int:
        return sum(w.completed_count for w in self.workloads)

    def all_done(self) -> bool:
        return all(w.done for w in self.workloads)

    def fire(self, event: Event) -> list[str]:
        sites = self.faults.apply_event(
            event, server_order=self.server_order,
            initial_leader=self.initial_leader, topology=self.topology)
        self.fired.append((self.system.loop.now(), event, sites))
        return sites


# ----------------------------------------------------------------------
# Generic drive steps
# ----------------------------------------------------------------------
def elect_flat_leader(cluster, spec: ScenarioSpec) -> str:
    """Run until a leader exists; honours ``params['leader_step']``."""
    step = spec.params.get("leader_step", 0.01)
    if not cluster.run_until(lambda: cluster.leader() is not None,
                             spec.leader_timeout, step=step):
        raise ExperimentError(
            f"scenario {spec.name!r}: no leader within "
            f"{spec.leader_timeout}s")
    return cluster.leader()


#: The RNG stream a ``random`` workload placement draws its site from.
#: The name seeds the draw, so fig3's goldens pin it byte for byte.
PROPOSER_STREAM = "fig3.proposer"


def proposer_sites(system, spec: ScenarioSpec, leader: str | None
                   ) -> list[str]:
    wl = spec.workload
    if wl.placement == "leader":
        return [leader]
    if wl.placement == "random":
        stream = system.rng.stream(PROPOSER_STREAM)
        return [stream.choice(sorted(system.servers))]
    if wl.placement == "round_robin":
        ordered = sorted(system.servers)
        return [ordered[i % len(ordered)] for i in range(wl.proposers)]
    return list(wl.sites)


def attach_workloads(system, spec: ScenarioSpec, ctx: RunContext,
                     leader: str | None) -> None:
    """Create the spec's clients + closed-loop workloads and start them."""
    wl = spec.workload
    for index, site in enumerate(proposer_sites(system, spec, leader)):
        name = (wl.client_names[index]
                if index < len(wl.client_names) else None)
        client = system.add_client(site=site, name=name,
                                   proposal_timeout=wl.proposal_timeout)
        ctx.clients.append(client)
        ctx.workloads.append(ClosedLoopWorkload(
            client, max_requests=wl.requests,
            command_factory=wl.command_factory(index)))
    for workload in ctx.workloads:
        workload.start()


def arm_timed_events(ctx: RunContext) -> None:
    now = ctx.system.loop.now()
    for event in ctx.spec.schedule.timed():
        # Election etc. may already have advanced the clock past an early
        # event time; fire immediately rather than refusing the cell.
        ctx.system.loop.call_at(max(event.at, now), ctx.fire, event)


def run_commit_triggered_events(ctx: RunContext) -> None:
    """Fire commit-count-triggered events in threshold order.

    Mirrors the hand-written drivers: run until the workload total
    reaches the threshold, then apply the group's events at that
    instant.
    """
    spec = ctx.spec
    for threshold, events in spec.schedule.commit_triggered():
        reached = ctx.system.run_until(
            lambda: ctx.total_completed() >= threshold,
            timeout=spec.timeout)
        if not reached:
            raise ExperimentError(
                f"scenario {spec.name!r}: stalled at "
                f"{ctx.total_completed()} commits before the "
                f"commit-{threshold} events")
        for event in events:
            ctx.fire(event)


def run_workload_to_completion(ctx: RunContext) -> None:
    spec = ctx.spec
    if not ctx.system.run_until(ctx.all_done, timeout=spec.timeout):
        requested = (spec.workload.requests or 0) * len(ctx.workloads)
        raise ExperimentError(
            f"scenario {spec.name!r}: finished only "
            f"{ctx.total_completed()}/{requested} commits")


def settle_and_check(ctx: RunContext) -> None:
    spec = ctx.spec
    if spec.settle:
        ctx.system.run_for(spec.settle)
    if spec.safety_checks:
        run_safety_checks(ctx.system.servers.values(), ctx.system.trace)


# ----------------------------------------------------------------------
# Built-in drives
# ----------------------------------------------------------------------
@drive("closed_loop")
def drive_closed_loop(system, spec: ScenarioSpec):
    """The standard figure shape: elect, load, schedule, finish, probe."""
    ctx = RunContext(system, spec)
    system.start_all()
    ctx.initial_leader = elect_flat_leader(system, spec)
    attach_workloads(system, spec, ctx, ctx.initial_leader)
    arm_timed_events(ctx)
    run_commit_triggered_events(ctx)
    run_workload_to_completion(ctx)
    settle_and_check(ctx)
    return resolve_probe(spec.probe)(ctx)


def _data_commits(server) -> int:
    from repro.consensus.entry import EntryKind
    return sum(1 for _, e in server.applied_log
               if e.kind is EntryKind.DATA)


@drive("throughput_window")
def drive_throughput_window(system, spec: ScenarioSpec) -> float:
    """Warm up, then count committed entries over a measurement window.

    For ``craft`` the numerator is entries applied from the global log
    (the Fig. 5 metric); for the flat engines it is DATA entries applied
    at the leader.
    """
    warmup = spec.params["warmup"]
    duration = spec.params["duration"]
    ctx = RunContext(system, spec)
    system.start_all()
    if spec.engine == "craft":
        system.run_until_local_leaders(timeout=spec.leader_timeout)
        system.run_until_global_ready(
            timeout=spec.params.get("global_ready_timeout", 90.0))
        attach_workloads(system, spec, ctx, leader=None)
        arm_timed_events(ctx)
        system.run_for(warmup)
        start_count = system.total_global_applied()
        system.run_for(duration)
        end_count = system.total_global_applied()
    else:
        ctx.initial_leader = elect_flat_leader(system, spec)
        attach_workloads(system, spec, ctx, ctx.initial_leader)
        arm_timed_events(ctx)
        system.run_for(warmup)
        leader = next(s for s in system.servers.values()
                      if s.engine.role is Role.LEADER)
        start_count = _data_commits(leader)
        system.run_for(duration)
        end_count = _data_commits(leader)
    for workload in ctx.workloads:
        workload.stop()
    return (end_count - start_count) / duration


# ----------------------------------------------------------------------
# Built-in probes
# ----------------------------------------------------------------------
@probe("latency_summary")
def probe_latency_summary(ctx: RunContext):
    return summarize([value for w in ctx.workloads
                      for value in w.latencies()])


@probe("mean_latency")
def probe_mean_latency(ctx: RunContext) -> float:
    return probe_latency_summary(ctx).mean


# ----------------------------------------------------------------------
# Cell execution + the sweep runner
# ----------------------------------------------------------------------
def run_cell(spec: ScenarioSpec, seed: int,
             profile_dir: str | None = None, label: str | None = None):
    """Execute one scenario cell in an isolated simulation.

    With ``profile_dir`` set the cell runs under :mod:`cProfile` and
    dumps raw stats to ``<profile_dir>/cell_<label>.pstats`` (load with
    :class:`pstats.Stats`); the metrics returned are unchanged, and the
    dump happens in whichever process runs the cell -- so parallel
    sweeps profile each cell inside its worker.
    """
    fn = resolve_drive(spec.drive)
    system = build_from_spec(spec, seed)
    if profile_dir is None:
        return fn(system, spec)
    import cProfile
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label or f"{spec.name}_{seed}")
    path = pathlib.Path(profile_dir)
    path.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn(system, spec)
    finally:
        profiler.disable()
        profiler.dump_stats(path / f"cell_{slug}.pstats")


def _pool_entry(task: tuple[ScenarioSpec, int, str | None, str]):
    """Worker-side wrapper: success flag + payload.

    Exceptions are flattened to a string rather than pickled back --
    arbitrary exception objects (tracebacks, simulation state in args)
    are not reliably picklable, and a worker dying on the *reply* would
    hang the sweep.
    """
    spec, seed, profile_dir, label = task
    try:
        return True, run_cell(spec, seed, profile_dir, label)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return False, f"{type(exc).__name__}: {exc}"


#: The reusable worker pool: (pool, (workers, start_method)). Spinning a
#: pool up costs fork/spawn plus a catalog import per worker; benchmarks
#: and the CLI run many sweeps per process, so the pool persists across
#: SweepRunner calls and is torn down at interpreter exit (or explicitly
#: via close_sweep_pool).
_POOL: Any = None
_POOL_KEY: tuple[int, str] | None = None

#: Default per-cell profile directory (see per_cell_profiles).
_PROFILE_DIR: str | None = None


def sweep_pool(workers: int):
    """The shared pool, rebuilt only when the requested shape changes.
    Callers must not close it -- :func:`close_sweep_pool` owns that."""
    global _POOL, _POOL_KEY
    # Imported here: no serial run pays for loading multiprocessing
    # (and socket, which it pulls in).
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else "spawn"
    key = (workers, method)
    if _POOL is None or _POOL_KEY != key:
        close_sweep_pool()
        context = multiprocessing.get_context(method)
        _POOL = context.Pool(processes=workers, initializer=load_catalog)
        _POOL_KEY = key
    return _POOL


def close_sweep_pool() -> None:
    """Terminate the shared sweep pool (idempotent).

    Called automatically at interpreter exit and whenever a worker cell
    fails (a broken sweep must not leave siblings burning CPU); call it
    explicitly to release the worker processes early, e.g. between
    benchmark phases that need the machine quiet.
    """
    global _POOL, _POOL_KEY
    pool, _POOL, _POOL_KEY = _POOL, None, None
    if pool is not None:
        pool.terminate()
        pool.join()


atexit.register(close_sweep_pool)


@contextmanager
def per_cell_profiles(directory: str | pathlib.Path):
    """Every sweep cell run inside this context dumps a cProfile stats
    file into ``directory`` -- including cells executed by pool workers,
    which profile in-process and write from the worker."""
    global _PROFILE_DIR
    previous = _PROFILE_DIR
    _PROFILE_DIR = str(directory)
    try:
        yield
    finally:
        _PROFILE_DIR = previous


def _cell_label(cell: Cell) -> str:
    return "_".join(str(part) for part in cell.key) + f"_{cell.seed}"


class SweepRunner:
    """Runs sweep cells, optionally across worker processes.

    ``jobs=1`` (the serial fallback) executes in-process; ``jobs=N``
    uses a shared ``multiprocessing`` pool that persists across sweeps
    (see :func:`close_sweep_pool`). Results come back in cell order
    either way, and -- because each cell is a hermetic simulation keyed
    only by ``(spec, seed)`` -- the two modes produce identical values.

    A cell that raises in a worker surfaces as :class:`ExperimentError`
    naming the cell, and the pool is terminated rather than leaked.
    """

    def __init__(self, jobs: int = 1,
                 profile_dir: str | None = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs!r}")
        self.jobs = jobs
        self.profile_dir = profile_dir

    def map(self, cells: list[Cell]) -> list[Any]:
        """Metrics for every cell, in cell order."""
        load_catalog()
        profile_dir = self.profile_dir or _PROFILE_DIR
        if self.jobs == 1 or len(cells) <= 1:
            return [run_cell(cell.spec, cell.seed, profile_dir,
                             _cell_label(cell)) for cell in cells]
        pool = sweep_pool(self.jobs)
        tasks = [(cell.spec, cell.seed, profile_dir, _cell_label(cell))
                 for cell in cells]
        results: list[Any] = []
        try:
            # imap keeps result order while pairing each reply with its
            # cell, so a failure is attributed by name.
            for cell, (ok, payload) in zip(cells,
                                           pool.imap(_pool_entry, tasks)):
                if not ok:
                    raise ExperimentError(
                        f"sweep cell {cell.spec.name!r} "
                        f"(key={cell.key}, seed={cell.seed}) "
                        f"failed in worker: {payload}")
                results.append(payload)
        except BaseException:
            close_sweep_pool()
            raise
        return results

    def run(self, cells: list[Cell]) -> dict[tuple, Any]:
        """Like :meth:`map`, keyed by each cell's ``key``."""
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            duplicates = sorted({k for k in keys if keys.count(k) > 1})
            raise ExperimentError(
                f"sweep cells have duplicate keys: {duplicates}")
        return {cell.key: result
                for cell, result in zip(cells, self.map(cells))}
