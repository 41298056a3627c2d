"""A reachability census of ``src/repro``: which functions production runs.

    python3 benchmarks/census.py --check       # production drivers only (CI)
    python3 benchmarks/census.py --classify    # also tier-1: test-only or never

Every function and lambda defined under ``src/repro`` (comprehensions and
class bodies aside) must either be *reached* by a production driver -- a
command CI runs outside pytest, see :func:`drivers` -- or be listed in
``benchmarks/census.txt`` as ``path::qualname  [xN]  class  owner  reason``
(``xN`` when ``N`` unreached code objects share the qualname, such as the
lambdas of one class body; the count must match), where the class is one
of

``gap``        a named ROADMAP item (the owner, ``item-N``) gives the
               function a production caller;
``hook``       a base default that concrete classes or hosts replace and
               that no production driver reaches on a class keeping it
               (the owner names the base), e.g. ``BaseEngine``'s
               ``NotImplementedError`` handlers;
``reference``  a test (the owner) compares production code against it.

``__repr__`` is exempt by name. ``--check`` exits 1 on an unreached function
that is not listed and on a stale line: one whose function is reached, or
no longer exists, or whose count is off. ``--classify`` prints every function production does not
reach, split into those tier-1 reaches ("test-only") and those nothing does.

The hook is one global ``sys.settrace`` function that records a code
object's ``(co_filename, co_firstlineno, co_qualname)`` on its first call
and returns ``None``, so no line events are traced. A ``sitecustomize``
module put first on ``PYTHONPATH`` installs it in every process a driver
starts, and each process appends to its own record file as it goes: sweep
pool workers, which ``close_sweep_pool`` terminates before any ``atexit``
hook could run, still report. It is ``settrace``, not ``setprofile``,
because the ``--profile`` drivers run ``cProfile``, which replaces a profile
hook.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import inspect
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "benchmarks" / "census.txt"
CLASSES = ("gap", "hook", "reference")
EXEMPT = ("__repr__",)
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

_HOOK = '''\
import os, sys, threading

_SRC = os.environ["REPRO_CENSUS_SRC"]
_OUT = os.environ["REPRO_CENSUS_OUT"]
_seen = set()
_file = None
_pid = None


def _census(frame, event, arg):
    global _file, _pid
    code = frame.f_code
    if code in _seen:
        return None
    _seen.add(code)
    if code.co_filename.startswith(_SRC):
        if _pid != os.getpid():  # first record, or a forked child's
            _pid = os.getpid()
            _file = open(os.path.join(_OUT, f"{_pid}.txt"), "a", buffering=1)
        _file.write(f"{code.co_filename}\\t{code.co_firstlineno}\\t"
                    f"{code.co_qualname}\\n")
    return None


sys.settrace(_census)
threading.settrace(_census)
'''

def drivers(out: pathlib.Path) -> list[list[str]]:
    """What CI runs outside pytest, plus the examples and the benchmark
    tools. The scenario and mc commands are the scripts CI runs, so the
    flags and targets have one home; the scenario script runs once per
    registered scenario, so the census runs two of them at a time."""
    listing = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--list-scenarios"],
        cwd=ROOT, env=_env(None), check=True, text=True,
        capture_output=True).stdout
    commands = [[sys.executable, "benchmarks/suite/run.py", "--all",
                 "--smoke", "--out", str(out / "smoke.json")]]
    commands += [["sh", "benchmarks/scenario_smoke.sh",
                  str(out / "scenario-results"), line.split()[0]]
                 for line in listing.splitlines()]
    commands += [[sys.executable, str(path)]
                 for path in sorted((ROOT / "examples").glob("*.py"))]
    commands.append(["sh", "benchmarks/mc_smoke.sh", str(out / "mc-traces")])
    commands.append([sys.executable, "benchmarks/scenario_cells.py"])
    commands.append([sys.executable, "benchmarks/sample_profile.py",
                     "--workload", "lan_closed", "--trials", "1"])
    return commands


#: Tier-1, as ROADMAP.md names it.
TIER1 = [[sys.executable, "-m", "pytest", "-q"]]


def _env(record_dir: pathlib.Path | None,
         hook_dir: pathlib.Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHON"] = sys.executable  # the interpreter the scripts run
    path = [str(ROOT / "src")]
    if hook_dir is not None:
        path.insert(0, str(hook_dir))
        env["REPRO_CENSUS_SRC"] = str(SRC)
        env["REPRO_CENSUS_OUT"] = str(record_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_traced(commands: list[list[str]], workdir: pathlib.Path,
               jobs: int = 2) -> set[tuple[str, int, str]]:
    """Run every command under the hook, ``jobs`` at a time; returns the
    ``(path, first line, qualname)`` of every code object under
    ``src/repro`` that any of their processes called."""
    hook_dir = workdir / "hook"
    record_dir = workdir / "records"
    hook_dir.mkdir(exist_ok=True)
    record_dir.mkdir(exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
    env = _env(record_dir, hook_dir)

    def run(argv: list[str]) -> str | None:
        done = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if done.returncode != 0:
            tail = "\n".join(done.stdout.splitlines()[-20:])
            return f"{' '.join(argv[1:])} exited {done.returncode}\n{tail}"
        return None

    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        failures = [f for f in pool.map(run, commands) if f]
    if failures:
        raise SystemExit("census: a driver failed:\n" + "\n".join(failures))
    reached = set()
    for record in record_dir.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first, qualname = line.split("\t")
            reached.add((_relative(filename), int(first), qualname))
    return reached


def _relative(filename: str) -> str:
    return pathlib.Path(os.path.realpath(filename)).relative_to(
        SRC).as_posix()


def defined_functions() -> dict[tuple[str, int, str], int]:
    """Every function and lambda under ``src/repro`` with its line span."""
    found: dict[tuple[str, int, str], int] = {}

    def walk(code: types.CodeType, path: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and const.co_name not in COMPREHENSIONS):
                last = max(line for _, _, line in const.co_lines()
                           if line is not None)
                found[(path, const.co_firstlineno, const.co_qualname)] = (
                    last - const.co_firstlineno + 1)
            walk(const, path)

    for module in sorted(SRC.rglob("*.py")):
        code = compile(module.read_text(encoding="utf-8"), str(module),
                       "exec")
        walk(code, module.relative_to(SRC).as_posix())
    return found


_LINE = re.compile(r"(\S+::\S+)(?:\s+x(\d+))?\s+(\S+)\s+(\S+)\s+\S.*")


def read_allowlist() -> tuple[dict[str, tuple[str, str, int]], list[str]]:
    """``path::qualname -> (class, owner, count)``, and the malformed
    lines. A line covers one function; ``xN`` after the name makes it
    cover the ``N`` code objects that share the qualname (the lambdas of
    one class body, a property's getter and setter)."""
    entries: dict[str, tuple[str, str, int]] = {}
    errors = []
    for number, line in enumerate(
            ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        where = f"census.txt:{number}"
        match = _LINE.fullmatch(line)
        if match is None:
            errors.append(f"{where}: want 'path::qualname [xN] class owner "
                          f"reason': {line!r}")
            continue
        name, count, cls, owner = match.groups()
        if cls not in CLASSES:
            errors.append(f"{where}: class {cls!r} not in {CLASSES}")
        elif cls == "gap" and not re.fullmatch(r"item-\d+[a-z]?", owner):
            errors.append(f"{where}: a gap's owner is a ROADMAP item "
                          f"('item-N'), not {owner!r}")
        elif name in entries:
            errors.append(f"{where}: {name} listed twice")
        else:
            entries[name] = (cls, owner, int(count or 1))
    return entries, errors


def _name(key: tuple[str, int, str]) -> str:
    return f"{key[0]}::{key[2]}"


def check(defined: dict, reached: set) -> int:
    allowlist, problems = read_allowlist()
    unreached = [key for key in defined if key not in reached]
    exempt = {key for key in unreached
              if key[2].rsplit(".", 1)[-1] in EXEMPT}
    listed: collections.Counter = collections.Counter()
    used: collections.Counter = collections.Counter()
    for key in unreached:
        if key in exempt:
            continue
        name = _name(key)
        if name in allowlist:
            used[name] += 1
            listed[allowlist[name][0]] += 1
        else:
            problems.append(f"unreached, not allowlisted: {name} "
                            f"(line {key[1]}, {defined[key]} lines)")
    names = {_name(key) for key in defined}
    for name, (_, _, count) in allowlist.items():
        if name not in names:
            problems.append(f"stale allowlist line: {name} no longer exists")
        elif not used[name]:
            problems.append(f"stale allowlist line: {name} is reached")
        elif used[name] != count:
            problems.append(f"allowlist line {name} covers x{count}, but "
                            f"{used[name]} unreached functions have that "
                            f"name")
    print(f"census: {len(defined)} functions in src/repro "
          f"({sum(defined.values())} lines); production reaches "
          f"{len(defined) - len(unreached)}")
    print(f"census: {sum(listed.values())} unreached functions allowlisted ("
          + ", ".join(f"{cls} {listed[cls]}" for cls in CLASSES)
          + f"), {len(exempt)} exempt by name")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def classify(defined: dict, reached: set, tested: set) -> None:
    allowlist, _ = read_allowlist()
    groups: dict[str, list] = {"test-only": [], "never reached": []}
    for key in sorted(defined):
        if key not in reached:
            groups["test-only" if key in tested else "never reached"].append(
                key)
    for title, keys in groups.items():
        print(f"== {title}: {len(keys)} functions, "
              f"{sum(defined[key] for key in keys)} lines")
        for key in keys:
            mark = allowlist.get(_name(key), ("-",))[0]
            print(f"{defined[key]:5}  {mark:9}  {_name(key)}:{key[1]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="run the production drivers; fail on an "
                           "unlisted unreached function or a stale line")
    mode.add_argument("--classify", action="store_true",
                      help="also run tier-1 and print what only tests reach")
    args = parser.parse_args(argv)
    defined = defined_functions()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = pathlib.Path(tmp)
        (work / "prod").mkdir()
        reached = run_traced(drivers(work / "prod"), work / "prod")
        if args.check:
            return check(defined, reached)
        (work / "tests").mkdir()
        tested = run_traced(TIER1, work / "tests")
    classify(defined, reached, tested)
    return 0


if __name__ == "__main__":
    sys.exit(main())
