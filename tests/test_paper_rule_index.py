"""README's paper-rule index stays true to the code.

Each row of the "Paper-rule index" table names a protocol rule, the one
function implementing it and the text its module quotes. The quote must
appear exactly once under ``src/repro`` -- so it names one place -- and
in the named function's module, and the function must exist.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ROW = re.compile(r'^\| (?P<rule>[^|]+?) \| `(?P<path>[^`:]+)::(?P<qualname>[^`]+)`'
                 r' \| "(?P<quote>[^"]+)"')


def flatten(text):
    """Source text as one line: docstrings and comments wrap, so line
    breaks, indentation and comment markers do not count."""
    return " ".join(line.strip().lstrip("#").strip()
                    for line in text.splitlines())


def index_rows():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Paper-rule index", 1)[1].split("\n## ", 1)[0]
    return [m.groupdict() for line in section.splitlines()
            if (m := ROW.match(line))]


SOURCES = {path.relative_to(SRC).as_posix(): flatten(path.read_text())
           for path in sorted(SRC.rglob("*.py"))}
ROWS = index_rows()


def test_index_covers_every_listed_rule():
    rules = [row["rule"] for row in ROWS]
    for rule in ("Fast Raft insert", "Fast Raft vote", "Fast Raft decide",
                 "Fast Raft recover", "Classic commit", "C-Raft batch",
                 "C-Raft gate", "C-Raft global commit"):
        assert any(r.startswith(rule) for r in rules), rule


@pytest.mark.parametrize("row", ROWS,
                         ids=[row["rule"].split(" (")[0] for row in ROWS])
def test_quote_names_one_place_in_the_named_module(row):
    quote = row["quote"]
    holders = {path: text.count(quote) for path, text in SOURCES.items()
               if quote in text}
    assert sum(holders.values()) == 1, holders
    assert row["path"] in holders, (row["path"], holders)
    module = importlib.import_module(
        "repro." + row["path"].removesuffix(".py").replace("/", "."))
    owner = module
    for part in row["qualname"].split("."):
        owner = getattr(owner, part)
    assert callable(owner)
