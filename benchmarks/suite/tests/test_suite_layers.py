"""The module -> layer map is total: every source file under src/repro
falls in exactly one bucket, and nothing outside it does."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.suite import catalog, layers  # noqa: E402


def test_every_source_module_maps_to_exactly_one_layer():
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(files) > 50
    for path in files:
        assert layers.layer_of(str(path)) in layers.LAYERS, path


def test_files_outside_the_program_map_to_no_layer():
    assert layers.layer_of("/usr/lib/python3.11/random.py") is None
    assert layers.layer_of("~") is None
    assert layers.layer_of(str(ROOT / "benchmarks/suite/load.py")) is None


def test_layer_names_agree_with_the_catalogue():
    assert layers.LAYERS == catalog.LAYERS
    assert set(layers.LAYER_OF_PACKAGE.values()) <= set(layers.LAYERS)
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir()
                if p.is_dir() and p.name != "__pycache__"}
    assert packages == set(layers.LAYER_OF_PACKAGE)
