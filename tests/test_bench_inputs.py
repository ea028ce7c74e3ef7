"""The benchmark's inputs, made and run with this checkout's program.

``bench/gen.py`` builds each workload's input through the package's API
(the ``planted_city`` tree through ``regions.build_quadtree`` and
``regions.write_tree``), and the workloads run their commands through
``cli.main``. Each generator runs here at a small size and each workload's
commands must exit 0, so an API change that would break the benchmark fails
here first.
"""

import hashlib
import importlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from cityregions import regions
from cityregions.cli import main
from cityregions.ingest import CityBounds

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the bytes of the uniform 64-leaf tree.txt the planted_city digest rests on
UNIFORM_TREE_SHA256 = "a82d64a46d2fbb7c4b92da8bd3fcbcea0618d410a0954c17c9f65292ce67cbc7"


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(BENCH))


def test_tdrive_week_runs_all(gen, tmp_path, monkeypatch):
    info = gen.GENERATORS["tdrive_week"](str(tmp_path), 1, n_taxis=20, carriers=5)
    monkeypatch.chdir(tmp_path)
    assert main(["all", "--config", info["config"]]) == 0
    assert (tmp_path / "out" / "dtn_summary.txt").stat().st_size


def test_planted_city_runs_functions_then_dtn(gen, tmp_path, monkeypatch):
    info = gen.GENERATORS["planted_city"](str(tmp_path), 1, n_taxis=50, carriers=5)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for name in ("events.txt", "tree.txt"):
        shutil.copy(tmp_path / "seed" / name, tmp_path / "out" / name)
    for stage in ("functions", "dtn"):
        assert main([stage, "--config", info["config"]]) == 0
    assert (tmp_path / "out" / "dtn_summary.txt").stat().st_size


def test_fit_batch_runs_each_fit(gen, tmp_path, monkeypatch):
    info = gen.GENERATORS["fit_batch"](str(tmp_path), 1, n_sets=4, n=500)
    monkeypatch.chdir(tmp_path)
    rows = (tmp_path / info["config"]).read_text().splitlines()
    assert len(rows) == 4
    for i, row in enumerate(rows):
        path, _family, x_min = row.split(";")
        assert main(["fit", path, "--x-min", x_min, "--out-prefix", f"fits_{i}"]) == 0
        assert (tmp_path / f"fits_{i}_fits.txt").stat().st_size


def test_uniform_tree_bytes(gen):
    tree = gen.uniform_tree(CityBounds(**gen.planted_config()["bounds"]))
    buf = io.StringIO(newline="\n")
    regions.write_tree(tree, buf)
    assert len(buf.getvalue().splitlines()) == 64
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == UNIFORM_TREE_SHA256
