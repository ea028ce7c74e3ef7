"""The benchmark's inputs, made and run with this checkout's program.

``bench/gen.py`` builds each workload's input through the package's API
(the ``planted_city`` tree through ``regions.build_quadtree`` and
``regions.write_tree``), and the workloads run their commands through
``cli.main``. Each generator runs here at a small size and each workload's
commands must exit 0 and write the files pinned below, byte for byte, so an
API change that would break the benchmark, or a change to the bytes of these
input shapes, fails here first.
"""

import hashlib
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cityregions import regions
from cityregions.cli import main
from cityregions.ingest import CityBounds

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the bytes of the uniform 64-leaf tree.txt the planted_city digest rests on
UNIFORM_TREE_SHA256 = "a82d64a46d2fbb7c4b92da8bd3fcbcea0618d410a0954c17c9f65292ce67cbc7"

# sha256 of every file each workload's commands leave (the out directory but
# .parsed/, or the fit outputs), at seed 1 and the sizes below
OUTPUT_SHA256 = {
    "tdrive_week": {
        "ccdf_stay_time.txt": "8659d05e3b508ffc1d2abb65c15c730387212098fce2074eb1c481fb76055b08",
        "ccdf_trip_duration.txt": "9095a0e04398c80caaff0d0daae177a0de5e409d3f79de51cd0229a07db74cd4",
        "ccdf_trip_length.txt": "a9468dc9599fc09744c4f9d2c14679dcdd27fa779e8561091d634cc8a8d8017b",
        "dtn_results.txt": "4603836bb685e63f868116d526ae1fe7f2d3a2b849eab9bea507cae93427aa0d",
        "dtn_summary.txt": "9e3e4a99e2f50d363861df447c5edddb0e78b754d5e2400eb4941f94eb857b53",
        "events.txt": "ca8390458516dbbd76b4d45c2947d0a397451b4a61c424394c7b30181ce93e70",
        "fits_stay_time.txt": "08fd7529b6fe500952f2d39a2aa6667663bd6b9986bfec712e8a2d672d055fcd",
        "fits_trip_duration.txt": "06d697c22d0b3d894fb6b1ee37a881e6d3e675568a84ca9b7d550d9da395bb9e",
        "fits_trip_length.txt": "6d5f67fff8c5445958e5e2d5fa05541b1f654a6006d9811d486a43a2fb9328f4",
        "ingest_summary.txt": "fac01fb5350cfaf350364aec5f1ce6cf86ae78ec9fb349d15f7c1cab2f750e15",
        "itemsets.txt": "68462607d90670cecbc4a4ddb1e9892f79266bc124621b7224ee92ac0a2ec170",
        "labels.txt": "760a328bd34f51978ee164d60b582cbc6ed676de2d060d812a840c33a72982c2",
        "manifest.json": "d4b5728af412ba97827073354bbe37625417a5427275b8899fd12b25d5b71c2b",
        "region_labels_plot.txt": "487cdec9bead0b3f036d7240e780976b5b3a447be979b90a63c0d4e58b3d4584",
        "regions_dropped.txt": "d0ce70b52704282e566b15d07d7df186fdcf2831a925a28607f469e4e1adaa11",
        "rejects.txt": "e55d70529c96c4f7693621e7d0694a5c4ac6be410b22b2d7ad968025b98d2f4b",
        "stops.txt": "f9c5e87fd4f399dbc2f38764d138242408a42681eb0afa841339398fa5d77045",
        "trace.txt": "a59c83e86b626f433f766d828eb3dd0c69e93868d07b799df15f3b35e984aa53",
        "tree.txt": "c8ac655ef096e6ca3d1959126cd91bed2013207c8f2a6d877a40db1e7cb9f3a9",
        "trips.txt": "604c1da1fb67dba418337f0374e96abcf2e6bcab7199427987da94cb93753981",
    },
    "planted_city": {
        "dtn_results.txt": "9c5ce430e61e66e1086fa3e1ddeb57007bb1369db22e90e160d3f38d3f8d5731",
        "dtn_summary.txt": "73bf599843e1ea7419791282d26f2ea4c3b79de8234c3c1d4dca62be598cb4bb",
        "events.txt": "8f817d6fdbb366f76a918875e599c4982f36fc70f26ee7d43b5128bf299862f1",
        "itemsets.txt": "8d0b7e4505980dec6f5609fcca2ef937056c0f911d216ba08ac86908955654ae",
        "labels.txt": "bc66fcd698b7d8b1462e1cde4c449fe487cb7b0457cc27905e59384348c0f11b",
        "manifest.json": "16d7f11c6e413efdba4c54479c836d7c8e7014a911e369ace22bc7e0c5ff8a57",
        "region_labels_plot.txt": "57bdda0fcfb331e27ed83f474cb25bedadbefb86b10f6e81f11df72f6ca8b3ae",
        "tree.txt": "a82d64a46d2fbb7c4b92da8bd3fcbcea0618d410a0954c17c9f65292ce67cbc7",
    },
    "fit_batch": {
        "fits_0_ccdf.txt": "95f85afebcb02da000fcb6e61ebe793025c51fe81a2e7ec3b237ed72584ed9a4",
        "fits_0_fits.txt": "dc3b83a84ff3afebde5e4cda4ac0658a688c6c20ac817e2cbd6f891afaa90f5d",
        "fits_1_ccdf.txt": "141e2e47d25e42ca53a0032d250e2cc78f9c6b4f9cafdff91cfbab248a978374",
        "fits_1_fits.txt": "f96a1ec06148a222fde8892f097f7aa1eac4f5630cc9616eb488025acb47aef1",
        "fits_2_ccdf.txt": "6869e4c7efeb37117ec9550212ade6f73169c9fe950adb11083de58847142e06",
        "fits_2_fits.txt": "7a0b2fb9d129d6fc630e1e27a640790cd568f79061757ae77da26ad9096f33cc",
        "fits_3_ccdf.txt": "6fdaafbaeebd304cfa014abfa57271ee49ccc29b4badae5d97f77ff23e1d3fbc",
        "fits_3_fits.txt": "52726f688cbcd901d47b170c2ffa2fe326bb6fb352380db23fbe4b786ec19ed7",
    },
}


def digests(directory, names=None):
    """sha256 of each file directly in directory, or of the named ones."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())
            if path.is_file() and (names is None or path.name in names)}


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
    assert digests(tmp_path / "out") == OUTPUT_SHA256["tdrive_week"]


def test_tdrive_week_bytes_do_not_rest_on_zeroed_memory(gen, tmp_path):
    """``all`` in a process whose malloc fills every block it hands out with
    one nonzero byte (glibc's MALLOC_PERTURB_) writes the same bytes: no cell
    of an ``np.empty`` array is read before it is written, also where main's
    malloc thresholds hand back freed heap memory instead of zeroed pages."""
    info = gen.GENERATORS["tdrive_week"](str(tmp_path), 1, n_taxis=20, carriers=5)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, MALLOC_PERTURB_="165", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-m", "cityregions.cli", "all", "--config", info["config"]],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    assert digests(tmp_path / "out") == OUTPUT_SHA256["tdrive_week"]


def test_planted_city_runs_functions_then_dtn(gen, tmp_path, monkeypatch):
    info = gen.GENERATORS["planted_city"](str(tmp_path), 1, n_taxis=50, carriers=5)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for name in ("events.txt", "tree.txt"):
        shutil.copy(tmp_path / "seed" / name, tmp_path / "out" / name)
    for stage in ("functions", "dtn"):
        assert main([stage, "--config", info["config"]]) == 0
    assert digests(tmp_path / "out") == OUTPUT_SHA256["planted_city"]


def test_fit_batch_runs_each_fit(gen, tmp_path, monkeypatch):
    info = gen.GENERATORS["fit_batch"](str(tmp_path), 1, n_sets=4, n=500)
    monkeypatch.chdir(tmp_path)
    rows = (tmp_path / info["config"]).read_text().splitlines()
    assert len(rows) == 4
    for i, row in enumerate(rows):
        path, _family, x_min = row.split(";")
        assert main(["fit", path, "--x-min", x_min, "--out-prefix", f"fits_{i}"]) == 0
    assert digests(tmp_path, OUTPUT_SHA256["fit_batch"]) == OUTPUT_SHA256["fit_batch"]


def test_uniform_tree_bytes(gen):
    tree = gen.uniform_tree(CityBounds(**gen.planted_config()["bounds"]))
    buf = io.StringIO(newline="\n")
    regions.write_tree(tree, buf)
    assert len(buf.getvalue().splitlines()) == 64
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == UNIFORM_TREE_SHA256
