"""Bytes that must not depend on numpy's SIMD dispatch.

numpy picks some loops at run time by the CPU's SIMD level, and those may
round differently. Each check here runs the same work in a child process
with every dispatch target above numpy's baseline that this CPU has switched
off (``NPY_DISABLE_CPU_FEATURES``, which acts on that process alone), and
asserts that the bytes equal this process's. Where numpy dispatches to no
such target on this CPU, the checks skip.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cityregions
from cityregions.fixtures import write_fixture

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    __cpu_dispatch__, __cpu_features__ = [], {}

_HIGHER = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]

needs_higher = pytest.mark.skipif(
    not _HIGHER, reason="numpy dispatches to no target above its baseline here")

# A fixed draw: finite bit patterns of either sign, trip lengths, 5-place
# coordinates, stop centroids, the fixed cells and ints; then its float cells.
_FLOAT_CELLS = """
import numpy as np
from cityregions import columns
rng = np.random.default_rng(18)
bits = rng.integers(0, 2**64, 20_000, np.uint64)
bits[(bits >> 52 & 0x7FF) == 0x7FF] &= ~np.uint64(1 << 62)
lat = np.round(rng.uniform(39.4, 41.1, (20_000, 3)), 5)
x = np.concatenate((bits.view(np.float64), rng.uniform(0, 20_000, 20_000), lat[:, 0],
                    lat.sum(axis=1) / 3, [np.nan, np.inf, -np.inf, -0.0, 2.0**53 + 2, 1e16],
                    np.arange(-50.0, 50.0)))
cells, keep = columns._float_cells(x)
out = repr(cells.shape).encode() + cells.tobytes() + keep.tobytes()
"""

# Distances between points anywhere and between points a few km apart, as
# arrays; then as floats: coincident points, the poles, across the
# antimeridian, antipodes and a NaN coordinate.
_DISTANCES = """
import math
import numpy as np
from cityregions.trajectory import great_circle
rng = np.random.default_rng(17)
lat1, lat2 = rng.uniform(-90.0, 90.0, (2, 20_000))
lon1, lon2 = rng.uniform(-180.0, 180.0, (2, 20_000))
dlat, dlon = rng.uniform(-0.05, 0.05, (2, 20_000))
far = great_circle(lat1, lon1, lat2, lon2)
near = great_circle(lat1, lon1, lat1 + dlat, lon1 + dlon)
floats = [great_circle(*p) for p in [
    (39.9, 116.4, 39.9, 116.4), (90.0, 0.0, -90.0, 0.0), (90.0, 10.0, 90.0, -170.0),
    (0.0, 179.99, 0.0, -179.99), (10.0, 20.0, -10.0, -160.0), (0.0, 0.0, 0.0, 180.0),
    (math.nan, 0.0, 0.0, 0.0), (39.9, 116.4, 39.90045, 116.4)]]
out = far.tobytes() + near.tobytes() + repr([d.hex() for d in floats]).encode()
"""

# Four taxis' random walks, dwelling and driving, with a few long gaps.
_STOPS_AND_TRIPS = """
import numpy as np
from cityregions.ingest import Trace
from cityregions.trajectory import stops_and_trips
rng = np.random.default_rng(40)
n = 3_000
stride = np.where(rng.random((4, n, 1)) < 0.3, 3e-3, 1e-4)
lat, lon = (np.array([39.9, 116.4]) + np.cumsum(stride * rng.uniform(-1.0, 1.0, (4, n, 2)),
                                                axis=1)).reshape(-1, 2).T
t = np.cumsum(rng.uniform(20.0, 120.0, (4, n)) + 2000.0 * (rng.random((4, n)) < 0.01),
              axis=1).ravel()
stops, trips = stops_and_trips(Trace(tuple("abcd"), np.arange(0, 4 * n + 1, n), t, lat, lon))
assert len(trips) > 100
out = b"".join(np.asarray(c).tobytes() for c in (
    stops.taxi, stops.dwell_start, stops.dwell_end, stops.centroid_lat, stops.centroid_lon,
    trips.taxi, *trips.columns()))
"""

# The fixture's `all`; every artifact's sha256, manifest.json included.
_FIXTURE_ALL = """
import hashlib, pathlib
from cityregions.pipeline import load_config, run
cfg = load_config({config!r}, overrides=[("out_dir", {out_dir!r})])
run(cfg, "all")
out = "".join(f"{{path.name}} {{hashlib.sha256(path.read_bytes()).hexdigest()}}\\n"
              for path in sorted(pathlib.Path(cfg.out_dir).iterdir())).encode()
"""

_ENABLED = """
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
"""


def _in_child(code: str) -> bytes:
    """What ``code`` leaves in ``out``, run in a child process with the
    higher dispatch targets off, as well as any this process has off; the
    child must report none of them on."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cityregions.__file__)))
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dict.fromkeys(off + _HIGHER)),
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-c", code + _ENABLED + "import sys\nassert not enabled, enabled\n"
                                                 "sys.stdout.buffer.write(out)\n"],
        env=env, capture_output=True, check=True)
    return run.stdout


def _here(code: str) -> bytes:
    """What ``code`` leaves in ``out``, run in this process."""
    here = {}
    exec(code + _ENABLED, here)
    assert here["enabled"] == _HIGHER
    return here["out"]


@needs_higher
def test_float_cells_do_not_depend_on_dispatch():
    """The writer's float cells (the place search, the shortest-digit kernel)
    use integer operations and correctly rounded float ones only."""
    assert _in_child(_FLOAT_CELLS) == _here(_FLOAT_CELLS)


@needs_higher
def test_great_circle_does_not_depend_on_dispatch():
    """numpy's float64 sin and cos are libm's at every level, and the asin
    kernel uses correctly rounded operations only."""
    assert _in_child(_DISTANCES) == _here(_DISTANCES)


@needs_higher
def test_stops_and_trips_do_not_depend_on_dispatch():
    assert _in_child(_STOPS_AND_TRIPS) == _here(_STOPS_AND_TRIPS)


@needs_higher
def test_fixture_all_does_not_depend_on_dispatch(tmp_path):
    """Both runs write to the same paths, so manifest.json compares too."""
    write_fixture(str(tmp_path / "fixture"))
    code = _FIXTURE_ALL.format(config=str(tmp_path / "fixture" / "config.json"),
                               out_dir=str(tmp_path / "out"))
    here = _here(code).decode()
    shutil.rmtree(tmp_path / "out")
    assert _in_child(code).decode().splitlines() == here.splitlines()
