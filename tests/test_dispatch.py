"""Bytes that must not depend on numpy's SIMD dispatch.

numpy picks some loops at run time by the CPU's SIMD level, and those may
round differently. Each check here runs the same work in a child process
with every dispatch target above numpy's baseline that this CPU has switched
off (``NPY_DISABLE_CPU_FEATURES``, which acts on that process alone), and
asserts that the bytes equal this process's. Where numpy dispatches to no
such target on this CPU, the checks skip.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import cityregions

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    __cpu_dispatch__, __cpu_features__ = [], {}

_HIGHER = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]

# A fixed draw: finite bit patterns of either sign, trip lengths, 5-place
# coordinates, stop centroids, the fixed cells and ints; then its float cells.
_FLOAT_CELLS = """
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
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
enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
"""


def _in_child(code: str) -> bytes:
    """What ``code`` leaves in ``out``, run in a child process with the
    higher dispatch targets off; the child must report none of them on."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cityregions.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_HIGHER),
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-c", code + "import sys\nassert not enabled, enabled\n"
                                      "sys.stdout.buffer.write(out)\n"],
        env=env, capture_output=True, check=True)
    return run.stdout


@pytest.mark.skipif(not _HIGHER, reason="numpy dispatches to no target above its baseline here")
def test_float_cells_do_not_depend_on_dispatch():
    """The writer's float cells (the place search, the shortest-digit kernel)
    use integer operations and correctly rounded float ones only."""
    here = {}
    exec(_FLOAT_CELLS, here)
    assert here["enabled"] == _HIGHER
    assert _in_child(_FLOAT_CELLS) == here["out"]
