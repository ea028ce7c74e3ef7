"""Every numpy function in the package whose float64 loop numpy may pick by
the CPU's SIMD level is listed here, once per use, with the reason it stays.

Such loops may round differently with AVX512 on and off, so a new use would
make the artifacts depend on the host. An unlisted use, or a listed one that
is gone, fails here; ``tests/test_dispatch.py`` checks the bytes themselves.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cityregions"

# transcendentals, powers and the spacings built on them
DISPATCHED = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
              "float_power", "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
              "sinh", "cosh", "tanh", "cbrt", "hypot", "geomspace", "logspace"}

LIBM = ("float64 sin and cos are libm's at every dispatch level numpy has here, "
        "which tests/test_dispatch.py checks through great_circle")
SAMPLE_LOGS = ("one log per sample; math.log per value costs about 1 ms a pass, "
               "and no log kernel in correctly rounded operations has been written yet")

# (module.function, numpy name) once per use -> why it stays
INVENTORY = [
    ("stats.fit_lognormal", "log", SAMPLE_LOGS),
    ("stats.fit_powerlaw", "log", SAMPLE_LOGS),
    ("stats.fit_powerlaw", "log", SAMPLE_LOGS),
    ("stats.fit_truncated_powerlaw", "log", SAMPLE_LOGS),
    ("trajectory.great_circle", "sin", LIBM),
    ("trajectory.great_circle", "sin", LIBM),
    ("trajectory.great_circle", "cos", LIBM),
    ("trajectory.great_circle", "cos", LIBM),
]


def _uses(path: Path):
    """(module.function, name) of each ``np.<name>`` or ``numpy.<name>`` in
    DISPATCHED, and of each such name imported from numpy."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr in DISPATCHED
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
                yield where, child.attr
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy"):
                yield from ((where, a.name) for a in child.names if a.name in DISPATCHED)
            yield from walk(child, where)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def test_every_dispatched_numpy_call_is_listed():
    found = Counter(use for path in sorted(PACKAGE.rglob("*.py")) for use in _uses(path))
    assert found == Counter((where, name) for where, name, _ in INVENTORY)


def test_the_inventory_finds_an_unlisted_call(tmp_path):
    module = tmp_path / "stats.py"
    module.write_text("import numpy as np\nfrom numpy import exp\n\n\n"
                      "def compare_models(d):\n    return np.exp(-d / 2.0)\n")
    assert sorted(_uses(module)) == [("stats", "exp"), ("stats.compare_models", "exp")]
