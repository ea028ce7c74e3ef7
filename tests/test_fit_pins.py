"""The truncated power-law fit's bits, pinned without scipy or hypothesis.

`tests/test_stats.py` checks the fit's search against scipy's Nelder-Mead
bit for bit, which needs the ``test`` extra. These pins need only numpy: one
seeded n = 10^4 set of each `cityregions fit` benchmark family, the first
four sets of its seed-1 batch, fitted before the search became a scalar port
(the truncated power-law set again once the normalizer took its z = 1 value
from a Chebyshev series). The power-law families are drawn on Python floats,
so the sets equal the batch's where numpy's ``power`` and ``exp`` round as
libm does (with its AVX512 loops off). The powerlaw pin is that draw's fit.
"""

import math
from unittest import mock

import numpy as np
import pytest

from cityregions import stats

# family -> x_min, and the draws, as the benchmark's fit batch makes them
FAMILIES = {"exponential": 5.5e-6, "lognormal": 1e-9,
            "powerlaw": 1.0, "truncated_powerlaw": 1.0}


def draw(family: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """The family's draws; the power laws are drawn on Python floats, whose
    ``**`` and ``math.exp`` are libm's, so the draw does not depend on numpy's
    SIMD dispatch."""
    if family == "exponential":
        return rng.exponential(5500.0, n)
    if family == "lognormal":
        return rng.lognormal(1.0, 0.5, n)
    if family == "powerlaw":
        return np.array([(1.0 - u) ** (-1.0 / 1.5) for u in rng.random(n).tolist()])
    # truncated power law (alpha 1.5, rate 0.1, x_min 1) by rejection
    out: list[float] = []
    while len(out) < n:
        x = [(1.0 - u) ** (-1.0 / 0.5) for u in rng.random(4 * n).tolist()]
        out += [v for v, u in zip(x, rng.random(4 * n).tolist()) if u < math.exp(-0.1 * (v - 1.0))]
    return np.asarray(out[:n])


# family -> repr of alpha, rate and log-likelihood, converged, and the number
# of likelihood evaluations over the fit's three searches
PINS = {
    "exponential": ("0.0", "0.00018159975475729107", "-96137.05442253438", True, 317),
    "lognormal": ("0.0", "0.32492234071066206", "-21241.690751902548", True, 310),
    "powerlaw": ("2.475863360428038", "0.0006966686371531625",
                 "-12821.182039265317", True, 541),
    "truncated_powerlaw": ("1.528476493503433", "0.09864573826682772",
                           "-17587.13513396503", True, 450),
}


@pytest.mark.parametrize("idx,family", list(enumerate(FAMILIES)))
def test_truncated_powerlaw_fit_bits(idx, family):
    x = draw(family, np.random.default_rng([1, idx]), 10_000)
    with mock.patch.object(stats, "_tpl_log_norm", wraps=stats._tpl_log_norm) as norm:
        fit = stats.fit_truncated_powerlaw(x, FAMILIES[family])
    got = (repr(fit.params["alpha"]), repr(fit.params["rate"]),
           repr(fit.log_likelihood), fit.converged, norm.call_count)
    assert got == PINS[family]
