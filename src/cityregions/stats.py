"""Maximum-likelihood fits of heavy-tailed candidates, ranked by Akaike weight.

Candidates: exponential, lognormal, power law, and exponentially truncated
power law (density proportional to x^-alpha * exp(-rate*x) above x_min, with
the upper incomplete gamma function, evaluated in float64, as normalizer).
The truncated power law is fitted by a bounded Nelder-Mead search
(`_nelder_mead`), a scalar two-parameter port of scipy 1.17.1's `minimize`
that matches it bit for bit, so numpy is the only dependency; its clip
returns the bound on a tie, as `np.clip` does.
Fits are compared by AIC = -2*logL + 2k; weights are exp(-delta/2) normalized
over the candidate set. Also home to the Pearson correlation used for the
road-grid check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

EXPONENTIAL = "exponential"
LOGNORMAL = "lognormal"
POWERLAW = "powerlaw"
TRUNCATED_POWERLAW = "truncated_powerlaw"

TPL_MAX_EVALS = 10_000
TPL_TOL = 1e-8
TPL_ALPHA_MAX = 20.0

_CF_TERMS = 110       # continued-fraction depth: at rounding level from 100 at z = 1
_SERIES_TERMS = 18    # 1/(19! * 18.5) < 1e-18 bounds the dropped series tail
# the continued fraction's (i, 2i) from its depth down to 1: both are exact
_CF_STEPS = tuple((float(i), 2.0 * i) for i in range(_CF_TERMS, 0, -1))
# e * Gamma(s, 1) = sum_k c_k T_k((4s - 1)/3) on -1/2 <= s <= 1; see _gamma_at_1
_G1_CHEB = (
    0.7052934383986655, 0.2534203127967472, 0.03636418410627367,
    0.004407490234424278, 0.0004664270560084376, 4.40552655496489e-05,
    3.772647859039716e-06, 2.963766537365419e-07, 2.1556479028318282e-08,
    1.4623320776055144e-09, 9.30836179512557e-11, 5.5879669129001655e-12,
    3.1772428150501026e-13, 1.7173733679394834e-14, 8.852977012185251e-16,
    4.3646205989542544e-17,
)
_G1_CLENSHAW = _G1_CHEB[:0:-1]  # c_15 down to c_1


class FitError(ValueError):
    """Samples violate a fit precondition or the fit is degenerate."""


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    log_likelihood: float
    k: int
    aic: float
    n: int
    converged: bool = True


@dataclass(frozen=True)
class ModelComparison:
    fits: tuple[FitResult, ...]
    deltas: tuple[float, ...]
    weights: tuple[float, ...]
    best: FitResult


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int


def _result(model: str, params: dict[str, float], ll: float, k: int, n: int,
            converged: bool = True) -> FitResult:
    ll = float(ll)
    return FitResult(model=model, params={k_: float(v) for k_, v in params.items()},
                     log_likelihood=ll, k=k, aic=-2.0 * ll + 2.0 * k, n=n,
                     converged=converged)


def _validate_positive(samples: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise FitError("samples must be one-dimensional")
    if x.size < 2:
        raise FitError(f"need at least 2 samples, got {x.size}")
    bad = np.flatnonzero(~(x > 0) | ~np.isfinite(x))
    if bad.size:
        raise FitError(f"sample {bad[0]} is not a positive finite number: {x[bad[0]]}")
    return x


def _sum_and_mean(x: np.ndarray) -> tuple[float, float]:
    """The samples' sum and ``x.mean()``. The sum of finite samples may pass
    the float range; the mean is then the sum of x / n."""
    with np.errstate(over="ignore"):
        total = float(x.sum())
        return total, total / x.size if total < math.inf else float((x / x.size).sum())


def fit_exponential(samples: Sequence[float] | np.ndarray) -> FitResult:
    """Rate MLE is 1/mean; support (0, inf)."""
    x = _validate_positive(samples)
    n = x.size
    total, mean = _sum_and_mean(x)
    rate = 1.0 / mean
    if not 0.0 < rate < math.inf:
        raise FitError(f"the exponential rate 1 / {mean!r} is outside the float range")
    # rate * total is n at the MLE, also where total is past the float range
    ll = n * math.log(rate) - (rate * total if total < math.inf else n)
    return _result(EXPONENTIAL, {"rate": rate}, ll, k=1, n=n)


def fit_lognormal(samples: Sequence[float] | np.ndarray) -> FitResult:
    """mu, sigma are the mean and population std of log samples."""
    x = _validate_positive(samples)
    n = x.size
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(np.sqrt(np.mean((logs - mu) ** 2)))
    if sigma == 0.0:
        raise FitError("all samples equal: lognormal fit is degenerate (sigma = 0)")
    ll = (-float(logs.sum()) - n * math.log(sigma * math.sqrt(2.0 * math.pi))
          - float(((logs - mu) ** 2).sum()) / (2.0 * sigma ** 2))
    return _result(LOGNORMAL, {"mu": mu, "sigma": sigma}, ll, k=2, n=n)


def _validate_tail(samples: Sequence[float] | np.ndarray,
                   x_min: float | None) -> tuple[np.ndarray, float]:
    x = _validate_positive(samples)
    if x_min is None:
        x_min = float(x.min())
    if not (x_min > 0):
        raise FitError(f"x_min must be positive, got {x_min}")
    bad = np.flatnonzero(x < x_min)
    if bad.size:
        raise FitError(f"sample {bad[0]} is below x_min: {x[bad[0]]} < {x_min}")
    return x, x_min


def fit_powerlaw(samples: Sequence[float] | np.ndarray,
                 x_min: float | None = None) -> FitResult:
    """Continuous Pareto MLE: alpha = 1 + n / sum(log(x / x_min))."""
    x, x_min = _validate_tail(samples, x_min)
    n = x.size
    with np.errstate(over="ignore"):
        log_ratios = np.log(x / x_min)
    huge = np.isinf(log_ratios)  # x / x_min is past the float range; x is not
    log_ratios[huge] = np.log(x[huge]) - math.log(x_min)
    log_ratio = float(log_ratios.sum())
    if log_ratio <= 0.0:
        raise FitError("all samples equal x_min: power-law fit is degenerate")
    alpha = 1.0 + n / log_ratio
    scale = (alpha - 1.0) / x_min  # past the float range too when x_min is subnormal
    log_scale = math.log(scale) if scale < math.inf else math.log(alpha - 1.0) - math.log(x_min)
    ll = n * log_scale - alpha * log_ratio
    return _result(POWERLAW, {"alpha": alpha, "x_min": x_min}, ll, k=1, n=n)


def _gamma_cf(s: float, z: float) -> float:
    """Gamma(s, z) * z^-s * e^z by Legendre's continued fraction, for z >= 1.

    1/(z+1-s - 1(1-s)/(z+3-s - 2(2-s)/(z+5-s - ...))), summed from a fixed
    depth backwards; it converges fastest at large z and slowest at z = 1.
    """
    u = z - 1.0 - s
    t = u + 2.0 * _CF_TERMS + 2.0
    for i, two_i in _CF_STEPS:
        t = u + two_i - i * (i - s) / t
    return 1.0 / t


def _gamma_at_1(s: float) -> float:
    """G(s) = e * Gamma(s, 1) for -1/2 <= s <= 1, by Clenshaw's recurrence
    over the Chebyshev series in t = (4s - 1)/3, whose coefficients are
    _G1_CHEB; G(1) is exactly 1.

    The coefficients come from mpmath at 40 digits on the N = 32
    Chebyshev-Gauss nodes theta_j = pi (j + 1/2) / N, j = 0..N-1:
    c_k = (2/N) sum_j G((3 cos theta_j + 1)/4) cos(k theta_j), with c_0
    halved and each rounded to the nearest float. The series keeps c_0..c_15:
    c_16 ~ 2.1e-18 is the first below 1e-17. Its worst relative error against
    mpmath is ~2.8e-16, the continued fraction's at z = 1 ~3.1e-16.
    """
    if not -0.5 <= s <= 1.0:
        raise ValueError(f"the z = 1 series covers -1/2 <= s <= 1, not s = {s!r}")
    t = (4.0 * s - 1.0) / 3.0
    t2 = t + t
    b1 = b2 = 0.0
    for c in _G1_CLENSHAW:
        b1, b2 = c + t2 * b1 - b2, b1
    return _G1_CHEB[0] + (t * b1 - b2)


def _upper_gamma_log_terms(s: float, z: float) -> tuple[float, bool]:
    """(v, scaled) for s <= 1, z > 0: log Gamma(s, z) is v + s log z - z
    when scaled, else v, where Gamma(s, z) is the upper incomplete gamma
    function.

    For z >= 1, v is log _gamma_cf(s, z), scaled. For z < 1, take
    s0 = s + m in (-1/2, 1/2] (s0 = s when s > 1/2): Gamma(s0, z) is
    Gamma(s0, 1) = _gamma_at_1(s0) / e, a Chebyshev series on [-1/2, 1],
    plus the integral of t^(s0-1) e^-t over [z, 1] term by term,
    sum_k (-1)^k/k! (1 - z^(s0+k))/(s0+k); with m = 0 that is Gamma(s, z),
    unscaled. The m steps down to s use the scaled G(s) = Gamma(s, z) z^-s e^z,
    G(s-1) = (1 - z G(s))/(1 - s): it stays in range where Gamma(s, z) does
    not (s = -19, z = 1e-20 gives ~1e380), and no divisor s0 + k or 1 - s is
    below 1/2, so nothing cancels near a non-positive integer s.
    """
    log_z = math.log(z)
    if z >= 1.0:
        return math.log(_gamma_cf(s, z)), True
    m = max(0, math.floor(0.5 - s))
    s0 = s + m  # exact: s and -m are within a factor 2 of each other
    total = _gamma_at_1(s0) / math.e
    total += -math.expm1(s0 * log_z) / s0 if s0 else -log_z
    coef = 1.0
    z_pow = math.exp(s0 * log_z)
    for k in range(1, _SERIES_TERMS + 1):
        coef /= -k
        z_pow *= z
        total += coef * (1.0 - z_pow) / (s0 + k)
    if m == 0:
        return math.log(total), False
    g = total * math.exp(z - s0 * log_z)
    for j in range(m):
        g = (1.0 - z * g) / (1.0 - s0 + j)
    return math.log(g), True


def _log_upper_gamma(s: float, z: float) -> float:
    """log Gamma(s, z), the upper incomplete gamma function, for s <= 1, z >= 0."""
    if z == 0.0:  # rate * x_min underflowed: Gamma(s, 0) is Gamma(s) or diverges
        return math.lgamma(s) if s > 0.0 else math.inf
    v, scaled = _upper_gamma_log_terms(s, z)
    return v + s * math.log(z) - z if scaled else v


def _tpl_log_norm(alpha: float, rate: float, x_min: float) -> float:
    """log of integral_{x_min}^inf x^-alpha exp(-rate x) dx via upper incomplete gamma.

    That is rate^(alpha-1) Gamma(1-alpha, z) with z = rate x_min. Where the
    kernel's term is scaled, Gamma(s, z) = G rate^s x_min^s e^-z and rate^s
    cancels exactly: summed as two logs instead, at alpha = 20 and z = 1e-12
    they are ~500 in size, the result is near 0, and ~1e-13 of rounding is
    left.
    """
    s, z = 1.0 - alpha, rate * x_min
    if z == 0.0:
        return (alpha - 1.0) * math.log(rate) + _log_upper_gamma(s, z)
    v, scaled = _upper_gamma_log_terms(s, z)
    if scaled:
        return v + s * math.log(x_min) - z
    return (alpha - 1.0) * math.log(rate) + v


def _nelder_mead(f, x0, lo, hi, maxfev: int, fatol: float,
                 xatol: float) -> tuple[np.ndarray, float, bool]:
    """Minimize f over the box lo <= x <= hi from x0, a start of two values;
    returns (x, fun, success).

    A scalar, two-parameter, step-for-step port of scipy 1.17.1's bounded,
    non-adaptive ``minimize(method="Nelder-Mead")``: the three vertices and
    their values are Python floats, f is called with a tuple of two floats,
    and the result matches scipy's bit for bit. The simplex steps 5% from x0
    in each coordinate (0.00025 from zero), reflects off the upper bound and
    is clipped into the box, as is every later vertex. The clip returns the
    bound on a tie, as ``np.clip`` does, so a -0.0 coordinate clipped to a
    0.0 bound comes back 0.0 and a 0.0 one clipped to -0.0 comes back -0.0.
    Reflection, expansion, contraction and shrink use 1, 2, 0.5 and 0.5.
    The simplex is reordered by a stable sort, as numpy's 3-element argsort
    is, and fun is the last of the tied lowest values, as ``np.min`` gives.
    An evaluation past maxfev ends the iteration it falls in; success is
    False when the evaluations ran out. f must not return NaN.
    """
    if np.shape(x0) != (2,):
        raise ValueError(f"the search takes a start of two values, got shape {np.shape(x0)}")

    class Spent(Exception):
        pass

    calls = 0

    def fun(x):
        nonlocal calls
        if calls >= maxfev:
            raise Spent
        calls += 1
        return f(x)

    lo0, lo1 = map(float, lo)
    hi0, hi1 = map(float, hi)

    def clip(a, b):
        a = a if a > lo0 else lo0
        b = b if b > lo1 else lo1
        return a if a < hi0 else hi0, b if b < hi1 else hi1

    def step(v, top):  # 5% off v (0.00025 off zero), reflected off the upper bound
        v = 1.05 * v if v != 0 else 0.00025
        return 2 * top - v if v > top else v

    a, b = clip(float(x0[0]), float(x0[1]))
    sim = [(a, b), clip(step(a, hi0), b), clip(a, step(b, hi1))]
    fs = [math.inf] * 3
    try:
        for k in range(3):
            fs[k] = fun(sim[k])
    except Spent:
        pass
    order = sorted(range(3), key=fs.__getitem__)
    sim, fs = [sim[k] for k in order], [fs[k] for k in order]
    while calls < maxfev:
        (a0, b0), (a1, b1), (a2, b2) = sim
        try:
            if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol
                    and abs(a2 - a0) <= xatol and abs(b2 - b0) <= xatol
                    and abs(fs[0] - fs[1]) <= fatol and abs(fs[0] - fs[2]) <= fatol):
                break
            am, bm = (a0 + a1) / 2, (b0 + b1) / 2
            xr = clip(2 * am - a2, 2 * bm - b2)
            fxr = fun(xr)
            if fxr < fs[0]:
                xe = clip(3 * am - 2 * a2, 3 * bm - 2 * b2)
                fxe = fun(xe)
                sim[2], fs[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fs[1]:
                sim[2], fs[2] = xr, fxr
            else:
                if fxr < fs[2]:  # outside contraction
                    xc = clip(1.5 * am - 0.5 * a2, 1.5 * bm - 0.5 * b2)
                    fxc = fun(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = clip(0.5 * am + 0.5 * a2, 0.5 * bm + 0.5 * b2)
                    fxc = fun(xc)
                    accept = fxc < fs[2]
                if accept:
                    sim[2], fs[2] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in (1, 2):
                        aj, bj = sim[j]
                        sim[j] = clip(a0 + 0.5 * (aj - a0), b0 + 0.5 * (bj - b0))
                        fs[j] = fun(sim[j])
        except Spent:
            pass
        order = sorted(range(3), key=fs.__getitem__)
        sim, fs = [sim[k] for k in order], [fs[k] for k in order]
    low = fs[0]
    for v in fs[1:]:  # np.min's reduction: the last of tied values
        low = low if low < v else v
    return np.array(sim[0]), low, calls < maxfev


def fit_truncated_powerlaw(samples: Sequence[float] | np.ndarray,
                           x_min: float | None = None) -> FitResult:
    """Fit density ~ x^-alpha exp(-rate x) on [x_min, inf) by bounded search.

    Derivative-free (Nelder-Mead, `_nelder_mead`) over alpha in [0, 20] and
    log rate, from a few starts seeded by the nested pure power-law and
    exponential fits. A result that exhausts the evaluation budget without
    converging comes back with converged=False so callers can exclude it from
    comparisons.
    """
    x, x_min = _validate_tail(samples, x_min)
    if x.max() == x_min:
        raise FitError("all samples equal x_min: truncated power-law fit is degenerate")
    n = x.size
    slog = float(np.log(x).sum())
    ssum, scale = _sum_and_mean(x)
    log_rate_lo = math.log(1e-12 / scale)
    # no higher than exp takes: 1e3 / scale passes it where scale is subnormal
    log_rate_hi = min(math.log(1e3 / scale), math.log(sys.float_info.max))
    if not log_rate_lo < log_rate_hi:
        raise FitError(f"the lowest rate 1e-12 / {scale!r} is outside the float range")

    def neg_ll(p: Sequence[float]) -> float:
        alpha, log_rate = p
        rate = math.exp(log_rate)
        log_z = _tpl_log_norm(alpha, rate, x_min)
        if not math.isfinite(log_z):
            return math.inf
        # rate * ssum, as n * (rate * scale) where ssum is past the float range
        return (alpha * slog + (rate * ssum if ssum < math.inf else n * (rate * scale))
                + n * log_z)

    log_ratio = slog - n * math.log(x_min)
    alpha_pl = 1.0 + n / log_ratio if log_ratio > 0 else 1.0
    rate_exp = 1.0 / max(scale - x_min, 1e-12 * scale, 5e-324)  # inf if the mean is x_min
    # first two starts sit on the nested optima (pure power law, shifted
    # exponential), so the search result always dominates both nested fits
    starts = [
        (min(alpha_pl, TPL_ALPHA_MAX), log_rate_lo),
        (0.0, min(max(math.log(rate_exp), log_rate_lo), log_rate_hi)),
        (min(alpha_pl / 2.0, TPL_ALPHA_MAX), math.log(1.0 / scale)),
    ]
    lo = np.array([0.0, log_rate_lo])
    hi = np.array([TPL_ALPHA_MAX, log_rate_hi])
    budget = TPL_MAX_EVALS // len(starts)
    results = [_nelder_mead(neg_ll, start, lo, hi, budget, TPL_TOL, 1e-10)
               for start in starts]
    best, fun, _ = min(results, key=lambda r: r[1])
    return _result(TRUNCATED_POWERLAW,
                   {"alpha": float(best[0]), "rate": math.exp(float(best[1])),
                    "x_min": x_min},
                   -float(fun), k=2, n=n, converged=any(r[2] for r in results))


def fit_all(samples: Sequence[float] | np.ndarray, x_min: float | None = None
            ) -> tuple[list[FitResult], dict[str, FitError]]:
    """The fits that run on the samples (tail models share x_min) and the FitError
    of each left out, by model; bad samples or x_min, or under two fits, raise."""
    x, x_min = _validate_tail(samples, x_min)
    fits, failed = [], {}
    for model, fit, *args in ((EXPONENTIAL, fit_exponential), (LOGNORMAL, fit_lognormal),
                              (POWERLAW, fit_powerlaw, x_min),
                              (TRUNCATED_POWERLAW, fit_truncated_powerlaw, x_min)):
        try:
            fits.append(fit(x, *args))
        except FitError as exc:
            failed[model] = exc
    if len(fits) < 2:
        raise next(iter(failed.values()))
    return fits, failed


def compare_models(fits: Sequence[FitResult]) -> ModelComparison:
    """Akaike deltas and weights; best = max weight, ties to fewer parameters."""
    usable = tuple(f for f in fits if f.converged)
    if len(usable) < 2:
        raise FitError(f"need at least 2 converged fits to compare, got {len(usable)}")
    aics = np.asarray([f.aic for f in usable])
    deltas = aics - aics.min()
    raw = np.exp(-deltas / 2.0)
    weights = raw / raw.sum()
    order = sorted(range(len(usable)),
                   key=lambda i: (-weights[i], usable[i].k, usable[i].model))
    return ModelComparison(fits=usable,
                           deltas=tuple(float(d) for d in deltas),
                           weights=tuple(float(w) for w in weights),
                           best=usable[order[0]])


def fit_sample_set(samples: Sequence[float] | np.ndarray, x_min: float | None = None
                   ) -> tuple[ModelComparison, dict[str, Callable[[IO[str]], None]]]:
    """Fit and compare the positive samples, dropping the rest; returns the
    comparison and the writers of its ``"fits"`` file (the table, a ``#`` note per
    fit that raised FitError or did not converge, one counting the dropped
    non-positive samples and, when there are any, one counting the dropped NaN
    samples) and its ``"ccdf"`` file."""
    x = np.asarray(samples, dtype=float)
    positive = x[x > 0]
    nan = int(np.isnan(x).sum())
    non_positive = len(x) - len(positive) - nan
    fits, failed = fit_all(positive, x_min)
    cmp = compare_models(fits)
    excluded = [f"{model} could not be fitted: {exc}" for model, exc in failed.items()]
    excluded += [f"{f.model} did not converge" for f in fits if not f.converged]

    def write_fits(fh: IO[str]) -> None:
        write_comparison(cmp, fh)
        fh.writelines(f"# excluded: {why}\n" for why in excluded)
        if non_positive:
            fh.write(f"# dropped {non_positive} non-positive sample(s)\n")
        if nan:
            fh.write(f"# dropped {nan} NaN sample(s)\n")

    return cmp, {"fits": write_fits,
                 "ccdf": lambda fh: write_ccdf(empirical_ccdf(positive), fh)}


def pearson(x: Sequence[float] | np.ndarray,
            y: Sequence[float] | np.ndarray) -> CorrelationResult:
    """Sample Pearson correlation; errors on constant input where r is undefined."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equally long")
    if xa.size < 2:
        raise ValueError("need at least 2 pairs")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float((dx ** 2).sum())
    sy = float((dy ** 2).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    r = float((dx * dy).sum()) / math.sqrt(sx * sy)
    return CorrelationResult(r=max(-1.0, min(1.0, r)), n=int(xa.size))


def empirical_ccdf(samples: Sequence[float] | np.ndarray,
                   n_bins: int = 50) -> list[tuple[float, float]]:
    """Complementary CDF P(X >= x) sampled at geometric bin edges (plot data)."""
    x = _validate_positive(samples)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return [(lo, 1.0)]
    with np.errstate(over="ignore"):  # an edge next to the float max may round past it
        edges = np.geomspace(lo, hi, n_bins)
    edges[edges == np.inf] = hi
    xs = np.sort(x)
    idx = np.searchsorted(xs, edges, side="left")
    return [(float(e), float((x.size - i) / x.size)) for e, i in zip(edges, idx)]


def _format_params(fit: FitResult) -> str:
    return ",".join(f"{k}={repr(v)}" for k, v in sorted(fit.params.items()))


def write_comparison(cmp: ModelComparison, fh: IO[str]) -> None:
    """Machine-readable table: model;params;logL;aic;delta;weight."""
    for fit, delta, weight in zip(cmp.fits, cmp.deltas, cmp.weights):
        fh.write(f"{fit.model};{_format_params(fit)};{repr(fit.log_likelihood)};"
                 f"{repr(fit.aic)};{repr(delta)};{repr(weight)}\n")


def comparison_table(cmp: ModelComparison) -> str:
    """Human-readable comparison, best model first."""
    rows = sorted(zip(cmp.fits, cmp.deltas, cmp.weights), key=lambda t: t[1])
    lines = [f"{'model':<20} {'logL':>14} {'AIC':>14} {'dAIC':>10} {'weight':>8}  params"]
    for fit, delta, weight in rows:
        params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(fit.params.items()))
        lines.append(f"{fit.model:<20} {fit.log_likelihood:>14.4f} {fit.aic:>14.4f} "
                     f"{delta:>10.4f} {weight:>8.4f}  {params}")
    return "\n".join(lines)


def write_ccdf(points: Sequence[tuple[float, float]], fh: IO[str]) -> None:
    for xv, cv in points:
        fh.write(f"{repr(float(xv))};{repr(float(cv))}\n")
