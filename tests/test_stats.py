import math
import os
import subprocess
import sys
from dataclasses import dataclass
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy import stats as sps
from scipy.optimize import minimize

import cityregions
from cityregions import stats
from cityregions.stats import (EXPONENTIAL, LOGNORMAL, POWERLAW,
                               TRUNCATED_POWERLAW, FitError, FitResult, _gamma_cf,
                               _log_upper_gamma, _nelder_mead, _tpl_log_norm,
                               compare_models, empirical_ccdf, fit_all,
                               fit_exponential, fit_lognormal, fit_powerlaw,
                               fit_truncated_powerlaw, pearson)
from cityregions.synth import correlated_grid

from .oracles import reference_gamma_cf, reference_series_steps
from .test_acceptance import GENERATORS, tpl_draws
from .test_fit_pins import FAMILIES as PIN_FAMILIES, draw as pin_draw


def manual_fit(model, params, ll, k, n=10):
    return FitResult(model=model, params=params, log_likelihood=ll, k=k,
                     aic=-2 * ll + 2 * k, n=n)


class TestExponential:
    def test_constant_samples(self):
        fit = fit_exponential([2.0] * 10)
        assert fit.params["rate"] == pytest.approx(0.5)
        assert fit.k == 1
        assert fit.aic == pytest.approx(-2 * fit.log_likelihood + 2)

    def test_synthetic_recovery_near_paper_trip_mean(self):
        rng = np.random.default_rng(101)
        x = rng.exponential(5500.0, 10000)
        fit = fit_exponential(x)
        assert fit.params["rate"] == pytest.approx(1 / 5500, rel=0.03)

    def test_single_sample_rejected(self):
        with pytest.raises(FitError, match="at least 2"):
            fit_exponential([1.0])

    def test_non_positive_sample_named(self):
        with pytest.raises(FitError, match="sample 2"):
            fit_exponential([1.0, 2.0, -3.0, 4.0])


class TestLognormal:
    def test_degenerate_equal_samples(self):
        with pytest.raises(FitError, match="degenerate"):
            fit_lognormal([math.e] * 4)

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(102)
        x = rng.lognormal(1.0, 0.5, 10000)
        fit = fit_lognormal(x)
        assert fit.params["mu"] == pytest.approx(1.0, abs=0.02)
        assert fit.params["sigma"] == pytest.approx(0.5, abs=0.02)

    def test_mu_is_mean_of_logs(self):
        rng = np.random.default_rng(103)
        x = np.exp(rng.exponential(1.0, 500))
        fit = fit_lognormal(x)
        assert fit.params["mu"] == pytest.approx(float(np.log(x).mean()))


class TestPowerlaw:
    def test_closed_form_alpha_two(self):
        x_min = 2.0
        fit = fit_powerlaw([x_min * math.e] * 50, x_min)
        assert fit.params["alpha"] == pytest.approx(2.0, abs=1e-12)

    def test_pareto_recovery(self):
        rng = np.random.default_rng(104)
        u = rng.random(10000)
        x = 1.0 * (1 - u) ** (-1.0 / 1.5)  # Pareto alpha = 2.5
        fit = fit_powerlaw(x, 1.0)
        assert fit.params["alpha"] == pytest.approx(2.5, abs=0.05)

    def test_sample_below_x_min_named(self):
        with pytest.raises(FitError, match="below x_min"):
            fit_powerlaw([1.0, 0.5, 2.0], 0.9)

    def test_default_x_min_is_sample_min(self):
        fit = fit_powerlaw([3.0, 4.0, 5.0])
        assert fit.params["x_min"] == 3.0

    def test_a_subnormal_x_min_keeps_the_likelihood_finite(self):
        """(alpha - 1) / x_min overflows when x_min is subnormal; its log is a difference."""
        fit = fit_powerlaw([5e-324, 1e308, 2.0])
        alpha = fit.params["alpha"]
        log_ratio = math.log(1e308) + math.log(2.0) - 2 * math.log(5e-324)
        ll = 3 * (math.log(alpha - 1.0) - math.log(5e-324)) - alpha * log_ratio
        assert fit.log_likelihood == pytest.approx(ll, rel=1e-12)

    def test_finite_ratios_keep_their_bits(self):
        """Where nothing overflows, alpha and logL are the closed form's floats."""
        x = np.random.default_rng(26).lognormal(0.0, 3.0, 1000) + 1.0
        log_ratio = float(np.log(x / 0.5).sum())
        alpha = 1.0 + x.size / log_ratio
        ll = x.size * math.log((alpha - 1.0) / 0.5) - alpha * log_ratio
        fit = fit_powerlaw(x, 0.5)
        assert (fit.params["alpha"].hex(), fit.log_likelihood.hex()) == (alpha.hex(), ll.hex())


def pareto_samples(rng, alpha, x_min, n):
    u = rng.random(n)
    return x_min * (1 - u) ** (-1.0 / (alpha - 1.0))


def tpl_samples(rng, alpha, rate, x_min, n):
    """Rejection sampling: Pareto proposal thinned by the exponential factor."""
    out = []
    while len(out) < n:
        x = pareto_samples(rng, alpha, x_min, 4 * n)
        keep = rng.random(4 * n) < np.exp(-rate * (x - x_min))
        out.extend(x[keep].tolist())
    return np.asarray(out[:n])


class TestTruncatedPowerlaw:
    def test_pure_pareto_limit(self):
        # sample whose ML truncation rate sits at the boundary: the search
        # must degenerate cleanly to the pure power law
        rng = np.random.default_rng(0)
        x = pareto_samples(rng, 2.5, 1.0, 10000)
        tpl = fit_truncated_powerlaw(x, 1.0)
        pl = fit_powerlaw(x, 1.0)
        assert tpl.params["rate"] < 1e-4
        assert tpl.params["alpha"] == pytest.approx(pl.params["alpha"], abs=0.1)

    def test_never_falls_below_nested_fits(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = pareto_samples(rng, 2.5, 1.0, 4000)
            tpl = fit_truncated_powerlaw(x, 1.0)
            assert tpl.log_likelihood >= fit_powerlaw(x, 1.0).log_likelihood - 1e-6
            assert tpl.log_likelihood >= fit_exponential(x).log_likelihood - 1e-6
            assert tpl.params["alpha"] == pytest.approx(
                fit_powerlaw(x, 1.0).params["alpha"], abs=0.1)

    def test_shifted_exponential_limit(self):
        rng = np.random.default_rng(106)
        x = 1.0 + rng.exponential(5.0, 10000)
        tpl = fit_truncated_powerlaw(x, 1.0)
        assert tpl.params["alpha"] < 0.1

    def test_dominates_nested_fits(self):
        rng = np.random.default_rng(107)
        x = tpl_samples(rng, 1.5, 0.1, 1.0, 5000)
        tpl = fit_truncated_powerlaw(x, 1.0)
        pl = fit_powerlaw(x, 1.0)
        ex = fit_exponential(x)
        assert tpl.log_likelihood >= pl.log_likelihood - 1e-6
        assert tpl.log_likelihood >= ex.log_likelihood - 1e-6

    def test_parameter_recovery(self):
        rng = np.random.default_rng(108)
        x = tpl_samples(rng, 1.5, 0.1, 1.0, 10000)
        tpl = fit_truncated_powerlaw(x, 1.0)
        assert tpl.converged
        assert tpl.params["alpha"] == pytest.approx(1.5, abs=0.15)
        assert tpl.params["rate"] == pytest.approx(0.1, rel=0.25)


def scipy_nelder_mead(f, x0, lo, hi, maxfev, fatol, xatol):
    """The reference: scipy's bounded Nelder-Mead, as the fit once called it."""
    res = minimize(f, np.asarray(x0, dtype=float), method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"maxfev": maxfev, "fatol": fatol, "xatol": xatol})
    return res.x, res.fun, res.success


def bits(result):
    x, fun, success = result
    return np.asarray(x, dtype=float).tobytes(), np.float64(fun).tobytes(), bool(success)


def assert_same_bits(f, x0, lo, hi, maxfev, fatol, xatol):
    with np.errstate(invalid="ignore"):  # inf - inf in the convergence test
        got = _nelder_mead(f, x0, np.asarray(lo), np.asarray(hi), maxfev, fatol, xatol)
        ref = scipy_nelder_mead(f, x0, lo, hi, maxfev, fatol, xatol)
    assert bits(got) == bits(ref)


@st.composite
def boxes(draw):
    """Per-coordinate bounds lo < hi and a start on either bound, at zero or inside."""
    lo, hi, x0 = [], [], []
    for _ in range(2):
        a = draw(st.floats(-10.0, 10.0))
        b = a + draw(st.floats(1e-3, 20.0))
        where = draw(st.sampled_from(["lo", "hi", "zero", "inside"]))
        if where == "zero":
            a, b = min(a, 0.0), max(b, 0.0)
        start = {"lo": a, "hi": b, "zero": 0.0}.get(where)
        lo.append(a)
        hi.append(b)
        x0.append(draw(st.floats(a, b)) if start is None else start)
    return tuple(x0), tuple(lo), tuple(hi)


@st.composite
def objectives(draw):
    """A random quadratic bowl, maybe rippled (many shrinks), cut into plateaus
    (ties in fsim; the widest step makes it constant) and inf beyond a line
    (everywhere for -inf)."""
    c0, c1 = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))
    a, b = draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0))
    r = draw(st.floats(-1.0, 1.0)) * math.sqrt(a * b)
    ripple = draw(st.sampled_from([0.0, 0.0, 50.0]))
    step = draw(st.sampled_from([0.0, 0.5, 4.0, 1e9]))
    wall = draw(st.one_of(st.none(), st.just(-math.inf), st.floats(-12.0, 12.0)))

    def f(x):
        x0, x1 = float(x[0]), float(x[1])
        if wall is not None and x0 + x1 > wall:
            return math.inf
        d0, d1 = x0 - c0, x1 - c1
        v = a * d0 * d0 + b * d1 * d1 + r * d0 * d1 + ripple * math.sin(40.0 * x0 * x1)
        return math.floor(v / step) * step if step else v

    return f


@dataclass(frozen=True)
class FixedDraws:
    """Stands in for ``st.data()`` in an explicit example: every draw is value."""
    value: object

    def draw(self, strategy):
        return self.value


BUDGETS = st.one_of(st.integers(1, 3), st.integers(4, 400))
TOLERANCES = st.sampled_from([(1e-8, 1e-10), (1e-4, 1e-4), (0.0, 0.0)])


class TestNelderMead:
    """`_nelder_mead` returns scipy.optimize.minimize's x, fun and success bit
    for bit, so dropping scipy left every fit unchanged."""

    @settings(max_examples=400, deadline=None)
    @given(f=objectives(), box=boxes(), maxfev=BUDGETS, tols=TOLERANCES)
    def test_random_bounded_objectives(self, f, box, maxfev, tols):
        x0, lo, hi = box
        assert_same_bits(f, x0, lo, hi, maxfev, *tols)

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.inf]),
                                     st.floats(-10.0, 10.0)), min_size=1, max_size=40),
           box=boxes(), data=st.data())
    # starts and bounds at signed zeros: with maxfev=3 only the first simplex
    # is evaluated and x is the clipped start, so these fail a clip that breaks
    # a tie other than as np.clip does, which returns the bound
    @example(values=[0.0, 1.0, 1.0], box=((-0.0, 1.0), (0.0, 0.0), (1.0, 2.0)),
             data=FixedDraws(3))
    @example(values=[0.0, 1.0, 1.0], box=((0.0, 1.0), (-0.0, 0.0), (1.0, 2.0)),
             data=FixedDraws(3))
    @example(values=[0.0, 1.0, 1.0], box=((0.0, 1.0), (-1.0, 0.0), (-0.0, 2.0)),
             data=FixedDraws(3))
    # lowest values tied at signed zeros: fun is the last of them, as np.min gives
    @example(values=[-0.0, 0.0, 1.0], box=((0.0, 1.0), (-1.0, -1.0), (1.0, 2.0)),
             data=FixedDraws(3))
    def test_scripted_values(self, values, box, data):
        # f returns the drawn values in call order, whatever x is: every
        # branch, tie and point at which the budget runs out is reachable
        maxfev = data.draw(st.integers(1, len(values)))
        x0, lo, hi = box
        with np.errstate(invalid="ignore"):
            got = _nelder_mead(lambda x, it=iter(values): next(it),
                               x0, np.asarray(lo), np.asarray(hi), maxfev, 0.0, 0.0)
            ref = scipy_nelder_mead(lambda x, it=iter(values): next(it),
                                    x0, lo, hi, maxfev, 0.0, 0.0)
        assert bits(got) == bits(ref)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(1.1, 3.0), rate=st.floats(1e-3, 1.0),
           n=st.integers(20, 400), seed=st.integers(0, 2 ** 32 - 1), maxfev=BUDGETS)
    def test_tpl_negative_log_likelihoods(self, alpha, rate, n, seed, maxfev):
        # each search the fit makes, at its own budget and at a drawn one
        searches = []

        def spy(*args):
            searches.append(args)
            return _nelder_mead(*args)

        x = tpl_samples(np.random.default_rng(seed), alpha, rate, 1.0, n)
        with mock.patch("cityregions.stats._nelder_mead", spy):
            fit_truncated_powerlaw(x, 1.0)
        assert len(searches) == 3
        for f, x0, lo, hi, budget, fatol, xatol in searches:
            for m in (budget, maxfev):
                assert_same_bits(f, x0, lo, hi, m, fatol, xatol)

    @pytest.mark.parametrize("x0", [(1.0,), (1.0, 2.0, 3.0), ((1.0, 2.0),), 1.0])
    def test_start_of_other_than_two_values_rejected(self, x0):
        with pytest.raises(ValueError, match="two values"):
            _nelder_mead(lambda x: 0.0, x0, (0.0, 0.0), (3.0, 3.0), 10, 0.0, 0.0)


def mp_log_upper_gamma(s, z):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.gammainc(mpmath.mpf(s), mpmath.mpf(z))))


def near(got, ref, tol=1e-13):
    """|got - ref| <= tol * max(|ref|, 1): relative to log Gamma, except where
    log Gamma is within 1 of 0, where it is relative to Gamma itself. log Gamma
    crosses 0 inside the grid (alpha = 0, z = 1e-25 gives -1e-25), and there no
    float64 value of Gamma, which is 1 to within rounding, fixes its log to any
    relative precision. The kernel measures below 1e-15 on this scale; 1e-13
    keeps a hundredfold margin and still fails a continued fraction or series
    cut too short."""
    return abs(got - ref) <= tol * max(abs(ref), 1.0)


NEAR_INTEGER_ALPHAS = [c + d for c in (0.0, 1.0, 2.0, 19.0)
                       for d in (-1e-8, -1e-12, -1e-15, 1e-15, 1e-12, 1e-8)
                       if c + d >= 0.0]
GRID_ALPHAS = [0.0, 0.5, 1.0, 2.0, 19.5, 20.0] + NEAR_INTEGER_ALPHAS
# z = 1 is where the kernel switches method; at alpha near 20 and z below
# ~5e-17, Gamma itself (~z^-19 / 19) is past float64's range
GRID_ZS = ([10.0 ** e for e in range(-25, 4)]
           + [0.3, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.5])


class TestUpperGammaKernel:
    """The float64 normalizer against mpmath's arbitrary-precision gammainc."""

    @pytest.mark.parametrize("alpha", GRID_ALPHAS)
    def test_grid_against_mpmath(self, alpha):
        s = 1.0 - alpha
        bad = [(z, got, ref) for z in GRID_ZS
               for got, ref in [(_log_upper_gamma(s, z), mp_log_upper_gamma(s, z))]
               if not near(got, ref)]
        assert bad == []

    def test_underflowed_argument(self):
        assert _log_upper_gamma(0.5, 0.0) == pytest.approx(0.5 * math.log(math.pi))
        assert _log_upper_gamma(-0.5, 0.0) == math.inf
        # x_min = 1e-320 times the search's lowest rates underflows to 0
        with np.errstate(invalid="ignore"):
            fit = fit_truncated_powerlaw([1e-320, 1.0, 2.0])
        assert math.isfinite(fit.log_likelihood)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.0, 20.0), x_min=st.floats(1e-9, 1e3),
           spread=st.floats(1.0, 1e6), u=st.floats(0.0, 1.0))
    # failures while _tpl_log_norm summed two logs: the first against a
    # float64-summed reference, the second 1.7e-13 off the exact value
    @example(alpha=20.0, x_min=0.875, spread=1.0, u=0.0)
    @example(alpha=16.1458269046453, x_min=0.8667343372295626,
             spread=100260.37365596551, u=0.0)
    def test_log_norm_over_the_search_box(self, alpha, x_min, spread, u):
        # fit_truncated_powerlaw searches log rate over
        # [log(1e-12 / mean), log(1e3 / mean)], and mean >= x_min
        scale = x_min * spread
        lo, hi = math.log(1e-12 / scale), math.log(1e3 / scale)
        rate = math.exp(lo + u * (hi - lo))
        got = _tpl_log_norm(alpha, rate, x_min)
        assert math.isfinite(got) or got == math.inf  # never NaN
        # all in mpmath: a float64 sum of the two logs, ~500 in size at
        # alpha = 20 and rate * x_min = 1e-12, is itself ~1e-13 off a result
        # near 0
        with mpmath.workdps(40):
            rate_mp = mpmath.mpf(rate)
            ref = float((alpha - 1.0) * mpmath.log(rate_mp)
                        + mpmath.log(mpmath.gammainc(1.0 - alpha, rate_mp * x_min)))
        assert near(got, ref)


# One seeded n = 10^4 set per generating family, fitted on the mpmath
# normalizer before the float64 one replaced it: log-likelihoods by family
# in fit_all's order, and the best model. Every fit converged.
PINNED_FITS = {
    EXPONENTIAL: ((-96162.02820490736, -97194.47876299155,
                   -120463.02307318574, -96162.02819494429), EXPONENTIAL),
    LOGNORMAL: ((-21252.721232794414, -17275.36342239788,
                 -50791.75084517145, -21252.72122954877), LOGNORMAL),
    POWERLAW: ((-20642.2988636737, -16921.3036218409,
                -12834.408176757603, -12833.592582718735), POWERLAW),
    TRUNCATED_POWERLAW: ((-22466.50726337089, -20267.614920322114,
                          -18454.371169018053, -18070.41944150943),
                         TRUNCATED_POWERLAW),
}


class TestContinuedFraction:
    """The continued fraction with precomputed loop constants gives the
    recurrence's bits."""

    def test_dense_grid_is_the_recurrence(self):
        # the backward recurrence damps a rounding change in one step, so a
        # changed step shows in few values: check many
        grid = [(s, z) for s in np.linspace(-19.0, 1.0, 2_001).tolist()
                for z in np.geomspace(1.0, 1e3, 10).tolist()]
        assert ([_gamma_cf(s, z).hex() for s, z in grid]
                == [reference_gamma_cf(s, z).hex() for s, z in grid])

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(-19.0, 1.0), z=st.floats(1.0, 1e6))
    @example(s=1.0, z=1.0)
    def test_unmemoised_value_is_the_recurrence(self, s, z):
        assert _gamma_cf(s, z).hex() == reference_gamma_cf(s, z).hex()


def test_series_steps_are_the_loops_divisions():
    """The z < 1 series' precomputed (coefficient, k) are the ones its loop
    divided on every call, bit for bit."""
    assert ([(coef.hex(), k) for coef, k in stats._SERIES_STEPS]
            == [(coef.hex(), float(k))
                for coef, k in reference_series_steps(stats._SERIES_TERMS)])


def _relative_error_at_1(s0: float) -> float:
    """|_gamma_at_1(s0) - e Gamma(s0, 1)| / (e Gamma(s0, 1)), the reference
    from mpmath at 40 digits."""
    with mpmath.workdps(40):
        want = mpmath.e * mpmath.gammainc(s0, 1)
        return float(abs((stats._gamma_at_1(s0) - want) / want))


class TestChebyshevAtOne:
    """The z < 1 branch's e Gamma(s0, 1), a Chebyshev series on
    -1/2 <= s0 <= 1, is as accurate as the continued fraction it replaced."""

    def test_dense_grid_matches_mpmath(self):
        grid = np.linspace(-0.5, 1.0, 3_001).tolist() + [-0.5, 0.0, 0.5, 1.0]
        assert max(map(_relative_error_at_1, grid)) <= 4e-16

    @settings(max_examples=300, deadline=None)
    @given(s0=st.floats(-0.5, 1.0))
    def test_drawn_value_matches_mpmath(self, s0):
        assert _relative_error_at_1(s0) <= 4e-16

    def test_alpha_clipped_to_zero_is_exact(self):
        # the exponential and lognormal sets fit alpha = 0, so s0 = 1
        assert stats._gamma_at_1(1.0) == 1.0

    @pytest.mark.parametrize("s0", [math.nextafter(-0.5, -1.0), math.nextafter(1.0, 2.0),
                                    -19.0, math.nan])
    def test_outside_the_interval_raises(self, s0):
        with pytest.raises(ValueError, match="-1/2 <= s <= 1"):
            stats._gamma_at_1(s0)

    def test_coefficients_follow_the_docstring_recipe(self):
        n, kept = 32, len(stats._G1_CHEB)
        with mpmath.workdps(40):
            theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
            g = [mpmath.e * mpmath.gammainc((3 * mpmath.cos(th) + 1) / 4, 1) for th in theta]
            c = [2 * mpmath.fsum(v * mpmath.cos(k * th) for v, th in zip(g, theta)) / n
                 for k in range(kept + 1)]
            c[0] /= 2
        assert [float(ck).hex() for ck in c[:kept]] == [ck.hex() for ck in stats._G1_CHEB]
        assert abs(c[kept]) < 1e-17 <= abs(c[kept - 1])  # the first dropped one


class TestFitAgreesWithTheContinuedFraction:
    """A fit with the Chebyshev value at z = 1 and one with the continued
    fraction there pick the same model and converge alike; their truncated
    power-law log-likelihoods agree to 1e-12."""

    @staticmethod
    def _sets():
        for idx, family in enumerate(PIN_FAMILIES):
            yield pin_draw(family, np.random.default_rng([1, idx]), 10_000), PIN_FAMILIES[family]
        for idx, (gen, x_min) in enumerate(GENERATORS.values()):
            for trial in range(20):
                rng = np.random.default_rng([idx, trial])
                yield (gen(rng) if gen is not None else tpl_draws(rng)), x_min

    def test_same_best_model_and_likelihood(self):
        for x, x_min in self._sets():
            fits, failed = fit_all(x, x_min)
            with mock.patch.object(stats, "_gamma_at_1",
                                   lambda s: reference_gamma_cf(s, 1.0)):
                old_fits, old_failed = fit_all(x, x_min)
            assert failed == old_failed == {}
            assert compare_models(fits).best.model == compare_models(old_fits).best.model
            assert [f.converged for f in fits] == [f.converged for f in old_fits]
            tpl, old_tpl = (next(f for f in fs if f.model == TRUNCATED_POWERLAW)
                            for fs in (fits, old_fits))
            assert tpl.log_likelihood == pytest.approx(old_tpl.log_likelihood, rel=1e-12)


class TestFitRegression:
    @pytest.mark.parametrize("idx,family", list(enumerate(GENERATORS)))
    def test_pinned_fits(self, idx, family):
        gen, x_min = GENERATORS[family]
        rng = np.random.default_rng([2009, idx])
        x = gen(rng) if gen is not None else tpl_draws(rng)
        fits, failed = fit_all(x, x_min)
        lls, best = PINNED_FITS[family]
        assert [f.model for f in fits] == [EXPONENTIAL, LOGNORMAL, POWERLAW,
                                           TRUNCATED_POWERLAW]
        assert [f.log_likelihood for f in fits] == pytest.approx(lls, rel=1e-9)
        assert [f.converged for f in fits] == [True] * 4
        assert failed == {}
        assert compare_models(fits).best.model == best


def _loaded_after(module: str, argvs=()) -> str:
    """Whether a fresh process that imports cityregions and its CLI, then runs
    cli.main on each of argvs, has module loaded, as "True" or "False"."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cityregions.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cityregions, cityregions.cli\n"
         f"for argv in {argvs!r}:\n"
         "    assert cityregions.cli.main(argv) == 0\n"
         f"print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("module, loaded", [
    ("cityregions.stats", "True"),
    ("cityregions.columns", "True"),
    *((f"cityregions.{name}", "False") for name in ("pipeline", "ingest", "fixtures",
                                                    "trajectory", "regions", "functions", "dtn")),
])
def test_fit_loads_stats_alone(module, loaded, tmp_path):
    """`cityregions fit` loads stats and the artifact reader, columns, and no
    stage module but stats."""
    samples = tmp_path / "samples.txt"
    samples.write_text("1.5\n2.5\n4.0\n")
    assert _loaded_after(module, [["fit", str(samples)]]) == loaded


def test_import_leaves_mpmath_out():
    assert _loaded_after("mpmath") == "False"


@pytest.mark.parametrize("command", ["fit", "all"])
def test_fitting_leaves_scipy_out(command, tmp_path):
    """`cityregions fit` and the fixture's `all` fit every candidate without scipy."""
    if command == "fit":
        samples = tmp_path / "samples.txt"
        values = np.random.default_rng(0).lognormal(1.0, 0.5, 500)
        samples.write_text("".join(f"{float(v)!r}\n" for v in values))
        argvs = [["fit", str(samples)]]
    else:
        demo = str(tmp_path / "demo")
        argvs = [["fixture", "--out", demo],
                 ["all", "--config", os.path.join(demo, "config.json"),
                  "--out", os.path.join(demo, "out")]]
    assert _loaded_after("scipy", argvs) == "False"


class TestLogLikelihoodCrossCheck:
    """Each fitted logL must match an independent density evaluation."""

    def test_against_scipy_densities(self):
        rng = np.random.default_rng(109)
        x = np.sort(rng.lognormal(2.0, 0.8, 2000))
        x_min = float(x.min())
        fits = {f.model: f for f in fit_all(x, x_min)[0]}

        rate = fits[EXPONENTIAL].params["rate"]
        ll = sps.expon(scale=1 / rate).logpdf(x).sum()
        assert fits[EXPONENTIAL].log_likelihood == pytest.approx(ll, rel=1e-8)

        p = fits[LOGNORMAL].params
        ll = sps.lognorm(s=p["sigma"], scale=math.exp(p["mu"])).logpdf(x).sum()
        assert fits[LOGNORMAL].log_likelihood == pytest.approx(ll, rel=1e-8)

        p = fits[POWERLAW].params
        ll = sps.pareto(b=p["alpha"] - 1, scale=x_min).logpdf(x).sum()
        assert fits[POWERLAW].log_likelihood == pytest.approx(ll, rel=1e-8)

        p = fits[TRUNCATED_POWERLAW].params
        z, _ = integrate.quad(lambda v: v ** -p["alpha"] * math.exp(-p["rate"] * v),
                              x_min, np.inf)
        ll = float((-p["alpha"] * np.log(x) - p["rate"] * x).sum()) - x.size * math.log(z)
        assert fits[TRUNCATED_POWERLAW].log_likelihood == pytest.approx(ll, rel=1e-8)


class TestCompareModels:
    def test_equal_aic_half_weights(self):
        fits = [manual_fit(EXPONENTIAL, {"rate": 1.0}, -100.0, 1),
                manual_fit(POWERLAW, {"alpha": 2.0}, -101.0, 1)]
        fits[1] = manual_fit(POWERLAW, {"alpha": 2.0}, -100.0, 1)
        cmp = compare_models(fits)
        assert cmp.weights == pytest.approx((0.5, 0.5))

    def test_delta_two_weights(self):
        fits = [manual_fit(EXPONENTIAL, {"rate": 1.0}, -100.0, 1),
                manual_fit(LOGNORMAL, {"mu": 0.0, "sigma": 1.0}, -100.0, 2)]
        cmp = compare_models(fits)
        assert cmp.deltas == pytest.approx((0.0, 2.0))
        assert cmp.weights[0] == pytest.approx(0.7311, abs=1e-4)
        assert cmp.weights[1] == pytest.approx(0.2689, abs=1e-4)

    def test_weights_sum_to_one(self):
        fits = [manual_fit(EXPONENTIAL, {}, -100.0, 1),
                manual_fit(LOGNORMAL, {}, -90.0, 2),
                manual_fit(POWERLAW, {}, -95.0, 1)]
        cmp = compare_models(fits)
        assert sum(cmp.weights) == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        base = [manual_fit(EXPONENTIAL, {}, -100.0, 1),
                manual_fit(LOGNORMAL, {}, -90.0, 2)]
        shifted = [manual_fit(f.model, {}, f.log_likelihood - 500.0, f.k)
                   for f in base]
        assert compare_models(base).weights == pytest.approx(
            compare_models(shifted).weights)

    def test_best_invariant_under_reordering(self):
        fits = [manual_fit(EXPONENTIAL, {}, -100.0, 1),
                manual_fit(LOGNORMAL, {}, -90.0, 2),
                manual_fit(POWERLAW, {}, -95.0, 1)]
        assert compare_models(fits).best.model == compare_models(fits[::-1]).best.model

    def test_tie_broken_toward_fewer_parameters(self):
        fits = [manual_fit(TRUNCATED_POWERLAW, {}, -99.0, 2),   # aic 202
                manual_fit(POWERLAW, {}, -100.0, 1)]            # aic 202
        assert compare_models(fits).best.model == POWERLAW

    def test_fewer_than_two_fits_rejected(self):
        with pytest.raises(FitError, match="at least 2"):
            compare_models([manual_fit(EXPONENTIAL, {}, -1.0, 1)])

    def test_non_converged_excluded(self):
        good = [manual_fit(EXPONENTIAL, {}, -100.0, 1),
                manual_fit(LOGNORMAL, {}, -90.0, 2)]
        bad = FitResult(model=TRUNCATED_POWERLAW, params={}, log_likelihood=0.0,
                        k=2, aic=4.0, n=10, converged=False)
        cmp = compare_models(good + [bad])
        assert len(cmp.fits) == 2
        assert all(f.model != TRUNCATED_POWERLAW for f in cmp.fits)

    def test_selects_generating_family_smoke(self):
        rng = np.random.default_rng(110)
        x = rng.lognormal(1.0, 0.5, 10000)
        cmp = compare_models(fit_all(x, float(x.min()))[0])
        assert cmp.best.model == LOGNORMAL


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 3 for v in x]
        assert pearson(x, y).r == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]).r == pytest.approx(-1.0, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_noisy_grid_strongly_correlated(self):
        intersections, visits = correlated_grid(seed=0, n_cells=100)
        res = pearson(intersections, visits)
        assert res.n == 100
        assert res.r > 0.9


class TestCcdf:
    def test_starts_at_one_and_decreases(self):
        rng = np.random.default_rng(111)
        pts = empirical_ccdf(rng.exponential(10.0, 1000), n_bins=30)
        assert pts[0][1] == pytest.approx(1.0)
        values = [c for _, c in pts]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert len(pts) == 30

    def test_constant_samples(self):
        assert empirical_ccdf([3.0, 3.0]) == [(3.0, 1.0)]

    @pytest.mark.parametrize("lo, hi", [(1.0, 1e4), (3e-7, 2.5), (1e-300, 1e300)])
    def test_edges_are_geomspace_within_an_ulp(self, lo, hi):
        # np.geomspace's formula on floats: its endpoints, and its inner edges
        # within the ulp numpy's SIMD log10 and power may differ by
        edges = [e for e, _ in empirical_ccdf(np.geomspace(lo, hi, 7))]
        want = np.geomspace(lo, hi, 50)
        assert edges[0] == lo and edges[-1] == hi
        assert all(abs(e - w) <= math.ulp(w) for e, w in zip(edges, want.tolist()))

    def test_an_edge_past_the_float_max_is_the_largest_sample(self):
        hi = sys.float_info.max
        lo = math.nextafter(hi, 0.0)  # log10 equal to hi's, whose power rounds past hi
        edges = [e for e, _ in empirical_ccdf([lo, hi])]
        assert edges == [lo] + [hi] * 49

    def test_needs_two_edges(self):
        with pytest.raises(ValueError, match="n_bins must be at least 2"):
            empirical_ccdf([1.0, 2.0], n_bins=1)
