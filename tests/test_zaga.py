from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from inflowcast import zaga
from inflowcast.zaga import (
    ZagaDistribution,
    digamma_trigamma,
    gamma_cdf,
    gamma_ppf,
    gammainc,
    gammaincinv,
    gammaln,
)

PARAM_GRID = [
    (mu, sigma, nu)
    for mu in (0.2, 0.7, 1.0, 2.5, 6.0)
    for sigma in (0.25, 0.5, 1.0, 1.8, 3.0)
    for nu in (0.0, 0.1, 0.3, 0.6, 0.9)
]


# a log-uniform grid over the shapes the EMOS line search reaches, and the edges
SPECIAL_GRID = np.concatenate(
    [np.logspace(-46, 36, 20001), [0.0, 5e-324, 1e-300, 1.4616321449683622, 1.0, 2.0, 1e300, np.inf, np.nan]]
)
RAISE_FP = {"over": "raise", "divide": "raise", "invalid": "raise"}


def assert_same_inf_nan(ours, reference):
    assert np.array_equal(np.isnan(ours), np.isnan(reference))
    infinite = np.isinf(reference)
    assert np.array_equal(np.isinf(ours), infinite)
    assert np.array_equal(ours[infinite], reference[infinite])


class TestSpecialFunctions:
    """The numpy log-gamma, digamma and trigamma against scipy's."""

    def test_gammaln(self):
        with np.errstate(**RAISE_FP):
            ours = gammaln(SPECIAL_GRID)
        reference = special.gammaln(SPECIAL_GRID)
        assert_same_inf_nan(ours, reference)
        ok = np.isfinite(reference)
        assert np.all(np.abs(ours[ok] - reference[ok]) <= 1e-13 * np.maximum(1.0, np.abs(reference[ok])))

    def test_digamma(self):
        with np.errstate(**RAISE_FP):
            ours = digamma_trigamma(SPECIAL_GRID)[0]
        reference = special.digamma(SPECIAL_GRID)
        assert_same_inf_nan(ours, reference)
        ok = np.isfinite(reference)
        ulp = np.finfo(float).eps
        assert np.all(np.abs(ours[ok] - reference[ok]) <= 4 * ulp * np.maximum(1.0, np.abs(reference[ok])))

    def test_trigamma(self):
        with np.errstate(**RAISE_FP):
            ours = digamma_trigamma(SPECIAL_GRID)[1]
        reference = special.polygamma(1, SPECIAL_GRID)
        assert_same_inf_nan(ours, reference)
        ok = np.isfinite(reference) & (reference > 0)
        assert np.all(np.abs(ours[ok] - reference[ok]) <= 1e-14 * reference[ok])
        assert ours[SPECIAL_GRID == np.inf] == 0.0

    def test_scalars_give_0d_results(self):
        assert np.ndim(gammaln(0.5)) == np.ndim(digamma_trigamma(1.0)[0]) == np.ndim(digamma_trigamma(2.0)[1]) == 0
        assert gammaln(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-15)


# shapes from 0.05 to 1e4, densely over the 4.1 to 250 that EMOS forecasts reach;
# x / a from 1e-3 to 1e2, densely near 1; levels from 1e-14 to 1 - 1e-14
SHAPES = np.concatenate([np.logspace(np.log10(0.05), 4, 61), np.linspace(4.1, 250, 101)])
RATIOS = np.concatenate([np.logspace(-3, 2, 81), np.linspace(0.5, 1.5, 101)])
LEVELS = np.concatenate([np.logspace(-14, -1, 40), np.linspace(0.05, 0.95, 19), 1.0 - np.logspace(-14, -1, 40)])


def gammaincc(a, x):
    """Q(a, x), which zaga computes directly where it is the smaller of P and Q."""
    return zaga._regularized(a, x)[1]


def smaller_tail(a, x):
    """min(P, Q) by scipy, and ours of the same tail."""
    ps, qs = special.gammainc(a, x), special.gammaincc(a, x)
    return np.minimum(ps, qs), np.where(ps <= qs, gammainc(a, x), gammaincc(a, x))


def tail_bound(a, x):
    """The relative bound on min(P, Q): 1e-13, or the rounding of the prefactor's exponent where that is larger."""
    return np.maximum(1e-13, 2.0 * np.finfo(float).eps * (np.abs(x - a) + a * np.abs(np.log(x / a))))


def temme_coefficients(rows: int, columns: int):
    """The Taylor coefficients in eta of Temme's C_0 .. C_{rows-1}, as exact rationals (DLMF 8.12).

    With mu = lambda - 1, eta^2 / 2 = mu - log(1 + mu); mu(eta) comes by
    Lagrange inversion, C_0 = 1 / mu - 1 / eta, and C_k = C'_{k-1} / eta +
    g_k / mu, with the constant g_k the one that cancels the pole at 0.
    """
    order = columns + 2 * rows + 2

    def reciprocal(c):
        r = [1 / c[0]] + [Fraction(0)] * (len(c) - 1)
        for n in range(1, len(c)):
            r[n] = -sum(c[k] * r[n - k] for k in range(1, n + 1)) / c[0]
        return r

    # eta = mu f(mu), f^2 = 2 sum_j (-1)^j mu^j / (j + 2)
    f2 = [Fraction(2 * (-1) ** j, j + 2) for j in range(order + 1)]
    f = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        f[n] = (f2[n] - sum(f[k] * f[n - k] for k in range(1, n))) / 2
    g, power, mu = reciprocal(f), [Fraction(1)] + [Fraction(0)] * order, [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):  # [eta^n] mu = [mu^(n-1)] g^n / n
        power = [sum(power[k] * g[j - k] for k in range(j + 1)) for j in range(order + 1)]
        mu[n] = power[n - 1] / n
    inverse = reciprocal(mu[1:])  # 1 / mu = inverse(eta) / eta
    c = inverse[1:]
    table = [c[:columns]]
    for _ in range(1, rows):
        pole = -c[1]
        c = [(j + 2) * c[j + 2] + pole * inverse[j + 1] for j in range(len(c) - 2)]
        table.append(c[:columns])
    return table


class TestIncompleteGamma:
    """P, Q and the inverse of P against scipy's, and against mpmath's at 50 digits where scipy loses digits.

    The bound is 1e-13 relative in the smaller m of P and Q, and 1e-12
    relative in the quantile.  Far in the tails the bound is 2 eps (|x - a| +
    a |log(x / a)|) instead, where that is larger: m is exp(-a phi) times a
    factor of moderate size, and the exponent a phi = x - a - a log(x / a)
    sums terms of those sizes, each known to its rounding, so no
    double-precision evaluation knows m better.  For a > 20 outside scipy's
    own asymptotic region (|x - a| < 0.3 a up to a = 200, 4.5 sqrt(a) above),
    scipy's prefactor loses up to 2e-11 (measured against mpmath); there ours
    is checked against mpmath.
    """

    grid = np.meshgrid(SHAPES, RATIOS, indexing="ij")

    def test_cdf_against_scipy(self):
        a, ratio = self.grid
        m, ours = smaller_tail(a, a * ratio)
        normal = m >= 1e-300  # relative error means nothing for subnormal values
        rel = np.where(normal, np.abs(ours - m) / np.where(normal, m, 1.0), 0.0)
        bound = tail_bound(a, a * ratio)
        scipy_asymptotic = np.abs(ratio - 1.0) < np.where(a < 200, 0.3, 4.5 / np.sqrt(a))
        checked = (a <= 20) | scipy_asymptotic
        assert np.all(rel[checked] <= bound[checked])
        assert np.all(rel[~checked] <= 3e-11)  # scipy's error, not ours: see the mpmath test
        assert np.all(ours[m == 0] < 1e-300) and np.all(m[ours == 0] < 1e-300)  # underflow alike

    @pytest.mark.parametrize("a", [30.0, 113.5, 526.0, 2000.0, 8845.5])
    def test_cdf_against_mpmath_where_scipy_loses(self, a):
        mpmath.mp.dps = 50
        for ratio in (0.03, 0.2, 0.5, 0.58, 0.75, 1.25, 1.42, 1.45, 3.0, 9.0):
            x = a * ratio
            exact = float(min(mpmath.gammainc(a, 0, x, regularized=True), mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
            if exact < 1e-300:
                continue
            ours = gammainc(a, x) if ratio < 1 else gammaincc(a, x)
            assert abs(ours - exact) <= tail_bound(a, x) * exact, (a, ratio)

    def test_p_and_q_are_complements(self):
        a, ratio = self.grid
        assert np.array_equal(gammainc(a, a * ratio) + gammaincc(a, a * ratio), np.ones_like(a))

    def test_quantile_against_scipy(self):
        a, p = np.meshgrid(SHAPES, LEVELS, indexing="ij")
        x = gammaincinv(a, p)
        assert np.all(np.abs(x - special.gammaincinv(a, p)) <= 1e-12 * x)
        # and it inverts our own P: the smaller tail at x is the level's, to the CDF's bound
        m = np.minimum(p, 1.0 - p)
        back = np.where(p <= 0.5, gammainc(a, x), gammaincc(a, x))
        assert np.all(np.abs(back - m) <= 2e-13 * m)

    def test_edges(self):
        a = np.array([0.05, 1.0, 4.1, 250.0, 1e4])
        assert np.all(gammainc(a, 0.0) == 0.0) and np.all(gammaincc(a, 0.0) == 1.0)
        assert np.all(gammainc(a, np.inf) == 1.0) and np.all(gammaincc(a, np.inf) == 0.0)
        assert np.all(gammaincinv(a, 0.0) == 0.0) and np.all(gammaincinv(a, 1.0) == np.inf)
        for bad in ((0.0, 1.0), (-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0), (1.0, -1e-300), (1.0, np.nan)):
            assert np.isnan(gammainc(*bad)) and np.isnan(gammaincc(*bad))
        for bad in ((0.0, 0.5), (1.0, -0.1), (1.0, 1.5), (1.0, np.nan)):
            assert np.isnan(gammaincinv(*bad))
        # levels at the ends of the doubles: an x that underflows is 0
        for level in (1e-300, 1.0 - 2.0**-53):
            assert_allclose(gammaincinv(a, level), special.gammaincinv(a, level), rtol=1e-12, atol=0.0)
        x = gammaincinv(a, 5e-324)  # a subnormal level has no relative accuracy to meet
        assert np.all(np.isfinite(x)) and np.all(gammainc(a, x) <= 1e-322)
        assert isinstance(gammainc(2.0, 1.0), float) and np.shape(gammaincinv([[1.0]], [0.5, 0.6])) == (1, 2)

    def test_no_floating_point_warning_escapes(self):
        a, ratio = self.grid
        with np.errstate(all="raise"):
            assert np.all(np.isfinite(gammainc(a, a * ratio)))
            assert np.all(np.isfinite(gammaincinv(*np.meshgrid(SHAPES, LEVELS))))

    def test_temme_coefficients_are_the_exact_rationals_rounded(self):
        exact = temme_coefficients(len(zaga._TEMME), len(zaga._TEMME[0]))
        for row, exact_row in zip(zaga._TEMME, exact):
            assert list(row) == [float(c) for c in exact_row[: len(row)]]

    def test_temme_terms_left_out_are_below_the_rounding(self):
        # every coefficient left out, weighted at a = 20 and |eta| = 0.48, the corner of the region
        rows, columns = len(zaga._TEMME) + 3, len(zaga._TEMME[0]) + 6
        exact = temme_coefficients(rows, columns)
        left_out = sum(
            abs(float(c)) * 0.48**n * 20.0**-k
            for k, row in enumerate(exact)
            for n, c in enumerate(row)
            if k >= len(zaga._TEMME) or n >= len(zaga._TEMME[k])
        )
        assert left_out < 1e-16

    @given(
        cases=st.lists(
            st.tuples(
                st.floats(0.01, 4.5),  # sigma: shapes 0.05 to 1e4
                st.floats(0.05, 20.0),  # mu
                st.one_of(st.just(0.0), st.floats(0.0, 100.0)),  # x over mu
                st.one_of(st.sampled_from([0.0, 1.0, 1e-14, 0.5]), st.floats(0.0, 1.0)),  # level
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_each_element_is_its_scalar_call(self, cases):
        sigma, mu, ratio, level = (np.array(column) for column in zip(*cases))
        shape, scale = 1.0 / (sigma * sigma), sigma * sigma * mu
        x = ratio * mu
        cdf, ppf = gamma_cdf(x, shape, scale), gamma_ppf(level, shape, scale)
        for i in range(len(cases)):
            assert cdf[i] == gamma_cdf(x[i], shape[i], scale[i])
            assert ppf[i] == gamma_ppf(level[i], shape[i], scale[i])


class TestDensity:
    def test_cdf_at_zero_is_nu(self):
        d = ZagaDistribution(2.0, 0.8, nu=0.37)
        assert_allclose(d.cdf(0.0), 0.37, rtol=1e-14)

    def test_sigma_one_reduces_to_exponential(self):
        # shape 1/sigma^2 = 1: pdf(y) = (1 - nu) exp(-y / mu) / mu
        d = ZagaDistribution(1.7, 1.0, nu=0.25)
        y = np.linspace(0.01, 12.0, 200)
        expected = 0.75 * np.exp(-y / 1.7) / 1.7
        assert_allclose(d.pdf(y), expected, atol=1e-10, rtol=1e-10)

    @pytest.mark.parametrize("mu,sigma,nu", PARAM_GRID)
    def test_total_probability_is_one(self, mu, sigma, nu):
        d = ZagaDistribution(mu, sigma, nu)
        # split at the scale to keep the quadrature away from the y -> 0 singularity
        split = d.scale
        left, _ = integrate.quad(d.pdf, 1e-300, split, limit=400, points=[0.0])
        right, _ = integrate.quad(d.pdf, split, np.inf, limit=400)
        assert abs(left + right + nu - 1.0) < 1e-6

    def test_gamma_part_moments(self, rng):
        mu, sigma = 2.3, 0.6
        d = ZagaDistribution(mu, sigma, nu=0.0)
        draws = d.random(rng, 100_000)
        assert abs(draws.mean() - mu) / mu < 0.01
        assert abs(draws.var() - sigma**2 * mu**2) / (sigma**2 * mu**2) < 0.03

    def test_invalid_parameters_rejected(self):
        for bad in (dict(mu=0.0), dict(sigma=-1.0), dict(nu=1.0), dict(offset=-0.1)):
            kwargs = dict(mu=1.0, sigma=1.0, nu=0.0, offset=0.0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                ZagaDistribution(**kwargs)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(offset=np.inf), "offset = inf"),
            (dict(nu=np.nan), "nu = nan"),
            (dict(mu=0.0), "mu = 0.0"),
            (dict(mu=np.array([1.0, 2.0, 0.0])), "mu = 0.0"),
            (dict(sigma=np.array([0.5, np.inf])), "sigma = inf"),
        ],
    )
    def test_rejection_names_the_parameter(self, bad, message):
        kwargs = dict(mu=1.0, sigma=1.0, nu=0.0, offset=0.0)
        kwargs.update(bad)
        with pytest.raises(ValueError, match=f"^{message};"):
            ZagaDistribution(**kwargs)


class TestQuantiles:
    def test_quantile_in_atom(self):
        d = ZagaDistribution(1.0, 1.0, nu=0.3)
        assert d.quantile(0.2) == 0.0
        assert d.quantile(0.3) == 0.0

    @pytest.mark.parametrize("mu,sigma,nu", PARAM_GRID[::3])
    def test_roundtrip(self, mu, sigma, nu):
        d = ZagaDistribution(mu, sigma, nu)
        p = np.linspace(0.001, 0.999, 101)
        above = p > nu + 1e-12
        q = d.quantile(p[above])
        assert np.all(np.abs(d.cdf(q) - p[above]) <= 1e-8)

    @given(
        mu=st.floats(0.05, 20.0),
        sigma=st.floats(0.1, 4.0),
        nu=st.floats(0.0, 0.95),
        p1=st.floats(0.001, 0.999),
        p2=st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_monotonicity(self, mu, sigma, nu, p1, p2):
        d = ZagaDistribution(mu, sigma, nu)
        lo, hi = sorted((p1, p2))
        assert d.quantile(lo) <= d.quantile(hi) + 1e-12


class TestOffset:
    def test_mass_below_minus_offset_is_nu(self):
        d = ZagaDistribution(1.2, 0.9, nu=0.4, offset=0.5)
        assert_allclose(d.cdf(-0.5), 0.4, rtol=1e-14)
        assert d.cdf(-0.6) == 0.0

    def test_quantiles_shift_by_offset(self):
        base = ZagaDistribution(1.2, 0.9, nu=0.1)
        shifted = ZagaDistribution(1.2, 0.9, nu=0.1, offset=0.7)
        p = np.array([0.2, 0.5, 0.9])
        assert_allclose(shifted.quantile(p), base.quantile(p) - 0.7, rtol=1e-12)

    def test_mean_accounts_for_atom_and_offset(self):
        d = ZagaDistribution(2.0, 0.5, nu=0.25, offset=0.3)
        assert_allclose(d.mean(), 0.75 * 2.0 - 0.3, rtol=1e-14)

    def test_sampling_matches_cdf(self, rng):
        d = ZagaDistribution(1.5, 0.8, nu=0.2, offset=0.4)
        draws = d.random(rng, 50_000)
        for v in (-0.4, 0.0, 1.0, 3.0):
            assert abs((draws <= v).mean() - d.cdf(v)) < 0.01


# one case per entry: nu = 0 half the time, and levels drawn from the atoms as well as from (0, 1)
_cases = st.lists(
    st.tuples(
        st.floats(0.05, 8.0),
        st.floats(0.05, 3.0),
        st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    ),
    min_size=1,
    max_size=6,
)


class TestArrayParameters:
    @given(cases=_cases, levels=st.lists(st.floats(1e-6, 1 - 1e-6), max_size=5), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_quantile_of_arrays_is_the_per_case_quantile(self, cases, levels, data):
        mu, sigma, nu, offset = (np.array(column) for column in zip(*cases))
        # a level at or below some case's nu, and that nu itself, put levels inside the atom
        levels = levels + [x for x in nu.tolist() if x > 0][:1] + [data.draw(st.floats(1e-6, max(nu.max(), 1e-6)))]
        dist = ZagaDistribution(mu, sigma, nu, offset)
        q = dist.quantile(levels)
        assert q.shape == (len(cases), len(levels))
        for i, case in enumerate(cases):
            one = ZagaDistribution(*case)
            assert q[i].tolist() == one.quantile(levels).tolist()
            assert dist.quantile(levels[-1])[i] == one.quantile(levels[-1])  # a scalar level
            assert isinstance(one.quantile(levels[-1]), float)

    def test_scalar_parameters_agree_with_arrays_bitwise(self):
        # for this sigma a Python float's sigma**2 is one ulp off numpy's square
        sigma = 1.5697256973016718
        one, many = ZagaDistribution(1.0, sigma), ZagaDistribution(np.ones(1), np.full(1, sigma))
        assert (one.shape, one.scale) == (many.shape[0], many.scale[0])
        assert one.quantile(1e-6) == many.quantile(1e-6)[0]

    def test_quantile_levels_go_on_a_new_last_axis(self):
        dist = ZagaDistribution(np.full((2, 3), 1.5), 0.8, 0.1, np.zeros((2, 1)))
        assert dist.quantile([0.2, 0.5]).shape == (2, 3, 2)
        assert dist.quantile(0.5).shape == (2, 3)
        assert dist.quantile(np.full((4, 1), 0.5)).shape == (2, 3, 4, 1)

    def test_indexing_selects_cases(self, rng):
        mu, sigma, nu, offset = rng.uniform(0.5, 2, 9), rng.uniform(0.3, 1.2, 9), rng.uniform(0, 0.3, 9), rng.uniform(0, 0.5, 9)
        dist = ZagaDistribution(mu, sigma, nu, offset)
        for idx in (np.array([4, 0, 4]), np.arange(9) % 2 == 0, slice(2, 5), np.array([], dtype=int)):
            sliced = ZagaDistribution(mu[idx], sigma[idx], nu[idx], offset[idx])
            for name in ("mu", "sigma", "nu", "offset"):
                assert getattr(dist[idx], name).tolist() == getattr(sliced, name).tolist()
        assert dist[3] == ZagaDistribution(mu[3], sigma[3], nu[3], offset[3])
        # a scalar parameter is repeated for the selected cases
        shared = ZagaDistribution(mu, sigma, nu, 0.25)[np.array([1, 7])]
        assert shared.offset.tolist() == [0.25, 0.25]
