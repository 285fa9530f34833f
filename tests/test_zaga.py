import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from inflowcast.zaga import ZagaDistribution, digamma, gammaln, trigamma

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
            ours = digamma(SPECIAL_GRID)
        reference = special.digamma(SPECIAL_GRID)
        assert_same_inf_nan(ours, reference)
        ok = np.isfinite(reference)
        ulp = np.finfo(float).eps
        assert np.all(np.abs(ours[ok] - reference[ok]) <= 4 * ulp * np.maximum(1.0, np.abs(reference[ok])))

    def test_trigamma(self):
        with np.errstate(**RAISE_FP):
            ours = trigamma(SPECIAL_GRID)
        reference = special.polygamma(1, SPECIAL_GRID)
        assert_same_inf_nan(ours, reference)
        ok = np.isfinite(reference) & (reference > 0)
        assert np.all(np.abs(ours[ok] - reference[ok]) <= 1e-14 * reference[ok])
        assert ours[SPECIAL_GRID == np.inf] == 0.0

    def test_scalars_give_0d_results(self):
        assert np.ndim(gammaln(0.5)) == np.ndim(digamma(1.0)) == np.ndim(trigamma(2.0)) == 0
        assert gammaln(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-15)


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
