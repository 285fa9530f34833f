import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inflowcast.errors import InputError
from inflowcast.splines import CyclicSplineBasis, seasonal_phase


@pytest.mark.parametrize("n_knots", [4, 6, 9, 12])
def test_partition_of_unity(n_knots):
    basis = CyclicSplineBasis(n_knots)
    x = np.linspace(0.0, basis.period, 2001)
    assert_allclose(basis.design(x).sum(axis=1), 1.0, atol=1e-12)


def test_periodicity():
    basis = CyclicSplineBasis(6)
    x = np.linspace(0.0, basis.period, 97)
    assert_allclose(basis.design(x), basis.design(x + basis.period), atol=1e-9)
    assert_allclose(basis.design(x), basis.design(x - 3 * basis.period), atol=1e-9)


@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_continuity_across_wrap(deriv):
    # one-sided finite differences of order ``deriv``, in knot-spacing units, agree across the year wrap
    basis = CyclicSplineBasis(6)
    knot = basis.period / basis.n_knots
    step = 1e-3 * knot
    weights = [(-1.0) ** (deriv - j) * math.comb(deriv, j) for j in range(deriv + 1)]  # forward difference
    before = sum(w * basis.design(np.array([basis.period - (deriv - j) * step])) for j, w in enumerate(weights))
    after = sum(w * basis.design(np.array([j * step])) for j, w in enumerate(weights))
    scale = (knot / step) ** deriv
    assert_allclose(before * scale, after * scale, atol=1e-2)
    if deriv:  # the differences see the derivative: it is not zero at the wrap
        assert np.abs(after * scale).max() > 0.1


def test_compact_support():
    basis = CyclicSplineBasis(12)
    row = basis.design(np.array([0.0]))[0]
    assert (row > 0).sum() <= 4  # cubic pieces span four knot intervals


def test_too_few_knots_rejected():
    with pytest.raises(InputError):
        CyclicSplineBasis(3)


def test_seasonal_phase_smooth_across_new_year():
    phases = seasonal_phase(np.array(["2015-12-31", "2016-01-01"], dtype="datetime64[D]"))
    gap = (phases[1] - phases[0]) % 365.25
    assert_allclose(gap, 1.0, atol=1e-9)


def test_seasonal_phase_range():
    dates = np.arange(np.datetime64("2000-01-01"), np.datetime64("2030-01-01"), 17)
    phases = seasonal_phase(dates)
    assert phases.min() >= 0.0
    assert phases.max() < 365.25
