"""Gamma distribution with a discrete probability mass at zero.

The continuous part is parameterised by its mean ``mu`` and coefficient of
variation ``sigma`` (gamma shape 1/sigma^2, scale sigma^2*mu), mixed with a
point mass ``nu`` at zero.  An additive ``offset`` shifts the support so the
distribution can describe quantities that are occasionally negative: all
user-facing evaluations are in the shifted space, i.e. a predicted value v
corresponds to v + offset on the non-negative internal axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_VALID = (
    ("mu", lambda x: x > 0),
    ("sigma", lambda x: x > 0),
    ("nu", lambda x: (x >= 0) & (x < 1)),
    ("offset", lambda x: x >= 0),
)


def _validate(*params):
    """Raise a ValueError naming the first out-of-range value of mu, sigma, nu or offset, in that order."""
    for (name, valid), x in zip(_VALID, params):
        x = np.asarray(x, dtype=float)
        bad = ~(np.isfinite(x) & valid(x))
        if bad.any():
            raise ValueError(
                f"{name} = {float(x[bad][0])}; ZAGA needs finite mu > 0, sigma > 0, 0 <= nu < 1 and offset >= 0"
            )


def _float_if_0d(x):
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# log-gamma and its first two derivatives for x >= 0, in numpy alone, so that
# fitting EMOS imports no other numerical library.  Each shifts x to z = x + 8
# by the recurrence and sums the Stirling (asymptotic) series in 1/z, whose
# Bernoulli-number coefficients below are those of powers 1/z^2; the first
# term left out is below 3e-15 relative at z = 8.  They raise no
# floating-point warning: 0 and infinities give the limits, NaN stays NaN.
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_GAMMALN_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _series(coefficients, t2):
    """sum_k coefficients[k] * t2**k by Horner's rule."""
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = acc * t2 + c
    return acc


def gammaln(x):
    """log Gamma(x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        z = x + 8.0
        t = 1.0 / z
        t2 = t * t
        w = x * t
        # prod_{k=1..7} (x + k) / z, in (0, 1) for every finite x >= 0, from the
        # pairs (x + k)(x + 8 - k) = x z + k (8 - k)
        scaled = (w + 7.0 * t2) * (w + 12.0 * t2) * (w + 15.0 * t2) * ((x + 4.0) * t)
        # log Gamma(z) - log x - sum_k log(x + k); log(1/x) is infinite below
        # x = 5.6e-309, where 1/x overflows, the usual library convention
        out = (z - 7.5) * np.log(z) - z + _HALF_LOG_2PI + t * _series(_GAMMALN_SERIES, t2) + np.log(1.0 / x) - np.log(scaled)
    return np.where(x == np.inf, np.inf, out)


def digamma(x):
    """d/dx log Gamma(x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        z = x + 8.0
        t = 1.0 / z
        recip = 1.0 / (x + 7.0)
        for k in range(6, 0, -1):
            recip = recip + 1.0 / (x + k)
        # 1/x comes off last: near the root at 1.46 log z and the rest of the
        # sum are within a factor of two, so their difference is exact
        return (np.log(z) - (recip + t * (0.5 + t * _series(_DIGAMMA_SERIES, t * t)))) - 1.0 / x


def trigamma(x):
    """d^2/dx^2 log Gamma(x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        z = x + 8.0
        t = 1.0 / z
        acc = 0.0
        for k in range(7, -1, -1):
            r = 1.0 / (x + k)
            acc = acc + r * r
        return acc + t * (1.0 + t * (0.5 + t * _series(_TRIGAMMA_SERIES, t * t)))


# The regularised incomplete gamma function and its inverse are imported on the
# first CDF or quantile evaluation, which `train` never makes.


def gamma_cdf(x, shape, scale):
    from scipy import special

    x = np.asarray(x, dtype=float)
    pos = x > 0
    return np.where(pos, special.gammainc(shape, np.where(pos, x, 1.0) / scale), 0.0)


def gamma_ppf(p, shape, scale):
    from scipy import special

    return special.gammaincinv(shape, p) * scale


@dataclass(frozen=True)
class ZagaDistribution:
    """Zero-adjusted gamma predictive distribution with an optional shift.

    The parameters are scalars or arrays that broadcast together, one entry
    per case; evaluations broadcast against them elementwise, except
    ``quantile``, which puts its levels on a new last axis.
    """

    mu: float
    sigma: float
    nu: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        _validate(self.mu, self.sigma, self.nu, self.offset)

    def __getitem__(self, idx) -> "ZagaDistribution":
        """The cases ``idx`` selects."""
        return ZagaDistribution(*(p[idx] for p in np.broadcast_arrays(self.mu, self.sigma, self.nu, self.offset)))

    # sigma * sigma, not sigma**2: a Python float's ** can differ from numpy's
    # square in the last bit, and scalar and array cases must agree exactly
    @property
    def shape(self) -> float:
        return 1.0 / (self.sigma * self.sigma)

    @property
    def scale(self) -> float:
        return self.sigma * self.sigma * self.mu

    def pdf(self, v):
        """Density at v (shifted space); the zero atom is reported as mass nu at v == -offset."""
        y = np.asarray(v, dtype=float) + self.offset
        a, s = self.shape, self.scale
        pos = y > 0
        ysafe = np.where(pos, y, 1.0)
        logpdf = (a - 1) * np.log(ysafe) - ysafe / s - a * np.log(s) - gammaln(a)
        dens = np.where(pos, (1.0 - self.nu) * np.exp(logpdf), 0.0)
        return _float_if_0d(np.where(y == 0, self.nu, dens))

    def cdf(self, v):
        y = np.asarray(v, dtype=float) + self.offset
        return _float_if_0d(np.where(y < 0, 0.0, self.nu + (1.0 - self.nu) * gamma_cdf(y, self.shape, self.scale)))

    def quantile(self, p):
        """Quantiles at levels ``p`` in (0, 1), of shape ``parameter shape + p.shape``."""
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise ValueError("p must lie in (0, 1)")
        levels_axes = tuple(range(-p.ndim, 0))
        nu, shape, scale, offset = (
            np.expand_dims(np.asarray(x, dtype=float), levels_axes) for x in (self.nu, self.shape, self.scale, self.offset)
        )
        in_atom = p <= nu
        p_cont = np.where(in_atom, 0.5, (p - nu) / (1.0 - nu))
        q = np.where(in_atom, 0.0, gamma_ppf(p_cont, shape, scale))
        return _float_if_0d(q - offset)

    def mean(self) -> float:
        return (1.0 - self.nu) * self.mu - self.offset

    def random(self, rng: np.random.Generator, size=None):
        """Draw samples (shifted space)."""
        gam = rng.gamma(self.shape, self.scale, size=size)
        zero = rng.random(size=size) < self.nu
        return np.where(zero, 0.0, gam) - self.offset
