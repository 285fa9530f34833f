"""Gamma distribution with a discrete probability mass at zero.

The continuous part is parameterised by its mean ``mu`` and coefficient of
variation ``sigma`` (gamma shape 1/sigma^2, scale sigma^2*mu), mixed with a
point mass ``nu`` at zero.  An additive ``offset`` shifts the support so the
distribution can describe quantities that are occasionally negative: all
user-facing evaluations are in the shifted space, i.e. a predicted value v
corresponds to v + offset on the non-negative internal axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


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


def gamma_cdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    pos = x > 0
    return np.where(pos, special.gammainc(shape, np.where(pos, x, 1.0) / scale), 0.0)


def gamma_ppf(p, shape, scale):
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
        logpdf = (a - 1) * np.log(ysafe) - ysafe / s - a * np.log(s) - special.gammaln(a)
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
