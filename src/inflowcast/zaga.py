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


def digamma_trigamma(x):
    """(digamma(x), trigamma(x)), the first two derivatives of log Gamma(x), sharing the recurrence's reciprocals 1 / (x + k)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        z = x + 8.0
        t = 1.0 / z
        t2 = t * t
        recip = [1.0 / (x + k) for k in range(7, -1, -1)]
        total = recip[0]
        for r in recip[1:7]:
            total = total + r
        squares = 0.0
        for r in recip:
            squares = squares + r * r
        # 1/x comes off last: near the root at 1.46 log z and the rest of the
        # sum are within a factor of two, so their difference is exact
        psi = (np.log(z) - (total + t * (0.5 + t * _series(_DIGAMMA_SERIES, t2)))) - 1.0 / x
        return psi, squares + t * (1.0 + t * (0.5 + t * _series(_TRIGAMMA_SERIES, t2)))


# ---------------------------------------------------------------------------
# The regularised incomplete gamma functions P(a, x) = gamma(a, x) / Gamma(a)
# and Q = 1 - P for a > 0, and the inverse of P, in numpy alone, by the regions
# of DiDonato and Morris (1986, ACM TOMS 12(4)) and Gil, Segura and Temme
# (2012, SIAM J. Sci. Comput. 34(6)):
#
# - Temme's uniform asymptotic expansion where a >= 20 and |x - a| <= 0.4 a,
#   with erfc(y) = Q(1/2, y^2);
# - elsewhere the power series of P where x <= max(a, 1/2), and the
#   continued fraction of Q above.
#
# Each region computes the smaller of P and Q, up to rounding, and the other
# is its complement.  Every element sums until its own last term is below the
# rounding of its sum, tested every few terms, so that a result does not
# depend on the other elements of its array.  All share the prefactor
# x^a e^-x / Gamma(a) = exp(-a phi(x / a)) sqrt(a / (2 pi)) / Gamma*(a), with
# phi(l) = l - 1 - log l and Gamma* the Stirling series' remainder, which
# keeps its accuracy for large a.  The inverse starts from a bound or from
# Wilson and Hilferty's approximation and takes Halley steps inside a bracket.
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_CHECK = 4  # terms summed between convergence tests
_MAX_TERMS = 1000  # more than any region needs: a cap, not a tolerance
_TEMME_MIN_SHAPE = 20.0
_TEMME_MAX_SPREAD = 0.4  # |x - a| / a
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# erfc(y) = Q(1/2, y^2): up to y^2 = 2.5, where erfc(y) > 0.02, as 1 - P(1/2, y^2) by
# the power series, whose coefficients 1 / ((3/2) (5/2) ... (n + 1/2)) are fixed
# (the first term left out is below 1e-17 of the sum); beyond, by the continued fraction
_ERFC_SERIES_MAX = 2.5
_ERFC_SERIES = tuple(1.0 / math.prod(k + 0.5 for k in range(1, n + 1)) for n in range(28))
# 2 atanh(u) - 2 u = 2 u^3 sum_k u^(2k) / (2k + 3), for |u| <= 1/3
_ATANH_SERIES = tuple(1.0 / (2 * k + 3) for k in range(17))

# Temme's coefficients: row k holds the Taylor coefficients in eta of C_k(eta)
# in R_a(eta) = exp(-a eta^2 / 2) / sqrt(2 pi a) sum_k C_k(eta) a^-k (DLMF 8.12),
# the exact rationals rounded.  Rows and columns are cut where the terms left
# out stay below 2e-18 for a >= 20 and |eta| <= 0.48 (|x - a| <= 0.4 a).
_TEMME = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11, -5.0276692801141755e-12),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08, 1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09, 4.162792991842583e-10, -8.56390702649298e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10, -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09, 9.428356159014678e-13, 1.2872252400089318e-10),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08, -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09, -9.460496661855133e-10),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11, 2.8865829742708783e-08, -1.4189739437803219e-08),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07, 4.8240967037894184e-08),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328, -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07, -8.479507117068503e-05),
    (0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07, -0.0005087450129309319),
    (0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276),
    (-0.004072512119514016,),
)


def _log_gamma_star(a):
    """log Gamma*(a), with Gamma(a) = Gamma*(a) sqrt(2 pi / a) (a / e)^a: the Stirling series' remainder."""
    t = 1.0 / a
    out = t * _series(_GAMMALN_SERIES, t * t)
    small = a < 8.0
    s = a[small]
    out[small] = gammaln(s) - (s - 0.5) * np.log(s) + s - _HALF_LOG_2PI
    return out


def _a_phi(a, x, t):
    """a phi(x / a) with phi(l) = l - 1 - log l, without cancellation where x is near a; t = (x - a) / a."""
    out = x - a - a * (np.log(x) - np.log(a))
    near = np.abs(t) < 0.5
    tn = t[near]
    u = tn / (2.0 + tn)
    u2 = u * u
    out[near] = a[near] * (tn * u - 2.0 * u * u2 * _series(_ATANH_SERIES, u2))
    return out


def _lower_series(a, x):
    """sum_n x^n / ((a + 1) ... (a + n)), so that P(a, x) = x^a e^-x / Gamma(a + 1) times it."""
    out = np.ones_like(x)
    idx = np.arange(x.size)
    term, total = out.copy(), out.copy()
    for n in range(1, _MAX_TERMS, _CHECK):
        for k in range(n, n + _CHECK):
            term = term * (x / (a + k))
            total = total + term
        done = ~(term > _EPS * total)
        out[idx[done]] = total[done]
        keep = ~done
        if not keep.any():
            break
        idx, a, x, term, total = idx[keep], a[keep], x[keep], term[keep], total[keep]
    return out


def _upper_fraction(a, x):
    """1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...))), so that Q(a, x) = x^a e^-x / Gamma(a) times it.

    Evaluated forward by the modified Lentz method.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_TERMS, _CHECK):
        for k in range(n, n + _CHECK):
            an = k * (a - k)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = c * d
            h = h * delta
        done = ~(np.abs(delta - 1.0) > _EPS)
        out[idx[done]] = h[done]
        keep = ~done
        if not keep.any():
            break
        idx, a, b, c, d, h = idx[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def _temme(a, t, a_phi):
    """min(P, Q) by Temme's expansion: Q where x >= a, P below; t = (x - a) / a."""
    eta = np.sqrt(2.0 * a_phi / a)
    eta = np.where(t < 0, -eta, eta)
    inv = 1.0 / a
    s = _series(_TEMME[-1], eta)
    for row in _TEMME[-2::-1]:
        s = s * inv + _series(row, eta)
    r = np.exp(-a_phi) / (_SQRT_2PI * np.sqrt(a)) * s
    # erfc(|eta| sqrt(a / 2)) = Q(1/2, y) at y = a eta^2 / 2 = a_phi, whose
    # prefactor y^(1/2) e^-y / Gamma(1/2) is exact to rounding
    pre = np.sqrt(a_phi / math.pi) * np.exp(-a_phi)
    near = a_phi <= _ERFC_SERIES_MAX
    far = ~near
    erfc = np.empty_like(a)
    erfc[near] = 1.0 - 2.0 * pre[near] * _series(_ERFC_SERIES, a_phi[near])
    erfc[far] = pre[far] * _upper_fraction(np.full(far.sum(), 0.5), a_phi[far])
    return np.where(t < 0, 0.5 * erfc - r, 0.5 * erfc + r)


def _incomplete(a, x, log_gamma_star):
    """P(a, x), Q(a, x) and x^a e^-x / Gamma(a) for flat arrays of a > 0 and finite x > 0."""
    t = (x - a) / a
    a_phi = _a_phi(a, x, t)
    # x^a e^-x / Gamma(a) = exp(-a phi(x / a) - log Gamma*(a)) sqrt(a / (2 pi))
    pre = np.exp(-a_phi - log_gamma_star) * np.sqrt(a) / _SQRT_2PI
    temme = (a >= _TEMME_MIN_SHAPE) & (np.abs(t) <= _TEMME_MAX_SPREAD)
    upper = np.where(temme, t >= 0, x > np.maximum(a, 0.5))  # the smaller is Q, up to rounding
    small = np.zeros_like(x)
    small[temme] = _temme(a[temme], t[temme], a_phi[temme])
    # where the prefactor underflows, so does the smaller of P and Q
    series, fraction = ~temme & ~upper & (pre > 0), ~temme & upper & (pre > 0)
    small[series] = pre[series] / a[series] * _lower_series(a[series], x[series])
    small[fraction] = pre[fraction] * _upper_fraction(a[fraction], x[fraction])
    other = 1.0 - small
    return np.where(upper, other, small), np.where(upper, small, other), pre


def _flat(*arrays):
    """Broadcast the arrays together; return their shape and contiguous flat float copies."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in arrays))
    return arrays[0].shape, [np.array(v.ravel()) for v in arrays]


def _regularized(a, x):
    """P(a, x) and Q(a, x), broadcast, for a > 0 and x >= 0; NaN elsewhere."""
    shape, (a, x) = _flat(a, x)
    valid = (a > 0) & (a < np.inf) & (x >= 0)  # NaN fails
    p = np.where(valid, np.where(x == np.inf, 1.0, 0.0), np.nan)
    q = 1.0 - p
    inner = valid & (x > 0) & (x < np.inf)
    with np.errstate(all="ignore"):
        a = a[inner]
        p[inner], q[inner], _ = _incomplete(a, x[inner], _log_gamma_star(a))
    return p.reshape(shape)[()], q.reshape(shape)[()]


def gammainc(a, x):
    """P(a, x), the regularised lower incomplete gamma function."""
    return _regularized(a, x)[0]


# a cap: 400,000 random (a, p) with p in the normal range took at most 7 steps; a subnormal
# level, which the tail cannot match to 1e-9, may stop at it
_HALLEY_STEPS = 40
_HALLEY_TOL = 1e-9  # relative; a Halley step this small leaves an error of the order of its cube
_LOG_2 = math.log(2.0)


def _normal_quantile(p):
    """An approximate standard normal quantile (Abramowitz and Stegun 26.2.23, |error| < 4.5e-4)."""
    s = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    return np.where(p < 0.5, -z, z)


def _start(a, p, q, upper, log_gamma_star):
    """A first estimate of x with P(a, x) = p (= 1 - q), which Halley's method refines."""
    log_a = np.log(a)
    log_gamma = log_gamma_star + (a - 0.5) * log_a - a + _HALF_LOG_2PI
    # P(a, x) <= x^a / Gamma(a + 1): a lower bound, close where x is small
    lower_bound = np.exp((np.log(p) + log_gamma + log_a) / a)
    # Wilson and Hilferty's cube of a normal variable, for a >= 1
    w = 1.0 - 1.0 / (9.0 * a) + _normal_quantile(p) / (3.0 * np.sqrt(a))
    x = np.where((a >= 1.0) & (w > 0.0), a * w * w * w, 0.0)
    # for a < 1, Q(a, x) <= x^(a-1) e^-x / Gamma(a) bounds x from above in the upper tail
    y = -np.log(q) - log_gamma
    above = np.where(y > 1.0, y + (a - 1.0) * np.log(y), 0.0)
    x = np.where((a < 1.0) & upper, above, x)
    return np.maximum(x, lower_bound)


def gammaincinv(a, p):
    """The x >= 0 with P(a, x) = p, for shape a > 0 and 0 <= p <= 1; NaN elsewhere."""
    shape, (a, p) = _flat(a, p)
    valid = (a > 0) & (a < np.inf) & (p >= 0) & (p <= 1)  # NaN fails
    out = np.where(valid, np.where(p == 1.0, np.inf, 0.0), np.nan)
    inner = np.flatnonzero(valid & (p > 0) & (p < 1))
    with np.errstate(all="ignore"):
        a, p = a[inner], p[inner]
        upper = p > 0.5
        q = 1.0 - p  # exact where p > 1/2, which is where it is used
        target = np.where(upper, q, p)
        lgs = _log_gamma_star(a)
        x = _start(a, p, q, upper, lgs)
        idx = np.flatnonzero(x > 0)  # a start that underflows is the answer
        out[inner] = x
        x, a, target, upper, lgs, inner = x[idx], a[idx], target[idx], upper[idx], lgs[idx], inner[idx]
        lo, hi = np.zeros_like(x), np.full_like(x, np.inf)  # the x known to lie below and above the answer
        for _ in range(_HALLEY_STEPS):
            pp, qq, pre = _incomplete(a, x, lgs)
            # Newton's step f / f' for f = P - p, with f' = x^(a-1) e^-x / Gamma(a) and f'' / f' = (a - 1) / x - 1;
            # Halley's divides it by 1 - (f / f') (f'' / f') / 2 where that exceeds 1/2
            f = np.where(upper, target - qq, pp - target)
            lo, hi = np.where(f < 0.0, x, lo), np.where(f > 0.0, x, hi)
            newton = np.where(f == 0.0, 0.0, f * x / pre)
            halley = 1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0)
            new = x - np.where((halley > 0.5) & (halley < np.inf), newton / halley, newton)
            # while the tail is off by more than a factor 2, Newton's step in log x (exact where the
            # tail is a power of x) instead; a step that leaves the bracket [lo, hi] goes to its
            # geometric middle, and every step stays within a factor 4 of x
            tail = np.where(upper, qq, pp)
            off = np.where(upper, -1.0, 1.0) * np.log(tail / target)
            far = (tail > 0.0) & (np.abs(off) > _LOG_2)
            new = np.where(far, x * np.exp(-off * tail / pre), new)
            new = np.clip(np.where((new < lo) | (new > hi), np.sqrt(lo * hi), new), 0.25 * x, 4.0 * x)
            done = ~(np.abs(new - x) > _HALLEY_TOL * new)
            out[inner[done]] = new[done]
            keep = ~done
            if not keep.any():
                break
            x, a, target, upper, lgs, inner, lo, hi = (v[keep] for v in (new, a, target, upper, lgs, inner, lo, hi))
        else:
            out[inner] = x
    return out.reshape(shape)[()]


def gamma_cdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    return gammainc(shape, np.where(x > 0, x, 0.0) / scale)


def gamma_ppf(p, shape, scale):
    return gammaincinv(shape, p) * scale


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
