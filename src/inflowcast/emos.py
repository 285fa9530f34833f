"""Ensemble-statistics regression onto a zero-adjusted gamma predictive distribution.

Per forecast horizon, three summary statistics of the benchmark ensemble
(mean, fraction of non-positive members, mean absolute pairwise difference)
plus a cyclic seasonal spline drive the distribution parameters through
log / log / logit links:

    log(mu)    = b10 + b11 * ens_mean + b12 * frac_nonpos + seasonal_1
    log(sigma) = b20 + b21 * ens_mean + b22 * mean_abs_diff + seasonal_2
    logit(nu)  = b30 + b31 * ens_mean

Observed inflows are shifted by the largest negative training inflow before
fitting so the gamma support applies; the fitted offset is carried by every
predicted distribution and subtracted again at evaluation time.

The coefficients maximise the ridge-penalised log-likelihood by a damped,
projected Newton ascent on its exact (closed-form) information matrix, from
several starts run in lockstep.  One ``_Likelihood`` per fit keeps the
positive cases, their log inflows and their design rows; each round it makes
one stacked evaluation of every point the starts wait to try and one stacked
pass over the points they accepted (gradient and information).  Every
product is a matmul stacked over the points and every sum a row sum, so a
start's results do not depend on which other starts share its round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .splines import CyclicSplineBasis, seasonal_phase
from .zaga import ZagaDistribution, digamma_trigamma, gammaln


# ---------------------------------------------------------------------------
# ensemble features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmosFeatures:
    ens_mean: float
    frac_nonpos: float
    mean_abs_diff: float


def compute_features(members) -> EmosFeatures:
    """Summary statistics of one ensemble; needs at least two members."""
    m = np.asarray(members, dtype=float)
    if m.ndim != 1 or len(m) < 2:
        raise InputError("ensemble features need a 1-D vector of >= 2 members")
    row = compute_feature_matrix(m[None, :])[0]
    return EmosFeatures(float(row[0]), float(row[1]), float(row[2]))


def compute_feature_matrix(members: np.ndarray) -> np.ndarray:
    """Vectorised features for (N, K) ensembles; columns (mean, frac<=0, mean |diff|).

    The mean absolute difference averages |m_k - m_k'| over all K^2 ordered
    pairs, computed via the sorted representation.
    """
    m = np.asarray(members, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise InputError("feature matrix needs (N, K>=2) ensembles")
    n, k = m.shape
    mean = m.mean(axis=1)
    frac = (m <= 0).mean(axis=1)
    srt = np.sort(m, axis=1)
    weights = 2.0 * np.arange(k) - (k - 1)
    mad = (srt * weights).sum(axis=1) * 2.0 / k**2
    # members a subnormal step apart have a spread that rounds to zero; floor it
    # at the smallest positive double so that zero spread still means constant
    spread = srt[:, -1] > srt[:, 0]
    mad = np.where(spread, np.maximum(mad, np.finfo(float).smallest_subnormal), mad)
    return np.column_stack([mean, frac, mad])


# ---------------------------------------------------------------------------
# design matrices and likelihood
# ---------------------------------------------------------------------------


def expit(x):
    """The inverse logit 1 / (1 + exp(-x)), as exp(-log(1 + exp(-x))): the log nu the likelihood takes, exponentiated.

    It raises no floating-point warning (numpy's logaddexp flags a NaN).
    """
    with np.errstate(all="ignore"):
        return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class EmosDesign:
    """Per-parameter design matrices for a batch of training or prediction cases."""

    x_mu: np.ndarray  # (N, 3 + J): 1, ens_mean, frac_nonpos, spline basis
    x_sigma: np.ndarray  # (N, 3 + J): 1, ens_mean, mean_abs_diff, spline basis
    x_nu: np.ndarray  # (N, 2): 1, ens_mean
    n_spline: int

    @property
    def n_params(self) -> int:
        return self.x_mu.shape[1] + self.x_sigma.shape[1] + self.x_nu.shape[1]

    @cached_property
    def blocks(self) -> tuple[slice, slice, slice]:
        """The mu, sigma and logit(nu) coordinates of the packed parameter vector."""
        p1, p2 = self.x_mu.shape[1], self.x_sigma.shape[1]
        return slice(None, p1), slice(p1, p1 + p2), slice(p1 + p2, None)

    def split(self, theta: np.ndarray):
        return tuple(theta[block] for block in self.blocks)

    @cached_property
    def spline_mask(self) -> np.ndarray:
        """Boolean mask over the packed parameter vector marking spline coefficients."""
        mask = np.zeros(self.n_params, dtype=bool)
        for beta in self.split(mask)[:2]:  # views into mask
            beta[-self.n_spline :] = True
        return mask


def build_design(features: np.ndarray, phases: np.ndarray, basis: CyclicSplineBasis) -> EmosDesign:
    features = np.asarray(features, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if features.ndim != 2 or features.shape[1] != 3:
        raise InputError("features must be an (N, 3) matrix")
    if len(phases) != len(features):
        raise InputError("phases and features must align")
    b = basis.design(phases)
    ones = np.ones((len(features), 1))
    x_mu = np.hstack([ones, features[:, [0, 1]], b])
    x_sigma = np.hstack([ones, features[:, [0, 2]], b])
    x_nu = np.hstack([ones, features[:, [0]]])
    return EmosDesign(x_mu=x_mu, x_sigma=x_sigma, x_nu=x_nu, n_spline=basis.n_knots)


def _stacked(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x @ row`` for each row of ``rows``, one matmul stacked over the rows.

    Each row's product is the BLAS call ``x @ row`` makes, so it does not
    depend on the other rows (a plain ``rows @ x.T`` would be one GEMM).
    """
    return np.matmul(x[None], rows[:, :, None])[:, :, 0]


def _gram(x: np.ndarray, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x.T @ (w[:, None] * z)`` for each row w of ``weights``, stacked like ``_stacked``."""
    return np.matmul(x.T[None], weights[:, :, None] * z[None])


def _rows(terms: tuple, rows) -> tuple:
    """The per-case terms of the points ``rows`` of an evaluation."""
    return tuple(t[rows] for t in terms)


class _Likelihood:
    """The penalised log-likelihood of shifted observations ``y`` on ``design``, at stacks of points.

    Built once per fit, it keeps what does not change during the fit: the
    positive cases, their y and log y, and their rows of the mu and sigma
    designs.  Every operation of its methods is elementwise, a row sum or a
    stacked product, so a point's results do not depend on the other points.
    """

    def __init__(self, design: EmosDesign, y, ridge: float):
        y = np.asarray(y, dtype=float)
        if y.size == 0:
            raise InputError("empty likelihood batch")
        if y.shape != (len(design.x_mu),):
            raise InputError(f"{len(design.x_mu)} design rows but the observations have shape {y.shape}")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise InputError("shifted observations must be finite and >= 0")
        self.design, self.ridge = design, ridge
        self.pos = y > 0.0
        self.y = y[self.pos]
        self.log_y = np.log(self.y)
        self.x_mu, self.x_sigma = design.x_mu[self.pos], design.x_sigma[self.pos]

    def evaluate(self, thetas: np.ndarray):
        """(penalised log-likelihoods, per-case terms) at each row of ``thetas``; -inf where not finite.

        The terms of each point are eta_nu on every case and, on the positive
        cases, a = sigma^-2, r = y / scale and log(scale); ``derivatives``
        and ``fisher`` take them.
        """
        design, pos = self.design, self.pos
        mu, sigma, zero = design.blocks
        eta2 = _stacked(design.x_sigma, thetas[:, sigma])
        log_s = 2.0 * eta2 + _stacked(design.x_mu, thetas[:, mu])  # log gamma scale
        eta3 = _stacked(design.x_nu, thetas[:, zero])

        lsp = log_s[:, pos]
        a = np.exp(-2.0 * eta2[:, pos])
        r = self.y * np.exp(-lsp)

        ll = np.empty(eta3.shape)
        # stable log(nu) / log(1 - nu)
        ll[:, ~pos] = -np.logaddexp(0.0, -eta3[:, ~pos])
        ll[:, pos] = -np.logaddexp(0.0, eta3[:, pos]) + (a - 1.0) * self.log_y - r - a * lsp - gammaln(a)
        finite = np.isfinite(ll).all(axis=1)
        spline = thetas[finite][:, design.spline_mask]
        lls = np.full(len(thetas), -np.inf)
        lls[finite] = ll[finite].sum(axis=1) - self.ridge * np.matmul(spline[:, None, :], spline[:, :, None])[:, 0, 0]
        return lls, (eta3, a, r, lsp)

    def derivatives(self, thetas: np.ndarray, terms: tuple):
        """The gradient and the observed information, (S, P) and (S, P, P), at the points ``evaluate`` gave ``terms``."""
        design, pos = self.design, self.pos
        eta3, a, r, lsp = terms
        nu = expit(eta3)
        psi, psi1 = digamma_trigamma(a)
        big_l = self.log_y - lsp - psi
        r_a = r - a
        w12 = 2.0 * r_a
        d_eta1 = np.zeros(eta3.shape)
        d_eta2 = np.zeros(eta3.shape)
        d_eta1[:, pos] = r_a
        d_eta2[:, pos] = -2.0 * a * big_l + w12
        d_eta3 = np.where(pos, -nu, 1.0 - nu)
        grad = np.concatenate(
            [_stacked(design.x_mu.T, d_eta1), _stacked(design.x_sigma.T, d_eta2), _stacked(design.x_nu.T, d_eta3)], axis=1
        )
        grad[:, design.spline_mask] -= 2.0 * self.ridge * thetas[:, design.spline_mask]
        return grad, self._information(nu, r, 4.0 * r - 4.0 * a * big_l - 8.0 * a + 4.0 * a * (a * psi1), w12)

    def fisher(self, terms: tuple) -> np.ndarray:
        """The Fisher information, (S, P, P), at the points ``evaluate`` gave ``terms``.

        Given a positive observation r -> a and L -> 0, so the mu-sigma block
        vanishes; the logit(nu) block is the observed one.
        """
        eta3, a, _, _ = terms
        _, psi1 = digamma_trigamma(a)
        return self._information(expit(eta3), a, 4.0 * a * (a * psi1 - 1.0))

    def _information(self, nu, w_mu, w_sigma, w_mu_sigma=None) -> np.ndarray:
        """The (S, P, P) information whose mu, sigma and mu-sigma blocks have the Gram weights ``w_*``.

        Its logit(nu) block, nu (1 - nu), and the ridge are those of both informations.
        """
        design = self.design
        mu, sigma, zero = design.blocks
        info = np.zeros((len(nu), design.n_params, design.n_params))
        info[:, mu, mu] = _gram(self.x_mu, w_mu, self.x_mu)
        if w_mu_sigma is not None:
            info[:, mu, sigma] = _gram(self.x_mu, w_mu_sigma, self.x_sigma)
            info[:, sigma, mu] = info[:, mu, sigma].transpose(0, 2, 1)
        info[:, sigma, sigma] = _gram(self.x_sigma, w_sigma, self.x_sigma)
        info[:, zero, zero] = _gram(design.x_nu, nu * (1.0 - nu), design.x_nu)
        info[:, design.spline_mask, design.spline_mask] += 2.0 * self.ridge
        return info


def _at_point(theta, design: EmosDesign, y, ridge: float):
    """The likelihood, ``theta`` as a stack of one point, and its evaluation there; ``theta`` has ``n_params`` entries."""
    lik, thetas = _Likelihood(design, y, ridge), np.asarray(theta, dtype=float)[None]
    if thetas.shape != (1, design.n_params):
        raise InputError(f"theta must have the design's {design.n_params} coefficients, got shape {thetas.shape[1:]}")
    return (lik, thetas, *lik.evaluate(thetas))


def loglik_and_gradient(theta, design: EmosDesign, y, ridge: float = 1e-6):
    """Penalised log-likelihood of shifted observations and its exact gradient; (-inf, 0) where not finite.

    The ridge term penalises only the spline coefficients; it pins down the
    otherwise unidentified split between intercepts and a constant seasonal
    shift (the cyclic basis sums to one).
    """
    lik, thetas, ll, terms = _at_point(theta, design, y, ridge)
    if not np.isfinite(ll[0]):
        return -np.inf, np.zeros_like(thetas[0])
    return float(ll[0]), lik.derivatives(thetas, terms)[0][0]


def information(theta, design: EmosDesign, y, ridge: float = 1e-6, expected: bool = False) -> np.ndarray:
    """Minus the Hessian of the penalised log-likelihood (the observed information).

    With shape a = sigma^-2, r = y / scale and L = log(y) - log(scale) -
    digamma(a), a positive observation adds to the (eta_mu, eta_sigma) block

        [[ r,          2 (r - a)                                 ],
         [ 2 (r - a),  4 r - 4 a L - 8 a + 4 a^2 trigamma(a)     ]]

    and every observation adds nu (1 - nu) to the separable logit(nu) block;
    the ridge adds 2 * ridge on the spline coefficients.  ``expected=True``
    gives the block-diagonal Fisher information instead, the expectation given
    a positive observation (r -> a, L -> 0): a for mu, 4 a (a trigamma(a) - 1)
    for sigma, no mu-sigma block.  It is positive definite wherever the
    design is of full rank.
    """
    lik, thetas, _, terms = _at_point(theta, design, y, ridge)
    if expected:
        return lik.fisher(terms)[0]
    return lik.derivatives(thetas, terms)[1][0]


# ---------------------------------------------------------------------------
# fitted model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmosModel:
    """Fitted coefficient sets for one forecast horizon (and CV fold)."""

    beta_mu: np.ndarray
    beta_sigma: np.ndarray
    beta_nu: np.ndarray
    offset: float
    basis: CyclicSplineBasis
    horizon: str = ""
    fold_year: int | None = None
    n_cases: int = 0
    loglik: float = np.nan
    start_logliks: tuple[float, ...] = ()
    standard_errors: np.ndarray | None = field(default=None, compare=False)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.beta_mu, self.beta_sigma, self.beta_nu])

    def params_for(self, features: np.ndarray, phases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised (mu, sigma, nu) for an (N, 3) feature matrix."""
        design = build_design(np.atleast_2d(features), np.atleast_1d(phases), self.basis)
        mu = np.exp(design.x_mu @ self.beta_mu)
        sigma = np.exp(design.x_sigma @ self.beta_sigma)
        nu = expit(design.x_nu @ self.beta_nu)
        return mu, sigma, nu

    def to_dict(self) -> dict:
        d = {
            "horizon": self.horizon,
            "fold_year": self.fold_year,
            "offset": self.offset,
            "beta_mu": self.beta_mu.tolist(),
            "beta_sigma": self.beta_sigma.tolist(),
            "beta_nu": self.beta_nu.tolist(),
            "n_knots": self.basis.n_knots,
            "period": self.basis.period,
            "knots": self.basis.knots.tolist(),
            "n_cases": self.n_cases,
            "loglik": self.loglik,
            "start_logliks": list(self.start_logliks),
        }
        if self.standard_errors is not None:
            d["standard_errors"] = self.standard_errors.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EmosModel":
        """Inverse of ``to_dict``; each coefficient vector must fit the spline basis."""
        se = d.get("standard_errors")
        basis = CyclicSplineBasis(int(d["n_knots"]), float(d["period"]))
        betas = {}
        for key, size in (("beta_mu", 3 + basis.n_knots), ("beta_sigma", 3 + basis.n_knots), ("beta_nu", 2)):
            betas[key] = np.asarray(d[key], dtype=float)
            if betas[key].shape != (size,):
                raise InputError(
                    f"{key}: expected {size} coefficients for {basis.n_knots} knots, got shape {betas[key].shape}"
                )
        return cls(
            **betas,
            offset=float(d["offset"]),
            basis=basis,
            horizon=d.get("horizon", ""),
            fold_year=d.get("fold_year"),
            n_cases=int(d.get("n_cases", 0)),
            loglik=float(d.get("loglik", np.nan)),
            start_logliks=tuple(d.get("start_logliks", ())),
            standard_errors=None if se is None else np.asarray(se, dtype=float),
        )


def predict_distribution(model: EmosModel, features: EmosFeatures, date) -> ZagaDistribution:
    """Predictive distribution for one case; carries the model's inflow offset."""
    row = np.array([[features.ens_mean, features.frac_nonpos, features.mean_abs_diff]])
    phase = seasonal_phase([np.datetime64(date, "D")], model.basis.period)
    mu, sigma, nu = model.params_for(row, phase)
    return ZagaDistribution(float(mu[0]), float(sigma[0]), float(nu[0]), offset=model.offset)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _initial_theta(lik: _Likelihood) -> np.ndarray:
    n = len(lik.pos)
    frac_zero = float((~lik.pos).mean())
    nu0 = min(max(frac_zero, 0.5 / n), 1 - 0.5 / n)
    mu0 = float(lik.y.mean())  # fit_emos has checked that there is a positive case
    cv0 = float(np.clip(lik.y.std() / mu0 if mu0 > 0 else 1.0, 0.1, 5.0))
    theta = np.zeros(lik.design.n_params)
    b1, b2, b3 = lik.design.split(theta)  # slices share theta's buffer
    b1[0] = np.log(mu0)
    b2[0] = np.log(cv0)
    b3[0] = math.log(nu0 / (1.0 - nu0))
    return theta


# box on every coefficient, Newton steps per start, step halvings per step
_BOUND = 40.0
_MAX_STEPS = 100
_MAX_HALVINGS = 60
# a start has converged when the Newton decrement, twice the log-likelihood
# gain the quadratic model still expects, is below this share of |loglik|
_DECREMENT_TOL = 1e-11


def _direction(theta, grad, free, info, fisher) -> np.ndarray:
    """The Newton step over the ``free`` coordinates in the box, zero elsewhere, at one point.

    A coordinate on a bound whose gradient, or whose Newton step, points out
    of the box stays on the bound for that step.  The step uses the observed
    information ``info`` where it is positive definite, and the block-diagonal
    Fisher information ``fisher()`` builds otherwise; its pseudo-inverse
    leaves out the directions a collinear design does not identify.
    """
    lower, upper = theta <= -_BOUND, theta >= _BOUND
    move = free & ~(lower & (grad < 0)) & ~(upper & (grad > 0))
    while True:
        sub = np.ix_(move, move)
        step = np.zeros_like(grad)
        try:
            chol = np.linalg.cholesky(info[sub])
            step[move] = np.linalg.solve(chol.T, np.linalg.solve(chol, grad[move]))
        except np.linalg.LinAlgError:
            step[move] = np.linalg.pinv(fisher()[sub], hermitian=True) @ grad[move]
        outward = (lower & (step < 0)) | (upper & (step > 0))
        if not outward.any():
            return step
        move &= ~outward


@dataclass
class _Start:
    """One start of ``_ascend``: its last accepted point and its line search."""

    theta: np.ndarray  # the last accepted point; the start itself until one is
    trial: np.ndarray  # the point waiting to be evaluated
    ll: float = -np.inf
    direction: np.ndarray | None = None
    t: float = 1.0  # step length
    tries: int = 0  # evaluations in the current line search
    taken: int = 0  # Newton steps taken
    fitted: np.ndarray | None = None


def _ascend(starts, free, lik: _Likelihood) -> list:
    """Damped, projected Newton ascent over the ``free`` coordinates in the box, from each row of ``starts``.

    Each start takes its own Newton steps and halves each until the
    log-likelihood does not fall, but the starts run in lockstep: in each
    round one ``lik.evaluate`` call takes every point waiting to be tried and
    one ``lik.derivatives`` call works at every point accepted in it.  A
    start's arithmetic does not depend on the other starts.  Returns, per
    start, the final coefficients, or None when it does not converge.
    """
    everyone = [_Start(start, start) for start in starts]
    waiting = everyone
    while waiting:
        ll_try, terms = lik.evaluate(np.array([s.trial for s in waiting]))
        accepted, rows, again = [], [], []
        for row, s in enumerate(waiting):
            # a start point must be finite; a trial point must not fall below the point it steps from
            accept = np.isfinite(ll_try[row]) if s.taken == 0 else ll_try[row] >= s.ll
            if accept:
                s.theta, s.ll = s.trial, ll_try[row]
                if s.taken < _MAX_STEPS:
                    accepted.append(s)
                    rows.append(row)
            elif s.taken > 0 and s.tries + 1 < _MAX_HALVINGS:
                s.tries += 1
                s.t *= 0.5
                again.append(s)
        if accepted:
            grad, observed = lik.derivatives(np.array([s.theta for s in accepted]), _rows(terms, rows))
            for s, row, g, info in zip(accepted, rows, grad, observed):
                # the Fisher information is built only where the observed information is not positive definite
                d = _direction(s.theta, g, free, info, lambda row=row: lik.fisher(_rows(terms, [row]))[0])
                s.taken += 1
                if float(g @ d) <= _DECREMENT_TOL * (1.0 + abs(s.ll)):
                    s.fitted = s.theta
                else:
                    s.direction, s.t, s.tries = d, 1.0, 0
                    again.append(s)
        waiting = again
        for s in waiting:
            s.trial = np.clip(s.theta + s.t * s.direction, -_BOUND, _BOUND)
    return [s.fitted for s in everyone]


def fit_emos(
    features: np.ndarray,
    dates,
    inflow_obs: np.ndarray,
    basis: CyclicSplineBasis | None = None,
    horizon: str = "",
    fold_year: int | None = None,
    ridge: float = 1e-6,
    n_starts: int = 3,
    min_cases: int = 100,
    seed: int = 0,
    compute_se: bool = True,
) -> EmosModel:
    """Maximum-penalised-likelihood fit by multi-start, damped, projected Newton ascent.

    ``inflow_obs`` are raw (possibly negative) observed inflows; the offset
    that makes the training minimum exactly zero is applied internally.
    ``features`` is (N, 3) and ``dates`` and ``inflow_obs`` have N entries,
    all finite.  Every coefficient is kept in [-40, 40].
    """
    basis = basis or CyclicSplineBasis()
    features = np.asarray(features, dtype=float)
    y_raw = np.asarray(inflow_obs, dtype=float)
    phases = seasonal_phase(np.asarray(dates, dtype="datetime64[D]"), basis.period)
    design = build_design(features, phases, basis)  # checks the (N, 3) shape and the N dates
    if y_raw.shape != (len(features),):
        raise InputError(f"{len(features)} feature rows but inflow_obs has shape {y_raw.shape}")
    for name, values in (("features", features), ("dates", phases), ("inflow_obs", y_raw)):
        if not np.isfinite(values).all():
            bad = int((~np.isfinite(values)).sum())
            raise InputError(f"{name} must be finite: {bad} of {values.size} entries are NaN, NaT or infinite")
    for name, value in (("n_starts", n_starts), ("min_cases", min_cases)):
        if value < 1:
            raise InputError(f"{name} must be at least 1, got {value}")
    if len(y_raw) < min_cases:
        raise InputError(f"{len(y_raw)} training cases is below the minimum of {min_cases}")
    offset = max(0.0, -float(y_raw.min()))
    lik = _Likelihood(design, y_raw + offset, ridge)
    if not lik.pos.any():
        raise InputError("every shifted training inflow is zero; the gamma part cannot be fitted")

    # without any zero observations the zero-mass submodel sits on its boundary
    # (nu -> 0); pin it there instead of letting the optimiser crawl to -inf
    pinned = np.zeros(design.n_params)
    varied = np.ones(design.n_params, dtype=bool)  # the coordinates the starts perturb
    if lik.pos.all():
        varied[design.blocks[2]] = False
        pinned[design.blocks[2]] = (-30.0, 0.0)
    # a coefficient whose design column is zero on every case that informs it
    # (the positive observations for mu and sigma, all cases for nu) leaves the
    # likelihood flat; pin it at 0 rather than keep whatever the start gave it
    informed = np.concatenate(
        [(lik.x_mu != 0).any(axis=0), (lik.x_sigma != 0).any(axis=0), (design.x_nu != 0).any(axis=0)]
    )
    free = informed & varied

    rng = np.random.default_rng(seed)
    theta0 = np.where(free, _initial_theta(lik), pinned)
    starts = [theta0]
    for _ in range(n_starts - 1):
        start = theta0.copy()
        start[varied] += rng.normal(0.0, 0.3, size=int(varied.sum()))
        starts.append(np.where(free, start, pinned))

    def polish(theta_full):
        """Shift the flat direction (constant seasonal term vs intercept) to the ridge optimum.

        The cyclic basis sums to one, so moving the spline-coefficient mean
        into the intercept leaves the likelihood unchanged while minimising
        the ridge penalty exactly.
        """
        out = theta_full.copy()
        for beta in design.split(out)[:2]:  # views into out
            shift = beta[-design.n_spline :].mean()
            beta[-design.n_spline :] -= shift
            beta[0] += shift
        return out

    fitted = [theta for theta in _ascend(np.array(starts), free, lik) if theta is not None]
    if not fitted:
        raise NumericalError(
            f"EMOS fit did not converge for horizon {horizon!r} (fold {fold_year!r}) after {n_starts} starts"
        )
    polished = np.array([polish(theta) for theta in fitted])
    start_logliks, terms = lik.evaluate(polished)
    best = int(np.argmax(start_logliks))  # the first of equal bests
    theta_hat = polished[best]

    se = _standard_errors(lik, polished[[best]], _rows(terms, [best]), free) if compute_se else None

    b1, b2, b3 = design.split(theta_hat)
    return EmosModel(
        beta_mu=b1.copy(),
        beta_sigma=b2.copy(),
        beta_nu=b3.copy(),
        offset=offset,
        basis=basis,
        horizon=horizon,
        fold_year=fold_year,
        n_cases=len(y_raw),
        loglik=float(start_logliks[best]),
        start_logliks=tuple(start_logliks.tolist()),
        standard_errors=se,
    )


def _standard_errors(lik: _Likelihood, thetas, terms: tuple, free: np.ndarray):
    """Standard errors of the free coefficients at the one point of ``thetas``; NaN for pinned ones."""
    se = np.full(lik.design.n_params, np.nan)
    try:
        _, observed = lik.derivatives(thetas, terms)
        cov = np.linalg.pinv(observed[0][np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return se
    diag = np.diag(cov)
    se[free] = np.sqrt(np.where(diag < 0, np.nan, diag))
    return se
