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
several starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import InputError, NumericalError
from .splines import CyclicSplineBasis, seasonal_phase
from .zaga import ZagaDistribution


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

    def split(self, theta: np.ndarray):
        p1 = self.x_mu.shape[1]
        p2 = self.x_sigma.shape[1]
        return theta[:p1], theta[p1 : p1 + p2], theta[p1 + p2 :]

    def spline_mask(self) -> np.ndarray:
        """Boolean mask over the packed parameter vector marking spline coefficients."""
        p1 = self.x_mu.shape[1]
        p2 = self.x_sigma.shape[1]
        mask = np.zeros(self.n_params, dtype=bool)
        mask[p1 - self.n_spline : p1] = True
        mask[p1 + p2 - self.n_spline : p1 + p2] = True
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


def loglik_and_gradient(theta, design: EmosDesign, y, ridge: float = 1e-6):
    """Penalised log-likelihood of shifted observations and its exact gradient.

    The ridge term penalises only the spline coefficients; it pins down the
    otherwise unidentified split between intercepts and a constant seasonal
    shift (the cyclic basis sums to one).
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise InputError("empty likelihood batch")
    if np.any(y < 0):
        raise InputError("shifted observations must be >= 0")
    b1, b2, b3 = design.split(theta)

    eta1 = design.x_mu @ b1
    eta2 = design.x_sigma @ b2
    eta3 = design.x_nu @ b3
    a = np.exp(-2.0 * eta2)  # gamma shape
    log_s = 2.0 * eta2 + eta1  # log gamma scale
    nu = special.expit(eta3)

    zero = y <= 0.0
    pos = ~zero
    ll = np.empty(len(y))
    # stable log(nu) / log(1 - nu)
    ll[zero] = -np.logaddexp(0.0, -eta3[zero])
    yp = y[pos]
    ap = a[pos]
    lsp = log_s[pos]
    ratio = yp * np.exp(-lsp)  # y / scale
    ll[pos] = (
        -np.logaddexp(0.0, eta3[pos])
        + (ap - 1.0) * np.log(yp)
        - ratio
        - ap * lsp
        - special.gammaln(ap)
    )
    if not np.all(np.isfinite(ll)):
        return -np.inf, np.zeros_like(theta)

    d_eta1 = np.zeros(len(y))
    d_eta2 = np.zeros(len(y))
    d_eta1[pos] = ratio - ap
    d_eta2[pos] = -2.0 * ap * (np.log(yp) - lsp - special.digamma(ap)) + 2.0 * (ratio - ap)
    d_eta3 = np.where(zero, 1.0 - nu, -nu)

    g1 = design.x_mu.T @ d_eta1
    g2 = design.x_sigma.T @ d_eta2
    g3 = design.x_nu.T @ d_eta3
    grad = np.concatenate([g1, g2, g3])

    mask = design.spline_mask()
    penalty = ridge * float(np.dot(theta[mask], theta[mask]))
    grad[mask] -= 2.0 * ridge * theta[mask]
    return float(ll.sum()) - penalty, grad


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
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    b1, b2, b3 = design.split(theta)
    pos = y > 0.0
    x1 = design.x_mu[pos]
    x2 = design.x_sigma[pos]
    yp = y[pos]
    eta2 = x2 @ b2
    a = np.exp(-2.0 * eta2)
    log_s = 2.0 * eta2 + x1 @ b1
    a_trigamma = a * special.polygamma(1, a)
    if expected:
        w11, w12, w22 = a, None, 4.0 * a * (a_trigamma - 1.0)
    else:
        r = yp * np.exp(-log_s)
        big_l = np.log(yp) - log_s - special.digamma(a)
        w11, w12 = r, 2.0 * (r - a)
        w22 = 4.0 * r - 4.0 * a * big_l - 8.0 * a + 4.0 * a * a_trigamma
    nu = special.expit(design.x_nu @ b3)

    p1, p2 = x1.shape[1], x2.shape[1]
    info = np.zeros((design.n_params, design.n_params))
    info[:p1, :p1] = x1.T @ (w11[:, None] * x1)
    info[p1 : p1 + p2, p1 : p1 + p2] = x2.T @ (w22[:, None] * x2)
    if w12 is not None:
        info[:p1, p1 : p1 + p2] = x1.T @ (w12[:, None] * x2)
        info[p1 : p1 + p2, :p1] = info[:p1, p1 : p1 + p2].T
    info[p1 + p2 :, p1 + p2 :] = design.x_nu.T @ ((nu * (1.0 - nu))[:, None] * design.x_nu)
    mask = design.spline_mask()
    info[mask, mask] += 2.0 * ridge
    return info


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
        nu = special.expit(design.x_nu @ self.beta_nu)
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


def _initial_theta(design: EmosDesign, y: np.ndarray) -> np.ndarray:
    n = len(y)
    frac_zero = float((y <= 0).mean())
    nu0 = min(max(frac_zero, 0.5 / n), 1 - 0.5 / n)
    yp = y[y > 0]
    if len(yp) == 0:
        mu0, cv0 = 1.0, 1.0
    else:
        mu0 = float(yp.mean())
        cv0 = float(np.clip(yp.std() / mu0 if mu0 > 0 else 1.0, 0.1, 5.0))
    theta = np.zeros(design.n_params)
    b1, b2, b3 = design.split(theta)  # slices share theta's buffer
    b1[0] = np.log(mu0)
    b2[0] = np.log(cv0)
    b3[0] = special.logit(nu0)
    return theta


# box on every coefficient, Newton steps per start, step halvings per step
_BOUND = 40.0
_MAX_STEPS = 100
_MAX_HALVINGS = 60
# a start has converged when the Newton decrement, twice the log-likelihood
# gain the quadratic model still expects, is below this share of |loglik|
_DECREMENT_TOL = 1e-11


def _newton_direction(theta, grad, move, design, y, ridge) -> np.ndarray:
    """Newton step over the ``move`` coordinates, zero elsewhere.

    Uses the observed information where it is positive definite, and the
    block-diagonal Fisher information otherwise; its pseudo-inverse leaves
    out the directions a collinear design does not identify.
    """
    sub = np.ix_(move, move)
    step = np.zeros_like(theta)
    try:
        chol = np.linalg.cholesky(information(theta, design, y, ridge)[sub])
        step[move] = np.linalg.solve(chol.T, np.linalg.solve(chol, grad[move]))
    except np.linalg.LinAlgError:
        fisher = information(theta, design, y, ridge, expected=True)[sub]
        step[move] = np.linalg.pinv(fisher, hermitian=True) @ grad[move]
    return step


def _newton_ascent(theta, free, design, y, ridge):
    """Damped, projected Newton ascent over the ``free`` coordinates in the box.

    A coordinate on a bound whose gradient, or whose Newton step, points out
    of the box stays on the bound for that step.  Each step is halved until
    the log-likelihood does not fall.  Returns the final coefficients, or
    None when the start does not converge.
    """
    ll, grad = loglik_and_gradient(theta, design, y, ridge=ridge)
    if not np.isfinite(ll):
        return None
    for _ in range(_MAX_STEPS):
        lower, upper = theta <= -_BOUND, theta >= _BOUND
        move = free & ~(lower & (grad < 0)) & ~(upper & (grad > 0))
        while True:
            step = _newton_direction(theta, grad, move, design, y, ridge)
            outward = (lower & (step < 0)) | (upper & (step > 0))
            if not outward.any():
                break
            move &= ~outward
        if float(grad @ step) <= _DECREMENT_TOL * (1.0 + abs(ll)):
            return theta
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(theta + t * step, -_BOUND, _BOUND)
            ll_trial, grad_trial = loglik_and_gradient(trial, design, y, ridge=ridge)
            if ll_trial >= ll:
                break
            t *= 0.5
        else:
            return None
        theta, ll, grad = trial, ll_trial, grad_trial
    return None


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
    Every coefficient is kept in [-40, 40].
    """
    basis = basis or CyclicSplineBasis()
    features = np.asarray(features, dtype=float)
    y_raw = np.asarray(inflow_obs, dtype=float)
    if len(y_raw) < min_cases:
        raise InputError(f"{len(y_raw)} training cases is below the minimum of {min_cases}")
    offset = max(0.0, -float(y_raw.min()))
    y = y_raw + offset
    if not (y > 0).any():
        raise InputError("every shifted training inflow is zero; the gamma part cannot be fitted")
    phases = seasonal_phase(np.asarray(dates, dtype="datetime64[D]"), basis.period)
    design = build_design(features, phases, basis)

    # without any zero observations the zero-mass submodel sits on its boundary
    # (nu -> 0); pin it there instead of letting the optimiser crawl to -inf
    pos = y > 0.0
    n_nu = design.x_nu.shape[1]
    pinned = np.zeros(design.n_params)
    varied = np.ones(design.n_params, dtype=bool)  # the coordinates the starts perturb
    if pos.all():
        varied[-n_nu:] = False
        pinned[-n_nu:] = (-30.0, 0.0)
    # a coefficient whose design column is zero on every case that informs it
    # (the positive observations for mu and sigma, all cases for nu) leaves the
    # likelihood flat; pin it at 0 rather than keep whatever the start gave it
    informed = np.concatenate(
        [(design.x_mu[pos] != 0).any(axis=0), (design.x_sigma[pos] != 0).any(axis=0), (design.x_nu != 0).any(axis=0)]
    )
    free = informed & varied

    rng = np.random.default_rng(seed)
    theta0 = np.where(free, _initial_theta(design, y), pinned)
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
        p1 = design.x_mu.shape[1]
        p2 = design.x_sigma.shape[1]
        for intercept, lo, hi in ((0, p1 - design.n_spline, p1), (p1, p1 + p2 - design.n_spline, p1 + p2)):
            shift = out[lo:hi].mean()
            out[lo:hi] -= shift
            out[intercept] += shift
        return out

    candidates = []
    for start in starts:
        fitted = _newton_ascent(start, free, design, y, ridge)
        if fitted is not None:
            theta_full = polish(fitted)
            ll, _ = loglik_and_gradient(theta_full, design, y, ridge=ridge)
            candidates.append((ll, theta_full))
    if not candidates:
        raise NumericalError(
            f"EMOS fit did not converge for horizon {horizon!r} (fold {fold_year!r}) after {n_starts} starts"
        )
    best_ll, theta_hat = max(candidates, key=lambda c: c[0])

    se = None
    if compute_se:
        se = _standard_errors(theta_hat, free, design, y, ridge)

    b1, b2, b3 = design.split(theta_hat)
    return EmosModel(
        beta_mu=b1.copy(),
        beta_sigma=b2.copy(),
        beta_nu=b3.copy(),
        offset=offset,
        basis=basis,
        horizon=horizon,
        fold_year=fold_year,
        n_cases=len(y),
        loglik=best_ll,
        start_logliks=tuple(c[0] for c in candidates),
        standard_errors=se,
    )


def _standard_errors(theta: np.ndarray, free: np.ndarray, design: EmosDesign, y: np.ndarray, ridge: float):
    """Standard errors from the observed information over the free coefficients; NaN for pinned ones."""
    se = np.full(len(theta), np.nan)
    try:
        cov = np.linalg.pinv(information(theta, design, y, ridge)[np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return se
    diag = np.diag(cov)
    se[free] = np.sqrt(np.where(diag < 0, np.nan, diag))
    return se
