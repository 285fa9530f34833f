"""Reference EMOS ascent: one start at a time, the formulation `inflowcast.emos._ascend` replaced.

``newton_ascent`` and ``newton_direction`` are the per-start damped,
projected Newton ascent and its direction solve as they were before the
starts ran in lockstep.  The one change: a point is evaluated by the stacked
``evaluate``, ``derivatives`` and ``fisher`` of the fit's ``emos._Likelihood``
with one row, where it used to be evaluated by one-point functions.  Tests
compare every start of ``_ascend`` with this oracle bit for bit.

``calls`` counts the oracle's work: ``"fisher"`` the direction solves that
fell back to the Fisher information.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from inflowcast import emos

calls: Counter = Counter()


def evaluate(theta, lik):
    """(log-likelihood, gradient, (observed, Fisher) information) at one point; (-inf, 0, None) where not finite."""
    lls, terms = lik.evaluate(theta[None])
    if not np.isfinite(lls[0]):
        return -np.inf, np.zeros_like(theta), None
    grad, observed = lik.derivatives(theta[None], terms)
    return lls[0], grad[0], (observed[0], lik.fisher(terms)[0])


def newton_direction(terms, grad, move) -> np.ndarray:
    """Newton step over the ``move`` coordinates, zero elsewhere, at the point with information ``terms``."""
    observed, fisher = terms
    sub = np.ix_(move, move)
    step = np.zeros_like(grad)
    try:
        chol = np.linalg.cholesky(observed[sub])
        step[move] = np.linalg.solve(chol.T, np.linalg.solve(chol, grad[move]))
    except np.linalg.LinAlgError:
        calls["fisher"] += 1
        step[move] = np.linalg.pinv(fisher[sub], hermitian=True) @ grad[move]
    return step


def newton_ascent(theta, free, lik):
    """Damped, projected Newton ascent over the ``free`` coordinates in the box.

    A coordinate on a bound whose gradient, or whose Newton step, points out
    of the box stays on the bound for that step.  Each step is halved until
    the log-likelihood does not fall.  Returns the final coefficients, or
    None when the start does not converge.
    """
    ll, grad, terms = evaluate(theta, lik)
    if not np.isfinite(ll):
        return None
    for _ in range(emos._MAX_STEPS):
        lower, upper = theta <= -emos._BOUND, theta >= emos._BOUND
        move = free & ~(lower & (grad < 0)) & ~(upper & (grad > 0))
        while True:
            step = newton_direction(terms, grad, move)
            outward = (lower & (step < 0)) | (upper & (step > 0))
            if not outward.any():
                break
            move &= ~outward
        if float(grad @ step) <= emos._DECREMENT_TOL * (1.0 + abs(ll)):
            return theta
        t = 1.0
        for _ in range(emos._MAX_HALVINGS):
            trial = np.clip(theta + t * step, -emos._BOUND, emos._BOUND)
            ll_trial, grad_trial, terms_trial = evaluate(trial, lik)
            if ll_trial >= ll:
                break
            t *= 0.5
        else:
            return None
        theta, ll, grad, terms = trial, ll_trial, grad_trial, terms_trial
    return None
