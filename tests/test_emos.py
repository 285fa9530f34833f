import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import special

from inflowcast import emos
from inflowcast.cli import main
from inflowcast.emos import (
    EmosModel,
    build_design,
    compute_feature_matrix,
    compute_features,
    expit,
    fit_emos,
    information,
    loglik_and_gradient,
    predict_distribution,
)
from inflowcast.errors import InputError
from inflowcast.splines import CyclicSplineBasis, seasonal_phase


class TestFeatures:
    def test_two_member_hand_case(self):
        # Eqs: mean 1.0; one member <= 0 of two; |0-2| pairs over K^2 = 4/4
        f = compute_features([0.0, 2.0])
        assert f.ens_mean == 1.0
        assert f.frac_nonpos == 0.5
        assert f.mean_abs_diff == 1.0

    def test_constant_positive_members(self):
        f = compute_features([3.3, 3.3, 3.3])
        assert f.ens_mean == pytest.approx(3.3)
        assert f.frac_nonpos == 0.0
        assert f.mean_abs_diff == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        members = rng.normal(0.5, 1.0, (20, 11))
        feats = compute_feature_matrix(members)
        for i in range(20):
            m = members[i]
            k = len(m)
            mad = sum(abs(a - b) for a in m for b in m) / k**2
            assert_allclose(feats[i, 0], m.mean(), rtol=1e-12)
            assert_allclose(feats[i, 1], (m <= 0).mean(), rtol=1e-12)
            assert_allclose(feats[i, 2], mad, rtol=1e-12, atol=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_mean_abs_diff_zero_iff_constant(self, values):
        f = compute_features(values)
        if len(set(values)) == 1:
            assert f.mean_abs_diff == pytest.approx(0.0, abs=1e-12)
        else:
            assert f.mean_abs_diff > 0

    def test_single_member_rejected(self):
        with pytest.raises(InputError):
            compute_features([1.0])


def random_design(rng, n=80, basis=None):
    basis = basis or CyclicSplineBasis(6)
    feats = np.column_stack(
        [rng.normal(1.0, 0.5, n), rng.uniform(0, 0.5, n), rng.uniform(0.02, 0.8, n)]
    )
    phases = rng.uniform(0, basis.period, n)
    return build_design(feats, phases, basis)


def test_expit_matches_scipy():
    x = np.concatenate([np.linspace(-750.0, 750.0, 30001), [0.0, -np.inf, np.inf, np.nan]])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ours = expit(x)
    reference = special.expit(x)
    assert np.array_equal(np.isnan(ours), np.isnan(reference))
    assert np.array_equal(np.isinf(ours), np.isinf(reference))
    ok = reference > 1e-300
    assert_allclose(ours[ok], reference[ok], rtol=1e-14)
    assert ours[x == -np.inf] == 0.0 and ours[x == np.inf] == 1.0


class TestLikelihood:
    def test_single_positive_observation_hand_case(self):
        # nu ~ 0, sigma = 1: loglik = -log(mu) - y/mu; d/dlog(mu) = -1 + y/mu
        basis = CyclicSplineBasis(6)
        design = build_design(np.zeros((1, 3)), np.array([50.0]), basis)
        y = np.array([1.7])
        mu = 2.2
        theta = np.zeros(design.n_params)
        theta[0] = np.log(mu)
        theta[-2] = -30.0
        ll, grad = loglik_and_gradient(theta, design, y, ridge=0.0)
        assert_allclose(ll, -np.log(mu) - y[0] / mu, atol=1e-10)
        assert_allclose(grad[0], -1 + y[0] / mu, rtol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        design = random_design(rng)
        y = np.where(rng.random(80) < 0.2, 0.0, rng.gamma(2.0, 1.0, 80))
        for _ in range(10):
            theta = rng.normal(0, 0.4, design.n_params)
            ll, grad = loglik_and_gradient(theta, design, y)
            fd = np.empty_like(grad)
            for j in range(len(theta)):
                h = 1e-6 * (1 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[j] = (
                    loglik_and_gradient(tp, design, y)[0] - loglik_and_gradient(tm, design, y)[0]
                ) / (2 * h)
            assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_information_matches_finite_differences(self, rng):
        design = random_design(rng)
        y = np.where(rng.random(80) < 0.2, 0.0, rng.gamma(2.0, 1.0, 80))
        for _ in range(10):
            theta = rng.normal(0, 0.4, design.n_params)
            fd = np.empty((design.n_params, design.n_params))
            for j in range(len(theta)):
                h = 1e-6 * (1 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[:, j] = (loglik_and_gradient(tp, design, y)[1] - loglik_and_gradient(tm, design, y)[1]) / (2 * h)
            info = information(theta, design, y)
            assert_allclose(info, info.T, rtol=1e-12)
            assert_allclose(info, -fd, rtol=1e-5, atol=1e-6)

    def test_fisher_information_is_positive_definite_where_observed_is_not(self, rng):
        design = random_design(rng)
        y = np.where(rng.random(80) < 0.2, 0.0, rng.gamma(2.0, 1.0, 80))
        theta = rng.normal(0, 0.4, design.n_params)
        theta[0] = 3.0  # mu far above every observation: the sigma curvature changes sign
        assert np.linalg.eigvalsh(information(theta, design, y)).min() < 0
        assert np.linalg.eigvalsh(information(theta, design, y, expected=True)).min() > 0

    def test_all_zero_batch_favours_high_nu(self, rng):
        design = random_design(rng, n=40)
        y = np.zeros(40)
        theta = np.zeros(design.n_params)
        lo = loglik_and_gradient(theta, design, y)[0]
        theta_hi = theta.copy()
        theta_hi[-2] = 5.0  # push nu towards 1
        hi = loglik_and_gradient(theta_hi, design, y)[0]
        assert hi > lo

    def test_negative_observations_rejected(self, rng):
        design = random_design(rng, n=10)
        with pytest.raises(InputError):
            loglik_and_gradient(np.zeros(design.n_params), design, np.array([-1.0] + [1.0] * 9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observations_rejected(self, rng, bad):
        # a NaN used to count as a positive case in the likelihood (-inf) and as a zero in the information
        design = random_design(rng, n=10)
        y = np.array([bad] + [1.0] * 9)
        theta = np.zeros(design.n_params)
        with pytest.raises(InputError, match="must be finite and >= 0"):
            loglik_and_gradient(theta, design, y)
        with pytest.raises(InputError, match="must be finite and >= 0"):
            information(theta, design, y)


def simulate_training(rng, n=1500, zero_frac=0.15, with_negatives=False):
    basis = CyclicSplineBasis(6)
    feats = np.column_stack(
        [rng.normal(1.0, 0.6, n), rng.uniform(0, 0.4, n), rng.uniform(0.05, 0.8, n)]
    )
    dates = np.datetime64("2009-01-01") + rng.integers(0, 3650, n).astype("timedelta64[D]")
    design = build_design(feats, seasonal_phase(dates), basis)
    g1 = np.array([0.3, -0.1, 0.25, -0.2, -0.15, -0.1])
    g2 = np.array([0.1, 0.05, -0.1, 0.08, -0.05, -0.08])
    b1 = np.concatenate([[0.2, 0.5, -0.4], g1 - g1.mean()])
    b2 = np.concatenate([[-0.6, 0.15, 0.3], g2 - g2.mean()])
    b3 = np.array([special.logit(zero_frac), 0.4])
    mu = np.exp(design.x_mu @ b1)
    sigma = np.exp(design.x_sigma @ b2)
    nu = special.expit(design.x_nu @ b3)
    zero = rng.random(n) < nu
    y = np.where(zero, 0.0, rng.gamma(1 / sigma**2, sigma**2 * mu))
    shift = 0.25 if with_negatives else 0.0
    theta = np.concatenate([b1, b2, b3])
    return feats, dates, y - shift, theta, shift, basis


class TestFit:
    def test_offset_equals_largest_negative(self, rng):
        feats, dates, y, _, shift, basis = simulate_training(rng, n=400, with_negatives=True)
        model = fit_emos(feats, dates, y, basis=basis, min_cases=100, compute_se=False)
        assert_allclose(model.offset, -y.min(), rtol=1e-12)
        assert model.offset > 0

    def test_simulation_recovery(self, rng):
        feats, dates, y, theta_true, _, basis = simulate_training(rng, n=4000)
        model = fit_emos(feats, dates, y, basis=basis)
        se = model.standard_errors
        theta_hat = model.theta
        for t, h, s in zip(theta_true, theta_hat, se):
            rel = abs(h - t) / max(abs(t), 1e-9)
            assert rel <= 0.05 or abs(h - t) <= 3 * s

    def test_multi_start_consistency(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=800)
        model = fit_emos(feats, dates, y, basis=basis, n_starts=3, compute_se=False)
        spread = max(model.start_logliks) - min(model.start_logliks)
        assert spread <= 1e-6

    def test_no_seasonal_signal_gives_small_seasonal_term(self, rng):
        n = 3000
        basis = CyclicSplineBasis(6)
        feats = np.tile([[1.0, 0.0, 0.3]], (n, 1))
        dates = np.datetime64("2009-01-01") + rng.integers(0, 3650, n).astype("timedelta64[D]")
        y = rng.gamma(4.0, 0.5, n)  # mu = 2, sigma = 0.5, no seasonality
        model = fit_emos(feats, dates, y, basis=basis, compute_se=False)
        # the ridge pins the constant direction; residual wiggle is sampling noise
        assert abs(model.beta_mu[3:].mean()) < 0.02
        assert abs(model.beta_sigma[3:].mean()) < 0.02
        grid = basis.design(np.linspace(0, basis.period, 400))
        assert np.abs(grid @ model.beta_mu[3:]).max() < 0.2
        assert np.abs(grid @ model.beta_sigma[3:]).max() < 0.2

    def test_too_few_cases_rejected(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=50)
        with pytest.raises(InputError):
            fit_emos(feats, dates, y, basis=basis, min_cases=100)

    def test_observations_must_align_with_features(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400)
        with pytest.raises(InputError, match="400 feature rows but inflow_obs has shape"):
            fit_emos(feats, dates, np.concatenate([y, y[:4]]), basis=basis, compute_se=False)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name, bad",
        [
            pytest.param("inflow_obs", np.nan, id="inflow_obs-nan"),
            pytest.param("inflow_obs", np.inf, id="inflow_obs-inf"),
            pytest.param("features", np.nan, id="features-nan"),
            pytest.param("dates", np.datetime64("NaT"), id="dates-nat"),
        ],
    )
    def test_non_finite_input_rejected(self, rng, name, bad):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400)
        inputs = {"features": feats, "dates": dates, "inflow_obs": y}
        np.put(inputs[name], 7, bad)
        with pytest.raises(InputError, match=f"{name} must be finite: 1 of {inputs[name].size} entries"):
            fit_emos(**inputs, basis=basis, compute_se=False)

    @pytest.mark.parametrize("n_starts", [0, -2])
    def test_no_start_rejected(self, rng, n_starts):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400)
        with pytest.raises(InputError, match=f"n_starts must be at least 1, got {n_starts}"):
            fit_emos(feats, dates, y, basis=basis, n_starts=n_starts, compute_se=False)

    def test_accepted_points_give_the_public_likelihood_and_information(self, rng, monkeypatch):
        # every Newton step solves with the information built from the terms of
        # the point it accepted; the public functions recompute both from theta
        evaluations, directions = {}, []
        evaluate, direction = emos._evaluate, emos._newton_direction

        def recording_evaluate(theta, design, y, ridge):
            out = evaluate(theta, design, y, ridge)
            evaluations[id(out[2])] = (theta.copy(), design, y, ridge, out)
            return out

        def recording_direction(terms, grad, move, design, ridge):
            directions.append(evaluations[id(terms)])
            return direction(terms, grad, move, design, ridge)

        monkeypatch.setattr(emos, "_evaluate", recording_evaluate)
        monkeypatch.setattr(emos, "_newton_direction", recording_direction)
        feats, dates, y, _, _, basis = simulate_training(rng, n=600)
        fit_emos(feats, dates, y, basis=basis, compute_se=False)
        assert len(directions) > 10
        for theta, design, y_fit, ridge, (ll, grad, terms) in directions:
            ll_public, grad_public = loglik_and_gradient(theta, design, y_fit, ridge)
            assert ll == ll_public and np.array_equal(grad, grad_public)
            for expected in (False, True):
                built = emos._information(terms, design, ridge, expected)
                assert np.array_equal(built, information(theta, design, y_fit, ridge, expected))

    def test_no_zero_cases_pins_atom_probability(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400, zero_frac=1e-9)
        assert (y <= 0).sum() == 0
        model = fit_emos(feats, dates, y, basis=basis, min_cases=100, compute_se=False)
        mu, sigma, nu = model.params_for(feats[:5], seasonal_phase(dates[:5]))
        assert np.all(nu < 1e-10)

    def test_all_zero_design_column_pinned_at_zero(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400)
        feats[:, 1] = 0.0  # frac_nonpos: every training ensemble has all members positive
        models = [fit_emos(feats, dates, y, basis=basis, min_cases=100, seed=seed) for seed in (1, 2)]
        held_out = np.column_stack([feats[:20, 0], np.linspace(0.1, 0.9, 20), feats[:20, 2]])
        phases = seasonal_phase(dates[:20])
        for model in models:
            assert model.beta_mu[2] == 0.0
            assert len(model.start_logliks) == 3
            assert np.isnan(model.standard_errors[2])
            assert np.isfinite(np.delete(model.standard_errors, 2)).all()
        for a, b in zip(models[0].params_for(held_out, phases), models[1].params_for(held_out, phases)):
            assert_allclose(a, b, rtol=1e-6)

    def test_quasi_separated_zero_mass_matches_lbfgs_oracle(self, rng):
        from scipy import optimize

        n = 300
        basis = CyclicSplineBasis(6)
        feats = np.column_stack([rng.normal(1.0, 0.6, n), rng.uniform(0, 0.4, n), rng.uniform(0.05, 0.8, n)])
        dates = np.datetime64("2009-01-01") + rng.integers(0, 3650, n).astype("timedelta64[D]")
        mu = np.exp(0.2 + 0.5 * feats[:, 0])
        sigma = np.exp(-0.6 + 0.3 * feats[:, 2])
        y = rng.gamma(1 / sigma**2, sigma**2 * mu)
        y[np.argmax(feats[:, 0])] = 0.0  # the only zero, at the largest ensemble mean
        model = fit_emos(feats, dates, y, basis=basis, min_cases=100, compute_se=False)
        # nu -> 1 at that case and -> 0 elsewhere: the intercept runs to its bound
        assert model.beta_nu[0] == -40.0
        assert len(model.start_logliks) == 3

        design = build_design(feats, seasonal_phase(dates), basis)

        def objective(theta):
            ll, grad = loglik_and_gradient(theta, design, y)
            return (np.inf, np.zeros_like(theta)) if not np.isfinite(ll) else (-ll, -grad)

        start = np.zeros(design.n_params)
        start[-2] = -3.0
        oracle = optimize.minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=[(-40.0, 40.0)] * design.n_params,
            options={"maxiter": 5000, "maxfun": 50000, "ftol": 1e-15, "gtol": 1e-10},
        )
        assert oracle.success
        assert_allclose(oracle.x[-2], -40.0)
        assert model.loglik >= -oracle.fun - 1e-9 * abs(oracle.fun)
        assert_allclose(model.loglik, -oracle.fun, rtol=1e-7)

    def test_serialisation_round_trip(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400, with_negatives=True)
        model = fit_emos(feats, dates, y, basis=basis, min_cases=100, horizon="Forecast Week 1", fold_year=2012, compute_se=False)
        clone = EmosModel.from_dict(model.to_dict())
        assert_allclose(clone.theta, model.theta, rtol=1e-15)
        assert clone.offset == model.offset
        assert clone.horizon == model.horizon
        assert clone.fold_year == model.fold_year
        m1, s1, n1 = model.params_for(feats[:7], seasonal_phase(dates[:7]))
        m2, s2, n2 = clone.params_for(feats[:7], seasonal_phase(dates[:7]))
        assert_allclose(m1, m2, rtol=1e-15)


class TestPredict:
    def test_offset_shifts_user_space(self, rng):
        feats, dates, y, _, _, basis = simulate_training(rng, n=400, with_negatives=True)
        model = fit_emos(feats, dates, y, basis=basis, min_cases=100, compute_se=False)
        dist = predict_distribution(model, compute_features(rng.normal(1, 0.3, 11)), dates[0])
        assert dist.offset == model.offset
        assert_allclose(dist.cdf(-model.offset), dist.nu, rtol=1e-12)

    def test_intercept_only_model_ignores_features(self):
        basis = CyclicSplineBasis(6)
        model = EmosModel(
            beta_mu=np.concatenate([[0.4], np.zeros(2 + 6)]),
            beta_sigma=np.concatenate([[-0.5], np.zeros(2 + 6)]),
            beta_nu=np.array([-2.0, 0.0]),
            offset=0.0,
            basis=basis,
        )
        f1 = compute_features([0.5, 1.0, 2.0])
        f2 = compute_features([5.0, 6.0, 9.0])
        d1 = predict_distribution(model, f1, "2015-03-01")
        d2 = predict_distribution(model, f2, "2015-03-01")
        assert_allclose([d1.mu, d1.sigma, d1.nu], [d2.mu, d2.sigma, d2.nu], rtol=1e-14)

    def test_mu_monotone_in_ensemble_mean(self):
        basis = CyclicSplineBasis(6)
        model = EmosModel(
            beta_mu=np.concatenate([[0.0, 0.8], np.zeros(1 + 6)]),
            beta_sigma=np.concatenate([[-0.3], np.zeros(2 + 6)]),
            beta_nu=np.array([-2.0, 0.0]),
            offset=0.0,
            basis=basis,
        )
        lo = predict_distribution(model, compute_features([0.5, 0.7]), "2015-03-01")
        hi = predict_distribution(model, compute_features([1.5, 1.7]), "2015-03-01")
        assert hi.mu > lo.mu


def test_train_at_refit_seed_105_keeps_every_start(tmp_path):
    # the refit benchmark's scenario at a seed where a start acceptance rule
    # on an absolute gradient bound dropped starts in two of the ten fits
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nyears = 5\nmembers = 5\n\n[horizons]\nnames = Forecast Week 1, 4 Week Forecast\n")
    base = ["--config", str(cfg), "--seed", "105"]
    assert main([*base, "synth", "--out", str(tmp_path)]) == 0
    data = ["--inflow", str(tmp_path / "inflow.csv"), "--ensemble", str(tmp_path / "ensemble.csv")]
    assert main([*base, "train", *data, "--out", str(tmp_path)]) == 0
    fits = json.loads((tmp_path / "models.json").read_text())["emos"]
    assert len(fits) == 10
    for fit in fits:
        assert len(fit["start_logliks"]) == 3, (fit["horizon"], fit["fold_year"])
        assert max(fit["start_logliks"]) - min(fit["start_logliks"]) <= 1e-6
