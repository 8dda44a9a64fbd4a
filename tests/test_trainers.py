import dataclasses
import math

import numpy as np
import pytest

import oracles
from aeroforecast import trainers
from aeroforecast.rnn import (RnnModel, SequenceDataset, forward, forward_states,
                              gradient_sse, init_rnn, loss_mse, prediction_jacobian)
from aeroforecast.trainers import (RnnObjective, TrainConfig, TrainRecord,
                                   _EpochLog, br_least_squares,
                                   lm_least_squares, scg_minimize, train)


def linear_identity_model(seed=0):
    """One identity-activation neuron: y = V*(U*x + W*h_prev + b_h) + b_y."""
    base = init_rnn(1, 1, 1, seed=seed, hidden_activation="identity")
    return base


def noisy_dataset(seed, T=60, n_input=2):
    rng = np.random.default_rng(seed)
    return SequenceDataset(inputs=rng.standard_normal((T, n_input)),
                           targets=rng.standard_normal(T))


class TestLm:
    def test_recovers_linear_regression(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, size=40)
        y = 2.0 * x + 1.0  # noiseless; analytic least squares is exact
        data = SequenceDataset(inputs=x[:, None], targets=y)
        model = linear_identity_model(seed=3)
        cfg = TrainConfig(algorithm="lm", max_epochs=20)
        trained, rec = train(model, data, np.arange(40), [], cfg)
        preds = forward(trained, data)
        slope, intercept = np.polyfit(x, preds, 1)
        assert rec.total_epochs <= 20
        assert slope == pytest.approx(2.0, abs=1e-8)
        assert intercept == pytest.approx(1.0, abs=1e-8)

    def test_already_optimal_start_converges_at_epoch_1(self):
        model = init_rnn(2, 3, 1, seed=4).with_params(np.zeros(6 + 9 + 3 + 3 + 1))
        data = SequenceDataset(inputs=np.random.default_rng(5).standard_normal((20, 2)),
                               targets=np.zeros(20))
        trained, rec = train(model, data, np.arange(20), [], TrainConfig(algorithm="lm"))
        assert rec.total_epochs == 1
        assert rec.stop_reason == "converged"
        assert np.array_equal(trained.params_to_vector(), model.params_to_vector())

    def test_exponential_fit_matches_refined_grid_oracle(self):
        rng = np.random.default_rng(6)
        t = np.arange(20, dtype=float)
        y = 2.0 * np.exp(-0.3 * t) + 0.01 * rng.standard_normal(20)

        def residuals(theta):
            return theta[0] * np.exp(-theta[1] * t) - y

        def jacobian(theta):
            J = np.empty((20, 2))
            J[:, 0] = np.exp(-theta[1] * t)
            J[:, 1] = -theta[0] * t * np.exp(-theta[1] * t)
            return J

        theta, rec = lm_least_squares(residuals, jacobian,
                                      np.array([1.0, 0.1]), TrainConfig())
        lm_sse = float(residuals(theta) @ residuals(theta))

        def sse_at(a, b):
            r = a * np.exp(-b * t) - y
            return float(r @ r)

        center, span = np.array([1.5, 0.5]), np.array([1.5, 0.5])
        best = None
        for _ in range(8):  # iteratively refined dense grid
            grid_a = np.linspace(center[0] - span[0], center[0] + span[0], 21)
            grid_b = np.linspace(center[1] - span[1], center[1] + span[1], 21)
            best = min((sse_at(a, b), a, b) for a in grid_a for b in grid_b)
            center = np.array([best[1], best[2]])
            span = span * 0.2
        assert abs(lm_sse - best[0]) <= 1e-6

    def test_accepted_steps_strictly_decrease_sse(self):
        model = init_rnn(2, 4, 1, seed=7)
        data = noisy_dataset(8)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="lm", max_epochs=50))
        assert rec.step_deltas and max(rec.step_deltas) < 0
        # the recorded train curve never increases for LM
        assert all(b <= a + 1e-15 for a, b in zip(rec.train_mse, rec.train_mse[1:]))


class TestScg:
    def test_quadratic_reaches_direct_solve_optimum(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((10, 10))
        A = M @ M.T + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        theta_star = np.linalg.solve(A, b)

        def f(theta):
            return 0.5 * float(theta @ A @ theta) - float(b @ theta)

        def g(theta):
            return A @ theta - b

        theta, rec = scg_minimize(f, g, np.zeros(10),
                                  TrainConfig(algorithm="scg", max_epochs=30))
        assert rec.total_epochs <= 30
        assert np.abs(theta - theta_star).max() <= 1e-6

    def test_start_at_optimum_immediate_convergence(self):
        A = np.eye(3)

        def f(theta):
            return 0.5 * float(theta @ A @ theta)

        def g(theta):
            return A @ theta

        theta, rec = scg_minimize(f, g, np.zeros(3), TrainConfig(algorithm="scg"))
        assert rec.total_epochs == 1
        assert rec.stop_reason == "converged"

    def test_accepted_steps_never_increase_mse(self):
        model = init_rnn(2, 4, 1, seed=10)
        data = noisy_dataset(11)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="scg", max_epochs=80))
        assert rec.step_deltas and max(rec.step_deltas) <= 0


class TestBr:
    def test_first_evidence_update_gamma_equals_n_params(self):
        # alpha starts at 0, so gamma = P - 2*alpha*tr(H^-1) = P exactly
        model = init_rnn(2, 3, 1, seed=12)
        data = noisy_dataset(13)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="br", max_epochs=5))
        assert rec.gammas
        assert rec.gammas[0] == float(model.n_params)

    def test_gamma_stays_in_bounds(self):
        for seed in range(6):
            model = init_rnn(2, 3, 1, seed=20 + seed)
            data = noisy_dataset(30 + seed)
            _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                           TrainConfig(algorithm="br", max_epochs=30))
            assert all(0.0 <= g <= model.n_params for g in rec.gammas)

    def test_accepted_steps_decrease_objective(self):
        model = init_rnn(2, 4, 1, seed=14)
        data = noisy_dataset(15)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="br", max_epochs=40))
        assert rec.step_deltas and max(rec.step_deltas) < 0

    def test_regularization_pulls_weight_norm_down(self):
        # pure-noise targets: BR's weight decay should often yield a
        # smaller final weight norm than plain LM on the same start
        wins = 0
        for seed in range(20):
            model = init_rnn(2, 3, 1, seed=100 + seed)
            data = noisy_dataset(200 + seed, T=50)
            idx, val = np.arange(35), np.arange(35, 50)
            cfg = TrainConfig(max_epochs=60)
            lm_model, _ = train(model, data, idx, val, dataclasses.replace(cfg, algorithm="lm"))
            br_model, _ = train(model, data, idx, val, dataclasses.replace(cfg, algorithm="br"))
            lm_norm = float(np.linalg.norm(lm_model.params_to_vector()))
            br_norm = float(np.linalg.norm(br_model.params_to_vector()))
            wins += br_norm <= lm_norm
        assert wins > 10

    def test_no_validation_early_stop_by_default(self):
        model = init_rnn(2, 3, 1, seed=16)
        data = noisy_dataset(17)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="br", max_epochs=25))
        assert rec.stop_reason != "val_patience"
        assert not np.isnan(rec.val_mse).any()  # still recorded


class TestSharedBehavior:
    @pytest.mark.parametrize("algo", ["lm", "br", "scg"])
    def test_best_validation_snapshot(self, algo):
        model = init_rnn(2, 4, 1, seed=18)
        data = noisy_dataset(19)
        idx, val = np.arange(40), np.arange(40, 60)
        trained, rec = train(model, data, idx, val,
                             TrainConfig(algorithm=algo, max_epochs=40))
        preds = forward(trained, data)
        returned_val = loss_mse(preds[val], data.targets[val])
        assert returned_val <= min(rec.val_mse) + 1e-12
        assert rec.best_epoch <= rec.total_epochs

    @pytest.mark.parametrize("algo", ["lm", "br", "scg"])
    def test_determinism(self, algo):
        model = init_rnn(2, 3, 1, seed=21)
        data = noisy_dataset(22)
        idx, val = np.arange(40), np.arange(40, 60)
        cfg = TrainConfig(algorithm=algo, max_epochs=25)
        m1, r1 = train(model, data, idx, val, cfg)
        m2, r2 = train(model, data, idx, val, cfg)
        assert r1.train_mse == r2.train_mse
        assert r1.val_mse == r2.val_mse
        assert r1.total_epochs == r2.total_epochs
        assert r1.best_epoch == r2.best_epoch
        assert np.array_equal(m1.params_to_vector(), m2.params_to_vector())

    @pytest.mark.parametrize("algo", ["lm", "br", "scg"])
    def test_epoch_cap(self, algo):
        model = init_rnn(2, 3, 1, seed=23)
        data = noisy_dataset(24)
        _, rec = train(model, data, np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm=algo, max_epochs=15))
        assert rec.total_epochs <= 15
        assert len(rec.train_mse) == rec.total_epochs == len(rec.val_mse)

    def test_empty_training_set_rejected(self):
        model = init_rnn(2, 3, 1, seed=25)
        data = noisy_dataset(26)
        for algo in ("lm", "br", "scg"):
            with pytest.raises(ValueError, match="empty"):
                train(model, data, [], [], TrainConfig(algorithm=algo))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            TrainConfig(algorithm="adam")
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="grad_tol"):
            TrainConfig(grad_tol=0.0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainConfig)
                                      if isinstance(f.default, float)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, name, bad):
        # mu_max = inf let mu overflow to inf and the damping loop run forever
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: bad})

    def test_damping_growth_and_patience_validated(self):
        # mu_inc <= 1 never lets mu pass mu_max, so rejection loops forever
        for bad in (1.0, 0.5):
            with pytest.raises(ValueError, match="mu_inc"):
                TrainConfig(mu_inc=bad)
        with pytest.raises(ValueError, match="val_patience"):
            TrainConfig(val_patience=0)

    @pytest.mark.parametrize("core, name", [(lm_least_squares, "LM"),
                                            (br_least_squares, "BR")])
    def test_non_finite_residuals_name_the_algorithm(self, core, name):
        with pytest.raises(FloatingPointError, match=f"during {name} training"):
            core(lambda theta: np.array([1.0, math.nan, 2.0]),
                 lambda theta: np.ones((3, 2)), np.zeros(2), TrainConfig())


def recorded(obj, requests):
    """The answer of ``obj`` to each kind, appending the kind to
    ``requests`` before it answers."""
    def answer(kind):
        def call(theta):
            requests.append(kind)
            return getattr(obj, kind)(theta)
        return call
    return answer


class TestLastEpochTakesNoStep:
    """An epoch that ends the run, by the epoch budget or by the validation
    patience, is logged and then stops: a step searched there would never
    be logged or returned, so its Jacobian, gradient and trial points are
    not requested."""

    @staticmethod
    def run(algo, cfg, seed):
        model = init_rnn(2, 3, 1, seed=seed)
        obj = RnnObjective(model, noisy_dataset(seed + 100), np.arange(40), np.arange(40, 60))
        requests = []
        answer = recorded(obj, requests)
        theta0 = model.params_to_vector()
        cfg = dataclasses.replace(cfg, algorithm=algo)
        if algo == "scg":
            _, rec = scg_minimize(answer("train_mse"), answer("gradient"), theta0, cfg,
                                  answer("val_mse"))
        else:
            core = lm_least_squares if algo == "lm" else br_least_squares
            _, rec = core(answer("residuals"), answer("jacobian"), theta0, cfg,
                          answer("val_mse"))
        return rec, requests

    @pytest.mark.parametrize("max_epochs", [1, 2, 5])
    @pytest.mark.parametrize("algo", ["lm", "br"])
    def test_gauss_newton_forms_one_jacobian_fewer_than_its_epochs(self, algo, max_epochs):
        rec, requests = self.run(algo, TrainConfig(max_epochs=max_epochs, val_patience=100), 41)
        assert rec.stop_reason == "max_epochs" and rec.total_epochs == max_epochs
        assert requests.count("jacobian") == max_epochs - 1
        assert len(rec.step_deltas) == max_epochs - 1
        assert requests[-1] == "val_mse"  # nothing after the last log

    @pytest.mark.parametrize("max_epochs", [1, 2, 5])
    def test_scg_makes_no_request_after_its_last_log(self, max_epochs):
        rec, requests = self.run("scg", TrainConfig(max_epochs=max_epochs, val_patience=100), 41)
        assert rec.stop_reason == "max_epochs" and rec.total_epochs == max_epochs
        assert requests.count("val_mse") == max_epochs
        assert requests[-1] == "val_mse"

    def test_scg_asks_no_gradient_after_its_second_to_last_step(self):
        """The gradient at a point accepted in the second-to-last epoch
        would only serve a step of the last epoch, which takes none."""
        rec, requests = self.run("scg", TrainConfig(max_epochs=3, val_patience=100), 41)
        assert rec.stop_reason == "max_epochs" and len(rec.step_deltas) == 2
        # at the start, at each step's curvature probe, and at the first step's point
        assert requests.count("gradient") == 4

    @pytest.mark.parametrize("algo", ["lm", "br"])
    def test_epoch_that_trips_val_patience_forms_no_jacobian(self, algo):
        cfg = TrainConfig(max_epochs=40, val_patience=1, br_val_stop=True)
        rec, requests = self.run(algo, cfg, 44)
        assert rec.stop_reason == "val_patience" and rec.total_epochs < 40
        assert requests.count("jacobian") == rec.total_epochs - 1
        assert requests[-1] == "val_mse"

    @pytest.mark.parametrize("max_epochs", [2, 3])
    def test_br_inverts_no_hessian_in_its_first_epochs(self, monkeypatch, max_epochs):
        """The first re-estimation, at alpha = 0, gives gamma = P without
        inverting H; at max_epochs = 2 the run makes no re-estimation."""
        def no_inverse(a):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(trainers.np.linalg, "inv", no_inverse)
        model = init_rnn(2, 3, 1, seed=12)
        _, rec = train(model, noisy_dataset(13), np.arange(40), np.arange(40, 60),
                       TrainConfig(algorithm="br", max_epochs=max_epochs))
        assert rec.stop_reason == "max_epochs" and rec.total_epochs == max_epochs
        assert rec.gammas == [float(model.n_params)] * (max_epochs - 2)


class TestDampingOverflow:
    """Cores whose objective can never decrease: every trial is rejected
    until the damping passes its cap, which is not convergence."""

    @staticmethod
    def constant_residuals(theta):
        return np.array([1.0, -2.0, 0.5, 3.0])

    @staticmethod
    def ones_jacobian(theta):
        return np.ones((4, 3))  # a nonzero gradient, so no gradient stop

    @pytest.mark.parametrize("core", [lm_least_squares, br_least_squares])
    def test_lm_and_br_report_damping_overflow(self, core):
        _, rec = core(self.constant_residuals, self.ones_jacobian, np.ones(3),
                      TrainConfig(max_epochs=50))
        assert rec.stop_reason == "damping_overflow"
        assert rec.total_epochs == 1
        assert rec.step_deltas == []
        assert rec.notes == ["mu exceeded mu_max=10000000000.0"]

    def test_scg_reports_damping_overflow(self):
        # theta = 0 minimizes |theta|^2, so every step along the (wrong)
        # gradient raises the objective and lambda grows past 1e20.
        _, rec = scg_minimize(lambda theta: float(theta @ theta),
                              lambda theta: np.array([1.0, 2.0, -1.0]),
                              np.zeros(3), TrainConfig(algorithm="scg", max_epochs=1000))
        assert rec.stop_reason == "damping_overflow"
        assert rec.total_epochs < 1000
        assert rec.step_deltas == []
        assert rec.notes == ["lambda overflow; no improving step found"]


class TestRnnObjective:
    def test_cache_refreshes_on_new_theta(self):
        model = init_rnn(2, 3, 1, seed=29)
        data = noisy_dataset(30, T=30)
        obj = RnnObjective(model, data, np.arange(20), np.arange(20, 30))
        theta = model.params_to_vector()
        first = obj.states(theta)
        assert obj.states(theta.copy()) is first  # same bytes: cache hit
        moved = theta + 0.1
        H, preds = obj.states(moved)
        assert H is not first[0]
        want_H, want_preds = forward_states(model.with_params(moved), data)
        assert np.array_equal(H, want_H) and np.array_equal(preds, want_preds)
        assert np.array_equal(obj.residuals(moved), want_preds[:20] - data.targets[:20])
        assert obj.val_mse(moved) == loss_mse(want_preds[20:], data.targets[20:])
        # back at the first point, everything matches a fresh evaluation
        assert np.array_equal(obj.jacobian(theta),
                              prediction_jacobian(model, data, np.arange(20)))
        assert np.array_equal(obj.gradient(theta),
                              gradient_sse(model, data, np.arange(20)) / 20)
        assert obj.train_mse(theta) == loss_mse(forward(model, data)[:20],
                                                data.targets[:20])

    def test_overflowing_trial_point_gives_infinite_residual(self):
        # identity hidden units: W scaled by 1e100 overflows within a few steps
        model = init_rnn(2, 3, 1, seed=31, hidden_activation="identity")
        data = noisy_dataset(32, T=30)
        obj = RnnObjective(model, data, np.arange(20), [])
        theta = model.params_to_vector()
        big = theta.copy()
        big[6:15] *= 1e100  # W follows the 3 x 2 U in the layout
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                forward(model.with_params(big), data)
            r = obj.residuals(big)
            assert r.shape == (20,) and np.isinf(r).all()
            assert obj.train_mse(big) == math.inf
        assert (obj.val_mse if len(obj.val_idx) else None) is None
        # a finite point after the failure is evaluated afresh
        assert np.array_equal(obj.residuals(theta),
                              forward(model, data)[:20] - data.targets[:20])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_trial_point_gives_infinite_residual(self, bad):
        """A non-finite parameter vector is rejected like an overflowing
        one, not raised as the model's ValueError, which would fail the
        whole repeat."""
        model = init_rnn(2, 3, 1, seed=33)
        data = noisy_dataset(34, T=30)
        obj = RnnObjective(model, data, np.arange(20), np.arange(20, 30))
        theta = model.params_to_vector()
        trial = theta.copy()
        trial[0] = bad
        r = obj.residuals(trial)
        assert r.shape == (20,) and np.isinf(r).all()
        assert obj.train_mse(trial) == math.inf
        with pytest.raises(FloatingPointError):
            obj.states(trial)
        assert np.array_equal(obj.residuals(theta),
                              forward(model, data)[:20] - data.targets[:20])


class TestEpochLog:
    def test_patience_counts_consecutive_increases(self):
        vals = iter([1.0, 0.9, 0.95, 1.0, 1.05, 1.1])
        log = _EpochLog(patience=3)
        theta = np.zeros(2)
        trips = [log.log(0.0, theta, val=next(vals)) for _ in range(6)]
        # increases at epochs 3,4,5,6; third consecutive increase trips
        assert trips == [False, False, False, False, True, True]
        assert log.record.best_epoch == 2

    def test_no_patience_without_validation(self):
        log = _EpochLog(patience=2)
        theta = np.zeros(1)
        assert not any(log.log(v, theta) for v in [1.0, 2.0, 3.0, 4.0])
        assert log.record.best_epoch == 1  # lowest train MSE


def assert_same_run(got, want):
    """Equal weights and every TrainRecord field but the wall time, bit for bit."""
    (theta, rec), (want_theta, want_rec) = got, want
    assert theta.tobytes() == want_theta.tobytes()
    for f in dataclasses.fields(TrainRecord):
        if f.name != "seconds":
            a, b = getattr(rec, f.name), getattr(want_rec, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert repr(a) == repr(b), f.name  # repr: NaN equals NaN


LEAST_SQUARES_VARIANTS = {
    "lm": (lm_least_squares, oracles.lm_least_squares, {}),
    "br": (br_least_squares, oracles.br_least_squares, {}),
    "br_val_stop": (br_least_squares, oracles.br_least_squares,
                    {"br_val_stop": True, "val_patience": 2}),
}


class TestSharedLeastSquaresCore:
    """LM and BR run through one damped Gauss-Newton core; the separate
    loops it replaced (``oracles``) give the same records and weights."""

    @pytest.mark.parametrize("variant", sorted(LEAST_SQUARES_VARIANTS))
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_separate_loops_on_rnn_problems(self, seed, variant):
        rng = np.random.default_rng(1000 + seed)
        n_input, n_hidden = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        T = int(rng.integers(30, 70))
        activation = "identity" if seed % 7 == 3 else "tanh"
        model = init_rnn(n_input, n_hidden, 1, seed=seed, hidden_activation=activation)
        data = noisy_dataset(2000 + seed, T=T, n_input=n_input)
        order = rng.permutation(T)
        n_train = int(0.7 * T)
        train_idx = order[:n_train]
        val_idx = order[n_train:] if seed % 5 else []  # some runs without validation
        core, reference, overrides = LEAST_SQUARES_VARIANTS[variant]
        cfg = TrainConfig(max_epochs=30, **overrides)
        if seed % 2:
            cfg = dataclasses.replace(cfg, mu0=1.0, mu_inc=4.0, mu_dec=0.3, grad_tol=1e-4)
        extra = {} if variant == "lm" else {"n_samples": n_train}
        runs = []
        for fn in (core, reference):
            obj = RnnObjective(model, data, train_idx, val_idx)
            runs.append(fn(obj.residuals, obj.jacobian, model.params_to_vector(), cfg,
                           obj.val_mse if len(obj.val_idx) else None, **extra))
        assert_same_run(*runs)

    @pytest.mark.parametrize("variant", sorted(LEAST_SQUARES_VARIANTS))
    def test_matches_separate_loops_on_damping_overflow(self, variant):
        core, reference, overrides = LEAST_SQUARES_VARIANTS[variant]
        cfg = TrainConfig(max_epochs=50, **overrides)
        runs = [fn(TestDampingOverflow.constant_residuals, TestDampingOverflow.ones_jacobian,
                   np.ones(3), cfg) for fn in (core, reference)]
        assert_same_run(*runs)


class TestGramSpectrum:
    """With fewer residuals than weights (N < P), the damped trial steps
    and BR's gamma come from one eigendecomposition of the N x N Gram
    matrix JJ'.  They agree with the P x P solve and inverse, computed
    independently, and training makes neither."""

    @staticmethod
    def problem(seed, n=20, n_params=60):
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((n, n_params)) * rng.uniform(0.1, 3.0, size=n_params)
        return J, rng.standard_normal(n), rng.standard_normal(n_params)

    @pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.0, 0.03, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_trial_step_matches_the_primal_solve(self, seed, alpha, mu):
        J, r, theta = self.problem(seed)
        beta = 1.0 if alpha == 0.0 else 0.7
        step = trainers._dual_steps(*trainers._gram_spectrum(J, r), theta, alpha, beta)
        want = np.linalg.solve(beta * (J.T @ J) + (alpha + mu) * np.eye(theta.size),
                               -(beta * (J.T @ r) + alpha * theta))
        assert np.linalg.norm(step(mu) - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_gamma_matches_the_trace_of_the_inverse(self, seed, alpha):
        J, r, theta = self.problem(seed)
        beta, n_params = 1.3, theta.size
        rec = TrainRecord()
        lam = trainers._gram_spectrum(J, r)[0]
        trainers._evidence_update(lam, theta, 5.0, len(r), alpha, beta, 1e-3, rec)
        H = 2.0 * beta * (J.T @ J) + 2.0 * alpha * np.eye(n_params)
        want = n_params - 2.0 * alpha * float(np.trace(np.linalg.inv(H)))
        assert rec.gammas == [pytest.approx(want, rel=1e-9)]
        assert 0.0 <= rec.gammas[0] <= len(r)
        assert rec.notes == []

    @pytest.mark.parametrize("algorithm", ["lm", "br"])
    def test_trains_without_a_p_by_p_solve_or_inverse(self, monkeypatch, algorithm):
        def refuse(*args, **kwargs):
            raise AssertionError("P x P solve or inverse with fewer rows than weights")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        model = init_rnn(2, 6, 1, seed=5)
        data = noisy_dataset(9, T=60, n_input=2)
        train_idx = np.arange(40)
        assert len(train_idx) < model.n_params  # 40 rows, 61 weights
        _, rec = train(model, data, train_idx, np.arange(40, 50),
                       TrainConfig(algorithm=algorithm, max_epochs=15))
        assert rec.step_deltas
        if algorithm == "br":  # re-estimated at alpha > 0: gamma bounded by the row count
            assert len(rec.gammas) > 1 and rec.gammas[-1] <= len(train_idx)
