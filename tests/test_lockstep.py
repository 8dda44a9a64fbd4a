"""Lockstep training gives every repeat the bytes it gets alone.

The recurrent kernels take parameter sets stacked on a leading axis, and
``trainers.train_repeats`` answers the requests of all repeats of a cell
with one stacked call per kind.  ``oracles`` keeps the single-set loops
they replaced and trains each repeat by itself through them
(``oracles.train_alone``).  Weights, every TrainRecord and RepeatResult
field but the wall time, and the error of a failing repeat must match
bit for bit.
"""

import dataclasses

import numpy as np
import pytest

import aeroforecast.experiments as exp
import aeroforecast.trainers as trainers
import oracles
from aeroforecast.experiments import ExperimentSpec
from aeroforecast.rnn import (_PRODUCT_STEPS, SequenceDataset, forward_states, gradient_sse,
                              init_rnn, jacobian_products, prediction_jacobian)
from aeroforecast.trainers import GAUSS_NEWTON_BYTES, TrainConfig, TrainRecord, train_repeats
from helpers import make_bundle


def outcome_text(exc):
    return f"{type(exc).__name__}: {exc}"


def assert_same_record(rec, want):
    for f in dataclasses.fields(TrainRecord):
        if f.name != "seconds":
            a, b = getattr(rec, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert repr(a) == repr(b), f.name  # repr: NaN equals NaN


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert isinstance(got, Exception), f"no error where training alone raised {want!r}"
        assert outcome_text(got) == outcome_text(want)
        return
    assert not isinstance(got, Exception), got
    (model, rec), (want_model, want_rec) = got, want
    assert model.params_to_vector().tobytes() == want_model.params_to_vector().tobytes()
    assert_same_record(rec, want_rec)


def stacked_problem(seed, R, n_input, n_hidden, T, activation="tanh", per_set=False):
    """R models of one shape, and shared or per-set noise sequences."""
    rng = np.random.default_rng(seed)
    models = [init_rnn(n_input, n_hidden, 1, seed=seed * 100 + r, hidden_activation=activation)
              for r in range(R)]
    if per_set:
        datas = [SequenceDataset(rng.standard_normal((T, n_input)), rng.standard_normal(T))
                 for _ in range(R)]
    else:
        datas = [SequenceDataset(rng.standard_normal((T, n_input)), rng.standard_normal(T))] * R
    n_train, n_val = int(0.7 * T), int(0.15 * T)
    orders = [rng.permutation(T) for _ in range(R)]
    trains = [o[:n_train] for o in orders]
    vals = [o[n_train:n_train + n_val] for o in orders]
    return models, datas, trains, vals


def stack(models, datas, per_set):
    """The stacked model of ``models``, and their dataset: shared, or stacked per set."""
    stacked = models[0].with_params(np.stack([m.params_to_vector() for m in models]))
    data = datas[0] if not per_set else SequenceDataset(
        np.stack([d.inputs for d in datas]), np.stack([d.targets for d in datas]))
    return stacked, data


class TestStackedKernels:
    @pytest.mark.parametrize("R", [1, 2, 3, 10])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("per_set", [False, True])
    def test_each_set_matches_the_single_set_loops(self, R, activation, per_set):
        # 150 steps: the gradient's in-order sums span three 64-step chunks
        models, datas, trains, _ = stacked_problem(7 + R, R, 3, 5, 150, activation, per_set)
        stacked, data = stack(models, datas, per_set)
        rows = np.stack(trains)
        H, preds = forward_states(stacked, data)
        grads = gradient_sse(stacked, data, rows)
        full = gradient_sse(stacked, data)
        jacobians = prediction_jacobian(stacked, data, rows)
        assert len(jacobians) == R
        for r, (model, d) in enumerate(zip(models, datas)):
            want_H, want_preds = oracles.forward_states(model, d)
            assert H[r].tobytes() == want_H.tobytes()
            assert preds[r].tobytes() == want_preds.tobytes()
            assert grads[r].tobytes() == oracles.gradient_sse(model, d, trains[r]).tobytes()
            assert full[r].tobytes() == oracles.gradient_sse(model, d).tobytes()
            want_J = oracles.prediction_jacobian(model, d, trains[r])
            assert jacobians[r].tobytes() == want_J.tobytes()
            assert prediction_jacobian(model, d, trains[r]).tobytes() == want_J.tobytes()

    @pytest.mark.parametrize("R", [2, 3])
    @pytest.mark.parametrize("T", [1, 2])
    def test_one_and_two_step_series(self, R, T):
        """A series of one or two steps: each loop runs once or twice, and
        with one step the sum over t > 0 that forms dW is empty."""
        models, datas, _, _ = stacked_problem(70 + T, R, 3, 5, T, per_set=True)
        stacked, data = stack(models, datas, per_set=True)
        rows = np.stack([np.random.default_rng(r).permutation(T) for r in range(R)])
        H, preds = forward_states(stacked, data)
        grads = gradient_sse(stacked, data, rows)
        jacobians = prediction_jacobian(stacked, data, rows)
        JJ, Je = jacobian_products(stacked, data, rows)
        for r, (model, d) in enumerate(zip(models, datas)):
            want_H, want_preds = oracles.forward_states(model, d)
            assert H[r].tobytes() == want_H.tobytes()
            assert preds[r].tobytes() == want_preds.tobytes()
            assert grads[r].tobytes() == oracles.gradient_sse(model, d, rows[r]).tobytes()
            J = oracles.prediction_jacobian(model, d, rows[r])
            assert jacobians[r].tobytes() == J.tobytes()
            want_JJ, want_Je = oracles.plain_products(J, want_preds[rows[r]] - d.targets[rows[r]])
            assert JJ[r].tobytes() == want_JJ.tobytes() and Je[r].tobytes() == want_Je.tobytes()

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("per_set", [False, True])
    def test_calls_leave_their_arguments_unchanged(self, R, per_set):
        """The kernels write their time-major buffers in place, and
        ``trainers._prefetch`` caches the states that the forward pass
        returns: no call may write to the dataset, the weights or the
        states it is passed, and H and the predictions come back
        C-contiguous."""
        models, datas, trains, _ = stacked_problem(80 + R, R, 3, 5, 150, per_set=per_set)
        stacked, data = stack(models, datas, per_set)
        model, rows = (stacked, np.stack(trains)) if R > 1 else (models[0], trains[0])
        given = [a.tobytes() for a in (data.inputs, data.targets, model.theta)]
        H, preds = forward_states(model, data)
        assert H.flags.c_contiguous and preds.flags.c_contiguous
        states = H.tobytes(), preds.tobytes()
        gradient_sse(model, data, rows, (H, preds))
        jacobian_products(model, data, rows, (H, preds))
        prediction_jacobian(model, data, rows, (H, preds))
        assert (H.tobytes(), preds.tobytes()) == states
        assert [a.tobytes() for a in (data.inputs, data.targets, model.theta)] == given

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("T", [_PRODUCT_STEPS, 2 * _PRODUCT_STEPS + 57])
    def test_products_are_the_jacobian_products(self, R, T):
        """Within one chunk J'J and J'e are J.T @ J and J.T @ e bit for bit;
        past it they are the chunked sums, within 1e-12 of the plain ones."""
        models, datas, trains, _ = stacked_problem(60 + R, R, 3, 5, T, per_set=True)
        stacked, data = stack(models, datas, per_set=True)
        JJ, Je = jacobian_products(stacked, data, np.stack(trains))
        for r, (model, d, rows) in enumerate(zip(models, datas, trains)):
            J = oracles.prediction_jacobian(model, d, rows)
            e = oracles.forward_states(model, d)[1][rows] - d.targets[rows]
            alone = jacobian_products(model, d, rows)
            assert alone[0].tobytes() == JJ[r].tobytes() and alone[1].tobytes() == Je[r].tobytes()
            chunked = oracles.chunked_products(J, e, rows)
            assert JJ[r].tobytes() == chunked[0].tobytes()
            assert Je[r].tobytes() == chunked[1].tobytes()
            plain = oracles.plain_products(J, e)
            if T <= _PRODUCT_STEPS:
                assert JJ[r].tobytes() == plain[0].tobytes()
                assert Je[r].tobytes() == plain[1].tobytes()
            else:
                for got, want in zip((JJ[r], Je[r]), plain):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_set_is_the_stack_of_one(self):
        models, datas, trains, _ = stacked_problem(3, 1, 2, 4, 30)
        model, data = models[0], datas[0]
        one = model.with_params(model.params_to_vector()[None])
        assert one.stacked and not model.stacked
        assert (forward_states(one, data)[1][0].tobytes()
                == forward_states(model, data)[1].tobytes())
        assert (gradient_sse(one, data, trains[0]).tobytes()
                == gradient_sse(model, data, trains[0])[None].tobytes())

    def test_a_diverging_set_leaves_the_others_finite(self):
        models, datas, _, _ = stacked_problem(5, 3, 2, 3, 200, "identity")
        thetas = np.stack([m.params_to_vector() for m in models])
        thetas[1, 6:15] *= 1e3  # W of set 1: its state grows past the float range
        stacked = models[0].with_params(thetas)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="time index"):
                forward_states(stacked, datas[0])
            H, preds = forward_states(stacked, datas[0], check=False)
        assert not np.isfinite(preds[1]).all()
        for r in (0, 2):
            assert preds[r].tobytes() == oracles.forward_states(models[r], datas[0])[1].tobytes()


CASES = [(algorithm, activation, per_set)
         for algorithm in ("lm", "br", "scg")
         for activation in ("tanh", "identity")
         for per_set in (False, True)]


class TestTrainRepeats:
    @pytest.mark.parametrize("R", [1, 2, 10])
    @pytest.mark.parametrize("algorithm,activation,per_set", CASES)
    def test_matches_training_each_repeat_alone(self, algorithm, activation, per_set, R):
        models, datas, trains, vals = stacked_problem(R, R, 2, 3, 50, activation, per_set)
        if R > 1:
            vals[1] = []  # a repeat without a validation set
        cfg = TrainConfig(algorithm=algorithm, max_epochs=25, val_patience=2)
        got = train_repeats(models, datas, trains, vals, cfg)
        want = [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)
        if R == 10:  # repeats stop at different epochs: the active set shrinks
            assert len({rec.total_epochs for _, rec in got}) > 1

    @pytest.mark.parametrize("R", [1, 2, 10])
    @pytest.mark.parametrize("activation,per_set", [("tanh", False), ("identity", True)])
    @pytest.mark.parametrize("algorithm", ["lm", "br"])
    def test_fewer_rows_than_weights_match_training_alone(self, algorithm, activation,
                                                          per_set, R):
        """n_train = 35 < P = 51: every trial step and gamma come from the
        spectrum of the Gram matrix JJ'."""
        models, datas, trains, vals = stacked_problem(40 + R, R, 3, 5, 50, activation, per_set)
        assert len(trains[0]) < models[0].n_params
        if R > 1:
            vals[1] = []  # a repeat without a validation set
        cfg = TrainConfig(algorithm=algorithm, max_epochs=25, val_patience=2)
        got = train_repeats(models, datas, trains, vals, cfg)
        want = [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    @pytest.mark.parametrize("algorithm", ["lm", "br"])
    def test_groups_are_sized_by_the_matrices_held(self, monkeypatch, algorithm):
        """P = 811 and n_train = 42: one P x P matrix would not fit
        GAUSS_NEWTON_BYTES, but the P x n matrices of all three repeats do,
        so they advance as one group."""
        models, datas, trains, vals = stacked_problem(31, 3, 1, 27, 60)
        P, n = models[0].n_params, len(trains[0])
        assert 8 * P * P > GAUSS_NEWTON_BYTES >= 3 * 8 * P * n
        groups, lockstep = [], trainers._lockstep
        monkeypatch.setattr(trainers, "_lockstep",
                            lambda objs, cfg: groups.append(len(objs)) or lockstep(objs, cfg))
        cfg = TrainConfig(algorithm=algorithm, max_epochs=6, val_patience=2)
        got = train_repeats(models, datas, trains, vals, cfg)
        assert groups == [3]
        want = [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    @pytest.mark.parametrize("algorithm", ["lm", "br"])
    def test_one_products_call_per_epoch_and_no_jacobian(self, monkeypatch, algorithm):
        """Ten repeats with more training rows than weights, over more than
        one chunk of steps: each epoch's requests wait for one another, one
        stacked call forms every repeat's J'J and J'e, and no n x P
        Jacobian is formed."""
        models, datas, trains, vals = stacked_problem(51, 10, 2, 3, 2 * _PRODUCT_STEPS + 40)
        assert len(trains[0]) >= models[0].n_params
        calls = []

        def spy(model, *args):
            calls.append(len(model.theta))
            return jacobian_products(model, *args)

        def no_jacobian(*args):
            raise AssertionError("an n x P Jacobian was formed")

        monkeypatch.setattr(trainers, "jacobian_products", spy)
        monkeypatch.setattr(trainers, "prediction_jacobian", no_jacobian)
        cfg = TrainConfig(algorithm=algorithm, max_epochs=6, val_patience=100)
        got = train_repeats(models, datas, trains, vals, cfg)
        assert all(rec.stop_reason == "max_epochs" and rec.total_epochs == 6 for _, rec in got)
        assert calls == [10] * 5  # the last epoch takes no step
        want = [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    @pytest.mark.parametrize("algorithm", ["lm", "br", "scg"])
    def test_an_overflowing_repeat_fails_alone(self, algorithm):
        models, datas, trains, vals = stacked_problem(11, 4, 2, 3, 200, "identity")
        theta = models[2].params_to_vector()
        theta[6:15] *= 1e3  # W: the state overflows within the sequence
        models[2] = models[2].with_params(theta)
        cfg = TrainConfig(algorithm=algorithm, max_epochs=15)
        with np.errstate(over="ignore", invalid="ignore"):
            got = train_repeats(models, datas, trains, vals, cfg)
            want = [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]
        assert isinstance(want[2], FloatingPointError)
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    @pytest.mark.parametrize("max_epochs", [1, 4, 9])
    @pytest.mark.parametrize("algorithm", ["lm", "br", "scg"])
    def test_a_shorter_budget_logs_a_prefix_of_the_longer_run(self, algorithm, max_epochs):
        """Capping the epochs cuts a run short and moves nothing before the
        cut: the first epochs' curves, and the weights when the longer run's
        best epoch falls within the cap."""
        models, datas, trains, vals = stacked_problem(22, 4, 2, 3, 60)
        vals[3] = []  # a repeat without a validation set
        cfg = TrainConfig(algorithm=algorithm, max_epochs=max_epochs, val_patience=2)
        short = train_repeats(models, datas, trains, vals, cfg)
        long = train_repeats(models, datas, trains, vals,
                             dataclasses.replace(cfg, max_epochs=max_epochs + 5))
        same_weights = 0
        for (model, rec), (long_model, long_rec) in zip(short, long):
            n = min(max_epochs, long_rec.total_epochs)
            assert rec.total_epochs == n
            assert repr(rec.train_mse) == repr(long_rec.train_mse[:n])
            assert repr(rec.val_mse) == repr(long_rec.val_mse[:n])  # repr: NaN equals NaN
            if long_rec.best_epoch <= max_epochs:
                assert rec.best_epoch == long_rec.best_epoch
                assert (model.params_to_vector().tobytes()
                        == long_model.params_to_vector().tobytes())
                same_weights += 1
        assert same_weights > 0

    def test_seconds_share_the_lockstep_wall_time(self):
        models, datas, trains, vals = stacked_problem(13, 3, 2, 3, 40)
        got = train_repeats(models, datas, trains, vals,
                            TrainConfig(algorithm="scg", max_epochs=5))
        assert len({rec.seconds for _, rec in got}) == 1


@pytest.fixture(scope="module")
def bundle():
    return make_bundle("ACME", seed=41, n_days=150)


def train_each_alone(models, datas, trains, vals, cfg):
    return [oracles.train_alone(*args, cfg) for args in zip(models, datas, trains, vals)]


class TestCellsInLockstep:
    @pytest.mark.parametrize("repeats", [1, 2, 10])
    @pytest.mark.parametrize("algorithm", ["lm", "br", "scg"])
    @pytest.mark.parametrize("pca_scope,split_mode", [("full", "random"), ("train", "random"),
                                                      ("full", "blocked"),
                                                      ("train", "blocked")])
    def test_repeats_match_training_alone(self, bundle, monkeypatch, algorithm, pca_scope,
                                          split_mode, repeats):
        spec = ExperimentSpec(company_label="ACME", feature_set="mixed", algorithm=algorithm,
                              n_hidden=3, delay=5, repeats=repeats, base_seed=17,
                              pca_scope=pca_scope, split_mode=split_mode)
        assert_cells_match_training_alone(spec, bundle, monkeypatch)

    @pytest.mark.parametrize("algorithm", ["lm", "br"])
    def test_fewer_rows_than_weights_match_training_alone(self, bundle, monkeypatch, algorithm):
        """10 hidden units: P = 151 weights against 78 training rows."""
        spec = ExperimentSpec(company_label="ACME", feature_set="mixed", algorithm=algorithm,
                              n_hidden=10, delay=5, repeats=10, base_seed=17,
                              pca_scope="train", split_mode="random")
        assert_cells_match_training_alone(spec, bundle, monkeypatch)


def assert_cells_match_training_alone(spec, bundle, monkeypatch):
    cfg = TrainConfig(max_epochs=8)
    seeds = [spec.base_seed + r for r in range(spec.repeats)]
    got = exp._run_repeats(spec, bundle, seeds, cfg)
    monkeypatch.setattr(exp, "train_repeats", train_each_alone)
    want = exp._run_repeats(spec, bundle, seeds, cfg)
    for g, w in zip(got, want):
        assert (dataclasses.replace(g.result, seconds=0.0)
                == dataclasses.replace(w.result, seconds=0.0))
        assert g.model.params_to_vector().tobytes() == w.model.params_to_vector().tobytes()
        assert_same_record(g.record, w.record)
        assert g.prediction_rows == w.prediction_rows
