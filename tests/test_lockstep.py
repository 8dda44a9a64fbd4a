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
import oracles
from aeroforecast.experiments import ExperimentSpec
from aeroforecast.rnn import (SequenceDataset, forward_states, gradient_sse, init_rnn,
                              prediction_jacobian)
from aeroforecast.trainers import TrainConfig, TrainRecord, train_repeats
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


class TestStackedKernels:
    @pytest.mark.parametrize("R", [1, 2, 10])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("per_set", [False, True])
    def test_each_set_matches_the_single_set_loops(self, R, activation, per_set):
        # 150 steps: the gradient's in-order sums span three 64-step chunks
        models, datas, trains, _ = stacked_problem(7 + R, R, 3, 5, 150, activation, per_set)
        stacked = models[0].with_params(np.stack([m.params_to_vector() for m in models]))
        data = datas[0] if not per_set else SequenceDataset(
            np.stack([d.inputs for d in datas]), np.stack([d.targets for d in datas]))
        rows = np.stack(trains)
        H, preds = forward_states(stacked, data)
        grads = gradient_sse(stacked, data, rows)
        full = gradient_sse(stacked, data)
        with pytest.raises(ValueError, match="one parameter set"):
            prediction_jacobian(stacked, data, rows)
        for r, (model, d) in enumerate(zip(models, datas)):
            want_H, want_preds = oracles.forward_states(model, d)
            assert H[r].tobytes() == want_H.tobytes()
            assert preds[r].tobytes() == want_preds.tobytes()
            assert grads[r].tobytes() == oracles.gradient_sse(model, d, trains[r]).tobytes()
            assert full[r].tobytes() == oracles.gradient_sse(model, d).tobytes()
            assert (prediction_jacobian(model, d, trains[r]).tobytes()
                    == oracles.prediction_jacobian(model, d, trains[r]).tobytes())

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
        cfg = TrainConfig(max_epochs=8)
        seeds = [spec.base_seed + r for r in range(repeats)]
        got = exp._run_repeats(spec, bundle, seeds, cfg)
        monkeypatch.setattr(exp, "train_repeats", train_each_alone)
        want = exp._run_repeats(spec, bundle, seeds, cfg)
        for g, w in zip(got, want):
            assert (dataclasses.replace(g.result, seconds=0.0)
                    == dataclasses.replace(w.result, seconds=0.0))
            assert g.model.params_to_vector().tobytes() == w.model.params_to_vector().tobytes()
            assert_same_record(g.record, w.record)
            assert g.prediction_rows == w.prediction_rows
