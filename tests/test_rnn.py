import json
import math
import re

import numpy as np
import pytest

import oracles
from aeroforecast import indicators as ind
from aeroforecast.market_data import AlignedDataset, PriceBar, clean_and_align
from aeroforecast.rnn import (RnnModel, SequenceDataset, build_supervised,
                              forward, forward_states, gradient_sse, init_rnn,
                              load_model,
                              loss_mse, prediction_jacobian, rescale_output,
                              save_model)
from helpers import make_random_bars


def random_dataset(seed, T, n_input):
    rng = np.random.default_rng(seed)
    return SequenceDataset(inputs=rng.standard_normal((T, n_input)),
                           targets=rng.standard_normal(T))


class TestBuildSupervised:
    def test_counts_and_first_pair(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 2))
        close = rng.standard_normal(10)
        data = build_supervised(X, close, tau=5)
        assert len(data) == 5
        assert np.array_equal(data.inputs[0], X[0])
        assert data.targets[0] == close[5]

    def test_minimal_series(self):
        data = build_supervised(np.ones((2, 1)), np.array([1.0, 2.0]), tau=1)
        assert len(data) == 1
        assert data.targets[0] == 2.0

    def test_identity_close_targets(self):
        T = 30
        X = np.zeros((T, 1))
        close = np.arange(T, dtype=float)
        data = build_supervised(X, close, tau=5)
        assert np.array_equal(data.targets, np.arange(5.0, 30.0))

    def test_tau_too_large(self):
        with pytest.raises(ValueError, match="tau"):
            build_supervised(np.ones((5, 1)), np.ones(5), tau=5)

    def test_tau_counts_aligned_rows_across_a_deleted_day(self):
        # A zero-range bar leaves 1-day %K and WR undefined, so cleaning
        # deletes that day; the pairs straddling it lie tau + 1 days apart.
        bars = make_random_bars(4, n=80)
        gap, tau = 60, 3
        c = bars[gap - 1].close
        bars[gap] = PriceBar(bars[gap].date, c, c, c, c, bars[gap].volume)
        cfg = ind.IndicatorConfig(stoch_window=1, stoch_d=1, wr_window=1)
        aligned = clean_and_align(bars, ind.compute_technical_matrix(bars, cfg),
                                  ind.TECHNICAL_COLUMNS, np.empty((80, 0)), ())
        kept = [i for i, b in enumerate(bars) if b.date in aligned.dates]
        assert gap not in kept
        assert kept == [i for i in range(kept[0], 80) if i != gap]
        data = build_supervised(aligned.features, aligned.target, tau=tau)
        assert len(data) == len(kept) - tau
        assert np.array_equal(data.inputs, aligned.features[:-tau])
        for i in range(len(data)):
            assert data.targets[i] == bars[kept[i + tau]].close
        spans = {kept[i]: kept[i + tau] - kept[i] for i in range(len(data))}
        assert {d for d, span in spans.items() if span != tau} == {gap - 3, gap - 2, gap - 1}
        assert all(spans[d] == tau + 1 for d in (gap - 3, gap - 2, gap - 1))


class TestForward:
    def test_all_zero_weights(self):
        model = init_rnn(2, 3, 1, seed=0).with_params(np.zeros(3 * 2 + 9 + 3 + 3 + 1))
        data = random_dataset(1, 20, 2)
        assert np.array_equal(forward(model, data), np.zeros(20))

    def test_hand_recursion_single_neuron(self):
        model = RnnModel.from_arrays(n_input=1, n_hidden=1, delay_tau=1,
                                     U=np.array([[1.0]]), W=np.array([[0.0]]),
                                     V=np.array([1.0]), b_h=np.zeros(1), b_y=0.0)
        X = np.zeros((4, 1))
        X[0, 0] = 0.5
        preds = forward(model, SequenceDataset(inputs=X, targets=np.zeros(4)))
        assert preds[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert preds[0] == pytest.approx(0.46211715726000974, abs=1e-9)
        assert np.allclose(preds[1:], 0.0)

    def test_matches_unrolled_oracle(self):
        model = init_rnn(3, 5, 1, seed=9)
        data = random_dataset(2, 40, 3)
        expected = oracles.rnn_forward_oracle(
            model.U.tolist(), model.W.tolist(), model.V.tolist(),
            model.b_h.tolist(), model.b_y, data.inputs.tolist())
        assert np.abs(forward(model, data) - np.array(expected)).max() <= 1e-12

    def test_determinism(self):
        model = init_rnn(2, 4, 1, seed=5)
        data = random_dataset(3, 25, 2)
        assert np.array_equal(forward(model, data), forward(model, data))

    def test_causality(self):
        model = init_rnn(2, 4, 1, seed=6)
        data = random_dataset(4, 30, 2)
        base = forward(model, data)
        perturbed = data.inputs.copy()
        perturbed[20:] += 100.0
        later = forward(model, SequenceDataset(inputs=perturbed, targets=data.targets))
        assert np.array_equal(base[:20], later[:20])
        assert not np.allclose(base[20:], later[20:])

    def test_non_finite_input_reports_index(self):
        model = init_rnn(2, 3, 1, seed=7)
        data = random_dataset(5, 10, 2)
        data.inputs[3, 0] = np.nan
        with pytest.raises(FloatingPointError, match="3"):
            forward(model, data)

    def test_dimension_mismatch(self):
        model = init_rnn(2, 3, 1, seed=8)
        with pytest.raises(ValueError, match="features"):
            forward(model, random_dataset(6, 10, 4))


class TestLossMse:
    def test_identical_vectors(self):
        assert loss_mse(np.ones(5), np.ones(5)) == 0.0

    def test_hand_value(self):
        assert loss_mse(np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(2.5)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(40), rng.standard_normal(40)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) / 40
        assert loss_mse(a, b) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_mse(np.ones(3), np.ones(4))


class TestGradient:
    def test_zero_error_zero_gradient(self):
        model = init_rnn(2, 3, 1, seed=12)
        data = random_dataset(13, 15, 2)
        fitted = SequenceDataset(inputs=data.inputs, targets=forward(model, data))
        grad = gradient_sse(model, fitted)
        assert np.abs(grad).max() == 0.0

    def test_single_step_hand_chain_rule(self):
        model = RnnModel.from_arrays(n_input=1, n_hidden=1, delay_tau=1,
                                     U=np.array([[0.7]]), W=np.array([[0.3]]),
                                     V=np.array([1.2]), b_h=np.array([0.1]), b_y=0.2)
        x, y = 0.4, 1.5
        data = SequenceDataset(inputs=np.array([[x]]), targets=np.array([y]))
        h = math.tanh(0.7 * x + 0.1)
        e = (1.2 * h + 0.2) - y
        dtanh = 1.0 - h * h
        expected = np.array([
            2 * e * 1.2 * dtanh * x,   # dU
            0.0,                       # dW (h_{-1} = 0)
            2 * e * h,                 # dV
            2 * e * 1.2 * dtanh,       # db_h
            2 * e,                     # db_y
        ])
        assert np.allclose(gradient_sse(model, data), expected, atol=1e-12)

    def test_matches_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            T = int(rng.integers(10, 40))
            n_in = int(rng.integers(1, 4))
            n_h = int(rng.integers(1, 6))
            model = init_rnn(n_in, n_h, 1, seed=seed)
            data = random_dataset(200 + seed, T, n_in)
            subset = np.sort(rng.permutation(T)[:max(2, T // 2)])

            def sse(theta):
                preds = forward(model.with_params(theta), data)
                err = preds[subset] - data.targets[subset]
                return float(err @ err)

            grad = gradient_sse(model, data, subset)
            fd = oracles.fd_gradient(sse, model.params_to_vector())
            assert oracles.relative_error(grad, fd).max() <= 1e-5


    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_per_step_outer_product_bptt(self, activation, subset):
        for seed in range(4):
            rng = np.random.default_rng(400 + seed)
            T = int(rng.integers(2, 60))
            n_in = int(rng.integers(1, 5))
            n_h = int(rng.integers(1, 8))
            model = init_rnn(n_in, n_h, 1, seed=seed, hidden_activation=activation)
            data = random_dataset(500 + seed, T, n_in)
            idx = np.sort(rng.permutation(T)[:max(1, T // 2)]) if subset else None
            grad = gradient_sse(model, data, idx)
            expected = oracles.rnn_bptt_oracle(model.U, model.W, model.V, model.b_h,
                                               model.b_y, data.inputs, data.targets,
                                               idx, activation)
            scale = np.abs(expected).max()
            assert np.abs(grad - expected).max() <= 1e-12 * scale

    def test_passed_states_give_identical_gradient(self):
        model = init_rnn(3, 5, 1, seed=44)
        data = random_dataset(45, 30, 3)
        subset = np.arange(0, 30, 3)
        states = forward_states(model, data)
        for idx in (None, subset):
            assert np.array_equal(gradient_sse(model, data, idx, states=states),
                                  gradient_sse(model, data, idx))


class TestForwardStates:
    def test_predictions_equal_forward(self):
        model = init_rnn(2, 4, 1, seed=46)
        data = random_dataset(47, 20, 2)
        H, preds = forward_states(model, data)
        assert H.shape == (20, 4)
        assert np.array_equal(preds, forward(model, data))
        assert np.array_equal(preds, H @ model.V + model.b_y)

    def test_same_checks_as_forward(self):
        model = init_rnn(2, 3, 1, seed=48)
        with pytest.raises(ValueError, match="features"):
            forward_states(model, random_dataset(49, 10, 4))
        data = random_dataset(50, 10, 2)
        data.inputs[6, 1] = np.nan
        with pytest.raises(FloatingPointError, match="6"):
            forward_states(model, data)


class TestJacobian:
    def test_consistency_with_gradient(self):
        for seed in range(5):
            model = init_rnn(2, 4, 1, seed=30 + seed)
            data = random_dataset(300 + seed, 25, 2)
            J = prediction_jacobian(model, data)
            e = forward(model, data) - data.targets
            grad = gradient_sse(model, data)
            assert np.abs(2.0 * J.T @ e - grad).max() <= 1e-10

    def test_columns_match_finite_differences(self):
        model = init_rnn(1, 1, 1, seed=40)
        data = random_dataset(41, 12, 1)

        def residuals(theta):
            return forward(model.with_params(theta), data) - data.targets

        J = prediction_jacobian(model, data)
        fd = oracles.fd_jacobian(residuals, model.params_to_vector())
        assert oracles.relative_error(J, fd).max() <= 1e-5

    @pytest.mark.parametrize("n_input,n_hidden", [(1, 1), (3, 4), (2, 7)])
    def test_columns_match_per_column_sensitivity(self, n_input, n_hidden):
        # Column by column, in the parameter layout: d pred_t / d theta_p by
        # forward sensitivity of that one parameter, S_t = D_t (W S_{t-1} + B_t).
        model = init_rnn(n_input, n_hidden, 1, seed=n_hidden)
        data = random_dataset(n_input, 25, n_input)
        H, _ = forward_states(model, data)
        X = data.inputs
        h, j = n_hidden, n_input
        expected = np.zeros((25, model.n_params))
        for p in range(model.n_params):
            s = np.zeros(h)
            for t in range(25):
                direct = np.zeros(h)
                h_prev = H[t - 1] if t else np.zeros(h)
                if p < h * j:
                    direct[p // j] = X[t, p % j]
                elif p < h * j + h * h:
                    q = p - h * j
                    direct[q // h] = h_prev[q % h]
                elif h * j + h * h + h <= p < model.n_params - 1:
                    direct[p - (h * j + h * h + h)] = 1.0
                s = (1.0 - H[t] ** 2) * (model.W @ s + direct)
                expected[t, p] = model.V @ s
        V0 = h * j + h * h
        expected[:, V0:V0 + h] = H
        expected[:, -1] = 1.0
        J = prediction_jacobian(model, data)
        assert np.abs(J - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_passed_states_give_identical_jacobian(self):
        model = init_rnn(3, 5, 1, seed=51)
        data = random_dataset(52, 30, 3)
        states = forward_states(model, data)
        for idx in (None, np.array([4, 2, 9, 9])):
            assert np.array_equal(prediction_jacobian(model, data, idx, states=states),
                                  prediction_jacobian(model, data, idx))

    def test_subset_rows(self):
        model = init_rnn(2, 3, 1, seed=42)
        data = random_dataset(43, 20, 2)
        subset = np.array([3, 7, 11])
        full = prediction_jacobian(model, data)
        assert np.array_equal(prediction_jacobian(model, data, subset), full[subset])


class TestModelBasics:
    def test_parameter_vector_layout_roundtrip(self):
        model = init_rnn(3, 4, 2, seed=50)
        theta = model.params_to_vector()
        assert theta.size == model.n_params == 4 * 3 + 16 + 4 + 4 + 1
        clone = model.with_params(theta)
        assert np.array_equal(clone.U, model.U)
        assert np.array_equal(clone.W, model.W)
        assert np.array_equal(clone.V, model.V)
        assert np.array_equal(clone.b_h, model.b_h)
        assert clone.b_y == model.b_y
        # layout order: U row-major, then W, V, b_h, b_y
        assert theta[0] == model.U[0, 0]
        assert theta[12] == model.W[0, 0]
        assert theta[-1] == model.b_y

    def test_init_bounds_and_determinism(self):
        a = init_rnn(4, 6, 1, seed=51)
        b = init_rnn(4, 6, 1, seed=51)
        assert np.array_equal(a.params_to_vector(), b.params_to_vector())
        assert np.abs(a.U).max() <= 0.5 / math.sqrt(4)
        assert np.abs(a.W).max() <= 0.5 / math.sqrt(6)
        assert np.array_equal(a.b_h, np.zeros(6))
        assert a.b_y == 0.0

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="delay_tau"):
            init_rnn(2, 3, 0, seed=0)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            RnnModel.from_arrays(n_input=1, n_hidden=1, delay_tau=1,
                                 U=np.array([[np.inf]]), W=np.zeros((1, 1)),
                                 V=np.zeros(1), b_h=np.zeros(1), b_y=0.0)

    @pytest.mark.parametrize("stack", [None, 3])
    def test_with_params_copies_its_input(self, stack):
        model = init_rnn(2, 3, 1, seed=54)
        theta = model.params_to_vector()
        if stack is not None:
            theta = np.stack([theta + r for r in range(stack)])
        before = theta.copy()
        clone = model.with_params(theta)
        theta += 1.0
        assert np.array_equal(clone.params_to_vector(), before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_one_non_finite_entry_in_a_stack_rejected(self, r, bad):
        model = init_rnn(2, 3, 1, seed=55)
        thetas = np.stack([model.params_to_vector()] * 3)
        thetas[r, 7 * r] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.with_params(thetas)

    def test_rescale_output_exact(self):
        model = init_rnn(2, 3, 1, seed=52)
        data = random_dataset(53, 15, 2)
        scaled = rescale_output(model, 2.5, -7.0)
        assert np.allclose(forward(scaled, data),
                           forward(model, data) * 2.5 - 7.0, atol=1e-12)


class TestSerialization:
    def test_bit_exact_roundtrip(self, tmp_path):
        model = init_rnn(3, 5, 2, seed=60)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.V, model.V)
        assert np.array_equal(loaded.b_h, model.b_h)
        assert loaded.b_y == model.b_y
        assert loaded.delay_tau == 2
        # serializing again produces identical bytes
        path2 = tmp_path / "model2.json"
        save_model(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_transposed_weights_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, init_rnn(2, 3, 1, seed=62))
        doc = json.loads(path.read_text())
        doc["U"] = np.array(doc["U"]).T.tolist()  # (2, 3): as many entries as (3, 2)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape("U has shape (2, 3), want (3, 2)")):
            load_model(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            load_model(path)

    def test_output_other_than_linear_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, init_rnn(3, 5, 2, seed=61))
        path.write_text(path.read_text().replace('"output_activation": "identity"',
                                                  '"output_activation": "tanh"'))
        with pytest.raises(ValueError, match="output_activation 'tanh'"):
            load_model(path)
