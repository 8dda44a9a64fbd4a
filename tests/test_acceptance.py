"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with ``pytest -s`` to see them
on passing runs).

The two grid criteria share one pair of full command-line grid runs over
a small two-company synthetic bundle.  Wall-clock columns in the grid
CSVs are masked before the byte-identity comparison: they are the one
measurement that legitimately differs between reruns (see the report
format notes in the README).
"""

import csv
import hashlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from aeroforecast import fundamentals as fund
from aeroforecast import indicators as ind
from aeroforecast.cli import main
from aeroforecast.experiments import (CompanyBundle, ExperimentSpec,
                                      run_experiment, run_repeat,
                                      split_70_15_15)
from aeroforecast.market_data import QuarterlyReport
from aeroforecast.pca import fit_pca, inverse_transform, transform
from aeroforecast.rnn import (SequenceDataset, forward, gradient_sse,
                              init_rnn, prediction_jacobian)
from aeroforecast.trainers import (TrainConfig, br_least_squares,
                                   lm_least_squares, scg_minimize, train)
from helpers import make_bundle, make_random_bars, make_smooth_bars, technical_aligned


def report(name, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"\n[{name}] PASS ({elapsed:.1f}s){': ' + detail if detail else ''}")
    return elapsed


class TestCriterion1Indicators:
    def test_oracle_suite_100_series(self):
        started = time.perf_counter()
        names = list(ind.TECHNICAL_COLUMNS)
        bounded_cols = [names.index(c) for c in ind.BOUNDED_COLUMNS]
        for seed in range(100):
            bars = make_random_bars(seed, n=60)
            high = [b.high for b in bars]
            low = [b.low for b in bars]
            close = [b.close for b in bars]
            matrix = ind.compute_technical_matrix(bars)

            col = {name: matrix[:, i] for i, name in enumerate(names)}
            oracles.nan_equal(col["Volume"], [b.volume for b in bars], 0.0)
            oracles.nan_equal(col["SMA"], oracles.sma_oracle(close, 5), 1e-9)
            o_w, o_pb = oracles.bollinger_oracle(close, 20, 2.0)
            oracles.nan_equal(col["BBWidth"], o_w, 1e-9)
            oracles.nan_equal(col["PercentB"], o_pb, 1e-9)
            oracles.nan_equal(col["CCI"],
                              oracles.cci_oracle(high, low, close, 13, 0.015,
                                                 "standard"), 1e-9)
            oracles.nan_equal(col["ROC"], oracles.roc_oracle(close, 1), 1e-9)
            oracles.nan_equal(col["RSI"], oracles.rsi_oracle(close, 14), 1e-9)
            o_plus, o_minus, o_adx = oracles.dmi_adx_oracle(high, low, close, 14)
            oracles.nan_equal(col["PlusDMI"], o_plus, 1e-9)
            oracles.nan_equal(col["MinusDMI"], o_minus, 1e-9)
            oracles.nan_equal(col["ADX"], o_adx, 1e-9)
            o_line, o_sig = oracles.macd_oracle(close, 12, 26, 9)
            oracles.nan_equal(col["MACDLine"], o_line, 1e-9)
            oracles.nan_equal(col["MACDSignal"], o_sig, 1e-9)
            o_k, o_d = oracles.stochastic_oracle(high, low, close, 9, 3)
            oracles.nan_equal(col["PercentK"], o_k, 1e-9)
            oracles.nan_equal(col["PercentD"], o_d, 1e-9)
            oracles.nan_equal(col["WR"],
                              oracles.williams_oracle(high, low, close, 14), 1e-9)

            block = matrix[:, bounded_cols]
            defined = block[~np.isnan(block)]
            assert defined.min() >= 0.0 - 1e-9
            assert defined.max() <= 100.0 + 1e-9
        elapsed = report("criterion 1: indicator oracles", started,
                         "15 features x 100 seeded series, tol 1e-9")
        assert elapsed < 10.0


class TestCriterion2Interpolation:
    def test_50_seeded_quarter_sets(self):
        import datetime as dt
        started = time.perf_counter()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n_q = int(rng.integers(3, 8))
            n_feat = int(rng.integers(1, 6))
            q_dates = [dt.date(2019, 1, 7) + dt.timedelta(days=int(d))
                       for d in np.cumsum(rng.integers(60, 120, size=n_q))]
            vectors = [rng.standard_normal(n_feat) * 50 for _ in range(n_q)]
            span = (q_dates[-1] - q_dates[0]).days
            days = sorted({q_dates[0] + dt.timedelta(days=int(o))
                           for o in rng.integers(0, span + 1, size=40)})
            quarters = list(zip(q_dates, vectors))
            out = fund.interpolate_quarterly_to_daily(quarters, days)

            # knot exactness
            knots = fund.interpolate_quarterly_to_daily(quarters, q_dates)
            for i, v in enumerate(vectors):
                assert np.array_equal(knots[i], v)

            # collinearity against a direct segment-parameter recomputation
            for row, day in enumerate(days):
                if day == q_dates[0]:
                    continue
                i = next(k for k in range(n_q - 1)
                         if q_dates[k] < day <= q_dates[k + 1])
                frac = (day - q_dates[i]).days / (q_dates[i + 1] - q_dates[i]).days
                expected = vectors[i] + (vectors[i + 1] - vectors[i]) * frac
                residual = np.abs(out[row] - expected) / np.maximum(
                    1.0, np.abs(vectors[i + 1] - vectors[i]))
                assert residual.max() < 1e-12

            # per-feature independence
            if n_feat > 1:
                bumped = [v.copy() for v in vectors]
                for v in bumped:
                    v[0] += 123.0
                out2 = fund.interpolate_quarterly_to_daily(
                    list(zip(q_dates, bumped)), days)
                assert np.array_equal(out2[:, 1:], out[:, 1:])
        elapsed = report("criterion 2: interpolation", started,
                         "knots exact, collinearity < 1e-12, 50 seeded sets")
        assert elapsed < 5.0


class TestCriterion3Pca:
    def test_pca_suite(self):
        started = time.perf_counter()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
            X += rng.uniform(-2, 2, size=6)
            model = fit_pca(X, k=6)

            Z = X - X.mean(axis=0)
            cov = Z.T @ Z / (len(X) - 1)
            o_vals, o_vecs = oracles.jacobi_eigh(cov)
            assert np.abs(model.eigenvalues - o_vals).max() <= 1e-8
            for i in range(6):
                cos = abs(float(model.mapping[i] @ o_vecs[:, i]))
                assert cos >= 1.0 - 1e-8

            assert abs(float(model.explained_ratio.sum()) - 1.0) <= 1e-10
            back = inverse_transform(model, transform(model, X))
            assert np.abs(back - X).max() <= 1e-8

        x = np.linspace(-2, 5, 80)
        rank1 = np.column_stack([x, 2.0 * x, -0.5 * x])
        ratios = fit_pca(rank1, k=3).explained_ratio
        assert ratios[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(ratios[1:]).max() <= 1e-10

        elapsed = report("criterion 3: PCA vs Jacobi oracle", started,
                         "eigenvalues 1e-8, alignment 1-1e-8, ratios sum 1")
        assert elapsed < 10.0


class TestCriterion4Derivatives:
    CONFIGS = [
        # (n_hidden, n_input, T) spanning up to 20 neurons and 200 steps
        (1, 1, 10), (1, 3, 25), (2, 2, 20), (2, 4, 35), (3, 1, 30),
        (3, 3, 45), (4, 2, 40), (5, 3, 50), (5, 5, 60), (6, 2, 70),
        (7, 3, 60), (8, 4, 80), (9, 2, 90), (10, 3, 100), (11, 2, 110),
        (12, 3, 120), (14, 2, 140), (16, 3, 160), (18, 2, 180), (20, 3, 200),
    ]

    def test_gradient_and_jacobian_vs_central_differences(self):
        started = time.perf_counter()
        assert len(self.CONFIGS) >= 20
        for cfg_seed, (n_h, n_in, T) in enumerate(self.CONFIGS):
            rng = np.random.default_rng(1000 + cfg_seed)
            model = init_rnn(n_in, n_h, 1, seed=cfg_seed)
            inputs = rng.standard_normal((T, n_in))
            # keep residuals O(0.3): the finite-difference oracle's
            # roundoff scales with the objective's magnitude
            base_preds = forward(model, SequenceDataset(
                inputs=inputs, targets=np.zeros(T)))
            data = SequenceDataset(
                inputs=inputs,
                targets=base_preds + 0.3 * rng.standard_normal(T))
            if cfg_seed % 3 == 0:
                subset = np.sort(rng.permutation(T)[:max(2, (2 * T) // 3)])
            else:
                subset = np.arange(T)
            theta = model.params_to_vector()

            def sse(th):
                preds = forward(model.with_params(th), data)
                err = preds[subset] - data.targets[subset]
                return float(err @ err)

            def residuals(th):
                return forward(model.with_params(th), data)[subset]

            grad = gradient_sse(model, data, subset)
            fd_grad = oracles.fd_gradient(sse, theta, step=1e-6, richardson=True)
            assert oracles.relative_error(grad, fd_grad).max() <= 1e-5

            J = prediction_jacobian(model, data, subset)
            fd_J = oracles.fd_jacobian(residuals, theta, step=1e-6, richardson=True)
            assert oracles.relative_error(J, fd_J).max() <= 1e-5

            err = forward(model, data)[subset] - data.targets[subset]
            assert np.abs(2.0 * J.T @ err - grad).max() <= 1e-10
        elapsed = report("criterion 4: BPTT derivatives", started,
                         f"{len(self.CONFIGS)} configs, rel err <= 1e-5")
        assert elapsed < 60.0


class TestCriterion5Optimizers:
    def test_optimizer_analytic_suite(self):
        started = time.perf_counter()

        # LM: noiseless linear regression through an identity-activation net
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, size=40)
        data = SequenceDataset(inputs=x[:, None], targets=2.0 * x + 1.0)
        model = init_rnn(1, 1, 1, seed=3, hidden_activation="identity")
        trained, rec = train(model, data, np.arange(40), [],
                             replace(TrainConfig(max_epochs=20), algorithm="lm"))
        slope, intercept = np.polyfit(x, forward(trained, data), 1)
        assert rec.total_epochs <= 20
        assert abs(slope - 2.0) <= 1e-8 and abs(intercept - 1.0) <= 1e-8

        # SCG: 10-parameter convex quadratic against the direct solve
        M = rng.standard_normal((10, 10))
        A = M @ M.T + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        theta_star = np.linalg.solve(A, b)
        theta, rec = scg_minimize(
            lambda th: 0.5 * float(th @ A @ th) - float(b @ th),
            lambda th: A @ th - b,
            np.zeros(10), TrainConfig(algorithm="scg", max_epochs=30))
        assert rec.total_epochs <= 30
        assert np.abs(theta - theta_star).max() <= 1e-6

        # BR: gamma bounded and F strictly decreasing on accepted steps
        for seed in range(5):
            model = init_rnn(2, 3, 1, seed=40 + seed)
            rng = np.random.default_rng(50 + seed)
            data = SequenceDataset(inputs=rng.standard_normal((50, 2)),
                                   targets=rng.standard_normal(50))

            def residual_fn(th, model=model, data=data):
                return forward(model.with_params(th), data)[:35] - data.targets[:35]

            def jacobian_fn(th, model=model, data=data):
                return prediction_jacobian(model.with_params(th), data,
                                           np.arange(35))

            _, rec = br_least_squares(residual_fn, jacobian_fn,
                                      model.params_to_vector(),
                                      TrainConfig(algorithm="br", max_epochs=40),
                                      n_samples=35)
            assert rec.gammas
            assert all(0.0 <= g <= model.n_params for g in rec.gammas)
            assert rec.step_deltas and max(rec.step_deltas) < 0
        elapsed = report("criterion 5: optimizer analytic suite", started,
                         "LM 1e-8/20ep, SCG 1e-6/30it, BR gamma in [0,P]")
        assert elapsed < 30.0


class TestCriterion6Learnability:
    def test_noiseless_smooth_target_cell(self):
        started = time.perf_counter()
        aligned = technical_aligned(make_smooth_bars(1260))
        variance = float(np.var(aligned.target))
        bundle = CompanyBundle(label="SMOOTH", aligned=aligned)
        spec = ExperimentSpec(company_label="SMOOTH", feature_set="technical",
                              algorithm="lm", n_hidden=10, delay=5,
                              repeats=10, base_seed=11)
        result = run_experiment(spec, bundle, TrainConfig(algorithm="lm"))
        assert result.n_failed == 0
        assert all(r.total_epochs <= 1000 for r in result.repeats)
        ratio = result.avg_test_mse / variance
        assert ratio < 0.01, f"avg test MSE {result.avg_test_mse} is " \
                             f"{100 * ratio:.3f}% of target variance {variance}"
        elapsed = report(
            "criterion 6: end-to-end learnability", started,
            f"avg test MSE {result.avg_test_mse:.4f} = {100 * ratio:.4f}% of variance")
        assert elapsed < 300.0


GRID_CONFIG = """
[run]
seed = 7
jobs = 1

[synthetic]
n_days = 120

[train]
max_epochs = 8
"""


@pytest.fixture(scope="session")
def grid_runs(tmp_path_factory):
    """Two full CLI grid runs with identical config and seed; the second
    uses two worker processes, so the comparison also certifies that
    parallel execution reproduces serial results."""
    root = tmp_path_factory.mktemp("grid")
    cfg = root / "grid.ini"
    cfg.write_text(GRID_CONFIG)
    out1, out2 = root / "run1", root / "run2"
    started = time.perf_counter()
    assert main(["grid", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["grid", "--config", str(cfg), "--out", str(out2),
                 "--jobs", "2"]) == 0
    return out1, out2, time.perf_counter() - started


def mask_runtime_column(path):
    """CSV bytes with wall-clock columns blanked (the one nondeterministic
    measurement in the grid reports)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    masked_cols = [i for i, name in enumerate(header)
                   if name == "avg_runtime_seconds"]
    for row in rows[1:]:
        for i in masked_cols:
            row[i] = "X"
    return "\n".join(",".join(row) for row in rows).encode()


class TestCriterion7StructuralFidelity:
    def test_grid_shape_and_report_layouts(self, grid_runs):
        started = time.perf_counter()
        out1, _, _ = grid_runs
        rows = list(csv.DictReader(open(out1 / "grid_results.csv")))
        assert len(rows) == 216  # 2 companies x 108 cells
        assert all(int(r["repeats"]) == 10 for r in rows)
        assert sum(int(r["repeats"]) for r in rows) == 2160
        header = open(out1 / "grid_results.csv").readline().strip().split(",")
        assert header == ["company", "algorithm", "feature_set", "n_hidden",
                          "delay", "pca_k", "repeats", "base_seed",
                          "avg_total_epochs", "avg_best_epochs",
                          "avg_test_mse", "avg_runtime_seconds"]

        # stated rounding rule at the paper's sample count
        train, val, test = split_70_15_15(1254, seed=0)
        assert (len(train), len(val), len(test)) == (878, 188, 188)

        # marginal tables reproduce the four-average column layout
        for dim in ("algorithm", "feature_set", "neurons", "delay"):
            m_header = open(out1 / f"marginals_{dim}.csv").readline().strip()
            assert m_header == (f"company,{dim},avg_total_epochs,"
                                "avg_best_epochs,avg_test_mse,avg_runtime_seconds")
        m_rows = list(csv.reader(open(out1 / "marginals_algorithm.csv")))[1:]
        assert len(m_rows) == 6  # 2 companies x 3 algorithms

        # marginals re-derivable from the raw cell table
        by_algo = {}
        for r in rows:
            by_algo.setdefault((r["company"], r["algorithm"]), []).append(
                float(r["avg_test_mse"]))
        for company, algo, _, _, mse, _ in (tuple(r) for r in m_rows):
            assert float(mse) == pytest.approx(
                np.mean(by_algo[(company, algo)]), abs=1e-12)
            assert len(by_algo[(company, algo)]) == 36

        # one predictions file per cell
        predictions = [p for p in os.listdir(out1)
                       if p.startswith("predictions_")]
        assert len(predictions) == 216

        # explained-variance report carries the Tables 1-2 columns; it is
        # written beside the grid runs, not into run1, which criterion 8
        # compares file by file with run2
        cfg_dir = out1.parent
        assert main(["pca", "--config", str(cfg_dir / "grid.ini"),
                     "--out", str(cfg_dir / "pca_out")]) == 0
        pca_header = open(cfg_dir / "pca_out" / "SYN_A" / "pca_report.csv").readline()
        assert pca_header.strip() == "component,individual,cumulative_pct"
        report("criterion 7: structural fidelity", started,
               "216 cells, 2160 runs, 878/188/188 at n=1254, report layouts")


class TestCriterion8Determinism:
    def test_repeated_grid_runs_byte_identical(self, grid_runs):
        started = time.perf_counter()
        out1, out2, grid_seconds = grid_runs
        names1 = sorted(os.listdir(out1))
        names2 = sorted(os.listdir(out2))
        assert names1 == names2
        masked = {"grid_results.csv", "marginals_algorithm.csv",
                  "marginals_feature_set.csv", "marginals_neurons.csv",
                  "marginals_delay.csv"}
        compared = 0
        for name in names1:
            p1, p2 = out1 / name, out2 / name
            if not p1.is_file():
                continue
            if name in masked:
                a = hashlib.sha256(mask_runtime_column(p1)).hexdigest()
                b = hashlib.sha256(mask_runtime_column(p2)).hexdigest()
            else:
                a = hashlib.sha256(p1.read_bytes()).hexdigest()
                b = hashlib.sha256(p2.read_bytes()).hexdigest()
            assert a == b, f"output file {name} differs between identical runs"
            compared += 1
        assert compared >= 216 + 5
        assert grid_seconds < 600.0
        report("criterion 8: determinism", started,
               f"{compared} files hash-identical across serial and 2-worker "
               f"runs ({grid_seconds:.0f}s for both grids; wall-clock columns masked)")


class TestCriterion9PcaEfficiency:
    def test_training_faster_with_pca(self):
        started = time.perf_counter()
        bundle = make_bundle("SPEED", seed=91, n_days=260)
        cfg = TrainConfig(algorithm="lm", max_epochs=30)
        with_pca, without_pca = [], []
        mse_with, mse_without = [], []
        for r in range(10):
            seed = 700 + r
            common = dict(company_label="SPEED", feature_set="mixed",
                          algorithm="lm", n_hidden=10, delay=5, repeats=1,
                          base_seed=seed)
            a = run_repeat(ExperimentSpec(pca_k=3, **common), bundle, seed, cfg)
            b = run_repeat(ExperimentSpec(pca_k=None, **common), bundle, seed, cfg)
            with_pca.append(a.record.seconds)
            without_pca.append(b.record.seconds)
            mse_with.append(a.test_mse)
            mse_without.append(b.test_mse)
        mean_with = float(np.mean(with_pca))
        mean_without = float(np.mean(without_pca))
        assert mean_with < mean_without, (
            f"PCA training {mean_with:.3f}s not faster than raw {mean_without:.3f}s")
        # accuracy half is data-dependent: reported, not asserted
        report("criterion 9: PCA efficiency", started,
               f"mean train time {mean_with:.3f}s (pca_k=3) < {mean_without:.3f}s "
               f"(raw 28 features); avg test MSE {np.mean(mse_with):.4f} with "
               f"PCA vs {np.mean(mse_without):.4f} without (reported only)")
