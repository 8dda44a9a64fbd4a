"""The three workloads: set-up, one measured round, and the checks.

A round is a fixed set of operations, so every run attempts whole
rounds of the same work.  An operation is one training run (grid-small,
cell-paper) or one company taken through one CLI command
(features-long).  Checks compare the program's outputs with values the
benchmark computes itself from its own inputs, or with properties the
method must have; a failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 170


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Round:
    seconds: float
    attempted: int
    failed: int
    work: float            # epochs (training) or input trading days (features)
    quality: float = math.nan  # mean over cells of test MSE / target variance
    bytes_written: int = 0
    outputs: object = None


@dataclass
class State:
    """What set-up leaves for the rounds: paths, inputs, program objects."""

    work: str
    config: str
    companies: list
    bundles: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _dir_digest(path):
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(path)):
        for f in sorted(files):
            h.update(os.path.relpath(os.path.join(d, f), path).encode())
            with open(os.path.join(d, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _close(actual, expected, rel):
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


def run_cli(root, args, log_path, spans_dir=None):
    """Run one CLI command in a child process; return its wall seconds.

    With ``spans_dir`` the command runs under ``traced_cli.py``, which
    records spans in the command's process and in any pool worker.
    Thread settings are inherited unchanged.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if spans_dir is None:
        cmd = [sys.executable, "-m", "aeroforecast.cli"] + args
    else:
        env["PERFBENCH_SPANS"] = spans_dir
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py")] + args
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=log, stderr=log,
                              timeout=CLI_TIMEOUT_S)
        took = time.perf_counter() - start
    return took, proc.returncode


def _bundle(config_path):
    from aeroforecast import cli
    rc = cli.load_config(config_path)
    return rc, {e.label: cli.build_bundle(rc, e)[0] for e in rc.companies}


# ---------------------------------------------------------------------------
# grid-small: the CLI grid on one short company
# ---------------------------------------------------------------------------


class GridSmall:
    """108 cells x 10 repeats = 1,080 training runs per round, N_train~58."""

    name = "grid-small"
    days = 120
    max_epochs = 3
    jobs = 1
    cells = 108
    repeats = 10

    def setup(self, seed, work):
        company = inputs.make_companies(seed, 1, self.days)[0]
        paths = inputs.write_company(os.path.join(work, company.label), company)
        config = os.path.join(work, "grid.ini")
        inputs.write_config(config, {
            "run": {"seed": seed, "jobs": self.jobs},
            "train": {"max_epochs": self.max_epochs},
            "pca": {"k": 3},
        }, {company.label: paths})
        _, bundles = _bundle(config)
        return State(work, config, [company], bundles)

    def run_round(self, root, state, index, spans_dir=None):
        out = os.path.join(state.work, f"grid-{index}")
        took, code = run_cli(root, ["grid", "--config", state.config, "--out", out],
                             os.path.join(state.work, "cli.log"), spans_dir)
        require(code in (0, 1), f"grid exited with code {code}")
        failed = 0
        manifest = os.path.join(out, "failures.json")
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as fh:
                failed = sum(len(v) for v in json.load(fh).values())
        rows = _read_csv(os.path.join(out, "grid_results.csv"))
        company = state.companies[0]
        variance = float(np.var(state.bundles[company.label].aligned.target))
        epochs = sum(float(r["avg_total_epochs"]) * int(r["repeats"]) for r in rows)
        quality = float(np.mean([float(r["avg_test_mse"]) for r in rows])) / variance
        return Round(took, self.cells * self.repeats, failed, epochs, quality,
                     _dir_bytes(out), out)

    def check(self, state, rounds):
        out = rounds[-1].outputs
        company = state.companies[0]
        close_on = dict(zip(company.dates, company.close.tolist()))
        n_aligned = len(state.bundles[company.label].aligned.dates)
        rows = _read_csv(os.path.join(out, "grid_results.csv"))
        require(len(rows) == self.cells, f"{len(rows)} grid rows, want {self.cells}")
        require(all(int(r["repeats"]) == self.repeats for r in rows),
                "a cell ran other than 10 repeats")
        require(not os.path.exists(os.path.join(out, "failures.json")),
                "grid wrote failures.json")

        value_cols = ("avg_total_epochs", "avg_best_epochs", "avg_test_mse",
                      "avg_runtime_seconds")
        keys = {"algorithm": "algorithm", "feature_set": "feature_set",
                "neurons": "n_hidden", "delay": "delay"}
        for dim, col in keys.items():
            groups = {}
            for r in rows:
                groups.setdefault((r["company"], r[col]), []).append(r)
            marginal = _read_csv(os.path.join(out, f"marginals_{dim}.csv"))
            require(len(marginal) == len(groups), f"marginals_{dim}: wrong row count")
            for m in marginal:
                cells = groups[(m["company"], m[dim])]
                for v in value_cols:
                    want = math.fsum(float(c[v]) for c in cells) / len(cells)
                    require(_close(float(m[v]), want, 1e-12),
                            f"marginals_{dim} {m[dim]} {v}: {m[v]} != mean {want}")

        for r in rows:
            name = (f"{r['company']}_{r['algorithm']}_{r['feature_set']}"
                    f"_h{r['n_hidden']}_d{r['delay']}")
            preds = _read_csv(os.path.join(out, f"predictions_{name}.csv"))
            n_pairs = n_aligned - int(r["delay"])
            require(len(preds) == round(0.15 * n_pairs),
                    f"{name}: {len(preds)} prediction rows, want {round(0.15 * n_pairs)}")
            sq = []
            for p in preds:
                day = dt.date.fromisoformat(p["date"])
                target, pred, err = float(p["target"]), float(p["prediction"]), float(p["error"])
                require(target == close_on.get(day), f"{name} {day}: target {target} "
                        f"is not that day's close {close_on.get(day)}")
                require(err == pred - target, f"{name} {day}: error != prediction - target")
                sq.append(err * err)
            mse = math.fsum(sq) / len(sq)
            require(mse <= float(r["avg_test_mse"]) * (1 + 1e-12),
                    f"{name}: best-repeat MSE {mse} above the cell average {r['avg_test_mse']}")


# ---------------------------------------------------------------------------
# cell-paper: three paper-scale cells through the Python API
# ---------------------------------------------------------------------------


class CellPaper:
    """LM, BR and SCG cells of 10 repeats each on 1,260 days, P=151."""

    name = "cell-paper"
    days = 1260
    max_epochs = 30
    n_hidden = 10
    delay = 10
    repeats = 10

    def setup(self, seed, work):
        from aeroforecast.experiments import ExperimentSpec
        from aeroforecast.seeding import derive_seed
        from aeroforecast.trainers import TrainConfig
        company = inputs.make_companies(seed, 1, self.days)[0]
        paths = inputs.write_company(os.path.join(work, company.label), company)
        config = os.path.join(work, "cell.ini")
        inputs.write_config(config, {"run": {"seed": seed}}, {company.label: paths})
        _, bundles = _bundle(config)
        specs = [ExperimentSpec(company_label=company.label, feature_set="mixed",
                                algorithm=alg, n_hidden=self.n_hidden,
                                delay=self.delay, pca_k=3, repeats=self.repeats,
                                base_seed=derive_seed(seed, "cell-paper", alg))
                 for alg in ("lm", "br", "scg")]
        cfg = TrainConfig(max_epochs=self.max_epochs)
        return State(work, config, [company], bundles, {"specs": specs, "cfg": cfg})

    def run_round(self, root, state, index, spans_dir=None):
        from aeroforecast.experiments import run_experiment
        bundle = state.bundles[state.companies[0].label]
        start = time.perf_counter()
        results = [run_experiment(spec, bundle, state.extra["cfg"])
                   for spec in state.extra["specs"]]
        took = time.perf_counter() - start
        variance = float(np.var(bundle.aligned.target))
        ok = [r for res in results for r in res.repeats if r.error is None]
        failed = sum(res.n_failed for res in results)
        quality = float(np.mean([res.avg_test_mse for res in results])) / variance
        return Round(took, len(state.extra["specs"]) * self.repeats, failed,
                     float(sum(r.total_epochs for r in ok)), quality, 0, results)

    def check(self, state, rounds):
        from aeroforecast.experiments import (prepare_inputs, run_repeat,
                                              split_70_15_15)
        from aeroforecast.seeding import derive_seed
        company = state.companies[0]
        bundle = state.bundles[company.label]
        labels = bundle.aligned.target[self.delay:]
        n_pairs = len(labels)
        for rnd in rounds:
            for res in rnd.outputs:
                require(res.n_failed == 0, f"{res.spec.algorithm}: failed repeats")
                test_var = np.mean([
                    np.var(labels[split_70_15_15(n_pairs, derive_seed(r.seed, "split"))[2]])
                    for r in res.repeats])
                require(res.avg_test_mse < test_var,
                        f"{res.spec.algorithm}: average test MSE {res.avg_test_mse} is not "
                        f"below the test-target variance {test_var}")

        close_on = dict(zip(company.dates, company.close.tolist()))
        features = bundle.features_for("mixed")
        for spec in state.extra["specs"]:
            art = run_repeat(spec, bundle, spec.base_seed, state.extra["cfg"])
            x = prepare_inputs(spec, features)[:n_pairs].tolist()
            preds = plain_rnn_forward(art.model, x)
            for day, target, pred in art.prediction_rows:
                t = bundle.aligned.dates.index(day) - self.delay
                require(target == close_on[day], f"{spec.algorithm} {day}: target is "
                        "not that day's close")
                require(abs(pred - preds[t]) <= 1e-9 * max(1.0, abs(preds[t])),
                        f"{spec.algorithm} {day}: program predicts {pred}, "
                        f"plain loop {preds[t]}")


def plain_rnn_forward(model, rows):
    """h_t = tanh(U x_t + W h_{t-1} + b_h), y_t = V.h_t + b_y, in plain Python."""
    U, W = model.U.tolist(), model.W.tolist()
    V, b_h, b_y = model.V.tolist(), model.b_h.tolist(), float(model.b_y)
    n_h = len(b_h)
    h = [0.0] * n_h
    out = []
    for x in rows:
        h = [math.tanh(sum(U[i][j] * x[j] for j in range(len(x)))
                       + sum(W[i][k] * h[k] for k in range(n_h)) + b_h[i])
             for i in range(n_h)]
        out.append(sum(V[i] * h[i] for i in range(n_h)) + b_y)
    return out


# ---------------------------------------------------------------------------
# features-long: CLI features then pca over long histories
# ---------------------------------------------------------------------------

BOUNDED = ("RSI", "PlusDMI", "MinusDMI", "ADX", "PercentK", "PercentD", "WR")


class FeaturesLong:
    """8 companies x 5,040 trading days through ``features`` and ``pca``."""

    name = "features-long"
    n_companies = 8
    days = 5040

    def setup(self, seed, work):
        companies = inputs.make_companies(seed, self.n_companies, self.days)
        paths = {c.label: inputs.write_company(os.path.join(work, c.label), c)
                 for c in companies}
        config = os.path.join(work, "features.ini")
        inputs.write_config(config, {"run": {"seed": seed}, "pca": {"k": 3},
                                     "train": {"feature_set": "mixed"}}, paths)
        return State(work, config, companies)

    def run_round(self, root, state, index, spans_dir=None):
        out = os.path.join(state.work, f"features-{index}")
        log = os.path.join(state.work, "cli.log")
        took, failed = 0.0, 0
        for command in ("features", "pca"):
            secs, code = run_cli(root, [command, "--config", state.config, "--out", out],
                                 log, spans_dir)
            took += secs
            failed += 0 if code == 0 else self.n_companies
        n = len(state.companies)
        digest = _dir_digest(out)
        written = _dir_bytes(out)
        if index > 0:
            shutil.rmtree(os.path.join(state.work, f"features-{index - 1}"))
        return Round(took, 2 * n, failed, float(n * self.days), math.nan,
                     written, (out, digest))

    def check(self, state, rounds):
        digests = {r.outputs[1] for r in rounds}
        require(len(digests) == 1, "rounds wrote different feature/PCA files")
        out = rounds[-1].outputs[0]
        for company in state.companies:
            d = os.path.join(out, company.label)
            tech = _read_csv(os.path.join(d, "technical.csv"))
            closes = company.close.tolist()
            require(len(tech) == company.n_days, f"{company.label}: technical rows")
            for col, ref in (("SMA", plain_sma(closes, 5)), ("RSI", plain_rsi(closes, 14))):
                for i, row in enumerate(tech):
                    got = row[col]
                    if ref[i] is None:
                        require(got == "", f"{company.label} {col} day {i}: want empty")
                    else:
                        require(got != "" and _close(float(got), ref[i], 1e-9),
                                f"{company.label} {col} day {i}: {got} != {ref[i]}")
            for col in BOUNDED:
                vals = [float(r[col]) for r in tech if r[col] != ""]
                require(all(0.0 <= v <= 100.0 for v in vals),
                        f"{company.label} {col}: value outside [0, 100]")

            summary = _read_csv(os.path.join(d, "alignment_summary.csv"))[0]
            deleted = {r["date"] for r in _read_csv(os.path.join(d, "deleted_rows.csv"))}
            require(int(summary["input_days"]) == company.n_days, "input_days")
            require(int(summary["aligned_rows"]) + int(summary["deleted_rows"])
                    == company.n_days, f"{company.label}: aligned + deleted != input days")
            require(len(deleted) == int(summary["deleted_rows"]), "deleted_rows.csv")

            ratios = [float(r["individual"]) for r in
                      _read_csv(os.path.join(d, "pca_report.csv"))]
            require(all(a >= b for a, b in zip(ratios, ratios[1:])),
                    f"{company.label}: PCA ratios not descending")
            require(abs(math.fsum(ratios) - 1.0) <= 1e-9,
                    f"{company.label}: PCA ratios sum to {math.fsum(ratios)}")

            fund = _read_csv(os.path.join(d, "fundamentals_daily.csv"))
            matrix = np.array([[float(v) for k, v in t.items() if k != "date"]
                               + [float(v) for k, v in f.items() if k != "date"]
                               for t, f in zip(tech, fund) if t["date"] not in deleted])
            trace = float(np.trace(np.cov(matrix, rowvar=False)))
            scatter = np.array([[float(v) for v in r.values()] for r in
                                _read_csv(os.path.join(d, "pca_scatter.csv"))])
            cov = np.cov(scatter, rowvar=False)
            for i in range(cov.shape[0]):
                want = ratios[i] * trace
                require(abs(cov[i, i] - want) <= 1e-6 * want,
                        f"{company.label}: pc{i + 1} variance {cov[i, i]} != {want}")
                for j in range(i):
                    corr = cov[i, j] / math.sqrt(cov[i, i] * cov[j, j])
                    require(abs(corr) <= 1e-6,
                            f"{company.label}: pc{i + 1} and pc{j + 1} correlate ({corr})")


def plain_sma(values, window):
    return [None if i + 1 < window else math.fsum(values[i + 1 - window:i + 1]) / window
            for i in range(len(values))]


def plain_rsi(closes, window):
    """Wilder RSI: seed with the mean of the first ``window`` moves."""
    out = [None] * len(closes)
    ups = [max(closes[i] - closes[i - 1], 0.0) for i in range(1, len(closes))]
    downs = [max(closes[i - 1] - closes[i], 0.0) for i in range(1, len(closes))]
    if len(ups) < window:
        return out
    up = sum(ups[:window]) / window
    down = sum(downs[:window]) / window
    for t in range(window, len(closes)):
        if t > window:
            up += (ups[t - 1] - up) / window
            down += (downs[t - 1] - down) / window
        if down == 0.0:
            out[t] = 50.0 if up == 0.0 else 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + up / down)
    return out


WORKLOADS = {w.name: w for w in (GridSmall(), CellPaper(), FeaturesLong())}
