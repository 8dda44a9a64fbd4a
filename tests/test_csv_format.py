"""The package's one CSV format (``market_data.write_csv``/``read_csv``).

Every report writer is checked byte for byte against the writer it
replaced (kept in ``oracles.py``), on seeded inputs and through the CLI
commands that produce the files.  The one intended difference, empty
averages for a fully failed grid cell, is pinned on its own.
"""

import dataclasses
import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from aeroforecast import cli
from aeroforecast import fundamentals as fund
from aeroforecast import indicators as ind
from aeroforecast.experiments import (ExperimentResult, GridReport, grid_specs,
                                      run_repeat, write_grid_results,
                                      write_marginals, write_predictions)
from aeroforecast.market_data import (MarketDataError, SyntheticSpec,
                                      generate_synthetic, load_prices, read_csv,
                                      write_csv, write_prices)
from aeroforecast.pca import fit_pca, transform, write_pca_report, write_pca_scatter
from aeroforecast.seeding import derive_seed
from helpers import make_bundle, make_random_bars

SRC = Path(__file__).resolve().parents[1] / "src"


def same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_text()


def seeded_report(seed, labels=("A", "B")):
    """A grid report with seeded averages; every 7th cell fully failed."""
    rng = np.random.default_rng(seed)
    results = []
    for i, spec in enumerate(grid_specs(list(labels), seed)):
        res = ExperimentResult(spec=spec)
        if i % 7:
            res.avg_total_epochs = float(rng.integers(1, 9))
            res.avg_best_epochs = float(rng.uniform(1, 8))
            res.avg_test_mse = float(rng.lognormal(0, 3))
            res.avg_runtime_seconds = float(rng.uniform(0, 1))
        results.append(res)
    return GridReport(results=results)


class TestWritersMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_technical_with_warm_up_rows(self, tmp_path, seed):
        bars = make_random_bars(seed, n=80)
        matrix = ind.compute_technical_matrix(bars)
        assert np.isnan(matrix[0]).any()
        dates = [b.date for b in bars]
        text = same_bytes(tmp_path,
                          lambda p: ind.write_technical_csv(p, dates, matrix),
                          lambda p: oracles.write_technical_csv(p, dates, matrix))
        assert ",," in text.splitlines()[1]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_prices_fundamentals_and_daily_fundamentals(self, tmp_path, seed):
        bars, reports = generate_synthetic(SyntheticSpec(seed=seed, n_days=130))
        same_bytes(tmp_path, lambda p: write_prices(p, bars),
                   lambda p: oracles.write_prices(p, bars))
        same_bytes(tmp_path, lambda p: fund.write_fundamentals(p, reports),
                   lambda p: oracles.write_fundamentals(p, reports))
        matrix, _ = fund.daily_ratio_matrix(reports, bars)
        matrix[::9, 3] = np.nan
        dates = [b.date for b in bars]
        same_bytes(tmp_path, lambda p: cli._write_daily_fundamentals(p, dates, matrix),
                   lambda p: oracles.write_daily_fundamentals(p, dates, matrix))

    def test_numpy_scalar_predictions(self, tmp_path):
        rng = np.random.default_rng(5)
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(40)]
        targets = rng.lognormal(4, 1, 40)
        preds = targets + rng.standard_normal(40)
        rows = [(d, t, p, p - t) for d, t, p in zip(days, targets, preds)]
        assert isinstance(rows[0][1], np.float64)
        rows += [(d, float(t), float(p), float(p - t)) for d, t, p, _ in rows[:5]]
        same_bytes(tmp_path, lambda p: write_predictions(p, rows),
                   lambda p: oracles.write_predictions(p, rows))

    def test_pca_report_and_scatter(self, tmp_path):
        features = make_bundle("ACME", seed=8, n_days=200).features_for("mixed")
        for scale_mode in ("center-only", "z-score"):
            model = fit_pca(features, 3, scale_mode=scale_mode)
            projected = transform(model, features)
            same_bytes(tmp_path, lambda p: write_pca_report(p, model),
                       lambda p: oracles.write_pca_report(p, model))
            same_bytes(tmp_path, lambda p: write_pca_scatter(p, projected),
                       lambda p: oracles.write_pca_scatter(p, projected))

    def test_marginals(self, tmp_path):
        report = seeded_report(9)
        (tmp_path / "new").mkdir()
        (tmp_path / "old").mkdir()
        new = write_marginals(str(tmp_path / "new"), report)
        old = oracles.write_marginals(str(tmp_path / "old"), report)
        assert [Path(p).name for p in new] == [Path(p).name for p in old]
        for a, b in zip(new, old):
            assert Path(a).read_bytes() == Path(b).read_bytes(), a

    def test_grid_results_without_failed_cells(self, tmp_path):
        report = seeded_report(10)
        report.results = [r for r in report.results if not math.isnan(r.avg_test_mse)]
        same_bytes(tmp_path, lambda p: write_grid_results(p, report),
                   lambda p: oracles.write_grid_results(p, report))

    def test_empty_deleted_rows(self, tmp_path):
        for deleted in ([], [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]):
            text = same_bytes(tmp_path,
                              lambda p: write_csv(p, ["date"], ([d] for d in deleted)),
                              lambda p: oracles.write_deleted_rows(p, deleted))
        assert text == "date\n2020-01-02\n2020-01-03\n"


class TestFailedGridCell:
    def test_fully_failed_cell_writes_empty_averages(self, tmp_path):
        """The one intended change: NaN averages used to be written as
        ``nan`` and are now empty fields, like every other missing value."""
        report = seeded_report(11)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_grid_results(new, report)
        oracles.write_grid_results(old, report)
        new_rows = new.read_text().splitlines()
        old_rows = old.read_text().splitlines()
        failed = [i for i, r in enumerate(report.results, start=1)
                  if math.isnan(r.avg_test_mse)]
        assert failed
        for i, (a, b) in enumerate(zip(new_rows, old_rows)):
            if i in failed:
                assert b.endswith(",nan,nan,nan,nan")
                assert a == b[:-len("nan,nan,nan,nan")] + ",,,"
            else:
                assert a == b


class TestCliFilesMatchReference:
    """Each CLI command's files against the reference writers fed from
    the same pipeline calls."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        cfg = root / "run.ini"
        cfg.write_text("[run]\nseed = 5\n\n[synthetic]\nn_days = 140\n\n"
                       "[train]\nmax_epochs = 3\nneurons = 3\nfeature_set = mixed\n\n"
                       "[company:ACME]\n")
        for command in ("synth", "features", "pca", "train"):
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(root / "new")]) == 0
        rc = cli.load_config(str(cfg))
        return root, rc, rc.companies[0]

    def check(self, root, name, write_old):
        new = root / "new" / "ACME" / name
        old = root / "old" / name
        old.parent.mkdir(exist_ok=True)
        write_old(old)
        assert new.read_bytes() == old.read_bytes(), name

    def test_synth(self, run):
        root, rc, entry = run
        bars, reports = cli.company_raw_data(rc, entry)
        self.check(root, "prices.csv", lambda p: oracles.write_prices(p, bars))
        self.check(root, "fundamentals.csv", lambda p: oracles.write_fundamentals(p, reports))

    def test_features(self, run):
        root, rc, entry = run
        bundle, technical, fund_daily, bars = cli.build_bundle(rc, entry)
        dates = [b.date for b in bars]
        kept = set(bundle.aligned.dates)
        deleted = [d for d in dates if d not in kept]
        self.check(root, "technical.csv",
                   lambda p: oracles.write_technical_csv(p, dates, technical))
        self.check(root, "fundamentals_daily.csv",
                   lambda p: oracles.write_daily_fundamentals(p, dates, fund_daily))
        self.check(root, "deleted_rows.csv", lambda p: oracles.write_deleted_rows(p, deleted))
        self.check(root, "alignment_summary.csv",
                   lambda p: oracles.write_alignment_summary(p, entry.label, bars,
                                                             bundle.aligned, deleted))

    def test_pca(self, run):
        root, rc, entry = run
        spec = rc.experiment
        features = cli.build_bundle(rc, entry)[0].features_for(spec.feature_set)
        model = fit_pca(features, spec.pca_k, scale_mode=spec.pca_scale_mode)
        self.check(root, "pca_report.csv", lambda p: oracles.write_pca_report(p, model))
        self.check(root, "pca_scatter.csv",
                   lambda p: oracles.write_pca_scatter(p, transform(model, features)))

    def test_train(self, run):
        root, rc, entry = run
        bundle = cli.build_bundle(rc, entry)[0]
        spec = dataclasses.replace(rc.experiment, company_label=entry.label, repeats=1,
                                   base_seed=derive_seed(rc.seed, "train", entry.label))
        artifacts = run_repeat(spec, bundle, spec.base_seed, rc.train)
        rows = [(d, t, p, p - t) for d, t, p in artifacts.prediction_rows]
        self.check(root, "training_curve.csv",
                   lambda p: oracles.write_training_curve(p, artifacts.record))
        self.check(root, "predictions_ACME.csv", lambda p: oracles.write_predictions(p, rows))


class TestReadCsv:
    def test_header_checked_before_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,open,high,low,close\n2020-01-02,1,2\n")
        with pytest.raises(MarketDataError, match="expected header"):
            load_prices(path)

    def test_rows_name_their_line_and_skip_blanks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n1,2\n\n3,4\n")
        rows = read_csv(path)
        assert next(rows) == ["a", "b"]
        assert list(rows) == [(f"{path} row 1", ["1", "2"]), (f"{path} row 3", ["3", "4"])]

    def test_write_then_read_is_exact(self, tmp_path):
        values = [0.1, 1e-300, -2.5e17, np.float64(1 / 3), math.nan, 7, "x"]
        path = tmp_path / "r.csv"
        write_csv(path, ["day"] + [f"c{i}" for i in range(len(values))],
                  [[dt.date(2021, 2, 3)] + values])
        rows = read_csv(path)
        next(rows)
        (_, row), = rows
        assert row[0] == "2021-02-03"
        assert [float(v) for v in row[1:5]] == [0.1, 1e-300, -2.5e17, 1 / 3]
        assert row[5:] == ["", "7", "x"]


def test_one_csv_writer_and_reader_in_the_package():
    """Every file format lives in ``market_data``; a second writer or
    reader would be a second format."""
    text = "".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    assert text.count("csv.writer(") == 1
    assert text.count("csv.reader(") == 1
