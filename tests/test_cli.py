import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from aeroforecast import fundamentals as fund
from aeroforecast import indicators as ind
from aeroforecast import cli, experiments
from aeroforecast.cli import load_config, main
from aeroforecast.experiments import (ExperimentResult, ExperimentSpec, GridReport,
                                      RepeatResult, run_repeat)
from aeroforecast.market_data import load_prices
from aeroforecast.seeding import derive_seed
from aeroforecast.trainers import TrainConfig


def write_config(tmp_path, out, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(f"""
[run]
seed = 5
out = {out}

[synthetic]
n_days = 160

[train]
algorithm = lm
max_epochs = 4
neurons = 4
delay = 5
feature_set = technical

[company:ACME]
""" + extra)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_writes_loadable_files(self, tmp_path):
        out = tmp_path / "out"
        code = main(["synth", "--config", write_config(tmp_path, out)])
        assert code == 0
        bars = load_prices(out / "ACME" / "prices.csv")
        assert len(bars) == 160
        reports = fund.load_fundamentals(out / "ACME" / "fundamentals.csv")
        assert len(reports) >= 6


class TestFeatures:
    def test_outputs_and_counts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["features", "--config", write_config(tmp_path, out)]) == 0
        tech_rows = read_rows(out / "ACME" / "technical.csv")
        assert tech_rows[0] == ["date"] + list(ind.TECHNICAL_COLUMNS)
        assert len(tech_rows) == 161  # header + one row per input day
        assert len(tech_rows[1]) == 16

        fund_rows = read_rows(out / "ACME" / "fundamentals_daily.csv")
        assert fund_rows[0] == ["date"] + list(fund.RATIO_NAMES)

        summary = read_rows(out / "ACME" / "alignment_summary.csv")
        header, row = summary
        values = dict(zip(header, row))
        assert int(values["input_days"]) == 160
        deleted = read_rows(out / "ACME" / "deleted_rows.csv")[1:]
        assert int(values["deleted_rows"]) == len(deleted)
        assert int(values["aligned_rows"]) + len(deleted) == 160

    def test_deleted_count_matches_rescan(self, tmp_path):
        out = tmp_path / "out"
        main(["features", "--config", write_config(tmp_path, out)])
        tech_rows = read_rows(out / "ACME" / "technical.csv")[1:]
        fund_rows = read_rows(out / "ACME" / "fundamentals_daily.csv")[1:]
        incomplete = sum(
            1 for t_row, f_row in zip(tech_rows, fund_rows)
            if ("" in t_row[1:]) or ("" in f_row[1:])
        )
        deleted = read_rows(out / "ACME" / "deleted_rows.csv")[1:]
        assert incomplete == len(deleted)


class TestPca:
    def test_report_and_scatter(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, out)
        assert main(["features", "--config", cfg]) == 0
        assert main(["pca", "--config", cfg]) == 0
        report = read_rows(out / "ACME" / "pca_report.csv")
        assert report[0] == ["component", "individual", "cumulative_pct"]
        assert len(report) == 1 + 15  # one row per original dimension
        cumulative = [float(r[2].rstrip("%")) for r in report[1:]]
        assert cumulative == sorted(cumulative)
        assert report[-1][2] == "100.00%"

        scatter = read_rows(out / "ACME" / "pca_scatter.csv")
        summary = read_rows(out / "ACME" / "alignment_summary.csv")
        aligned_rows = int(dict(zip(*summary))["aligned_rows"])
        assert len(scatter) - 1 == aligned_rows
        assert scatter[0] == ["pc1", "pc2", "pc3"]


class TestTrain:
    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", write_config(tmp_path, out1)])
        main(["train", "--config", write_config(tmp_path, out2), "--out", str(out2)])
        for name in ("model.json", "training_curve.csv", "predictions_ACME.csv"):
            assert (out1 / "ACME" / name).read_bytes() == \
                   (out2 / "ACME" / name).read_bytes(), name

    def test_curve_epochs_capped(self, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", write_config(tmp_path, out)])
        curve = read_rows(out / "ACME" / "training_curve.csv")
        assert curve[0] == ["epoch", "train_mse", "val_mse"]
        assert len(curve) - 1 <= 4
        assert int(curve[1][0]) == 1

    def test_predictions_mse_matches_reported(self, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", write_config(tmp_path, out)])
        rows = read_rows(out / "ACME" / "predictions_ACME.csv")
        assert rows[0] == ["date", "target", "prediction", "error"]
        errors = np.array([float(r[3]) for r in rows[1:]])
        csv_mse = float(np.mean(errors ** 2))
        # independently reproduce the reported test MSE through the API
        rc = load_config(write_config(tmp_path, out))
        from aeroforecast.cli import build_bundle
        bundle, _, _, _ = build_bundle(rc, rc.companies[0])
        spec = ExperimentSpec(
            company_label="ACME", feature_set="technical", algorithm="lm",
            n_hidden=4, delay=5, pca_k=3, repeats=1,
            base_seed=derive_seed(5, "train", "ACME"))
        artifacts = run_repeat(spec, bundle, spec.base_seed,
                               TrainConfig(max_epochs=4))
        assert csv_mse == pytest.approx(artifacts.test_mse, abs=1e-9)
        consistency = [float(r[2]) - float(r[1]) == pytest.approx(float(r[3]), abs=1e-12)
                       for r in rows[1:]]
        assert all(consistency)


class TestConfigAndFlags:
    def test_defaults_run_synthetic_demo(self, tmp_path):
        out = tmp_path / "demo"
        code = main(["features", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "SYN_A" / "technical.csv").exists()
        assert (out / "SYN_B" / "technical.csv").exists()

    def test_company_flag_filters(self, tmp_path):
        out = tmp_path / "demo"
        main(["features", "--out", str(out), "--seed", "3", "--company", "SYN_A"])
        assert (out / "SYN_A").exists()
        assert not (out / "SYN_B").exists()

    def test_flag_overrides_config_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, out1)
        main(["synth", "--config", cfg])
        main(["synth", "--config", cfg, "--out", str(out2), "--seed", "99"])
        a = (out1 / "ACME" / "prices.csv").read_bytes()
        b = (out2 / "ACME" / "prices.csv").read_bytes()
        assert a != b

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("AEROFORECAST_SEED", "123")
        main(["synth", "--out", str(out1), "--company", "X"])
        monkeypatch.delenv("AEROFORECAST_SEED")
        main(["synth", "--out", str(out2), "--company", "X", "--seed", "123"])
        assert (out1 / "X" / "prices.csv").read_bytes() == \
               (out2 / "X" / "prices.csv").read_bytes()

    def test_env_seed_read_only_when_it_decides(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AEROFORECAST_SEED", "abc")
        cfg = write_config(tmp_path, tmp_path / "c")
        assert main(["synth", "--out", str(tmp_path / "f"), "--company", "X",
                     "--seed", "3"]) == 0
        assert main(["synth", "--config", cfg]) == 0
        assert main(["synth", "--out", str(tmp_path / "e"), "--company", "X"]) == 2
        assert "error: AEROFORECAST_SEED: 'abc' is not int" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_company_flag_must_be_configured(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "o", extra="\n[company:ACME2]\n")
        assert main(["features", "--config", cfg, "--company", "ACNE"]) == 2
        err = capsys.readouterr().err
        assert "ACNE" in err and "ACME, ACME2" in err
        assert not (tmp_path / "o").exists()

    def test_indicator_overrides_parsed(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o",
                           extra="\n[indicators]\nrsi_window = 10\nbb_k = 2.5\n")
        rc = load_config(cfg)
        assert rc.indicators.rsi_window == 10
        assert rc.indicators.bb_k == 2.5

    def test_pca_k_none_disables(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o", extra="\n[pca]\nk = none\n")
        assert load_config(cfg).experiment.pca_k is None

    def test_missing_config_file_errors(self, tmp_path, capsys):
        assert main(["features", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_growing_damping_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[train]\nmu_inc = 1\n\n[company:ACME]\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "mu_inc" in capsys.readouterr().err

    def test_bad_input_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "p.csv"
        bad.write_text("date,open,high,low,close,volume\n2020-01-02,10,8,9,9.5,1\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[company:Z]\nprices = {bad}\nfundamentals = {bad}\n")
        assert main(["features", "--config", str(cfg)]) == 2


class TestConfigValidation:
    """Only the sections and keys ``load_config`` reads are accepted."""

    @pytest.mark.parametrize("text, named", [
        ("[train]\nmax_epoch = 3\n", ["[train]", "max_epoch"]),
        ("[experment]\nrepeats = 2\n", ["[experment]"]),
        ("[company:ACME]\nprice = p.csv\n", ["[company:ACME]", "price"]),
        ("[DEFAULT]\nseed = 3\n", ["[DEFAULT]"]),
        ("[train]\nbr_val_stop = ture\n", ["[train]", "br_val_stop", "ture"]),
        ("[experiment]\nstandardize_inputs = 2\n", ["[experiment]", "standardize_inputs"]),
        ("[train]\nmax_epochs = three\n", ["config [train] max_epochs: 'three' is not int"]),
        ("[train]\nlearning_rate = 0.5\n", ["[train]", "learning_rate"]),
        ("[experiment]\nrepeats = 3\n", ["[experiment]", "repeats"]),
    ])
    def test_rejected_with_section_and_key(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        with pytest.raises(ValueError):
            load_config(str(cfg))
        assert main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for word in named:
            assert word in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("NO", False), ("off", False), ("0", False),
    ])
    def test_boolean_spellings(self, tmp_path, raw, value):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[train]\nbr_val_stop = {raw}\n\n"
                       f"[experiment]\nstandardize_inputs = {raw}\n")
        rc = load_config(str(cfg))
        assert rc.train.br_val_stop is value
        assert rc.experiment.standardize_inputs is value

    def test_benchmark_style_config_loads(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseed = 4\njobs = 1\n[train]\nmax_epochs = 3\n"
                       "feature_set = mixed\n[pca]\nk = 3\n"
                       "[company:CO01]\nprices = p.csv\nfundamentals = f.csv\n")
        rc = load_config(str(cfg))
        assert (rc.seed, rc.jobs, rc.train.max_epochs, rc.experiment.feature_set,
                rc.experiment.pca_k) == (4, 1, 3, "mixed", 3)
        assert rc.companies[0].prices == "p.csv"

    def test_every_field_is_a_key(self, tmp_path):
        """Each TrainConfig and IndicatorConfig field is read from its
        section, so no key can be read into nothing."""
        lines = ["[train]"]
        lines += [f"{f.name} = {f.default}" for f in dataclasses.fields(TrainConfig)]
        lines += ["[indicators]"]
        lines += [f"{f.name} = {f.default}" for f in dataclasses.fields(ind.IndicatorConfig)]
        cfg = tmp_path / "c.ini"
        cfg.write_text("\n".join(lines) + "\n")
        rc = load_config(str(cfg))
        assert rc.train == TrainConfig()
        assert rc.indicators == ind.IndicatorConfig()


class TestOneSpecPath:
    """``grid`` and ``train`` build their specs from the same settings."""

    SETTINGS = ("\n[pca]\nk = 2\nscale_mode = z-score\nscope = train\n"
                "[experiment]\nstandardize_inputs = false\nsplit_mode = blocked\n")
    WANT = (2, "z-score", "train", False, "blocked")

    @staticmethod
    def settings(spec):
        return (spec.pca_k, spec.pca_scale_mode, spec.pca_scope,
                spec.standardize_inputs, spec.split_mode)

    def test_grid_cells_carry_the_config(self, tmp_path, monkeypatch):
        seen = []

        def fake_cell(args):
            seen.append(args[0])
            return ExperimentResult(spec=args[0])

        monkeypatch.setattr(experiments, "_run_cell", fake_cell)
        cfg = write_config(tmp_path, tmp_path / "o", extra=self.SETTINGS)
        assert main(["grid", "--config", cfg]) == 0
        assert len(seen) == 108
        assert {self.settings(spec) for spec in seen} == {self.WANT}

    def test_train_spec_carries_the_config(self, tmp_path, monkeypatch):
        seen = []

        def spy(spec, *args):
            seen.append(spec)
            return run_repeat(spec, *args)

        monkeypatch.setattr(cli, "run_repeat", spy)
        cfg = write_config(tmp_path, tmp_path / "o", extra=self.SETTINGS)
        assert main(["train", "--config", cfg]) == 0
        assert [self.settings(spec) for spec in seen] == [self.WANT]

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_unknown_scale_mode_rejected_before_any_repeat(self, tmp_path, capsys,
                                                          monkeypatch, command):
        ran = []
        monkeypatch.setattr(experiments, "_run_cell", lambda args: ran.append(args))
        monkeypatch.setattr(cli, "run_repeat", lambda *args: ran.append(args))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, extra="\n[pca]\nscale_mode = zscore\n")
        assert main([command, "--config", cfg]) == 2
        assert "scale_mode 'zscore'" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    @staticmethod
    def spy_build_bundle(monkeypatch):
        built = []
        real = cli.build_bundle
        monkeypatch.setattr(cli, "build_bundle", lambda *args: built.append(args) or real(*args))
        return built

    def test_grid_pca_k_outside_the_paper_rejected_before_any_repeat(self, tmp_path, capsys,
                                                                    monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "_run_repeats", lambda *args: ran.append(args))
        built = self.spy_build_bundle(monkeypatch)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, extra="\n[pca]\nk = 4\n")
        assert main(["grid", "--config", cfg]) == 2
        assert "grid pca_k must be 2 or 3" in capsys.readouterr().err
        assert ran == []
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pca", "train"])
    @pytest.mark.parametrize("k", [-2, 20])
    def test_pca_k_out_of_range_rejected_before_any_company_is_built(
            self, tmp_path, capsys, monkeypatch, command, k):
        built = self.spy_build_bundle(monkeypatch)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, extra=f"\n[pca]\nk = {k}\n")
        assert main([command, "--config", cfg]) == 2
        assert f"k={k} out of range [1, 15]" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_pca_k_bounded_by_the_flagged_feature_set(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o", extra="\n[pca]\nk = 20\n")
        assert main(["pca", "--config", cfg, "--feature-set", "mixed"]) == 0

    @pytest.mark.parametrize("command", ["pca", "grid"])
    def test_pca_k_none_rejected_where_components_are_needed(self, tmp_path, capsys,
                                                              command):
        cfg = write_config(tmp_path, tmp_path / "o", extra="\n[pca]\nk = none\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "pca" in err and "k" in err


class TestCheckedWhenLoaded:
    """The whole config is checked before any command starts work."""

    @pytest.mark.parametrize("command", ["synth", "features", "pca"])
    def test_bad_experiment_rejected_by_every_command(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, extra="\n[experiment]\nsplit_mode = bogus\n")
        assert main([command, "--config", cfg]) == 2
        assert "split_mode 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_before_building_features(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_bundle", lambda *args: built.append(args))
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, extra="\n[pca]\nscope = everything\n")
        assert main(["train", "--config", cfg]) == 2
        assert "pca_scope 'everything'" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_algorithm_has_one_source(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o")
        args = cli.build_parser().parse_args(["train", "--config", cfg,
                                              "--algo", "scg", "--neurons", "7"])
        rc = cli.apply_overrides(load_config(cfg), args)
        assert rc.experiment.algorithm == rc.train.algorithm == "scg"
        assert rc.experiment.n_hidden == 7

    @pytest.mark.parametrize("config, flags", [
        ("[run]\njobs = 0\n", []),
        ("", ["--jobs", "0"]),
        ("", ["--jobs", "-3"]),
    ])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "c.ini"
        cfg.write_text(config + "\n[company:ACME]\n")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()


class TestCompanyFiles:
    def test_prices_without_fundamentals_rejected(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text("date,open,high,low,close,volume\n2020-01-02,10,11,9,10.5,1\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[company:Z]\nprices = {prices}\n")
        assert main(["features", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: Z: prices given without fundamentals\n"

    def test_synth_files_give_the_generator_outputs(self, tmp_path, capsys):
        """A config naming the files ``synth`` wrote reproduces, byte for
        byte, what the same seed and label give from the generator."""
        generated, loaded = tmp_path / "generated", tmp_path / "loaded"
        (tmp_path / "g").mkdir()
        (tmp_path / "l").mkdir()
        cfg = write_config(tmp_path / "g", generated)
        assert main(["synth", "--config", cfg]) == 0
        files_cfg = write_config(tmp_path / "l", loaded, extra=(
            f"prices = {generated / 'ACME' / 'prices.csv'}\n"
            f"fundamentals = {generated / 'ACME' / 'fundamentals.csv'}\n"))
        stdout = {}
        for path in (cfg, files_cfg):
            capsys.readouterr()
            for command in ("features", "pca", "train"):
                assert main([command, "--config", path]) == 0
            stdout[path] = capsys.readouterr().out
        assert stdout[cfg] == stdout[files_cfg]
        written = sorted(p.name for p in (loaded / "ACME").iterdir())
        assert len(written) == 9
        assert sorted(p.name for p in (generated / "ACME").iterdir()) == sorted(
            written + ["prices.csv", "fundamentals.csv"])
        for name in written:
            assert (loaded / "ACME" / name).read_bytes() == \
                (generated / "ACME" / name).read_bytes(), name


class TestGridFailures:
    def test_failed_repeat_exits_1_with_a_manifest(self, tmp_path, monkeypatch, capsys):
        """A grid whose cell lost a repeat writes every report, names the
        cell and its error in ``failures.json`` and exits 1."""
        def fake_grid(bundles, master_seed, cfg=None, template=None, jobs=1):
            specs = experiments.grid_specs([b.label for b in bundles], master_seed, template)
            results = [ExperimentResult(spec=spec, repeats=[RepeatResult(seed=spec.base_seed)])
                       for spec in specs]
            results[3].repeats.append(RepeatResult(seed=1, error="ValueError: boom"))
            return GridReport(results=results)

        monkeypatch.setattr(cli, "run_grid", fake_grid)
        out = tmp_path / "o"
        assert main(["grid", "--config", write_config(tmp_path, out)]) == 1
        specs = experiments.grid_specs(["ACME"], 5)
        manifest = out / "failures.json"
        assert json.loads(manifest.read_text()) == {
            experiments.cell_name(specs[3]): ["ValueError: boom"]}
        captured = capsys.readouterr()
        assert captured.out == f"grid: 108 cells, 109 runs, 1 cells with failures -> {out}\n"
        assert captured.err == f"failure manifest: {manifest}\n"
        assert len(read_rows(out / "grid_results.csv")) == 109
        assert (out / f"predictions_{experiments.cell_name(specs[3])}.csv").exists()
