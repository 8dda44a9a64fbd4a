import numpy as np
import pytest

import aeroforecast.experiments as exp
from aeroforecast.experiments import (CompanyBundle, ExperimentSpec,
                                      GridReport, cell_name, grid_specs,
                                      run_experiment, split_70_15_15,
                                      split_blocked)
from aeroforecast.pca import fit_pca
from aeroforecast.trainers import TrainConfig
from helpers import make_bundle

FAST = TrainConfig(max_epochs=4)


@pytest.fixture(scope="module")
def bundle():
    return make_bundle("ACME", seed=31, n_days=160)


def small_spec(**overrides):
    base = dict(company_label="ACME", feature_set="technical", algorithm="lm",
                n_hidden=4, delay=5, pca_k=3, repeats=2, base_seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSplit:
    def test_paper_sample_count(self):
        train, val, test = split_70_15_15(1254, seed=0)
        assert (len(train), len(val), len(test)) == (878, 188, 188)

    def test_minimum_size(self):
        train, val, test = split_70_15_15(20, seed=0)
        assert (len(train), len(val), len(test)) == (14, 3, 3)

    def test_disjoint_cover_over_seeds(self):
        for seed in range(100):
            parts = split_70_15_15(101, seed)
            joined = np.concatenate(parts)
            assert len(joined) == 101
            assert set(joined.tolist()) == set(range(101))

    def test_deterministic_per_seed(self):
        a = split_70_15_15(50, seed=3)
        b = split_70_15_15(50, seed=3)
        c = split_70_15_15(50, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 20"):
            split_70_15_15(19, seed=0)

    def test_blocked_split_is_contiguous(self):
        train, val, test = split_blocked(40)
        assert np.array_equal(train, np.arange(28))
        assert np.array_equal(val, np.arange(28, 34))
        assert np.array_equal(test, np.arange(34, 40))


class TestSpecValidation:
    def test_grid_mode_domains(self):
        with pytest.raises(ValueError, match="n_hidden"):
            small_spec(n_hidden=7, repeats=10, grid_mode=True)
        with pytest.raises(ValueError, match="delay"):
            small_spec(delay=4, n_hidden=5, repeats=10, grid_mode=True)
        with pytest.raises(ValueError, match="repeats"):
            small_spec(n_hidden=5, repeats=3, grid_mode=True)

    def test_free_values_in_adhoc_mode(self):
        spec = small_spec(n_hidden=7, delay=4)
        assert spec.n_hidden == 7

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="feature set"):
            small_spec(feature_set="sentiment")
        with pytest.raises(ValueError, match="algorithm"):
            small_spec(algorithm="adam")

    def test_unknown_pca_scale_mode(self):
        with pytest.raises(ValueError, match="scale_mode 'zscore'"):
            small_spec(pca_scale_mode="zscore")


class TestRunExperiment:
    def test_single_repeat_equals_its_average(self, bundle):
        res = run_experiment(small_spec(repeats=1), bundle, FAST)
        assert len(res.repeats) == 1
        r = res.repeats[0]
        assert res.avg_test_mse == r.test_mse
        assert res.avg_total_epochs == r.total_epochs
        assert res.avg_best_epochs == r.best_epoch

    def test_determinism_across_invocations(self, bundle):
        a = run_experiment(small_spec(), bundle, FAST)
        b = run_experiment(small_spec(), bundle, FAST)
        assert a.avg_test_mse == b.avg_test_mse
        assert a.avg_total_epochs == b.avg_total_epochs
        assert [r.test_mse for r in a.repeats] == [r.test_mse for r in b.repeats]
        assert a.best_predictions == b.best_predictions

    def test_averages_are_arithmetic_means(self, bundle):
        res = run_experiment(small_spec(repeats=3), bundle, FAST)
        assert res.avg_test_mse == pytest.approx(
            np.mean([r.test_mse for r in res.repeats]), abs=1e-12)
        assert res.avg_runtime_seconds == pytest.approx(
            np.mean([r.seconds for r in res.repeats]), abs=1e-12)

    def test_base_seed_changes_result(self, bundle):
        a = run_experiment(small_spec(base_seed=1), bundle, FAST)
        b = run_experiment(small_spec(base_seed=2), bundle, FAST)
        assert a.avg_test_mse != b.avg_test_mse

    def test_feature_set_selection(self, bundle):
        for fs, width in (("technical", 15), ("fundamental", 13), ("mixed", 28)):
            assert bundle.features_for(fs).shape[1] == width
        with pytest.raises(ValueError):
            bundle.features_for("other")

    def test_pca_disabled_uses_raw_features(self, bundle):
        res = run_experiment(small_spec(pca_k=None, repeats=1), bundle, FAST)
        assert res.n_failed == 0

    def test_repeat_failure_marks_cell_partial(self, bundle, monkeypatch):
        # The repeats train together, so the failure is injected where each
        # repeat gets its own initial model.
        calls = {"n": 0}
        original = exp.init_rnn

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(exp, "init_rnn", flaky)
        res = run_experiment(small_spec(repeats=3), bundle, FAST)
        assert res.n_failed == 1
        assert res.partial
        assert "injected failure" in res.repeats[1].error
        ok = [r for r in res.repeats if r.error is None]
        assert res.avg_test_mse == pytest.approx(np.mean([r.test_mse for r in ok]))

    @pytest.mark.parametrize("pca_scope,split_mode,fits", [("full", "random", 1),
                                                           ("train", "random", 3),
                                                           ("train", "blocked", 1)])
    def test_pca_fitted_once_per_set_of_fitting_rows(self, bundle, monkeypatch, pca_scope,
                                                     split_mode, fits):
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return fit_pca(*args, **kwargs)

        monkeypatch.setattr(exp, "fit_pca", counting_fit)
        res = run_experiment(small_spec(repeats=3, pca_scope=pca_scope, split_mode=split_mode),
                             bundle, FAST)
        assert res.n_failed == 0
        assert len(calls) == fits

    def test_too_short_series_rejected(self, bundle):
        spec = small_spec(delay=len(bundle.aligned.target) - 5)
        with pytest.raises(ValueError, match="usable pairs"):
            run_experiment(spec, bundle, FAST)

    def test_blocked_split_mode_runs(self, bundle):
        res = run_experiment(small_spec(split_mode="blocked", repeats=1),
                             bundle, FAST)
        assert res.n_failed == 0


class TestGridEnumeration:
    def test_one_company_is_108_cells(self):
        specs = grid_specs(["A"], master_seed=0)
        assert len(specs) == 108

    def test_two_companies_is_216_cells(self):
        specs = grid_specs(["A", "B"], master_seed=0)
        assert len(specs) == 216

    def test_enumeration_order_documented(self):
        specs = grid_specs(["A"], master_seed=0)
        assert (specs[0].algorithm, specs[0].feature_set,
                specs[0].n_hidden, specs[0].delay) == ("lm", "fundamental", 5, 5)
        assert specs[1].delay == 10
        assert specs[3].n_hidden == 10
        assert specs[12].feature_set == "technical"
        assert specs[36].algorithm == "br"

    def test_cell_seeds_are_distinct_and_stable(self):
        a = grid_specs(["A", "B"], master_seed=5)
        b = grid_specs(["A", "B"], master_seed=5)
        assert [s.base_seed for s in a] == [s.base_seed for s in b]
        assert len({s.base_seed for s in a}) == len(a)

    def test_cell_name_format(self):
        spec = grid_specs(["ACME"], master_seed=0)[0]
        assert cell_name(spec) == "ACME_lm_fundamental_h5_d5"


class TestMarginals:
    def _mini_report(self, bundle):
        # hand-built two-cell report; marginals are means of cell averages
        r1 = run_experiment(small_spec(algorithm="lm", repeats=1), bundle, FAST)
        r2 = run_experiment(small_spec(algorithm="lm", n_hidden=5, repeats=1),
                            bundle, FAST)
        return GridReport(results=[r1, r2])

    def test_marginal_mean_recomputed(self, bundle):
        report = self._mini_report(bundle)
        rows = report.marginal("algorithm")
        assert len(rows) == 1
        company, algo, epochs, best, mse, runtime = rows[0]
        assert (company, algo) == ("ACME", "lm")
        assert mse == pytest.approx(np.mean([r.avg_test_mse for r in report.results]),
                                    abs=1e-12)
        assert epochs == pytest.approx(
            np.mean([r.avg_total_epochs for r in report.results]), abs=1e-12)

    def test_marginal_by_neurons_groups(self, bundle):
        report = self._mini_report(bundle)
        rows = report.marginal("neurons")
        assert [(r[0], r[1]) for r in rows] == [("ACME", 4), ("ACME", 5)]

    def test_counts(self, bundle):
        report = self._mini_report(bundle)
        assert report.n_cells == 2
        assert report.n_runs == 2
