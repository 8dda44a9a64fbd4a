"""Command-line pipeline: ingestion -> features -> PCA -> training -> reports.

Commands
--------
synth     write synthetic prices.csv / fundamentals.csv per company
features  technical + daily-fundamental feature CSVs and alignment summary
pca       explained-variance report and projected coordinates
train     train one model; emit model file, training curve, predictions
grid      the full algorithm x feature-set x neurons x delay study

Configuration comes from an INI-style file (sections of key = value)
plus command-line flag overrides; flags win.  Every setting has a
default, so with no config at all the commands run on two synthetic
demo companies.  The master seed resolves as: --seed flag, then the
config file, then the AEROFORECAST_SEED environment variable, then 0.

Each INI section fills one object of the resolved :class:`RunConfig`:

[run]            seed, out, jobs            -> RunConfig
[synthetic]      n_days, drift, volatility,
                 quarterly_pattern          -> RunConfig.synthetic (SyntheticSpec)
[indicators]     every IndicatorConfig field -> RunConfig.indicators
[train]          every TrainConfig field     -> RunConfig.train
                 feature_set, neurons, delay -> RunConfig.experiment (ExperimentSpec)
[pca]            k (none: no PCA), scale_mode, scope -> RunConfig.experiment
[experiment]     standardize_inputs, split_mode -> RunConfig.experiment
[company:LABEL]  prices, fundamentals (none: synthetic) -> RunConfig.companies

The experiment's algorithm is always ``[train] algorithm`` (or --algo).
The experiment is checked when the config loads, before any command
starts work, and its ``pca_k``, whose bounds depend on the command and
the feature set, once the flags are applied.  ``train`` replaces its
company and seed; each grid cell replaces the company, the four grid
dimensions, the repeat count and the seed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fundamentals as fund
from . import indicators as ind
from .experiments import (FEATURE_COLUMNS, FEATURE_SETS, CompanyBundle, ExperimentSpec,
                          cell_name, check_grid_template, run_grid, run_repeat,
                          write_grid_results, write_marginals, write_predictions)
from .market_data import (MarketDataError, SyntheticSpec, clean_and_align,
                          generate_synthetic, load_prices, write_csv,
                          write_prices)
from .pca import check_k, fit_pca, transform, write_pca_report, write_pca_scatter
from .rnn import save_model
from .seeding import derive_seed
from .trainers import ALGORITHMS, TrainConfig

DEFAULT_COMPANIES = ("SYN_A", "SYN_B")
# Each experiment setting's (section, key) -> the ExperimentSpec field it sets,
# cast to its default's type.  A new setting needs only an entry here.
EXPERIMENT_KEYS = {("pca", "k"): "pca_k", ("pca", "scale_mode"): "pca_scale_mode",
                   ("pca", "scope"): "pca_scope", ("train", "feature_set"): "feature_set",
                   ("train", "neurons"): "n_hidden", ("train", "delay"): "delay",
                   ("experiment", "standardize_inputs"): "standardize_inputs",
                   ("experiment", "split_mode"): "split_mode"}


@dataclass
class CompanyEntry:
    label: str
    prices: str | None = None  # None -> synthetic
    fundamentals: str | None = None


@dataclass
class RunConfig:
    """The resolved settings of one CLI run: config file, then flags."""

    seed: int = 0
    out: str = "aeroforecast_out"
    jobs: int = 1
    companies: list = field(default_factory=lambda: [
        CompanyEntry(label) for label in DEFAULT_COMPANIES])
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    indicators: ind.IndicatorConfig = field(default_factory=ind.IndicatorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    # The algorithm is train.algorithm's; the company and seed are set per run.
    experiment: ExperimentSpec = field(default_factory=lambda: ExperimentSpec(
        company_label="", feature_set="technical", algorithm="lm", n_hidden=10, delay=5))


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Parse the INI config (None: defaults only); omitted keys keep defaults.

    The seed is ``seed`` (the --seed flag), else ``[run] seed``, else
    ``AEROFORECAST_SEED`` (read only then), else 0.  The accepted sections
    and keys are exactly those read here: anything else, a number that
    does not parse, and a boolean key not spelt true/false, yes/no,
    on/off or 1/0 raise ``ValueError`` naming section and key.  So do
    ``jobs`` below 1 and the checks of ``TrainConfig`` and
    ``ExperimentSpec``.
    """
    rc = RunConfig()
    parser = configparser.ConfigParser()
    if path is not None and not parser.read(path):
        raise MarketDataError(f"config file not found: {path}")
    accepted = {}  # section -> keys read below

    def get(section, key, cast, default):
        accepted.setdefault(section, set()).add(key)
        if not parser.has_option(section, key):
            return default
        raw = parser[section][key].strip()
        if cast is bool:
            if raw.lower() not in parser.BOOLEAN_STATES:
                raise ValueError(f"config [{section}] {key}: {raw!r} is not a boolean "
                                 "(use true/false, yes/no, on/off or 1/0)")
            return parser.BOOLEAN_STATES[raw.lower()]
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(f"config [{section}] {key}: {raw!r} is not "
                             f"{cast.__name__}") from None

    def fields_of(section, cls, skip=()):
        """One key per field of ``cls`` but ``skip``, cast to its default's type."""
        return {f.name: get(section, f.name, type(f.default), f.default)
                for f in dataclasses.fields(cls) if f.name not in skip}

    config_seed = get("run", "seed", int, None)
    if seed is None:
        seed = config_seed if config_seed is not None else _env_seed()
    rc.seed = seed
    rc.out = get("run", "out", str, rc.out)
    rc.jobs = _check_jobs(get("run", "jobs", int, rc.jobs))

    # The synthetic seed is derived per company, never read.
    rc.synthetic = SyntheticSpec(**fields_of("synthetic", SyntheticSpec, skip=("seed",)))
    rc.indicators = ind.IndicatorConfig(**fields_of("indicators", ind.IndicatorConfig))

    train = fields_of("train", TrainConfig)
    train["algorithm"] = train["algorithm"].lower()
    rc.train = TrainConfig(**train)

    spec = rc.experiment
    no_pca = get("pca", "k", str, str(spec.pca_k)).lower() in ("", "none", "0")
    experiment = {name: None if name == "pca_k" and no_pca
                  else get(section, key, type(getattr(spec, name)), getattr(spec, name))
                  for (section, key), name in EXPERIMENT_KEYS.items()}

    companies = [CompanyEntry(label=name.split(":", 1)[1].strip(),
                              prices=get(name, "prices", str, None) or None,
                              fundamentals=get(name, "fundamentals", str, None) or None)
                 for name in parser.sections() if name.startswith("company:")]
    if companies:
        rc.companies = companies

    if parser.defaults():
        raise ValueError(f"config: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in accepted:
            raise ValueError(f"config: unknown section [{section}]")
        unknown = sorted(set(parser[section]) - accepted[section])
        if unknown:
            raise ValueError(f"config [{section}]: unknown key {', '.join(unknown)}")
    rc.experiment = dataclasses.replace(spec, algorithm=rc.train.algorithm, **experiment)
    return rc


def _check_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _env_seed() -> int:
    raw = os.environ.get("AEROFORECAST_SEED", "").strip()
    try:
        return int(raw or 0)
    except ValueError:
        raise ValueError(f"AEROFORECAST_SEED: {raw!r} is not int") from None


def apply_overrides(rc: RunConfig, args) -> RunConfig:
    """Command-line flags win over the config (--seed is applied by load_config)."""
    if args.out is not None:
        rc.out = args.out
    if args.jobs is not None:
        rc.jobs = _check_jobs(args.jobs)
    if args.company is not None:
        matching = [c for c in rc.companies if c.label == args.company]
        # Without [company:...] sections any label is a synthetic company.
        if not matching and rc.companies != RunConfig().companies:
            raise ValueError(f"--company {args.company}: the config names only "
                             + ", ".join(c.label for c in rc.companies))
        rc.companies = matching or [CompanyEntry(args.company)]
    if args.algo is not None:
        rc.train = dataclasses.replace(rc.train, algorithm=args.algo)
    flags = {"feature_set": args.feature_set, "n_hidden": args.neurons, "delay": args.delay}
    rc.experiment = dataclasses.replace(
        rc.experiment, algorithm=rc.train.algorithm,
        **{name: value for name, value in flags.items() if value is not None})
    return rc


def check_pca_k(command: str, spec: ExperimentSpec) -> None:
    """The ``[pca] k`` rules of the commands that fit PCA, checked once
    the flags are applied, before any company's features are built."""
    if command == "grid":
        check_grid_template(spec)
    elif command == "pca" and spec.pca_k is None:
        raise ValueError("config [pca] k: pca needs a component count, not none")
    elif command in ("pca", "train") and spec.pca_k is not None:
        check_k(spec.pca_k, len(FEATURE_COLUMNS[spec.feature_set]))


# ---------------------------------------------------------------------------
# Pipeline steps shared by the commands
# ---------------------------------------------------------------------------


def company_raw_data(rc: RunConfig, entry: CompanyEntry):
    """(bars, quarterly reports) from files or the synthetic generator."""
    if entry.prices is not None:
        bars = load_prices(entry.prices)
        if entry.fundamentals is None:
            raise MarketDataError(f"{entry.label}: prices given without fundamentals")
        reports = fund.load_fundamentals(entry.fundamentals)
        return bars, reports
    spec = dataclasses.replace(rc.synthetic,
                               seed=derive_seed(rc.seed, "synth", entry.label))
    return generate_synthetic(spec)


def build_bundle(rc: RunConfig, entry: CompanyEntry):
    """Full feature pipeline for one company.

    Returns (bundle, technical matrix, fundamental daily matrix, bars)
    with the matrices still containing their pre-cleaning NaN rows.
    """
    bars, reports = company_raw_data(rc, entry)
    technical = ind.compute_technical_matrix(bars, rc.indicators)
    fund_daily, ratio_names = fund.daily_ratio_matrix(reports, bars)
    aligned = clean_and_align(bars, technical, ind.TECHNICAL_COLUMNS,
                              fund_daily, ratio_names)
    return CompanyBundle(label=entry.label, aligned=aligned), technical, fund_daily, bars


def _outdir(rc: RunConfig, *parts) -> str:
    path = os.path.join(rc.out, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(rc: RunConfig) -> int:
    for entry in rc.companies:
        bars, reports = company_raw_data(rc, CompanyEntry(entry.label))  # no files: generated
        out = _outdir(rc, entry.label)
        write_prices(os.path.join(out, "prices.csv"), bars)
        fund.write_fundamentals(os.path.join(out, "fundamentals.csv"), reports)
        print(f"{entry.label}: wrote {len(bars)} bars, {len(reports)} quarters -> {out}")
    return 0


def cmd_features(rc: RunConfig) -> int:
    for entry in rc.companies:
        bundle, technical, fund_daily, bars = build_bundle(rc, entry)
        out = _outdir(rc, entry.label)
        ind.write_technical_csv(os.path.join(out, "technical.csv"),
                                [b.date for b in bars], technical)
        _write_daily_fundamentals(os.path.join(out, "fundamentals_daily.csv"),
                                  [b.date for b in bars], fund_daily)
        aligned_dates = set(bundle.aligned.dates)
        deleted = [b.date for b in bars if b.date not in aligned_dates]
        write_csv(os.path.join(out, "deleted_rows.csv"), ["date"], ([d] for d in deleted))
        write_csv(os.path.join(out, "alignment_summary.csv"),
                  ["company", "input_days", "aligned_rows", "feature_columns", "deleted_rows"],
                  [(entry.label, len(bars), len(bundle.aligned.dates),
                    len(bundle.aligned.feature_names), len(deleted))])
        print(f"{entry.label}: {len(bars)} days -> {len(bundle.aligned.dates)} aligned rows "
              f"({len(deleted)} deleted), {len(bundle.aligned.feature_names)} features")
    return 0


def _write_daily_fundamentals(path, dates, matrix):
    write_csv(path, ("date",) + fund.RATIO_NAMES,
              ([date] + row for date, row in zip(dates, np.asarray(matrix).tolist())))


def cmd_pca(rc: RunConfig) -> int:
    spec = rc.experiment
    k = spec.pca_k
    for entry in rc.companies:
        bundle, _, _, _ = build_bundle(rc, entry)
        features = bundle.features_for(spec.feature_set)
        model = fit_pca(features, k, scale_mode=spec.pca_scale_mode)
        projected = transform(model, features)
        out = _outdir(rc, entry.label)
        write_pca_report(os.path.join(out, "pca_report.csv"), model)
        write_pca_scatter(os.path.join(out, "pca_scatter.csv"), projected)
        top = 100.0 * float(model.explained_ratio[:k].sum())
        print(f"{entry.label}: PCA({spec.feature_set}) keeps {top:.2f}% variance "
              f"in {k} components")
    return 0


def cmd_train(rc: RunConfig) -> int:
    for entry in rc.companies:
        bundle, _, _, _ = build_bundle(rc, entry)
        spec = dataclasses.replace(rc.experiment, company_label=entry.label, repeats=1,
                                   base_seed=derive_seed(rc.seed, "train", entry.label))
        artifacts = run_repeat(spec, bundle, spec.base_seed, rc.train)
        out = _outdir(rc, entry.label)
        save_model(os.path.join(out, "model.json"), artifacts.model)
        rec = artifacts.record
        write_csv(os.path.join(out, "training_curve.csv"), ["epoch", "train_mse", "val_mse"],
                  ((e, tm, vm) for e, (tm, vm) in
                   enumerate(zip(rec.train_mse, rec.val_mse), start=1)))
        write_predictions(os.path.join(out, f"predictions_{entry.label}.csv"),
                          artifacts.prediction_rows)
        print(f"{entry.label}: {rc.train.algorithm.upper()} stopped after "
              f"{rec.total_epochs} epochs ({rec.stop_reason}), best epoch "
              f"{rec.best_epoch}, test MSE {artifacts.test_mse:.6f}")
    return 0


def cmd_grid(rc: RunConfig) -> int:
    bundles = [build_bundle(rc, entry)[0] for entry in rc.companies]
    report = run_grid(bundles, rc.seed, cfg=rc.train, template=rc.experiment, jobs=rc.jobs)
    out = _outdir(rc)
    write_grid_results(os.path.join(out, "grid_results.csv"), report)
    write_marginals(out, report)
    for res in report.results:
        write_predictions(os.path.join(out, f"predictions_{cell_name(res.spec)}.csv"),
                          res.best_predictions)
    failures = {
        cell_name(res.spec): [r.error for r in res.repeats if r.error is not None]
        for res in report.failed_cells
    }
    print(f"grid: {report.n_cells} cells, {report.n_runs} runs, "
          f"{len(failures)} cells with failures -> {out}")
    if failures:
        manifest = os.path.join(out, "failures.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"failure manifest: {manifest}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeroforecast",
        description="Share-price prediction pipeline: features, PCA, "
                    "target-delayed RNN, and the full experiment grid.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config "
                        "and AEROFORECAST_SEED)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--company", help="restrict to one company label")
    parser.add_argument("--feature-set", dest="feature_set", choices=FEATURE_SETS)
    parser.add_argument("--algo", choices=ALGORITHMS)
    parser.add_argument("--neurons", type=int)
    parser.add_argument("--delay", type=int)
    parser.add_argument("--jobs", type=int, help="parallel workers for the grid")
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "features": cmd_features,
    "pca": cmd_pca,
    "train": cmd_train,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = apply_overrides(load_config(args.config, args.seed), args)
        check_pca_k(args.command, rc.experiment)
        return COMMANDS[args.command](rc)
    except (MarketDataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
