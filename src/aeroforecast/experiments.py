"""Seeded experiment harness: one cell = {algorithm, feature set, hidden
neurons, delay} for one company, averaged over 10 random 70/15/15
splits; the full grid enumerates 108 cells per company (216 for two).

Every random choice flows from the cell's base seed: repeat r uses
``base_seed + r``, from which split and weight-init sub-seeds are
derived with stable labels, so any repeat can be reproduced alone.

The repeats of a cell train in lockstep (``trainers.train_repeats``),
their parameters stacked on a leading (R, P) axis, and each repeat gets
the bytes it gets alone, so :func:`run_repeat` is the one-repeat case of
the same code.  The model inputs are fitted once per set of fitting
rows: once per cell with ``pca_scope="full"`` (or a blocked split),
per repeat otherwise.  A repeat's
``seconds``, and so a cell's ``avg_runtime_seconds``, is the cell's
lockstep training wall time divided by its repeats; :func:`run_repeat`
times one repeat alone.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .fundamentals import RATIO_NAMES
from .indicators import TECHNICAL_COLUMNS
from .market_data import AlignedDataset, write_csv
from .pca import SCALE_MODES, fit_pca, transform
from .rnn import (SequenceDataset, build_supervised, forward, init_rnn,
                  loss_mse, rescale_output)
from .seeding import derive_seed
# ``train`` is unused here but stays importable as ``experiments.train``,
# where perfbench's traced mode wraps it.
from .trainers import ALGORITHMS, TrainConfig, train, train_repeats  # noqa: F401

# The columns of each feature set, in the order of the aligned features.
FEATURE_COLUMNS = {"fundamental": RATIO_NAMES, "technical": TECHNICAL_COLUMNS,
                   "mixed": TECHNICAL_COLUMNS + RATIO_NAMES}
FEATURE_SETS = tuple(FEATURE_COLUMNS)
GRID_NEURONS = (5, 10, 15, 20)
GRID_DELAYS = (5, 10, 15)
GRID_REPEATS = 10
MIN_SPLIT_SAMPLES = 20  # the fewest samples a train/validation/test split takes


@dataclass(frozen=True)
class CompanyBundle:
    """One company's cleaned, aligned features and close-price target."""

    label: str
    aligned: AlignedDataset

    def features_for(self, feature_set: str) -> np.ndarray:
        if feature_set not in FEATURE_COLUMNS:
            raise ValueError(f"unknown feature set {feature_set!r}")
        if feature_set == "mixed":  # every aligned column, uncopied
            return self.aligned.features
        return self.aligned.columns(FEATURE_COLUMNS[feature_set])


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid cell (or an ad-hoc run with free parameter values)."""

    company_label: str
    feature_set: str
    algorithm: str
    n_hidden: int
    delay: int  # tau in aligned samples, not trading days (rnn.build_supervised)
    pca_k: int | None = 3  # None disables PCA
    repeats: int = GRID_REPEATS
    base_seed: int = 0
    pca_scale_mode: str = "center-only"
    pca_scope: str = "full"  # "full" (paper default) or "train"
    standardize_inputs: bool = True
    split_mode: str = "random"  # or "blocked" contiguous time blocks

    def __post_init__(self):
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {self.feature_set!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.delay < 1 or self.n_hidden < 1 or self.repeats < 1:
            raise ValueError("delay, n_hidden, and repeats must be positive")
        if self.pca_scale_mode not in SCALE_MODES:
            raise ValueError(f"unknown pca scale_mode {self.pca_scale_mode!r}")
        if self.pca_scope not in ("full", "train"):
            raise ValueError(f"unknown pca_scope {self.pca_scope!r}")
        if self.split_mode not in ("random", "blocked"):
            raise ValueError(f"unknown split_mode {self.split_mode!r}")


@dataclass(frozen=True)
class RepeatResult:
    seed: int
    total_epochs: int = 0
    best_epoch: int = 0
    test_mse: float = float("nan")
    seconds: float = float("nan")
    stop_reason: str = ""
    error: str | None = None


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    repeats: list = field(default_factory=list)  # RepeatResult per repeat
    avg_total_epochs: float = float("nan")
    avg_best_epochs: float = float("nan")
    avg_test_mse: float = float("nan")
    avg_runtime_seconds: float = float("nan")
    # Test-set rows of the lowest-MSE repeat: (date, target, prediction).
    best_predictions: list = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.repeats if r.error is not None)

    @property
    def partial(self) -> bool:
        return self.n_failed > 0


def _split(n_samples: int, seed: int | None):
    """Cut an ordering of 0..n-1 into disjoint (train, validation, test)
    index arrays: validation and test each get round(0.15 n) samples
    (Python rounding, half to even), training the rest.  The ordering is
    a seeded uniform shuffle, or time order for ``seed=None``."""
    if n_samples < MIN_SPLIT_SAMPLES:
        raise ValueError(f"need at least {MIN_SPLIT_SAMPLES} samples to split, got {n_samples}")
    n_val = round(0.15 * n_samples)
    n_train = n_samples - 2 * n_val
    order = (np.arange(n_samples) if seed is None
             else np.random.default_rng(seed).permutation(n_samples))
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def split_70_15_15(n_samples: int, seed: int):
    """Disjoint (train, validation, test) index arrays covering 0..n-1,
    sized as :func:`_split` says, assigned by a seeded uniform shuffle."""
    return _split(n_samples, seed)


def split_blocked(n_samples: int):
    """Contiguous-in-time 70/15/15 split for leakage-aware studies."""
    return _split(n_samples, None)


def prepare_inputs(spec: ExperimentSpec, features: np.ndarray, fit_rows=None):
    """PCA-project and standardize the feature matrix for one repeat.

    ``fit_rows`` restricts the rows used to fit the PCA map and the
    standardization statistics (train-scope mode); all rows are always
    transformed.
    """
    fit_data = features if fit_rows is None else features[fit_rows]
    if spec.pca_k is not None:
        model = fit_pca(fit_data, spec.pca_k, scale_mode=spec.pca_scale_mode)
        projected = transform(model, features)
        fit_proj = projected if fit_rows is None else projected[fit_rows]
    else:
        projected = features
        fit_proj = fit_data
    if not spec.standardize_inputs:
        return projected
    mean = fit_proj.mean(axis=0)
    std = fit_proj.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (projected - mean) / std


@dataclass
class RepeatArtifacts:
    """Everything one repeat produces; the grid keeps only the summary."""

    result: RepeatResult
    prediction_rows: list  # (date, target, prediction) over test indices
    model: object  # trained RnnModel
    record: object  # TrainRecord
    test_mse: float


def _model_inputs(spec: ExperimentSpec, features, target, fit_rows=None):
    """(dataset, y_mean, y_scale), fitted on ``fit_rows`` (None: all rows):
    standardized targets keep the output weights O(1) for the optimizer."""
    inputs = prepare_inputs(spec, features, fit_rows)
    labels = target[spec.delay:]
    stats = labels if fit_rows is None else labels[fit_rows]
    y_mean = float(stats.mean())
    y_scale = float(stats.std()) or 1.0
    return build_supervised(inputs, (target - y_mean) / y_scale, tau=spec.delay), y_mean, y_scale


def _run_repeats(spec: ExperimentSpec, bundle: CompanyBundle, seeds,
                 cfg: TrainConfig) -> list:
    """One seeded split/fit/train/evaluate pass per seed, trained in
    lockstep; a RepeatArtifacts, or the exception raised, per seed."""
    target = bundle.aligned.target
    n_pairs = len(target) - spec.delay
    if n_pairs < MIN_SPLIT_SAMPLES:
        raise ValueError(
            f"{bundle.label}: {max(n_pairs, 0)} usable pairs after delay {spec.delay}; "
            f"need >= {MIN_SPLIT_SAMPLES}"
        )
    features = bundle.features_for(spec.feature_set)
    outcomes, jobs, fitted = {}, [], {}  # model inputs by the rows they are fitted on
    for seed in seeds:
        try:
            if spec.split_mode == "random":
                split = split_70_15_15(n_pairs, derive_seed(seed, "split"))
            else:
                split = split_blocked(n_pairs)
            fit_rows = np.sort(split[0]) if spec.pca_scope == "train" else None
            key = None if fit_rows is None else fit_rows.tobytes()
            if key not in fitted:
                fitted[key] = _model_inputs(spec, features, target, fit_rows)
            inputs = fitted[key]
            model0 = init_rnn(inputs[0].inputs.shape[1], spec.n_hidden, spec.delay,
                              seed=derive_seed(seed, "init"))
        except Exception as exc:  # noqa: BLE001 - the other repeats carry on
            outcomes[seed] = exc
        else:
            jobs.append((seed, split, inputs, model0))
    trained = train_repeats([job[3] for job in jobs], [job[2][0] for job in jobs],
                            [job[1][0] for job in jobs], [job[1][1] for job in jobs],
                            replace(cfg, algorithm=spec.algorithm)) if jobs else []
    for (seed, split, inputs, _), outcome in zip(jobs, trained):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            outcomes[seed] = _evaluate(spec, bundle, seed, split[2], inputs, *outcome)
        except Exception as exc:  # noqa: BLE001 - the other repeats carry on
            outcomes[seed] = exc
    return [outcomes[seed] for seed in seeds]


def _evaluate(spec, bundle, seed, test_idx, inputs, trained, record) -> RepeatArtifacts:
    """Map a trained repeat back to price units and score its test rows."""
    data, y_mean, y_scale = inputs
    trained = rescale_output(trained, y_scale, y_mean)
    record.train_mse = [v * y_scale * y_scale for v in record.train_mse]
    record.val_mse = [v * y_scale * y_scale for v in record.val_mse]

    natural = SequenceDataset(inputs=data.inputs, targets=bundle.aligned.target[spec.delay:])
    preds = forward(trained, natural)
    test_mse = loss_mse(preds[test_idx], natural.targets[test_idx])
    result = RepeatResult(
        seed=seed,
        total_epochs=record.total_epochs,
        best_epoch=record.best_epoch,
        test_mse=test_mse,
        seconds=record.seconds,
        stop_reason=record.stop_reason,
    )
    rows = [(bundle.aligned.dates[t + spec.delay], float(natural.targets[t]), float(preds[t]))
            for t in sorted(int(i) for i in test_idx)]
    return RepeatArtifacts(result=result, prediction_rows=rows, model=trained,
                           record=record, test_mse=test_mse)


def run_repeat(spec: ExperimentSpec, bundle: CompanyBundle, seed: int,
               cfg: TrainConfig) -> RepeatArtifacts:
    """One seeded split/fit/train/evaluate pass (the one-repeat case of a
    cell); all reported quantities, training curves included, are in
    price units."""
    (outcome,) = _run_repeats(spec, bundle, [seed], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_experiment(spec: ExperimentSpec, bundle: CompanyBundle,
                   cfg: TrainConfig | None = None) -> ExperimentResult:
    """Run all repeats of one cell and aggregate by arithmetic mean.

    A repeat that raises is recorded as failed and excluded from the
    averages; the cell is marked partial rather than aborting.
    """
    if cfg is None:
        cfg = TrainConfig(algorithm=spec.algorithm)
    result = ExperimentResult(spec=spec)
    best_mse = np.inf
    seeds = [spec.base_seed + r for r in range(spec.repeats)]
    for seed, artifacts in zip(seeds, _run_repeats(spec, bundle, seeds, cfg)):
        if isinstance(artifacts, Exception):
            result.repeats.append(RepeatResult(
                seed=seed, error=f"{type(artifacts).__name__}: {artifacts}"))
            continue
        result.repeats.append(artifacts.result)
        if artifacts.test_mse < best_mse:
            best_mse = artifacts.test_mse
            result.best_predictions = artifacts.prediction_rows
    ok = [r for r in result.repeats if r.error is None]
    if ok:
        for column, name in CELL_AVERAGES.items():
            setattr(result, column, float(np.mean([getattr(r, name) for r in ok])))
    return result


# The paper's settings for everything the grid does not vary.
GRID_TEMPLATE = ExperimentSpec(company_label="", feature_set=FEATURE_SETS[0],
                               algorithm=ALGORITHMS[0], n_hidden=GRID_NEURONS[0],
                               delay=GRID_DELAYS[0])


def check_grid_template(template: ExperimentSpec) -> None:
    if template.pca_k not in (2, 3):
        raise ValueError("grid pca_k must be 2 or 3")


def grid_specs(company_labels, master_seed: int,
               template: ExperimentSpec = GRID_TEMPLATE):
    """The documented cell enumeration: company, then algorithm, feature
    set, hidden neurons, delay (innermost).  Every other field comes
    from ``template``, whose ``pca_k`` must be 2 or 3, as in the paper."""
    check_grid_template(template)
    return [replace(template, company_label=label, algorithm=algorithm,
                    feature_set=feature_set, n_hidden=n_hidden, delay=delay,
                    repeats=GRID_REPEATS,
                    base_seed=derive_seed(master_seed, "grid", label, algorithm,
                                          feature_set, n_hidden, delay))
            for label in company_labels
            for algorithm in ALGORITHMS
            for feature_set in FEATURE_SETS
            for n_hidden in GRID_NEURONS
            for delay in GRID_DELAYS]


@dataclass
class GridReport:
    results: list  # ExperimentResult, in enumeration order

    @property
    def n_cells(self) -> int:
        return len(self.results)

    @property
    def n_runs(self) -> int:
        return sum(len(r.repeats) for r in self.results)

    @property
    def failed_cells(self):
        return [r for r in self.results if r.partial]

    def marginal(self, dimension: str):
        """Mean of cell averages grouped by (company, dimension value).

        Rows appear in enumeration order of the grid; failed repeats are
        already excluded from the cell averages, and fully-failed cells
        are skipped.
        """
        spec_field = MARGINAL_DIMENSIONS[dimension]
        groups: dict = {}
        for res in self.results:
            if not np.isfinite(res.avg_test_mse):
                continue
            key = (res.spec.company_label, getattr(res.spec, spec_field))
            groups.setdefault(key, []).append(res)
        return [key + tuple(float(np.mean([getattr(c, column) for c in cells]))
                            for column in CELL_AVERAGES)
                for key, cells in groups.items()]


def _run_cell(args):
    spec, bundle, cfg = args
    return run_experiment(spec, bundle, cfg)


def run_grid(bundles, master_seed: int, cfg: TrainConfig | None = None,
             template: ExperimentSpec = GRID_TEMPLATE, jobs: int = 1) -> GridReport:
    """Run the full cell enumeration over all companies, each cell a
    copy of ``template`` (see :func:`grid_specs`).

    Cells are independent; with ``jobs > 1`` they run in a process pool,
    and results keep enumeration order either way.
    """
    if not bundles:
        raise ValueError("need at least one company bundle")
    by_label = {b.label: b for b in bundles}
    if len(by_label) != len(bundles):
        raise ValueError("duplicate company labels")
    specs = grid_specs([b.label for b in bundles], master_seed, template)
    tasks = [(spec, by_label[spec.company_label], cfg) for spec in specs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=4))
    else:
        results = [_run_cell(t) for t in tasks]
    return GridReport(results=results)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

# Each cell average, in column order -> the RepeatResult field it averages.
# A new average needs an entry here and an ExperimentResult field of that
# name; run_experiment, the marginals and both report headers follow it.
CELL_AVERAGES = {"avg_total_epochs": "total_epochs", "avg_best_epochs": "best_epoch",
                 "avg_test_mse": "test_mse", "avg_runtime_seconds": "seconds"}
# Each grid_results.csv spec column, in order -> the ExperimentSpec field
# it writes.  A new spec column needs only an entry here.
SPEC_COLUMNS = {"company": "company_label", "algorithm": "algorithm",
                "feature_set": "feature_set", "n_hidden": "n_hidden", "delay": "delay",
                "pca_k": "pca_k", "repeats": "repeats", "base_seed": "base_seed"}
GRID_RESULT_COLUMNS = tuple(SPEC_COLUMNS) + tuple(CELL_AVERAGES)

# Each marginals file's grouping dimension -> the ExperimentSpec field it reads.
MARGINAL_DIMENSIONS = {"algorithm": "algorithm", "feature_set": "feature_set",
                       "neurons": "n_hidden", "delay": "delay"}


def cell_name(spec: ExperimentSpec) -> str:
    return (f"{spec.company_label}_{spec.algorithm}_{spec.feature_set}"
            f"_h{spec.n_hidden}_d{spec.delay}")


def write_grid_results(path, report: GridReport) -> None:
    """``grid_results.csv``: one row per cell, spec fields then averages."""
    write_csv(path, GRID_RESULT_COLUMNS, (
        [getattr(res.spec, name) for name in SPEC_COLUMNS.values()]
        + [getattr(res, column) for column in CELL_AVERAGES]
        for res in report.results))


def write_marginals(out_dir, report: GridReport) -> list:
    """``marginals_<dimension>.csv`` per grouping dimension."""
    paths = []
    for dim in MARGINAL_DIMENSIONS:
        path = f"{out_dir}/marginals_{dim}.csv"
        write_csv(path, ["company", dim, *CELL_AVERAGES], report.marginal(dim))
        paths.append(path)
    return paths


def write_predictions(path, rows) -> None:
    """``predictions_<cell>.csv`` from (date, target, prediction) rows,
    each written with its error, prediction - target."""
    write_csv(path, ["date", "target", "prediction", "error"],
              ((date, target, pred, pred - target) for date, target, pred in rows))
