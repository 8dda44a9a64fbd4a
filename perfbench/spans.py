"""Spans and counts around calls into the program, recorded from outside it.

Each traced function is replaced, in the module where its caller looks
it up, by a wrapper that times the call and keeps, per span name, the
call count, total seconds and self seconds (total minus the time its
traced children took).  A few spans also keep every duration so that
percentiles can be taken, and hooks add counts such as recurrent steps
or epochs at the same boundary.

Every process keeps its own recorder.  When a process has one, it
appends what it gathered to ``<sink>/spans-<pid>.jsonl`` each time its
outermost span closes, so pool workers report whether they were forked
(the recorder is reset in the child) or spawned (the child re-imports
the entry script, which installs the wrappers again).
"""

from __future__ import annotations

import functools
import json
import os
import time

SAMPLED = ("experiments.run", "experiments.cell")


class Recorder:
    def __init__(self, sink: str | None = None):
        self.sink = sink
        self.reset()

    def reset(self):
        self.stack = []        # child seconds of each open span
        self.stats = {}        # name -> [calls, seconds, self seconds]
        self.counts = {}       # name -> number
        self.samples = {}      # name -> [seconds, ...]
        self.train_points = None  # parameter vectors seen inside one train call

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name, fn, args, kwargs):
        self.stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.add(name + ".errors")
            raise
        finally:
            took = time.perf_counter() - start
            children = self.stack.pop()
            if self.stack:
                self.stack[-1] += took
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += took
            stat[2] += took - children
            if name in SAMPLED:
                self.samples.setdefault(name, []).append(took)
            if not self.stack and self.sink is not None:
                self.flush()

    def flush(self):
        if not (self.stats or self.counts):
            return
        line = json.dumps({"stats": self.stats, "counts": self.counts,
                           "samples": self.samples})
        path = os.path.join(self.sink, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.stats, self.counts, self.samples = {}, {}, {}

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}


def merge(parts) -> dict:
    """Sum recorder snapshots (or flushed lines) into one."""
    out = {"stats": {}, "counts": {}, "samples": {}}
    for part in parts:
        for name, (calls, secs, self_secs) in part["stats"].items():
            s = out["stats"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += secs
            s[2] += self_secs
        for name, value in part["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        for name, values in part["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
    return out


def read_sink(sink: str) -> dict:
    parts = []
    for entry in sorted(os.listdir(sink)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(sink, entry), encoding="utf-8") as fh:
                parts.extend(json.loads(line) for line in fh if line.strip())
    return merge(parts)


# ---------------------------------------------------------------------------
# Hooks: counts taken at the same boundary as the span.
# ---------------------------------------------------------------------------


def _steps(counter):
    def after(rec, args, kwargs, result):
        dataset = args[1] if len(args) > 1 else kwargs["dataset"]
        rec.add(counter, dataset.inputs.shape[0])
    return after


def _forward_before(rec, args, kwargs):
    # Inside a train call, every distinct parameter vector the objective
    # is evaluated at is the start point or a trial point.
    if rec.train_points is not None:
        model = args[0] if args else kwargs["model"]
        rec.train_points.add(hash(model.params_to_vector().tobytes()))


def _train_config(args, kwargs):
    return args[4] if len(args) > 4 else kwargs["cfg"]


def _train_span(args, kwargs):
    return f"trainers.train.{_train_config(args, kwargs).algorithm}"


def _train_before(rec, args, kwargs):
    rec.train_points = set()


def _train_after(rec, args, kwargs, result):
    _, record = result
    algorithm = _train_config(args, kwargs).algorithm
    rec.add("trainers.epochs", record.total_epochs)
    rec.add(f"trainers.epochs.{algorithm}", record.total_epochs)
    rec.add("trainers.steps_accepted", len(record.step_deltas))
    rec.add("trainers.trial_points", max(len(rec.train_points) - 1, 0))
    rec.add(f"trainers.stop.{record.stop_reason}")
    if any("exceeded" in note or "overflow" in note for note in record.notes):
        rec.add("trainers.stop.damping_overflow")
    rec.train_points = None


def _rows_deleted(rec, args, kwargs, result):
    bars = args[0] if args else kwargs["bars"]
    rec.add("market_data.rows_deleted", len(bars) - len(result.dates))


# (module name, attribute, span name, before hook, after hook).  Each
# entry is the place a caller looks the function up.
TRACED = (
    ("trainers", "forward", "rnn.forward", _forward_before, _steps("rnn.forward.steps")),
    ("experiments", "forward", "rnn.forward", None, _steps("rnn.forward.steps")),
    ("trainers", "gradient_sse", "rnn.gradient", None, _steps("rnn.gradient.steps")),
    ("trainers", "prediction_jacobian", "rnn.jacobian", None,
     _steps("rnn.jacobian.steps")),
    ("experiments", "train", _train_span, _train_before, _train_after),
    ("experiments", "run_repeat", "experiments.run", None, None),
    ("experiments", "run_experiment", "experiments.cell", None, None),
    ("experiments", "prepare_inputs", "experiments.prepare_inputs", None, None),
    ("cli", "run_grid", "experiments.grid", None, None),
    ("experiments", "fit_pca", "pca.fit", None, None),
    ("cli", "fit_pca", "pca.fit", None, None),
    ("experiments", "transform", "pca.transform", None, None),
    ("cli", "transform", "pca.transform", None, None),
    ("cli", "load_prices", "market_data.load_prices", None, None),
    ("cli", "clean_and_align", "market_data.clean_and_align", None, _rows_deleted),
    ("indicators", "compute_technical_matrix", "indicators.technical_matrix", None, None),
    ("fundamentals", "load_fundamentals", "fundamentals.load_fundamentals", None, None),
    ("fundamentals", "daily_ratio_matrix", "fundamentals.daily_ratio_matrix", None, None),
    ("cli", "build_bundle", "cli.build_bundle", None, None),
    ("cli", "write_grid_results", "cli.write", None, None),
    ("cli", "write_marginals", "cli.write", None, None),
    ("cli", "write_predictions", "cli.write", None, None),
    ("cli", "write_pca_report", "cli.write", None, None),
    ("cli", "write_pca_scatter", "cli.write", None, None),
    ("cli", "_write_daily_fundamentals", "cli.write", None, None),
    ("indicators", "write_technical_csv", "cli.write", None, None),
)


def _wrap(rec, fn, name, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        span = name(args, kwargs) if callable(name) else name
        result = rec.call(span, fn, args, kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every traced function and each CLI command for ``rec``."""
    import importlib
    for module_name, attr, name, before, after in TRACED:
        module = importlib.import_module(f"aeroforecast.{module_name}")
        setattr(module, attr, _wrap(rec, getattr(module, attr), name, before, after))
    cli = importlib.import_module("aeroforecast.cli")
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = _wrap(rec, fn, "cli.command", None, None)
    os.register_at_fork(after_in_child=rec.reset)
