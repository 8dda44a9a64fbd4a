"""Benchmark for aeroforecast: grid throughput, paper-scale training and
feature ingest, with a traced mode that times each module.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  Workloads: grid-small, cell-paper, features-long (see
README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  A fuller record,
with the machine and the run, is written to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_MIN_REPEATS = 6
SETUP_MIN_SECONDS = 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def measure(workload, root, state, seconds, first_index, spans_dir=None):
    """Run whole rounds until another round would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(root, state, first_index + len(rounds), spans_dir))
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1].seconds > seconds:
            return rounds


def _rate(rounds, what):
    return statistics.median(what(r) / r.seconds for r in rounds)


def end_to_end(rounds, setup_times):
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (_rate(rounds, lambda r: r.attempted - r.failed), "1/s"),
        "work_per_s": (_rate(rounds, lambda r: r.work), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _percentile(values, q):
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def per_layer(sp, rounds, overhead_pct):
    """Per-layer metrics from merged spans; totals are per round."""
    st, ct, sm = sp["stats"], sp["counts"], sp["samples"]
    n = len(rounds)

    def secs(name, col=1):
        return st.get(name, [0, 0.0, 0.0])[col]

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    algorithms = ("lm", "br", "scg")
    train_self = sum(secs(f"trainers.train.{a}", 2) for a in algorithms)
    cells = sm.get("experiments.cell", [])
    grid_s = secs("experiments.grid")
    m = {
        "trainers.epochs": (ct.get("trainers.epochs", 0) / n, "count"),
        "trainers.self_s": (train_self / n, "s"),
        "trainers.steps_accepted": (ct.get("trainers.steps_accepted", 0) / n, "count"),
        "trainers.trial_points": (ct.get("trainers.trial_points", 0) / n, "count"),
        "trainers.step_accept_ratio": (ratio(ct.get("trainers.steps_accepted", 0),
                                             ct.get("trainers.trial_points", 0)), "ratio"),
        "experiments.run_s_p50": (_percentile(sm.get("experiments.run", []), 50), "s"),
        "experiments.run_s_p99": (_percentile(sm.get("experiments.run", []), 99), "s"),
        "experiments.cell_s_p50": (_percentile(cells, 50), "s"),
        "experiments.cell_s_p90": (_percentile(cells, 90), "s"),
        "experiments.pool_overlap": (ratio(sum(cells), grid_s), "ratio"),
        "experiments.prepare_inputs_s": (secs("experiments.prepare_inputs") / n, "s"),
        "pca.fit_calls": (calls("pca.fit") / n, "count"),
        "pca.fit_s": (secs("pca.fit") / n, "s"),
        "pca.transform_s": (secs("pca.transform") / n, "s"),
        "market_data.load_prices_s": (secs("market_data.load_prices") / n, "s"),
        "market_data.clean_and_align_s": (secs("market_data.clean_and_align") / n, "s"),
        "market_data.rows_deleted": (ct.get("market_data.rows_deleted", 0) / n, "count"),
        "indicators.technical_matrix_s": (secs("indicators.technical_matrix") / n, "s"),
        "fundamentals.load_fundamentals_s": (secs("fundamentals.load_fundamentals") / n, "s"),
        "fundamentals.daily_ratio_matrix_s": (secs("fundamentals.daily_ratio_matrix") / n, "s"),
        "cli.command_s": (secs("cli.command") / n, "s"),
        "cli.build_bundle_s": (secs("cli.build_bundle") / n, "s"),
        "cli.write_s": (secs("cli.write") / n, "s"),
        "cli.bytes_written": (statistics.median(r.bytes_written for r in rounds), "bytes"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for layer in ("forward", "gradient", "jacobian"):
        name = f"rnn.{layer}"
        m[f"{name}_calls"] = (calls(name) / n, "count")
        m[f"{name}_us_per_step"] = (ratio(secs(name), ct.get(f"{name}.steps", 0), 1e6), "us")
    for a in algorithms:
        m[f"trainers.{a}_ms_per_epoch"] = (
            ratio(secs(f"trainers.train.{a}"), ct.get(f"trainers.epochs.{a}", 0), 1e3), "ms")
    return m


def machine_info():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def git_sha(root):
    """The checked-out commit, read from .git; "unknown" outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def _on_core(i):
    """Pin this process to the i-th allowed CPU (cyclically) for one set-up.

    Set-up is short and single-threaded, so on a shared host its time
    depends on whether the core it lands on has a busy sibling; which
    core that is differs from run to run.  Alternating cores, each
    entered cold, makes the median of the repeats steady across runs.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[i % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run(root, workload, args, work):
    import spans
    import workloads
    import aeroforecast.cli  # noqa: F401  (imported before set-up is timed)

    # Repeat set-up at least six times and for at least two seconds, so
    # that the median of a few-millisecond set-up is not one sample's luck.
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        i = len(setup_times)
        if i:
            shutil.rmtree(os.path.join(work, f"setup-{i - 1}"))
        with _on_core(i):
            start = time.perf_counter()
            state = workload.setup(args.seed, os.path.join(work, f"setup-{i}"))
            setup_times.append(time.perf_counter() - start)

    rounds = measure(workload, root, state, args.seconds, 0)
    traced, span_data, overhead = [], None, None
    if args.trace:
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        recorder = spans.Recorder()
        spans.install(recorder)  # in-process calls (cell-paper)
        traced = measure(workload, root, state, args.seconds, len(rounds), spans_dir)
        span_data = spans.merge([recorder.snapshot(), spans.read_sink(spans_dir)])
        plain = _rate(rounds, lambda r: r.work)
        overhead = (plain / _rate(traced, lambda r: r.work) - 1.0) * 100.0

    everything = rounds + traced
    correct, problem = True, None
    try:
        workload.check(state, everything)
    except workloads.CheckFailed as exc:
        correct, problem = False, str(exc)

    e2e = end_to_end(rounds, setup_times)
    metrics = per_layer(span_data, traced, overhead) if args.trace else e2e
    quality = [r.quality for r in everything if r.quality == r.quality]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "machine": machine_info(),
        "correct": correct,
        "check_failure": problem,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "rounds": [{"seconds": r.seconds, "attempted": r.attempted, "failed": r.failed,
                    "work": r.work, "quality": r.quality} for r in rounds],
        "traced_rounds": [{"seconds": r.seconds, "work": r.work} for r in traced],
        "setup_s_samples": setup_times,
        "test_mse_rel": statistics.mean(quality) if quality else None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
                      if args.trace else None),
        "spans": span_data,
    }
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-small", "cell-paper", "features-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aeroforecast", "cli.py")):
        print("error: src/aeroforecast not found; run from the root of an "
              "aeroforecast checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(results, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    try:
        record, metrics = run(root, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"{workload.name} seed {args.seed}: {len(record['rounds'])} timed round(s), "
          f"{record['attempted']} operations attempted, {record['failed']} failed")
    if record["test_mse_rel"] is not None:
        print(f"  test_mse_rel = {record['test_mse_rel']:.6g} ratio (not gated)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    if not record["correct"]:
        print(f"check failed: {record['check_failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
