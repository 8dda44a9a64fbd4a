"""Byte-identity check of the program's outputs between two source trees.

    python tools/same_bytes.py --parent DIR --change DIR [--set cli|grid|features]

Each set runs the same command-line invocations on both trees, each side
with ``PYTHONPATH=<tree>/src`` and ``OPENBLAS_NUM_THREADS=1``, into output
directories whose paths have equal length, then compares every output
file byte for byte and the commands' stdout with the output path
replaced.  CSV columns named ``avg_runtime_seconds`` (wall-clock time)
are blanked before the comparison; nothing else is.

Sets (``--set`` may repeat; the default is all three):

cli       ``synth``, ``features``, ``pca`` and ``train`` with ``--seed 11``
          and no config, then ``train --algo br`` and ``train --algo scg``,
          each into its own subdirectory (``br/``, ``scg/``) so that no run
          overwrites another's files: the two demo companies, 34 files.
          The BR and SCG runs train on paper-scale series, with more
          training rows than weights.
grid      ``grid`` with criterion 8's ``GRID_CONFIG``, read from the change
          tree's ``tests/test_acceptance.py``: 221 files.
features  ``features`` then ``pca`` on ``make_companies(901, 8, 5040)`` of
          the change tree's ``perfbench/inputs.py``, with ``[pca] k = 3``
          and ``[train] feature_set = mixed``: 48 files.

For each set it prints ``n of m files equal`` and names every file that
differs or exists on one side only.  The exit status is 1 on any
difference, else 0.  The tool itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import os
import subprocess
import sys
import tempfile

MASKED_COLUMN = "avg_runtime_seconds"
CLI_SEED = 11
FEATURES_SEED = 901

# Writes the features set's inputs with the tree's own benchmark generator,
# in a child process, since the generator needs numpy.
WRITE_INPUTS = """
import os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
import inputs
work, seed = sys.argv[2], int(sys.argv[3])
companies = inputs.make_companies(seed, 8, 5040)
paths = {c.label: inputs.write_company(os.path.join(work, c.label), c) for c in companies}
inputs.write_config(os.path.join(work, "features.ini"),
                    {"run": {"seed": seed}, "pca": {"k": 3},
                     "train": {"feature_set": "mixed"}}, paths)
"""


def grid_config(tree: str) -> str:
    """The ``GRID_CONFIG`` string of ``tests/test_acceptance.py`` in ``tree``."""
    path = os.path.join(tree, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read(), path)
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "GRID_CONFIG" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{path}: no GRID_CONFIG assignment")


def set_commands(name: str, change: str, work: str) -> list:
    """The commands of set ``name`` as ``(arguments, subdirectory)`` pairs:
    the CLI arguments without ``--out``, and the subdirectory of the output
    directory that the command writes into (None: the output directory
    itself).  Any input files the commands need are written into ``work``."""
    if name == "cli":
        seed = ["--seed", str(CLI_SEED)]
        return ([([command, *seed], None) for command in ("synth", "features", "pca", "train")]
                + [(["train", *seed, "--algo", algo], algo) for algo in ("br", "scg")])
    if name == "grid":
        config = os.path.join(work, "grid.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(grid_config(change))
        return [(["grid", "--config", config], None)]
    subprocess.run([sys.executable, "-c", WRITE_INPUTS, change, work, str(FEATURES_SEED)],
                   check=True)
    config = os.path.join(work, "features.ini")
    return [(["features", "--config", config], None), (["pca", "--config", config], None)]


def run_side(tree: str, commands: list, out: str) -> str:
    """Run each command on ``tree`` into ``out``; the transcript of their
    stdout and exit codes, with ``out`` written as ``<out>``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("AEROFORECAST_SEED", None)
    transcript = []
    for args, subdir in commands:
        target = out if subdir is None else os.path.join(out, subdir)
        proc = subprocess.run([sys.executable, "-m", "aeroforecast.cli", *args, "--out", target],
                              env=env, cwd=os.path.dirname(out), capture_output=True,
                              text=True)
        transcript.append(f"$ {' '.join(args)}\n{proc.stdout}[exit {proc.returncode}]\n")
    return "".join(transcript).replace(out, "<out>")


def masked_bytes(path: str) -> bytes:
    """The file's bytes, with every CSV column named ``avg_runtime_seconds``
    blanked."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".csv"):
        return data
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    masked = [i for i, name in enumerate(rows[0] if rows else []) if name == MASKED_COLUMN]
    if not masked:
        return data
    for row in rows[1:]:
        for i in masked:
            if i < len(row):
                row[i] = ""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode("utf-8")


def files_under(root: str) -> set:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def compare_dirs(parent: str, change: str):
    """(files equal, files in either tree, one line per difference)."""
    parent_files, change_files = files_under(parent), files_under(change)
    equal, problems = 0, []
    for rel in sorted(parent_files | change_files):
        if rel not in change_files:
            problems.append(f"missing in change: {rel}")
        elif rel not in parent_files:
            problems.append(f"only in change: {rel}")
        elif masked_bytes(os.path.join(parent, rel)) != masked_bytes(os.path.join(change, rel)):
            problems.append(f"differs: {rel}")
        else:
            equal += 1
    return equal, len(parent_files | change_files), problems


def check_set(name: str, parent: str, change: str, work: str) -> bool:
    """Run set ``name`` on both trees and print its comparison; True when
    everything is equal."""
    os.makedirs(work)
    commands = set_commands(name, change, work)
    # "parent" and "change" have equal length, so the output paths do too.
    outs = {side: os.path.join(work, side, "out") for side in ("parent", "change")}
    stdout = {}
    for side, tree in (("parent", parent), ("change", change)):
        os.makedirs(os.path.dirname(outs[side]))
        stdout[side] = run_side(tree, commands, outs[side])
    equal, total, problems = compare_dirs(outs["parent"], outs["change"])
    same_stdout = stdout["parent"] == stdout["change"]
    if not same_stdout:
        problems.append("stdout differs")
    print(f"{name}: {equal} of {total} files equal; stdout "
          + ("equal apart from the output path" if same_stdout else "differs"))
    for line in problems:
        print(f"  {line}")
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--set", dest="sets", action="append",
                        choices=("cli", "grid", "features"),
                        help="output set to compare (repeatable; default: all)")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as work:
        same = [check_set(name, parent, change, os.path.join(work, name))
                for name in args.sets or ("cli", "grid", "features")]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
