"""``tools/same_bytes.py`` compares two output trees: it must report a
changed byte, a missing file and an extra file, and ignore a difference
that lies only in a CSV's ``avg_runtime_seconds`` column.  The tool is
loaded straight from its path and never runs the program here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"

GRID = ("company,algorithm,avg_test_mse,avg_runtime_seconds\n"
        "A,lm,1.5,{runtime}\nA,br,2.5,0.25\n")


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path):
    """Two equal output trees, (parent, change)."""
    roots = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "A").mkdir(parents=True)
        (root / "grid_results.csv").write_text(GRID.format(runtime="0.5"))
        (root / "A" / "model.json").write_text('{"n_hidden": 4}\n')
        (root / "A" / "prices.csv").write_text("date,close\n2020-01-02,9.5\n")
        roots.append(root)
    return roots


def test_equal_trees(trees):
    assert load_tool().compare_dirs(*map(str, trees)) == (3, 3, [])


def test_changed_byte_reported(trees):
    parent, change = trees
    (change / "A" / "prices.csv").write_text("date,close\n2020-01-02,9.6\n")
    assert load_tool().compare_dirs(str(parent), str(change)) == (
        2, 3, ["differs: A/prices.csv"])


def test_missing_and_extra_files_reported(trees):
    parent, change = trees
    (change / "A" / "model.json").unlink()
    (change / "A" / "extra.csv").write_text("x\n1\n")
    assert load_tool().compare_dirs(str(parent), str(change)) == (
        2, 4, ["only in change: A/extra.csv", "missing in change: A/model.json"])


def test_runtime_column_masked(trees):
    parent, change = trees
    (change / "grid_results.csv").write_text(GRID.format(runtime="0.75"))
    assert load_tool().compare_dirs(str(parent), str(change)) == (3, 3, [])


def test_only_the_runtime_column_masked(trees):
    parent, change = trees
    (change / "grid_results.csv").write_text(GRID.format(runtime="0.5").replace("2.5", "2.6"))
    assert load_tool().compare_dirs(str(parent), str(change))[2] == [
        "differs: grid_results.csv"]


def test_grid_config_read_from_the_acceptance_tests():
    config = load_tool().grid_config(str(TOOL.parents[1]))
    assert "[run]" in config and "seed = 7" in config
