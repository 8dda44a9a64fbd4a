"""The package imports only the standard library, numpy and itself, and
uses every name it imports.

scipy and other packages may be installed where the tests run, so an
accidental import of one would pass every other test there and fail
only where it is missing.
"""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "aeroforecast"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "aeroforecast"}
# Imported but unused: the benchmark's traced mode (perfbench/spans.py,
# TRACED) wraps these names where the module looks them up.
UNUSED_FOR_TRACE = {"trainers.py": ["forward"], "experiments.py": ["train"]}


def imported_roots(path):
    """Top-level names of the absolute imports in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_sources_found():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    outside = sorted(set(imported_roots(path)) - ALLOWED)
    assert outside == [], f"{path.name} imports {outside}"


def unused_imports(path):
    """Names ``path`` binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == UNUSED_FOR_TRACE.get(path.name, [])
