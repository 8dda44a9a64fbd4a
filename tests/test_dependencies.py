"""The package imports only the standard library, numpy and itself.

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
