"""The package imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "depthseg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "depthseg"}


def _imported_modules(path):
    """Top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert set(_imported_modules(path)) <= ALLOWED


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]

