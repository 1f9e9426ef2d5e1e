"""numpy is the only runtime dependency: the package imports nothing else outside the stdlib."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wordsim"


def imported_roots(path):
    """The top-level name of every module path imports; "wordsim" for a relative import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "wordsim" if node.level else node.module.partition(".")[0]


def test_every_module_imports_only_the_stdlib_numpy_or_wordsim():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    allowed = sys.stdlib_module_names | {"numpy", "wordsim"}
    foreign = {
        (path.name, root) for path in modules for root in imported_roots(path) if root not in allowed
    }
    assert not foreign


def test_pyproject_declares_numpy_alone():
    """numpy from 2.0, which added the np.bitwise_count that the edit and LCS kernels call."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=2.0"]
