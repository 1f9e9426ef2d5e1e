"""numpy is the only runtime dependency, and the package's imports run once, whichever module comes first."""

import ast
import os
import subprocess
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


def test_no_module_imports_inside_a_function():
    """Every import runs once, when its module is imported, never on a call."""
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [(path.name, sub.lineno) for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert not inside


@pytest.mark.parametrize("first", ["wordsim", "wordsim.denoise", "wordsim.contextenc",
                                   "wordsim.evalharness", "wordsim.cli"])
def test_any_module_imported_first_gives_a_working_nearest_ask(first):
    """The modules import each other; each imported first in a fresh interpreter leaves all usable."""
    script = (
        f"import {first}\n"
        "import numpy as np\n"
        "from wordsim.denoise import nearest_standard\n"
        "from wordsim.lexicon import build_lexicon\n"
        "lex = build_lexicon([('thng', 'thing'), ('wter', 'water'), ('fsh', 'fish')])\n"
        "print(nearest_standard(np.eye(len(lex)), lex, 0, k=2))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[(1, 1.0), (3, 1.0)]\n"
