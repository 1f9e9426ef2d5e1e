"""One writer: no module of the package opens a file for writing except neural._write_text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wordsim"

# calls that open or create a file whatever their arguments
CREATORS = {"mkstemp", "NamedTemporaryFile", "TemporaryFile", "write_text", "write_bytes"}


def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _mode(call):
    """The mode argument of an open call: its string, or None when it is not a literal."""
    if len(call.args) > 1:
        mode = call.args[1]
    else:
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _writes(call):
    """Whether the call opens or creates a file to write to; a mode that is not a literal counts."""
    name = _name(call.func)
    if name in CREATORS:
        return True
    if name != "open":
        return False
    mode = _mode(call)
    return mode is None or any(flag in mode for flag in "wax+")


def writers(path):
    """(module, function) for every call in path that opens a file for writing."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_only_the_one_writer_opens_files_for_writing():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert set().union(*map(writers, modules)) == {("neural.py", "_write_text")}


def test_the_check_sees_every_kind_of_write(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def a(p): open(p, 'w')\n"
        "def b(p): open(p, mode='ab')\n"
        "def c(p, m): io.open(p, m)\n"
        "def d(p): p.write_text('x')\n"
        "def e(p): tempfile.mkstemp()\n"
        "def f(p): open(p, 'r+')\n"
        "def g(p): open(p); open(p, 'rb'); open(p, mode='r', encoding='utf-8')\n",
        encoding="utf-8",
    )
    assert writers(source) == {("sample.py", name) for name in "abcdef"}
