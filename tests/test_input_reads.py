"""Every input file the package reads goes through ``datasets.read_input``,
so each one is decoded by one rule and each decoding error names its file
and line. Reads are found in the source with ``ast``; writes are exempt."""

import ast
from pathlib import Path

import pytest

import hdpbench

SRC = Path(hdpbench.__file__).resolve().parent
READ_CALLS = {"open", "read_text", "read_bytes"}


def _reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``open(file, mode)``, ``x.open(mode)``,
    ``x.read_text`` or ``x.read_bytes``; an ``open`` whose constant mode
    only writes does not count."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in READ_CALLS:
        return False
    args = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
    mode = mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "r"
    return name != "open" or not set(mode) & set("wax") or "+" in mode


def read_sites(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing function, or '<module>'; called name) of each
    read in ``source``."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _reads_a_file(child):
                func = child.func
                sites.append((where, func.id if isinstance(func, ast.Name) else func.attr))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_only_read_input_reads_a_file():
    sites = [(path.name, *site) for path in sorted(SRC.glob("*.py"))
             for site in read_sites(path.read_text(encoding="utf-8"))]
    assert sites == [("datasets.py", "read_input", "read_bytes")]


@pytest.mark.parametrize("source, sites", [
    ("open(p)", [("<module>", "open")]),
    ("def f(p):\n    with p.open(encoding='utf-8') as fh:\n        return fh.read()",
     [("f", "open")]),
    ("def f(p):\n    return open(p, 'rb')", [("f", "open")]),
    ("def f(p):\n    return open(p, mode='r+')", [("f", "open")]),
    ("def f(p):\n    def g():\n        return p.read_text()\n    return p.read_bytes(), g",
     [("g", "read_text"), ("f", "read_bytes")]),
    ("def f(p):\n    p.open('w').close()\n    open(p, mode='a')\n    p.write_text('x')", []),
], ids=["module", "path-open", "binary", "update", "nested", "writes"])
def test_read_sites_finds_reads_and_skips_writes(source, sites):
    assert read_sites(source) == sites
