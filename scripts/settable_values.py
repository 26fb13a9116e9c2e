"""Print every value a caller of hdpbench can set but need not: each
parameter with a default in ``src/hdpbench``, each field with a default
of ``ExperimentConfig`` and ``TrainConfig``, and each command-line option
(an ``add_argument("--name", ...)`` call), then their total.

Usage: python scripts/settable_values.py

Reads the source with ``ast`` and imports nothing. Prints one
``<file>:<line>  <function or class>.<name> = <default>`` line per value,
in file and line order, and ``total: N`` last; an option's name is its
``--`` flag and its default is ``None`` unless the call sets one. A new
default parameter, config field or option raises the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "hdpbench"
CONFIG_CLASSES = ("ExperimentConfig", "TrainConfig")


def _defaults(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
    """(parameter, default) pairs of one function, in signature order."""
    args = node.args
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _option(node: ast.AST) -> tuple[str, str] | None:
    """(flag, default) of an ``add_argument("--flag", ...)`` call, else None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument" and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("--")):
        return None
    default = next((k.value for k in node.keywords if k.arg == "default"), None)
    return node.args[0].value, "None" if default is None else ast.unparse(default)


def _walk(node: ast.AST, owner: str):
    """(line, owner, name, default) below ``node``, whose dotted name is ``owner``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            name = getattr(child, "name", "<lambda>")
            qualname = f"{owner}.{name}" if owner else name
            if isinstance(child, ast.ClassDef):
                if child.name in CONFIG_CLASSES:
                    for stmt in child.body:
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                            yield stmt.lineno, qualname, stmt.target.id, ast.unparse(stmt.value)
            else:
                for arg, default in _defaults(child):
                    yield arg.lineno, qualname, arg.arg, ast.unparse(default)
            yield from _walk(child, qualname)
        else:
            if option := _option(child):
                yield child.lineno, owner, *option
            yield from _walk(child, owner)


def settable_values(source: Path = SOURCE) -> list[tuple[str, int, str, str, str]]:
    """(file, line, owner, name, default) of every settable value in ``source``."""
    return [
        (path.name, *value)
        for path in sorted(source.glob("*.py"))
        for value in sorted(_walk(ast.parse(path.read_text(), filename=str(path)), ""))
    ]


def main() -> int:
    values = settable_values()
    for file, line, owner, name, default in values:
        print(f"{file}:{line}  {owner}.{name} = {default}")
    print(f"total: {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
