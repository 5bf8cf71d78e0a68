"""Static checks of the package source: every import in src/lockedmatroid
is package-relative or names a standard-library module, no check
relies on an `assert` statement, which `python -O` removes, and the CLI
reaches no private name of the polytope module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lockedmatroid"


def foreign_imports(source: str) -> list[str]:
    """Top-level module names imported by `source` that are neither
    relative nor in the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [x for x in names if x.split(".")[0] not in sys.stdlib_module_names]
    return out


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_package_imports_only_stdlib():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {f.name: foreign_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_foreign_imports_sees_every_form():
    src = ("from __future__ import annotations\n"
           "import os, numpy.linalg\n"
           "from . import errors\n"
           "from .matroid import rank\n"
           "from sympy import Rational\n"
           "def f():\n"
           "    import networkx as nx\n")
    assert foreign_imports(src) == ["numpy.linalg", "sympy", "networkx"]


def test_package_has_no_assert():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {f.name: assert_lines(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_assert_lines_sees_nested_asserts():
    src = ("assert x\n"
           "def f():\n"
           "    if y:\n"
           "        assert y, 'msg'\n"
           "class C:\n"
           "    def g(self):\n"
           "        return [z for z in ()]\n"
           "x = 'assert not a statement'\n")
    assert assert_lines(src) == [1, 4]


def private_imports(source: str, module: str) -> list[str]:
    """Underscore-prefixed names that `source` imports from the package
    module `module`, relatively or by its full name."""
    froms = ((1, module), (0, "lockedmatroid." + module))
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in froms
            for a in node.names if a.name.startswith("_")]


def test_cli_imports_no_private_polytope_name():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "polytope" in source
    assert private_imports(source, "polytope") == []


def test_private_imports_sees_every_form():
    src = ("from .polytope import build_P, _program\n"
           "from .polytope import (\n    _lp_maximize,\n    verify_lines,\n)\n"
           "from .matroid import _reject_disconnected\n"
           "from lockedmatroid.polytope import _member\n"
           "def f():\n"
           "    from .polytope import _sample_points as draw\n")
    assert private_imports(src, "polytope") == ["_program", "_lp_maximize", "_member",
                                                "_sample_points"]
