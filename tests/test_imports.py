"""Every module of the package uses each name it imports, and none reads
a private name of the fractions module, whose internals differ across the
supported Python versions.

Both checks read the source with `ast` only.  A name imported at any level
counts as used when it appears as a name anywhere in the module, inside a
quoted annotation, or in `__all__`.  `__init__.py` re-exports its imports
and `from __future__` imports are directives, so both are exempt from the
first check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankone"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree)
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import List, Tuple\n"
              "def f(x: 'List[int]') -> int:\n"
              "    return len(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "Tuple")]


PRIVATE_FRACTIONS = {"_normalize", "_from_coprime_ints", "_numerator",
                     "_denominator"}


def private_fractions_uses(source):
    """(line, name) of each private fractions name the source reads, as an
    attribute, a keyword argument or an import from fractions."""
    tree = ast.parse(source)
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_FRACTIONS:
            uses.add((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg in PRIVATE_FRACTIONS:
            uses.add((node.value.lineno, node.arg))
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            uses |= {(node.lineno, a.name) for a in node.names
                     if a.name.startswith("_")}
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_fractions_api(path):
    assert private_fractions_uses(path.read_text()) == []


def test_check_finds_private_fractions_api():
    source = ("from fractions import Fraction, _gcd\n"
              "x = Fraction(1, 3)\n"
              "n = x._numerator + x._denominator\n"
              "y = Fraction._from_coprime_ints(1, 2)\n"
              "z = Fraction(2, 4, _normalize=False)\n")
    assert private_fractions_uses(source) == [
        (1, "_gcd"), (3, "_denominator"), (3, "_numerator"),
        (4, "_from_coprime_ints"), (5, "_normalize")]
