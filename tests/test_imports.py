"""Every module-level import in the package is used (``__init__.py``, which
imports to re-export, excepted), and neither the term kernels nor the
parser touch ``fractions.Fraction``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evosym"


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that no other
    code of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd, lcm as l\n"
              "def f(x: int) -> int:\n    return l(x, 2)\n")
    assert unused_imports(source) == ["os", "gcd"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_are_used(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


def fraction_uses(source: str) -> list[str]:
    """Where ``source`` imports the ``fractions`` module or names
    ``Fraction`` (as a name, an attribute or an import alias)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            out.append("fractions")
        elif isinstance(node, ast.alias) and "Fraction" in (node.name,
                                                             node.asname):
            out.append("Fraction")
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            out.append("Fraction")
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            out.append("Fraction")
    return out


@pytest.mark.parametrize("source", [
    "from fractions import Fraction\n",
    "from fractions import Fraction as F\n",
    "import fractions\n",
    "def f(m):\n    return m.Fraction(1, 2)\n",
    "def f(v):\n    return isinstance(v, Fraction)\n",
])
def test_the_fraction_check_sees_every_form(source):
    assert fraction_uses(source)


def test_the_term_kernels_use_no_fraction():
    # the kernels run on int numerators only; rational rates are scaled
    # to integers at the key level
    source = (PACKAGE / "_kernel_py.py").read_text()
    assert fraction_uses(source) == []


def test_the_parser_uses_no_fraction():
    # literals are ints from token to coefficient; a / b divides exactly in
    # DiffExpr
    source = (PACKAGE / "parser.py").read_text()
    assert fraction_uses(source) == []
