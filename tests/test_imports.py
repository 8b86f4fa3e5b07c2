"""Every module-level import in the package is used (``__init__.py``, which
imports to re-export, excepted)."""

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
