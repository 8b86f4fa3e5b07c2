"""Every module-level import in the package (``__init__.py``, which imports
to re-export, excepted) and in the tests is used, neither the term kernels
nor the parser touch ``fractions.Fraction``, no module keeps results in
module state, only ``expr`` reads the term-key layout or builds a packing of
it, and ``evosym.__all__`` lists every public import of the package and only
names that resolve."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "evosym"


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


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"] + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


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


# -- reuse lives on expression objects, not in module state -------------------

_DICT_TYPES = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
               "WeakValueDictionary"}
_CACHES = {"cache", "lru_cache"}


def _is_dict(node) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in _DICT_TYPES
    return False


class _MemoFinder(ast.NodeVisitor):
    def __init__(self, module_dicts: set[str]) -> None:
        self.dicts = module_dicts
        self.scope: list[str] = []
        self.found: list[str] = []

    def _add(self, what: str) -> None:
        self.found.append(f"{'.'.join(self.scope) or '<module>'}: {what}")

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Attribute(self, node) -> None:
        if (node.attr in _CACHES and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            self._add(f"functools.{node.attr}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node) -> None:
        if node.module == "functools":
            for alias in node.names:
                if alias.name in _CACHES:
                    self._add(f"functools.{alias.name}")

    def visit_Global(self, node) -> None:
        self._add("global " + ", ".join(node.names))

    def visit_Subscript(self, node) -> None:
        if (self.scope and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in self.dicts):
            self._add(f"writes {node.value.id}")
        self.generic_visit(node)

    def visit_Call(self, node) -> None:
        f = node.func
        if (self.scope and isinstance(f, ast.Attribute)
                and f.attr in ("setdefault", "update", "__setitem__")
                and isinstance(f.value, ast.Name)
                and f.value.id in self.dicts):
            self._add(f"writes {f.value.id}")
        self.generic_visit(node)


def module_memos(source: str) -> list[str]:
    """Where ``source`` can keep results in module state, as
    ``"<function>: <what>"``: a use of ``functools.cache`` or ``lru_cache``,
    a ``global`` statement, or a function writing into a dict bound at
    module level."""
    tree = ast.parse(source)
    dicts = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_dict(node.value):
            dicts |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and _is_dict(node.value) and isinstance(node.target, ast.Name)):
            dicts.add(node.target.id)
    finder = _MemoFinder(dicts)
    finder.visit(tree)
    return finder.found


@pytest.mark.parametrize("source", [
    "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n"
    "    return x\n",
    "from functools import cache\n",
    "_SEEN = {}\ndef f(x):\n    _SEEN[x] = x\n",
    "_SEEN: dict = dict()\nclass C:\n    def f(self, x):\n"
    "        return _SEEN.setdefault(x, x)\n",
    "_LAST = None\ndef f(x):\n    global _LAST\n    _LAST = x\n",
])
def test_the_memo_check_sees_every_form(source):
    assert module_memos(source)


def test_the_memo_check_passes_read_only_tables():
    source = ("import functools\n_KINDS = {1: 'a'}\ndef f(k):\n"
              "    out = {}\n    out[k] = _KINDS[k]\n    return out\n")
    assert module_memos(source) == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_level_memo(path):
    # the D and partial memos live on DiffExpr objects, so no request (and
    # no benchmark pass) can reuse another's work through module state; the
    # CLI's argument parser, built once, is the one exception
    allowed = ["build_parser: functools.cache"] if path == "cli.py" else []
    assert module_memos((PACKAGE / path).read_text()) == allowed


# -- one module owns the term-key layout ---------------------------------------

# the DiffExpr fields, the canonical-order view and the raw constructor
_TERM_FIELDS = {"_t", "_den", "_parts", "_num_items", "_reduced"}
# the packed key layout: the kernel's field constants and expr's helpers
# that read, pack and decode the fields
_LAYOUT_NAMES = {"FIELD_BITS", "FIELD_MASK", "MAX_POWER", "MAX_U", "GUARD",
                 "X_UNIT", "ONE_KEY", "_gen_unit", "_gen_part",
                 "_gen_power", "_decode_key", "_encode_key"}
# where the layout is read: expr and the kernel it imports
_LAYOUT_OWNERS = {"expr.py", "_kernel_py.py"}


def term_field_uses(source: str) -> list[str]:
    """Where ``source`` reads a ``DiffExpr`` field (an attribute named
    ``_t``, ``_den``, ``_parts`` or ``_num_items``), or uses ``_reduced``
    or a name of the packed key layout (``_LAYOUT_NAMES``) as an attribute,
    a name or an import, as ``"<line>: <name>"``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name  # what is imported, under any alias
        else:
            continue
        if name in _LAYOUT_NAMES or name in _TERM_FIELDS and (
                name == "_reduced" or isinstance(node, ast.Attribute)):
            out.append(f"{getattr(node, 'lineno', '?')}: {name}")
    return out


@pytest.mark.parametrize("source", [
    "def f(e):\n    return e._t\n",
    "def f(e):\n    return e._den\n",
    "def f(e):\n    return e._parts\n",
    "def f(e):\n    return e._num_items()\n",
    "from . import expr as ex\ndef f(t):\n    return ex._reduced(t, 1)\n",
    "from .expr import _reduced\n",
    "from . import _kernel_py as k\ndef f(g):\n    return g >> k.FIELD_BITS\n",
    "from ._kernel_py import GUARD\n",
    "from . import expr as ex\ndef f(key):\n    return ex._decode_key(key)\n",
    "from .expr import _encode_key as pack\n",
    "def f(e):\n    return e._t.get(ONE_KEY)\n",
])
def test_the_term_field_check_sees_every_form(source):
    assert term_field_uses(source)


def test_the_term_field_check_passes_packing_and_plain_names():
    source = ("from . import expr as ex\n"
              "def f(e, pk):\n    return ex._divide(pk.pack(e, 1), None, pk)\n"
              "def g(_t):\n    return _t\n")
    assert term_field_uses(source) == []


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py")
                   if p.name not in _LAYOUT_OWNERS))
def test_only_expr_reads_term_keys(path):
    # term keys and DiffExpr fields are read in expr (and its kernel) only,
    # so changing the key encoding touches no other module
    source = (PACKAGE / path).read_text()
    assert term_field_uses(source) == []


def packing_calls(source: str) -> list[int]:
    """The lines where ``source`` calls ``_Packing``, by name or as an
    attribute; naming the type (an annotation, a base class) is no call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr",
                                                                None)
            if name == "_Packing":
                out.append(node.lineno)
    return out


@pytest.mark.parametrize("source", [
    "from . import expr as ex\ndef f():\n    return ex._Packing([], 0)\n",
    "from .expr import _Packing\ndef f(top):\n"
    "    return _Packing([(1, 'a')], 2 * top)\n",
])
def test_the_packing_check_sees_every_call(source):
    assert packing_calls(source)


def test_the_packing_check_passes_annotations():
    source = ("from . import expr as ex\n"
              "def f(pk: ex._Packing) -> ex._Packing:\n    return pk\n")
    assert packing_calls(source) == []


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py")
                   if p.name != "expr.py"))
def test_only_expr_builds_a_packing(path):
    # ``expr.constant_rows`` packs a constant matrix over the slots it
    # meets, so no other module spells a key slot to build a packing
    assert packing_calls((PACKAGE / path).read_text()) == []


# -- the package's exports -----------------------------------------------------

def test_all_lists_every_public_import_and_each_name_resolves():
    # a deleted name cannot leave a stale export that breaks
    # ``from evosym import *``, nor a public import go unlisted
    import evosym
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(evosym.__all__)
    assert [n for n in evosym.__all__ if not hasattr(evosym, n)] == []
