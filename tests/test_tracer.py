"""The benchmark's tracer (``perfbench/tracer.py``) patches evosym by name:
every function it lists must be where it looks, a traced request must
answer as an untraced one does, and ``uninstall`` must put every original
binding back."""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

from evosym import cli

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# a search: it reaches the parser, the calculus, brackets and nullspace
ARGV = ["find", "--equation", "u3 + 6*u*u1", "--order", "3", "--weight", "5"]


def benchmark_modules() -> dict:
    """The module map ``perfbench/run.py`` hands the tracer."""
    modules = {name: importlib.import_module(f"evosym.{name}")
               for name in ("cli", "parser", "expr", "calculus", "symmetry",
                            "timedep", "linalg", "search")}
    modules["kernel"] = modules["expr"].kernel
    return modules


def bindings() -> dict:
    """``(module, name) -> object`` for every name of every evosym module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "evosym" or name.startswith("evosym."))
            for attr, value in vars(module).items()}


def test_install_patches_every_target_and_uninstall_restores_it():
    modules = benchmark_modules()
    targets = [(m, f) for m, f, _ in
               tracer.SPAN_FUNCTIONS + tracer.FLAT_FUNCTIONS]
    originals = {(m, f): getattr(modules[m], f) for m, f in targets}
    untraced = io.StringIO()
    assert cli.main(ARGV, out=untraced) == 0
    before = bindings()

    traced = tracer.Tracer(modules)
    traced.install()
    try:
        patched = [(m, f) for m, f in targets
                   if getattr(modules[m], f) is not originals[m, f]]
        out = io.StringIO()
        code = modules["cli"].main(ARGV, out=out)
    finally:
        traced.uninstall()

    assert patched == targets
    assert code == 0 and out.getvalue() == untraced.getvalue()
    assert "G = u3 + 6*u1*u" in out.getvalue()
    assert traced.calls["cli.main"] == 1
    assert traced.calls["parser.parse"] >= 1
    assert traced.calls["linalg.nullspace"] >= 1
    assert traced.count["linalg.rank"] >= 1
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
