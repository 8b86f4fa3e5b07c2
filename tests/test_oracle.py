"""Searches with named constants against the benchmark's sympy oracle
(``perfbench/oracle.py``), which shares no code with evosym: its bracket is
written out from the definitions and its ranks come from sympy's exact
matrices."""

import importlib.util
from pathlib import Path

import pytest

from evosym import AnsatzConfig, classify, find_symmetries, parse

pytest.importorskip("sympy")

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@pytest.mark.parametrize("F, constants, order, weight", [
    ("u3 + a*u*u1", ("a",), 7, 9),
    ("u5 + a*u*u3 + b*u1*u2 + c*u^2*u1", ("a", "b", "c"), 5, 7),
], ids=["kdv-a o7w9", "fifth-order family o5w7"])
def test_search_basis_against_the_oracle(F, constants, order, weight):
    """The basis has the dimension of the symmetries in the ansatz at a
    random point of the constants (the generic dimension), and each of its
    elements is a symmetry for the oracle."""
    eq = classify(parse(F, constants))
    res = find_symmetries(eq, AnsatzConfig(order=order, weight_max=weight))
    F_sp = oracle.to_sympy(F, constants)
    ansatz = oracle.pool(eq.n, order, weight)
    point = oracle.generic_point(constants)
    assert len(res.basis) == oracle.solution_dim(F_sp.subs(point), ansatz)
    for g in res.basis:
        assert oracle.is_symmetry(F_sp, oracle.to_sympy(str(g), constants)), g
