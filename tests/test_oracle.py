"""evosym against the benchmark's sympy oracle (``perfbench/oracle.py``),
which shares no code with evosym: its Fréchet derivative and bracket are
written out from the definitions and its ranks come from sympy's exact
matrices."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (AnsatzConfig, bracket, classify, find_symmetries,
                    frechet, is_symmetry, op_apply, parse)

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


def _coeff(rng):
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return f"({num}/{rng.choice([1, 2, 3, 7])})"


def _poly(rng, gens, nterms):
    return " + ".join(
        _coeff(rng) + "".join(f"*{g}^{rng.randint(1, 2)}"
                              for g in rng.sample(gens, rng.randint(1, 2)))
        for _ in range(nterms))


def _draw(rng):
    """``(F, G, known)``: F of order 2-4 in u..u_n with rational
    coefficients; G a random polynomial in x, t, u..u3, or ``c1*u1 + c2*F``
    (a symmetry of the autonomous, x-free F; ``known``) perturbed by one
    such term half the time."""
    n = rng.randint(2, 4)
    lower = ["u"] + [f"u{i}" for i in range(1, n)]
    F = f"{_coeff(rng)}*u{n} + {_poly(rng, lower, rng.randint(1, 3))}"
    gens = ["x", "t", "u", "u1", "u2", "u3"]
    if rng.random() < 0.5:
        return F, _poly(rng, gens, rng.randint(1, 3)), False
    G = f"{_coeff(rng)}*u1 + {_coeff(rng)}*({F})"
    if rng.random() < 0.5:
        return F, f"{G} + {_poly(rng, gens, 1)}", False
    return F, G, True


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_bracket_frechet_and_verdict_against_the_oracle(seed):
    F, G, known = _draw(random.Random(seed))
    F_ev, G_ev = parse(F), parse(G)
    F_sp, G_sp = oracle.to_sympy(F), oracle.to_sympy(G)

    def same(got, want):
        return oracle.is_zero(oracle.to_sympy(str(got)) - want)

    assert same(bracket(F_ev, G_ev), oracle.bracket(F_sp, G_sp))
    alg = oracle._Algebra(F_sp, G_sp)
    assert same(op_apply(frechet(F_ev), G_ev),
                alg.expr(alg.frechet_apply(alg.poly(F_sp), alg.poly(G_sp))))
    verdict = is_symmetry(classify(F_ev), G_ev).is_symmetry
    assert verdict == oracle.is_symmetry(F_sp, G_sp)
    if known:
        assert verdict
