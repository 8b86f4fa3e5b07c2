"""evosym against the benchmark's sympy oracle (``perfbench/oracle.py``),
which shares no code with evosym: its Fréchet derivative and bracket are
written out from the definitions and its ranks come from sympy's exact
matrices."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (AnsatzConfig, bracket, check_structure, classify,
                    find_symmetries, frechet, is_symmetry, op_apply, parse,
                    partial, total_d)
from evosym import _kernel_py, expr as ex
from evosym.symmetry import SelfCheckError

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


# -- planted kernel faults ---------------------------------------------------
#
# Each fault wraps the real kernel functions, so the test copies no kernel
# loop; keys are read through ``expr``'s field helpers.  Tier-1 must notice
# each one on both requests below: either a SelfCheckError is raised, or a
# verdict or a dimension differs from the oracle's.

_derive_terms, _mul_key = _kernel_py.derive_terms, _kernel_py.mul_key


def _shift(out: dict, key: tuple, delta: int) -> None:
    v = out.get(key, 0) + delta
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _squares_lose_their_factor(total: bool):
    """``derive_terms`` whose power rule drops the exponent factor of a
    squared generator: ``c * g^2 * rest`` gives ``c * g * g'`` where it
    should give ``2*c * g * g'``.  The fault hits ``D`` (``gen=None``) when
    ``total`` is set and a partial derivative (``gen`` a generator code)
    otherwise."""
    def derive_terms(a, gen=None):
        out, m = _derive_terms(a, gen)
        if (gen is None) != total:
            return out, m
        for (gens, rest), c in a.items():
            for (_, g), power in ex._gen_part(gens)[1]:
                if power != 2:
                    continue
                if total and g >= 0:  # D sends u_g to u_(g+1)
                    image = ex._gen_unit(g + 1)
                elif not total and g == gen:
                    image = 0
                else:
                    continue
                _shift(out, (gens - ex._gen_unit(g) + image, rest), -c * m)
        return out, m
    return {"derive_terms": derive_terms}


def _off_by_one(k1, k2):
    """The product of two keys with the power of each ``u_i`` (i >= 1) that
    both hold one too high: ``u1 * u1`` gives ``u1^3``."""
    gens, rest = _mul_key(k1, k2)
    shared = {s[1] for s, _ in ex._gen_part(k1[0])[1] if s[1] >= 1}
    shared &= {s[1] for s, _ in ex._gen_part(k2[0])[1]}
    return gens + sum(ex._gen_unit(g) for g in shared), rest


def _shared_u_power_off_by_one():
    """Every kernel that forms products (``addmul_into`` and ``mul_single``
    add the packed powers inline, ``mul_key`` serves the rest) with the
    keys of ``_off_by_one``."""
    def addmul_into(acc, a, b, factor):
        for ka, ca in a.items():
            for kb, cb in b.items():
                _shift(acc, _off_by_one(ka, kb), factor * ca * cb)

    def mul_single(terms, key, coeff):
        return {_off_by_one(k, key): c * coeff for k, c in terms.items()}

    return {"mul_key": _off_by_one, "addmul_into": addmul_into,
            "mul_single": mul_single}


_KDV = "u3 + 6*u*u1"
_FLOW5 = "u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1"


@pytest.mark.parametrize("faults, probe", [
    (_squares_lose_their_factor(True), lambda: total_d(parse("u1^2"))),
    (_squares_lose_their_factor(False),
     lambda: partial(parse("u^2*u2"), "u")),
    (_shared_u_power_off_by_one(), lambda: parse("u1") * parse("u1*u2")),
], ids=["D", "partial", "products"])
def test_tier1_notices_a_planted_kernel_fault(monkeypatch, faults, probe):
    F_sp = oracle.to_sympy(_KDV)
    want = (oracle.is_symmetry(F_sp, oracle.to_sympy(_FLOW5)),
            oracle.solution_dim(F_sp, oracle.pool(3, 5, 7)))
    assert want == (True, 3)
    right = probe()
    for name, fault in faults.items():
        monkeypatch.setattr(_kernel_py, name, fault)
    # inputs are parsed inside the patch: each expression memoizes its
    # derivatives
    assert probe() != right  # the fault is live

    def check():  # what `evosym check` computes
        eq = classify(parse(_KDV))
        rep = is_symmetry(eq, parse(_FLOW5))
        if rep.is_symmetry:
            check_structure(eq, rep)
        return rep.is_symmetry

    def find():  # what `evosym find --order 5 --weight 7` computes
        eq = classify(parse(_KDV))
        return len(find_symmetries(
            eq, AnsatzConfig(order=5, weight_max=7)).basis)

    for request, expected in zip((check, find), want):
        try:
            got = request()
        except SelfCheckError:
            continue
        assert got != expected, request.__name__
