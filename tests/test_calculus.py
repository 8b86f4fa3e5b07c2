import random

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (DOperator, D_OP, ZERO_OP, const, ev_apply, exp_of,
                    frechet, nabla_on_op, op_apply, op_commutator, op_compose,
                    parse, partial, to_source, total_d, total_d_power,
                    u, u_order, x, t)
from evosym.expr import ONE, ZERO, ExpressionError

from conftest import random_expr

u0, u1, u2, u3, u4 = u(0), u(1), u(2), u(3), u(4)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestTotalD:
    def test_definition(self):
        assert total_d(u0) == u1

    def test_product(self):
        assert total_d(x * u1) == u1 + x * u2

    def test_square(self):
        assert total_d(u0 ** 2) == 2 * u0 * u1

    def test_exponential(self):
        assert total_d(exp_of(x)) == exp_of(x)
        assert total_d(exp_of(2 * u0)) == 2 * u1 * exp_of(2 * u0)

    def test_powers(self):
        assert total_d_power(u0, 2) == u2
        # iterated application as its own oracle
        e = x * u1 + 2 * u0
        step = total_d(total_d(total_d(e)))
        assert total_d_power(e, 3) == step == 5 * u3 + x * u4

    def test_zeroth_power_is_identity(self):
        e = x * u1 + exp_of(t)
        assert total_d_power(e, 0) == e

    def test_negative_power_rejected(self):
        with pytest.raises(ExpressionError):
            total_d_power(u0, -1)


class TestFrechet:
    def test_kdv(self):
        F = u3 + 6 * u0 * u1
        assert frechet(F) == DOperator({3: ONE, 1: 6 * u0, 0: 6 * u1})

    def test_identity(self):
        assert frechet(u0) == DOperator({0: ONE})

    def test_u_independent_is_zero(self):
        assert frechet(x * t).is_zero

    def test_atom_dependence(self):
        e = exp_of(-2 * u0)
        assert frechet(e) == DOperator({0: -2 * e})


class TestEvApply:
    def test_single_term(self):
        h = u0 * u1 + x
        assert ev_apply(h, u2) == total_d_power(h, 2)

    def test_hand_expanded(self):
        assert ev_apply(u1, u0 * u1) == u1 ** 2 + u0 * u2

    def test_u_independent_target(self):
        assert ev_apply(u0 ** 3, x * t).is_zero


class TestOperators:
    def test_apply(self):
        Fst = DOperator({3: ONE, 1: 6 * u0, 0: 6 * u1})
        assert op_apply(Fst, 1 + 6 * t * u1) == \
            6 * t * u4 + 36 * t * u0 * u2 + 36 * t * u1 ** 2 + 6 * u1

    def test_commutator_leibniz(self):
        assert op_commutator(D_OP, DOperator({1: u0})) == DOperator({1: u1})

    def test_commutator_self_is_zero(self):
        A = DOperator({2: u1, 0: x * t})
        assert op_commutator(A, A).is_zero

    def test_compose_degree(self):
        A = DOperator({2: u0})
        B = DOperator({3: u1})
        assert op_compose(A, B).degree == 5

    def test_nabla_on_op(self):
        A = DOperator({1: u0})
        assert nabla_on_op(u1, A) == DOperator({1: u1})


# -- the fused D against its definition ---------------------------------------

def _total_d_by_partials(e):
    """``D(e) = de/dx + sum_i u_{i+1} de/du_i``, composed from ``partial``."""
    out = partial(e, x)
    top = u_order(e)
    for i in range(top + 1 if top is not None else 0):
        out = out + u(i + 1) * partial(e, u(i))
    return out


_SYMBOLIC_EXP = exp_of(const("a") * u0 + const("b") * x - t)


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_total_d_matches_partial_composition(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_terms=4, consts=("a", "b"))
    if rng.random() < 0.6:
        e = e * _SYMBOLIC_EXP
    if rng.random() < 0.5:
        e = e + random_expr(rng, max_terms=2, consts=("a", "b"))
    assert total_d(e) == _total_d_by_partials(e)


@pytest.mark.parametrize("source", [
    "u2*exp(a*u + b*x - t)",
    "(u3 + 6*u*u1)*exp(a*u + b*x - t) + a^-1*x*u2",
    "x^2*u1^3*exp(2*u - x) + a*b*u*u1",
    "t*u^2*u1*exp(-3/2*a*u + 1/2*t) - exp(b*x)",
])
def test_total_d_against_sympy(source):
    sp = pytest.importorskip("sympy")
    names = {"x": sp.Symbol("x"), "t": sp.Symbol("t"), "a": sp.Symbol("a"),
             "b": sp.Symbol("b"), "exp": sp.exp, "u": sp.Symbol("u0")}
    us = [sp.Symbol(f"u{i}") for i in range(8)]
    names.update({f"u{i}": us[i] for i in range(1, 8)})

    def to_sympy(e):
        return sp.sympify(to_source(e).replace("^", "**"), locals=names)

    e = parse(source, ("a", "b"))
    f = to_sympy(e)
    expected = sp.diff(f, names["x"]) + sum(
        us[i + 1] * sp.diff(f, us[i]) for i in range(len(us) - 1))
    assert sp.expand(to_sympy(total_d(e)) - expected) == 0


# -- randomized laws ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seeds)
def test_total_d_is_a_derivation(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng)
    e2 = random_expr(rng)
    assert total_d(e1 * e2) == total_d(e1) * e2 + e1 * total_d(e2)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_evolutionary_field_commutes_with_d(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2)
    r = random_expr(rng, max_terms=2)
    assert ev_apply(h, total_d(r)) == total_d(ev_apply(h, r))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_ev_apply_frechet_duality(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2)
    r = random_expr(rng, max_terms=2)
    assert ev_apply(h, r) == op_apply(frechet(r), h)


def _random_operator(rng, max_deg=2):
    return DOperator({d: random_expr(rng, max_terms=1, max_u=2)
                      for d in range(rng.randint(0, max_deg) + 1)
                      if rng.random() < 0.8})


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_operator_composition_associative(seed):
    rng = random.Random(seed)
    A, B, C = (_random_operator(rng) for _ in range(3))
    assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compose_against_apply(seed):
    rng = random.Random(seed)
    A, B = _random_operator(rng), _random_operator(rng)
    e = random_expr(rng, max_terms=2)
    assert op_apply(op_compose(A, B), e) == op_apply(A, op_apply(B, e))
