import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, Scalar, const, exp_of, normalize,
                    partial, rational, substitute, u, u_order, x, t)
from evosym import expr as ex
from evosym.expr import ZERO, ONE, as_scalar, try_divide, try_nth_root

from conftest import random_expr

u0, u1, u2, u3 = u(0), u(1), u(2), u(3)


class TestNormalize:
    def test_like_terms_collect(self):
        assert u1 + u1 == 2 * u1

    def test_exp_atoms_merge(self):
        assert exp_of(t) * exp_of(t) == exp_of(2 * t)

    def test_ring_identity_cancels(self):
        assert (x * (u0 + u2) - x * u0 - x * u2).is_zero

    def test_exp_zero_is_one(self):
        assert exp_of(ZERO) == ONE
        assert exp_of(2 * u0) * exp_of(-2 * u0) == ONE

    def test_tree_input(self):
        tree = ("add", ("mul", ("num", Fraction(6)), ("gen", 0), ("gen", 1)),
                ("pow", ("gen", 3), 1))
        assert normalize(tree) == 6 * u0 * u1 + u3

    def test_idempotent_on_expressions(self):
        e = 6 * u0 * u1 + u3
        assert normalize(e) is e

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            normalize(("pow", ("gen", 0), Fraction(1, 2)))

    def test_division_by_non_scalar_rejected(self):
        with pytest.raises(ExpressionError):
            normalize(("div", ("num", Fraction(1)), ("gen", 0)))

    def test_negative_power_of_generator_rejected(self):
        with pytest.raises(ExpressionError):
            u1 ** -1

    def test_negative_power_of_constant_ok(self):
        assert const("a") ** -1 * const("a") == ONE

    def test_exp_argument_must_be_linear(self):
        with pytest.raises(ExpressionError):
            exp_of(u0 ** 2)
        with pytest.raises(ExpressionError):
            exp_of(u1)
        with pytest.raises(ExpressionError):
            exp_of(ONE + u0)


class TestPartial:
    def test_power_rule(self):
        assert partial(u1 ** 2, u1) == 2 * u1

    def test_chain_rule_on_atom(self):
        assert partial(exp_of(2 * u0) * u1, u0) == 2 * exp_of(2 * u0) * u1

    def test_x_derivative(self):
        assert partial(x ** 2 * u1, x) == 2 * x * u1

    def test_symbolic_rate(self):
        lam = const("lam")
        assert partial(exp_of(lam * t), t) == lam * exp_of(lam * t)


class TestSubstitute:
    def test_kill_t(self):
        assert substitute(u1 + t, {t: ZERO}) == u1

    def test_shift(self):
        assert substitute(u0 ** 2, {u0: u0 + 1}) == u0 ** 2 + 2 * u0 + 1

    def test_into_exponential(self):
        assert substitute(exp_of(2 * u0), {u0: x}) == exp_of(2 * x)

    def test_nonlinear_atom_argument_rejected(self):
        with pytest.raises(ExpressionError):
            substitute(exp_of(2 * u0), {u0: u0 ** 2})


class TestUOrder:
    def test_kdv(self):
        assert u_order(u3 + 6 * u0 * u1) == 3

    def test_xt_only_is_zero(self):
        assert u_order(x * t + 1) == 0

    def test_zero_is_none(self):
        assert u_order(ZERO) is None

    def test_atom_only_dependence(self):
        assert u_order(exp_of(-2 * u0)) == 0


class TestScalar:
    def test_normal_form_equality(self):
        assert Scalar(Fraction(2, 4), [("b", 1), ("a", 2)]) == \
            Scalar(Fraction(1, 2), [("a", 2), ("b", 1)])

    def test_arithmetic(self):
        s = Scalar(2, [("a", 1)]) * Scalar(Fraction(1, 2), [("a", -1), ("b", 1)])
        assert s == Scalar(1, [("b", 1)])
        assert (s / s).is_one

    def test_as_scalar(self):
        assert as_scalar(3 * const("a") ** 2 / 2) == Scalar(Fraction(3, 2), [("a", 2)])
        assert as_scalar(const("a") + const("b")) is None
        assert as_scalar(u1) is None


class TestDivision:
    def test_exact(self):
        assert try_divide(6 * u0 * u1 + 2 * u1, 2 * u1) == 3 * u0 + 1

    def test_inexact(self):
        assert try_divide(u0 + 1, u1) is None

    def test_atoms_are_units(self):
        e = exp_of(2 * u0) * (u1 + u2)
        assert try_divide(e, exp_of(2 * u0)) == u1 + u2

    def test_step_cap_raises_instead_of_not_divisible(self):
        # u^10001 - 1 = (u - 1)(u^10000 + ... + 1) needs 10,001 steps
        assert ex._DIV_STEP_CAP == 10_000
        with pytest.raises(ExpressionError, match="_DIV_STEP_CAP"):
            try_divide(u0 ** 10001 - 1, u0 - 1)

    def test_long_exact_division_under_the_cap(self):
        q = try_divide(u0 ** 9000 - 1, u0 - 1)
        assert len(q) == 9000
        assert q == sum((u0 ** i for i in range(9000)), ZERO)

    def test_roots(self):
        assert try_nth_root(4 * u1 ** 2 * const("a") ** 2, 2) == 2 * u1 * const("a")
        assert try_nth_root(u0 + u1, 2) is None
        assert try_nth_root(2 * u1 ** 2, 2) is None

    def test_roots_of_exponentials(self):
        # exponential factors have every root: exp(2u)^(1/2) = exp(u)
        assert try_nth_root(exp_of(2 * u0), 2) == exp_of(u0)
        assert try_nth_root(exp_of(3 * t) * u1 ** 2, 2) is not None


# -- randomized algebra laws -------------------------------------------------

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_normalize_idempotence_and_cancellation(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng, consts=("a",))
    e2 = random_expr(rng, consts=("a",))
    assert normalize(e1) == e1
    assert (e1 + e2) - e2 == e1


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_partial_commutes(seed):
    rng = random.Random(seed)
    e = random_expr(rng)
    v, w = rng.choice(["x", "t", 0, 1, 2]), rng.choice(["x", "t", 0, 1, 2])
    assert partial(partial(e, v), w) == partial(partial(e, w), v)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_product_rule(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng)
    e2 = random_expr(rng)
    v = rng.choice(["x", "t", 0, 1])
    assert partial(e1 * e2, v) == partial(e1, v) * e2 + e1 * partial(e2, v)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_exp_atom_inverse_law(seed):
    rng = random.Random(seed)
    coeffs = [rng.randint(-3, 3) for _ in range(3)]
    p = coeffs[0] * x + coeffs[1] * t + coeffs[2] * u0
    q = rng.randint(-2, 2) * t + rng.randint(-2, 2) * u0
    assert exp_of(p) * exp_of(q) * exp_of(-p - q) == ONE


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_division_round_trip(seed):
    rng = random.Random(seed)
    a = random_expr(rng, max_terms=2, consts=("a",))
    b = random_expr(rng, max_terms=2, consts=("a",))
    if b.is_zero:
        return
    prod = a * b
    q = try_divide(prod, b)
    assert q is not None and q == a
