import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, Scalar, const, exp_of, normalize,
                    parse, partial, rational, substitute, u, u_order, x, t)
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

    def test_long_exact_division_needs_no_cap(self):
        # u^10001 - 1 = (u - 1)(u^10000 + ... + 1) takes 10,001 steps
        q = try_divide(u0 ** 10001 - 1, u0 - 1)
        assert q == sum((u0 ** i for i in range(10001)), ZERO)

    @pytest.mark.parametrize("num, den", [
        # a lex descent through ever lower powers of the invertible factors
        # would not end; the quotient's degree box is empty
        ("exp(x)", "exp(x) + 2"),
        ("-3/2", "-3*exp(2/3*a*u) + exp(-1/3*t) + 2"),
        ("1", "a + 1"),
        ("u1^2 + a", "u1 - a^-1*exp(u)"),
    ])
    def test_non_multiple_is_decided_promptly(self, num, den):
        out, steps = _division_run(try_divide, parse(num, "a"),
                                   parse(den, "a"))
        assert out is None and steps == 0

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


# -- try_divide against the pairwise comparator it replaced -----------------

def _reference_dense_le(k1, k2) -> bool:
    """k1 <= k2 in graded order with dense lexicographic tie-break."""
    g1, g2 = ex._grade(k1), ex._grade(k2)
    if g1 != g2:
        return g1 < g2
    i = j = 0
    while i < len(k1) or j < len(k2):
        s1 = k1[i][0] if i < len(k1) else None
        s2 = k2[j][0] if j < len(k2) else None
        if s1 is not None and (s2 is None or s1 < s2):
            v1, v2 = k1[i][1], 0
            i += 1
        elif s2 is not None and (s1 is None or s2 < s1):
            v1, v2 = 0, k2[j][1]
            j += 1
        else:
            v1, v2 = k1[i][1], k2[j][1]
            i += 1
            j += 1
        if v1 != v2:
            return v1 < v2
    return True


def _reference_lead(terms):
    best = None
    for key, c in terms.items():
        if best is None or _reference_dense_le(best[0], key):
            best = (key, c)
    return best


def _reference_try_divide(a, b, cap):
    """The former ``try_divide``: leading terms by pairwise comparison,
    giving up after ``cap`` steps."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero expression")
    if a.is_zero:
        return ZERO
    lead_b, cb = _reference_lead(b._t)
    neg_lead_b = tuple((s, -v) for s, v in lead_b)
    rem = dict(a._t)
    quo = {}
    for _ in range(cap):
        if not rem:
            return ex.DiffExpr(quo)
        lead_r, cr = _reference_lead(rem)
        qk = ex.kernel.mul_key(lead_r, neg_lead_b)
        if any(slot[0] == 0 and v < 0 for slot, v in qk):
            return None
        qc = ex._num(Fraction(cr) / cb)
        quo[qk] = qc
        ex.kernel.add_into(rem, ex.kernel.mul_single(b._t, qk, qc), -1)
    if not rem:
        return ex.DiffExpr(quo)
    raise ExpressionError("step cap")


def _division_term(rng):
    """A term with inverse constant powers and exponentials whose rates are
    fractional, negative or symbolic."""
    gens = (ex.GEN_X, ex.GEN_T, 0, 1, 2)
    term = rational(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 3))))
    for _ in range(rng.randint(0, 3)):
        term = term * ex.gen_expr(rng.choice(gens)) ** rng.randint(1, 2)
    if rng.random() < 0.4:
        term = term * const(rng.choice("ab")) ** rng.choice((-2, -1, 1, 2))
    if rng.random() < 0.3:
        rate = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        if rng.random() < 0.3:
            rate = rate * const("a") ** rng.choice((-1, 1))
        term = term * exp_of(rate * ex.gen_expr(rng.choice(gens[:3])))
    return term


def _division_run(divide, a, b):
    """The outcome (quotient, ``None`` or "gave up") and the step count."""
    steps = 0
    mul_single = ex.kernel.mul_single

    def counted(*args):
        nonlocal steps
        steps += 1
        return mul_single(*args)

    with mock.patch.object(ex.kernel, "mul_single", counted):
        try:
            out = divide(a, b)
        except ExpressionError:
            out = "gave up"
    return out, steps


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_try_divide_matches_pairwise_reference(seed):
    """Wherever the pairwise reference decides within its step cap, the
    same quotient in the same number of steps, or ``None`` in no more
    steps (the degree box can refute sooner).  Where the reference gives up
    (dividing by ``exp(x) + 2``, say, its remainder descends for ever),
    ``try_divide`` still decides: ``None``, or a quotient that multiplies
    back."""
    rng = random.Random(seed)
    a, b = (sum((_division_term(rng) for _ in range(rng.randint(1, 3))), ZERO)
            for _ in range(2))
    if b.is_zero:
        return
    cap = rng.randint(1, 40)
    for num in (a * b, a):
        got, steps = _division_run(try_divide, num, b)
        want, ref_steps = _division_run(
            lambda p, q: _reference_try_divide(p, q, cap), num, b)
        if want == "gave up":
            assert got is None or got * b == num
        elif want is None:
            assert got is None and steps <= ref_steps
        else:
            assert (got, steps) == (want, ref_steps)
