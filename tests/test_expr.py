import random
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, const, exp_of, parse, partial,
                    rational, substitute, to_source, total_d, u, u_order, x,
                    t)
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

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExpressionError, match="non-integer exponent"):
            u0 ** Fraction(1, 2)

    def test_division_by_non_scalar_rejected(self):
        with pytest.raises(ExpressionError, match="only defined by scalars"):
            ONE / u0

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

    @pytest.mark.parametrize("bad", ["u", ("gen", 0), None, 1.5],
                             ids=["text", "tuple", "none", "float"])
    def test_exp_and_substitute_take_expressions_and_numbers(self, bad):
        assert exp_of(0) == ONE
        assert substitute(u0 * u1, {u0: Fraction(1, 2), u1: 4}) == 2
        with pytest.raises(ExpressionError, match="not an expression"):
            exp_of(bad)
        with pytest.raises(ExpressionError, match="not an expression"):
            substitute(u0, {u0: bad})


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

    @pytest.mark.parametrize("src, bindings, expected, den", [
        # results of the term-by-term summation this accumulation replaced
        ("a*exp(2*u)*u1 + 3/7*exp(-x)*u + b^-1*t",
         {"u": "x + 2/13*t", "t": "a*u1"},
         "a*u1*exp(4/13*t + 2*x) + a*b^-1*u1 + 3/7*x*exp(-x)"
         " + 6/91*t*exp(-x)", 91),
        ("exp(a*u + 1/3*x)*u2 - 2*a*b*u*u1 + exp(t)",
         {"u": "b*x - t", "u2": "exp(x)*u1"},
         "-2*a*b^2*u1*x + 2*a*b*u1*t + u1*exp(-a*t + 4/3*x + a*b*x)"
         " + exp(t)", 1),
        ("u^2*exp(b*t) + 5/13*a^2*u1 - 1/7*exp(2*u)",
         {"u": "u + a*x", "u1": "u + 1"},
         "u^2*exp(b*t) + 2*a*u*x*exp(b*t) + 5/13*a^2*u"
         " + a^2*x^2*exp(b*t) - 1/7*exp(2*a*x + 2*u) + 5/13*a^2", 91),
        ("u*exp(x) - x*exp(x) + 2/7*a*u1", {"u": "x", "u1": "7/2*a^-1"},
         "1", 1),
    ])
    def test_exponentials_and_constants(self, src, bindings, expected, den):
        names = ["a", "b"]
        out = substitute(parse(src, names),
                         {g: parse(v, names) for g, v in bindings.items()})
        assert ex.to_source(out) == expected
        assert out == parse(expected, names) and out._den == den


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
    """A one-term constant is a ``DiffExpr``: a rational times named
    constants, in the one normal form."""

    def test_normal_form_equality(self):
        a, b = const("a"), const("b")
        s1 = Fraction(2, 4) * b * a ** 2
        s2 = Fraction(1, 2) * a ** 2 * b
        assert s1 == s2 and hash(s1) == hash(s2)
        assert s1.term_items() == (((((1, "a"), 2), ((1, "b"), 1)),
                                    Fraction(1, 2)),)

    def test_arithmetic(self):
        a, b = const("a"), const("b")
        s = (2 * a) * (Fraction(1, 2) * a ** -1 * b)
        assert s == b
        assert s / s == ONE and (s / s).is_rational
        assert s / (3 * a / 7) == Fraction(7, 3) * a ** -1 * b
        assert to_source(s / (3 * a / 7)) == "7/3*a^-1*b"

    def test_division_takes_one_term_constants_only(self):
        assert u1 / Fraction(2, 3) == 3 * u1 / 2
        assert u1 / (-2 * const("a")) == -u1 * const("a") ** -1 / 2
        assert u1 / (Fraction(1, 5) * const("b") ** 2) == \
            5 * u1 * const("b") ** -2
        for zero in (0, Fraction(0), ZERO):
            with pytest.raises(ZeroDivisionError, match="zero scalar"):
                u1 / zero
        for divisor in (u0, exp_of(u0), const("a") + 1, x):
            with pytest.raises(ExpressionError, match="only defined by scalars"):
                u1 / divisor
        for other in (1.5, "a"):
            with pytest.raises(TypeError):
                u1 / other

    def test_as_scalar(self):
        s = 3 * const("a") ** 2 / 2
        assert as_scalar(s) is s and not s.is_rational
        assert as_scalar(ZERO) is ZERO and ZERO.is_rational
        assert as_scalar(rational(-4, 3)).is_rational
        assert as_scalar(const("a") + const("b")) is None
        assert as_scalar(const("a") + 1) is None
        assert as_scalar(u1) is None
        assert as_scalar(exp_of(const("a") * t)) is None


class TestTermBudget:
    def test_product_over_the_budget_raises_before_any_work(self):
        a = sum((u0 ** i for i in range(400)), ZERO)
        b = sum((x ** i for i in range(251)), ZERO)
        assert len(a) * len(b) > ex.MAX_PRODUCT_PAIRS
        with mock.patch.object(ex.kernel, "mul_terms") as mul:
            with pytest.raises(ExpressionError, match="term pairs"):
                a * b
        assert not mul.called

    def test_product_at_the_budget_is_formed(self):
        a = sum((u0 ** i for i in range(400)), ZERO)
        b = sum((x ** i for i in range(250)), ZERO)
        assert len(a) * len(b) == ex.MAX_PRODUCT_PAIRS
        assert len(a * b) == ex.MAX_PRODUCT_PAIRS

    def test_large_powers_raise(self):
        with pytest.raises(ExpressionError, match="term pairs"):
            (u1 + u2 + u3 + x) ** 200
        with pytest.raises(ExpressionError, match="term pairs"):
            (u0 + 1) ** 100000


class TestSumOfProducts:
    """``sum_of_products`` checks every product's budget before any work and
    adds nothing for a zero factor or operand."""

    BIG_A = sum((u0 ** i for i in range(400)), ZERO)

    def test_a_product_over_the_budget_raises_before_any_work(self):
        b = sum((x ** i for i in range(251)), ZERO)
        assert len(self.BIG_A) * len(b) > ex.MAX_PRODUCT_PAIRS
        triples = [(1, u1, u2), (2, self.BIG_A, b)]
        with mock.patch.object(ex.kernel, "addmul_into") as addmul:
            with pytest.raises(ExpressionError, match="term pairs"):
                ex.sum_of_products(triples)
        assert not addmul.called

    def test_a_product_at_the_budget_is_formed(self):
        b = sum((x ** i for i in range(250)), ZERO)
        assert len(self.BIG_A) * len(b) == ex.MAX_PRODUCT_PAIRS
        out = ex.sum_of_products([(1, self.BIG_A, b)])
        assert len(out) == ex.MAX_PRODUCT_PAIRS
        assert out == self.BIG_A * b

    def test_no_products_give_zero(self):
        out = ex.sum_of_products([])
        assert out == ZERO and out._den == 1

    def test_zero_factors_and_operands_add_nothing(self):
        e = parse("3/7*u1 + exp(x)")
        with mock.patch.object(ex.kernel, "addmul_into") as addmul:
            assert ex.sum_of_products([(0, e, e), (5, ZERO, e),
                                       (-1, e, ZERO)]) == ZERO
        assert not addmul.called
        assert ex.sum_of_products([(2, e, u0), (0, e, e), (3, ZERO, e)]) \
            == 2 * e * u0

    def test_full_cancellation_gives_canonical_zero(self):
        a, b = parse("2/7*u1 + exp(a*x)", ["a"]), parse("u - 1/13", ["a"])
        out = ex.sum_of_products([(3, a, b), (-1, b, a), (-2, a, b)])
        assert out == ZERO and out._t == {} and out._den == 1
        assert hash(out) == hash(ZERO)


def _narrower_try_divide(monkeypatch, a, b):
    """``try_divide(a, b)`` packed with a half-width one smaller than it
    chooses: a wrong answer, or an error, where the width was tight."""

    class Narrow(ex._Packing):
        def __init__(self, slots, half, rate_scale=1):
            super().__init__(slots, half - 1, rate_scale)

    with monkeypatch.context() as m:
        m.setattr(ex, "_Packing", Narrow)
        try:
            return try_divide(a, b)
        except Exception as err:  # a mis-packed division may fail anyhow
            return err


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

    @staticmethod
    def _divide_spy(monkeypatch):
        """Record ``(result, remainder untouched)`` for each ``_divide``."""
        divide, seen = ex._divide, []

        def spy(rem, div, pk):
            before = dict(rem)
            out = divide(rem, div, pk)
            seen.append((out, rem == before))
            return out

        monkeypatch.setattr(ex, "_divide", spy)
        return seen

    @pytest.mark.parametrize("num, den", [
        # a lex descent through ever lower powers of the invertible factors
        # would not end; the quotient's degree box is empty
        ("exp(x)", "exp(x) + 2"),
        ("-3/2", "-3*exp(2/3*a*u) + exp(-1/3*t) + 2"),
        ("1", "a + 1"),
        ("u1^2 + a", "u1 - a^-1*exp(u)"),
        ("u1", "u1 + u2"),
    ])
    def test_non_multiple_is_decided_promptly(self, monkeypatch, num, den):
        # some slot's quotient box is empty (the divisor's range of it is
        # wider than the numerator's), so nothing is packed or divided
        seen = self._divide_spy(monkeypatch)
        assert try_divide(parse(num, "a"), parse(den, "a")) is None
        assert seen == []

    @pytest.mark.parametrize("num, den", [
        ("u1 + u2", "u1*u2 + 1"),
        ("u1^2 + u2^2", "u1*u2 + 1"),
        ("a*exp(x) + u", "exp(x)*u + a^-1"),
    ])
    def test_non_multiple_in_the_slot_boxes_fails_at_the_first_lead(
            self, monkeypatch, num, den):
        # every slot's box is nonempty, so the shared division runs; it
        # refutes at the first lead and returns None with the remainder
        # untouched, so no quotient term was formed
        seen = self._divide_spy(monkeypatch)
        assert try_divide(parse(num, "a"), parse(den, "a")) is None
        assert seen == [(None, True)]

    # Each case packs with a half-width L that some digit of the numerator
    # (the first remainder) or of the quotient reaches at -L and at +L on a
    # slot of the named kind; a generator power goes negative only in a
    # Laurent quotient (u^-3 + 1 in the first), which try_divide then
    # refuses.
    @pytest.mark.parametrize("num, den, quo, kind", [
        ("1 + u^3", "u^3", None, 0),
        ("c^-3 + c^-1 + c + c^3", "c^-1 + c", "c^-2 + c^2", 1),
        ("c^-2 + c^-1 + c^3 + c^4", "c^2 + c^3", "c^-4 + c", 1),
        ("exp(-5/6*x) + 2 + exp(5/6*x)", "exp(-1/3*x) + exp(1/2*x)",
         "exp(-1/2*x) + exp(1/3*x)", 2),
        ("exp(-3*c*x) + exp(-c*x) + exp(c*x) + exp(3*c*x)",
         "exp(-c*x) + exp(c*x)", "exp(-2*c*x) + exp(2*c*x)", 2),
        ("c^-3*u^3 + c^-1*u^2*exp(1/3*t) + c*u*exp(-1/2*t) + c^3*exp(-1/6*t)",
         "c^-1*u + c*exp(1/3*t)", "c^-2*u^2 + c^2*exp(-1/2*t)", 1),
    ])
    def test_digits_reach_both_ends_of_the_range(self, monkeypatch, num,
                                                 den, quo, kind):
        a, b = parse(num, "c"), parse(den, "c")
        want = None if quo is None else parse(quo, "c")
        divide, seen = ex._divide, {}

        def spy(rem, div, pk):
            seen["rem"], seen["pk"] = list(rem), pk
            out = divide(rem, div, pk)
            seen["quo"] = list(out[0]) if out else []
            return out

        monkeypatch.setattr(ex, "_divide", spy)
        assert try_divide(a, b) == want
        pk = seen["pk"]
        digits = [d for k in seen["rem"] + seen["quo"]
                  for s, d in zip(pk.slots[::-1], pk.digits(k))
                  if s[0] == kind]
        assert (min(digits), max(digits)) == (0, 2 * pk.half)
        monkeypatch.setattr(ex, "_divide", divide)
        assert _narrower_try_divide(monkeypatch, a, b) != want

    @pytest.mark.parametrize("num, den, quo", [
        ("c^-2 + c^-1", "c^2 + c^3", "c^-4"),
        ("exp(-1/3*x) + exp(-1/6*x)", "exp(1/3*x) + exp(1/2*x)",
         "exp(-2/3*x)"),
        ("u*c^-2 + c^-1", "u*c^2 + c^3", "c^-4"),
    ])
    def test_the_quotient_box_alone_can_set_the_half_width(
            self, monkeypatch, num, den, quo):
        # the quotient's slot value lies outside the ranges of both
        # operands; packed only for those it would alias (c^-4 as c^3)
        a, b = parse(num, "c"), parse(den, "c")
        assert try_divide(a, b) == parse(quo, "c")
        assert _narrower_try_divide(monkeypatch, a, b) != parse(quo, "c")

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

    def test_roots_of_exponentials_keep_exact_rates(self):
        third = try_nth_root(parse("exp(u)"), 3)
        assert third == parse("exp(1/3*u)")
        assert str(third) == "exp(1/3*u)"
        half = try_nth_root(parse("exp(2*x)"), 2)
        (key, _), = half.term_items()
        assert [(v, type(v)) for _, v in key] == [(1, int)]
        assert str(half) == "exp(x)"


# -- randomized algebra laws -------------------------------------------------

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_normalize_idempotence_and_cancellation(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng, consts=("a",))
    e2 = random_expr(rng, consts=("a",))
    assert parse(to_source(e1), ("a",)) == e1
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


# -- fused sums of products -----------------------------------------------------

def _random_factor(rng: random.Random) -> ex.DiffExpr:
    """A random expression with named constants and exponentials, its
    coefficients over 7 or 13."""
    e = random_expr(rng, max_terms=4, consts=("a", "b"))
    if rng.random() < 0.5:
        e = e * exp_of(rng.choice((-2, 1, 3)) * ex.gen_expr(
            rng.choice((ex.GEN_X, ex.GEN_T, 0))))
    return e * Fraction(rng.choice((-5, 1, 2, 6)), rng.choice((7, 13)))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_sum_of_products_matches_the_naive_sum(seed):
    rng = random.Random(seed)
    triples = [(rng.choice((-3, -1, 0, 1, 2, 14)), _random_factor(rng),
                _random_factor(rng)) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:  # a sum that cancels in part or in full
        f, a, b = triples[0]
        triples.append((-f, b, a))
    fused = ex.sum_of_products(triples)
    naive = sum((f * a * b for f, a, b in triples), ZERO)
    _assert_canonical(fused)
    assert fused._den == naive._den and fused._t == naive._t
    assert hash(fused) == hash(naive)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_one_term_rational_factors_only_scale(seed):
    rng = random.Random(seed)
    e = _random_factor(rng)
    cases = [(3, e), (e, Fraction(2, 7)), (ZERO, e), (e, ZERO),
             (-13, e), (e, e._den)]
    full = []
    for p, q in cases:
        p, q = ex._coerce(p), ex._coerce(q)
        full.append(ex._reduced(ex.kernel.mul_terms(p._t, q._t),
                                p._den * q._den))
    with mock.patch.object(ex.kernel, "mul_terms") as mul, \
            mock.patch.object(ex.kernel, "mul_key") as key:
        fast = [p * q for p, q in cases]
    assert not mul.called and not key.called
    for got, want in zip(fast, full):
        _assert_same_value(got, want)
        assert got._den == want._den and got._t == want._t


# -- one canonical form per value ---------------------------------------------

def _assert_canonical(e):
    """Integer numerators over a positive denominator, gcd 1, no zeros."""
    nums = list(e._t.values())
    assert type(e._den) is int and e._den > 0
    assert all(type(c) is int and c for c in nums)
    assert gcd(e._den, *nums) == 1


def _assert_same_value(built, expected):
    _assert_canonical(built)
    _assert_canonical(expected)
    assert built == expected
    assert hash(built) == hash(expected)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_one_value_has_one_canonical_form(seed):
    """The same value built two ways gives equal objects with equal hashes,
    each in canonical form, rational exponential rates included."""
    rng = random.Random(seed)
    a, b = (random_expr(rng, consts=("a",)) for _ in range(2))
    if rng.random() < 0.5:
        gen = ex.gen_expr(rng.choice((ex.GEN_X, ex.GEN_T, 0)))
        a = a * exp_of(Fraction(rng.choice((-3, 1, 5)), 6) * gen)
    s = Fraction(rng.choice((-6, 2, 7)), rng.choice((3, 13)))
    _assert_same_value(a + b - b, a)
    _assert_same_value((a * s) / s, a)
    _assert_same_value(parse(ex.to_source(a), ["a"]), a)
    if b:
        _assert_same_value(try_divide(a * b, b), a)
        _assert_same_value(partial(a * b, 0),
                           partial(a, 0) * b + a * partial(b, 0))
        _assert_same_value(total_d(a * b), total_d(a) * b + a * total_d(b))


def test_derivatives_scale_by_every_rate_denominator():
    # the second rate's denominator rescales what the first term gave
    e = parse("exp(1/2*u) + x*exp(1/3*u) - 5/4*exp(2/5*x)*u1")
    _assert_same_value(partial(e, 0),
                       parse("1/2*exp(1/2*u) + 1/3*x*exp(1/3*u)"))
    _assert_same_value(
        total_d(e),
        parse("1/2*u1*exp(1/2*u) + 1/3*x*u1*exp(1/3*u) + exp(1/3*u)"
              " - 1/2*exp(2/5*x)*u1 - 5/4*exp(2/5*x)*u2"))


def test_integral_products_are_ints():
    e = (2 * u1 + 4 * u0) * Fraction(1, 2)
    _assert_same_value(e, u1 + 2 * u0)
    assert e._den == 1
    _assert_same_value(parse("2*u1 + 4*u") / 2, e)
    _assert_same_value(parse("3/7*u1") * parse("14/3*u"), 2 * u1 * u0)
    _assert_same_value(parse("u1/2") + parse("u1/2"), u1)


def test_rational_constants_hash_like_their_numbers():
    for q in (Fraction(3, 7), Fraction(-2), Fraction(0)):
        assert hash(ex.rational(q)) == hash(q)
        assert ex.rational(q) == q


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
    b_terms = dict(b.term_items())
    lead_b, cb = _reference_lead(b_terms)
    neg_lead_b = tuple((s, -v) for s, v in lead_b)
    rem = dict(a.term_items())
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
        for k, c in b_terms.items():
            k = ex.kernel.mul_key(k, qk)
            rem[k] = rem.get(k, 0) - qc * c
            if not rem[k]:
                del rem[k]
    if not rem:
        return ex.DiffExpr(quo)
    return "gave up"


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


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_try_divide_matches_pairwise_reference(seed):
    """Wherever the pairwise reference decides within its step cap, the
    same quotient or ``None``.  Where the reference gives up (dividing by
    ``exp(x) + 2``, say, its remainder descends for ever), ``try_divide``
    still decides: ``None``, or a quotient that multiplies back."""
    rng = random.Random(seed)
    a, b = (sum((_division_term(rng) for _ in range(rng.randint(1, 3))), ZERO)
            for _ in range(2))
    if b.is_zero:
        return
    cap = rng.randint(1, 40)
    for num in (a * b, a):
        got = try_divide(num, b)
        want = _reference_try_divide(num, b, cap)
        if want == "gave up":
            assert got is None or got * b == num
        else:
            assert got == want


def test_printing_refuses_integers_over_the_conversion_limit():
    # the limit is the interpreter's (sys.get_int_max_str_digits()); a
    # numerator, a denominator or an exponential rate one digit over it
    # raises ExpressionError naming both counts, and one at it prints
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit
    for e in (rational(big) * u0, rational(Fraction(1, big)),
              exp_of(rational(Fraction(-big, 3)) * u0) + 1,
              rational(-(big * 9 + 1))):
        with pytest.raises(ExpressionError, match=(
                f"^an integer of {limit + 1} digits exceeds the limit of "
                f"{limit} digits for integer string conversion$")):
            to_source(e)
    e = rational(Fraction(big // 10 - 1, 7)) * u0
    assert parse(to_source(e)) == e
