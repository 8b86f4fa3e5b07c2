import random
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, ParseError, const, exp_of, parse,
                    partial, rational, to_source, total_d, u, u_order, x, t)
from evosym import expr as ex
from evosym.expr import ZERO, ONE, DiffExpr, as_scalar, try_divide

from conftest import COPIERS, random_expr, reference_mul_key

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
    def test_exp_takes_expressions_and_numbers(self, bad):
        assert exp_of(0) == ONE
        with pytest.raises(ExpressionError, match="not an expression"):
            exp_of(bad)


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

    @pytest.mark.parametrize("name", [
        "x", "t", "u", "u0", "u3", "u_3", "u03", "u99", "u_99",
        "u__3", "u_", "u3_", "u100", "u1000", "u\u0663", "u\u00b3", "U3",
        "v3"])
    def test_generator_names_follow_the_grammar(self, name):
        # a name differentiates exactly when it parses, by what it parses to
        e = u3 ** 2 + u(99) * x * t
        try:
            gen = parse(name)
        except ParseError:
            with pytest.raises(ExpressionError):
                partial(e, name)
        else:
            assert partial(e, name) == partial(e, gen)

    def test_integer_codes_reach_the_last_u_field(self):
        assert partial(u(1000) ** 2, 1000) == 2 * u(1000)
        assert partial(t ** 2 * x, ex.GEN_T) == 2 * t * x

    @pytest.mark.parametrize("code", [-7, -3, 1001, 10 ** 6])
    def test_an_int_that_is_no_generator_code_is_refused(self, code):
        # t is -2, x is -1 and u_i is i up to kernel.MAX_U; any other int
        # is refused, as an unknown name is
        e = u1 * exp_of(x) + u2 ** 2
        for read in (partial, ex.occurs, ex.has_exp_in, ex.split_by_power):
            with pytest.raises(ExpressionError,
                               match=f"^no generator has the code {code}$"):
                read(e, code)


class TestUOrder:
    def test_kdv(self):
        assert u_order(u3 + 6 * u0 * u1) == 3

    def test_xt_only_is_zero(self):
        assert u_order(x * t + 1) == 0

    def test_zero_is_none(self):
        assert u_order(ZERO) is None

    def test_atom_only_dependence(self):
        assert u_order(exp_of(-2 * u0)) == 0


class TestSplitTOnly:
    def test_groups_by_the_factor_free_of_t(self):
        a = const("a")
        e = parse("(t + a)*u1*exp(x + 2*t) + t^2*u1*exp(x) - 3*x + 5",
                  ["a"])
        parts = ex.split_t_only(e)
        assert parts == {
            (u1 * exp_of(x)).term_items()[0][0]:
                (t + a) * exp_of(2 * t) + t ** 2,
            x.term_items()[0][0]: rational(-3),
            (): rational(5)}
        assert sum((c * DiffExpr({r: 1}) for r, c in parts.items()),
                   ZERO) == e


class TestSplitUOrder:
    E = parse("u^2 + x*exp(u) + x*t + 3 + u2*u - u1^2 + exp(x)")

    def test_cut_0_takes_every_term_with_u(self):
        # u^2 and x*exp(u) have u-order 0, which is >= 0
        hi, lo = ex.split_u_order(self.E, 0)
        assert hi == parse("u^2 + x*exp(u) + u2*u - u1^2")
        assert lo == parse("x*t + 3 + exp(x)")

    def test_cut_2_takes_the_terms_of_order_2_and_more(self):
        hi, lo = ex.split_u_order(self.E, 2)
        assert hi == u2 * u0
        assert lo == parse("u^2 + x*exp(u) + x*t + 3 - u1^2 + exp(x)")

    def test_zero_splits_into_zeros(self):
        assert ex.split_u_order(ZERO, 0) == (ZERO, ZERO)


class TestSplitByPower:
    def test_coefficients_of_the_powers_of_x(self):
        e = parse("x^2*u1 + 3*x^2 + x*exp(x)*u - 5 + 1/2*exp(2*x)")
        assert ex.split_by_power(e, "x") == {
            2: u1 + 3, 1: exp_of(x) * u0,
            0: rational(-5) + rational(1, 2) * exp_of(2 * x)}

    def test_a_generator_not_present_is_power_0(self):
        e = parse("t*u1 + u")
        assert ex.split_by_power(e, "x") == {0: e}
        assert ex.split_by_power(e, "t") == {1: u1, 0: u0}


class TestCoefficientRows:
    def test_groups_in_canonical_first_appearance_order(self):
        a, b = const("a"), const("b")
        e = parse("a*u1 + 2*u1 + b*u*u1 + 3 + a*b + x", ["a", "b"])
        # canonical order: 3, a*b, x, 2*u1, a*u1, b*u1*u; the shapes' own
        # columns name the rows
        shapes = [ONE, x, u1, u1 * u0]
        rows = ex.coefficient_rows([e, *shapes])
        assert [row[0] for row in rows] == [a * b + 3, ONE, a + 2, b]
        assert [row[1:] for row in rows] == [
            [ONE if i == j else ZERO for j in range(4)] for i in range(4)]
        assert ex.coefficient_rows([e]) == [[row[0]] for row in rows]

    def test_the_coefficients_rebuild_the_expression(self):
        e = parse("1/3*a^-2*exp(a*x)*u2 - a*exp(a*x)*u2 + 5/6*b", ["a", "b"])
        shapes = [ONE, exp_of(const("a") * x) * u2]
        rows = ex.coefficient_rows([e, *shapes])
        assert [row[1:] for row in rows] == [[ONE, ZERO], [ZERO, ONE]]
        assert sum((row[0] * shape for row, shape in zip(rows, shapes)),
                   ZERO) == e


class TestExpSpectrum:
    def test_rates_and_top_powers_in_canonical_order(self):
        a = const("a")
        e = parse("t^2*exp(2*t)*u1 + exp(2*t)*x + t*exp(a*t)*u + t^3 + u1"
                  " + exp(t/2)*u", ["a"])
        assert ex.exp_spectrum(e, "t") == (
            (rational(2), 2), (rational(1, 2), 0), (ZERO, 3), (a, 1))

    def test_a_rate_over_x_ignores_the_t_part(self):
        e = parse("t*exp(x + 2*t) + x^2 - 3*x^2*exp(-x/2)")
        assert ex.exp_spectrum(e, "x") == (
            (ONE, 0), (ZERO, 2), (rational(-1, 2), 2))

    def test_zero_has_no_rates(self):
        assert ex.exp_spectrum(ZERO, "t") == ()


class TestConstantRows:
    def test_nonzero_entries_denominator_and_powers(self):
        a, b = const("a"), const("b")
        rows, packed, pk, den = ex.constant_rows(
            [[ZERO, rational(1, 6), a ** -3], [b / 4 + a, ZERO, ZERO]], 2)
        assert rows == [{1: rational(1, 6), 2: a ** -3}, {0: b / 4 + a}]
        assert den == 12
        # the constants' slots, and the reach times the largest power, 3
        assert pk.slots == [(1, "a"), (1, "b")] and pk.half == 6
        assert [row.keys() for row in packed] == [row.keys() for row in rows]
        for row, packed_row in zip(rows, packed):
            for c, entry in row.items():
                assert pk.unpack(packed_row[c], den) == entry

    def test_a_rational_matrix_is_cleared_to_ints_without_a_packing(
            self, monkeypatch):
        # the modular path reads int rows as they are: no packing is built
        # and no cell is a one-monomial polynomial
        def refuse(*args):
            raise AssertionError("a rational matrix built a packing")

        monkeypatch.setattr(ex, "_Packing", refuse)
        rows, cleared, pk, den = ex.constant_rows(
            [[rational(3, 4), ZERO, rational(-5, 6)], [ZERO, ONE, ZERO]], 4)
        assert rows == [{0: rational(3, 4), 2: rational(-5, 6)}, {1: ONE}]
        assert (pk, den) == (None, 12)
        assert cleared == [{0: 9, 2: -10}, {1: 12}]
        assert all(type(v) is int for row in cleared for v in row.values())

    @pytest.mark.parametrize("entry", [u0, exp_of(x), 0, 1.5, None])
    def test_anything_but_a_constant_expression_is_none(self, entry):
        assert ex.constant_rows([[ONE], [ZERO, entry]], 1) is None


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
        assert u1 / exp_of(u0) == u1 * exp_of(-u0)
        for zero in (0, Fraction(0), ZERO):
            with pytest.raises(ZeroDivisionError, match="zero scalar"):
                u1 / zero
        for divisor in (u0, const("a") + 1, x):
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
    """``sum_of_products`` checks the term pairs of all its products against
    the budget before any work and adds nothing for a zero factor or
    operand."""

    BIG_A = sum((u0 ** i for i in range(400)), ZERO)

    def test_a_product_over_the_budget_raises_before_any_work(self):
        b = sum((x ** i for i in range(251)), ZERO)
        assert len(self.BIG_A) * len(b) > ex.MAX_PRODUCT_PAIRS
        triples = [(1, u1, u2), (2, self.BIG_A, b)]
        with mock.patch.object(ex.kernel, "addmul_into") as addmul:
            with pytest.raises(ExpressionError, match="term pairs"):
                ex.sum_of_products(triples)
        assert not addmul.called

    def test_products_over_the_budget_together_raise_before_any_work(self):
        b = sum((x ** i for i in range(150)), ZERO)
        assert len(self.BIG_A) * len(b) <= ex.MAX_PRODUCT_PAIRS
        assert 2 * len(self.BIG_A) * len(b) > ex.MAX_PRODUCT_PAIRS
        triples = [(1, self.BIG_A, b), (3, b, self.BIG_A)]
        with mock.patch.object(ex.kernel, "addmul_into") as addmul:
            with pytest.raises(ExpressionError,
                               match="sum of products of 120000 term pairs"):
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
        assert try_divide(u0 / 2 + u1, ONE) == u0 / 2 + u1

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


def _four_ways(e: DiffExpr, consts: tuple[str, ...]) -> list[DiffExpr]:
    """``e`` rebuilt by ``parse``, by ``DiffExpr(mapping)`` with Fraction
    coefficients in reversed term order, by arithmetic and as a sum of
    one-term expressions."""
    s = Fraction(5, 3)
    return [parse(to_source(e), consts),
            DiffExpr({k: Fraction(c) for k, c in reversed(e.term_items())}),
            (e * s + u2) / s - u2 / s,
            sum((DiffExpr({k: c}) for k, c in e.term_items()), ZERO)]


def _views(e: DiffExpr) -> tuple:
    return hash(e), e.term_items(), to_source(e)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_equal_values_read_the_same_however_built(seed):
    """Hash, canonical terms and printed form are computed on each read:
    equal values built four ways read the same, and each reads the same
    twice; rational constants hash like the equal int or Fraction."""
    rng = random.Random(seed)
    e = random_expr(rng, max_terms=4, consts=("a", "b"))
    if rng.random() < 0.5:
        gen = ex.gen_expr(rng.choice((ex.GEN_X, ex.GEN_T, 0)))
        e = e * exp_of(Fraction(rng.choice((-3, 1, 5)), 6) * gen)
    q = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 4, 7)))
    for value, consts in ((e, ("a", "b")), (rational(q), ())):
        for built in _four_ways(value, consts):
            assert built == value
            assert _views(built) == _views(value) == _views(built)
    # a Fraction of denominator 1 hashes like its int
    assert hash(rational(q)) == hash(q)


# -- try_divide against the pairwise comparator it replaced -----------------

def _reference_dense_le(k1, k2) -> bool:
    """k1 <= k2 in graded order with dense lexicographic tie-break."""
    g1, g2 = (sum(v for s, v in k if s[0] == 0) for k in (k1, k2))
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
        qk = reference_mul_key(lead_r, neg_lead_b)
        if any(slot[0] == 0 and v < 0 for slot, v in qk):
            return None
        qc = ex._num(Fraction(cr) / cb)
        quo[qk] = qc
        for k, c in b_terms.items():
            k = reference_mul_key(k, qk)
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


# -- the single-term algebra -------------------------------------------------

def _one_term(rng: random.Random, unit: bool) -> DiffExpr:
    """One term built from its key, not by arithmetic: a nonzero rational
    times named-constant powers and an exponential factor, and (unless
    ``unit``) at least one generator power."""
    slots = {}
    for name in ("a", "b"):
        p = rng.randint(-2, 2)
        if p:
            slots[(1, name)] = p
    for gen in rng.sample((0, 1, 2, ex.GEN_X, ex.GEN_T), rng.randint(0, 2)):
        cmono = rng.choice(((), (((1, "a"), 1),)))
        slots[(2, gen, cmono)] = Fraction(rng.choice((-2, -1, 1, 3)),
                                          rng.choice((1, 2)))
    if not unit:
        for gen in rng.sample((0, 1, ex.GEN_X, ex.GEN_T), rng.randint(1, 2)):
            slots[(0, gen)] = rng.randint(1, 3)
    coeff = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    return DiffExpr({tuple(sorted(slots.items())): coeff})


def _fold_product(a: DiffExpr, n: int) -> DiffExpr:
    out = ONE
    for _ in range(n):
        out = ex.sum_of_products([(1, out, a)])
    return out


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_one_term_products_powers_and_inverses(seed):
    """A one-term factor's products, powers and inverses agree with the
    fused sum and with exact division, and form no term-map product."""
    rng = random.Random(seed)
    unit = rng.random() < 0.6
    a = _one_term(rng, unit)
    b = random_expr(rng, max_terms=4, consts=("a", "b"))
    if len(b) < 2:
        b = b + u3 * x
    n = rng.randint(0, 4)
    real = ex.kernel.mul_terms

    def multi_term_only(p, q):
        assert len(p) >= 2 and len(q) >= 2, "one-term factor in mul_terms"
        return real(p, q)

    with mock.patch.object(ex.kernel, "mul_terms", multi_term_only):
        assert a * b == b * a == ex.sum_of_products([(1, a, b)])
        assert a ** n == _fold_product(a, n)
        if unit:
            assert b / a == try_divide(b, a)
            assert (b / a) * a == b
            assert a ** -n * a ** n == ONE
        else:
            with pytest.raises(ExpressionError,
                               match="^division is only defined by scalars$"):
                b / a
            with pytest.raises(ExpressionError, match=(
                    "^negative power of a non-invertible expression$")):
                a ** -1
        assert b * b == ex.sum_of_products([(1, b, b)])


def test_long_u_index_is_refused_before_conversion():
    name = "u" + "1" * 5000
    with pytest.raises(ExpressionError, match=(
            r"^u-index of 5000 digits out of range \(max 99\)$")):
        partial(u1, name)
    with pytest.raises(ExpressionError, match=r"^u-index 100 out of range"):
        ex.u_name_index("u100")
    # leading zeros are dropped before the digits are counted
    assert ex.u_name_index("u_" + "0" * 5000 + "7") == 7
    assert ex.u_name_index("u000") == 0


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
@pytest.mark.parametrize("src", ["-3/7", "2/5*a^2*b", "exp(3/4*t)*u1^2 - x/2"],
                         ids=["rational", "constant monomial", "exp"])
def test_a_copy_is_the_same_value_with_an_empty_memo(copier, src):
    e = parse(src, "ab")
    total_d(e)
    partial(e, "u1")
    assert e._parts  # the memo is filled
    c = copier(e)
    assert c is not e
    assert (c, hash(c), to_source(c)) == (e, hash(e), to_source(e))
    assert c._parts is None
