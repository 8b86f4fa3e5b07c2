import random

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, ParseError, const, exp_of, parse,
                    to_source, u, x, t)
from evosym.expr import ZERO, rational

from conftest import random_expr

u0, u1, u3 = u(0), u(1), u(3)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestGrammar:
    def test_kdv_rhs(self):
        assert parse("u3 + 6*u*u1") == u3 + 6 * u0 * u1

    def test_galilean(self):
        assert parse("1 + 6*t*u1") == 1 + 6 * t * u1

    def test_exp_cancellation(self):
        assert parse("exp(2*u) - exp(2*u)") == ZERO

    def test_precedence(self):
        assert parse("1 + 2*u^2") == 1 + 2 * u0 ** 2
        assert parse("-u^2") == -(u0 ** 2)
        assert parse("6/2/3") == rational(1)
        assert parse("1 - 2 - 3") == rational(-4)

    def test_exponent_towers_are_right_associative(self):
        assert parse("u^2^3") == u0 ** 8
        assert parse("2^3^2") == rational(512)
        assert parse("a^-(2^2)", ("a",)) == const("a") ** -4
        with pytest.raises(ParseError):
            parse("u^-2^2")  # the tower makes the generator power negative
        with pytest.raises(ParseError):
            parse("u^2^-2")  # non-integer tower value

    def test_exponents_up_to_the_bound(self):
        assert parse("u^100000") == u0 ** 100000
        assert parse("a^-(10^5)", ("a",)) == const("a") ** -100000
        assert parse("2^2^4") == rational(65536)
        assert parse("u^1^100000 + u^0^100000 + a^(-1)^99999", ("a",)) == \
            u0 + 1 + const("a") ** -1
        for source in ("u^2^17", "u^(-2)^17", "u^317^2", "2^10^10^10"):
            with pytest.raises(ParseError, match="exponent out of range"):
                parse(source)

    def test_rational_literals(self):
        assert parse("3/2*u1") == 3 * u1 / 2
        assert parse("u3 - u1^3/2") == u3 - u1 ** 3 / 2

    def test_underscore_u_indices(self):
        assert parse("u_3 + u3") == 2 * u3

    def test_declared_constants(self):
        assert parse("a*u + b", ("a", "b")) == const("a") * u0 + const("b")

    def test_negative_exponents_on_constants(self):
        assert parse("a^-2", ("a",)) == const("a") ** -2
        assert parse("a^(-2)", ("a",)) == const("a") ** -2

    def test_whitespace_insignificant(self):
        assert parse(" u3+6*u * u1 ") == parse("u3 + 6*u*u1")


class TestErrors:
    @pytest.mark.parametrize("source", [
        "6uu1",            # implicit multiplication
        "u3 +",            # dangling operator
        "(u1",             # unbalanced paren
        "q*u",             # unknown identifier
        "u^t",             # non-integer exponent
        "u^(1/2)",         # non-integer exponent
        "1/u",             # division by a non-scalar
        "u1^-1",           # negative power of a generator
        "exp(u1)",         # non-linear exponential argument
        "exp(u+1)",        # constant term in the exponent
        "sin(u)",          # unknown function name
        "u100",            # index out of range
    ])
    def test_rejected(self, source):
        with pytest.raises(ParseError):
            parse(source)

    # every raise site, on sources of several lines (positions and messages
    # as the parser with per-token positions gave them); a normalisation
    # error is reported at the end of input
    @pytest.mark.parametrize("source,line,column,message", [
        ("u1 +\n  q", 2, 3, "unknown identifier 'q'"),
        ("u1 +\n  2 $ u", 2, 5, "unexpected character '$'"),
        ("u1\n\t+ u2 # u3", 2, 7, "unexpected character '#'"),
        ("exp(u\n  u1)", 2, 3, "expected ')', found 'u1'"),
        ("(u1 +\n u2\n", 3, 1, "expected ')', found 'end of input'"),
        ("u1 +\nexp u", 2, 5, "expected '(', found 'u'"),
        ("u1 +\n u^t", 2, 4, "non-integer exponent"),
        ("u1 -\n 2^^3", 2, 4, "non-integer exponent"),
        ("u1 +\n u^2^-2", 2, 5, "non-integer exponent"),
        ("u1 +\n\n   u100", 3, 4, "u-index 100 out of range (max 99)"),
        ("u1 +\n" + "(" * 101 + "u" + ")" * 101, 2, 101,
         "expression nested too deeply (more than 100 levels)"),
        ("u1 +\n u2 )", 2, 5, "unexpected token ')'"),
        ("u1 +\n *u", 2, 2, "unexpected token '*'"),
        ("u1 +\n", 2, 1, "unexpected token 'end of input'"),
        ("u1 +\n 1/u", 2, 5, "division is only defined by scalars"),
        ("u1 +\n u/0", 2, 5, "division by zero scalar"),
        ("exp(u1)\n", 2, 1, "exponential argument must be linear"),
        # the value is computed while parsing, so an evaluation error before
        # a grammar error is the one reported
        ("u1 +\n 1/u + )", 2, 9, "division is only defined by scalars"),
        ("u1 +\n exp(u1) )", 2, 11, "exponential argument must be linear"),
        ("u1 +\n u/0 $", 2, 6, "unexpected character '$'"),
        ("u1 +\n u^2^3^4^5", 2, 7, "exponent out of range (max 100000)"),
        ("u1 +\n u^9^9^9", 2, 7, "exponent out of range (max 100000)"),
        ("u1 +\n u^100001", 2, 4, "exponent out of range (max 100000)"),
    ], ids=["unknown-identifier", "unexpected-character",
            "unexpected-character-after-tab", "expected-paren",
            "expected-paren-at-end", "expected-exp-paren",
            "non-integer-exponent", "exponent-missing",
            "non-integer-exponent-in-tower", "u100", "depth-101",
            "trailing-token", "unexpected-operator", "dangling-operator",
            "division-by-u", "division-by-zero", "nonlinear-exp",
            "division-by-u-before-trailing-token",
            "nonlinear-exp-before-trailing-token",
            "bad-character-before-division-by-zero", "tower-2^3^4^5",
            "tower-9^9^9", "exponent-literal"])
    def test_line_and_column_reported(self, source, line, column, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(f" (line {line}, column {column})")

    def test_constant_name_collision_rejected(self):
        with pytest.raises(ValueError):
            parse("u1", ("exp",))
        with pytest.raises(ValueError):
            parse("u1", ("u7",))


class TestRoundTrip:
    @pytest.mark.parametrize("source,consts", [
        ("u3 + 6*u*u1", ()),
        ("1 + 6*t*u1", ()),
        ("x*u1 + 2*u + 3*t*(u3 + 6*u*u1)", ()),
        ("u3 - u1^3/2 + (a*exp(2*u) + b*exp(-2*u) + d)*u1", ("a", "b", "d")),
        ("exp(lam*t + 2*u) - 1/3*x^2", ("lam",)),
        ("0", ()),
    ])
    def test_parse_print_parse(self, source, consts):
        e = parse(source, consts)
        printed = to_source(e)
        assert parse(printed, consts) == e
        assert to_source(parse(printed, consts)) == printed

    @settings(max_examples=200, deadline=None)
    @given(seeds)
    def test_round_trip_randomized(self, seed):
        rng = random.Random(seed)
        e = random_expr(rng, max_terms=4, consts=("a", "lam"))
        printed = to_source(e)
        back = parse(printed, ("a", "lam"))
        assert back == e
        assert to_source(back) == printed


class TestInputSize:
    """Long flat chains parse without recursion; deep nesting is rejected
    with a ParseError at a fixed depth."""

    def test_long_sum(self):
        assert parse("+".join(["u"] * 5000)) == 5000 * u0

    def test_long_difference(self):
        assert parse("-".join(["u"] * 5000)) == -4998 * u0

    def test_long_product(self):
        assert parse("*".join(["u"] * 5000)) == u0 ** 5000

    def test_long_quotient(self):
        assert parse("/".join(["u"] + ["2"] * 4999)) == u0 / 2 ** 4999

    def test_nesting_below_the_limit_parses(self):
        assert parse("(" * 50 + "u1" + ")" * 50) == u1
        assert parse("-" * 50 + "u") == u0

    @pytest.mark.parametrize("source", [
        "(" * 3000 + "u1" + ")" * 3000,
        "-" * 3000 + "u",
        "u^" + "(" * 3000 + "2" + ")" * 3000,
        "2^" + "^".join(["1"] * 3000),
        "exp(" * 3000 + "x" + ")" * 3000,
    ], ids=["parentheses", "unary-minus", "exponent-parentheses",
            "exponent-tower", "exp"])
    def test_deep_nesting_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(source)


class TestAgainstPython:
    """Random derivations of the grammar, rendered once as grammar source
    and once as Python source over ``DiffExpr`` values, must parse to what
    Python evaluates them to: Python's own parser settles precedence, unary
    minus against ``^``, right-associative towers and division chains."""

    ENV = {"u": u0, "u1": u1, "u_3": u3, "x": x, "t": t, "a": const("a"),
           "rational": rational, "exp_of": exp_of}

    def expr(self, rng, depth):
        src, py = self.product(rng, depth)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice((" + ", "-", " - "))
            rhs_src, rhs_py = self.product(rng, depth)
            src, py = src + op + rhs_src, py + op + rhs_py
        return src, py

    def product(self, rng, depth):
        src, py = self.power(rng, depth)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(("*", "/", " * "))
            # most divisors are scalars, so that most sources have a value
            rhs_src, rhs_py = (self.power(rng, 0, ("a",))
                               if op == "/" and rng.random() < 0.7
                               else self.power(rng, depth))
            src, py = src + op + rhs_src, py + op + rhs_py
        return src, py

    def power(self, rng, depth, names=("u", "u1", "u_3", "x", "t", "a")):
        src, py, minus = self.atom(rng, depth, names)
        # after a unary minus the power it applies to has taken any ``^``
        if not minus and rng.random() < 0.3:
            e = self.exponent(rng, 2, signed=True)
            src, py = f"{src}^{e}", f"{py}**{e.replace('^', '**')}"
        return src, py

    def atom(self, rng, depth, names):
        """``(source, python, is a unary minus)``."""
        kind = rng.choice(("num", "name", "name") if depth <= 0 else
                          ("num", "name", "minus", "paren", "exp"))
        if kind == "num":
            n = rng.randint(0, 12)
            return str(n), f"rational({n})", False
        if kind == "name":
            name = rng.choice(names)
            return name, name, False
        if kind == "minus":
            src, py = self.power(rng, depth - 1)
            return "-" + src, "-" + py, True
        if kind == "exp" and rng.random() < 0.7:
            src, py = self.linear(rng)
        else:
            src, py = self.expr(rng, depth - 1)
        if kind == "paren":
            return f"({src})", f"({py})", False
        return f"exp({src})", f"exp_of({py})", False

    def linear(self, rng):
        """A combination of x, t and u that ``exp`` accepts."""
        src, py = [], []
        for _ in range(rng.randint(1, 2)):
            c_src, c_py = rng.choice((("2", "rational(2)"), ("a", "a"),
                                      ("-a", "-a"),
                                      ("1/3", "rational(1)/rational(3)")))
            gen = rng.choice(("x", "t", "u"))
            src.append(f"{c_src}*{gen}")
            py.append(f"{c_py}*{gen}")
        return " + ".join(src), " + ".join(py)

    def exponent(self, rng, depth, signed):
        """An exponent in grammar source (Python's differs in ``**`` only);
        a tower's upper part is never negative (the grammar rejects that)
        and nesting stays shallow, so every value is small."""
        out = "-" if signed and rng.random() < 0.15 else ""
        if depth > 0 and rng.random() < 0.2:
            out += f"({self.exponent(rng, depth - 1, signed)})"
        else:
            out += str(rng.randint(0, 3))
        if depth > 0 and rng.random() < 0.3:
            out += "^" + self.exponent(rng, 0, signed=False)
        return out

    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_parse_agrees_with_python(self, seed):
        rng = random.Random(seed)
        src, py = self.expr(rng, 2)
        try:
            want = eval(py, dict(self.ENV))
        except (ExpressionError, ZeroDivisionError) as err:
            with pytest.raises(ParseError) as got:
                parse(src, ("a",))
            assert str(got.value).startswith(str(err)), (src, py)
        else:
            assert parse(src, ("a",)) == want, (src, py)
