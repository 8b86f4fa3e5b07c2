import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (ExpressionError, ParseError, const, exp_of, parse,
                    to_source, u, x, t)
from evosym import _kernel_py as kernel
from evosym.expr import ZERO, rational, u_name_index
from evosym.parser import _MAX_DEPTH, _MAX_EXPONENT, constant_names

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
        # integer literals take ASCII digits only (Arabic-Indic three)
        ("u1 +\n \u0663*u", 2, 2, "unexpected character '\u0663'"),
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
        # more digits than Python converts to an int
        ("u1 +\n " + "7" * 5001, 2, 2, "integer literal of 5001 digits "
         f"exceeds the limit of {sys.get_int_max_str_digits()} digits"),
        ("u1 +\n u^" + "0" * 5001, 2, 4, "integer literal of 5001 digits "
         f"exceeds the limit of {sys.get_int_max_str_digits()} digits"),
    ], ids=["unknown-identifier", "unexpected-character",
            "unexpected-character-after-tab", "non-ascii-digit",
            "expected-paren",
            "expected-paren-at-end", "expected-exp-paren",
            "non-integer-exponent", "exponent-missing",
            "non-integer-exponent-in-tower", "u100", "depth-101",
            "trailing-token", "unexpected-operator", "dangling-operator",
            "division-by-u", "division-by-zero", "nonlinear-exp",
            "division-by-u-before-trailing-token",
            "nonlinear-exp-before-trailing-token",
            "bad-character-before-division-by-zero", "tower-2^3^4^5",
            "tower-9^9^9", "exponent-literal", "long-literal",
            "long-exponent-literal"])
    def test_line_and_column_reported(self, source, line, column, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(f" (line {line}, column {column})")

    def test_long_u_index_reported_at_the_identifier(self):
        # refused by its digit count: int() would raise past its limit
        with pytest.raises(ParseError) as err:
            parse("u1 +\n 2*u" + "1" * 5000)
        assert (err.value.line, err.value.column) == (2, 4)
        assert str(err.value) == ("u-index of 5000 digits out of range "
                                  "(max 99) (line 2, column 4)")
        assert parse("u_" + "0" * 5000 + "3") == parse("u3")

    def test_constant_name_collision_rejected(self):
        with pytest.raises(ValueError):
            parse("u1", ("exp",))
        with pytest.raises(ValueError):
            parse("u1", ("u7",))

    @pytest.mark.parametrize("name", ["# c", "1x", "a b", "", "a-b", "\u00e9"])
    def test_constant_name_must_be_an_identifier(self, name):
        with pytest.raises(ValueError, match="is not an identifier"):
            parse("u1", (name,))


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


# -- the parser against the one-DiffExpr-per-rule descent it replaced ----------

_REF_TOKEN_RE = re.compile(
    r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S))")


def _reference_error(source, message, offset):
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def _reference_tokenize(source):
    tokens = []
    limit = sys.get_int_max_str_digits()
    for m in _REF_TOKEN_RE.finditer(source):
        group = m.lastindex
        text = m.group(group)
        if group == 4:
            raise _reference_error(source, f"unexpected character {text!r}",
                                   m.start(group))
        if group == 1 and 0 < limit < len(text):
            raise _reference_error(
                source, f"integer literal of {len(text)} digits exceeds "
                f"the limit of {limit} digits", m.start(group))
        kind = {1: "num", 2: "ident"}.get(group, text)
        tokens.append((kind, text, m.start(group)))
    tokens.append(("end", "", len(source)))
    return tokens


class _ReferenceParser:
    """The former parser: every rule returns the ``DiffExpr`` of what it
    read, through ``DiffExpr`` arithmetic only."""

    def __init__(self, source, constants):
        self.source = source
        self.tokens = _reference_tokenize(source)
        self.pos = 0
        self.constants = constants

    def error(self, message, tok):
        return _reference_error(self.source, message, tok[2])

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found "
                             f"{tok[1] or 'end of input'!r}", tok)
        return tok

    def descend(self, tok, depth):
        if depth >= _MAX_DEPTH:
            raise self.error(f"expression nested too deeply (more than "
                             f"{_MAX_DEPTH} levels)", tok)
        return depth + 1

    def parse_expr(self, depth=0):
        parts = [self.parse_product(depth)]
        while self.peek() in ("+", "-"):
            minus = self.advance()[0] == "-"
            rhs = self.parse_product(depth)
            parts.append(-rhs if minus else rhs)
        return sum(parts[1:], parts[0])

    def parse_product(self, depth):
        out = self.parse_power(depth)
        while self.peek() in ("*", "/"):
            divide = self.advance()[0] == "/"
            rhs = self.parse_power(depth)
            out = out / rhs if divide else out * rhs
        return out

    def parse_power(self, depth):
        base = self.parse_atom(depth)
        if self.peek() == "^":
            self.advance()
            base = base ** self.parse_exponent(depth)
        return base

    def parse_exponent(self, depth):
        neg = False
        tok = self.tokens[self.pos]
        if tok[0] == "-":
            self.advance()
            neg = True
            tok = self.tokens[self.pos]
        if tok[0] == "num":
            self.advance()
            base = int(tok[1])
            if base > _MAX_EXPONENT:
                raise self.exponent_error(tok)
        elif tok[0] == "(":
            self.advance()
            base = self.parse_exponent(self.descend(tok, depth))
            self.expect(")")
        else:
            raise self.error("non-integer exponent", tok)
        if self.peek() == "^":
            caret = self.advance()
            rest = self.parse_exponent(self.descend(caret, depth))
            if rest < 0:
                raise self.error("non-integer exponent", caret)
            if abs(base) > 1 and (rest >= _MAX_EXPONENT.bit_length()
                                  or abs(base) ** rest > _MAX_EXPONENT):
                raise self.exponent_error(caret)
            base = base ** rest
        return -base if neg else base

    def exponent_error(self, tok):
        return self.error(f"exponent out of range (max {_MAX_EXPONENT})",
                          tok)

    def parse_atom(self, depth):
        tok = self.advance()
        kind = tok[0]
        if kind == "num":
            return rational(int(tok[1]))
        if kind == "-":
            return -self.parse_power(self.descend(tok, depth))
        if kind == "(":
            inner = self.parse_expr(self.descend(tok, depth))
            self.expect(")")
            return inner
        if kind == "ident":
            name = tok[1]
            if name == "exp":
                self.expect("(")
                inner = self.parse_expr(self.descend(tok, depth))
                self.expect(")")
                return exp_of(inner)
            if name == "x":
                return x
            if name == "t":
                return t
            try:
                idx = u_name_index(name)
            except ExpressionError as err:
                raise self.error(str(err), tok) from err
            if idx is not None:
                return u(idx)
            if name in self.constants:
                return const(name)
            raise self.error(f"unknown identifier {name!r} "
                             "(constants must be declared)", tok)
        raise self.error(f"unexpected token {tok[1] or 'end of input'!r}",
                         tok)


def _reference_parse(source, constants=()):
    p = _ReferenceParser(source, constant_names(constants))
    try:
        value = p.parse_expr()
    except (ExpressionError, ZeroDivisionError) as err:
        raise p.error(str(err), p.tokens[-1]) from err
    end = p.tokens[p.pos]
    if end[0] != "end":
        raise p.error(f"unexpected token {end[1]!r}", end)
    return value


def _outcome(parser, source):
    """``("value", normal form)`` or ``("error", message, line, column)``."""
    try:
        e = parser(source, ("a",))
    except ParseError as err:
        return ("error", str(err), err.line, err.column)
    return ("value", e._den, list(e._t.items()))


# factors that make a source fail in arithmetic: a zero divisor, a negative
# power of a generator, division by a non-scalar
_BAD_FACTORS = ("/0", "/(0)", "*u^-1", "*(u+1)/u", "/(u - u)", "/u1")


class TestAgainstReference:
    """On random sources of the grammar and on malformed variants of them,
    the parser gives the reference descent's normal form (and the same term
    order), or the identical ParseError text, line and column."""

    def variant(self, rng, src):
        spans = [m.span() for m in re.finditer(r"[0-9]+|\w+|\S", src)]
        start, end = rng.choice(spans)
        edit = rng.choice(("drop", "double", "factor"))
        if edit == "drop":
            return src[:start] + src[end:]
        if edit == "double":
            return src[:end] + src[start:end] + src[end:]
        return src[:end] + rng.choice(_BAD_FACTORS) + src[end:]

    @settings(max_examples=300, deadline=None)
    @given(seeds)
    def test_agrees_with_the_reference(self, seed):
        rng = random.Random(seed)
        src, _ = TestAgainstPython().expr(rng, 2)
        for source in [src] + [self.variant(rng, src) for _ in range(4)]:
            assert _outcome(parse, source) == \
                _outcome(_reference_parse, source), source

    @pytest.mark.parametrize("source", [
        "(-4/13)*u^2 + 7/13*t^1*u*u2 + (-5/7)*t^2*u*u1",
        "9/7*(u5 + 10*u*u3) + 5/7*(u5 + 10*u*u3)",
        "2*u/4/a*3 - 3/2*u/a", "u/0", "u/(2-2)", "0/0*(u+1)",
        "u^-1", "a^-2*u/a^-1", "0^-1", "(u+1)/u", "u*(u1+1)/u", "u1/u",
        "a/(2*a)", "2/a/x",
        "(-u)^3 - -u^3", "0^0 + u^0 + (2*u)^2", "exp(u1)*u/0",
        "u/0 + exp(u1)", "2*u/-3", "(1/2)/(-1/3)*x", "u + 1 - 1 - u",
    ])
    def test_agrees_on_edge_cases(self, source):
        assert _outcome(parse, source) == _outcome(_reference_parse, source)


class TestOneTermChains:
    """A product chain of plain atoms is one term: parsing a sum of monomial
    products forms no term-map product."""

    @pytest.fixture
    def mul_terms_calls(self, monkeypatch):
        calls = []
        real = kernel.mul_terms

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(kernel, "mul_terms", counted)
        return calls

    @pytest.mark.parametrize("source,consts", [
        ("(-4/13)*u^2 + 7/13*t^1*u*u2 + (-5/7)*t^2*u*u1 + (-3/7)*x*u1",
         ("c",)),
        ("u5 + 5*u*u3 + 5*u1*u2 + 5*u^2*u1", ("a", "b")),
        ("u5 + a*u*u3 + b*u1*u2 + c/2*u^2*u1 - a^2*b/3*x^2*t*u", "abc"),
        ("u3 - u1^3/2 + 6/-4*u*u1*(2*u)^2", ()),
    ])
    def test_monomial_sums_form_no_product(self, mul_terms_calls, source,
                                           consts):
        parse(source, consts)
        assert mul_terms_calls == []

    def test_the_count_sees_a_product_of_sums(self, mul_terms_calls):
        e = parse("(u + 1)*(u1 + 1)")
        assert len(mul_terms_calls) == 1
        assert e == u0 * u1 + u0 + u1 + 1
