"""Expression grammar for the command line and corpus files.

Identifiers: ``x``, ``t``, ``u`` (= u_0), ``u1``..``u99`` (``u_1`` also
accepted; ``expr.U_NAME`` spells them), plus pre-declared named constants.
Operators ``+ - * / ^`` with the usual precedence, ``^`` right-associative
with integer exponents of at most ``_MAX_EXPONENT`` in absolute value,
``exp(...)`` the only function, integer literals of ASCII digits
(rationals are written ``p/q``), insignificant whitespace.  Implicit
multiplication is a syntax error.  Printing a normal form and re-parsing
it is the identity.

The recursive descent parses straight to the normal form (syntax-directed
evaluation), so no syntax tree is built.  A rule returns one of two kinds
of value.  A product chain of plain atoms is one term, an opaque ``expr``
one-term value whose key is merged as the chain is read.  Plain atoms are
integer literals, ``x``, ``t``, ``u_i``, declared constants, ``exp(...)``
and parenthesised chains that are one term, each to a non-negative
integer power, or to a negative one when it is a unit; a divisor joins the
term when it is a unit (``expr.term_inverse``: a rational times named
constants and an exponential).  A ``+``/``-`` chain adds its terms and sub-expressions
into one term dict (``expr.term_sum``).  Everything else (a product or
quotient with a sum, a divisor or a negative power that is no unit) is
``DiffExpr`` arithmetic, which uses the same one-term helpers, so every
operation that can fail runs where the source reads it.  Numbers stay
``int`` from literal to coefficient.  An error of the arithmetic itself
(division by a non-unit or by zero, a nonlinear exponential argument, a
negative power of a generator, a product over its budget) is reported at
the end of input, even when a grammar error follows it.  A token is a
``(kind, text, offset)`` tuple; the line and column of a ``ParseError``
are computed from the offset when it is raised.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .expr import (GEN_T, GEN_X, U_NAME, DiffExpr, ExpressionError,
                   const_term, exp_term, gen_term, int_term, term_expr,
                   term_inverse, term_mul, term_neg, term_pow, term_sum,
                   u_name_index)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error(source: str, message: str, offset: int) -> ParseError:
    """A ParseError at ``offset``, with 1-based line and column."""
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return ParseError(message, line, column)


# a number, an identifier, an operator or parenthesis, or (the last
# alternative) any other character; whitespace matches none, so it is
# skipped
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"[0-9]+|{_IDENT_RE.pattern}|[-+*/^()]|\S")
# a token's kind by its first character: "num", "ident", or the operator or
# parenthesis itself; a token that starts with any other character is an
# unexpected character, and the source holds one when this matches
_KINDS = {**dict.fromkeys("0123456789", "num"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                          "abcdefghijklmnopqrstuvwxyz_", "ident"),
          **{c: c for c in "-+*/^()"}}
_UNEXPECTED_RE = re.compile(rf"[^\s{re.escape(''.join(_KINDS))}]")
_RESERVED = frozenset({"x", "t", "exp"})  # and what U_NAME matches


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Tokens ``(kind, text, offset)``: kind is ``"num"``, ``"ident"``, the
    operator or parenthesis itself, or ``"end"`` (text ``""``, offset the
    length of the source) for the last one."""
    kind = _KINDS.get
    tokens = [(kind(m[0][0]), m[0], m.start())
              for m in _TOKEN_RE.finditer(source)]
    # an unexpected character and a literal of more digits than int()
    # converts (0: no limit) are errors, and the first in the source is
    # reported; a literal over the limit needs a source longer than it
    limit = sys.get_int_max_str_digits()
    if _UNEXPECTED_RE.search(source) or 0 < limit < len(source):
        for k, text, offset in tokens:
            if k is None:
                raise _error(source, f"unexpected character {text!r}",
                             offset)
            if k == "num" and 0 < limit < len(text):
                raise _error(source, f"integer literal of {len(text)} "
                             f"digits exceeds the limit of {limit} digits",
                             offset)
    tokens.append(("end", "", len(source)))
    return tokens


_MAX_DEPTH = 100
"""Deepest nesting of parentheses, unary minus, ``exp(...)`` and exponent
parentheses or towers that the recursive descent accepts."""

_MAX_EXPONENT = 100_000
"""Largest absolute value of an exponent, a literal or the value of a tower;
checked before a tower is computed, so ``u^9^9^9`` is refused at once."""


def _value(v: tuple | DiffExpr) -> DiffExpr:
    """A rule's result as an expression: a term is put in normal form."""
    return term_expr(v) if type(v) is tuple else v


class _Parser:
    def __init__(self, source: str, constants: frozenset[str]) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.constants = constants

    def error(self, message: str, tok: tuple) -> ParseError:
        return _error(self.source, message, tok[2])

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.advance()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found "
                             f"{tok[1] or 'end of input'!r}", tok)
        return tok

    def descend(self, tok: tuple, depth: int) -> int:
        if depth >= _MAX_DEPTH:
            raise self.error(f"expression nested too deeply (more than "
                             f"{_MAX_DEPTH} levels)", tok)
        return depth + 1

    def parse_expr(self, depth: int = 0) -> tuple | DiffExpr:
        """A chain of ``+``/``-`` (``a - b`` is ``a + (-1) * b``): its one
        part as it is, or the sum of its parts in one term dict, so long
        sums cost no recursion."""
        parts = [(1, self.parse_product(depth))]
        while self.peek() in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
            parts.append((sign, self.parse_product(depth)))
        return parts[0][1] if len(parts) == 1 else term_sum(parts)

    def parse_product(self, depth: int) -> tuple | DiffExpr:
        """A chain of ``*``/``/``, evaluated left to right: one term while
        every factor is a term and every divisor a unit term, else
        ``DiffExpr`` products and quotients."""
        out = self.parse_power(depth)
        while self.peek() in ("*", "/"):
            divide = self.advance()[0] == "/"
            rhs = self.parse_power(depth)
            if type(out) is tuple and type(rhs) is tuple:
                factor = term_inverse(rhs) if divide else rhs
                if factor is not None:
                    out = term_mul(out, factor)
                    continue
            out = (_value(out) / _value(rhs) if divide
                   else _value(out) * _value(rhs))
        return out

    def parse_power(self, depth: int) -> tuple | DiffExpr:
        base = self.parse_atom(depth)
        if self.peek() == "^":
            self.advance()
            n = self.parse_exponent(depth)
            if type(base) is tuple:
                term = base if n >= 0 else term_inverse(base)
                if term is not None:
                    return term_pow(term, abs(n))
            return _value(base) ** n
        return base

    def parse_exponent(self, depth: int) -> int:
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
        # right-associative exponent towers: u^2^3 means u^(2^3)
        if self.peek() == "^":
            caret = self.advance()
            rest = self.parse_exponent(self.descend(caret, depth))
            if rest < 0:
                raise self.error("non-integer exponent", caret)
            # |base| and rest are at most _MAX_EXPONENT, and 2^bits exceeds
            # it, so the power below is only computed when it is small
            if abs(base) > 1 and (rest >= _MAX_EXPONENT.bit_length()
                                  or abs(base) ** rest > _MAX_EXPONENT):
                raise self.exponent_error(caret)
            base = base ** rest
        return -base if neg else base

    def exponent_error(self, tok: tuple) -> ParseError:
        return self.error(f"exponent out of range (max {_MAX_EXPONENT})",
                          tok)

    def parse_atom(self, depth: int) -> tuple | DiffExpr:
        tok = self.advance()
        kind = tok[0]
        if kind == "num":
            return int_term(int(tok[1]))
        if kind == "-":
            # unary minus binds tighter than * and looser than ^
            inner = self.parse_power(self.descend(tok, depth))
            return term_neg(inner) if type(inner) is tuple else -inner
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
                return exp_term(_value(inner))
            if name == "x":
                return gen_term(GEN_X)
            if name == "t":
                return gen_term(GEN_T)
            try:
                idx = u_name_index(name)
            except ExpressionError as err:
                raise self.error(str(err), tok) from err
            if idx is not None:
                return gen_term(idx)
            if name in self.constants:
                return const_term(name)
            raise self.error(f"unknown identifier {name!r} "
                             "(constants must be declared)", tok)
        raise self.error(f"unexpected token {tok[1] or 'end of input'!r}",
                         tok)


def constant_names(constants: Iterable[str]) -> frozenset[str]:
    """The declared constant names, each checked to be an identifier that
    is not reserved; raises ``ValueError`` naming a bad one."""
    names = frozenset(constants)
    for name in names:
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"constant name {name!r} is not an identifier")
        if name in _RESERVED or U_NAME.fullmatch(name):
            raise ValueError(f"constant name {name!r} collides with a "
                             "reserved identifier")
    return names


def parse(source: str, constants: Iterable[str] = ()) -> DiffExpr:
    """Parse a source string to its normal form."""
    p = _Parser(source, constant_names(constants))
    try:
        value = _value(p.parse_expr())
    except (ExpressionError, ZeroDivisionError) as err:
        raise p.error(str(err), p.tokens[-1]) from err
    end = p.tokens[p.pos]
    if end[0] != "end":
        raise p.error(f"unexpected token {end[1]!r}", end)
    return value
