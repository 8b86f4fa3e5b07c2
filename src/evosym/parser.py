"""Expression grammar for the command line and corpus files.

Identifiers: ``x``, ``t``, ``u`` (= u_0), ``u1``..``u99`` (``u_1`` also
accepted; ``expr.U_NAME`` spells them), plus pre-declared named constants.
Operators ``+ - * / ^`` with the usual precedence, ``^`` right-associative
with integer exponents of at most ``_MAX_EXPONENT`` in absolute value,
``exp(...)`` the only function, integer literals of ASCII digits
(rationals are written ``p/q``), insignificant whitespace.  Implicit
multiplication is a syntax error.  Printing a normal form and re-parsing
it is the identity.

The recursive descent parses straight to the normal form: each rule returns
the ``DiffExpr`` of what it read (syntax-directed evaluation), so no syntax
tree is built.  Numbers stay ``int`` from literal to coefficient and the
division ``a / b`` is exact in ``DiffExpr``.  An error of the arithmetic
itself (division by a non-scalar or by zero, a nonlinear exponential
argument, a negative power of a generator, a product over its budget) is
reported at the end of input, even when a grammar error follows it.  A
token is a ``(kind, text, offset)`` tuple; the line and column of a
``ParseError`` are computed from the offset when it is raised.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .expr import (GEN_T, GEN_X, U_NAME, DiffExpr, ExpressionError, _sum,
                   const, exp_of, gen_expr, rational, u_name_index)


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


# whitespace, then a number, an identifier, an operator or parenthesis, or
# (the last group) any other character, which is an error
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    rf"\s*(?:([0-9]+)|({_IDENT_RE.pattern})|([-+*/^()])|(\S))")
_KINDS = {1: "num", 2: "ident"}  # group 3's kind is its text
_RESERVED = frozenset({"x", "t", "exp"})  # and what U_NAME matches


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Tokens ``(kind, text, offset)``: kind is ``"num"``, ``"ident"``, the
    operator or parenthesis itself, or ``"end"`` (text ``""``, offset the
    length of the source) for the last one."""
    tokens = []
    # a literal of more digits than int() converts (0: no limit) is an error
    limit = sys.get_int_max_str_digits()
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        text = m.group(group)
        if group == 4:
            raise _error(source, f"unexpected character {text!r}",
                         m.start(group))
        if group == 1 and 0 < limit < len(text):
            raise _error(source, f"integer literal of {len(text)} digits "
                         f"exceeds the limit of {limit} digits",
                         m.start(group))
        tokens.append((_KINDS.get(group, text), text, m.start(group)))
    tokens.append(("end", "", len(source)))
    return tokens


_MAX_DEPTH = 100
"""Deepest nesting of parentheses, unary minus, ``exp(...)`` and exponent
parentheses or towers that the recursive descent accepts."""

_MAX_EXPONENT = 100_000
"""Largest absolute value of an exponent, a literal or the value of a tower;
checked before a tower is computed, so ``u^9^9^9`` is refused at once."""


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

    def parse_expr(self, depth: int = 0) -> DiffExpr:
        """A chain of ``+``/``-`` summed in one term dict (``a - b`` is
        ``a + (-b)``), so long sums cost no recursion."""
        parts = [self.parse_product(depth)]
        while self.peek() in ("+", "-"):
            minus = self.advance()[0] == "-"
            rhs = self.parse_product(depth)
            parts.append(-rhs if minus else rhs)
        return parts[0] if len(parts) == 1 else _sum(parts)

    def parse_product(self, depth: int) -> DiffExpr:
        """A chain of ``*``/``/``, evaluated left to right."""
        out = self.parse_power(depth)
        while self.peek() in ("*", "/"):
            divide = self.advance()[0] == "/"
            rhs = self.parse_power(depth)
            out = out / rhs if divide else out * rhs
        return out

    def parse_power(self, depth: int) -> DiffExpr:
        base = self.parse_atom(depth)
        if self.peek() == "^":
            self.advance()
            base = base ** self.parse_exponent(depth)
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

    def parse_atom(self, depth: int) -> DiffExpr:
        tok = self.advance()
        kind = tok[0]
        if kind == "num":
            return rational(int(tok[1]))
        if kind == "-":
            # unary minus binds tighter than * and looser than ^
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
                return gen_expr(GEN_X)
            if name == "t":
                return gen_expr(GEN_T)
            try:
                idx = u_name_index(name)
            except ExpressionError as err:
                raise self.error(str(err), tok) from err
            if idx is not None:
                return gen_expr(idx)
            if name in self.constants:
                return const(name)
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
        value = p.parse_expr()
    except (ExpressionError, ZeroDivisionError) as err:
        raise p.error(str(err), p.tokens[-1]) from err
    end = p.tokens[p.pos]
    if end[0] != "end":
        raise p.error(f"unexpected token {end[1]!r}", end)
    return value
