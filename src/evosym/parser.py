"""Expression grammar for the command line and corpus files.

Identifiers: ``x``, ``t``, ``u`` (= u_0), ``u1``..``u99`` (``u_1`` also
accepted), plus pre-declared named constants.  Operators ``+ - * / ^`` with
the usual precedence, ``^`` right-associative with integer exponents,
``exp(...)`` the only function, integer literals (rationals are written
``p/q``), insignificant whitespace.  Implicit multiplication is a syntax
error.  ``parse`` returns the normalized expression; printing a normal form
and re-parsing it is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .expr import GEN_T, GEN_X, DiffExpr, ExpressionError, normalize


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | an operator/paren | "end"
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")
_U_RE = re.compile(r"u_?(\d+)$")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            line, col = _line_col(source, len(source) - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        line, col = _line_col(source, m.start(1) if m.group(1)
                              else m.start(2) if m.group(2) else m.start(3))
        if m.group(1):
            tokens.append(_Token("num", m.group(1), line, col))
        elif m.group(2):
            tokens.append(_Token("ident", m.group(2), line, col))
        else:
            tokens.append(_Token(m.group(3), m.group(3), line, col))
        pos = m.end()
    last_line, last_col = _line_col(source, len(source))
    tokens.append(_Token("end", "", last_line, last_col))
    return tokens


def _line_col(source: str, pos: int) -> tuple[int, int]:
    line = source.count("\n", 0, pos) + 1
    col = pos - (source.rfind("\n", 0, pos) + 1) + 1
    return line, col


_MAX_DEPTH = 100
"""Deepest nesting of parentheses, unary minus, ``exp(...)`` and exponent
parentheses or towers that the recursive descent accepts."""

_ONE = ("num", Fraction(1))


class _Parser:
    def __init__(self, tokens: list[_Token], constants: frozenset[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    @staticmethod
    def descend(tok: _Token, depth: int) -> int:
        if depth >= _MAX_DEPTH:
            raise ParseError(f"expression nested too deeply (more than "
                             f"{_MAX_DEPTH} levels)", tok.line, tok.column)
        return depth + 1

    def parse_expr(self, depth: int = 0):
        """A chain of ``+``/``-`` as one flat ``add`` node (``a - b`` is
        ``a + (-b)``), so long sums cost no recursion."""
        parts = [self.parse_product(depth)]
        while self.peek().kind in ("+", "-"):
            minus = self.advance().kind == "-"
            rhs = self.parse_product(depth)
            parts.append(("neg", rhs) if minus else rhs)
        return parts[0] if len(parts) == 1 else ("add", *parts)

    def parse_product(self, depth: int):
        """A chain of ``*``/``/`` as one flat ``mul`` node (``a / b`` is
        ``a * (1/b)``)."""
        parts = [self.parse_power(depth)]
        while self.peek().kind in ("*", "/"):
            divide = self.advance().kind == "/"
            rhs = self.parse_power(depth)
            parts.append(("div", _ONE, rhs) if divide else rhs)
        return parts[0] if len(parts) == 1 else ("mul", *parts)

    def parse_power(self, depth: int):
        base = self.parse_atom(depth)
        if self.peek().kind == "^":
            self.advance()
            base = ("pow", base, self.parse_exponent(depth))
        return base

    def parse_exponent(self, depth: int) -> int:
        neg = False
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            neg = True
            tok = self.peek()
        if tok.kind == "num":
            self.advance()
            base = int(tok.text)
        elif tok.kind == "(":
            self.advance()
            base = self.parse_exponent(self.descend(tok, depth))
            self.expect(")")
        else:
            raise ParseError("non-integer exponent", tok.line, tok.column)
        # right-associative exponent towers: u^2^3 means u^(2^3)
        if self.peek().kind == "^":
            caret = self.advance()
            rest = self.parse_exponent(self.descend(caret, depth))
            if rest < 0:
                raise ParseError("non-integer exponent", caret.line,
                                 caret.column)
            base = base ** rest
        return -base if neg else base

    def parse_atom(self, depth: int):
        tok = self.advance()
        if tok.kind == "num":
            return ("num", Fraction(int(tok.text)))
        if tok.kind == "-":
            # unary minus binds tighter than * and looser than ^
            return ("neg", self.parse_power(self.descend(tok, depth)))
        if tok.kind == "(":
            inner = self.parse_expr(self.descend(tok, depth))
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "exp":
                self.expect("(")
                inner = self.parse_expr(self.descend(tok, depth))
                self.expect(")")
                return ("exp", inner)
            if name == "x":
                return ("gen", GEN_X)
            if name == "t":
                return ("gen", GEN_T)
            if name == "u":
                return ("gen", 0)
            m = _U_RE.match(name)
            if m:
                idx = int(m.group(1))
                if idx > 99:
                    raise ParseError(f"u-index {idx} out of range (max 99)",
                                     tok.line, tok.column)
                return ("gen", idx)
            if name in self.constants:
                return ("const", name)
            raise ParseError(f"unknown identifier {name!r} "
                             "(constants must be declared)", tok.line, tok.column)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.line, tok.column)


def parse(source: str, constants: Iterable[str] = ()) -> DiffExpr:
    """Parse a source string to its normalized expression."""
    names = frozenset(constants)
    reserved = {"x", "t", "u", "exp"} | {f"u{i}" for i in range(100)}
    for name in names:
        if name in reserved or _U_RE.match(name):
            raise ValueError(f"constant name {name!r} collides with a "
                             "reserved identifier")
    tokens = _tokenize(source)
    p = _Parser(tokens, names)
    tree = p.parse_expr()
    end = p.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected token {end.text!r}", end.line, end.column)
    try:
        return normalize(tree)
    except (ExpressionError, ZeroDivisionError) as err:
        raise ParseError(str(err), end.line, end.column) from err
