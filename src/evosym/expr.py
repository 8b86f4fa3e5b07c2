"""Exact differential expressions in ``x``, ``t``, ``u = u_0, u_1, ...``.

Values are canonical sums of terms; each term is a rational coefficient times
a monomial in named constants and generators times at most one exponential
factor ``exp(linear combination of x, t, u)``.  The normal form is unique, so
semantic equality is structural equality and zero-testing is "is the term map
empty".  All arithmetic is exact; there is no floating point anywhere.
The rational coefficients of one expression are kept as integer numerators
over one common denominator (``DiffExpr``), so the term loops run on ints.

Generators are encoded as ints: ``u_i -> i``, ``x -> -1``, ``t -> -2``.  The
term-map layout and the loops over it (products, sums, partial and total
derivatives) live in ``_kernel_py``, imported here as ``kernel``.  A term
key there is ``(gens, rest)``: the generator powers packed in one int, one
fixed-width field per generator, and a sorted tuple of the named-constant
and exponential slots.  This module alone reads keys.  At its boundary
(``DiffExpr(mapping)``, ``term_items``, and the keys that
``split_t_only`` returns) a key is the sorted slot tuple ``((0, gen),
power), ..., ((1, name), power), ..., ((2, gen, cmono), rate), ...``, and
the canonical order is that of these tuples; no other module learns the
packing.  A generator power above ``MAX_GEN_POWER``, or a u-index above
``kernel.MAX_U``, leaves the class: the product, power or derivative that
would make one raises ``ExpressionError``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm, log10
from typing import Iterable, Mapping, Union

from . import _kernel_py as kernel

GEN_X = -1
GEN_T = -2

# Not a limit, and unused by evosym itself: try_divide decides every
# division without one.  The benchmark's tracer (perfbench/tracer.py) reads
# this name as the step count at which it reports a None result as a
# give-up, so it stays until the tracer reads statistics the library
# collects.
_DIV_STEP_CAP = 10_000


# Most term pairs (len(a) * len(b)) one product may form, and one fused sum
# (``sum_of_products``) over all its products, checked before any work.  One
# product of the benchmark, corpus and tests forms at most 1,738; one fused
# sum of the benchmark's requests (seeds 7 and 99) at most 476, and of
# ``corpus run`` 41.
MAX_PRODUCT_PAIRS = 100_000


# raised for operations that leave the expression class; defined in the
# kernel, which raises it for a key that would leave its fields
ExpressionError = kernel.ExpressionError


def _gen_name(gen: int) -> str:
    if gen == GEN_X:
        return "x"
    if gen == GEN_T:
        return "t"
    if gen == 0:
        return "u"
    return f"u{gen}"


class DiffExpr:
    """Canonical-form differential expression (immutable).

    Stored as integer numerators ``_t: key -> int`` over one denominator
    ``_den >= 1`` (the layout FLINT uses for ``fmpq_poly``), made unique by
    ``gcd(_den, every numerator) == 1``; zero is ``({}, 1)``.  Equality and
    hashing are therefore structural on ``(_den, _t)``, and arithmetic runs
    on ``int`` only: a product multiplies the denominators, a sum scales by
    their lcm, and each runs the gcd normalisation once.  A key of ``_t``
    is the kernel's ``(gens, rest)``: generator powers packed in one int
    (a product adds them), constant and exponential slots in a tuple.
    ``DiffExpr(mapping)`` takes slot-tuple keys with exact rational
    coefficients (ints or Fractions), packs the keys and clears the
    denominators; ``_reduced`` is the one constructor, and ``term_items``
    gives the slot-tuple keys and coefficients back.

    The canonical order and the hash are computed on each read.  The one
    field filled later is ``_parts``, the derivative memo (generator code
    -> ``∂self/∂gen``, and ``None`` -> ``D(self)``), by ``_derive`` alone;
    it lives exactly as long as its expression, and its fills are
    idempotent, so threads that race store equal values and need no lock.
    Shared results are never mutated.
    """

    __slots__ = ("_t", "_den", "_parts")

    def __new__(cls, terms: Mapping) -> "DiffExpr":
        den = 1
        for c in terms.values():
            den = lcm(den, c.denominator)
        return _reduced({_encode_key(k): c.numerator * (
            den // c.denominator) for k, c in terms.items() if c}, den)

    def __setattr__(self, *a):
        raise AttributeError("DiffExpr is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the one constructor; the memo
        # is not carried
        return _reduced, (dict(self._t), self._den)

    # -- canonical views ---------------------------------------------------

    def _num_items(self) -> list:
        """Terms as ``(slots, key, numerator)`` in the canonical order: a
        key as a slot tuple, the key itself, and the numerator of its
        coefficient over ``_den``."""
        items = sorted((_order(key), key, c) for key, c in self._t.items())
        return [(order[1], key, c) for order, key, c in items]

    def term_items(self) -> tuple:
        """Terms as a tuple of ``(key, coefficient)`` in the canonical order,
        keys as slot tuples; coefficients are exact rationals, ints when
        integral."""
        den = self._den
        return tuple((slots, c if den == 1 else _num(Fraction(c, den)))
                     for slots, _, c in self._num_items())

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def is_rational(self) -> bool:
        """True for a rational number, zero included: no term has a
        constant, generator or exponential factor."""
        return all(key == ONE_KEY for key in self._t)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._t == other._t

    def __hash__(self):
        t = self._t
        if not t:
            return hash(0)
        if len(t) == 1 and ONE_KEY in t:
            # a rational constant hashes like the number: ONE == 1
            c, den = t[ONE_KEY], self._den
            return hash(c if den == 1 else Fraction(c, den))
        return hash((self._den, frozenset(t.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return term_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __sub__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return term_sum(((1, self), (-1, other)))

    def __rsub__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "DiffExpr":
        return _reduced({k: -c for k, c in self._t.items()}, self._den)

    def __mul__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        # b is the one-term factor, the rational one when both are one term
        if len(b) != 1 or len(a) == 1 and ONE_KEY in a:
            a, b = b, a
        if len(b) == 1:
            (key, c), = b.items()
            return _reduced(kernel.mul_single(a, key, c),
                            self._den * other._den)
        if len(a) * len(b) > MAX_PRODUCT_PAIRS:
            raise ExpressionError(
                f"product of {len(a)} by {len(b)} terms exceeds the budget "
                f"of {MAX_PRODUCT_PAIRS} term pairs")
        return _reduced(kernel.mul_terms(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        inv = _inverse(other)
        if inv is None:
            if not other._t:
                raise ZeroDivisionError("division by zero scalar")
            raise ExpressionError("division is only defined by scalars")
        return self * term_expr(inv)

    def __pow__(self, n: int) -> "DiffExpr":
        if not isinstance(n, int):
            raise ExpressionError("non-integer exponent")
        if n == 0:
            return ONE
        if n == 1:
            return self
        if n < 0:
            inv = _inverse(self)
            if inv is None:
                raise ExpressionError(
                    "negative power of a non-invertible expression")
            return term_expr(term_pow(inv, -n))
        if len(self._t) == 1:
            return term_expr(term_pow(_term(self), n))
        base = self
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self) -> str:
        return to_source(self)

    def __repr__(self) -> str:
        return f"DiffExpr({to_source(self)})"


# slot setters for _reduced, which DiffExpr.__setattr__ refuses
_new = object.__new__
_set_terms = DiffExpr._t.__set__
_set_den = DiffExpr._den.__set__
_set_parts = DiffExpr._parts.__set__


def _reduced(terms: dict, den: int) -> DiffExpr:
    """The one constructor of ``DiffExpr``: the expression with integer
    numerators ``terms`` over ``den > 0``, in canonical form.  Both are
    divided by their gcd, which is skipped for ``den == 1`` and stops at
    the first partial gcd of 1.  ``terms`` is a freshly built dict, not
    copied; the caller keeps no reference to it."""
    if den != 1:
        g = den
        for c in terms.values():
            g = gcd(g, c)
            if g == 1:
                break
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    e = _new(DiffExpr)
    _set_terms(e, terms)
    _set_den(e, den)
    _set_parts(e, None)
    return e


def sum_of_products(triples: Iterable[tuple[int, DiffExpr, DiffExpr]]
                    ) -> DiffExpr:
    """``sum f * a * b`` over ``(int f, DiffExpr a, DiffExpr b)`` triples,
    accumulated in one term dict (FLINT's ``addmul``).

    The term pairs of all products together are checked against
    ``MAX_PRODUCT_PAIRS`` and the lcm of the product denominators is taken
    before any work; each product then goes straight into the sum
    (``kernel.addmul_into``), and the sum is put in canonical form once.
    Zero factors and operands add nothing.
    """
    products = [(f, a, b) for f, a, b in triples if f and a._t and b._t]
    pairs = 0
    den = 1
    for _, a, b in products:
        pairs += len(a._t) * len(b._t)
        d = a._den * b._den
        if den % d:
            den = lcm(den, d)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ExpressionError(
            f"sum of products of {pairs} term pairs exceeds the budget of "
            f"{MAX_PRODUCT_PAIRS} term pairs")
    acc: dict = {}
    for f, a, b in products:
        kernel.addmul_into(acc, a._t, b._t, f * (den // (a._den * b._den)))
    return _reduced(acc, den)


def term_sum(parts: Iterable[tuple[int, tuple | DiffExpr]]) -> DiffExpr:
    """``sum sign * part`` over ``(sign, part)`` pairs, each part a term
    (see one-term arithmetic below) or a ``DiffExpr``, added in one term
    dict over the lcm of the denominators met so far."""
    acc: dict = {}
    den = 1
    for sign, p in parts:
        if type(p) is tuple:
            key, c, d = p
            if not c:
                continue
            if d < 0:
                c, d = -c, -d
            if den % d:
                den *= kernel.rescale(acc, den, d)
            c *= sign * (den // d)
            v = acc.get(key)
            if v is None:
                acc[key] = c
            elif v + c:
                acc[key] = v + c
            else:
                del acc[key]
        else:
            d = p._den
            if den % d:
                den *= kernel.rescale(acc, den, d)
            f = sign * (den // d)
            if acc:
                kernel.add_into(acc, p._t, f)
            else:  # the first part, or all before it cancelled: a copy
                acc = dict(p._t) if f == 1 else {
                    k: c * f for k, c in p._t.items()}
    return _reduced(acc, den)


def _num(v: Union[int, Fraction]):
    """``v`` as an int when it is integral (much faster than Fraction; the
    two compare and hash identically)."""
    if isinstance(v, int):
        return v
    return v.numerator if v.denominator == 1 else v


def _coerce(v) -> DiffExpr | None:
    if isinstance(v, DiffExpr):
        return v
    if isinstance(v, (int, Fraction)):
        return _reduced({ONE_KEY: v.numerator}, v.denominator) if v else ZERO
    return None


def _expression(v) -> DiffExpr:
    """``v`` as an expression (ints and Fractions are coerced)."""
    e = _coerce(v)
    if e is None:
        raise ExpressionError(f"not an expression: {v!r}")
    return e


# -- term keys ----------------------------------------------------------------
#
# A key is the kernel's ``(gens, rest)``: generator powers packed one field
# per generator (the field of code ``gen`` is number ``gen + 2``), and the
# sorted tuple of constant and exponential slots.  The helpers below read
# and write the fields; ``_decode_key`` and ``_encode_key`` convert to and
# from the slot tuples of the public boundary.

ONE_KEY = (0, ())


def _gen_unit(gen: int) -> int:
    """The packed first power of the generator of code ``gen``; a u-index
    above ``kernel.MAX_U`` raises."""
    if not GEN_T <= gen <= kernel.MAX_U:
        raise kernel.index_error(gen)
    return 1 << (kernel.FIELD_BITS * (gen + 2))


def _gen_part(gens: int) -> tuple[int, tuple]:
    """A packed generator part as its total degree and its slots
    ``((0, gen), power)`` by ascending code."""
    out = []
    degree = 0
    gen = GEN_T
    while gens:
        v = gens & kernel.FIELD_MASK
        if v:
            degree += v
            out.append(((0, gen), v))
        gens >>= kernel.FIELD_BITS
        gen += 1
    return degree, tuple(out)


def _gen_power(gens: int, gen: int) -> int:
    """The power of the generator of code ``gen`` in a packed part."""
    if gen < GEN_T:
        return 0
    return (gens >> (kernel.FIELD_BITS * (gen + 2))) & kernel.FIELD_MASK


def _decode_key(key) -> tuple:
    """A key as a slot tuple: ``((0, gen), power)`` slots by ascending
    code, then ``rest``."""
    gens, rest = key
    return _gen_part(gens)[1] + rest if gens else rest


def _encode_key(slots) -> tuple:
    """The key of a sorted slot tuple (``_decode_key``'s inverse); a
    generator power or index out of its field raises."""
    gens = 0
    rest = []
    for slot, v in slots:
        if slot[0] == 0:
            if not 0 < v <= MAX_GEN_POWER:
                raise kernel.power_error()
            gens += v * _gen_unit(slot[1])
        else:
            rest.append((slot, v))
    return gens, tuple(rest)


def _order(key) -> tuple:
    """A key's place in the canonical order: its total degree in the
    generators, then its slot tuple."""
    gens, rest = key
    if not gens:
        return 0, rest
    degree, slots = _gen_part(gens)
    return degree, slots + rest


# -- one-term arithmetic ---------------------------------------------------
#
# A term is ``(key, num, den)``: the coefficient ``num / den`` (ints, ``den``
# nonzero, neither reduced nor sign-normalised) times the monomial ``key``.
# The parser builds a product chain of plain atoms as one term and holds it
# opaquely; ``term_expr`` and ``term_sum`` put terms in canonical form once.
# ``DiffExpr``'s operators use the same helpers whenever an operand has one
# term, so a product, power, inverse or sum of terms has one rule.

def gen_term(gen: int) -> tuple:
    return ((_gen_unit(gen), ()), 1, 1)


def const_term(name: str) -> tuple:
    return ((0, (((1, name), 1),)), 1, 1)


def int_term(n: int) -> tuple:
    return (ONE_KEY, n, 1)


def term_mul(a: tuple, b: tuple) -> tuple:
    return (kernel.mul_key(a[0], b[0]), a[1] * b[1], a[2] * b[2])


def term_neg(a: tuple) -> tuple:
    return (a[0], -a[1], a[2])


def term_pow(a: tuple, n: int) -> tuple:
    """``a ** n`` for ``n >= 0``; a generator power above
    ``MAX_GEN_POWER`` raises."""
    if not n:
        return (ONE_KEY, 1, 1)
    (gens, rest), num, den = a
    if gens and max(v for _, v in _gen_part(gens)[1]) * n > MAX_GEN_POWER:
        raise kernel.power_error()
    return ((gens * n, tuple((s, v * n) for s, v in rest)), num ** n, den ** n)


def term_inverse(a: tuple) -> tuple | None:
    """``1 / a``, or None when ``a`` is not a unit: a unit is a nonzero
    rational times named constants and an exponential, with no power of x,
    t or u (dividing by a non-unit's ``term_expr`` raises)."""
    (gens, rest), num, den = a
    if not num or gens:
        return None
    return ((0, tuple((s, -v) for s, v in rest)), den, num)


def term_expr(a: tuple) -> DiffExpr:
    key, num, den = a
    if not num:
        return ZERO
    if den < 0:
        num, den = -num, -den
    return _reduced({key: num}, den)


def _term(e: DiffExpr) -> tuple:
    """The one term of a one-term expression."""
    (key, c), = e._t.items()
    return key, c, e._den


def _inverse(e: DiffExpr) -> tuple | None:
    """``1 / e`` as a term, or None when ``e`` is not a unit."""
    return term_inverse(_term(e)) if len(e._t) == 1 else None


# -- constructors ----------------------------------------------------------

ZERO = DiffExpr({})
ONE = DiffExpr({(): 1})


def gen_expr(gen: int) -> DiffExpr:
    return term_expr(gen_term(gen))


x = gen_expr(GEN_X)
t = gen_expr(GEN_T)


def u(i: int = 0) -> DiffExpr:
    """``u_i``; an index over ``kernel.MAX_U``, the last u with a field in
    a term key, raises."""
    if i < 0:
        raise ExpressionError("u index must be >= 0")
    return gen_expr(i)


def const(name: str) -> DiffExpr:
    """A named symbolic constant (opaque, invertible, never a number)."""
    return term_expr(const_term(name))


def rational(p: Union[int, Fraction], q: int = 1) -> DiffExpr:
    if q == 1 and isinstance(p, (int, Fraction)):
        return _coerce(p)
    return _coerce(Fraction(p, q))


def exp_of(arg) -> DiffExpr:
    """``exp(arg)`` for ``arg`` a scalar-linear combination of x, t, u."""
    return term_expr(exp_term(arg))


def exp_term(arg) -> tuple:
    """``exp(arg)`` as a term.

    ``exp(0)`` is 1; products of exponentials merge by adding arguments
    (that falls out of the slot encoding).  Each term ``c * cmono * gen`` of
    the argument becomes the slot ``((2, gen, cmono), c)``, its constant
    monomial ``cmono`` kept as the term's own ``((1, name), power)`` slots.
    """
    arg = _expression(arg)
    slots = []
    for key, c in arg.term_items():
        gen = None
        for slot, v in key:
            if slot[0] == 0:
                if gen is not None or v != 1 or slot[1] not in (GEN_X, GEN_T, 0):
                    raise ExpressionError(
                        "exponential argument must be linear in x, t, u")
                gen = slot[1]
            elif slot[0] == 2:
                raise ExpressionError("nested exponentials are not allowed")
        if gen is None:
            raise ExpressionError(
                "exponential argument must be a combination of x, t, u "
                "with no constant term")
        cmono = tuple(sv for sv in key if sv[0][0] == 1)
        slots.append(((2, gen, cmono), c))
    return ((0, tuple(sorted(slots))), 1, 1)


# -- calculus-free structural operations -----------------------------------

# the spelling of u_i, in the grammar and in generator names: ``u`` alone
# (i = 0), or ``u``, one optional ``_`` and ASCII digits
U_NAME = re.compile(r"u(?:_?([0-9]+))?")
MAX_U_INDEX = 99
# the largest power of a generator in a term: the kernel's field holds it
MAX_GEN_POWER = kernel.MAX_POWER


def u_name_index(name: str) -> int | None:
    """The index ``i`` of a name spelled by ``U_NAME``, None for any other
    name; an index over ``MAX_U_INDEX`` raises.  Leading zeros are
    dropped, and an index of more digits than ``MAX_U_INDEX`` is refused
    without being converted, so no name meets ``int()``'s digit limit."""
    m = U_NAME.fullmatch(name)
    if m is None:
        return None
    digits = (m.group(1) or "").lstrip("0") or "0"
    if len(digits) <= len(str(MAX_U_INDEX)) and int(digits) <= MAX_U_INDEX:
        return int(digits)
    # the refusal names a short index, and counts the digits of a long one
    shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
    raise ExpressionError(f"u-index {shown} out of range (max {MAX_U_INDEX})")


def _gencode(v) -> int:
    """The code of a generator given by its code, its name or itself; any
    other value raises."""
    if isinstance(v, int):
        if GEN_T <= v <= kernel.MAX_U:
            return v
        raise ExpressionError(f"no generator has the code {v!r}")
    if isinstance(v, str):
        if v == "x":
            return GEN_X
        if v == "t":
            return GEN_T
        idx = u_name_index(v)
        if idx is not None:
            return idx
        raise ExpressionError(f"unknown generator {v!r}")
    if isinstance(v, DiffExpr) and len(v._t) == 1:
        ((gens, rest), c), = v._t.items()
        _, slots = _gen_part(gens)
        if c == 1 and v._den == 1 and not rest and len(slots) == 1 \
                and slots[0][1] == 1:
            return slots[0][0][1]
    raise ExpressionError(f"not a generator: {v!r}")


def _derive(e: DiffExpr, gen) -> DiffExpr:
    """``∂e/∂gen`` for a generator code, ``D(e)`` for ``None``: read from
    ``e``'s memo, or made by the one derivation kernel and stored there."""
    parts = e._parts
    if parts is None:
        parts = {}
        _set_parts(e, parts)
    got = parts.get(gen)
    if got is None:
        terms, m = kernel.derive_terms(e._t, gen)
        got = parts[gen] = _reduced(terms, e._den * m)
    return got


def _memo_d(e: DiffExpr) -> DiffExpr | None:
    """``D(e)`` if ``e``'s memo holds it, else ``None``; derives nothing."""
    parts = e._parts
    return parts.get(None) if parts else None


def partial(e: DiffExpr, v) -> DiffExpr:
    """Formal partial derivative; all generators are independent."""
    return _derive(e, _gencode(v))


def _u_order_of(key) -> int:
    """The largest ``i`` of a ``u_i`` a key depends on, through a power or
    through its exponential, or a negative number for none."""
    gens, rest = key
    top = (gens.bit_length() - 1) // kernel.FIELD_BITS - 2
    if top < 0 and any(slot[0] == 2 and slot[1] == 0 for slot, _ in rest):
        return 0
    return top


def u_indices(e: DiffExpr) -> set[int]:
    """The i of each u_i the expression depends on (0 for exp in u)."""
    present = 0  # a field of the union is nonzero where one of a key is
    out = set()
    for gens, rest in e._t:
        present |= gens
        if rest and rest[-1][0][0] == 2:  # exponential slots sort last
            out.update(slot[1] for slot, _ in rest
                       if slot[0] == 2 and slot[1] >= 0)
    present >>= 2 * kernel.FIELD_BITS  # from u_0 up
    i = 0
    while present:
        if present & kernel.FIELD_MASK:
            out.add(i)
        present >>= kernel.FIELD_BITS
        i += 1
    return out


def u_order(e: DiffExpr) -> int | None:
    """Largest ``k`` with a ``u_k`` dependence; 0 for expressions in x, t
    only; ``None`` for the zero expression."""
    return None if e.is_zero else max(0, max(map(_u_order_of, e._t)))


def occurs(e: DiffExpr, v) -> bool:
    gen = _gencode(v)
    return any(_gen_power(gens, gen) or any(
        slot[0] == 2 and slot[1] == gen for slot, _ in rest)
        for gens, rest in e._t)


def has_exp_in(e: DiffExpr, v) -> bool:
    gen = _gencode(v)
    return any(slot[0] == 2 and slot[1] == gen
               for _, rest in e._t for slot, _ in rest)


def is_constant(e: DiffExpr) -> bool:
    """True when no generator occurs at all (rationals and named constants)."""
    return all(not gens and all(slot[0] == 1 for slot, _ in rest)
               for gens, rest in e._t)


def is_t_only(e: DiffExpr) -> bool:
    """True when the expression is free of x and every u_i."""
    # a generator part below x's first power holds t alone
    return all(gens < kernel.X_UNIT and all(
        slot[0] == 1 or slot[1] == GEN_T for slot, _ in rest)
        for gens, rest in e._t)


def power_outside_exp(e: DiffExpr, v) -> bool:
    """True when some term with no exponential in a generator has a power
    of it."""
    gen = _gencode(v)
    return any(_gen_power(gens, gen)
               and not _cut(rest, (2, gen), (2, gen + 1))[1]
               for gens, rest in e._t)


def constant_rows(rows: Iterable[Iterable], reach: int
                  ) -> tuple[list[dict], list[dict], _Packing | None,
                             int] | None:
    """A matrix of constant expressions read and checked, as ``(rows,
    cleared, pk, den)``: each row as a dict from position to nonzero entry;
    ``den``, the lcm of the entries' denominators; and the same rows times
    ``den``.  Without a named constant a cleared cell is an ``int`` and
    ``pk`` is None; with one it is packed over ``pk``, the ``_Packing`` of
    the constants' slots met, with digit half-width ``reach`` times the
    largest absolute power of a constant.  None when an entry is not a
    ``DiffExpr`` or has a generator or an exponential."""
    out, den, slots, top = [], 1, set(), 0
    for r in rows:
        row = {}
        for c, e in enumerate(r):
            try:
                terms = e._t
            except AttributeError:
                return None
            if terms:
                den = lcm(den, e._den)
                for gens, rest in terms:
                    if gens:
                        return None
                    for slot, v in rest:
                        if slot[0] != 1:
                            return None
                        slots.add(slot)
                        top = max(top, abs(v))
                row[c] = e
        out.append(row)
    if not slots:  # every entry is rational: one numerator over e._den
        return out, [{c: den // e._den * v for c, e in row.items()
                      for v in e._t.values()} for row in out], None, den
    pk = _Packing(sorted(slots), reach * top)
    packed = [{c: pk.pack(e, den) for c, e in row.items()} for row in out]
    return out, packed, pk, den


# -- grouping terms --------------------------------------------------------

def _group(items, den: int, by) -> dict:
    """The one grouping of terms: ``by(key)`` gives a term's ``(group,
    rest)``, for ``rest`` the key it keeps in the group (one key per
    term of a group).  ``items`` are an expression's ``(key, numerator)``
    pairs over ``den``, keys as the kernel's pairs.  Each group's
    remainder, its terms with their keys cut to ``rest``, is one
    expression; the groups come in the order the items first name them, so
    a reader whose result is in the canonical order passes its items in
    the order of ``e._num_items()`` and any other the unsorted
    ``e._t.items()`` (sorting decodes every key of a read)."""
    groups: dict = {}
    for key, c in items:
        g, rest = by(key)
        d = groups.get(g)
        if d is None:
            groups[g] = {rest: c}
        else:
            d[rest] = c
    return {g: _reduced(d, den) for g, d in groups.items()}


def _cut(rest: tuple, lo: tuple, hi: tuple) -> tuple[tuple, tuple]:
    """A sorted slot tuple (a key's ``rest``, or a whole key as a slot
    tuple) as (its slots outside ``[lo, hi)``, those inside).  The slots of
    one kind (0 generator powers, 1 constants, 2 exponential rates), and of
    one generator within a kind, are adjacent, and two bisections find
    them."""
    i = bisect_left(rest, (lo,))
    j = bisect_left(rest, (hi,), i)
    return (rest, ()) if i == j else (rest[:i] + rest[j:], rest[i:j])


def split_t_only(e: DiffExpr) -> dict[tuple, DiffExpr]:
    """The t-only coefficient (named constants included) of each factor in
    x and u, keyed by that factor's slot-tuple key."""
    def by(key):
        gens, rest = key
        t_power = gens & kernel.FIELD_MASK
        rest, consts = _cut(rest, (1,), (2,))
        rest, t_rate = _cut(rest, (2, GEN_T), (2, GEN_X))
        return (_decode_key((gens - t_power, rest)),
                (t_power, consts + t_rate))
    return _group(e._t.items(), e._den, by)


def coefficient_rows(images: list[DiffExpr]) -> list[list[DiffExpr]]:
    """The linear system of ``images``: one dense row per monomial free of
    named constants (a shape), one column per image, and in each cell the
    constant coefficient (a rational times named constants) of the row's
    shape in the column's image.

    Each image's terms are grouped on their packed keys with the constant
    slots cut, not sorted; only a term whose shape is new to the system is
    decoded.  Rows come in the order the images' canonical terms first
    name them: an image's new shapes by the least canonical place
    (``_order``) of their own terms, which need not be the shape's, as a
    constant slot sorts before an exponential one (``a*exp(a*t)*u``
    precedes ``exp(t)*u``)."""
    def by(key):
        gens, rest = key
        rest, consts = _cut(rest, (1,), (2,))
        return (gens, rest), (0, consts)

    ncols = len(images)
    index: dict = {}
    rows: list[list[DiffExpr]] = []
    for col, e in enumerate(images):
        cells = _group(e._t.items(), e._den, by)
        new = [shape for shape in cells if shape not in index]
        if len(new) > 1:
            new.sort(key=lambda shape: min(
                _order((shape[0], consts + shape[1]))
                for _, consts in cells[shape]._t))
        for shape in new:
            index[shape] = len(rows)
            rows.append([ZERO] * ncols)
        for shape, cell in cells.items():
            rows[index[shape]][col] = cell
    return rows


def split_u_order(e: DiffExpr, cut: int) -> tuple[DiffExpr, DiffExpr]:
    """Split into (terms of u-order >= cut, the rest)."""
    parts = _group(e._t.items(), e._den,
                   lambda key: (_u_order_of(key) >= cut, key))
    return parts.get(True, ZERO), parts.get(False, ZERO)


def split_by_power(e: DiffExpr, v) -> dict[int, DiffExpr]:
    """Coefficients of the powers of a generator (that generator removed)."""
    gen = _gencode(v)

    def by(key):
        gens, rest = key
        p = _gen_power(gens, gen)
        return p, (gens - p * _gen_unit(gen) if p else gens, rest)
    return _group(e._t.items(), e._den, by)


def exp_spectrum(e: DiffExpr, v) -> tuple[tuple[DiffExpr, int], ...]:
    """The rate lambda of each ``exp(lambda*v)`` factor of the terms, a
    constant expression (0 for terms without one), with the top power of
    the generator v over its terms beside it."""
    gen = _gencode(v)

    def by(key):
        gens, rest = key
        rest, rate = _cut(rest, (2, gen), (2, gen + 1))
        return rate, (gens, rest)
    parts = _group(((key, c) for _, key, c in e._num_items()), e._den, by)
    return tuple((DiffExpr({slot[2]: q for slot, q in rate}),
                  max(_gen_power(gens, gen) for gens, _ in part._t))
                 for rate, part in parts.items())


def as_scalar(e: DiffExpr) -> DiffExpr | None:
    """``e`` itself when it is zero or one term of a rational times named
    constants (a constant is a ``DiffExpr``), else None.

    Unused by evosym itself: the benchmark's tracer (perfbench/tracer.py)
    calls it, so it stays until the tracer reads statistics the library
    collects."""
    return e if len(e._t) <= 1 and is_constant(e) else None


def primitive_part(e: DiffExpr) -> DiffExpr:
    """``e`` divided by its content, with the canonical leading term
    positive.  The content is the largest rational times named-constant
    monomial dividing every term, a unit since constants are invertible:
    afterwards the coefficients are integers with gcd 1 and every constant
    has lowest power 0 over the terms.  Zero stays zero."""
    if not e._t:
        return e
    g = 0
    powers = []
    for (_, rest), c in e._t.items():
        g = gcd(g, c)
        powers.append({slot[1]: v for slot, v in rest if slot[0] == 1})
    low = {nm: min(p.get(nm, 0) for p in powers)
           for nm in set().union(*powers)}
    unit = (0, tuple(((1, nm), -v) for nm, v in sorted(low.items()) if v))
    out = _reduced({kernel.mul_key(key, unit): c // g
                  for key, c in e._t.items()}, 1)
    return -out if out._t[max(out._t, key=_order)] < 0 else out


# -- exact division and roots ----------------------------------------------

class _Packing:
    """Packed exponent vectors (Monagan & Pearce) over term slots: with the
    slots sorted, ``n`` of them, a term key ``{slot_i: v_i}`` is the integer
    ``sum v_i * m_i * B^(n-1-i)``, one signed ("balanced") digit per slot,
    the first slot most significant; ``m_i`` is ``rate_scale``, the lcm of
    the denominators, for an exponential rate and 1 for any other slot, so
    every digit is an integer.  A polynomial is a dict from that integer to
    its ``int`` coefficient.  When every digit lies in ``[-L, L]`` and ``B =
    2L + 1`` the packing is one-to-one, a product of terms is one integer
    addition, and integer order is the lexicographic order of the digit
    vectors, a group order: the lead of a product is the sum of the leads.
    The empty monomial packs to the key 0, so a rational polynomial is the
    one key 0 and 1 is ``{0: 1}``, whatever the slots."""

    __slots__ = ("slots", "half", "base", "offset", "weights", "rate_scale")

    def __init__(self, slots: list, half: int, rate_scale: int = 1) -> None:
        self.slots, self.half, self.rate_scale = slots, half, rate_scale
        self.base = base = 2 * half + 1
        n = len(slots)
        self.weights = {s: base ** (n - 1 - i) * (rate_scale if s[0] == 2
                                                  else 1)
                        for i, s in enumerate(slots)}
        # adding the offset turns every balanced digit d into d + L >= 0
        self.offset = half * sum(base ** i for i in range(n))

    def pack(self, e: DiffExpr, den: int) -> dict:
        """``den * e`` packed; ``den`` is a multiple of ``e``'s
        denominator, so the coefficients are ints."""
        s = den // e._den
        w = self.weights
        return {int(sum(v * w[slot] for slot, v in _decode_key(key))):
                c * s for key, c in e._t.items()}

    def digits(self, key: int) -> list[int]:
        """The digits of ``key`` plus L, least significant slot first."""
        z = key + self.offset
        out = []
        for _ in self.slots:
            z, d = divmod(z, self.base)
            out.append(d)
        return out

    def unpack(self, poly: dict, den: int = 1) -> DiffExpr:
        """``poly / den`` as an expression; every generator digit is
        nonnegative."""
        half, scale = self.half, self.rate_scale
        rev = self.slots[::-1]
        sign = 1 if den > 0 else -1
        terms = {}
        for key, c in poly.items():
            slots = [(s, d - half if s[0] != 2
                      else _num(Fraction(d - half, scale)))
                     for s, d in zip(rev, self.digits(key)) if d != half]
            terms[_encode_key(reversed(slots))] = sign * c
        return _reduced(terms, sign * den)

    def extent(self, poly: dict) -> tuple[list[int], list[int]]:
        """Per-slot lowest and highest digit plus L over the terms of
        ``poly``, least significant slot first."""
        ds = [self.digits(k) for k in poly]
        return [min(d) for d in zip(*ds)], [max(d) for d in zip(*ds)]

    def divisor(self, den: dict):
        """What ``_divide`` needs of a divisor: ``None`` when it is 1, else
        its terms, leading term and coefficient, digit extent and leading
        digits."""
        if den == {0: 1}:
            return None
        lead = max(den)
        lo, hi = self.extent(den)
        return den, lead, den[lead], lo, hi, self.digits(lead)


def _divide(num: dict, div, pk: _Packing) -> tuple[dict, int] | None:
    """The one exact division: ``(quo, s)`` with ``s * num = quo * den``,
    for ``den`` the divisor (``div``, from ``_Packing.divisor``) and ``s``
    the least positive int that makes the quotient's coefficients ints, or
    None when ``den`` does not divide ``num``, which is consumed.

    The next quotient term is the lead of the remainder minus the lead of
    the divisor; each step cancels the lead of the remainder and adds
    smaller terms only.  Laurent polynomials are a domain, in which the
    lowest and the highest value of a slot add under products, so every
    term of an exact quotient lies in the box from the lowest value in
    ``num`` minus the lowest in ``den`` to the highest minus the highest.  A
    quotient term outside it refutes the division.  Inside it, every
    remainder term stays in the slot ranges of ``num``, which the packing
    must hold as it must hold the box; the box is finite and the leads
    strictly decrease, so the division ends without a step cap.  A one-term
    divisor divides term by term."""
    if div is None:
        return num, 1
    den, lead, cb, dlo, dhi, ldig = div
    if len(den) == 1:
        quo = {}
        for k, c in num.items():
            q, r = divmod(c, cb)
            if r:
                s = abs(cb) // gcd(cb, *num.values())
                return {k - lead: c * s // cb for k, c in num.items()}, s
            quo[k - lead] = q
        return quo, 1
    lo, hi = pk.extent(num)
    # the quotient term lr - lead must lie in [lo - dlo, hi - dhi] per
    # slot, i.e. the remainder's lead lr in [lo - dlo + ld, hi - dhi + ld]
    box = [(l - dl + ld, h - dh + ld)
           for l, h, dl, dh, ld in zip(lo, hi, dlo, dhi, ldig)]
    base, offset = pk.base, pk.offset
    quo = {}
    s = 1
    get = num.get
    while num:
        lr = max(num)
        z = lr + offset
        for l, h in box:
            z, d = divmod(z, base)
            if d < l or d > h:
                return None
        qk = lr - lead
        qc, r = divmod(num[lr], cb)
        if r:  # scale by the least f that makes f * num[lr] a multiple
            f = abs(cb) // gcd(r, cb)
            for k in num:
                num[k] *= f
            for k in quo:
                quo[k] *= f
            s *= f
            qc = num[lr] // cb
        quo[qk] = qc
        for k, c in den.items():
            k += qk
            v = get(k)
            if v is None:
                num[k] = -qc * c
            else:
                v -= qc * c
                if v:
                    num[k] = v
                else:
                    del num[k]
    return quo, s


def _slot_ranges(terms: dict) -> tuple[dict, int]:
    """In one pass over the keys: each slot's lowest and highest value (0
    counted when a key lacks the slot), and the lcm of the denominators."""
    ranges: dict = {}
    m = 1
    for key in terms:
        for s, v in _decode_key(key):
            r = ranges.get(s)
            ranges[s] = (v, v, 1) if r is None else (
                min(r[0], v), max(r[1], v), r[2] + 1)
            if type(v) is not int:
                m = lcm(m, v.denominator)
    n = len(terms)
    return {s: (lo, hi) if k == n else (min(lo, 0), max(hi, 0))
            for s, (lo, hi, k) in ranges.items()}, m


def try_divide(a: DiffExpr, b: DiffExpr) -> DiffExpr | None:
    """Exact quotient ``a / b`` in the expression class, or None.

    ``a`` and ``b`` are packed over their slots with the least digit
    half-width that holds the slot ranges of both and the quotient's box,
    and divided by ``_divide``, which decides.  Its quotient is the unique
    Laurent one; constants and exponential factors are invertible but
    generators are not, so a negative generator power in it means that
    ``b`` does not divide ``a`` in the class.  A slot whose quotient box
    ``[lo_a - lo_b, hi_a - hi_b]`` is empty refutes the division before
    anything is packed."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero expression")
    if a.is_zero or b == ONE:
        return a
    (ra, ma), (rb, mb) = _slot_ranges(a._t), _slot_ranges(b._t)
    scale = lcm(ma, mb)
    slots = sorted(ra.keys() | rb.keys())
    half = 0
    for s in slots:
        (lo_a, hi_a), (lo_b, hi_b) = ra.get(s, (0, 0)), rb.get(s, (0, 0))
        if lo_a - lo_b > hi_a - hi_b:
            return None
        top = max(-lo_a, hi_a, -lo_b, hi_b, abs(lo_a - lo_b), abs(hi_a - hi_b))
        half = max(half, int(top * scale) if s[0] == 2 else top)
    pk = _Packing(slots, half, scale)
    got = _divide(pk.pack(a, a._den), pk.divisor(pk.pack(b, b._den)), pk)
    if got is None:
        return None
    # a / b = (quo / s) * (b._den / a._den)
    quo, s = got
    lowest, _ = pk.extent(quo)
    if any(d < pk.half for slot, d in zip(slots[::-1], lowest)
           if slot[0] == 0):
        return None  # a negative generator power
    return pk.unpack({k: c * b._den for k, c in quo.items()}, s * a._den)


# -- printing ---------------------------------------------------------------

def _print_order(key) -> tuple:
    """A key's place in the printed order, read backwards: its top
    generator, its total degree, then its slot tuple."""
    gens, rest = key
    degree, slots = _gen_part(gens)
    return slots[-1][0][1] if slots else -3, degree, slots + rest


def _num_src(q) -> str:
    """An int or Fraction in the grammar.  An integer with more digits than
    Python converts to text (``sys.get_int_max_str_digits()``, 0 for no
    limit) raises ``ExpressionError`` naming both."""
    try:
        return str(q)
    except ValueError:
        n = max(abs(q.numerator), q.denominator)
        digits = int(log10(n)) + 1  # a float: off by one at most
        digits += (10 ** digits <= n) - (10 ** (digits - 1) > n)
        raise ExpressionError(
            f"an integer of {digits} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string "
            "conversion") from None


def _mono_src(name: str, power: int) -> str:
    if power == 1:
        return name
    return f"{name}^{power}"


def _arg_src(slots) -> str:
    parts = []
    for (_, gen, cmono), q in slots:
        factors = [_mono_src(s[1], p) for s, p in cmono] + [_gen_name(gen)]
        mag = abs(q)
        if mag != 1:
            factors.insert(0, _num_src(mag))
        piece = "*".join(factors)
        if not parts:
            parts.append(piece if q > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if q > 0 else f"- {piece}")
    return " ".join(parts)


def to_source(e: DiffExpr) -> str:
    """Render in the CLI grammar; ``parse(to_source(e)) == e``."""
    if e.is_zero:
        return "0"
    chunks = []
    den = e._den
    # the orders are distinct, so no coefficient is compared
    for (_, _, key), c in sorted(((_print_order(k), c)
                                  for k, c in e._t.items()), reverse=True):
        if den != 1:
            c = _num(Fraction(c, den))
        consts = [(s[1], v) for s, v in key if s[0] == 1]
        gens = [(s[1], v) for s, v in key if s[0] == 0]
        atoms = [(s, v) for s, v in key if s[0] == 2]
        factors = [_mono_src(nm, p) for nm, p in consts]
        factors += [_mono_src(_gen_name(g), p)
                    for g, p in sorted(gens, reverse=True)]
        if atoms:
            factors.append(f"exp({_arg_src(atoms)})")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, _num_src(mag))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
