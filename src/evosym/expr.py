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
derivatives) live in ``_kernel_py``, imported here as ``kernel``.
"""

from __future__ import annotations

import sys
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


# Most term pairs (len(a) * len(b)) one product may form, checked before any
# work; the benchmark, corpus and tests form at most 1,738.
MAX_PRODUCT_PAIRS = 100_000


class ExpressionError(ValueError):
    """Raised for operations that leave the expression class."""


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
    their lcm, and each runs the gcd normalisation once.
    ``DiffExpr(mapping)`` takes exact rational coefficients (ints or
    Fractions); ``term_items`` gives them back.

    Filled lazily and then fixed: ``_items`` (canonical order), ``_hash``,
    ``_d`` (``D(self)``, by ``calculus.total_d``) and ``_parts`` (generator
    code -> ``∂self/∂gen``, by ``partial``).  A memo lives exactly as long
    as its expression.  Fills are idempotent, so threads that race store
    equal values and need no lock; shared results are never mutated.
    """

    __slots__ = ("_t", "_den", "_items", "_hash", "_d", "_parts")

    def __init__(self, terms: Mapping) -> None:
        den = 1
        for c in terms.values():
            den = lcm(den, c.denominator)
        # with every coefficient in lowest terms, gcd(den, numerators) == 1
        object.__setattr__(self, "_t", {
            k: c.numerator * (den // c.denominator)
            for k, c in terms.items() if c})
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_d", None)
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, *a):
        raise AttributeError("DiffExpr is immutable")

    # -- canonical views ---------------------------------------------------

    def _num_items(self) -> tuple:
        """Terms as a tuple of ``(key, numerator)`` in the canonical order;
        each coefficient is the numerator over ``_den``."""
        items = self._items
        if items is None:
            items = tuple(sorted(self._t.items(),
                                 key=lambda kv: (_grade(kv[0]), kv[0])))
            _set_items(self, items)
        return items

    def term_items(self) -> tuple:
        """Terms as a tuple of ``(key, coefficient)`` in the canonical order;
        coefficients are exact rationals, ints when integral."""
        items = self._num_items()
        den = self._den
        if den == 1:
            return items
        return tuple((k, _num(Fraction(c, den))) for k, c in items)

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def is_rational(self) -> bool:
        """True for a rational number, zero included: no term has a
        constant, generator or exponential factor."""
        return all(not key for key in self._t)

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
        h = self._hash
        if h is None:
            t = self._t
            if not t:
                h = hash(0)
            elif len(t) == 1 and () in t:
                # rational constants hash like numbers
                c, den = t[()], self._den
                h = hash(c if den == 1 else Fraction(c, den))
            else:
                h = hash((self._den, self._num_items()))
            _set_hash(self, h)
        return h

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

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
        # a one-term rational factor scales the numerators: no key merges
        if len(b) == 1 and () in b:
            return _reduced({k: c * b[()] for k, c in a.items()},
                            self._den * other._den)
        if len(a) == 1 and () in a:
            return _reduced({k: c * a[()] for k, c in b.items()},
                            self._den * other._den)
        _check_budget(a, b)
        return _reduced(kernel.mul_terms(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other._t:
            raise ZeroDivisionError("division by zero scalar")
        if len(other._t) != 1 or any(slot[0] != 1
                                     for slot, _ in next(iter(other._t))):
            raise ExpressionError("division is only defined by scalars")
        return self * _invert_term(other)

    def __pow__(self, n: int) -> "DiffExpr":
        if not isinstance(n, int):
            raise ExpressionError("non-integer exponent")
        if n == 0:
            return ONE
        if n < 0:
            inv = _invert_term(self)
            if inv is None:
                raise ExpressionError(
                    "negative power of a non-invertible expression")
            return inv ** (-n)
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


# slot setters for _reduced: cheaper than object.__setattr__
_new = object.__new__
_set_terms = DiffExpr._t.__set__
_set_den = DiffExpr._den.__set__
_set_items = DiffExpr._items.__set__
_set_hash = DiffExpr._hash.__set__
_set_d = DiffExpr._d.__set__
_set_parts = DiffExpr._parts.__set__


def _reduced(terms: dict, den: int) -> DiffExpr:
    """The expression with integer numerators ``terms`` over ``den > 0``,
    in canonical form: both are divided by their gcd, which is skipped for
    ``den == 1`` and stops at the first partial gcd of 1.  ``terms`` is a
    freshly built dict, not copied; the caller keeps no reference to it."""
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
    _set_items(e, None)
    _set_hash(e, None)
    _set_d(e, None)
    _set_parts(e, None)
    return e


def _check_budget(a: dict, b: dict) -> None:
    if len(a) * len(b) > MAX_PRODUCT_PAIRS:
        raise ExpressionError(
            f"product of {len(a)} by {len(b)} terms exceeds the budget "
            f"of {MAX_PRODUCT_PAIRS} term pairs")


def sum_of_products(triples: Iterable[tuple[int, DiffExpr, DiffExpr]]
                    ) -> DiffExpr:
    """``sum f * a * b`` over ``(int f, DiffExpr a, DiffExpr b)`` triples,
    accumulated in one term dict (FLINT's ``addmul``).

    Every product is checked against ``MAX_PRODUCT_PAIRS`` and the lcm of
    the product denominators is taken before any work; each product then
    goes straight into the sum (``kernel.addmul_into``), and the sum is
    put in canonical form once.  Zero factors and operands add nothing.
    """
    products = [(f, a, b) for f, a, b in triples if f and a._t and b._t]
    den = 1
    for _, a, b in products:
        _check_budget(a._t, b._t)
        d = a._den * b._den
        if den % d:
            den = lcm(den, d)
    acc: dict = {}
    for f, a, b in products:
        kernel.addmul_into(acc, a._t, b._t, f * (den // (a._den * b._den)))
    return _reduced(acc, den)


def _sum(exprs: Iterable[DiffExpr]) -> DiffExpr:
    """The sum of expressions, added in one term dict over the lcm of the
    denominators met so far."""
    acc: dict = {}
    den = 1
    for e in exprs:
        d = e._den
        if den % d:
            den *= kernel.rescale(acc, den, d)
        kernel.add_into(acc, e._t, den // d)
    return _reduced(acc, den)


def _combine(a: DiffExpr, b: DiffExpr, sign: int) -> DiffExpr:
    """``a + sign * b`` over the lcm of the denominators."""
    da, db = a._den, b._den
    if da == db:
        acc = dict(a._t)
        kernel.add_into(acc, b._t, sign)
        return _reduced(acc, da)
    den = lcm(da, db)
    sa = den // da
    acc = {k: c * sa for k, c in a._t.items()} if sa != 1 else dict(a._t)
    kernel.add_into(acc, b._t, sign * (den // db))
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
        return _reduced({(): v.numerator}, v.denominator) if v else ZERO
    return None


def _expression(v) -> DiffExpr:
    """``v`` as an expression (ints and Fractions are coerced)."""
    e = _coerce(v)
    if e is None:
        raise ExpressionError(f"not an expression: {v!r}")
    return e


def _invert_term(e: DiffExpr) -> DiffExpr | None:
    # invertible <=> a single term free of generator powers
    if len(e._t) != 1:
        return None
    (key, c), = e._t.items()
    if any(slot[0] == 0 for slot, _ in key):
        return None
    # (c / den)^-1 = den / c
    den = e._den if c > 0 else -e._den
    return _reduced({tuple((s, -v) for s, v in key): den}, abs(c))


def _grade(key) -> int:
    return sum(v for s, v in key if s[0] == 0)


# -- constructors ----------------------------------------------------------

ZERO = DiffExpr({})
ONE = DiffExpr({(): 1})


def gen_expr(gen: int) -> DiffExpr:
    return DiffExpr({(((0, gen), 1),): 1})


x = gen_expr(GEN_X)
t = gen_expr(GEN_T)


def u(i: int = 0) -> DiffExpr:
    if i < 0:
        raise ExpressionError("u index must be >= 0")
    return gen_expr(i)


def const(name: str) -> DiffExpr:
    """A named symbolic constant (opaque, invertible, never a number)."""
    return DiffExpr({(((1, name), 1),): 1})


def rational(p: Union[int, Fraction], q: int = 1) -> DiffExpr:
    if q == 1 and isinstance(p, (int, Fraction)):
        return _coerce(p)
    return _coerce(Fraction(p, q))


def exp_of(arg) -> DiffExpr:
    """``exp(arg)`` for ``arg`` a scalar-linear combination of x, t, u.

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
    return DiffExpr({tuple(sorted(slots)): 1})


# -- calculus-free structural operations -----------------------------------

def _gencode(v) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if v == "x":
            return GEN_X
        if v == "t":
            return GEN_T
        if v == "u":
            return 0
        if v.startswith("u") and v[1:].lstrip("_").isdigit():
            return int(v[1:].lstrip("_"))
        raise ExpressionError(f"unknown generator {v!r}")
    if isinstance(v, DiffExpr) and len(v._t) == 1:
        (key, c), = v._t.items()
        if (c == 1 and v._den == 1 and len(key) == 1 and key[0][0][0] == 0
                and key[0][1] == 1):
            return key[0][0][1]
    raise ExpressionError(f"not a generator: {v!r}")


def partial(e: DiffExpr, v) -> DiffExpr:
    """Formal partial derivative; all generators are independent."""
    gen = _gencode(v)
    parts = e._parts
    if parts is None:
        parts = {}
        _set_parts(e, parts)
    got = parts.get(gen)
    if got is None:
        terms, m = kernel.diff_terms(e._t, gen)
        got = parts[gen] = _reduced(terms, e._den * m)
    return got


def substitute(e: DiffExpr, bindings: Mapping) -> DiffExpr:
    """Simultaneous substitution ``generator -> expression``, in normal form.

    Substitutions must keep every exponential argument linear in x, t, u;
    otherwise the result leaves the expression class and this raises.
    """
    binds = {_gencode(g): _expression(v) for g, v in bindings.items()}

    def image(gen: int) -> DiffExpr:
        got = binds.get(gen)
        return gen_expr(gen) if got is None else got

    def term_image(key, c: int) -> DiffExpr:
        factor = rational(c, e._den)
        arg = ZERO
        for slot, v in key:
            if slot[0] == 0:
                factor = factor * image(slot[1]) ** v
            elif slot[0] == 1:
                factor = factor * DiffExpr({((slot, v),): 1})
            else:
                arg = arg + DiffExpr({slot[2]: v}) * image(slot[1])
        if arg:
            factor = factor * exp_of(arg)
        return factor

    return _sum(term_image(key, c) for key, c in e._t.items())


def u_indices(e: DiffExpr) -> set[int]:
    out: set[int] = set()
    for key in e._t:
        for slot, _ in key:
            if slot[0] == 0 and slot[1] >= 0:
                out.add(slot[1])
            elif slot[0] == 2 and slot[1] == 0:
                out.add(0)
    return out


def u_order(e: DiffExpr) -> int | None:
    """Largest ``k`` with a ``u_k`` dependence; 0 for expressions in x, t
    only; ``None`` for the zero expression."""
    if e.is_zero:
        return None
    idx = u_indices(e)
    return max(idx) if idx else 0


def occurs(e: DiffExpr, v) -> bool:
    gen = _gencode(v)
    for key in e._t:
        for slot, _ in key:
            if slot[0] == 0 and slot[1] == gen:
                return True
            if slot[0] == 2 and slot[1] == gen:
                return True
    return False


def has_exp_in(e: DiffExpr, v) -> bool:
    gen = _gencode(v)
    return any(slot[0] == 2 and slot[1] == gen
               for key in e._t for slot, _ in key)


def is_constant(e: DiffExpr) -> bool:
    """True when no generator occurs at all (rationals and named constants)."""
    return all(slot[0] == 1 for key in e._t for slot, _ in key)


def is_t_only(e: DiffExpr) -> bool:
    """True when the expression is free of x and every u_i."""
    for key in e._t:
        for slot, _ in key:
            if slot[0] == 1:
                continue
            if slot[1] != GEN_T:
                return False
    return True


def term_u_order(key) -> int | None:
    order = None
    for slot, _ in key:
        if slot[0] == 0 and slot[1] >= 0:
            order = slot[1] if order is None else max(order, slot[1])
        elif slot[0] == 2 and slot[1] == 0:
            order = 0 if order is None else order
    return order


def split_u_order(e: DiffExpr, cut: int) -> tuple[DiffExpr, DiffExpr]:
    """Split into (terms of u-order >= cut, the rest)."""
    hi: dict = {}
    lo: dict = {}
    for key, c in e._t.items():
        o = term_u_order(key)
        (hi if o is not None and o >= cut else lo)[key] = c
    return _reduced(hi, e._den), _reduced(lo, e._den)


def poly_degree(e: DiffExpr, v) -> int:
    """Monomial degree in a generator (exponential factors not counted)."""
    gen = _gencode(v)
    deg = 0
    for key in e._t:
        for slot, p in key:
            if slot[0] == 0 and slot[1] == gen:
                deg = max(deg, p)
    return deg


def split_by_power(e: DiffExpr, v) -> dict[int, DiffExpr]:
    """Coefficients of the powers of a generator (that generator removed)."""
    gen = _gencode(v)
    out: dict[int, dict] = {}
    for key, c in e._t.items():
        p = 0
        rest = []
        for slot, val in key:
            if slot[0] == 0 and slot[1] == gen:
                p = val
            else:
                rest.append((slot, val))
        out.setdefault(p, {})[tuple(rest)] = c
    return {p: _reduced(d, e._den) for p, d in out.items()}


def as_scalar(e: DiffExpr) -> DiffExpr | None:
    """``e`` itself when it is zero or one term of a rational times named
    constants (a constant is a ``DiffExpr``), else None."""
    if len(e._t) > 1 or any(slot[0] != 1 for key in e._t for slot, _ in key):
        return None
    return e


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
    for key, c in e._t.items():
        g = gcd(g, c)
        powers.append({slot[1]: v for slot, v in key if slot[0] == 1})
    low = {nm: min(p.get(nm, 0) for p in powers)
           for nm in set().union(*powers)}
    unit = tuple(((1, nm), -v) for nm, v in sorted(low.items()) if v)
    out = _reduced({kernel.mul_key(key, unit): c // g
                  for key, c in e._t.items()}, 1)
    return -out if out.term_items()[-1][1] < 0 else out


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
    vectors, a group order: the lead of a product is the sum of the leads."""

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
        w = self.weights
        s = den // e._den
        return {int(sum(v * w[slot] for slot, v in key)): c * s
                for key, c in e._t.items()}

    def digits(self, key: int) -> list[int]:
        """The digits of ``key`` plus L, least significant slot first."""
        z = key + self.offset
        out = []
        for _ in self.slots:
            z, d = divmod(z, self.base)
            out.append(d)
        return out

    def unpack(self, poly: dict, den: int = 1) -> DiffExpr:
        """``poly / den`` as an expression."""
        half, scale = self.half, self.rate_scale
        rev = self.slots[::-1]
        sign = 1 if den > 0 else -1
        terms = {}
        for key, c in poly.items():
            slots = [(s, d - half if s[0] != 2
                      else _num(Fraction(d - half, scale)))
                     for s, d in zip(rev, self.digits(key)) if d != half]
            terms[tuple(reversed(slots))] = sign * c
        return _reduced(terms, sign * den)

    def extent(self, poly: dict) -> tuple[list[int], list[int]]:
        """Per-slot lowest and highest digit over the terms of ``poly``,
        least significant slot first."""
        zs = [k + self.offset for k in poly]
        base = self.base
        lo, hi = [], []
        w = 1
        for _ in self.slots:
            ds = [z // w % base for z in zs]
            lo.append(min(ds))
            hi.append(max(ds))
            w *= base
        return lo, hi

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
        for s, v in key:
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
    if a.is_zero:
        return ZERO
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
    q = pk.unpack({k: c * b._den for k, c in quo.items()}, s * a._den)
    if any(slot[0] == 0 and v < 0 for key in q._t for slot, v in key):
        return None
    return q


def try_nth_root(e: DiffExpr, m: int) -> DiffExpr | None:
    """Exact m-th root of a single-term expression, when one exists."""
    if m <= 0:
        raise ExpressionError("root index must be positive")
    if m == 1:
        return e
    if len(e._t) != 1:
        return None
    (key, c), = e._t.items()
    if c < 0:
        return None
    num, den = _iroot(c, m), _iroot(e._den, m)
    if num is None or den is None:
        return None
    slots = []
    for slot, v in key:
        if slot[0] == 2:  # an exponential rate: any rational divides
            slots.append((slot, _num(Fraction(v, m))))
        else:
            if v % m:
                return None
            slots.append((slot, v // m))
    return _reduced({tuple(slots): num}, den)


def _iroot(n: int, m: int) -> int | None:
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + m - 1) // m)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** m
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


# -- printing ---------------------------------------------------------------

def _print_sort_key(item):
    key, _ = item
    top = max((s[1] for s, _ in key if s[0] == 0), default=-3)
    return (top, _grade(key), key)


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
    for key, c in sorted(e.term_items(), key=_print_sort_key, reverse=True):
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
