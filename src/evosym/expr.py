"""Exact differential expressions in ``x``, ``t``, ``u = u_0, u_1, ...``.

Values are canonical sums of terms; each term is a rational coefficient times
a monomial in named constants and generators times at most one exponential
factor ``exp(linear combination of x, t, u)``.  The normal form is unique, so
semantic equality is structural equality and zero-testing is "is the term map
empty".  All arithmetic is exact; there is no floating point anywhere.

Generators are encoded as ints: ``u_i -> i``, ``x -> -1``, ``t -> -2``.  The
term-map layout and the loops over it (products, sums, partial and total
derivatives) live in ``_kernel_py``, imported here as ``kernel``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from . import _kernel_py as kernel

GEN_X = -1
GEN_T = -2

# Not a limit: try_divide decides every division without one.  The
# benchmark's tracer (perfbench/tracer.py) reads this name as the step count
# at which it reports a None result as a give-up, so it stays until that
# counter goes.
_DIV_STEP_CAP = 10_000


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


class Scalar:
    """Exact scalar: a rational times a monomial in named constants.

    Constants are opaque and invertible; two scalars are equal exactly when
    their reduced rational parts and sorted constant powers coincide.
    """

    __slots__ = ("q", "consts")

    def __init__(self, q: Union[int, Fraction] = 1,
                 consts: Iterable[tuple[str, int]] = ()) -> None:
        q = Fraction(q)
        consts = tuple(sorted((n, int(e)) for n, e in consts if e))
        if not q:
            consts = ()
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "consts", consts)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Scalar is immutable")

    def __bool__(self) -> bool:
        return bool(self.q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.q == other.q and self.consts == other.consts

    def __hash__(self):
        if not self.consts:
            return hash(self.q)
        return hash((self.q, self.consts))

    def __neg__(self) -> "Scalar":
        return Scalar(-self.q, self.consts)

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        merged: dict[str, int] = dict(self.consts)
        for n, e in other.consts:
            merged[n] = merged.get(n, 0) + e
        return Scalar(self.q * other.q, merged.items())

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        return self * other ** -1

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise ExpressionError("scalar powers must be integers")
        if n < 0 and not self.q:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.q ** n, ((nm, e * n) for nm, e in self.consts))

    @property
    def is_one(self) -> bool:
        return self.q == 1 and not self.consts

    @property
    def is_rational(self) -> bool:
        return not self.consts

    def to_expr(self) -> "DiffExpr":
        key = tuple(((1, nm), e) for nm, e in self.consts)
        return DiffExpr({key: _num(self.q)}) if self.q else ZERO

    def __str__(self) -> str:
        return to_source(self.to_expr())

    def __repr__(self) -> str:
        return f"Scalar({self})"


class DiffExpr:
    """Canonical-form differential expression (immutable)."""

    __slots__ = ("_t", "_items", "_hash")

    def __init__(self, terms: Mapping) -> None:
        object.__setattr__(self, "_t", dict(terms))
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _adopt(cls, terms: dict) -> "DiffExpr":
        """Wrap a freshly built term dict without copying it; the caller
        hands it over and keeps no reference."""
        e = _new(cls)
        _set_terms(e, terms)
        _set_items(e, None)
        _set_hash(e, None)
        return e

    def __setattr__(self, *a):
        raise AttributeError("DiffExpr is immutable")

    # -- canonical views ---------------------------------------------------

    def term_items(self) -> tuple:
        """Terms as a tuple of ``(key, coefficient)`` in the canonical order."""
        items = self._items
        if items is None:
            items = tuple(sorted(self._t.items(), key=lambda kv: (_grade(kv[0]), kv[0])))
            object.__setattr__(self, "_items", items)
        return items

    @property
    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        h = self._hash
        if h is None:
            if not self._t:
                h = hash(Fraction(0))
            elif len(self._t) == 1 and () in self._t:
                h = hash(self._t[()])  # rational constants hash like numbers
            else:
                h = hash(self.term_items())
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._t)
        kernel.add_into(acc, other._t, 1)
        return DiffExpr._adopt(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._t)
        kernel.add_into(acc, other._t, -1)
        return DiffExpr._adopt(acc)

    def __rsub__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "DiffExpr":
        return DiffExpr._adopt({k: -c for k, c in self._t.items()})

    def __mul__(self, other) -> "DiffExpr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DiffExpr._adopt(kernel.mul_terms(self._t, other._t))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DiffExpr":
        if isinstance(other, DiffExpr):
            other = as_scalar(other)
            if other is None:
                raise ExpressionError("division is only defined by scalars")
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if isinstance(other, Scalar):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return self * (other ** -1).to_expr()
        return NotImplemented

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


# slot setters for DiffExpr._adopt: cheaper than object.__setattr__
_new = object.__new__
_set_terms = DiffExpr._t.__set__
_set_items = DiffExpr._items.__set__
_set_hash = DiffExpr._hash.__set__


def _num(v: Union[int, Fraction]):
    """Coefficients are ints whenever they are integral (much faster than
    Fraction); the two interoperate, compare and hash identically."""
    if isinstance(v, int):
        return v
    return v.numerator if v.denominator == 1 else v


def _coerce(v) -> DiffExpr | None:
    if isinstance(v, DiffExpr):
        return v
    if isinstance(v, (int, Fraction)):
        v = _num(v)
        return DiffExpr({(): v}) if v else ZERO
    if isinstance(v, Scalar):
        return v.to_expr()
    return None


def _invert_term(e: DiffExpr) -> DiffExpr | None:
    # invertible <=> a single term free of generator powers
    if len(e._t) != 1:
        return None
    (key, c), = e._t.items()
    if any(slot[0] == 0 for slot, _ in key):
        return None
    return DiffExpr({tuple((s, -v) for s, v in key): _num(Fraction(1) / c)})


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
    v = _num(Fraction(p, q))
    return DiffExpr({(): v}) if v else ZERO


def exp_of(arg) -> DiffExpr:
    """``exp(arg)`` for ``arg`` a scalar-linear combination of x, t, u.

    ``exp(0)`` normalizes to 1; products of exponentials merge by adding
    arguments (that falls out of the slot encoding).
    """
    arg = normalize(arg)
    slots = []
    for key, c in arg._t.items():
        gen = None
        cmono = []
        for slot, v in key:
            if slot[0] == 0:
                if gen is not None or v != 1 or slot[1] not in (GEN_X, GEN_T, 0):
                    raise ExpressionError(
                        "exponential argument must be linear in x, t, u")
                gen = slot[1]
            elif slot[0] == 1:
                cmono.append((slot[1], v))
            else:
                raise ExpressionError("nested exponentials are not allowed")
        if gen is None:
            raise ExpressionError(
                "exponential argument must be a combination of x, t, u "
                "with no constant term")
        slots.append(((2, gen, tuple(sorted(cmono))), c))
    return DiffExpr({tuple(sorted(slots)): 1})


# -- the raw-tree normalizer ----------------------------------------------

def normalize(tree) -> DiffExpr:
    """Evaluate a raw expression tree to its unique canonical form.

    Accepts ``DiffExpr`` (returned as-is: normalization is idempotent),
    numbers, ``Scalar``, or nested tuples ``("add"|"sub"|"mul"|"div"|"neg"|
    "pow"|"exp"|"gen"|"const"|"num", ...)`` as produced by the parser.
    """
    e = _coerce(tree)
    if e is not None:
        return e
    if not isinstance(tree, tuple) or not tree:
        raise ExpressionError(f"cannot normalize {tree!r}")
    op = tree[0]
    if op == "num":
        return rational(tree[1])
    if op == "gen":
        return gen_expr(tree[1])
    if op == "const":
        return const(tree[1])
    if op == "add":
        acc: dict = {}
        for sub in tree[1:]:
            kernel.add_into(acc, normalize(sub)._t, 1)
        return DiffExpr(acc)
    if op == "sub":
        return normalize(tree[1]) - normalize(tree[2])
    if op == "neg":
        return -normalize(tree[1])
    if op == "mul":
        out = normalize(tree[1])
        for sub in tree[2:]:
            out = out * normalize(sub)
        return out
    if op == "div":
        return normalize(tree[1]) / normalize(tree[2])
    if op == "pow":
        n = tree[2]
        if not isinstance(n, int):
            raise ExpressionError("non-integer exponent")
        return normalize(tree[1]) ** n
    if op == "exp":
        return exp_of(normalize(tree[1]))
    raise ExpressionError(f"unknown node {op!r}")


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
        if c == 1 and len(key) == 1 and key[0][0][0] == 0 and key[0][1] == 1:
            return key[0][0][1]
    raise ExpressionError(f"not a generator: {v!r}")


def partial(e: DiffExpr, v) -> DiffExpr:
    """Formal partial derivative; all generators are independent."""
    return DiffExpr._adopt(kernel.diff_terms(e._t, _gencode(v)))


def substitute(e: DiffExpr, bindings: Mapping) -> DiffExpr:
    """Simultaneous substitution ``generator -> expression``, then normalize.

    Substitutions must keep every exponential argument linear in x, t, u;
    otherwise the result leaves the expression class and this raises.
    """
    binds = {_gencode(g): normalize(v) for g, v in bindings.items()}

    def image(gen: int) -> DiffExpr:
        got = binds.get(gen)
        return gen_expr(gen) if got is None else got

    total = ZERO
    for key, c in e._t.items():
        factor = DiffExpr({(): c})
        arg = ZERO
        for slot, v in key:
            if slot[0] == 0:
                factor = factor * image(slot[1]) ** v
            elif slot[0] == 1:
                factor = factor * DiffExpr({((slot, v),): 1})
            else:
                cm = DiffExpr({tuple(((1, nm), p) for nm, p in slot[2]): v})
                arg = arg + cm * image(slot[1])
        if arg:
            factor = factor * exp_of(arg)
        total = total + factor
    return total


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
    return DiffExpr(hi), DiffExpr(lo)


def u_free_part(e: DiffExpr) -> tuple[DiffExpr, DiffExpr]:
    """Split into (terms with some u-dependence, terms free of u)."""
    dep: dict = {}
    free: dict = {}
    for key, c in e._t.items():
        (free if term_u_order(key) is None else dep)[key] = c
    return DiffExpr(dep), DiffExpr(free)


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
    return {p: DiffExpr(d) for p, d in out.items()}


def as_scalar(e: DiffExpr) -> Scalar | None:
    """The expression as a Scalar, or None when it is not one."""
    if e.is_zero:
        return Scalar(0)
    if len(e._t) != 1:
        return None
    (key, c), = e._t.items()
    if any(slot[0] != 1 for slot, _ in key):
        return None
    return Scalar(c, ((slot[1], v) for slot, v in key))


def as_rational(e: DiffExpr) -> int | Fraction | None:
    """The expression as a number (an int when integral), or None when it
    is not a rational constant."""
    if not e._t:
        return 0
    if len(e._t) > 1:
        return None
    return e._t.get(())


def primitive_part(e: DiffExpr) -> DiffExpr:
    """``e`` divided by its content, with the canonical leading term
    positive.  The content is the largest rational times named-constant
    monomial dividing every term, a unit since constants are invertible:
    afterwards the coefficients are integers with gcd 1 and every constant
    has lowest power 0 over the terms.  Zero stays zero."""
    if not e._t:
        return e
    num, den = 0, 1
    powers = []
    for key, c in e._t.items():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
        powers.append({slot[1]: v for slot, v in key if slot[0] == 1})
    low = {nm: min(p.get(nm, 0) for p in powers)
           for nm in set().union(*powers)}
    unit = tuple(((1, nm), -v) for nm, v in sorted(low.items()) if v)
    scale = Fraction(den, num)
    out = DiffExpr._adopt({kernel.mul_key(key, unit): _num(c * scale)
                           for key, c in e._t.items()})
    return -out if out.term_items()[-1][1] < 0 else out


# -- exact division and roots ----------------------------------------------

def try_divide(a: DiffExpr, b: DiffExpr) -> DiffExpr | None:
    """Exact quotient ``a / b`` in the expression class, or None.

    Sparse division steered by a graded monomial order: terms compare by
    total degree in x, t and the u_i, then lexicographically by exponent
    vectors over the slots of ``a`` and ``b`` (no step adds a slot).  The
    order is compatible with products, so each step cancels the lead of the
    remainder and adds smaller terms only.  Generator exponents in the
    quotient must stay non-negative (constants and exponential factors are
    invertible, generators are not).

    The division decides.  The terms form a domain (Laurent polynomials in
    the slot values) in which the highest and the lowest value of a slot add
    under products, so every term of an exact quotient has each slot
    between the lowest value in ``a`` minus the lowest in ``b`` and the
    highest in ``a`` minus the highest in ``b``.  A quotient term outside
    that box proves that ``b`` does not divide ``a``.  Inside it, every
    remainder term keeps within the slot ranges of ``a`` and on the lattice
    the slot values of ``a`` and ``b`` generate; the box holds finitely many
    such points and the leads strictly decrease, so the division ends.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero expression")
    if a.is_zero:
        return ZERO
    pos: dict = {}
    orders: dict = {}

    def order(key):
        o = orders.get(key)
        if o is None:
            vec = [0] * len(pos)
            for s, v in key:
                vec[pos[s]] = v
            o = orders[key] = (_grade(key), vec)
        return o

    def lead(terms):
        if len(terms) == 1:
            return next(iter(terms))
        if not pos:  # most divisions are of one term by one term
            slots = sorted({s for key in (*a._t, *b._t) for s, _ in key})
            pos.update((s, i) for i, s in enumerate(slots))
        return max(terms, key=order)

    lead_b = lead(b._t)
    cb = b._t[lead_b]
    neg_lead_b = tuple((s, -v) for s, v in lead_b)
    box = None
    if len(b._t) > 1:  # a one-term divisor divides term by term
        cols_a = list(zip(*(order(key)[1] for key in a._t)))
        cols_b = list(zip(*(order(key)[1] for key in b._t)))
        # the quotient term is lead_r - lead_b, so lead_r must lie in
        # [lo_a - lo_b, hi_a - hi_b] + lead_b
        box = [(min(ka) - min(kb) + v, max(ka) - max(kb) + v)
               for ka, kb, v in zip(cols_a, cols_b, order(lead_b)[1])]
    rem = dict(a._t)
    quo: dict = {}
    while rem:
        lead_r = lead(rem)
        if box is not None and any(
                not lo <= v <= hi
                for v, (lo, hi) in zip(order(lead_r)[1], box)):
            return None
        qk = kernel.mul_key(lead_r, neg_lead_b)
        if any(slot[0] == 0 and v < 0 for slot, v in qk):
            return None
        qc = _num(Fraction(rem[lead_r]) / cb)
        quo[qk] = qc
        kernel.add_into(rem, kernel.mul_single(b._t, qk, qc), -1)
    return DiffExpr._adopt(quo)


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
    num, den = _iroot(c.numerator, m), _iroot(c.denominator, m)
    if num is None or den is None:
        return None
    slots = []
    for slot, v in key:
        if slot[0] == 2:
            slots.append((slot, v / m))
        else:
            if v % m:
                return None
            slots.append((slot, v // m))
    return DiffExpr({tuple(slots): _num(Fraction(num, den))})


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


def _mono_src(name: str, power: int) -> str:
    if power == 1:
        return name
    return f"{name}^{power}"


def _arg_src(slots) -> str:
    parts = []
    for (_, gen, cmono), q in slots:
        factors = [_mono_src(nm, p) for nm, p in cmono] + [_gen_name(gen)]
        mag = abs(q)
        if mag != 1:
            factors.insert(0, str(mag))
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
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
