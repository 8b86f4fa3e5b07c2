"""Exact sparse row reduction over rationals extended by named constants.

Matrix entries are constant expressions (elements of the ring of Laurent
polynomials in the named constants over Q); any other entry, and a ragged
matrix, is rejected up front with ``ValueError``.  Rows are stored as dicts
from column to nonzero value, and one elimination (``_reduce``) serves
``nullspace``, ``rank`` and ``in_span``: it splits the matrix into its
connected components (below) and runs one Gauss-Jordan pivot loop
(``_sweep``) on each.  Within a component, columns are swept left to right;
the pivot row is the first remaining row with a nonzero entry, or the first
with a rational one when there is one.  The coefficient domain is chosen
from the entries of the whole matrix:

* all entries rational: each entry becomes an ``int``/``Fraction`` once,
  every pivot row is normalized to pivot 1 and eliminated from the other
  rows that have the pivot column.  The result is the reduced row echelon
  form.
* some entry involves named constants: each entry becomes a packed
  polynomial once (below), and the elimination is fraction-free
  Gauss-Jordan (Bareiss): every sweep updates the component's rows to
  ``(p * row - row[c] * pivot_row) / prev``, with ``p`` the pivot and
  ``prev`` the previous pivot of the component (1 before its first), so
  entries stay in the ring and all divisions are exact.  Only cells where
  the row or the pivot row is nonzero are computed.  After the last sweep
  every pivot entry of a component equals its final pivot d.

A free column f yields the nullspace vector with value d (1 for rationals)
at f and ``-M[i][f]`` at the i-th pivot column of its component; vectors
come in the order of their free columns.  Every vector is checked against
every input row, ``A v = 0``: in numbers for rational matrices, in
``DiffExpr`` arithmetic otherwise, independently of the packing.

A pivot that involves named constants is only generically nonzero; those
pivots are collected so callers can flag the assumed-nonvanishing locus.
They are reported in short form (``normalize_assumptions``): each divided
by its rational and constant-monomial content, both units, with its sign
fixed (``expr.primitive_part``); without the 1s this leaves of a monomial,
which is nonzero with the constants; and without repeats.  A pivot is a
unit times its short form, so the locus is the same.

Components.  A row and a column are adjacent when their cell is nonzero;
``_components`` finds the connected components of this graph by
union-find on the columns.  A column without a nonzero cell is a component
with no rows, whose nullspace vector is the unit vector; a row without one
has nothing to sweep.  No pivot row of one component has a cell in another,
so sweeping the components one by one is the whole-matrix elimination with
the blocks kept apart, each from its own ``prev = 1``.

The verdicts are those of the whole matrix.  A column depends on the
earlier ones exactly when it does within its component, whose rows no
other column touches, so the pivot columns are each component's first
independent columns, the rank is the sum of the components' ranks and the
kernel over the field of fractions is the direct sum of theirs.  In the
rational domain the reduced row echelon form is unique, so the results are
those of one sweep over the whole matrix.  With constants, one sweep over
the whole matrix would chain every pivot through a single ``prev``: its
k-th pivot is the leading k x k minor of the rows and columns chosen so
far, which for disjoint components is the product of each component's
leading minor of its chosen rows and columns, that is, of one
per-component pivot each (1 in a component not yet reached).  Where both
choose the same rows, every chained pivot is therefore a product of
per-component pivots and every per-component pivot divides a chained one:
the two lists cut out the same generic locus, and a chained basis vector is
the one here times the final pivots of the other components.  The chained
sweep also scales each component's rows by the other components' minors,
which can hide a rational entry from the rational-pivot preference; there
the lists are two certificates of the same verdicts.  Wherever every
listed pivot is nonzero, each step specializes (its divisions are exact and
its divisor nonzero), so the rank there is the generic rank and the basis
specializes to a basis of the kernel.

Packed polynomials.  With the constant names sorted, ``n`` of them, a
monomial ``prod name_i^e_i`` is the integer ``sum e_i * B^(n-1-i)`` (one
signed "balanced" digit per name, the first name most significant), and a
polynomial is a dict from that integer to its rational coefficient.  When
every digit lies in ``[-L, L]`` and ``B = 2L + 1`` the packing is one-to-one,
a product of monomials is one integer addition, and integer order is the
lexicographic order of exponent vectors, which is a group order: it is
compatible with multiplication, so the leading monomial of a product is the
sum of the leading monomials.

The exponent bound.  Let E be the largest ``|e_i|`` in any input entry and
R the number of rows or of columns that is smaller (a bound on the rank).
After k sweeps of a component every entry of its pivot rows is a k x k
minor of the component, hence of the input (Cramer's rule), and every entry
of its other rows a (k+1) x (k+1) minor (Sylvester's identity; this is why
the divisions are exact); k is at most the component's rank, so at most R.
A minor of order j is a sum of products of j entries, so its exponents lie
in ``[-jE, jE]``.  Sweep k multiplies entries that are minors of order at
most k, so every product and numerator has exponents in ``[-2kE, 2kE]``;
quotients are the next entries, and the division below forms no monomial
outside the range of its numerator.  ``nullspace`` and ``rank`` therefore
take ``L = 2RE``.  ``in_span`` reduces its vectors the same way, then
reduces the target, which spans components, against the final rows of
every component without dividing: ``target = d * target - target[c] *
row``, with d that component's final pivot and the row's entries minors of
order at most R, adds at most ``RE`` to the exponents per pivot.  The
components have at most R pivots together, so the exponents end in
``[-(R^2 + 1)E, (R^2 + 1)E]``, and ``in_span`` takes ``L = (R^2 + 1)E``
(never below ``2RE``).

Exact division.  ``_divide`` is the division algorithm for that order: the
next quotient monomial is the lead of the remainder minus the lead of the
divisor.  The lead of the remainder strictly decreases at each step, since
the step cancels it and adds only smaller monomials.  If the quotient q is
exact, the per-name degree range of q is that of the numerator minus that of
the divisor (the top and bottom degrees of a product add, Laurent
polynomials being a domain), and every quotient monomial lies in that box.
A quotient monomial outside it therefore proves that the division is not
exact, and the division raises there.  Inside the box, the remainder's
monomials stay in the numerator's range; the box is finite and the leads
strictly decrease, so the division ends after at most as many steps as the
box has points, without any step cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .expr import DiffExpr


@dataclass(frozen=True)
class NullspaceResult:
    basis: tuple[tuple[DiffExpr, ...], ...]
    rank: int
    pivot_assumptions: tuple[DiffExpr, ...]  # symbolic pivots assumed nonzero


class _Packing:
    """The monomial packing of one matrix (see the module docstring):
    sorted names, half-width ``L`` of a digit and base ``B = 2L + 1``."""

    __slots__ = ("names", "half", "base", "offset", "weights")

    def __init__(self, names: list[str], half: int) -> None:
        self.names = names
        self.half = half
        self.base = 2 * half + 1
        n = len(names)
        self.weights = {nm: self.base ** (n - 1 - i)
                        for i, nm in enumerate(names)}
        # adding the offset turns every balanced digit e into e + L >= 0
        self.offset = sum(half * w for w in self.weights.values())

    def pack(self, e: DiffExpr) -> dict:
        w = self.weights
        return {sum(v * w[slot[1]] for slot, v in key): c
                for key, c in e.term_items()}

    def digits(self, key: int) -> list[int]:
        """The exponents of ``key`` plus L, least significant name first."""
        z = key + self.offset
        out = []
        for _ in self.names:
            z, d = divmod(z, self.base)
            out.append(d)
        return out

    def unpack(self, poly: dict) -> DiffExpr:
        half = self.half
        rev = self.names[::-1]
        terms = {}
        for key, c in poly.items():
            slots = [((1, nm), d - half)
                     for nm, d in zip(rev, self.digits(key)) if d != half]
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            terms[tuple(reversed(slots))] = c
        return DiffExpr(terms)

    def extent(self, poly: dict) -> tuple[list[int], list[int]]:
        """Per-name lowest and highest digit over the monomials of
        ``poly``, least significant name first."""
        zs = [k + self.offset for k in poly]
        base = self.base
        lo, hi = [], []
        w = 1
        for _ in self.names:
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


def _quotient(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


def _fms(p: dict, a: dict | None, f: dict | None, b: dict | None) -> dict:
    """``p * a - f * b`` on packed polynomials; ``None`` stands for
    zero."""
    out = {}
    get = out.get
    for x, y, sign in ((p, a, 1), (f, b, -1)):
        if x is None or y is None:
            continue
        for kx, cx in x.items():
            cx *= sign
            for ky, cy in y.items():
                k = kx + ky
                v = get(k)
                if v is None:
                    out[k] = cx * cy
                else:
                    v += cx * cy
                    if v:
                        out[k] = v
                    else:
                        del out[k]
    return out


def _divide(num: dict, div, pk: _Packing) -> dict:
    """The exact quotient of ``num`` by the divisor ``div`` (from
    ``_Packing.divisor``); ``num`` is consumed.  Raises ``RuntimeError`` as
    soon as a quotient monomial leaves the box an exact quotient fills."""
    if div is None:
        return num
    den, lead, cb, dlo, dhi, ldig = div
    if len(den) == 1:  # a unit
        return {k - lead: _quotient(c, cb) for k, c in num.items()}
    lo, hi = pk.extent(num)
    # the quotient monomial lr - lead must lie in [lo - dlo, hi - dhi] per
    # name, i.e. the remainder's lead lr in [lo - dlo + ld, hi - dhi + ld]
    box = [(l - dl + ld, h - dh + ld)
           for l, h, dl, dh, ld in zip(lo, hi, dlo, dhi, ldig)]
    base, offset = pk.base, pk.offset
    quo = {}
    get = num.get
    while num:
        lr = max(num)
        z = lr + offset
        for l, h in box:
            z, d = divmod(z, base)
            if d < l or d > h:
                raise RuntimeError("fraction-free elimination: "
                                   "inexact division (bug)")
        qk = lr - lead
        qc = _quotient(num[lr], cb)
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
    return quo


def _sparse(rows: list[list[DiffExpr]], ncols: int,
            growth: int) -> tuple[list[dict], _Packing | None]:
    """Dict rows without zeros: numbers when every entry is rational (and
    no packing), else packed polynomials and their packing, whose digit
    half-width is ``growth * E`` (see the module docstring)."""
    m = []
    names: set[str] = set()
    top = 0
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        row = {}
        for c, e in enumerate(r):
            if not e:
                continue
            for key, _ in e.term_items():
                for slot, v in key:
                    if slot[0] != 1:
                        raise ValueError(
                            "matrix entries must be constant expressions")
                    names.add(slot[1])
                    top = max(top, abs(v))
            row[c] = e
        m.append(row)
    if not names:
        return [{c: ex.as_rational(e) for c, e in row.items()}
                for row in m], None
    pk = _Packing(sorted(names), growth * top)
    return [{c: pk.pack(e) for c, e in row.items()} for row in m], pk


def _subtract(row: dict, row_p: dict, f) -> None:
    """``row -= f * row_p`` in place, for rational rows."""
    for k, v in row_p.items():
        nv = row.get(k, 0) - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _combine_rows(row: dict, row_p: dict, c: int, p: dict, div,
                  pk: _Packing) -> dict:
    """``(p * row - row[c] * row_p) / prev`` over the cells where ``row``
    or ``row_p`` is nonzero, for packed rows; ``div`` is
    ``pk.divisor(prev)``."""
    fi = row.get(c)
    keys = row.keys() | row_p.keys() if fi is not None else row.keys()
    out = {}
    for k in keys:
        num = _fms(p, row.get(k), fi, row_p.get(k))
        if num:
            out[k] = _divide(num, div, pk)
    return out


def _components(m: list[dict],
                ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the row-column graph of ``m``, in which
    a row and a column are adjacent when their cell is nonzero, found by
    union-find on the columns: ``(rows, columns)``, both ascending, ordered
    by their first column.  A column without a nonzero cell is a component
    of its own with no rows; a row without one is left out, having nothing
    to sweep."""
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in m:
        roots = {find(c) for c in row}
        if roots:
            root = roots.pop()
            for other in roots:
                parent[other] = root
    comps: dict[int, tuple[list[int], list[int]]] = {}
    for c in range(ncols):
        comps.setdefault(find(c), ([], []))[1].append(c)
    for i, row in enumerate(m):
        if row:
            comps[find(next(iter(row)))][0].append(i)
    return list(comps.values())


def _sweep(m: list[dict], cols: list[int], pk: _Packing | None,
           assumptions: list[dict]):
    """Gauss-Jordan on the dict rows ``m`` of one component over its
    columns ``cols``, in place; pivot rows are moved to the top and
    symbolic pivots appended to ``assumptions``.  Returns ``(pivot columns
    by row, final pivot)``."""
    pivots: list[int] = []
    prev = {0: 1}
    for c in cols:
        r = len(pivots)
        if r == len(m):
            break
        sel = None
        for i in range(r, len(m)):
            e = m[i].get(c)
            if e is None:
                continue
            if sel is None:
                sel = i
            if pk is None or e.keys() == {0}:
                sel = i  # prefer a rational pivot: no genericity assumption
                break
        if sel is None:
            continue
        m[sel], m[r] = m[r], m[sel]
        row_p = m[r]
        p = row_p[c]
        if pk is None:
            if p != 1:
                inv = 1 / Fraction(p)
                row_p = m[r] = {k: v * inv for k, v in row_p.items()}
            for row in m:
                f = row.get(c)
                if f is not None and row is not row_p:
                    _subtract(row, row_p, f)
        else:
            if p.keys() != {0}:
                assumptions.append(p)
            div = pk.divisor(prev)
            for i, row in enumerate(m):
                if i != r:
                    m[i] = _combine_rows(row, row_p, c, p, div, pk)
            prev = p
        pivots.append(c)
    return pivots, 1 if pk is None else prev


def _reduce(m: list[dict], ncols: int, pk: _Packing | None):
    """Gauss-Jordan on the dict rows ``m``, one connected component at a
    time.  Returns the blocks ``(rows, columns, pivot columns, final
    pivot)``, whose rows start with the pivot rows in pivot order, and the
    symbolic pivots in block order."""
    blocks = []
    assumptions: list[dict] = []
    for rows, cols in _components(m, ncols):
        rows = [m[i] for i in rows]
        pivots, d = _sweep(rows, cols, pk, assumptions)
        blocks.append((rows, cols, pivots, d))
    return blocks, assumptions


def normalize_assumptions(polys) -> tuple[DiffExpr, ...]:
    """Nonvanishing assumptions in short form: the primitive part of each
    (``expr.primitive_part``), without the 1s left by monomials, which are
    nonzero with the constants, and without repeats (first kept)."""
    out = dict.fromkeys(ex.primitive_part(p) for p in polys)
    out.pop(ex.ONE, None)
    return tuple(out)


def nullspace(rows: list[list[DiffExpr]], ncols: int) -> NullspaceResult:
    m, pk = _sparse(rows, ncols, 2 * min(len(rows), ncols))
    if pk is None:
        original = [dict(row) for row in m]
    else:
        original = [{c: e for c, e in enumerate(r) if e} for r in rows]
    blocks, assumptions = _reduce(m, ncols, pk)

    vecs = {}
    for block, cols, pivots, d in blocks:
        pivot_set = set(pivots)
        for f in cols:
            if f in pivot_set:
                continue
            vec = {f: d}
            for row, c in zip(block, pivots):
                entry = row.get(f)
                if entry is None:
                    continue
                if row[c] != d:
                    raise RuntimeError("fraction-free elimination: pivot "
                                       "entry differs from the final pivot "
                                       "(bug)")
                vec[c] = (-entry if pk is None
                          else {k: -v for k, v in entry.items()})
            vecs[f] = vec
    basis = [vecs[f] for f in sorted(vecs)]

    if pk is None:
        zero = 0
        basis = [{c: ex.rational(v) for c, v in vec.items()} for vec in basis]
    else:
        zero = ex.ZERO
        basis = [{c: pk.unpack(v) for c, v in vec.items()} for vec in basis]
    for vec in basis:  # exact verification of A v = 0
        for row in original:
            if sum((v * vec[k] for k, v in row.items() if k in vec), zero):
                raise RuntimeError("nullspace verification failed (bug)")

    dense = tuple(tuple(vec.get(c, ex.ZERO) for c in range(ncols))
                  for vec in basis)
    return NullspaceResult(
        basis=dense, rank=ncols - len(basis),
        pivot_assumptions=normalize_assumptions(
            pk.unpack(p) for p in assumptions))


def rank(rows: list[list[DiffExpr]], ncols: int) -> int:
    m, pk = _sparse(rows, ncols, 2 * min(len(rows), ncols))
    return sum(len(pivots) for _, _, pivots, _ in _reduce(m, ncols, pk)[0])


def in_span(target: list[DiffExpr], vectors: list[list[DiffExpr]],
            ncols: int) -> bool:
    """Whether ``target`` lies in the span of ``vectors`` (generically, when
    constants are involved): ``vectors`` are reduced once and ``target`` is
    reduced against that echelon form."""
    r = min(len(vectors), ncols)
    m, pk = _sparse(list(vectors) + [list(target)], ncols, r * r + 1)
    rest = m.pop()
    for block, _, pivots, _ in _reduce(m, ncols, pk)[0]:
        for row, c in zip(block, pivots):
            f = rest.get(c)
            if f is None:
                continue
            if pk is None:
                _subtract(rest, row, f)
            else:
                rest = _combine_rows(rest, row, c, row[c], None, pk)
    return not rest
