"""Exact sparse row reduction over rationals extended by named constants.

Matrix entries are constant expressions (elements of the ring of Laurent
polynomials in the named constants over Q); any other entry (a ``DiffExpr``
with a variable, or not a ``DiffExpr`` at all, ``int`` 0 included), and a
ragged matrix, is rejected up front with ``ValueError``.  ``_sparse`` reads
the matrix once and stores each entry times ``den``, the lcm of the
entries' denominators (each ``DiffExpr`` keeps one), as a packed
polynomial (``expr._Packing``, one slot ``(1, name)`` per named constant)
with ``int`` coefficients, in dict rows from column to nonzero value.  A
rational entry packs to the one monomial ``0``, so every matrix takes the
same path.

One elimination (``_reduce``) serves ``nullspace`` and ``rank``, and
``in_span`` compares two ranks.  It splits the matrix into its connected
components (below) and runs one fraction-free Gauss-Jordan (Bareiss) pivot
loop, ``_sweep``, on each.  Within a component, columns are swept left to
right.  Sweep k takes a pivot ``p`` in column c and turns every other row
of the component into ``(p * row - row[c] * pivot_row) / prev``, with
``prev`` the previous pivot of the component (1 before its first); a row
without column c is only scaled by ``p / prev``.

The pending scale.  ``_sweep`` leaves a row without the pivot column
alone.  Each stored row X keeps ``base``, the pivot at its last real update
(1 before any), and stands for the row ``X * prev / base`` of the sweep
above: the scales ``p_j / p_{j-1}`` of the sweeps it skipped telescope to
``prev / base``.  A row with column c becomes ``(p * X - X[c] * R) / base``
on the cells where X or R is nonzero, and its base becomes p; this is
``(p * M - M[c] * R) / prev`` for M the row X stands for, the same entries
as before, so the division by the row's own base is exact as every other.
The pivot row R is brought up to date, ``X * prev / base``, before ``p =
R[c]`` is read, and after the last sweep every pivot row is brought up to
the final pivot d, so every pivot entry of a component equals d.  The
pivot row is the first remaining row with a nonzero entry, or the first
whose current entry ``prev * X[c] / base`` is rational when there is one:
the stored entry of a skipped row can be rational where the current one
is not.

Integers.  After k sweeps every entry of a component's pivot rows is a k x
k minor of the component, hence of the input (Cramer's rule), and every
entry of its other rows a (k+1) x (k+1) minor (Sylvester's identity); so
is every quotient of the pending scale, which is such an entry.  So every
division is exact in Laurent polynomials over Z, the ring of the cleared
entries.  Each is ``expr._divide``, the one exact division, and a refuted
division or a remainder is a bug and raises.  A minor of order j
is ``den^j`` times the input's, so zero tests, pivot choices and ranks are
the input's, and each pivot is a rational unit times the input's.

Output.  A free column f yields the nullspace vector with d at f and
``-M[i][f]`` at the i-th pivot column of its component, vectors in the order
of their free columns.  Its entries are r x r minors for r pivots in the
component, so divided by ``den^r`` it is the vector of the same sweep on
the input.  Without named constants it is divided by d instead, ``den^r``
times the input's final pivot: the sweep ends at d times the reduced row
echelon form, so this gives that form's basis, with 1 at f.  Every vector
is checked against the input, ``A v = 0``, in expression term arithmetic
(each row as one fused sum of products, ``expr.sum_of_products``),
independently of the packing and the clearing.  Only the rows that share
a column with v are summed, found through one column-to-rows index: every
other row's sum has no terms and is zero, so the check proves the same.

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
kernel over the field of fractions is the direct sum of theirs.  Without
constants the reduced row echelon form is unique, so the results are
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

The exponent bound.  Let E be the largest ``|e_i|`` of a constant's power
in any input entry and R the number of rows or of columns that is smaller
(a bound on the rank).  Every entry after k sweeps is a minor of order at
most k + 1 (above), and k is at most the component's rank, so at most R.
A minor of order j is a sum of products of j entries, so its exponents lie
in ``[-jE, jE]``.  Sweep k multiplies entries that are minors of order at
most k: the pivot and the up-to-date pivot row, and a stored row, which
was last updated at an earlier sweep and so holds minors of order at most
k (``prev``, which brings a row up to date, has order k - 1, and the final
pivot d and the stored rows it multiplies have order at most the
component's rank).  So every product and numerator has exponents in
``[-2kE, 2kE]``; quotients are entries of the sweep, and the division
forms no monomial outside the range of its numerator.  The packing
therefore takes the digit half-width ``L = 2RE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import expr as ex
from .expr import DiffExpr


@dataclass(frozen=True)
class NullspaceResult:
    basis: tuple[tuple[DiffExpr, ...], ...]
    rank: int
    pivot_assumptions: tuple[DiffExpr, ...]  # symbolic pivots assumed nonzero


_INEXACT = "fraction-free elimination: inexact division (bug)"


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


def _sparse(rows: list[list[DiffExpr]], ncols: int):
    """One scan of the matrix.  Returns ``(packed rows, packing, den, input
    rows)``: the input rows as dicts of their nonzero entries, and the same
    rows times ``den``, the lcm of the entries' denominators, packed with
    digit half-width ``2RE`` (see the module docstring)."""
    original = []
    names: set[str] = set()
    top = 0
    den = 1
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        row = {}
        for c, e in enumerate(r):
            try:
                t = e._t
            except AttributeError:
                raise ValueError("matrix entries must be constant "
                                 "expressions") from None
            if not t:
                continue
            den = lcm(den, e._den)
            for key in t:
                for slot, v in key:
                    if slot[0] != 1:
                        raise ValueError(
                            "matrix entries must be constant expressions")
                    names.add(slot[1])
                    top = max(top, abs(v))
            row[c] = e
        original.append(row)
    pk = ex._Packing([(1, nm) for nm in sorted(names)],
                     2 * min(len(rows), ncols) * top)
    m = [{c: pk.pack(e, den) for c, e in row.items()} for row in original]
    return m, pk, den, original


def _exact(num: dict, div, pk: ex._Packing) -> dict:
    """``num / base`` for ``div = pk.divisor(base)``.  Every division of
    the sweep is exact over Z (see the module docstring), so a refuted one
    or one that needs a scale is a bug and raises."""
    got = ex._divide(num, div, pk)
    if got is None or got[1] != 1:
        raise RuntimeError(_INEXACT)
    return got[0]


def _combine_rows(row: dict, row_p: dict, c: int, p: dict, div,
                  pk: ex._Packing) -> dict:
    """``(p * row - row[c] * row_p) / base`` over the cells where ``row``
    or ``row_p`` is nonzero; ``div`` is ``pk.divisor(base)``, for ``base``
    the pivot at the row's last update."""
    fi = row.get(c)
    out = {}
    for k in row.keys() | row_p.keys():
        num = _fms(p, row.get(k), fi, row_p.get(k))
        if num:
            out[k] = _exact(num, div, pk)
    return out


def _rescale(row: dict, s: dict, div, pk: ex._Packing) -> dict:
    """``row * s / base``, the row brought up to the pivot ``s``; ``div``
    is ``pk.divisor(base)``."""
    return {k: _exact(_fms(s, v, None, None), div, pk)
            for k, v in row.items()}


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


def _sweep(m: list[dict], cols: list[int], pk: ex._Packing,
           assumptions: list[dict]):
    """Fraction-free Gauss-Jordan on the packed rows ``m`` of one component
    over its columns ``cols``, in place; pivot rows are moved to the top,
    brought up to the final pivot, and symbolic pivots appended to
    ``assumptions``.  Returns ``(pivot columns by row, final pivot)``."""
    pivots: list[int] = []
    # each row's (base, pk.divisor(base)), base the pivot at its last
    # update, and the same pair for the last pivot, prev
    cur = ({0: 1}, None)
    stamp = [cur] * len(m)
    for c in cols:
        r = len(pivots)
        if r == len(m):
            break
        prev = cur[0]
        sel = None
        for i in range(r, len(m)):
            e = m[i].get(c)
            if e is None:
                continue
            if sel is None:
                sel = i
            if stamp[i] is not cur:  # the current entry, prev * e / base
                e = _exact(_fms(prev, e, None, None), stamp[i][1], pk)
            if e.keys() == {0}:
                sel = i  # prefer a rational pivot: no genericity assumption
                break
        if sel is None:
            continue
        m[sel], m[r] = m[r], m[sel]
        stamp[sel], stamp[r] = stamp[r], stamp[sel]
        if stamp[r] is not cur:
            m[r] = _rescale(m[r], prev, stamp[r][1], pk)
        row_p = m[r]
        p = row_p[c]
        if p.keys() != {0}:
            assumptions.append(p)
        cur = stamp[r] = (p, pk.divisor(p))
        for i, row in enumerate(m):
            if c in row and i != r:
                m[i] = _combine_rows(row, row_p, c, p, stamp[i][1], pk)
                stamp[i] = cur
        pivots.append(c)
    d = cur[0]
    for i in range(len(pivots)):
        if stamp[i] is not cur:
            m[i] = _rescale(m[i], d, stamp[i][1], pk)
    return pivots, d


def _reduce(m: list[dict], ncols: int, pk: ex._Packing):
    """Fraction-free Gauss-Jordan on the packed rows ``m``, one connected
    component at a time.  Returns the blocks ``(rows, columns, pivot
    columns, final pivot)``, whose rows start with the pivot rows in pivot
    order, and the symbolic pivots in block order."""
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
    m, pk, den, original = _sparse(rows, ncols)
    blocks, assumptions = _reduce(m, ncols, pk)

    vecs = {}
    for block, cols, pivots, d in blocks:
        # the input's vector, or without constants the reduced row
        # echelon one (see the module docstring)
        scale = den ** len(pivots) if pk.slots else d[0]
        pivot_set = set(pivots)
        for f in cols:
            if f in pivot_set:
                continue
            vec = {f: pk.unpack(d, scale)}
            for row, c in zip(block, pivots):
                entry = row.get(f)
                if entry is None:
                    continue
                if row[c] != d:
                    raise RuntimeError("fraction-free elimination: pivot "
                                       "entry differs from the final pivot "
                                       "(bug)")
                vec[c] = pk.unpack({k: -v for k, v in entry.items()}, scale)
            vecs[f] = vec
    basis = [vecs[f] for f in sorted(vecs)]

    # exact verification of A v = 0, on the rows that share a column with
    # v: every other row's sum has no terms
    rows_at: dict[int, list[int]] = {}
    for i, row in enumerate(original):
        for c in row:
            rows_at.setdefault(c, []).append(i)
    for vec in basis:
        for i in {i for c in vec for i in rows_at.get(c, ())}:
            if ex.sum_of_products((1, e, vec[c])
                                  for c, e in original[i].items() if c in vec):
                raise RuntimeError("nullspace verification failed (bug)")

    dense = tuple(tuple(vec.get(c, ex.ZERO) for c in range(ncols))
                  for vec in basis)
    return NullspaceResult(
        basis=dense, rank=ncols - len(basis),
        pivot_assumptions=normalize_assumptions(
            pk.unpack(p) for p in assumptions))


def rank(rows: list[list[DiffExpr]], ncols: int) -> int:
    m, pk, _, _ = _sparse(rows, ncols)
    return sum(len(pivots) for _, _, pivots, _ in _reduce(m, ncols, pk)[0])


def in_span(target: list[DiffExpr], vectors: list[list[DiffExpr]],
            ncols: int) -> bool:
    """Whether ``target`` lies in the span of ``vectors`` (generically, when
    constants are involved): whether adding it leaves the rank as it is."""
    vectors = list(vectors)
    return rank(vectors + [list(target)], ncols) == rank(vectors, ncols)
