"""Exact sparse row reduction over rationals extended by named constants.

Matrix entries are constant expressions (elements of the polynomial ring in
the named constants over Q, with invertible constants).  Rows are stored as
dicts from column to nonzero value, and one Gauss-Jordan pivot loop
(``_reduce``) serves ``nullspace``, ``rank`` and ``in_span``.  Columns are
swept left to right; the pivot row is the first remaining row with a nonzero
entry, or the first with a rational one when there is one.  The coefficient
domain is chosen from the entries:

* all entries rational: each entry becomes an ``int``/``Fraction`` once,
  every pivot row is normalized to pivot 1 and eliminated from the other
  rows that have the pivot column.  The result is the reduced row echelon
  form.
* some entry involves named constants: entries stay ``DiffExpr`` and the
  elimination is fraction-free Gauss-Jordan (Bareiss): every sweep updates
  all rows, dividing by the previous pivot, so entries stay in the ring and
  all divisions are exact.  Only cells where the row or the pivot row is
  nonzero are computed.  After the last sweep every pivot entry equals the
  final pivot d.

A free column f yields the nullspace vector with value d (1 for rationals)
at f and ``-M[i][f]`` at the i-th pivot column, and every vector is checked
against every input row, ``A v = 0``, in the domain's own exact arithmetic.

A pivot that involves named constants is only generically nonzero; those
pivots are collected so callers can flag the assumed-nonvanishing locus.
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


def _sparse(rows: list[list[DiffExpr]], ncols: int) -> tuple[list[dict], bool]:
    """Dict rows without zeros, with numbers for entries when every entry
    is rational; also returns whether they were."""
    m = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        m.append({c: e for c, e in enumerate(r) if e})
    nums = [{c: ex.as_rational(e) for c, e in row.items()} for row in m]
    if all(None not in row.values() for row in nums):
        return nums, True
    return m, False


def _subtract(row: dict, row_p: dict, f) -> None:
    """``row -= f * row_p`` in place, for rational rows."""
    for k, v in row_p.items():
        nv = row.get(k, 0) - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _combine_rows(row: dict, row_p: dict, c: int, p: DiffExpr,
                  prev: DiffExpr) -> dict:
    """``(p * row - row[c] * row_p) / prev`` over the cells where ``row``
    or ``row_p`` is nonzero; the division must be exact."""
    fi = row.get(c)
    keys = row.keys() | row_p.keys() if fi is not None else row.keys()
    unit_prev = prev == ex.ONE
    out = {}
    for k in keys:
        a = row.get(k)
        b = row_p.get(k) if fi is not None else None
        if b is None:
            num = p * a
        elif a is None:
            num = -(fi * b)
        else:
            num = p * a - fi * b
        if num.is_zero:
            continue
        if not unit_prev:
            num = ex.try_divide(num, prev)
            if num is None:
                raise RuntimeError("fraction-free elimination: "
                                   "inexact division (bug)")
        out[k] = num
    return out


def _reduce(m: list[dict], ncols: int, rational: bool):
    """Gauss-Jordan on the dict rows ``m`` in place; pivot rows are moved
    to the top.  Returns ``(pivot columns by row, symbolic pivots, final
    pivot)``."""
    pivots: list[int] = []
    assumptions: list[DiffExpr] = []
    prev = ex.ONE
    for c in range(ncols):
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
            if rational or ex.as_rational(e) is not None:
                sel = i  # prefer a rational pivot: no genericity assumption
                break
        if sel is None:
            continue
        m[sel], m[r] = m[r], m[sel]
        row_p = m[r]
        p = row_p[c]
        if rational:
            if p != 1:
                inv = 1 / Fraction(p)
                row_p = m[r] = {k: v * inv for k, v in row_p.items()}
            for row in m:
                f = row.get(c)
                if f is not None and row is not row_p:
                    _subtract(row, row_p, f)
        else:
            if not ex.is_constant(p):
                raise ValueError("matrix entries must be constant expressions")
            if ex.as_rational(p) is None:
                assumptions.append(p)
            for i, row in enumerate(m):
                if i != r:
                    m[i] = _combine_rows(row, row_p, c, p, prev)
            prev = p
        pivots.append(c)
    return pivots, assumptions, 1 if rational else prev


def nullspace(rows: list[list[DiffExpr]], ncols: int) -> NullspaceResult:
    m, rational = _sparse(rows, ncols)
    original = [dict(row) for row in m]
    pivots, assumptions, d = _reduce(m, ncols, rational)

    basis = []
    pivot_set = set(pivots)
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: d}
        for r, c in enumerate(pivots):
            entry = m[r].get(f)
            if entry is None:
                continue
            if m[r][c] != d:
                raise RuntimeError("fraction-free elimination: pivot entry "
                                   "differs from the final pivot (bug)")
            vec[c] = -entry
        basis.append(vec)

    zero = 0 if rational else ex.ZERO
    for vec in basis:  # exact verification of A v = 0
        for row in original:
            if sum((v * vec[k] for k, v in row.items() if k in vec), zero):
                raise RuntimeError("nullspace verification failed (bug)")

    if rational:
        basis = [{c: ex.rational(v) for c, v in vec.items()} for vec in basis]
    dense = tuple(tuple(vec.get(c, ex.ZERO) for c in range(ncols))
                  for vec in basis)
    return NullspaceResult(basis=dense, rank=len(pivots),
                           pivot_assumptions=tuple(assumptions))


def rank(rows: list[list[DiffExpr]], ncols: int) -> int:
    m, rational = _sparse(rows, ncols)
    return len(_reduce(m, ncols, rational)[0])


def in_span(target: list[DiffExpr], vectors: list[list[DiffExpr]],
            ncols: int) -> bool:
    """Whether ``target`` lies in the span of ``vectors`` (generically, when
    constants are involved): ``vectors`` are reduced once and ``target`` is
    reduced against that echelon form."""
    m, rational = _sparse(list(vectors) + [list(target)], ncols)
    rest = m.pop()
    pivots, _, _ = _reduce(m, ncols, rational)
    for row, c in zip(m, pivots):
        f = rest.get(c)
        if f is None:
            continue
        if rational:
            _subtract(rest, row, f)
        else:
            rest = _combine_rows(rest, row, c, row[c], ex.ONE)
    return not rest
