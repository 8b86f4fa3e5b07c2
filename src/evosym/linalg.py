"""Exact sparse row reduction over rationals extended by named constants.

Matrix entries are constant expressions (elements of the ring of Laurent
polynomials in the named constants over Q); any other entry (a ``DiffExpr``
with a variable, or not a ``DiffExpr`` at all, ``int`` 0 included), and a
ragged matrix, is rejected up front with ``ValueError``.  ``nullspace``
reads the matrix once, through ``expr.constant_rows``, which checks each
entry and stores it times ``den``, the lcm of the entries' denominators
(each ``DiffExpr`` keeps one), in dict rows from column to nonzero value:
an ``int``, or with a named constant in the matrix a packed polynomial
(``expr._Packing``) with ``int`` coefficients.

Every elimination is ``nullspace``'s, so every one is checked by
``A v = 0`` (below): ``rank`` reads its rank, and ``in_span`` compares two
such ranks.  ``nullspace`` also returns the pivot columns, ascending; its
``rank`` is their number.  A column is a pivot exactly when it lies
outside the span of the columns before it (over the field of fractions of
the constants; see "The verdicts" below), so a caller reads whether an
expression depends on earlier ones off the pivots of one sweep, with no
second elimination.  ``nullspace`` splits the matrix into its connected
components (below) and hands each to one of two engines, chosen once per
matrix: the modular path (``_modular``) for a rational matrix, and the
fraction-free sweep (``_fraction_free``) for every component of a matrix
with a named constant.  Each returns the pivot columns and the kernel
vectors of its component, every vector checked by ``A v = 0``.

Components.  A row and a column are adjacent when their cell is nonzero;
``_components`` finds the connected components of this graph by
union-find on the columns.  A column without a nonzero cell is a component
with no rows, whose nullspace vector is the unit vector; a row without one
has nothing to sweep.  No pivot row of one component has a cell in another,
so eliminating the components one by one is the whole-matrix elimination
with the blocks kept apart.

Verification.  Every vector is checked against the input, ``A v = 0``, in
expression term arithmetic (each row as one fused sum of products,
``expr.sum_of_products``), independently of the packing, the clearing and
the primes.  Only the rows that share a column with v are summed, found
through one column-to-rows index: every other row's sum has no terms and
is zero, so the check proves the same.

The modular path (rational matrices).  The cleared rows of a component are
reduced modulo a prime p and run through Gauss-Jordan modulo p
(``_sweep_mod``): columns left to right, each pivot normalized to 1 and
taken from the sparsest remaining row, and eliminated from every other
row.  A free column f yields the residues of the vector with 1 at f and
``-M[i][f]`` at the i-th pivot column, and each entry is rebuilt as a
rational by rational reconstruction (Wang's half-extended Euclid; Monagan,
ISSAC 2004): the ``n / d`` with ``n = d * r`` modulo the modulus m and
``|n|, d <= sqrt(m / 2)``, unique when it exists.  The primes are the
literal ``_PRIMES``, 2^61 - 1 and the next primes below it, then each next
prime below those, so runs are reproducible.  A prime fails when an entry
does not reconstruct or a vector fails ``A v = 0``; then the next prime is
taken.  Primes that find the same pivot columns are combined by the
Chinese remainder theorem (Garner) before reconstruction; a prime that
finds more pivots, or as many further left, replaces them, and one that
finds fewer, or as many further right, is dropped.

Why the result is exact.  A minor modulo p is the image of the minor
over Q, so a minor that is nonzero modulo p is nonzero: the rank modulo p
is at most the rank over Q, in every prefix of the columns, and the i-th
pivot column modulo p is at or right of the i-th over Q.  The pivots over
Q are the most, and the leftmost, that any prime finds.  Every returned vector
passes ``A v = 0`` exactly, and its support is f and pivot columns left of
f (a pivot row is zero left of its pivot), so column f is a combination of
the columns before it over Q and is no pivot over Q.  The pivots over Q
are therefore among those modulo p, and they are no fewer; so the two
sets are equal, the rank and ``pivots`` are proven, and the vectors,
``ncols - rank`` of them and independent (each is 1 at its own free
column and 0 at the others), are a basis of the kernel.  So the number of
verified vectors must be the number of free columns; another number is a
bug and raises, so that a lost vector never passes as a smaller kernel.
The reduced row echelon form is unique, so the basis is the one any exact
Gauss-Jordan on the input gives, by construction.

The prime cap.  Let H be the Hadamard bound of the cleared component, the
product of its r largest row norms for r the smaller of its numbers of
rows and columns: every minor is at most H in size.  Fix a nonzero r x r
minor D on the pivot columns over Q, for r the rank.  A prime that does
not divide D finds the pivots over Q (D stays nonzero modulo it), and its
reduced row echelon form is the image of the rational one, whose
denominators divide D.  So the unlucky primes divide D, and as each
exceeds 2^60 there are at most ``log2(H) / 60`` of them.  The entries of
the rational form are quotients of minors, each at most H in size, so
lucky primes whose product m exceeds ``2 H^2`` reconstruct every entry:
``1 + (2 log2(H) + 1) / 60`` of them.  A component takes at most the
sum of the two counts (``_prime_cap``, computed only after a first prime
fails), and reaching it raises ``RuntimeError("nullspace verification
failed (bug)")``.

Keep or drop.  The modular path replaced the fraction-free sweep on
rational matrices because it was measured to pay, on 2 vCPUs with Python
3.11.7: ``search-rational`` rose from 151 to 168 requests/s (seed 7, 30 s
runs, 10 of 10 alternating pairs won; seed 977, 3 of 3), its 13 seed-7
matrices take about 10 ms of ``nullspace`` per pass where the sweep took
18 to 20, and ``find`` on ``u3+u^2*u1`` at order 7, weight 9, x-degree 1
and base weight 1 fell from 1.0 to 0.35 s at t-degree 1 (pool 837) and
from 8.7 to 1.75 s at t-degree 2 (pool 2,241): the Bareiss pivots grow to
1,302 bits where a prime's residues stay at 61.  The path stays only
while such measurements hold.

The fraction-free sweep (matrices with named constants).  ``_sweep`` runs
one fraction-free Gauss-Jordan (Bareiss) pivot loop on each component.
Within a component, columns are swept left to right.  Sweep k takes a
pivot ``p`` in column c and turns every other row of the component into
``(p * row - row[c] * pivot_row) / prev``, with ``prev`` the previous pivot
of the component (1 before its first); a row without column c is only
scaled by ``p / prev``.

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
``-M[i][f]`` at the i-th pivot column of its component (``_fraction_free``,
which checks first that each such pivot entry is d).  Its entries are r x
r minors for r pivots in the component, so divided by ``den^r`` it is the
vector of the same sweep on the input, and it is verified as above.

A pivot that involves named constants is only generically nonzero; those
pivots are collected so callers can flag the assumed-nonvanishing locus.
They are reported in short form (``normalize_assumptions``): each divided
by its rational and constant-monomial content, both units, with its sign
fixed (``expr.primitive_part``); without the 1s this leaves of a monomial,
which is nonzero with the constants; and without repeats.  A pivot is a
unit times its short form, so the locus is the same.

The verdicts are those of the whole matrix.  A column depends on the
earlier ones exactly when it does within its component, whose rows no
other column touches, so the pivot columns are each component's first
independent columns, the rank is the sum of the components' ranks and the
kernel over the field of fractions is the direct sum of theirs.  Without
constants the reduced row echelon form is unique, so the results are
those of one elimination over the whole matrix.  With constants, one sweep
over the whole matrix would chain every pivot through a single ``prev``:
its k-th pivot is the leading k x k minor of the rows and columns chosen so
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
from math import isqrt, prod

from . import expr as ex
from .expr import DiffExpr


@dataclass(frozen=True)
class NullspaceResult:
    basis: tuple[tuple[DiffExpr, ...], ...]
    pivots: tuple[int, ...]  # ascending; outside the earlier columns' span
    pivot_assumptions: tuple[DiffExpr, ...]  # symbolic pivots assumed nonzero

    @property
    def rank(self) -> int:
        return len(self.pivots)


_INEXACT = "fraction-free elimination: inexact division (bug)"
_NOT_VERIFIED = "nullspace verification failed (bug)"


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


def _fraction_free(rows: list[dict], cols: list[int], pk: ex._Packing,
                   den: int, assumptions: list[dict], annihilates):
    """``_sweep`` on one component's packed rows, cleared by ``den``: its
    pivot columns and kernel vectors (free column -> ``{col: DiffExpr}``,
    see "Output" above), each checked by ``annihilates``."""
    pivots, d = _sweep(rows, cols, pk, assumptions)
    scale = den ** len(pivots)
    pivot_set = set(pivots)
    vecs = {}
    for f in cols:
        if f in pivot_set:
            continue
        vec = {f: pk.unpack(d, scale)}
        for row, c in zip(rows, pivots):
            entry = row.get(f)
            if entry is None:
                continue
            if row[c] != d:
                raise RuntimeError("fraction-free elimination: pivot "
                                   "entry differs from the final pivot "
                                   "(bug)")
            vec[c] = pk.unpack({k: -v for k, v in entry.items()}, scale)
        if not annihilates(vec):
            raise RuntimeError(_NOT_VERIFIED)
        vecs[f] = vec
    return pivots, vecs


# -- the modular path, for matrices without named constants -------------------

# the primes taken in turn, 2^61 - 1 and the next primes below it; all
# exceed 2^60, which the prime cap counts on
_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229, 2**61 - 259,
           2**61 - 283, 2**61 - 339, 2**61 - 391)
_PRIME_BITS = 60


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2 to 23, deterministic for odd ``n >
    23`` below 3.8 * 10^18 (Jaeschke), which holds every prime taken."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes of the modular path in the order they are taken:
    ``_PRIMES``, then each next prime below the last of them."""
    yield from _PRIMES
    n = _PRIMES[-1]
    while True:
        n -= 2
        if _is_prime(n):
            yield n


def _prime_cap(rows: list[dict], ncols: int) -> int:
    """How many primes one component may take: those that can be unlucky
    plus those that reconstruction needs, from the Hadamard bound H of the
    minors of the cleared rows (``col -> int``; see the module
    docstring)."""
    r = min(len(rows), ncols)
    h2 = prod(sorted(sum(v * v for v in row.values()) for row in rows)[-r:]
              if r else ())
    hb = (h2.bit_length() + 1) // 2  # H <= 2^hb
    return hb // _PRIME_BITS + (2 * hb + 1) // _PRIME_BITS + 1


def _sweep_mod(rows: list[dict], cols: list[int], p: int):
    """Gauss-Jordan modulo ``p`` on the rows (``col -> nonzero residue``)
    of one component over its columns ``cols``, in place, each pivot
    normalized to 1 and taken from the sparsest remaining row.  Returns
    ``(pivots, vectors)``: the pivot columns, ascending, and for each free
    column f the residues of its reduced row echelon kernel vector, 1 at f
    and ``-M[i][f]`` at the i-th pivot column."""
    pivots, done, rest = [], [], rows
    for c in cols:
        sel = None
        for i, row in enumerate(rest):
            if c in row and (sel is None or len(row) < len(rest[sel])):
                sel = i
        if sel is None:
            continue
        row_p = rest.pop(sel)
        inv = pow(row_p[c], -1, p)
        if inv != 1:
            row_p = {k: v * inv % p for k, v in row_p.items()}
        for group in (done, rest):
            for row in group:
                f = row.get(c)
                if f is None:
                    continue
                for k, v in row_p.items():
                    w = (row.get(k, 0) - f * v) % p
                    if w:
                        row[k] = w
                    else:
                        del row[k]
        done.append(row_p)
        pivots.append(c)
    pivot_set = set(pivots)
    vectors = {f: {f: 1} for f in cols if f not in pivot_set}
    # a pivot row is zero at the other pivot columns
    for row, c in zip(done, pivots):
        for f, v in row.items():
            if f != c:
                vectors[f][c] = p - v
    return pivots, vectors


def _crt(m: int, old: dict, p: int, new: dict) -> dict:
    """The residues modulo ``m * p`` of the vectors whose residues are
    ``old`` modulo ``m`` and ``new`` modulo ``p`` (Garner); a missing
    entry is 0."""
    inv = pow(m, -1, p)
    out = {}
    for f, a in old.items():
        b = new[f]
        vec = out[f] = {}
        for c in a.keys() | b.keys():
            x = a.get(c, 0)
            vec[c] = x + m * ((b.get(c, 0) - x) * inv % p)
    return out


def _reconstruct(r: int, m: int, bound: int) -> DiffExpr | None:
    """The rational ``n / d`` with ``n = d * r`` modulo ``m``, ``|n| <=
    bound`` and ``0 < d <= bound``, or None when there is none (Wang's
    half-extended Euclid); for ``m > 2 * bound^2`` it is unique."""
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound:
        return None
    return ex.rational(r1, s1)


def _lift(m: int, residues: dict) -> dict | None:
    """The vectors whose entries reconstruct from their residues modulo
    ``m``, or None when one does not."""
    bound = isqrt(m // 2)
    out = {}
    for f, vec in residues.items():
        lifted = {}
        for c, r in vec.items():
            if r:
                q = _reconstruct(r, m, bound)
                if q is None:
                    return None
                lifted[c] = q
        out[f] = lifted
    return out


def _modular(rows: list[dict], cols: list[int], annihilates):
    """The pivot columns and the reduced row echelon kernel vectors (free
    column -> ``{col: DiffExpr}``) of one component, its cleared rows
    ``col -> int`` (see the module docstring): each prime's residues are
    combined with those of the earlier primes that found the same pivots,
    and the first lift whose every vector ``annihilates`` is returned."""
    best = cap = None
    for tried, p in enumerate(_primes(), 1):
        pivots, residues = _sweep_mod(
            [{c: r for c, v in row.items() if (r := v % p)} for row in rows],
            cols, p)
        # more pivots, or as many further left, are nearer the truth
        key = (-len(pivots), pivots)
        if best is None or key < best[0]:
            best = (key, p, residues)
        elif key == best[0]:
            best = (key, best[1] * p, _crt(best[1], best[2], p, residues))
        if key == best[0]:
            vecs = _lift(best[1], best[2])
            if vecs is not None and all(map(annihilates, vecs.values())):
                if len(vecs) != len(cols) - len(pivots):
                    raise RuntimeError(
                        f"modular elimination: {len(vecs)} vectors for "
                        f"nullity {len(cols) - len(pivots)} (bug)")
                return pivots, vecs
        if cap is None:
            cap = _prime_cap(rows, len(cols))
        if tried >= cap:
            raise RuntimeError(_NOT_VERIFIED)


def normalize_assumptions(polys) -> tuple[DiffExpr, ...]:
    """Nonvanishing assumptions in short form: the primitive part of each
    (``expr.primitive_part``), without the 1s left by monomials, which are
    nonzero with the constants, and without repeats (first kept)."""
    out = dict.fromkeys(ex.primitive_part(p) for p in polys)
    out.pop(ex.ONE, None)
    return tuple(out)


def nullspace(rows: list[list[DiffExpr]], ncols: int) -> NullspaceResult:
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    # digit half-width 2RE (see the module docstring)
    read = ex.constant_rows(rows, 2 * min(len(rows), ncols))
    if read is None:
        raise ValueError("matrix entries must be constant expressions")
    original, m, pk, den = read
    # exact verification of A v = 0, on the rows that share a column with
    # v: every other row's sum has no terms
    rows_at: dict[int, list[int]] = {}
    for i, row in enumerate(original):
        for c in row:
            rows_at.setdefault(c, []).append(i)

    def annihilates(vec: dict) -> bool:
        return not any(
            ex.sum_of_products((1, e, vec[c])
                               for c, e in original[i].items() if c in vec)
            for i in {i for c in vec for i in rows_at.get(c, ())})

    vecs: dict[int, dict] = {}
    pivots: list[int] = []
    assumptions: list[dict] = []  # packed; only the sweep appends
    for members, cols in _components(m, ncols):
        block = [m[i] for i in members]
        if pk is None:  # rational: the modular path
            got, found = _modular(block, cols, annihilates)
        else:
            got, found = _fraction_free(block, cols, pk, den, assumptions,
                                        annihilates)
        pivots += got
        vecs.update(found)

    return NullspaceResult(
        basis=tuple(tuple(vecs[f].get(c, ex.ZERO) for c in range(ncols))
                    for f in sorted(vecs)),
        pivots=tuple(sorted(pivots)),
        pivot_assumptions=normalize_assumptions(
            pk.unpack(p) for p in assumptions))


def rank(rows: list[list[DiffExpr]], ncols: int) -> int:
    return nullspace(rows, ncols).rank


def in_span(target: list[DiffExpr], vectors: list[list[DiffExpr]],
            ncols: int) -> bool:
    """Whether ``target`` lies in the span of ``vectors`` (generically, when
    constants are involved): whether adding it leaves the rank as it is."""
    vectors = list(vectors)
    return rank(vectors + [list(target)], ncols) == rank(vectors, ncols)
