import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from evosym import const, exp_of, linalg, parse, u, x
from evosym import expr as ex
from evosym.expr import ONE, ZERO, rational
from evosym.expr import _divide, _Packing
from evosym.linalg import in_span, nullspace, rank

from conftest import random_expr

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _q(n, d=1):
    return rational(Fraction(n, d))


def _dense_rational_nullity(rows, ncols):
    """Plain fraction Gaussian elimination as an independent oracle."""
    m = [[Fraction(e.term_items()[0][1]) if e else Fraction(0) for e in row]
         for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return ncols - r


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        rows = [[ONE, ZERO], [ZERO, ONE]]
        res = nullspace(rows, 2)
        assert res.rank == 2 and res.basis == ()

    def test_simple_kernel(self):
        # x0 + 2 x1 = 0
        res = nullspace([[ONE, _q(2)]], 2)
        assert res.rank == 1 and len(res.basis) == 1
        v = res.basis[0]
        assert v[0] + _q(2) * v[1] == ZERO and any(e for e in v)

    def test_zero_matrix(self):
        res = nullspace([[ZERO, ZERO]], 2)
        assert res.rank == 0 and len(res.basis) == 2

    def test_symbolic_pivot_flagged(self):
        a = const("a")
        res = nullspace([[a + 1, ONE]], 2)
        assert len(res.basis) == 1
        assert res.pivot_assumptions == (a + 1,)
        v = res.basis[0]
        assert (a + 1) * v[0] + v[1] == ZERO

    def test_monomial_pivots_need_no_assumption(self):
        # a constant is nonzero, so a pivot -3*a^2 assumes nothing more
        a = const("a")
        res = nullspace([[_q(-3) * a ** 2, ONE]], 2)
        assert len(res.basis) == 1 and res.pivot_assumptions == ()

    def test_rational_pivot_preferred(self):
        a = const("a")
        res = nullspace([[a, ONE], [ONE, ONE]], 2)
        assert res.rank == 2
        # the first pivot can be rational (row swap), but full rank forces
        # the determinant locus a - 1 into the assumptions
        assert res.pivot_assumptions == (a - ONE,)

    def test_symbolic_dependence(self):
        # (a  1; a 1) has rank 1 over Q(a)
        a = const("a")
        res = nullspace([[a, ONE], [a, ONE]], 2)
        assert res.rank == 1 and len(res.basis) == 1

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            nullspace([[ONE], [ONE, ZERO]], 2)


class TestSpan:
    def test_member(self):
        basis = [[ONE, ZERO, ONE], [ZERO, ONE, ONE]]
        assert in_span([ONE, ONE, _q(2)], basis, 3)

    def test_non_member(self):
        basis = [[ONE, ZERO, ONE]]
        assert not in_span([ZERO, ONE, ZERO], basis, 3)

    def test_empty_basis(self):
        assert in_span([ZERO, ZERO], [], 2)
        assert not in_span([ONE, ZERO], [], 2)


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_nullity_matches_dense_oracle(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    rows = [[_q(rng.randint(-4, 4)) for _ in range(ncols)]
            for _ in range(nrows)]
    res = nullspace(rows, ncols)
    assert len(res.basis) == _dense_rational_nullity(rows, ncols)
    # verification of A v = 0 runs inside nullspace already; check rank too
    assert res.rank == ncols - len(res.basis)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_nullspace_with_constants_verifies(seed):
    rng = random.Random(seed)
    a, b = const("a"), const("b")
    pool = [ZERO, ONE, a, b, a * b, a + 1, _q(2) * a, b - a]
    nrows = rng.randint(1, 4)
    ncols = rng.randint(1, 4)
    rows = [[pool[rng.randrange(len(pool))] for _ in range(ncols)]
            for _ in range(nrows)]
    res = nullspace(rows, ncols)  # internal A v = 0 verification is exact
    assert res.rank + len(res.basis) == ncols


# -- the sparse engine against references ------------------------------------

def _reference_nullspace(rows, ncols):
    """The dense fraction-free Bareiss-Jordan sweep that the sparse engine
    replaced, kept as the reference for matrices with constants: every
    sweep updates every cell of every row.  Returns ``(basis, rank,
    pivot_assumptions)``."""
    m = [list(r) for r in rows]
    nrows = len(m)
    prev = ONE
    pivots = []
    assumptions = []
    piv_r = 0
    for piv_c in range(ncols):
        sel = None
        for i in range(piv_r, nrows):
            if m[i][piv_c]:
                if sel is None:
                    sel = i
                if m[i][piv_c].is_rational:
                    sel = i
                    break
        if sel is None:
            continue
        m[sel], m[piv_r] = m[piv_r], m[sel]
        p = m[piv_r][piv_c]
        if not p.is_rational:
            assumptions.append(p)
        for i in range(nrows):
            if i == piv_r:
                continue
            fi = m[i][piv_c]
            for c in range(ncols):
                num = p * m[i][c] - fi * m[piv_r][c]
                if num.is_zero:
                    m[i][c] = ZERO
                elif prev == ONE:
                    m[i][c] = num
                else:
                    q = ex.try_divide(num, prev)
                    assert q is not None
                    m[i][c] = q
        pivots.append((piv_r, piv_c))
        prev = p
        piv_r += 1
        if piv_r == nrows:
            break
    d = prev
    pivot_cols = {c: r for r, c in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[f] = d
        for c, r in pivot_cols.items():
            if m[r][c] == d:
                vec[c] = -m[r][f]
            else:
                scaled = ex.try_divide(m[r][f] * d, m[r][c])
                assert scaled is not None
                vec[c] = -scaled
        basis.append(tuple(vec))
    return tuple(basis), len(pivots), tuple(assumptions)


def _bfs_components(rows, ncols):
    """The connected components of the row-column graph by breadth-first
    search: ``(rows, columns)``, both ascending, ordered by first column;
    rows without a nonzero cell belong to none."""
    row_cols = [{c for c, e in enumerate(r) if e} for r in rows]
    seen = set()
    comps = []
    for start in range(ncols):
        if start in seen:
            continue
        seen.add(start)
        comp_rows, comp_cols, queue = set(), {start}, [start]
        while queue:
            c = queue.pop()
            for i, cols in enumerate(row_cols):
                if c in cols and i not in comp_rows:
                    comp_rows.add(i)
                    for c2 in cols - seen:
                        seen.add(c2)
                        comp_cols.add(c2)
                        queue.append(c2)
        comps.append((sorted(comp_rows), sorted(comp_cols)))
    return comps


def _reference_primitive(p):
    """``p`` over the largest rational times constant monomial dividing
    all its terms, with its leading term (last in canonical order)
    positive."""
    items = p.term_items()
    num = den = 0
    for _, c in items:
        q = Fraction(c)
        num = gcd(num, q.numerator)
        den = q.denominator if not den else lcm(den, q.denominator)
    content = rational(Fraction(num, den))
    powers = [{s[1]: v for s, v in key if s[0] == 1} for key, _ in items]
    for nm in set().union(*powers):
        content = content * const(nm) ** min(pw.get(nm, 0) for pw in powers)
    out = p * content ** -1
    return -out if out.term_items()[-1][1] < 0 else out


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_primitive_part_matches_the_reference(seed):
    # the sign is read off the last term in canonical order, with
    # generators, constants and exponentials in the terms
    rng = random.Random(seed)
    e = random_expr(rng, max_terms=4, consts=("a", "b")) \
        * const("b") ** rng.randint(-2, 2) * _q(rng.randint(1, 9), 7)
    assert ex.primitive_part(e) == (_reference_primitive(e) if e else e)


def _blockwise_reference(rows, ncols):
    """``_reference_nullspace`` applied to each connected component on its
    own, its basis vectors embedded in order of free column, and the
    symbolic pivots, in component order, reduced to primitive parts
    without 1s and repeats.  Returns ``(basis, rank, assumptions)``."""
    vecs, rk, assumptions = {}, 0, []
    for comp_rows, cols in _bfs_components(rows, ncols):
        sub = [[rows[i][c] for c in cols] for i in comp_rows]
        basis, sub_rank, sub_assumptions = _reference_nullspace(sub, len(cols))
        rk += sub_rank
        assumptions += sub_assumptions
        for vec in basis:
            full = [ZERO] * ncols
            for c, e in zip(cols, vec):
                full[c] = e
            # in Gauss-Jordan form a free column's vector is nonzero there
            # and at pivot columns before it only
            vecs[max(c for c, e in enumerate(full) if e)] = tuple(full)
    normal = []
    for p in map(_reference_primitive, assumptions):
        if p != ONE and p not in normal:
            normal.append(p)
    return tuple(vecs[f] for f in sorted(vecs)), rk, tuple(normal)


def _sparse_rational_matrix(rng, max_size=12, zero_share=0.7):
    nrows = rng.randint(0, max_size)
    ncols = rng.randint(1, max_size)
    rows = [[ZERO if rng.random() < zero_share else
             _q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
             for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


def _symbolic_matrix(rng, max_size=5):
    a, b = const("a"), const("b")
    pool = [ZERO, ZERO, ZERO, a, b, a * b, a + 1, _q(2)]
    nrows = rng.randint(1, max_size)
    ncols = rng.randint(1, max_size)
    rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
    rows[rng.randrange(nrows)][rng.randrange(ncols)] = a  # not all rational
    return rows, ncols


def _fraction_dot(row, vec):
    return sum(Fraction(a.term_items()[0][1]) * Fraction(v.term_items()[0][1])
               for a, v in zip(row, vec) if a and v)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_sparse_rational_kernel_matches_dense_oracle(seed):
    rows, ncols = _sparse_rational_matrix(random.Random(seed))
    res = nullspace(rows, ncols)
    nullity = _dense_rational_nullity(rows, ncols)
    assert len(res.basis) == nullity and res.rank == ncols - nullity
    assert rank(rows, ncols) == res.rank
    # the basis lies in the kernel and is independent, so it spans the
    # kernel, whose dimension the oracle gave
    assert all(_fraction_dot(row, vec) == 0
               for vec in res.basis for row in rows)
    if res.basis:
        assert _dense_rational_nullity(list(res.basis), ncols) \
            == ncols - nullity


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_constants_give_the_dense_bareiss_result(seed):
    rows, ncols = _symbolic_matrix(random.Random(seed))
    res = nullspace(rows, ncols)
    basis, rk, assumptions = _blockwise_reference(rows, ncols)
    assert res.basis == basis
    assert res.rank == rk == rank(rows, ncols)
    assert res.pivot_assumptions == assumptions


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_in_span_matches_two_rank_definition(seed):
    rng = random.Random(seed)
    rows, ncols = _symbolic_matrix(rng)
    target = rows.pop()
    if rows and rng.random() < 0.5:  # a member over Q(a, b)
        target = [x + const("a") * y for x, y in zip(rows[0], rows[-1])]
    expected = (_reference_nullspace(rows, ncols)[1]
                == _reference_nullspace(rows + [target], ncols)[1])
    assert in_span(target, rows, ncols) == expected


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_in_span_rational_matches_two_rank_definition(seed):
    rng = random.Random(seed)
    rows, ncols = _sparse_rational_matrix(rng, max_size=8)
    rows.append([_q(rng.randint(-3, 3)) for _ in range(ncols)])
    target = rows.pop()
    if rows and rng.random() < 0.5:  # a member
        target = [x + _q(3) * y for x, y in zip(rows[0], rows[-1])]
    expected = (_dense_rational_nullity(rows, ncols)
                == _dense_rational_nullity(rows + [target], ncols))
    assert in_span(target, rows, ncols) == expected


class TestEngineEdgeCases:
    def test_no_rows(self):
        res = nullspace([], 3)
        assert res.rank == 0 and res.pivot_assumptions == ()
        assert res.basis == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO),
                             (ZERO, ZERO, ONE))
        assert rank([], 3) == 0

    def test_all_zero_column(self):
        rows = [[ONE, ZERO, _q(2)], [_q(3), ZERO, ONE]]
        res = nullspace(rows, 3)
        assert res.rank == 2
        assert res.basis == ((ZERO, ONE, ZERO),)

    def test_one_symbolic_entry_takes_the_fraction_free_domain(self):
        a = const("a")
        rows = [[_q(2), _q(4), a], [ZERO, _q(3), ONE]]
        res = nullspace(rows, 3)
        # fraction-free: the free column carries the last pivot, 6; plain
        # Gauss-Jordan would give (2/3 - a/2, -1/3, 1)
        assert res.basis == _reference_nullspace(rows, 3)[0]
        assert res.basis == ((_q(4) - _q(3) * a, _q(-2), _q(6)),)
        assert res.pivot_assumptions == ()
        for row in rows:
            assert sum((x * y for x, y in zip(row, res.basis[0])), ZERO) \
                == ZERO

    def test_rational_basis_has_unit_free_entries(self):
        rows = [[_q(2), _q(4), _q(6)]]
        res = nullspace(rows, 3)
        assert res.basis == ((_q(-2), ONE, ZERO), (_q(-3), ZERO, ONE))

    def test_in_span_with_empty_basis(self):
        a = const("a")
        assert in_span([ZERO, ZERO, ZERO], [], 3)
        assert not in_span([ZERO, a, ZERO], [], 3)
        assert not in_span([_q(1, 2), ZERO, ZERO], [], 3)

    def test_in_span_over_the_constants(self):
        # (a, a*b) = a * (1, b): a member over Q(a, b), not over Q
        a, b = const("a"), const("b")
        assert in_span([a, a * b], [[ONE, b]], 2)
        assert in_span([a, a], [[ONE, ONE]], 2)
        assert not in_span([a, b], [[ONE, ONE]], 2)

    def test_ragged_in_span_rejected(self):
        with pytest.raises(ValueError):
            in_span([ONE, ZERO], [[ONE]], 2)


# -- packed constant monomials ---------------------------------------------

def _wide_matrix(rng, max_size=4):
    """Three constants, negative powers, fractional coefficients, powers up
    to a^4 and sums of them."""
    a, b, c = const("a"), const("b"), const("c")
    pool = [ZERO, ZERO, ZERO, ONE, _q(2), a ** -1, a * b ** -2,
            _q(3, 7) * c, a ** 4, a ** 2 - _q(3, 5) * b, c - b, a * b * c,
            b ** 2 + _q(1, 2), c ** -1 - a]
    nrows = rng.randint(1, max_size)
    ncols = rng.randint(1, max_size)
    rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
    rows[rng.randrange(nrows)][rng.randrange(ncols)] = a ** 2 - _q(3, 5) * b
    return rows, ncols


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_wide_constant_pool_gives_the_dense_bareiss_result(seed):
    rng = random.Random(seed)
    rows, ncols = _wide_matrix(rng)
    res = nullspace(rows, ncols)
    basis, rk, assumptions = _blockwise_reference(rows, ncols)
    assert res.basis == basis
    assert res.rank == rk == rank(rows, ncols)
    assert res.pivot_assumptions == assumptions
    # canonical coefficients: ints whenever integral
    assert all(type(c) is int or c.denominator != 1
               for e in (*sum(res.basis, ()), *res.pivot_assumptions)
               for _, c in e.term_items())
    target = rows.pop()
    if rows and rng.random() < 0.5:  # a member over Q(a, b, c)
        target = [p + const("c") ** -1 * q
                  for p, q in zip(rows[0], rows[-1])]
    expected = (_reference_nullspace(rows, ncols)[1]
                == _reference_nullspace(rows + [target], ncols)[1])
    assert in_span(target, rows, ncols) == expected


# -- one domain: every matrix on the integer fraction-free sweep ----------

def _reference_rref(rows, ncols):
    """Pivot-normalising Gauss-Jordan over ``Fraction`` on the whole matrix,
    the rational domain the integer sweep replaced: ``(basis, rank)``, the
    basis vector of a free column f having 1 at f and minus the reduced row
    echelon entries at the pivot columns."""
    m = [{c: Fraction(e.term_items()[0][1]) for c, e in enumerate(r) if e}
         for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if c in m[i]), None)
        if sel is None:
            continue
        m[sel], m[r] = m[r], m[sel]
        inv = 1 / m[r][c]
        m[r] = {k: v * inv for k, v in m[r].items()}
        for i, row in enumerate(m):
            f = row.get(c)
            if f is not None and i != r:
                for k, v in m[r].items():
                    nv = row.get(k, 0) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, c in zip(m, pivots):
            if f in row:
                vec[c] = rational(-row[f])
        basis.append(tuple(vec))
    return tuple(basis), len(pivots)


def _sevenths_and_thirteenths(rng, max_size=8):
    """A sparse rational matrix with the benchmark's denominators."""
    nrows = rng.randint(0, max_size)
    ncols = rng.randint(1, max_size)
    rows = [[ZERO if rng.random() < 0.5 else
             _q(rng.randint(-30, 30), rng.choice([1, 7, 13, 91]))
             for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_rational_matrices_give_the_reduced_row_echelon_basis(seed):
    rng = random.Random(seed)
    rows, ncols = _sevenths_and_thirteenths(rng)
    res = nullspace(rows, ncols)
    basis, rk = _reference_rref(rows, ncols)
    assert res.basis == basis
    assert res.rank == rk == rank(rows, ncols)
    assert res.pivot_assumptions == ()
    target = [_q(rng.randint(-5, 5), rng.choice([7, 13]))
              for _ in range(ncols)]
    if rows and rng.random() < 0.5:  # a member
        target = [p + _q(5, 13) * q for p, q in zip(rows[0], rows[-1])]
    expected = _reference_rref(rows + [target], ncols)[1] == rk
    assert in_span(target, rows, ncols) == expected


@pytest.mark.parametrize("make, loop", [
    (_sevenths_and_thirteenths, "_sweep_mod"), (_wide_matrix, "_fms")],
    ids=["rational", "symbolic"])
def test_the_sweep_sees_integers_only(monkeypatch, make, loop):
    # fractional entries are cleared once, by the lcm of all denominators:
    # the modular loop of a rational matrix and the fraction-free one of a
    # symbolic matrix see ints only
    inner, seen = getattr(linalg, loop), []

    def spy(first, *rest):
        polys = first if loop == "_sweep_mod" else (first, *rest)
        seen.extend(c for poly in polys if poly for c in poly.values())
        return inner(first, *rest)

    monkeypatch.setattr(linalg, loop, spy)
    rng = random.Random(5)
    fractional = False
    for _ in range(20):
        rows, ncols = make(rng)
        fractional |= any(type(c) is Fraction for row in rows for e in row
                          for _, c in e.term_items())
        nullspace(rows, ncols)
        rank(rows, ncols)
        if rows:
            in_span(rows.pop(), rows, ncols)
    assert fractional
    assert seen and all(type(c) is int for c in seen)


def test_the_a_v_check_fires_on_a_corrupted_basis(monkeypatch):
    # the check sums products whose denominators differ (7, 13 and the
    # corruption's 11); one wrong basis entry, planted in the lift of every
    # prime, must make it raise once the component's primes run out
    lift, calls = linalg._lift, []

    def corrupt_first(m, residues):
        vecs = lift(m, residues)
        calls.append(m)
        vec = next(iter(vecs.values()))
        c = next(iter(vec))
        vec[c] = vec[c] + rational(1, 11)
        return vecs

    rows = [[rational(1, 7), rational(2, 13), ZERO],
            [ZERO, rational(3, 13), rational(-5, 7)]]
    assert len(nullspace(rows, 3).basis) == 1
    monkeypatch.setattr(linalg, "_lift", corrupt_first)
    with pytest.raises(RuntimeError,
                       match=r"^nullspace verification failed \(bug\)$"):
        nullspace(rows, 3)
    assert calls


# -- the modular path ---------------------------------------------------------

P = linalg._PRIMES[0]


def _rref_pivots(basis, ncols):
    """The pivot columns of a reduced row echelon kernel basis: every column
    but the free ones, each the last nonzero entry of its vector."""
    free = {max(c for c, e in enumerate(vec) if e) for vec in basis}
    return tuple(c for c in range(ncols) if c not in free)


def _modular_matrix(rng, max_size=6):
    """A sparse rational matrix mixing small rationals, multiples of the
    first prime in numerators and denominators (which it reads as zero or
    cannot invert), and entries of up to 90 bits over up to 40 (which one
    prime cannot reconstruct), with an empty row or column at times."""
    nrows = rng.randint(0, max_size)
    ncols = rng.randint(1, max_size)
    share = rng.random()

    def entry():
        kind = rng.random()
        if kind < share:
            return ZERO
        if kind < share + 0.3 * (1 - share):
            return _q(rng.choice([-1, 1]) * rng.randint(1, 9),
                      rng.randint(1, 5))
        if kind < share + 0.7 * (1 - share):
            return _q(rng.choice([-1, 1]) * rng.randint(1, 3)
                      * rng.choice([1, P]), rng.choice([1, 2, P]))
        return _q(rng.randint(-2 ** 90, 2 ** 90), rng.randint(1, 2 ** 40))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [ZERO] * ncols
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = ZERO
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_the_modular_path_gives_the_reduced_row_echelon_basis(seed):
    rows, ncols = _modular_matrix(random.Random(seed))
    res = nullspace(rows, ncols)
    basis, rk = _reference_rref(rows, ncols)
    assert res.basis == basis
    assert res.pivots == _rref_pivots(basis, ncols)
    assert res.rank == rk == rank(rows, ncols)
    assert res.pivot_assumptions == ()


def _primes_taken(monkeypatch) -> list[int]:
    """The prime of every modular sweep, recorded."""
    sweep, taken = linalg._sweep_mod, []

    def spy(rows, cols, p):
        taken.append(p)
        return sweep(rows, cols, p)

    monkeypatch.setattr(linalg, "_sweep_mod", spy)
    return taken


def test_a_multiple_of_the_first_prime_forces_a_retry(monkeypatch):
    # modulo P the row vanishes and both unit vectors fail A v = 0; the
    # next prime finds the pivot, and its vector needs no other prime
    taken = _primes_taken(monkeypatch)
    res = nullspace([[_q(P), _q(P)]], 2)
    assert res.basis == ((_q(-1), ONE),) and res.pivots == (0,)
    assert taken == list(linalg._PRIMES[:2])


def test_entries_beyond_one_prime_are_combined(monkeypatch):
    # -b/a has 70 bits above and below: three primes reconstruct it
    a, b = 3 ** 44, 2 ** 69 + 3
    taken = _primes_taken(monkeypatch)
    res = nullspace([[_q(a), _q(b)]], 2)
    assert res.basis == ((_q(-b, a), ONE),) and res.pivots == (0,)
    assert taken == list(linalg._PRIMES[:3])


def test_an_unlucky_prime_and_reconstruction_reach_the_cap(monkeypatch):
    # modulo P column 0 vanishes, a false pivot in column 1; -1/P then
    # needs three more primes, all the cap of 1 + 3 allows
    taken = _primes_taken(monkeypatch)
    res = nullspace([[_q(P), ONE]], 2)
    assert res.basis == ((_q(-1, P), ONE),) and res.pivots == (0,)
    assert len(taken) == linalg._prime_cap([{0: P, 1: 1}], 2) == 4


def test_a_dropped_vector_raises(monkeypatch):
    # every kept vector verifies, but the component's nullity is 2: a lost
    # vector must not pass as a smaller kernel
    sweep = linalg._sweep_mod

    def drop_last(rows, cols, p):
        pivots, vectors = sweep(rows, cols, p)
        vectors.pop(max(vectors))
        return pivots, vectors

    monkeypatch.setattr(linalg, "_sweep_mod", drop_last)
    with pytest.raises(RuntimeError, match="1 vectors for nullity 2"):
        nullspace([[ONE, _q(2), _q(3)]], 3)


def test_a_corrupted_residue_raises_at_the_cap(monkeypatch):
    # one residue of the sweep's vector is off by one at every prime, so no
    # lift verifies, and the component stops at its cap
    sweep, taken = linalg._sweep_mod, []

    def corrupt(rows, cols, p):
        taken.append(p)
        pivots, vectors = sweep(rows, cols, p)
        vectors[1][0] = (vectors[1][0] + 1) % p
        return pivots, vectors

    monkeypatch.setattr(linalg, "_sweep_mod", corrupt)
    a, b = 3 ** 44, 2 ** 69 + 3
    with pytest.raises(RuntimeError,
                       match=r"^nullspace verification failed \(bug\)$"):
        nullspace([[_q(a), _q(b)]], 2)
    assert len(taken) == linalg._prime_cap([{0: a, 1: b}], 2) == 4


def test_the_primes_are_the_first_below_2_to_the_61():
    got = list(itertools.islice(linalg._primes(), 12))
    assert got[:len(linalg._PRIMES)] == list(linalg._PRIMES)
    assert got[0] == 2 ** 61 - 1 and got[-1] > 2 ** 60
    assert [2 ** 61 - p for p in got] == [1, 31, 45, 229, 259, 283, 339,
                                          391, 403, 465, 531, 579]
    # none skipped: every odd number between two taken is composite
    assert all(not linalg._is_prime(n)
               for hi, lo in zip(got, got[1:]) for n in range(lo + 2, hi, 2))


def test_the_prime_test_agrees_with_trial_division():
    def trial(n):
        return all(n % d for d in range(3, isqrt(n) + 1, 2))

    assert all(linalg._is_prime(n) == trial(n) for n in range(25, 20_000, 2))
    # strong pseudoprimes to the bases 2, 3, 5 and 7
    assert not linalg._is_prime(3_215_031_751)
    assert not linalg._is_prime(2_152_302_898_747)


# -- connected components -------------------------------------------------

class TestComponents:
    def test_components_by_union_find(self):
        m = [{0: 1, 3: 1}, {}, {1: 1}, {3: 1, 4: 1}]
        assert linalg._components(m, 6) == [([0, 3], [0, 3, 4]), ([2], [1]),
                                            ([], [2]), ([], [5])]

    def test_block_diagonal_assumptions_hold_no_cross_block_products(self):
        # blocks on columns 0, 2, 4 and 1, 3, interleaved, an empty row and
        # an empty column 5; a single sweep chaining every pivot through
        # one previous pivot would list a product of the two blocks' minors
        a, b, c = const("a"), const("b"), const("c")
        rows = [[a, ZERO, ONE, ZERO, b, ZERO],
                [ZERO, c, ZERO, ONE, ZERO, ZERO],
                [ZERO] * 6,
                [ONE, ZERO, b, ZERO, ONE, ZERO],
                [ZERO, ONE, ZERO, c + 1, ZERO, ZERO]]
        res = nullspace(rows, 6)
        assert res.pivot_assumptions == (a * b - 1, c ** 2 + c - 1)
        assert res.basis == (
            (b ** 2 - 1, ZERO, a - b, ZERO, 1 - a * b, ZERO),
            (ZERO, ZERO, ZERO, ZERO, ZERO, ONE))
        assert res.rank == rank(rows, 6) == 4
        assert (res.basis, res.rank, res.pivot_assumptions) \
            == _blockwise_reference(rows, 6)
        assert _reference_nullspace(rows, 6)[2] \
            == (1 - a * b, (1 - a * b) * (1 - c - c ** 2))

    @pytest.mark.parametrize("symbol", [ONE, const("a")])
    def test_empty_columns_and_rows_are_their_own_components(self, symbol):
        # the empty columns' vectors are unit vectors, not scaled by the
        # pivots of the other block; the empty row adds nothing
        rows = [[ZERO, symbol, _q(2), ZERO],
                [ZERO] * 4,
                [ZERO, _q(3), symbol + 1, ZERO]]
        res = nullspace(rows, 4)
        assert res.rank == rank(rows, 4) == 2
        assert res.basis == ((ONE, ZERO, ZERO, ZERO),
                             (ZERO, ZERO, ZERO, ONE))
        assert not in_span([ONE, ZERO, ZERO, ZERO], rows, 4)
        assert in_span([ZERO, _q(3), symbol + 1, ZERO], rows, 4)


def _block_matrix(rng, symbolic):
    """One to three random blocks (the first with a constant when
    ``symbolic``, the others with or without) and possibly an empty one,
    on disjoint, shuffled rows and columns."""
    pieces = []
    for k in range(rng.randint(1, 3)):
        if symbolic and (k == 0 or rng.random() < 0.5):
            pieces.append(_symbolic_matrix(rng, max_size=3))
        else:
            pieces.append(_sparse_rational_matrix(rng, max_size=3))
    n_empty = rng.randint(0, 1)
    pieces.append(([[ZERO] * n_empty] * rng.randint(0, 1), n_empty))
    nrows = sum(len(sub) for sub, _ in pieces)
    ncols = sum(n for _, n in pieces)
    row_at = rng.sample(range(nrows), nrows)
    col_at = rng.sample(range(ncols), ncols)
    rows = [[ZERO] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for sub, n in pieces:
        for i, row in enumerate(sub):
            for j, e in enumerate(row):
                rows[row_at[r0 + i]][col_at[c0 + j]] = e
        r0 += len(sub)
        c0 += n
    return rows, ncols


@settings(max_examples=120, deadline=None)
@given(seeds, st.booleans())
def test_block_structured_matrices_match_the_references(seed, symbolic):
    rng = random.Random(seed)
    rows, ncols = _block_matrix(rng, symbolic)
    res = nullspace(rows, ncols)
    if symbolic:
        assert (res.basis, res.rank, res.pivot_assumptions) \
            == _blockwise_reference(rows, ncols)
    else:
        assert len(res.basis) == _dense_rational_nullity(rows, ncols)
    assert res.rank == rank(rows, ncols) == _reference_nullspace(rows,
                                                                 ncols)[1]
    # the pivots are the columns that raise the rank of their prefix
    prefix = [_reference_nullspace([r[:k] for r in rows], k)[1]
              for k in range(ncols + 1)]
    assert res.pivots == tuple(c for c in range(ncols)
                               if prefix[c + 1] > prefix[c])
    assert res.rank == len(res.pivots)
    # a target across the blocks, a member half the time
    factor = const("a") if symbolic else _q(3)
    if rows and rng.random() < 0.5:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        target = [p + factor * q for p, q in zip(rows[i], rows[j])]
    else:
        target = [rng.choice([ZERO, ONE, factor]) for _ in range(ncols)]
    expected = (_reference_nullspace(rows, ncols)[1]
                == _reference_nullspace(rows + [target], ncols)[1])
    assert in_span(target, rows, ncols) == expected


# -- the pending scale --------------------------------------------------------

@pytest.mark.parametrize("cells, assumptions", [
    ([["a", "0"], ["a", "1 + a"], ["0", "1"]], ("a + 1",)),
    ([["a", "0", "1"], ["a", "1 + a", "0"], ["0", "1", "1"]],
     ("a + 1", "a + 2")),
])
def test_the_rational_preference_reads_the_current_entry(cells, assumptions):
    # the first sweep leaves the third row, without column 0, at its stored
    # entry 1 in column 1, whose current entry is the pivot a; read from
    # the stored entry, the preference would take the third row as pivot
    # and lose the assumption a + 1 of the second row's a^2 + a
    rows = _matrix(cells)
    res = nullspace(rows, len(cells[0]))
    assert (res.basis, res.rank, res.pivot_assumptions) \
        == _blockwise_reference(rows, len(cells[0]))
    assert res.pivot_assumptions == tuple(parse(p, "a") for p in assumptions)


@pytest.mark.parametrize("symbolic, seed", [(False, 24), (True, 26)],
                         ids=["rational", "symbolic"])
def test_only_rows_holding_the_pivot_column_are_combined(monkeypatch,
                                                         symbolic, seed):
    # a row without the pivot column keeps its pending scale and is left
    # alone; in these matrices a sweep rescaling every row of a component
    # would combine 2 and 4 such rows.  A rational matrix takes the modular
    # path in nullspace, so its sweep is run directly, component by
    # component, and must find nullspace's pivots
    combine, seen = linalg._combine_rows, []

    def spy_combine(row, row_p, c, *rest):
        seen.append(c in row)
        return combine(row, row_p, c, *rest)

    monkeypatch.setattr(linalg, "_combine_rows", spy_combine)
    rows, ncols = _block_matrix(random.Random(seed), symbolic)
    res = nullspace(rows, ncols)
    assert res.rank == _reference_nullspace(rows, ncols)[1]
    if symbolic:
        assert (res.basis, res.rank, res.pivot_assumptions) \
            == _blockwise_reference(rows, ncols)
    else:
        assert not seen
        # nullspace reads a rational matrix as ints; the sweep meets such
        # components packed, inside matrices with named constants, so pack
        # the block over one constant slot as such a matrix would
        original, _, _, den = ex.constant_rows(rows, 0)
        pk = _Packing([(1, "a")], 2 * min(len(rows), ncols))
        m = [{c: pk.pack(e, den) for c, e in row.items()} for row in original]
        pivots = []
        for members, cols in linalg._components(m, ncols):
            pivots += linalg._sweep([m[i] for i in members], cols, pk, [])[0]
        assert tuple(sorted(pivots)) == res.pivots
        assert res.basis == _reference_rref(rows, ncols)[0]
    assert seen and all(seen)


class TestInputCheck:
    @pytest.mark.parametrize("entry", [u(), x, exp_of(x), const("a") * u(2)])
    def test_non_constant_entries_are_rejected(self, entry):
        # a rational pivot in the first column left the second one unread
        for rows in ([[ONE, entry]], [[const("a"), entry]]):
            with pytest.raises(ValueError, match="constant expressions"):
                nullspace(rows, 2)
            with pytest.raises(ValueError, match="constant expressions"):
                rank(rows, 2)
            with pytest.raises(ValueError, match="constant expressions"):
                in_span([ZERO, ZERO], rows, 2)
            with pytest.raises(ValueError, match="constant expressions"):
                in_span(rows[0], [[ONE, ONE]], 2)

    @pytest.mark.parametrize("entry", [3, 0, 1.5, "a", None])
    def test_non_expression_entries_are_rejected(self, entry):
        # an int 0 is not read as zero, nor any other entry as a constant
        for rows in ([[entry]], [[ONE, entry]]):
            ncols = len(rows[0])
            with pytest.raises(ValueError, match="constant expressions"):
                nullspace(rows, ncols)
            with pytest.raises(ValueError, match="constant expressions"):
                rank(rows, ncols)
            with pytest.raises(ValueError, match="constant expressions"):
                in_span([ZERO] * ncols, rows, ncols)
            with pytest.raises(ValueError, match="constant expressions"):
                in_span(rows[0], [[ONE] * ncols], ncols)


def _packed(names, num, *divisors):
    """The packing of ``names`` and the polynomials cleared of denominators
    as the sweep meets them: with ``den`` the lcm of all their
    denominators, each divisor (an entry) times ``den`` and the numerator
    (a product of two entries) times ``den^2``, so an exact quotient is
    ``den`` times the rational one.  Returns ``(packing, polys, den)``."""
    pk = _Packing([(1, nm) for nm in sorted(names)], 8)
    den = lcm(*(c.denominator for p in (num, *divisors)
                for _, c in p.term_items()))
    return (pk, [pk.pack(num, den * den)]
            + [pk.pack(p, den) for p in divisors], den)


def _inexact_in_the_sweep(num: dict, div, pk) -> None:
    """The sweep's combination step on a cell whose numerator is ``num``
    (pivot 1 and an empty pivot row) raises on the division."""
    with pytest.raises(RuntimeError, match="inexact division"):
        linalg._combine_rows({0: num}, {}, 1, {0: 1}, div, pk)


class TestPackedDivision:
    @pytest.mark.parametrize("num, den", [
        ("1", "c + 2"),
        ("a", "b + 1"),
        ("a^2 + 1", "a + 1"),
        ("a*b + 1", "a - b"),
        ("c^-1", "a^2*c + b"),
    ])
    def test_non_multiple_raises(self, num, den):
        # without the degree box the lex descent would go on for ever
        # through ever more negative powers; the shared division refutes,
        # and the sweep raises on the refutation
        pk, (n, d), _ = _packed("abc", parse(num, "abc"), parse(den, "abc"))
        assert _divide(dict(n), pk.divisor(d), pk) is None
        _inexact_in_the_sweep(n, pk.divisor(d), pk)

    @pytest.mark.parametrize("num, den", [("3*a + 3", "2*a + 2"),
                                          ("3", "2"), ("a^2 - 1", "2*a - 2")])
    def test_non_integral_quotient_raises(self, num, den):
        # exact over Q but not over Z, which the cleared sweep never meets:
        # the shared division needs the scale 2, and the sweep raises
        pk = _Packing([(1, "a")], 8)
        n, d = (pk.pack(parse(p, "a"), 1) for p in (num, den))
        quo, s = _divide(dict(n), pk.divisor(d), pk)
        assert s == 2
        assert pk.unpack(quo, s) * pk.unpack(d) == pk.unpack(n)
        _inexact_in_the_sweep(n, pk.divisor(d), pk)

    @pytest.mark.parametrize("q, den", [
        ("a - 1", "a + 1"),
        ("3/7*c^-1 + a*b^-2", "a^2 - 3/5*b"),
        ("a^2 - b*c + 2", "c - b + a^-1"),
        ("5", "b^-1"),
    ])
    def test_exact_multiple_gives_the_quotient(self, q, den):
        qe, de = parse(q, "abc"), parse(den, "abc")
        pk, (n, d), scale = _packed("abc", qe * de, de)
        quo, s = _divide(n, pk.divisor(d), pk)
        assert s == 1
        assert pk.unpack(quo, scale) == qe


def _products_reach(monkeypatch):
    """Record the largest exponent magnitude of any monomial product that
    ``_fms`` forms, and the digit half-width L of the packing."""
    seen = {"L": None, "top": 0}
    constant_rows, fms = ex.constant_rows, linalg._fms

    def spy_constant_rows(rows, reach):
        out = constant_rows(rows, reach)
        pk = out[2]
        seen["pk"], seen["L"] = pk, pk.half
        return out

    def spy_fms(p, a, f, b):
        pk = seen["pk"]
        for s, t in ((p, a), (f, b)):
            if s is None or t is None:
                continue
            for ks in s:
                for kt in t:
                    top = max(abs(d - pk.half) for d in pk.digits(ks + kt))
                    seen["top"] = max(seen["top"], top)
        return fms(p, a, f, b)

    monkeypatch.setattr(ex, "constant_rows", spy_constant_rows)
    monkeypatch.setattr(linalg, "_fms", spy_fms)
    return seen


def _matrix(cells):
    return [[parse(c, "ab") for c in row] for row in cells]


def test_exponents_at_the_proven_bound(monkeypatch):
    # E = 2: with R = 3 pivots nullspace takes L = 2RE = 12, and so does
    # in_span, two ranks on the same sweep; products in both reach exactly L
    rows = _matrix([["b^-2", "b^2 - 1", "b^2"],
                    ["b^2 + a", "b^2 + a", "b^2 - 1"],
                    ["b^2 + a", "b^2 - 1", "a^-2"],
                    ["a*b", "b^2", "1"]])
    seen = _products_reach(monkeypatch)
    res = nullspace(rows, 3)
    assert (seen["L"], seen["top"]) == (12, 12)
    assert (res.basis, res.rank, res.pivot_assumptions) \
        == _blockwise_reference(rows, 3)

    rows = _matrix([["b^2 - 1", "b^2", "1"],
                    ["b^-2", "b^2", "a^-2"],
                    ["0", "a*b", "b^2"]])
    target = _matrix([["a*b", "b^-2", "b^2"]])[0]
    seen["top"] = 0
    got = in_span(target, rows, 3)
    assert (seen["L"], seen["top"]) == (12, 12)
    assert got == (_reference_nullspace(rows, 3)[1]
                   == _reference_nullspace(rows + [target], 3)[1])
