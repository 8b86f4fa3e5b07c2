import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (AnsatzConfig, PoolLimitError, classify, const,
                    expr_in_span, exp_of, find_linear_t_symmetries,
                    find_symmetries, is_symmetry, parse, u, u_order, x, t)
from evosym import search
from evosym.expr import ONE, ZERO, DiffExpr, rational
from evosym.search import _linear_system, ansatz_terms
from evosym.symmetry import SelfCheckError
from evosym.timedep import MasterResult

u0, u1 = u(0), u(1)
F_KDV = parse("u3 + 6*u*u1")
G5 = parse("u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1")


class TestPool:
    def test_scaling_weights(self, kdv):
        cfg = AnsatzConfig(order=5, weight_max=7)
        pool = ansatz_terms(kdv, cfg)
        assert u(5) in pool and u0 * u(3) in pool and u0 ** 2 * u1 in pool
        assert u(5) * u0 not in pool  # weight 9

    def test_x_and_t_lower_the_weight(self, kdv):
        cfg = AnsatzConfig(order=1, weight_max=3, t_degree_max=1,
                           x_degree_max=1)
        pool = ansatz_terms(kdv, cfg)
        assert t * u(1) ** 2 in pool  # weight 6 - 3 = 3
        assert x * u0 ** 2 in pool    # weight 4 - 1 = 3

    def test_cap(self, kdv):
        with pytest.raises(PoolLimitError):
            ansatz_terms(kdv, AnsatzConfig(order=9, weight_max=40,
                                           max_pool=50))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            AnsatzConfig(order=-1, weight_max=3)

    def test_order_beyond_the_weight_budget_adds_nothing(self, kdv):
        # u_i weighs i + 2, so with weight 7 no u_i above u_5 fits
        cfg = AnsatzConfig(order=5, weight_max=7)
        assert ansatz_terms(kdv, AnsatzConfig(order=100_000, weight_max=7)) \
            == ansatz_terms(kdv, cfg)

    @pytest.mark.parametrize("w0", [1, 2, 3])
    def test_monomials_match_the_full_recursion(self, w0):
        for order in range(6):
            for weight in range(-1, 10):
                assert list(search._u_monomials(order, weight, w0)) \
                    == list(_reference_u_monomials(order, weight, w0))


def _reference_u_monomials(order, weight_max, w0):
    """The same monomials by the plain recursion: one level per index up to
    ``order``, without stopping where the budget admits no further u_i."""
    def rec(i, budget):
        if i > order:
            yield ()
            return
        e = 0
        while e * (i + w0) <= budget:
            for rest in rec(i + 1, budget - e * (i + w0)):
                yield ((i, e),) + rest if e else rest
            e += 1
    return rec(0, weight_max)


class TestFindSymmetries:
    def test_kdv_order_five(self, kdv):
        res = find_symmetries(kdv, AnsatzConfig(order=5, weight_max=7))
        assert res.basis  # soundness is asserted inside the search
        assert any(u_order(g) == 5 for g in res.basis)
        assert expr_in_span(G5, list(res.basis))
        # exactly one order-5 element modulo lower order: the leading
        # coefficients du/du_5 are scalars, so it suffices that one exists
        # and that removing it drops the order
        top = [g for g in res.basis if u_order(g) == 5]
        assert len(top) >= 1

    def test_galilean_recovered(self, kdv):
        res = find_symmetries(kdv, AnsatzConfig(order=1, weight_max=3,
                                                t_degree_max=1))
        assert expr_in_span(parse("1 + 6*t*u1"), list(res.basis))
        assert expr_in_span(u1, list(res.basis))

    def test_linear_equation_derivative_flows(self):
        eq = classify(parse("u3"))
        res = find_symmetries(eq, AnsatzConfig(order=5, weight_max=7))
        assert expr_in_span(u(5), list(res.basis))

    def test_mkdv_hierarchy_under_its_own_grading(self):
        # u_t = u3 + u^2*u1 scales with weight(u) = 1; its fifth-order flow
        # sits at weight 6
        eq = classify(parse("u3 + u^2*u1"))
        res = find_symmetries(eq, AnsatzConfig(order=5, weight_max=6,
                                               base_weight=1))
        flow5 = parse("6*u5 + 10*u^2*u3 + 40*u*u1*u2 + 10*u1^3 + 5*u^4*u1")
        assert expr_in_span(flow5, list(res.basis))
        assert is_symmetry(eq, flow5).is_symmetry

    def test_exponential_rate_factor(self, heat):
        # u_t = u2: exp(t) exp(x) is found inside the exp(1*t)-ansatz
        cfg = AnsatzConfig(order=0, weight_max=2, exp_rate=ONE)
        pool = [exp_of(x), exp_of(2 * x)]
        pool = [p * exp_of(t) for p in pool]
        res = find_symmetries(heat, cfg, pool=pool)
        assert len(res.basis) == 1
        assert expr_in_span(exp_of(t) * exp_of(x), list(res.basis))

    def test_formal_constants_in_equation(self):
        a, b, d = const("a"), const("b"), const("d")
        F = parse("u3 - u1^3/2 + (a*exp(2*u) + b*exp(-2*u) + d)*u1",
                  ("a", "b", "d"))
        eq = classify(F)
        pool = [u(3), u1 ** 3, exp_of(2 * u0) * u1, exp_of(-2 * u0) * u1, u1]
        res = find_symmetries(eq, AnsatzConfig(order=3, weight_max=5),
                              pool=pool)
        assert expr_in_span(F, list(res.basis))

    def test_nullity_invariant_under_pool_permutation(self, kdv):
        cfg = AnsatzConfig(order=3, weight_max=5, t_degree_max=1,
                           x_degree_max=1)
        pool = ansatz_terms(kdv, cfg)
        res = find_symmetries(kdv, cfg, pool=pool)
        rng = random.Random(7)
        for _ in range(3):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            res2 = find_symmetries(kdv, cfg, pool=shuffled)
            assert len(res2.basis) == len(res.basis)


class TestPlantAndRecover:
    @pytest.mark.parametrize("planted", [
        "u1", "u3 + 6*u*u1", "1 + 6*t*u1",
    ])
    def test_recovery(self, kdv, planted):
        target = parse(planted)
        cfg = AnsatzConfig(order=3, weight_max=5, t_degree_max=1,
                           x_degree_max=0)
        res = find_symmetries(kdv, cfg)
        assert expr_in_span(target, list(res.basis))


class TestLinearT:
    def test_kdv_pairs(self, kdv):
        res = find_linear_t_symmetries(
            kdv, AnsatzConfig(order=3, weight_max=5, x_degree_max=1))
        assert res.pairs
        # the scaling pair: G1 proportional to F
        assert any(p.mu is not None and not p.mu.is_zero for p in res.pairs)
        # the Galilean pair: G1 proportional to u1
        assert any(expr_in_span(p.G1, [u1]) for p in res.pairs)

    def test_monomial_pivots_leave_no_assumptions(self):
        # every symbolic pivot of both eliminations is k*a^j, nonzero
        # with the constant a
        eq = classify(parse("u3 + a*u*u1", ["a"]))
        res = find_linear_t_symmetries(
            eq, AnsatzConfig(order=3, weight_max=5, x_degree_max=1))
        assert res.pairs
        assert res.pivot_assumptions == ()

    def test_symmetry_only_pool_gives_nothing(self, kdv):
        res = find_linear_t_symmetries(
            kdv, AnsatzConfig(order=1, weight_max=3), pool=[u1])
        assert res.pairs == ()

    def test_linear_equation(self):
        eq = classify(parse("u3"))
        res = find_linear_t_symmetries(
            eq, AnsatzConfig(order=1, weight_max=3, x_degree_max=1))
        assert res.pairs
        for p in res.pairs:
            assert is_symmetry(eq, p.G0 + t * p.G1).is_symmetry

    def test_time_dependent_pool_rejected(self, kdv):
        with pytest.raises(ValueError):
            find_linear_t_symmetries(
                kdv, AnsatzConfig(order=1, weight_max=3, t_degree_max=1))


def _reference_linear_system(images):
    """The system built term by term: a rational coefficient per term
    (``term_items``), a ``DiffExpr`` per term, and ``+`` into its cell."""
    row_index = {}
    rows = []
    ncols = len(images)
    for col, img in enumerate(images):
        for key, c in img.term_items():
            row_key = tuple((s, v) for s, v in key if s[0] != 1)
            cmono = tuple((s[1], v) for s, v in key if s[0] == 1)
            i = row_index.get(row_key)
            if i is None:
                i = row_index[row_key] = len(rows)
                rows.append([ZERO] * ncols)
            entry = DiffExpr({tuple(((1, nm), e) for nm, e in cmono): c})
            rows[i][col] = rows[i][col] + entry
    return rows, ncols


def _random_images(rng):
    """Sums of terms with denominators 1, 7 and 13, powers of the named
    constants a and b (negative ones too) and exponential factors with
    constant rates; some images are differences of earlier ones, whose
    common terms cancel (to zero for an image minus itself)."""
    images = []
    for _ in range(rng.randint(1, 6)):
        if images and rng.random() < 0.3:
            images.append(rng.choice(images) - rng.choice(images))
            continue
        img = ZERO
        for _ in range(rng.randint(0, 6)):
            term = rational(Fraction(rng.choice((-9, -4, -1, 1, 2, 5, 12)),
                                     rng.choice((1, 7, 13))))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice((u0, u1, u(2), x, t))
            for name in ("a", "b"):
                if rng.random() < 0.4:
                    term = term * const(name) ** rng.choice((-1, 1, 2))
            if rng.random() < 0.2:
                term = term * exp_of(rng.choice((1, const("a"))) * t)
            img = img + term
        images.append(img)
    return images


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_linear_system_matches_the_term_by_term_build(seed):
    images = _random_images(random.Random(seed))
    rows, ncols = _linear_system(images)
    ref_rows, ref_ncols = _reference_linear_system(images)
    assert ncols == ref_ncols == len(images)
    assert rows == ref_rows  # the same rows in the same order, cell by cell


def test_linear_t_pairs_are_rechecked_by_the_mastersymmetry_test(
        kdv, monkeypatch):
    cfg = AnsatzConfig(order=3, weight_max=5, x_degree_max=1)
    calls = []
    real = search.mastersymmetry_test

    def spy(eq, G0):
        calls.append(G0)
        return real(eq, G0)

    monkeypatch.setattr(search, "mastersymmetry_test", spy)
    res = find_linear_t_symmetries(kdv, cfg)
    assert [p.G0 for p in res.pairs] == calls

    def open_pair(eq, G0):
        got = real(eq, G0)
        return MasterResult(got.G1, False, got.mu, None)

    monkeypatch.setattr(search, "mastersymmetry_test", open_pair)
    with pytest.raises(SelfCheckError, match="fails {F, {F, G0}} = 0"):
        find_linear_t_symmetries(kdv, cfg)

    monkeypatch.setattr(search, "mastersymmetry_test",
                        lambda eq, G0: MasterResult(ZERO, True, None, None))
    with pytest.raises(SelfCheckError, match="has {F, G0} = 0"):
        find_linear_t_symmetries(kdv, cfg)


class TestLargeSearches:
    """Searches whose elimination took seconds with dense elimination."""

    def test_kdv_hierarchy_to_order_eleven(self, kdv):
        res = find_symmetries(kdv, AnsatzConfig(order=11, weight_max=13))
        assert res.pool_size == 101
        assert sorted(u_order(g) for g in res.basis) == [1, 3, 5, 7, 9, 11]
        assert expr_in_span(F_KDV, list(res.basis))
        assert expr_in_span(G5, list(res.basis))
        assert res.pivot_assumptions == ()

    def test_kdv_time_and_x_dependent_order_five(self, kdv):
        cfg = AnsatzConfig(order=5, weight_max=7, t_degree_max=1,
                           x_degree_max=1)
        res = find_symmetries(kdv, cfg)
        assert res.pool_size == 123
        assert len(res.basis) == 5
        for member in (u1, F_KDV, G5, parse("1 + 6*t*u1"),
                       parse("x*u1 + 2*u + 3*t*(u3 + 6*u*u1)")):
            assert expr_in_span(member, list(res.basis)), member


def test_fifth_order_family_system_gives_the_dense_bareiss_result(
        monkeypatch):
    # the packed sweep on a real search matrix with three constants against
    # the dense DiffExpr reference on each connected component: same basis,
    # same assumptions
    from evosym import linalg
    from test_linalg import _blockwise_reference

    systems = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        systems.append((rows, ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    eq = classify(parse("u5 + a*u*u3 + b*u1*u2 + c*u^2*u1", ["a", "b", "c"]))
    find_symmetries(eq, AnsatzConfig(order=5, weight_max=7))
    (rows, ncols), = systems
    res = nullspace(rows, ncols)
    assert res.pivot_assumptions  # the constants reach the pivots
    assert (res.basis, res.rank, res.pivot_assumptions) \
        == _blockwise_reference(rows, ncols)


FIFTH_ORDER = "u5 + {a}*u*u3 + {b}*u1*u2 + {c}*u^2*u1"


def _at_point(e, values):
    """A constant expression evaluated at numbers for its constants, read
    from its terms."""
    out = Fraction(0)
    for key, c in e.term_items():
        term = Fraction(c)
        for slot, power in key:
            assert slot[0] == 1, "an assumption has constant slots only"
            term *= Fraction(values[slot[1]]) ** power
        out += term
    return out


@pytest.mark.parametrize("point, dim", [
    ((5, 5, 5), 3),      # Sawada-Kotera
    ((10, 25, 20), 3),   # Kaup-Kupershmidt
    ((10, 20, 30), 4),   # Lax
    ((10, 20, 20), 2),   # on b = 2a, off the integrable loci
], ids=["sawada-kotera", "kaup-kupershmidt", "lax", "off-the-loci"])
def test_pivot_assumptions_vanish_where_the_dimension_rises(point, dim):
    # the symbolic search's answer holds where its assumptions are nonzero,
    # so a point with more symmetries than it must zero one of them; a zero
    # assumption need not raise the dimension (the last point)
    cfg = AnsatzConfig(order=7, weight_max=9)
    symbolic = find_symmetries(
        classify(parse(FIFTH_ORDER.format(a="a", b="b", c="c"),
                       ["a", "b", "c"])), cfg)
    assert len(symbolic.basis) == 2 and symbolic.pivot_assumptions
    values = dict(zip("abc", point))
    numeric = find_symmetries(classify(parse(FIFTH_ORDER.format(**values))),
                              cfg)
    assert len(numeric.basis) == dim
    vanishing = [p for p in symbolic.pivot_assumptions
                 if _at_point(p, values) == 0]
    if dim > len(symbolic.basis):
        assert vanishing
