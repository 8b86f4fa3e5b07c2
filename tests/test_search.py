import random

import pytest

from evosym import (AnsatzConfig, PoolLimitError, classify, const,
                    expr_in_span, exp_of, find_linear_t_symmetries,
                    find_symmetries, is_symmetry, parse, u, u_order, x, t)
from evosym.expr import ONE, rational
from evosym.search import ansatz_terms

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
