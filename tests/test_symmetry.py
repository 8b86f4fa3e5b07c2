import random

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (DOperator, DegenerateCaseError, SelfCheckError, bracket,
                    classify, const, descent_bound,
                    descent_leading_coeff_check, determining_system,
                    dimension_bound, exp_of, is_symmetry,
                    leading_coefficient_check, linearized_residual_operator,
                    mastersymmetry_test, parse, representation_decompose, u,
                    x, t, x_descent)
from evosym.expr import ONE, ZERO, ExpressionError, rational

from conftest import bracket_oracle, random_expr, random_rhs

u0, u1, u2, u3 = u(0), u(1), u(2), u(3)
F_KDV = u3 + 6 * u0 * u1
G_GAL = 1 + 6 * t * u1
G_SCALE = x * u1 + 2 * u0 + 3 * t * F_KDV
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestBracket:
    def test_antisymmetry_trivial(self):
        h = u1 * u2 + x
        assert bracket(h, h).is_zero

    def test_commuting_flows(self):
        assert bracket(u1, u2).is_zero

    def test_kdv_galilean(self):
        # oracle: raw definition expansion
        assert bracket_oracle(F_KDV, G_GAL) == 6 * u1
        assert bracket(F_KDV, G_GAL) == 6 * u1


class TestClassify:
    def test_exponential_potential_equation(self):
        a, b, d = const("a"), const("b"), const("d")
        F = u3 - u1 ** 3 / 2 + (a * exp_of(2 * u0) + b * exp_of(-2 * u0) + d) * u1
        eq = classify(F)
        assert eq.constant_separant and eq.kdv_like
        assert eq.n == 3 and eq.deriv_depth == 1

    def test_second_order_not_kdv_like(self):
        eq = classify(u2 + u1 ** 2 + const("c"))
        assert eq.constant_separant and not eq.kdv_like

    def test_non_constant_separant(self):
        eq = classify(u0 * u3)
        assert not eq.constant_separant and not eq.kdv_like
        assert eq.separant == u0 and eq.deriv_depth == -1

    def test_order_too_low_rejected(self):
        with pytest.raises(ExpressionError):
            classify(u1)

    def test_x_dependence_rejected(self):
        with pytest.raises(ExpressionError):
            classify(u2 + x * u1)

    def test_time_dependence_flag(self):
        eq = classify(u2 + t * u1)
        assert not eq.time_independent
        assert eq.deriv_depth == 2  # both dF/du_2 = 1 and dF/du_1 = t are t-only


class TestIsSymmetry:
    @pytest.mark.parametrize("G", [u1, F_KDV, G_GAL, G_SCALE])
    def test_kdv_symmetries(self, kdv, G):
        rep = is_symmetry(kdv, G)
        assert rep.is_symmetry
        # independent oracle agrees
        assert (bracket_oracle(F_KDV, G) - bracket(F_KDV, G)).is_zero

    @pytest.mark.parametrize("G", [u2, u0 * u2])
    def test_kdv_non_symmetries(self, kdv, G):
        assert not is_symmetry(kdv, G).is_symmetry

    def test_symmetries_form_a_lie_algebra(self, kdv):
        G5 = parse("u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1")
        syms = [u1, F_KDV, G_GAL, G_SCALE, G5]
        for g1 in syms:
            for g2 in syms:
                assert is_symmetry(kdv, bracket(g1, g2)).is_symmetry


class TestLinearizedResidual:
    def test_zero_for_symmetries(self, kdv):
        assert linearized_residual_operator(kdv, u1).is_zero
        assert linearized_residual_operator(kdv, G_GAL).is_zero

    def test_zero_candidate(self, kdv):
        assert linearized_residual_operator(kdv, ZERO).is_zero

    def test_nonzero_for_non_symmetry(self, kdv):
        assert not linearized_residual_operator(kdv, u2).is_zero


class TestDeterminingSystem:
    def test_symmetry_gives_all_zero(self, kdv):
        system = determining_system(kdv, G_GAL)
        assert system.all_zero
        assert len(system.equations) == kdv.n + system.k

    def test_non_symmetry_gives_nonzero(self, kdv):
        system = determining_system(kdv, u2)
        assert not system.all_zero

    def test_closure_sees_what_levels_cannot(self, heat):
        # G = t: the linearized condition holds identically, but G is not a
        # symmetry; only the appended closure equation catches it
        system = determining_system(heat, t + u1 * 0)
        assert all(e.is_zero for e in system.equations)
        assert not system.closure.is_zero
        assert not system.all_zero

    def test_order_zero_candidate_has_content_at_top_level(self):
        # mixed second derivatives of F put content at D^n even for k = 0
        eq = classify(u2 * u1 * u0 ** 2 + u1 * u0 ** 2)
        system = determining_system(eq, -3 * u0 ** 2 * t - 3)
        assert len(system.equations) == eq.n + 1
        assert not system.equations[eq.n].is_zero

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_constructions_agree_randomized(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3))
        F = random_rhs(rng, n)
        eq = classify(F)
        G = random_expr(rng, max_terms=3, max_u=rng.randint(0, 4))
        if G.is_zero:
            return
        determining_system(eq, G)  # raises SelfCheckError on disagreement


class TestDoubleConstructions:
    """The two constructions of the bracket and of the determining system
    share memoized D and partial results, but each still assembles its own
    sum, so an error in one of them is caught."""

    F_SRC = "u3 + 6*u*u1"
    G_SRC = "u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1"

    def test_a_wrong_evolutionary_action_is_caught(self, monkeypatch):
        from evosym import symmetry
        real = symmetry.ev_apply
        calls = []

        def perturbed(h, r):
            calls.append(1)
            out = real(h, r)
            return out + u(9) if len(calls) == 1 else out

        monkeypatch.setattr(symmetry, "ev_apply", perturbed)
        with pytest.raises(SelfCheckError, match="disagree"):
            bracket(parse(self.F_SRC), parse(self.G_SRC))

    def test_a_wrong_operator_coefficient_is_caught(self, monkeypatch):
        from evosym import symmetry
        real = symmetry.linearized_residual_operator

        def perturbed(eq, G):
            op = real(eq, G)
            coeffs = dict(op.coeffs)
            coeffs[1] = op.coeff(1) + u0
            return DOperator(coeffs)

        monkeypatch.setattr(symmetry, "linearized_residual_operator",
                            perturbed)
        eq = classify(parse(self.F_SRC))
        with pytest.raises(SelfCheckError,
                           match="constructions disagree at D\\^1"):
            determining_system(eq, parse(self.G_SRC))

    def test_a_repeated_bracket_recomputes_products_only(self, monkeypatch):
        # every product of two term maps is formed by addmul_into: a fused
        # sum adds each product into its accumulator, and mul_terms adds
        # its one product into an empty dict
        from evosym import _kernel_py
        F, G = parse(self.F_SRC), parse(self.G_SRC)
        counts = {}
        for name in ("total_d_terms", "diff_terms", "addmul_into"):
            real = getattr(_kernel_py, name)

            def spy(*args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(_kernel_py, name, spy)
        first = bracket(F, G)
        once = dict(counts)
        counts.clear()
        assert bracket(F, G) == first
        assert once["total_d_terms"] > 0 and once["diff_terms"] > 0
        assert "total_d_terms" not in counts and "diff_terms" not in counts
        assert counts["addmul_into"] == once["addmul_into"] > 0


class TestLeadingCoefficient:
    def test_equation_itself(self, kdv):
        v = leading_coefficient_check(kdv, is_symmetry(kdv, F_KDV))
        assert v.ok and v.c_k == ONE

    def test_time_dependent_symmetry(self, kdv):
        v = leading_coefficient_check(kdv, is_symmetry(kdv, G_SCALE))
        assert v.ok and v.c_k == 3 * t

    def test_order_precondition(self, kdv):
        with pytest.raises(ValueError):
            leading_coefficient_check(kdv, is_symmetry(kdv, G_GAL))

    def test_non_constant_separant_exact_power(self):
        # F = u^2 u_2: separant u^2; G = F is a symmetry with k = n
        F = u0 ** 2 * u2
        eq = classify(F)
        rep = is_symmetry(eq, F)
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert v.ok and v.c_k == ONE

    def test_divisibility_with_constants(self):
        # u_t = a^2 u_2 has the symmetry u_4 (k/n = 2): c_4 = a^-4
        a = const("a")
        eq = classify(a ** 2 * u2)
        rep = is_symmetry(eq, u(4))
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert v.ok and v.c_k == a ** -4

    def test_inconclusive_when_root_missing(self):
        # u_t = a u_2 has the symmetry u_3, but a^(3/2) has no exact
        # representative in the expression class
        a = const("a")
        eq = classify(a * u2)
        rep = is_symmetry(eq, u3)
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert v.inconclusive and not v.ok


class TestDescentBound:
    def test_values(self):
        assert descent_bound(5, 3, 1) == 1
        assert descent_bound(7, 3, -1) == 3
        assert descent_bound(0, 4, 0) == 0
        assert descent_bound(3, 3, 0) == 1
        assert descent_bound(3, 3, 1) == 0

    def test_degenerate_n2(self):
        with pytest.raises(DegenerateCaseError):
            descent_bound(3, 2, 0)
        assert descent_bound(3, 2, -1) == 3

    def test_monotone_in_q(self):
        for k in range(0, 12):
            for n in (3, 4, 5):
                assert descent_bound(k, n, -1) >= descent_bound(k, n, 0) \
                    >= descent_bound(k, n, 1)


class TestXDescent:
    def test_one_step(self, kdv):
        trace = x_descent(kdv, is_symmetry(kdv, G_SCALE))
        assert len(trace.steps) == 2
        assert trace.steps[1] == (u1, 1)

    def test_x_free_is_single_step(self, kdv):
        assert len(x_descent(kdv, is_symmetry(kdv, u1)).steps) == 1
        assert len(x_descent(kdv, is_symmetry(kdv, G_GAL)).steps) == 1

    def test_exponential_x_is_stationary(self, heat):
        G = exp_of(t) * exp_of(x)
        trace = x_descent(heat, is_symmetry(heat, G))
        assert "exponential" in trace.note


class TestRepresentation:
    def test_scaling_symmetry(self, kdv):
        dec = representation_decompose(kdv, is_symmetry(kdv, G_SCALE))
        assert dec.s == 1 and dec.g[1] == u1
        assert dec.psi + dec.g[0] + x * dec.g[1] == G_SCALE
        assert dec.s_effective == 0 and dec.remark_applied

    def test_psi_only(self, kdv):
        dec = representation_decompose(kdv, is_symmetry(kdv, G_GAL))
        assert dec.s == 0 and dec.psi == G_GAL

    def test_low_order_candidate(self, kdv):
        dec = representation_decompose(kdv, is_symmetry(kdv, u3 + 6 * u0 * u1))
        assert dec.s == 0 and dec.g[0] == u3

    def test_x_in_exponential_rejected(self, heat):
        rep = is_symmetry(heat, exp_of(t) * exp_of(x))
        with pytest.raises(ExpressionError):
            representation_decompose(heat, rep)


class TestDescentLeadingCoeff:
    def test_time_dependent_order3(self, kdv):
        v = descent_leading_coeff_check(kdv, is_symmetry(kdv, G_SCALE))
        assert v.ok and v.r == 1 and v.Q == u1

    def test_descends_to_zero(self, kdv):
        v = descent_leading_coeff_check(kdv, is_symmetry(kdv, F_KDV))
        assert v.ok and v.detail == "descended to zero"

    def test_low_order_precondition(self, kdv):
        with pytest.raises(ValueError):
            descent_leading_coeff_check(kdv, is_symmetry(kdv, G_GAL))


class TestSecondOrderEquation:
    """n = 2 exercises every degenerate-bound fallback."""

    def test_classification(self, burgers):
        assert burgers.constant_separant and not burgers.kdv_like
        assert burgers.n == 2 and burgers.deriv_depth == 0

    @pytest.mark.parametrize("source", [
        "u1", "u2 + 2*u*u1", "1 + 2*t*u1",
        "x*u1 + u + 2*t*(u2 + 2*u*u1)",
    ])
    def test_symmetries(self, burgers, source):
        G = parse(source)
        rep = is_symmetry(burgers, G)
        assert rep.is_symmetry
        assert (bracket_oracle(burgers.F, G) - bracket(burgers.F, G)).is_zero

    def test_decomposition_uses_raw_bound(self, burgers):
        rep = is_symmetry(burgers, parse("x*u1 + u + 2*t*(u2 + 2*u*u1)"))
        dec = representation_decompose(burgers, rep)
        assert dec.s == 1 and dec.g[1] == u1
        assert dec.s_bound_used == descent_bound(2, 2, -1)
        assert not dec.remark_applied

    def test_descent_bound_respected(self, burgers):
        rep = is_symmetry(burgers, parse("x*u1 + u + 2*t*(u2 + 2*u*u1)"))
        trace = x_descent(burgers, rep)
        assert trace.steps[-1] == (u1, 1)  # ord dG/dx <= max(1, 2-2+1)

    def test_master_pairs(self, burgers):
        res = mastersymmetry_test(burgers, parse("x*u1 + u"))
        assert res.G1 == 2 * burgers.F and res.mu == rational(2)
        assert res.certified is not None
        res2 = mastersymmetry_test(burgers, ONE)
        assert res2.G1 == 2 * u1 and res2.generates


class TestDimensionBound:
    def test_low_order_formula(self):
        assert dimension_bound(1, 3, 3) == 6
        assert dimension_bound(0, 3, 0) == 2

    def test_dim_phi_validated(self):
        with pytest.raises(ValueError):
            dimension_bound(1, 3, 4)

    def test_n2_low_range(self):
        # for n = 2 the direct formula covers only k = 0
        assert dimension_bound(0, 2, 1) == 3
        assert dimension_bound(1, 2, 1) > 3

    def test_monotone_in_k(self):
        for n in (2, 3, 4):
            prev = 0
            for k in range(8):
                cur = dimension_bound(k, n, n)
                assert cur >= prev
                prev = cur


# -- randomized structure properties ------------------------------------------

@settings(max_examples=120, deadline=None)
@given(seeds)
def test_bracket_antisymmetry_randomized(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2)
    r = random_expr(rng, max_terms=2)
    assert bracket(h, r) == -bracket(r, h)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_bracket_jacobi_randomized(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2, max_u=2)
    r = random_expr(rng, max_terms=2, max_u=2)
    s = random_expr(rng, max_terms=2, max_u=2)
    total = bracket(h, bracket(r, s)) + bracket(r, bracket(s, h)) + \
        bracket(s, bracket(h, r))
    assert total.is_zero


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_dx_closure_randomized_on_kdv(seed):
    rng = random.Random(seed)
    kdv = classify(F_KDV)
    combo = ZERO
    for g in (u1, F_KDV, G_GAL, G_SCALE):
        combo = combo + rational(rng.randint(-2, 2)) * g
    if combo.is_zero:
        return
    rep = is_symmetry(kdv, combo)
    assert rep.is_symmetry
    d = rep.candidate
    from evosym import partial
    dx = partial(d, "x")
    assert is_symmetry(kdv, dx).is_symmetry
