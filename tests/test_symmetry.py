import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (DOperator, SelfCheckError, bracket,
                    check_structure, classify, const, descent_bound,
                    descent_leading_coeff_check, determining_system,
                    exp_of, is_symmetry, leading_coefficient_check,
                    linearized_residual_operator,
                    mastersymmetry_test, parse, partial,
                    representation_decompose, total_d_power, u, x, t,
                    x_descent)
from evosym import _kernel_py as kernel, expr as ex, symmetry, timedep
from evosym.expr import GEN_T, ONE, ZERO, ExpressionError, rational, u_order

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


def _literal_levels(eq, G):
    """The coefficient of ``D^l`` in the linearized compatibility condition,
    transcribed term by term from the level formula (binomial weights
    vanish outside their range), for l = 0..n+max(k,1)-1; plain ``+`` and
    ``*`` only, no fused sums and no operator algebra."""
    F, n, k = eq.F, eq.n, u_order(G)
    dF = [partial(F, i) for i in range(n + 1)]
    dG = [partial(G, j) for j in range(k + 1)]
    Gt = partial(G, GEN_T)
    levels = []
    for l in range(n + max(k, 1)):
        e = -partial(Gt, l) if l <= k else ZERO
        for m in range(n + 1):
            e = e + total_d_power(G, m) * partial(dF[m], l)
        for r in range(k + 1):
            e = e - total_d_power(F, r) * partial(dG[r], l)
        for j in range(max(0, l + 1 - n), k + 1):
            for i in range(max(l + 1 - j, 0), n + 1):
                p = i + j - l
                if 0 <= p <= i:
                    e = e + comb(i, p) * dF[i] * total_d_power(dG[j], p)
                if 0 <= p <= j:
                    e = e - comb(j, p) * dG[j] * total_d_power(dF[i], p)
        levels.append(e)
    return tuple(levels)


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
        G = -3 * u0 ** 2 * t - 3
        system = determining_system(eq, G)
        assert len(system.equations) == eq.n + 1
        assert not system.equations[eq.n].is_zero
        assert system.equations == _literal_levels(eq, G)

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
        # raises SelfCheckError when its own two constructions disagree
        system = determining_system(eq, G)
        assert system.equations == _literal_levels(eq, G)


class TestDoubleConstructions:
    """The two constructions of the bracket and of the determining system
    share memoized D and partial results, but each still assembles its own
    sum, so an error in one of them is caught.  The determining system's
    second construction differentiates the residual, so a wrong bracket is
    caught there too."""

    F_SRC = "u3 + 6*u*u1"
    G_SRC = "u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1"

    @staticmethod
    def _plant(monkeypatch, name, wrong):
        """Replace ``symmetry.<name>`` (a triple builder as symmetry
        imports it) by one whose first call returns ``wrong(triples)``."""
        real = getattr(symmetry, name)
        calls = []

        def perturbed(*args):
            calls.append(1)
            out = real(*args)
            return wrong(out) if len(calls) == 1 else out

        monkeypatch.setattr(symmetry, name, perturbed)

    def _wrong_bracket_triple(self, monkeypatch, name):
        self._plant(monkeypatch, name, lambda out: out + [(1, u(9), ONE)])
        with pytest.raises(SelfCheckError, match="disagree"):
            bracket(parse(self.F_SRC), parse(self.G_SRC))

    def test_a_wrong_evolutionary_action_is_caught(self, monkeypatch):
        self._wrong_bracket_triple(monkeypatch, "ev_triples")

    def test_a_wrong_frechet_application_is_caught(self, monkeypatch):
        self._wrong_bracket_triple(monkeypatch, "apply_triples")

    def test_a_wrong_commutator_triple_is_caught(self, monkeypatch):
        def wrong(out):
            out.setdefault(1, []).append((1, u0, ONE))
            return out

        self._plant(monkeypatch, "compose_triples", wrong)
        eq = classify(parse(self.F_SRC))
        with pytest.raises(SelfCheckError,
                           match="constructions disagree at D\\^1"):
            determining_system(eq, parse(self.G_SRC))

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

    def test_a_wrong_residual_is_caught(self, monkeypatch):
        from evosym import symmetry
        real = symmetry.bracket
        monkeypatch.setattr(symmetry, "bracket",
                            lambda h, r: real(h, r) + u2)
        eq = classify(parse(self.F_SRC))
        with pytest.raises(SelfCheckError,
                           match="constructions disagree at D\\^2"):
            determining_system(eq, parse(self.G_SRC))

    def test_a_repeated_bracket_recomputes_products_only(self, monkeypatch):
        # every product of two term maps is formed by addmul_into: a fused
        # sum adds each product into its accumulator, and mul_terms adds
        # its one product into an empty dict; derive_terms makes D (for
        # gen None) and every partial derivative (for a generator code)
        F, G = parse(self.F_SRC), parse(self.G_SRC)
        counts = {}

        def spy_derive(a, gen=None, _real=kernel.derive_terms):
            name = "D" if gen is None else "partial"
            counts[name] = counts.get(name, 0) + 1
            return _real(a, gen)

        def spy_addmul(*args, _real=kernel.addmul_into):
            counts["addmul_into"] = counts.get("addmul_into", 0) + 1
            return _real(*args)

        monkeypatch.setattr(kernel, "derive_terms", spy_derive)
        monkeypatch.setattr(kernel, "addmul_into", spy_addmul)
        first = bracket(F, G)
        once = dict(counts)
        counts.clear()
        assert bracket(F, G) == first
        assert once["D"] > 0 and once["partial"] > 0
        assert "D" not in counts and "partial" not in counts
        assert counts["addmul_into"] == once["addmul_into"] > 0

    @staticmethod
    def _count_sums(monkeypatch):
        """Counts of fused sums and of expression additions/subtractions
        (``expr.term_sum``, which operator arithmetic goes through)."""
        calls = {"fused": 0, "combine": 0}
        for name, label in (("sum_of_products", "fused"),
                            ("term_sum", "combine")):
            def spy(*args, _real=getattr(ex, name), _label=label):
                calls[_label] += 1
                return _real(*args)

            monkeypatch.setattr(ex, name, spy)
        return calls

    def test_each_bracket_form_is_one_fused_sum(self, monkeypatch):
        F, G = parse(self.F_SRC), parse(self.G_SRC)
        want = bracket(F, u2 * G)
        calls = self._count_sums(monkeypatch)
        assert bracket(F, u2 * G) == want
        assert calls == {"fused": 2, "combine": 0}

    def test_each_operator_degree_is_one_fused_sum(self, monkeypatch):
        eq = classify(parse(self.F_SRC))
        G = parse(self.G_SRC) + t * u2 * u0
        want = linearized_residual_operator(eq, G)
        calls = self._count_sums(monkeypatch)
        op = linearized_residual_operator(eq, G)
        assert op == want
        # F_*∘G_* and G_*∘F_* carry triples at D^0..D^(n+k): one sum per
        # degree, not one per piece, and no operator sum or difference
        assert calls == {"fused": eq.n + u_order(G) + 1, "combine": 0}
        assert op.degree < eq.n + u_order(G)


class TestLeadingCoefficient:
    def test_equation_itself(self, kdv):
        v = leading_coefficient_check(kdv, is_symmetry(kdv, F_KDV))
        assert (v.m, v.num, v.den) == (1, ONE, ONE)

    def test_time_dependent_symmetry(self, kdv):
        v = leading_coefficient_check(kdv, is_symmetry(kdv, G_SCALE))
        assert (v.m, v.num, v.den) == (1, 3 * t, ONE)

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
        assert (v.m, v.num, v.den) == (1, ONE, ONE)

    def test_divisibility_with_constants(self):
        # u_t = a^2 u_2 has the symmetry u_4 (k/n = 2): c_4 = a^-4
        a = const("a")
        eq = classify(a ** 2 * u2)
        rep = is_symmetry(eq, u(4))
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert (v.m, v.num, v.den) == (1, a ** -4, ONE)

    def test_fractional_power_of_a_constant(self):
        # u_t = a u_2 has the symmetry u_3: 1 = c_3 a^(3/2), so c_3^2 = a^-3
        a = const("a")
        eq = classify(a * u2)
        rep = is_symmetry(eq, u3)
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert (v.m, v.num, v.den) == (2, a ** -3, ONE)

    def test_fractional_power_of_a_sum(self):
        # Harry Dym shifted by u -> u+1 and its order-5 flow, k/n = 5/3:
        # (dG/du_5)^3 = 8 (u+1)^15 = 8 separant^5
        eq = classify(parse("(u+1)^3*u3"))
        rep = is_symmetry(eq, parse(
            "2*u5*(u+1)^5 + 10*u4*u1*(u+1)^4 + 10*u3*u2*(u+1)^4 "
            "+ 5*u3*u1^2*(u+1)^3"))
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert (v.m, v.num, v.den) == (3, 8, ONE)

    @pytest.mark.parametrize("G, m, den", [
        (u3, 2, t ** 3),  # 1 = c_3 t^(3/2): c_3^2 = 1/t^3
        (u2, 1, t),       # 1 = c_2 t: c_2 = 1/t
        (u(4), 1, t ** 2),
    ], ids=["u3", "u2", "u4"])
    def test_t_in_the_denominator(self, G, m, den):
        # u_t = t u_2: c_k(t) has t in its denominator, which no exact
        # quotient in the expression class holds; its reciprocal is one
        eq = classify(t * u2)
        rep = is_symmetry(eq, G)
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert (v.m, v.num, v.den) == (m, ONE, den)

    def test_neither_quotient_in_the_class(self):
        # u_t = (t+1) K for K the KdV flow has the scaling symmetry
        # 3 tau K + x u_1 + 2 u, tau = t^2/2 + t: c_3 = 3 tau / (t+1)
        K = parse("u3 + 6*u*u1")
        eq = classify((t + 1) * K)
        tau = t ** 2 / 2 + t
        rep = is_symmetry(eq, 3 * tau * K + parse("x*u1 + 2*u"))
        assert rep.is_symmetry
        v = leading_coefficient_check(eq, rep)
        assert (v.m, v.num, v.den) == (1, 3 * tau, t + 1)


class TestDescentBound:
    def test_values(self):
        assert descent_bound(5, 3, 1) == 1
        assert descent_bound(7, 3, -1) == 3
        assert descent_bound(0, 4, 0) == 0
        assert descent_bound(3, 3, 0) == 1
        assert descent_bound(3, 3, 1) == 0

    def test_degenerate_n2(self):
        with pytest.raises(ValueError, match="degenerate for n = 2"):
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

    def test_a_power_of_x_beside_an_exponential_stops(self, heat):
        # d/dx keeps the x-degree of x*exp(x + t) at 1; the polynomial part
        # x*u + 2*t*u1 descends once and the trace stops
        G = parse("x*u + 2*t*u1 + (x + 2*t)*exp(x + t)")
        trace = x_descent(heat, is_symmetry(heat, G))
        assert len(trace.steps) == 2 and "stationary" in trace.note
        assert trace.steps[1][0] == parse("u + (1 + x + 2*t)*exp(x + t)")


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
        assert v.r == 1 and v.Q == u1

    def test_descends_to_zero(self, kdv):
        v = descent_leading_coeff_check(kdv, is_symmetry(kdv, F_KDV))
        assert v.detail == "descended to zero"

    def test_low_order_precondition(self, kdv):
        with pytest.raises(ValueError):
            descent_leading_coeff_check(kdv, is_symmetry(kdv, G_GAL))


class TestViolationsRaise:
    """A violated structure statement is a bug and raises
    ``SelfCheckError`` where it is found.  No verified symmetry violates a
    theorem, so each case corrupts the helper that its check reads."""

    @staticmethod
    def _rescaled_t_derivative(monkeypatch, factor):
        real = symmetry.partial

        def scaled(e, v):
            d = real(e, v)
            return factor(d) if v == GEN_T else d

        monkeypatch.setattr(symmetry, "partial", scaled)

    def test_leading_coefficient_not_t_only(self, kdv, monkeypatch):
        # dG/du_k = u for KdV's separant 1: no t-only coefficient at all
        rep = is_symmetry(kdv, F_KDV)
        real = symmetry.partial
        monkeypatch.setattr(symmetry, "partial", lambda e, v: real(e, v) * u0)
        with pytest.raises(SelfCheckError,
                           match=r"is not c_k\(t\) \* separant"):
            leading_coefficient_check(kdv, rep)

    def test_leading_coefficient_not_a_multiple(self, monkeypatch):
        # dG/du_k = u^2 + 1 for the separant u^2: the coefficients at u^2
        # agree, the rest does not
        eq = classify(u0 ** 2 * u2)
        rep = is_symmetry(eq, eq.F)
        real = symmetry.partial
        monkeypatch.setattr(symmetry, "partial", lambda e, v: real(e, v) + 1)
        with pytest.raises(SelfCheckError,
                           match=r"is not c_k\(t\) \* separant"):
            leading_coefficient_check(eq, rep)

    def test_descended_c_k_not_t_only(self, kdv, monkeypatch):
        rep = is_symmetry(kdv, G_SCALE)
        monkeypatch.setattr(symmetry, "is_t_only", lambda e: False)
        with pytest.raises(SelfCheckError, match="not a function of t"):
            descent_leading_coeff_check(kdv, rep)

    def test_descended_to_zero_with_nonzero_rhs(self, kdv, monkeypatch):
        rep = is_symmetry(kdv, F_KDV)
        self._rescaled_t_derivative(monkeypatch, lambda d: ONE)
        with pytest.raises(SelfCheckError, match="descended to zero but"):
            descent_leading_coeff_check(kdv, rep)

    def test_descended_order_too_high(self, kdv, monkeypatch):
        rep = is_symmetry(kdv, G_SCALE)
        monkeypatch.setattr(symmetry, "u_order", lambda e: 5)
        with pytest.raises(SelfCheckError, match="descended order 5 > n-1"):
            descent_leading_coeff_check(kdv, rep)

    def test_descended_leading_coefficient_mismatch(self, kdv, monkeypatch):
        rep = is_symmetry(kdv, G_SCALE)
        self._rescaled_t_derivative(monkeypatch, lambda d: 2 * d)
        with pytest.raises(SelfCheckError,
                           match="leading coefficient mismatch"):
            descent_leading_coeff_check(kdv, rep)

    def test_check_structure_names_the_candidate(self, kdv, monkeypatch):
        def broken(eq, rep):
            raise SelfCheckError("leading coefficient mismatch")

        rep = is_symmetry(kdv, G_SCALE)
        monkeypatch.setattr(symmetry, "descent_leading_coeff_check", broken)
        with pytest.raises(SelfCheckError) as err:
            check_structure(kdv, rep)
        assert str(err.value) == (
            "structure check failed for 3*u3*t + 18*u1*u*t + u1*x + 2*u: "
            "leading coefficient mismatch")


class TestReportReaders:
    """Every check built on the paper's theorems reads the report of a
    symmetry its caller verified, and refuses a non-symmetry report with
    ``ValueError`` before any work: no derivative, product, sum,
    classification or verification."""

    # each reader with a verified control candidate it does work on
    READERS = {
        "leading_coefficient_check": (leading_coefficient_check, F_KDV),
        "representation_decompose": (representation_decompose, u1),
        "x_descent": (x_descent, u1),
        "descent_leading_coeff_check": (descent_leading_coeff_check, F_KDV),
        "check_structure": (check_structure, u1),
        "dt_closure_check": (timedep.dt_closure_check, u1),
        "probe_time_shapes":
            (lambda eq, rep: timedep.probe_time_shapes([rep]), u1),
        "predict_time_dependence":
            (lambda eq, rep: timedep.predict_time_dependence(eq, [rep]), u1),
    }
    WORK = ("partial", "u_order", "occurs", "is_t_only", "has_exp_in",
            "power_outside_exp", "split_t_only", "split_u_order",
            "split_by_power", "exp_spectrum", "try_divide", "frechet",
            "bracket", "is_symmetry", "classify_time", "annihilator")

    @classmethod
    def forbid_work(cls, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("a report reader did work")

        for name, obj in vars(kernel).items():
            if getattr(obj, "__module__", None) == kernel.__name__:
                monkeypatch.setattr(kernel, name, work)
        for module in (ex, symmetry, timedep):
            for name in cls.WORK:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, work)

    @pytest.mark.parametrize("candidate", ["u", "u5 + u*u3"])
    @pytest.mark.parametrize("reader", READERS)
    def test_a_non_symmetry_is_refused_before_any_work(
            self, kdv, monkeypatch, reader, candidate):
        rep = is_symmetry(kdv, parse(candidate))
        assert not rep.is_symmetry
        self.forbid_work(monkeypatch)
        with pytest.raises(ValueError,
                           match="needs a verified symmetry|not a symmetry"):
            self.READERS[reader][0](kdv, rep)

    @pytest.mark.parametrize("reader", READERS)
    def test_a_verified_report_reaches_the_forbidden_work(
            self, kdv, monkeypatch, reader):
        # the control: the patch catches the work each reader does
        read, control = self.READERS[reader]
        rep = is_symmetry(kdv, control)
        self.forbid_work(monkeypatch)
        with pytest.raises(AssertionError, match="a report reader did work"):
            read(kdv, rep)


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
