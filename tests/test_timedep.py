import random

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (annihilator, classify, classify_time, const,
                    dt_closure_check, exp_of, is_symmetry,
                    mastersymmetry_test, parse, partial,
                    predict_time_dependence, probe_time_shapes, scaling_test,
                    u, x, t)
from evosym.expr import ONE, ZERO, ExpressionError, rational
from evosym import timedep
from evosym.symmetry import SelfCheckError
from evosym.timedep import (POLYNOMIAL, QUASIPOLYNOMIAL, TIME_INDEPENDENT,
                            AnnihilatorOp, DtClosureVerdict)

from conftest import random_expr

u0, u1, u2, u3 = u(0), u(1), u(2), u(3)
F_KDV = u3 + 6 * u0 * u1
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def reports(eq, *candidates):
    return [is_symmetry(eq, G) for G in candidates]


class TestClassifyTime:
    def test_independent(self):
        assert classify_time(u2).kind == TIME_INDEPENDENT

    def test_polynomial(self):
        cls = classify_time(1 + 6 * t * u1)
        assert cls.kind == POLYNOMIAL and cls.degree == 1

    def test_single_exponential(self):
        cls = classify_time(exp_of(3 * t) * u1)
        assert cls.kind == QUASIPOLYNOMIAL
        assert cls.spectrum == ((rational(3), 0),)

    def test_jordan_block(self):
        cls = classify_time(t * exp_of(2 * t) * u1 + exp_of(2 * t))
        assert cls.spectrum == ((rational(2), 1),)

    def test_mixed_spectrum_with_symbolic_rate(self):
        lam = const("lam")
        cls = classify_time(exp_of(lam * t) * u0 + t ** 2 * u1)
        assert cls.kind == QUASIPOLYNOMIAL
        assert (lam, 0) in cls.spectrum and (ZERO, 2) in cls.spectrum

    def test_spatial_exponentials_do_not_count(self):
        assert classify_time(exp_of(2 * u0) * u1).kind == TIME_INDEPENDENT

    def test_degree_drops_under_dt(self):
        for e in (1 + 6 * t * u1, t ** 3 * u2 + t * u1, t * u0):
            before = classify_time(e)
            after = classify_time(partial(e, "t"))
            assert before.kind == POLYNOMIAL
            if after.kind == POLYNOMIAL:
                assert after.degree == before.degree - 1
            else:
                assert after.kind == TIME_INDEPENDENT and before.degree == 1


class TestAnnihilator:
    def test_polynomial_power_of_dt(self):
        om = annihilator(1 + 6 * t * u1)
        assert om.coeffs == (ZERO, ZERO, ONE)  # (d/dt)^2

    def test_single_rate(self):
        om = annihilator(exp_of(2 * t) * u0)
        assert om.coeffs == (rational(-2), ONE)  # d/dt - 2

    def test_jordan_block_squared(self):
        om = annihilator(t * exp_of(2 * t) * u1)
        assert om.coeffs == (rational(4), rational(-4), ONE)  # (d/dt - 2)^2

    def test_time_independent(self):
        assert annihilator(u2).coeffs == (ZERO, ONE)  # d/dt

    def test_symbolic_rates_expand(self):
        lam, mu = const("lam"), const("mu")
        om = annihilator(exp_of(lam * t) * u0 + exp_of(mu * t) * u1)
        assert om.order == 2
        assert om.coeffs[0] == lam * mu
        assert om.coeffs[1] == -(lam + mu)
        assert om.apply(exp_of(lam * t) * u0 + exp_of(mu * t) * u1).is_zero

    @pytest.mark.parametrize("shape", ["t^{k}*u1", "t^{k}*exp(2*t)*u1",
                                       "t^{k}*exp(a*t)*u1 + exp(-t)*u"])
    def test_products_grow_linearly_in_the_t_degree(self, monkeypatch, shape):
        from evosym import expr as ex
        counts = []
        real_mul, real_addmul = ex.DiffExpr.__mul__, ex.kernel.addmul_into

        def mul(a, b):
            counts.append(1)
            return real_mul(a, b)

        def addmul(*args):
            counts.append(1)
            return real_addmul(*args)

        monkeypatch.setattr(ex.DiffExpr, "__mul__", mul)
        monkeypatch.setattr(ex.DiffExpr, "__rmul__", mul)
        monkeypatch.setattr(ex.kernel, "addmul_into", addmul)
        products = {}
        for k in (100, 200):
            G = parse(shape.format(k=k), ["a"])
            counts.clear()
            om = annihilator(G)
            products[k] = len(counts)
            assert om.order == k + 1 + shape.count("exp(-t)")
        # (d/dt - lambda) applied k + 1 times would form about k^2 / 2
        assert products[200] <= 2 * products[100] + 10

    @pytest.mark.parametrize("shape, order", [
        ("t^400*u1", 401), ("t^3000*exp(2*t)*u1", 3001),
        ("t^200*exp(a*t)*u1 + t^199*exp(b*t)*u", 401)])
    def test_order_over_the_bound_raises_before_any_product(
            self, monkeypatch, shape, order):
        from evosym import expr as ex, timedep
        assert timedep.MAX_ANNIHILATOR_ORDER == 400
        assert annihilator(parse("t^399*u1")).order == 400
        G = parse(shape, ["a", "b"])

        def product(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(ex.DiffExpr, "__mul__", product)
        monkeypatch.setattr(ex.DiffExpr, "__rmul__", product)
        monkeypatch.setattr(ex, "sum_of_products", product)
        with pytest.raises(ex.ExpressionError,
                           match=f"annihilator of order {order} exceeds "
                                 "the bound of 400"):
            annihilator(G)

    @pytest.mark.parametrize("shape, pairs", [
        ("t^80*exp(a*t)*u1 + t^80*exp(b*t)*u", 912_168),
        ("t^199*exp(2*t)*u1 + t^199*exp(3*t)*u", 120_600),
        ("t^199*exp(a*t)*u1 + t^199*exp(b*t)*u", 13_493_800)])
    def test_a_fused_sum_over_the_budget_raises(self, shape, pairs):
        # each order is within MAX_ANNIHILATOR_ORDER, but the sum of the
        # self-check or of a coefficient has more term pairs than one
        # product may form
        with pytest.raises(ExpressionError,
                           match=f"sum of products of {pairs} term pairs "
                                 "exceeds the budget of 100000 term pairs"):
            annihilator(parse(shape, ["a", "b"]))

    def test_order_400_with_one_symbolic_rate_is_within_the_budget(self):
        G = parse("t^399*exp(a*t)*u1", ["a"])
        om = annihilator(G)
        assert om.order == 400
        assert om.coeffs[400] == ONE and om.coeffs[0] == const("a") ** 400


class TestDtClosure:
    def test_galilean(self, kdv):
        v = dt_closure_check(kdv, is_symmetry(kdv, 1 + 6 * t * u1))
        assert v.dt_order == 1

    def test_time_independent_symmetry(self, kdv):
        assert dt_closure_check(kdv, is_symmetry(kdv, u1)).reduced.is_zero

    def test_scaling_symmetry(self, kdv):
        G = x * u1 + 2 * u0 + 3 * t * F_KDV
        v = dt_closure_check(kdv, is_symmetry(kdv, G))
        assert v.dt_order == 3

    def test_requires_time_independent_equation(self):
        eq = classify(u2 + t * u1)
        with pytest.raises(ValueError):
            dt_closure_check(eq, is_symmetry(eq, u1))

    def test_requires_symmetry(self, kdv):
        with pytest.raises(ValueError):
            dt_closure_check(kdv, is_symmetry(kdv, u2))

    @pytest.mark.parametrize("equation, candidate, detail", [
        ("u3 + u1^3", "1", "order < 1: leading-coefficient step skipped"),
        ("u^3*u3", "u^3*u3", "c_k not t-only: reduction step skipped")])
    def test_a_skipped_step_is_named(self, equation, candidate, detail):
        eq = classify(parse(equation))
        v = dt_closure_check(eq, is_symmetry(eq, parse(candidate)))
        assert v == DtClosureVerdict(None, None, None, detail)

    # no symmetry violates the closure statements: each violation below
    # corrupts the helper that the check reads, and must raise
    def test_dt_order_too_high_raises(self, kdv, monkeypatch):
        monkeypatch.setattr(timedep, "u_order", lambda e: 99)
        with pytest.raises(SelfCheckError, match="exceeds ord G"):
            dt_closure_check(kdv, is_symmetry(kdv, 1 + 6 * t * u1))

    def test_reduced_order_too_high_raises(self, kdv, monkeypatch):
        monkeypatch.setattr(timedep, "annihilator",
                            lambda e: AnnihilatorOp((ONE,)))
        with pytest.raises(SelfCheckError, match="order too high"):
            dt_closure_check(kdv, is_symmetry(kdv, u1))


class TestScaling:
    def test_heat_exponential(self, heat):
        res = scaling_test(heat, exp_of(x))
        assert res.found and res.lam == ONE
        assert res.certified is not None and res.certified.is_symmetry
        assert res.lam.is_rational

    def test_degenerate_lambda_zero(self, kdv):
        res = scaling_test(kdv, u1)
        assert res.found and res.lam == ZERO

    def test_no_relation(self, kdv):
        assert not scaling_test(kdv, u2).found

    def test_zero_rejected(self, kdv):
        with pytest.raises(ValueError):
            scaling_test(kdv, ZERO)

    def test_time_dependent_rejected(self, kdv):
        with pytest.raises(ValueError):
            scaling_test(kdv, t * u1)

    def test_symbolic_rate(self):
        lam = const("lam")
        eq = classify(u2 + lam * u1)
        res = scaling_test(eq, exp_of(x))
        assert res.found and res.lam == 1 + lam


class TestMastersymmetry:
    def test_kdv_scaling_generator(self, kdv):
        res = mastersymmetry_test(kdv, x * u1 + 2 * u0)
        assert res.G1 == 3 * F_KDV and res.closes
        assert res.mu == rational(3)
        assert res.certified is not None and res.certified.is_symmetry

    def test_galilean_generator(self, kdv):
        res = mastersymmetry_test(kdv, ONE)
        assert res.G1 == 6 * u1 and res.generates

    def test_symmetry_generates_nothing(self, kdv):
        assert mastersymmetry_test(kdv, u1).G1.is_zero
        assert mastersymmetry_test(kdv, F_KDV).G1.is_zero

    def test_non_closing_candidate(self, kdv):
        res = mastersymmetry_test(kdv, u0 * u2)
        assert not res.G1.is_zero and not res.closes
        assert res.certified is None

    @pytest.mark.parametrize("F, G0", [("u2 + t*u1", "x*u1"),
                                       ("u3 + t*u*u1", "1"),
                                       ("u2 + t*u", "x*u1")])
    def test_requires_time_independent_equation(self, F, G0):
        # G0 + t*G1 is a symmetry only when dF/dt = 0
        with pytest.raises(ValueError, match="time-independent equation"):
            mastersymmetry_test(classify(parse(F)), parse(G0))

    def test_requires_a_time_independent_g0(self, heat):
        with pytest.raises(ValueError, match="^G0 must be time-independent$"):
            mastersymmetry_test(heat, t * u1)


class TestPrediction:
    def test_corpus_polynomial(self):
        eq = classify(u3 + u0 * u1)
        pred = predict_time_dependence(eq, reports(eq, u1, 1 + t * u1))
        assert pred.prediction == POLYNOMIAL
        assert pred.basis_order_cap == 1

    def test_quasipolynomial_basis(self, heat):
        # heat's cap is 0, so the basis holds order-0 and u-free symmetries
        pred = predict_time_dependence(
            heat, reports(heat, u0, exp_of(t) * exp_of(x)))
        assert pred.prediction == QUASIPOLYNOMIAL

    def test_rejects_non_symmetry(self, kdv):
        with pytest.raises(ValueError):
            predict_time_dependence(kdv, reports(kdv, u2))

    def test_rejects_high_order_basis(self, kdv):
        with pytest.raises(ValueError):
            predict_time_dependence(kdv, reports(kdv, F_KDV))

    @pytest.mark.parametrize("source, kdv_like, cap, above", [
        ("u3 + 6*u*u1", True, 1, "u3 + 6*u*u1"),  # KdV: n - 2
        ("u2 + u1^2", False, 1, "u2 + u1^2"),  # constant separant: n - 1
        ("u2", True, 0, "u1"),  # heat: n - 2
    ])
    def test_the_equation_decides_the_order_cap(self, source, kdv_like, cap,
                                                above):
        eq = classify(parse(source))
        assert (eq.constant_separant, eq.kdv_like) == (True, kdv_like)
        pred = predict_time_dependence(eq, reports(eq, u1) if cap else [])
        assert (pred.prediction, pred.basis_order_cap) == (POLYNOMIAL, cap)
        with pytest.raises(ValueError, match=f" > cap {cap}: "):
            predict_time_dependence(eq, reports(eq, parse(above)))

    @pytest.mark.parametrize("kdv_like", [False, True])
    def test_refuses_an_empty_basis(self, kdv, kdv_like):
        # F has no x, so u1 is a symmetry of order 1 <= cap (n - 1 = 2 for
        # u3 + u2^2, n - 2 = 1 for KdV)
        eq = kdv if kdv_like else classify(u3 + u2 ** 2)
        assert eq.kdv_like == kdv_like
        with pytest.raises(ValueError, match="empty basis"):
            predict_time_dependence(eq, [])

    def test_an_empty_basis_below_order_1_is_accepted(self, heat):
        # heat is KdV-like at n = 2, so its orders are capped at 0
        pred = predict_time_dependence(heat, [])
        assert (pred.prediction, pred.basis_order_cap) == (POLYNOMIAL, 0)

    def test_needs_a_constant_separant(self):
        eq = classify(parse("u1^2*u3"))
        with pytest.raises(ValueError, match="^prediction requires a "
                           "constant-separant equation$"):
            predict_time_dependence(eq, reports(eq, u1))

    def test_needs_time_independent_equation(self):
        eq = classify(u3 + t * u1)
        assert eq.constant_separant
        with pytest.raises(ValueError):
            predict_time_dependence(eq, reports(eq, u1))


class TestShapeProbe:
    def test_polynomial_corpus(self, kdv):
        G = x * u1 + 2 * u0 + 3 * t * F_KDV
        out = probe_time_shapes(
            reports(kdv, u1, F_KDV, 1 + 6 * t * u1, G))
        assert out == "all polynomial in t"

    def test_quasipolynomial(self, heat):
        out = probe_time_shapes(
            reports(heat, u1, exp_of(t) * exp_of(x)))
        assert out == "all quasipolynomial in t"

    def test_observational_only(self, kdv):
        assert probe_time_shapes([]) == "no symmetries supplied"
        with pytest.raises(ValueError):
            probe_time_shapes(reports(kdv, u2))


class TestReportsAreNotReverified:
    """The readers of verified symmetries take their reports: only the new
    candidates that the closure check forms go through ``is_symmetry``."""

    @pytest.fixture
    def verified(self, monkeypatch):
        seen = []
        real = timedep.is_symmetry

        def spy(eq, G):
            seen.append(G)
            return real(eq, G)

        monkeypatch.setattr(timedep, "is_symmetry", spy)
        return seen

    def test_probe_and_prediction_verify_nothing(self, kdv, verified):
        reps = reports(kdv, u1, 1 + 6 * t * u1)
        assert probe_time_shapes(reps) == "all polynomial in t"
        pred = predict_time_dependence(kdv, reps)
        assert pred.prediction == POLYNOMIAL
        assert verified == []

    def test_closure_verifies_only_dG_dt_and_omega(self, kdv, verified):
        G = x * u1 + 2 * u0 + 3 * t * F_KDV
        v = dt_closure_check(kdv, is_symmetry(kdv, G))
        assert verified == [3 * F_KDV, v.reduced]
        assert v.reduced.is_zero  # (d/dt)^2 annihilates c_3 = 3*t


# -- the reduction-operator property ------------------------------------------

@pytest.mark.parametrize("lam,shape", [
    (2, "exp"), (0, "poly"),
])
def test_reduction_operators_leave_linear_or_exponential(lam, shape):
    # H = exp(lam t) sum_j t^j h_j; apply (d/dt - lam)^m for lam != 0,
    # d^{m-1}/dt^{m-1} for lam = 0; result must classify as linear or
    # exponential in t
    h = [u0, u1, u2 + u0 * u1]
    m = len(h) - 1
    H = ZERO
    efac = exp_of(lam * t) if lam else ONE
    for j, hj in enumerate(h):
        H = H + t ** j * hj * efac
    out = H
    if lam:
        for _ in range(m):
            out = partial(out, "t") - lam * out
    else:
        for _ in range(m - 1):
            out = partial(out, "t")
    cls = classify_time(out)
    if lam:
        assert cls.kind == QUASIPOLYNOMIAL
        assert all(deg == 0 for _, deg in cls.spectrum)
    else:
        assert cls.kind == POLYNOMIAL and cls.degree == 1


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_annihilator_kills_random_expressions(seed):
    rng = random.Random(seed)
    e = random_expr(rng, consts=("lam",))
    om = annihilator(e)
    assert om.apply(e).is_zero
    assert om.coeffs[-1] == ONE
