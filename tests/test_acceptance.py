"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values tagged
in the comments as oracle-derived are computed here by independent means
(raw definition expansion, dense rational elimination, direct iteration),
never trusted from the implementation under test.
"""

import random
import time

from evosym import (AnsatzConfig, annihilator, bracket, classify,
                    classify_time, descent_bound, descent_leading_coeff_check,
                    determining_system, ev_apply, exp_of, expr_in_span,
                    find_symmetries, frechet, is_symmetry,
                    leading_coefficient_check, mastersymmetry_test,
                    op_apply, parse, partial, predict_time_dependence,
                    representation_decompose, scaling_test, total_d, u,
                    u_order, x, t, x_descent)
from evosym import ExpressionError
from evosym.cli import parse_corpus
from evosym.expr import ONE, ZERO, rational
from evosym.timedep import POLYNOMIAL, QUASIPOLYNOMIAL, TIME_INDEPENDENT

from conftest import (CORPUS_PATH, bracket_oracle, random_expr, random_rhs)

u0, u1, u2, u3 = u(0), u(1), u(2), u(3)
F_KDV = parse("u3 + 6*u*u1")
G_GAL = parse("1 + 6*t*u1")
G_SCALE = parse("x*u1 + 2*u + 3*t*(u3 + 6*u*u1)")


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}")


def corpus_symmetries():
    """Every (equation, verified symmetry) pair from the shipped corpus."""
    out = []
    for entry in parse_corpus(CORPUS_PATH.read_text()):
        eq = classify(parse(entry.equation, entry.constants))
        for source, expect_time in entry.symmetries:
            out.append((entry.name, eq,
                        parse(source, entry.constants), expect_time))
    return out


def test_criterion_1_kdv_suite_against_brute_force_oracle(kdv):
    positives = [u1, F_KDV, G_GAL, G_SCALE]
    negatives = [u2, u0 * u2]
    for G in positives:
        # independent oracle: raw evolutionary-form expansion of {F, G}
        oracle_residual = partial(G, "t") - bracket_oracle(F_KDV, G)
        assert oracle_residual.is_zero
        assert is_symmetry(kdv, G).is_symmetry
    for G in negatives:
        oracle_residual = partial(G, "t") - bracket_oracle(F_KDV, G)
        assert not oracle_residual.is_zero
        assert not is_symmetry(kdv, G).is_symmetry
    report(1, "KdV suite: 4 symmetries, 2 non-symmetries, all verdicts "
              "match the brute-force oracle")


def test_criterion_2_third_order_corpus_predicts_polynomial():
    corpus = [
        ("u3 + u*u1", (), ["u1", "1 + t*u1"]),
        ("u3 + u1^2 + c", ("c",), ["u1", "1", "x + 2*t*u1"]),
        ("u3 + u^2*u1 + c*u1", ("c",), ["u1"]),
        ("u3 + u1^3 + c*u1 + d", ("c", "d"), ["u1", "1"]),
        ("u3 - u1^3/2 + (a*exp(2*u) + b*exp(-2*u) + d)*u1",
         ("a", "b", "d"), ["u1"]),
    ]
    for source, consts, basis_src in corpus:
        eq = classify(parse(source, consts))
        assert eq.constant_separant, source
        assert eq.kdv_like, source
        basis = [parse(b, consts) for b in basis_src]
        pred = predict_time_dependence(eq, basis, corollary_mode=True)
        assert pred.prediction == POLYNOMIAL, source
    report(2, "all five third-order equations are constant-separant and "
              "KdV-like; order-0/1 bases predict polynomial time dependence")


def test_criterion_3_determining_system_oracle_equivalence():
    rng = random.Random(20260810)
    start = time.monotonic()
    pairs = 0
    while pairs < 200:
        n = rng.choice((2, 3))
        F = random_rhs(rng, n)
        try:
            eq = classify(F)
        except ExpressionError:
            continue
        G = random_expr(rng, max_terms=3, max_u=rng.randint(0, 4))
        if G.is_zero:
            continue
        # determining_system raises SelfCheckError on any term-level
        # disagreement between the literal and operator constructions
        determining_system(eq, G)
        pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(3, f"literal and operator determining-system constructions agree "
              f"on {pairs} random (F, G) pairs in {elapsed:.1f}s")


def test_criterion_4_structure_invariants_across_corpus(kdv):
    checked = 0
    for name, eq, G, _ in corpus_symmetries():
        rep = is_symmetry(eq, G)
        assert rep.is_symmetry, (name, G)
        k = rep.order
        if k is not None and k >= 2:
            lead = leading_coefficient_check(eq, rep)
            assert lead.ok, (name, G, lead.detail)
        trace = x_descent(eq, rep)  # raises on a bound violation
        for (prev, po), (cur, co) in zip(trace.steps, trace.steps[1:]):
            assert co is None or co <= max(1, (po or 0) - eq.n + 1)
        dec = representation_decompose(eq, rep)
        try:
            bound = descent_bound(k or 0, eq.n, 1)
        except Exception:
            bound = descent_bound(k or 0, eq.n, -1)
        assert dec.s_effective <= bound
        checked += 1

    # the order-3 time-dependent KdV symmetry, pinned numbers:
    rep = is_symmetry(kdv, G_SCALE)
    assert partial(G_SCALE, 3) == 3 * t            # c_3 = 3t
    assert descent_bound(3, 3, 0) == 1             # r = 1
    v = descent_leading_coeff_check(kdv, rep)
    assert v.ok and v.r == 1
    assert partial(v.Q, 1) == ONE                  # dQ/du_1 = 1
    assert partial(partial(G_SCALE, 3), "t") / rational(3) == ONE
    report(4, f"leading-coefficient form, descent bounds and decomposition "
              f"hold for all {checked} corpus symmetries; pinned order-3 "
              f"case has c_3 = 3t, r = 1, (1/3) d(3t)/dt = 1")


def test_criterion_5_master_and_scaling_round_trips(kdv, heat):
    # re-derive the golden values through the raw-definition oracle
    G0 = parse("x*u1 + 2*u")
    assert bracket_oracle(F_KDV, G0) == 3 * F_KDV
    assert bracket_oracle(F_KDV, 3 * F_KDV).is_zero
    res = mastersymmetry_test(kdv, G0)
    assert res.G1 == 3 * F_KDV and res.closes and res.mu == rational(3)
    assert res.certified is not None
    assert res.certified.candidate == G0 + t * (3 * F_KDV) == G_SCALE

    assert bracket_oracle(parse("u2"), exp_of(x)) == exp_of(x)
    sc = scaling_test(heat, exp_of(x))
    assert sc.found and sc.lam == ONE
    assert sc.certified is not None
    assert sc.certified.candidate == exp_of(t) * exp_of(x)
    report(5, "mastersymmetry round trip gives G1 = 3F certifying "
              "x*u1 + 2u + 3tF; scaling on u_t = u2 gives lambda = 1 "
              "certifying exp(t)*exp(x)")


def test_criterion_6_search_soundness_and_recovery(kdv):
    start = time.monotonic()
    res = find_symmetries(kdv, AnsatzConfig(order=5, weight_max=7))
    assert res.basis
    for g in res.basis:
        # independent re-verification through the oracle
        assert (partial(g, "t") - bracket_oracle(F_KDV, g)).is_zero
    assert any(u_order(g) == 5 for g in res.basis)

    cfg = AnsatzConfig(order=3, weight_max=5, t_degree_max=1)
    recovered = find_symmetries(kdv, cfg)
    for planted in (u1, F_KDV, G_GAL):
        assert expr_in_span(planted, list(recovered.basis)), planted
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(6, f"order-5 search returns a sound nonempty basis; u1, F and "
              f"the Galilean symmetry are recovered ({elapsed:.1f}s)")


def test_criterion_7_randomized_algebra_suites():
    rng = random.Random(987654321)
    n_cases = 1000

    for _ in range(n_cases):  # total-derivative derivation law
        e1 = random_expr(rng, max_terms=2)
        e2 = random_expr(rng, max_terms=2)
        assert total_d(e1 * e2) == total_d(e1) * e2 + e1 * total_d(e2)

    for _ in range(n_cases):  # bracket antisymmetry
        h = random_expr(rng, max_terms=2, max_u=2)
        r = random_expr(rng, max_terms=2, max_u=2)
        assert bracket(h, r) == -bracket(r, h)

    for _ in range(n_cases):  # Jacobi identity
        h = random_expr(rng, max_terms=1, max_u=2)
        r = random_expr(rng, max_terms=1, max_u=2)
        s = random_expr(rng, max_terms=2, max_u=1)
        assert (bracket(h, bracket(r, s)) + bracket(r, bracket(s, h))
                + bracket(s, bracket(h, r))).is_zero

    for _ in range(n_cases):  # ev_apply / frechet duality
        h = random_expr(rng, max_terms=2)
        r = random_expr(rng, max_terms=2)
        assert ev_apply(h, r) == op_apply(frechet(r), h)

    for _ in range(n_cases):  # evolutionary fields commute with D
        h = random_expr(rng, max_terms=2)
        r = random_expr(rng, max_terms=2)
        assert ev_apply(h, total_d(r)) == total_d(ev_apply(h, r))

    for _ in range(n_cases):  # normalize idempotence via re-normalization
        e1 = random_expr(rng, consts=("a",))
        e2 = random_expr(rng, consts=("a",))
        assert (e1 + e2) - e2 == e1
        assert parse(str(e1), ("a",)) == e1

    for _ in range(n_cases):  # annihilator correctness
        e = random_expr(rng, consts=("lam",))
        assert annihilator(e).apply(e).is_zero

    report(7, f"seven algebra suites passed with {n_cases} randomized "
              f"cases each")


def test_criterion_8_time_classifier_and_reduction_operators():
    matched = 0
    for name, eq, G, expect_time in corpus_symmetries():
        if expect_time is None:
            continue
        cls = classify_time(G)
        if expect_time == "independent":
            assert cls.kind == TIME_INDEPENDENT, (name, G)
        elif expect_time.startswith("polynomial"):
            assert cls.kind == POLYNOMIAL, (name, G)
            deg = expect_time.split()
            if len(deg) == 2:
                assert cls.degree == int(deg[1]), (name, G)
        else:
            assert cls.kind == QUASIPOLYNOMIAL, (name, G)
        matched += 1
    assert matched >= 10

    # reduction operators on inputs of quasipolynomial shape
    h = [u0, u1 + u0 ** 2, u2]
    m = len(h) - 1
    for lam in (2, -1, 0):
        efac = exp_of(lam * t) if lam else ONE
        H = sum((t ** j * hj * efac for j, hj in enumerate(h)), ZERO)
        out = H
        if lam:
            for _ in range(m):
                out = partial(out, "t") - lam * out
            cls = classify_time(out)
            assert cls.kind == QUASIPOLYNOMIAL
            assert all(deg == 0 for _, deg in cls.spectrum)  # exponential
        else:
            for _ in range(m - 1):
                out = partial(out, "t")
            cls = classify_time(out)
            assert cls.kind == POLYNOMIAL and cls.degree == 1  # linear
    report(8, f"classifier matches expectations on {matched} corpus "
              f"symmetries; reduction operators leave linear or exponential "
              f"time dependence")
