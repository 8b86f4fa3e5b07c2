import random
import re
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (AnsatzConfig, PoolLimitError, check_structure, classify,
                    const, expr_in_span, exp_of, find_linear_t_symmetries,
                    find_symmetries, frechet, is_symmetry, parse, partial, u,
                    u_order, x, t)
from evosym import linalg, search
from evosym.expr import ONE, ZERO, DiffExpr, rational
from evosym.search import _linear_system, ansatz_terms
from evosym.symmetry import SelfCheckError, bracket
from evosym.timedep import MasterResult, mastersymmetry_test
from conftest import COPIERS, random_expr
from test_cli import run_process
from test_linalg import _reference_nullspace

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
            ansatz_terms(kdv, AnsatzConfig(order=9, weight_max=40))

    def test_the_cap_is_a_module_constant(self, kdv, monkeypatch):
        assert search.MAX_POOL == 4000
        assert "max_pool" not in {f.name for f in fields(AnsatzConfig)}
        cfg = AnsatzConfig(order=9, weight_max=40)
        monkeypatch.setattr(search, "MAX_POOL", 50)
        with pytest.raises(PoolLimitError, match=(
                "^ansatz pool exceeds the cap of 50 entries; tighten the "
                "configuration$")):
            ansatz_terms(kdv, cfg)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            AnsatzConfig(order=-1, weight_max=3)

    @pytest.mark.parametrize("rate", ["u", "x", "2*t + 1", "exp(t)"])
    def test_non_constant_exp_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="ansatz exp_rate must be a "
                           "constant expression, got "):
            AnsatzConfig(order=1, weight_max=3, exp_rate=parse(rate))

    def test_constant_exp_rates_accepted(self):
        for rate in ("-2", "3/2*a", "a*b^-1"):
            AnsatzConfig(order=1, weight_max=3, exp_rate=parse(rate, "ab"))

    @pytest.mark.parametrize("name", ["t_degree_max", "x_degree_max"])
    def test_negative_degree_rejected(self, name):
        with pytest.raises(ValueError,
                           match=f"ansatz {name} must be >= 0, got -1"):
            AnsatzConfig(order=1, weight_max=3, **{name: -1})

    def test_order_beyond_the_weight_budget_adds_nothing(self, kdv):
        # u_i weighs i + 2, so with weight 7 no u_i above u_5 fits
        cfg = AnsatzConfig(order=5, weight_max=7)
        assert ansatz_terms(kdv, AnsatzConfig(order=100_000, weight_max=7)) \
            == ansatz_terms(kdv, cfg)

    @pytest.mark.parametrize("rate", [None, "1", "a"])
    @pytest.mark.parametrize("w0", [1, 2, 3])
    def test_pool_matches_the_product_built_loop(self, kdv, w0, rate):
        exp_rate = None if rate is None else parse(rate, ["a"])
        for order in range(8):
            for weight in range(-1, 10):
                for x_deg in range(3):
                    for t_deg in range(3):
                        cfg = AnsatzConfig(
                            order=order, weight_max=weight, base_weight=w0,
                            x_degree_max=x_deg, t_degree_max=t_deg,
                            exp_rate=exp_rate)
                        got = ansatz_terms(kdv, cfg)
                        ref = _reference_ansatz_terms(kdv, cfg)
                        assert got == ref, cfg
                        # one term each, so no entry hides a sum
                        assert all(len(m) == 1 for m in got)

    @pytest.mark.parametrize("w0", [1, 2, 3])
    def test_monomials_match_the_full_recursion(self, w0):
        for order in range(6):
            for weight in range(-1, 10):
                assert list(search._u_monomials(order, weight, w0)) \
                    == list(_reference_u_monomials(order, weight, w0))


_SEARCHES = [find_symmetries, find_linear_t_symmetries]
_O3W5 = AnsatzConfig(order=3, weight_max=5)


class TestExplicitPool:
    """A given pool is checked before any bracket: a dependent entry would
    make the nullspace's basis a dependent list, or a zero combination."""

    @pytest.mark.parametrize("pool, bad, text", [
        ([u1, u1], 1, "u1"),
        ([u(3), u1, u(3) + u1], 2, "u3 + u1"),
        ([u(2), 2 * u(2)], 1, "2*u2"),
        ([ZERO, u1], 0, "0"),
        ([const("a") * u1, u1], 1, "u1"),
    ], ids=["repeat", "sum", "multiple", "zero", "constant-multiple"])
    @pytest.mark.parametrize("search_fn", _SEARCHES,
                             ids=lambda f: f.__name__)
    def test_dependent_entry_refused(self, kdv, search_fn, pool, bad, text):
        with pytest.raises(ValueError, match=(
                f"^ansatz pool entry {bad} lies in the span of the entries "
                f"before it: {re.escape(text)}$")):
            search_fn(kdv, _O3W5, pool=pool)

    @pytest.mark.parametrize("entry", [1, "u1", None])
    @pytest.mark.parametrize("search_fn", _SEARCHES,
                             ids=lambda f: f.__name__)
    def test_non_expression_refused(self, kdv, search_fn, entry):
        with pytest.raises(ValueError, match=(
                "^ansatz pool entry 1 is not an expression: ")):
            search_fn(kdv, _O3W5, pool=[u1, entry])

    def test_empty_pool_refused(self, kdv):
        # the linear-t search's case is TestLinearT's
        with pytest.raises(ValueError, match="^empty ansatz pool$"):
            find_symmetries(kdv, _O3W5, pool=[])

    def test_a_generated_pool_runs_no_check(self, kdv, monkeypatch):
        calls = []

        def spy(*args, real=linalg.nullspace):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(linalg, "nullspace", spy)
        find_symmetries(kdv, _O3W5)
        assert len(calls) == 1


def _reference_ansatz_terms(eq, cfg):
    """The pool built of expression products: each entry the product of
    its u powers, x and t powers and the exponential factor, in the order
    of ``ansatz_terms``."""
    factor = ONE if cfg.exp_rate is None else exp_of(cfg.exp_rate * t)
    out = []
    weight = cfg.weight_max + cfg.x_degree_max + eq.n * cfg.t_degree_max
    for combo in search._u_monomials(cfg.order, weight, cfg.base_weight):
        w_mono = sum(e * (i + cfg.base_weight) for i, e in combo)
        mono = ONE
        for i, e in combo:
            mono = mono * u(i) ** e
        for p in range(cfg.x_degree_max + 1):
            for j in range(cfg.t_degree_max + 1):
                if w_mono - p - eq.n * j > cfg.weight_max:
                    continue
                term = mono
                if p:
                    term = term * x ** p
                if j:
                    term = term * t ** j
                out.append(term * factor)
    return out


@pytest.mark.parametrize("flag", ["--x-degree", "--t-degree"])
def test_a_huge_degree_meets_the_pool_cap_at_once(flag):
    # no list sized by the degree is built: the cap stops the loop
    proc = run_process("find", "--equation", "u3+6*u*u1", "--order", "3",
                       "--weight", "5", flag, "1000000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: ansatz pool exceeds the cap of 4000 "
                           "entries; tighten the configuration\n")


def test_a_pool_past_the_key_fields_stops_at_its_first_u():
    # u_2499 is the first u-power the pool builds after 1, and no term key
    # has a field for it
    proc = run_process("find", "--equation", "u3+6*u*u1", "--order", "2500",
                       "--weight", "2500", "--base-weight", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: u-index 2499 out of range")


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


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_the_bracket_is_antisymmetric(seed):
    # find_symmetries takes the image of an entry m free of t as {m, F}
    rng = random.Random(seed)
    h, r = (random_expr(rng, consts=("a",)) for _ in range(2))
    assert bracket(h, r) == -bracket(r, h)


@pytest.mark.parametrize("cfg", [
    AnsatzConfig(order=3, weight_max=5, t_degree_max=1, x_degree_max=1),
    AnsatzConfig(order=2, weight_max=4, exp_rate=const("a")),
], ids=["t-and-x", "exp-rate"])
def test_every_image_is_dm_dt_minus_the_bracket_f_m(kdv, cfg, monkeypatch):
    systems = []
    real = search._linear_system

    def spy(images):
        systems.append(images)
        return real(images)

    monkeypatch.setattr(search, "_linear_system", spy)
    res = find_symmetries(kdv, cfg)
    pool = ansatz_terms(kdv, cfg)
    (images,) = systems
    assert len(images) == len(pool) == res.pool_size
    assert images == [partial(m, "t") - bracket(kdv.F, m) for m in pool]
    assert any(partial(m, "t") for m in pool)


@pytest.mark.parametrize("src, names, cfg, x_dependent", [
    ("u3 + 6*u*u1", (), AnsatzConfig(order=7, weight_max=9), 0),
    ("u5 + a*u*u3 + b*u1*u2 + c*u^2*u1", ("a", "b", "c"),
     AnsatzConfig(order=7, weight_max=9), 0),
    ("u3 + 6*u*u1", (), AnsatzConfig(order=3, weight_max=5, t_degree_max=1,
                                     x_degree_max=1), 1),
    ("u2 + 2*u*u1", (), AnsatzConfig(order=2, weight_max=3, t_degree_max=1,
                                     x_degree_max=1, base_weight=1), 1),
], ids=["kdv-o7w9", "fifth-order-o7w9", "kdv-o3w5-t1x1",
        "burgers-o2w3-t1x1"])
def test_search_results_pass_the_structure_checks(src, names, cfg,
                                                  x_dependent):
    # the paper's structure theorems hold on every basis element; the
    # x-dependent elements exercise the decomposition and the descent
    eq = classify(parse(src, names))
    basis = find_symmetries(eq, cfg).basis
    checked = [check_structure(eq, is_symmetry(eq, g)) for g in basis]
    assert len(checked) == len(basis) >= 2
    assert sum(dec.s == 1 and len(trace.steps) == 2
               for _, dec, trace in checked) == x_dependent


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

    def test_time_dependent_equation_rejected(self):
        eq = classify(parse("t*u2"))
        with pytest.raises(ValueError, match="^linear-t search requires a "
                           "time-independent equation$"):
            find_linear_t_symmetries(eq, AnsatzConfig(order=1, weight_max=3))

    def test_time_dependent_pool_rejected(self, kdv):
        with pytest.raises(ValueError):
            find_linear_t_symmetries(
                kdv, AnsatzConfig(order=1, weight_max=3, t_degree_max=1))

    @pytest.mark.parametrize("element", [t * u1, exp_of(t) * u1])
    def test_time_dependent_pool_element_rejected(self, kdv, element):
        with pytest.raises(ValueError, match="must be time-independent"):
            find_linear_t_symmetries(
                kdv, AnsatzConfig(order=1, weight_max=3), pool=[u1, element])

    @pytest.mark.parametrize("cfg, pool", [
        (AnsatzConfig(order=1, weight_max=3), []),
        (AnsatzConfig(order=0, weight_max=-1), None),
    ], ids=["explicit", "generated"])
    def test_empty_pool_rejected(self, kdv, cfg, pool):
        # no search ran, so there is no "no pairs" to report
        with pytest.raises(ValueError, match="empty ansatz pool"):
            find_linear_t_symmetries(kdv, cfg, pool=pool)


def _reference_linear_t(eq, cfg):
    """The quotient by a greedy span test, the reference for the pivot
    read: the kernel of ``G0 -> {F, G0}`` by an elimination of its own,
    then a loop that keeps each second-kernel vector outside the span of
    that kernel and of the vectors kept before it.  Returns the ``(G0, G1,
    mu)`` triples."""
    pool = ansatz_terms(eq, cfg)
    first = [bracket(eq.F, m) for m in pool]
    second = [bracket(eq.F, g) for g in first]
    ker2 = linalg.nullspace(*_linear_system(second))
    ker1 = linalg.nullspace(*_linear_system(first))
    accepted = [list(v) for v in ker1.basis]
    pairs = []
    for vec in ker2.basis:
        if linalg.in_span(list(vec), accepted, len(pool)):
            continue
        accepted.append(list(vec))
        G0 = search._combine(vec, pool)
        res = mastersymmetry_test(eq, G0)
        pairs.append((G0, res.G1, res.mu))
    return pairs


O3W5X1 = AnsatzConfig(order=3, weight_max=5, x_degree_max=1)


@pytest.mark.parametrize("src, names, cfg", [
    ("u3 + 6*u*u1", "", O3W5X1),
    ("u2 + 2*u*u1", "", O3W5X1),
    ("u3", "", AnsatzConfig(order=1, weight_max=3, x_degree_max=1)),
    # KdV and Burgers rescaled by 5/7 and 7/5, (1/k) F(k u)
    ("u3 + 30/7*u*u1", "", O3W5X1),
    ("u3 + 42/5*u*u1", "", O3W5X1),
    ("u2 + 10/7*u*u1", "", O3W5X1),
    ("u2 + 14/5*u*u1", "", O3W5X1),
    ("u3 + a*u*u1", "a", O3W5X1),
    ("u3 + a*u*u1 + b*u^2*u1 + c*u1", "abc", O3W5X1),
    ("u5 + a*u*u3 + b*u1*u2 + c*u^2*u1", "abc",
     AnsatzConfig(order=4, weight_max=5, x_degree_max=1, base_weight=1)),
])
def test_linear_t_pairs_match_the_greedy_quotient(src, names, cfg):
    eq = classify(parse(src, list(names)))
    res = find_linear_t_symmetries(eq, cfg)
    assert res.pairs
    assert [(p.G0, p.G1, p.mu) for p in res.pairs] \
        == _reference_linear_t(eq, cfg)


def test_linear_t_runs_two_eliminations_and_expr_in_span_one(
        kdv, monkeypatch):
    calls = []
    for name in ("nullspace", "rank", "in_span"):
        def spy(*args, real=getattr(linalg, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(linalg, name, spy)
    res = find_linear_t_symmetries(kdv, O3W5X1)
    assert calls == ["nullspace", "nullspace"]  # ker2 and the G1 system
    calls.clear()
    assert expr_in_span(u1, [p.G1 for p in res.pairs])
    assert calls == ["nullspace"]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_expr_in_span_matches_the_two_rank_definition(seed):
    def rank(exprs):
        return _reference_nullspace(*_reference_linear_system(exprs))[1]

    *basis, target = _random_images(random.Random(seed))
    for tgt, span in ((target, basis), (ZERO, basis), (target, [])):
        assert expr_in_span(tgt, span) == (rank(span + [tgt]) == rank(span))


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


@pytest.mark.parametrize("flip", [False, True])
def test_a_constant_slot_orders_a_row_before_an_exponential_one(flip):
    # a*exp(a*t)*u sorts before exp(t)*u, as ((1, a), 1) before the rate
    # slot of exp(t), though the shape exp(a*t)*u sorts after exp(t)*u
    a = const("a")
    images = [a * exp_of(a * t) * u0 + exp_of(t) * u0,
              exp_of(t) * u1 + a * exp_of(a * t) * u1]
    if flip:
        images.reverse()
    rows, ncols = _linear_system(images)
    ref_rows, ref_ncols = _reference_linear_system(images)
    assert ncols == ref_ncols == 2 and len(rows) == len(ref_rows) == 4
    for row, ref_row in zip(rows, ref_rows):
        assert row == ref_row
    # each image names the shape of its term with the constant first
    assert rows[0][0] == rows[2][1] == a


@pytest.mark.parametrize("src, names", [("u3 + 6*u*u1", ""),
                                         ("u3 + a*u*u1", "a"),
                                         ("u2 + 2*u*u1", "")])
def test_every_linear_t_pair_is_its_certified_master_result(src, names):
    eq = classify(parse(src, list(names)))
    res = find_linear_t_symmetries(eq, O3W5X1)
    assert res.pairs
    for pair in res.pairs:
        assert type(pair) is MasterResult and pair.generates
        assert pair.certified.is_symmetry
        assert pair.certified.candidate == pair.G0 + t * pair.G1


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
def test_results_copy_and_pickle(kdv, copier):
    values = [kdv, frechet(kdv.F), is_symmetry(kdv, G5),
              find_symmetries(kdv, AnsatzConfig(order=3, weight_max=5)),
              find_linear_t_symmetries(kdv, O3W5X1)]
    for value in values:
        assert copier(value) == value, type(value).__name__


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
        return MasterResult(G0, got.G1, False, got.mu, None)

    monkeypatch.setattr(search, "mastersymmetry_test", open_pair)
    with pytest.raises(SelfCheckError, match="fails {F, {F, G0}} = 0"):
        find_linear_t_symmetries(kdv, cfg)

    monkeypatch.setattr(search, "mastersymmetry_test",
                        lambda eq, G0: MasterResult(G0, ZERO, True, None,
                                                    None))
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


def test_linear_t_lists_the_pivots_its_pairs_are_read_from():
    abc = ["a", "b", "c"]
    fifth = classify(parse(FIFTH_ORDER.format(a="a", b="b", c="c"), abc))
    res = find_linear_t_symmetries(
        fifth, AnsatzConfig(order=3, weight_max=6, x_degree_max=1))
    # a pivot of the first kernel, which the quotient no longer eliminates
    assert parse("b - 2*a", abc) not in res.pivot_assumptions
    # a pivot of the G1 system, which the greedy loop's sweeps never listed
    third = classify(parse("u3 + a*u*u1 + b*u^2*u1 + c*u1", abc))
    res = find_linear_t_symmetries(third, O3W5X1)
    assert res.pivot_assumptions == (parse("2*b*c + a^2", abc),)


def test_linear_t_is_generic_where_only_a_first_kernel_pivot_vanishes():
    # at this point the first kernel's pivot 70*c + b^2 - 9*a^2 - 7*a*b
    # vanishes and no listed assumption does: the first kernel keeps its
    # generic dimension there, and the numeric search its generic pairs
    cfg = AnsatzConfig(order=4, weight_max=5, x_degree_max=1, base_weight=1)
    values = {"a": 2, "b": 1, "c": Fraction(7, 10)}

    def first_kernel(eq):
        return linalg.nullspace(*_linear_system(
            [bracket(eq.F, m) for m in ansatz_terms(eq, cfg)]))

    eq = classify(parse(FIFTH_ORDER.format(a="a", b="b", c="c"),
                        ["a", "b", "c"]))
    symbolic = find_linear_t_symmetries(eq, cfg)
    assert all(_at_point(p, values) != 0 for p in symbolic.pivot_assumptions)
    ker1 = first_kernel(eq)
    assert any(_at_point(p, values) == 0 for p in ker1.pivot_assumptions)
    at = classify(parse(FIFTH_ORDER.format(a=2, b=1, c="7/10")))
    assert len(first_kernel(at).basis) == len(ker1.basis)
    assert len(find_linear_t_symmetries(at, cfg).pairs) \
        == len(symbolic.pairs) == 1


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
