import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (DOperator, const, ev_apply, exp_of, frechet, linalg,
                    nabla_on_op, op_apply, op_commutator, op_compose, parse,
                    partial, to_source, total_d, total_d_power, u, u_order,
                    x, t)
from evosym import expr as ex
from evosym.expr import (GEN_T, GEN_X, ONE, ExpressionError, kernel,
                         rational)

from conftest import decoded, random_expr, reference_mul_key

u0, u1, u2, u3, u4 = u(0), u(1), u(2), u(3), u(4)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestTotalD:
    def test_definition(self):
        assert total_d(u0) == u1

    def test_product(self):
        assert total_d(x * u1) == u1 + x * u2

    def test_square(self):
        assert total_d(u0 ** 2) == 2 * u0 * u1

    def test_exponential(self):
        assert total_d(exp_of(x)) == exp_of(x)
        assert total_d(exp_of(2 * u0)) == 2 * u1 * exp_of(2 * u0)

    def test_powers(self):
        assert total_d_power(u0, 2) == u2
        # iterated application as its own oracle
        e = x * u1 + 2 * u0
        step = total_d(total_d(total_d(e)))
        assert total_d_power(e, 3) == step == 5 * u3 + x * u4

    def test_zeroth_power_is_identity(self):
        e = x * u1 + exp_of(t)
        assert total_d_power(e, 0) == e

    def test_negative_power_rejected(self):
        with pytest.raises(ExpressionError):
            total_d_power(u0, -1)


class TestFrechet:
    def test_kdv(self):
        F = u3 + 6 * u0 * u1
        assert frechet(F) == DOperator({3: ONE, 1: 6 * u0, 0: 6 * u1})

    def test_identity(self):
        assert frechet(u0) == DOperator({0: ONE})

    def test_u_independent_is_zero(self):
        assert frechet(x * t).is_zero

    def test_atom_dependence(self):
        e = exp_of(-2 * u0)
        assert frechet(e) == DOperator({0: -2 * e})


class TestEvApply:
    def test_single_term(self):
        h = u0 * u1 + x
        assert ev_apply(h, u2) == total_d_power(h, 2)

    def test_hand_expanded(self):
        assert ev_apply(u1, u0 * u1) == u1 ** 2 + u0 * u2

    def test_u_independent_target(self):
        assert ev_apply(u0 ** 3, x * t).is_zero


class TestOperators:
    def test_apply(self):
        Fst = DOperator({3: ONE, 1: 6 * u0, 0: 6 * u1})
        assert op_apply(Fst, 1 + 6 * t * u1) == \
            6 * t * u4 + 36 * t * u0 * u2 + 36 * t * u1 ** 2 + 6 * u1

    def test_commutator_leibniz(self):
        D = DOperator({1: ONE})
        assert op_commutator(D, DOperator({1: u0})) == DOperator({1: u1})

    def test_commutator_self_is_zero(self):
        A = DOperator({2: u1, 0: x * t})
        assert op_commutator(A, A).is_zero

    def test_compose_degree(self):
        A = DOperator({2: u0})
        B = DOperator({3: u1})
        assert op_compose(A, B).degree == 5

    def test_nabla_on_op(self):
        A = DOperator({1: u0})
        assert nabla_on_op(u1, A) == DOperator({1: u1})


# -- the fused D against its definition ---------------------------------------

def _total_d_by_partials(e):
    """``D(e) = de/dx + sum_i u_{i+1} de/du_i``, composed from ``partial``."""
    out = partial(e, x)
    top = u_order(e)
    for i in range(top + 1 if top is not None else 0):
        out = out + u(i + 1) * partial(e, u(i))
    return out


_SYMBOLIC_EXP = exp_of(const("a") * u0 + const("b") * x - t)


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_total_d_matches_partial_composition(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_terms=4, consts=("a", "b"))
    if rng.random() < 0.6:
        e = e * _SYMBOLIC_EXP
    if rng.random() < 0.5:
        e = e + random_expr(rng, max_terms=2, consts=("a", "b"))
    assert total_d(e) == _total_d_by_partials(e)


@pytest.mark.parametrize("source", [
    "u2*exp(a*u + b*x - t)",
    "(u3 + 6*u*u1)*exp(a*u + b*x - t) + a^-1*x*u2",
    "x^2*u1^3*exp(2*u - x) + a*b*u*u1",
    "t*u^2*u1*exp(-3/2*a*u + 1/2*t) - exp(b*x)",
    "u1*exp(a*b^-1*x + a^2*u - 3/2*b*t)",
])
def test_total_d_against_sympy(source):
    """``D`` and ``partial`` by x, t and u, each against sympy: the
    exponential rates' constant monomials go through both kernels."""
    sp = pytest.importorskip("sympy")
    names = {"x": sp.Symbol("x"), "t": sp.Symbol("t"), "a": sp.Symbol("a"),
             "b": sp.Symbol("b"), "exp": sp.exp, "u": sp.Symbol("u0")}
    us = [sp.Symbol(f"u{i}") for i in range(8)]
    names.update({f"u{i}": us[i] for i in range(1, 8)})

    def to_sympy(e):
        return sp.sympify(to_source(e).replace("^", "**"), locals=names)

    e = parse(source, ("a", "b"))
    f = to_sympy(e)
    expected = sp.diff(f, names["x"]) + sum(
        us[i + 1] * sp.diff(f, us[i]) for i in range(len(us) - 1))
    assert sp.expand(to_sympy(total_d(e)) - expected) == 0
    for gen in ("x", "t", "u"):
        got = to_sympy(partial(e, gen))
        assert sp.expand(got - sp.diff(f, names[gen])) == 0


# -- randomized laws ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seeds)
def test_total_d_is_a_derivation(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng)
    e2 = random_expr(rng)
    assert total_d(e1 * e2) == total_d(e1) * e2 + e1 * total_d(e2)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_evolutionary_field_commutes_with_d(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2)
    r = random_expr(rng, max_terms=2)
    assert ev_apply(h, total_d(r)) == total_d(ev_apply(h, r))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_ev_apply_frechet_duality(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=2)
    r = random_expr(rng, max_terms=2)
    assert ev_apply(h, r) == op_apply(frechet(r), h)


def _random_operator(rng, max_deg=2):
    return DOperator({d: random_expr(rng, max_terms=1, max_u=2)
                      for d in range(rng.randint(0, max_deg) + 1)
                      if rng.random() < 0.8})


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_operator_composition_associative(seed):
    rng = random.Random(seed)
    A, B, C = (_random_operator(rng) for _ in range(3))
    assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_fused_operators_match_operator_arithmetic(seed):
    # each degree is one signed fused sum; against the two compositions
    # subtracted degree by degree and one ev_apply per coefficient
    rng = random.Random(seed)
    A, B = _random_operator(rng, 3), _random_operator(rng, 3)
    h = random_expr(rng, max_terms=2)
    AB, BA = op_compose(A, B), op_compose(B, A)
    assert op_commutator(A, B) == DOperator(
        {d: AB.coeff(d) - BA.coeff(d) for d in {*AB.coeffs, *BA.coeffs}})
    assert nabla_on_op(h, A) == DOperator(
        {d: ev_apply(h, c) for d, c in A.coeffs.items()})


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_frechet_matches_all_orders_up_to_the_top(seed):
    rng = random.Random(seed)
    h = random_expr(rng, max_terms=3, max_u=7, consts=("a",))
    top = u_order(h)
    want = DOperator({i: partial(h, i) for i in range(top + 1)}) \
        if top is not None else DOperator({})
    assert frechet(h) == want


def test_frechet_asks_only_for_the_partials_that_occur(monkeypatch):
    from evosym import calculus
    asked = []

    def spy(e, v):
        asked.append(v)
        return partial(e, v)

    monkeypatch.setattr(calculus, "partial", spy)
    assert frechet(u(7) * x) == DOperator({7: x})
    assert asked == [7]


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compose_against_apply(seed):
    rng = random.Random(seed)
    A, B = _random_operator(rng), _random_operator(rng)
    e = random_expr(rng, max_terms=2)
    assert op_apply(op_compose(A, B), e) == op_apply(A, op_apply(B, e))


# -- the D and partial memos on DiffExpr --------------------------------------

def _memo_expr(rng):
    """A random expression with named constants, often times an exponential
    with a rational rate (whose derivatives rescale the numerators)."""
    e = random_expr(rng, max_terms=4, consts=("a", "b"))
    if rng.random() < 0.6:
        rate = Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3, 7)))
        arg = rational(rate) * rng.choice((u0, x, t)) + const("a") * x
        e = e * exp_of(arg)
    return e


def _fresh(e, gen=None):
    """``D(e)``, or ``de/dgen`` for a generator code, built from the kernel
    alone, bypassing every memo."""
    terms, m = kernel.derive_terms(e._t, gen)
    return ex._reduced(terms, e._den * m)


def _copy(e):
    return ex._reduced(dict(e._t), e._den)


_GENS = (GEN_X, GEN_T, 0, 1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_memoized_derivatives_equal_fresh_kernel_results(seed):
    rng = random.Random(seed)
    e = _memo_expr(rng)
    ref = _copy(e)
    for j in range(4):
        fresh = ref
        for _ in range(j):
            fresh = _fresh(_copy(fresh))
        got = total_d_power(e, j)
        assert (got._den, got._t) == (fresh._den, fresh._t)
        assert total_d_power(e, j) is got
    assert total_d(e) is total_d(e) is total_d_power(e, 1)
    for g in _GENS:
        got = partial(e, g)
        fresh = _fresh(_copy(e), g)
        assert (got._den, got._t) == (fresh._den, fresh._t)
        assert partial(e, g) is got
    # a generator given by name or as an expression shares the memo
    assert partial(e, "x") is partial(e, GEN_X)
    assert partial(e, u1) is partial(e, 1)


# -- derive_terms against the two kernels it replaced --------------------------
#
# The references run on slot-tuple keys (``DiffExpr.term_items``); the
# kernel's input and output are compared through the decoded view.

def _reference_diff_terms(a, gen):
    """The former partial-derivative kernel, ``(terms, m)`` with the
    derivative ``terms / m``."""
    out = {}
    get = out.get
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        for idx, (slot, val) in enumerate(key):
            kind = slot[0]
            if kind == 0:
                if slot[1] != gen:
                    continue
                if val == 1:
                    nk = key[:idx] + key[idx + 1:]
                else:
                    nk = key[:idx] + ((slot, val - 1),) + key[idx + 1:]
                nc = c * val
            elif kind == 2:
                if slot[1] != gen:
                    continue
                nk = reference_mul_key(key, slot[2])
                if type(val) is int:
                    nc = c * val
                else:
                    q = val.denominator
                    if m % q:
                        r = kernel.rescale(out, m, q)
                        c *= r
                        m *= r
                    nc = c // q * val.numerator
            else:
                continue
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
                else:
                    del out[nk]
            get = out.get
    return out, m


def _reference_total_d_terms(a):
    """The former one-pass ``D`` kernel, ``(terms, m)`` as above."""
    out = {}
    get = out.get
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        n = len(key)
        for idx, (slot, val) in enumerate(key):
            kind, gen = slot[0], slot[1]
            if kind == 1 or gen == -2:
                continue
            if kind == 0:
                head = key[:idx] if val == 1 else key[:idx] + ((slot, val - 1),)
                if gen == -1:
                    nk = head + key[idx + 1:]
                else:
                    nxt = idx + 1
                    up = (0, gen + 1)
                    if nxt < n and key[nxt][0] == up:
                        nk = head + ((up, key[nxt][1] + 1),) + key[nxt + 1:]
                    else:
                        nk = head + ((up, 1),) + key[nxt:]
                nc = c * val
            else:
                factor = slot[2]
                if gen >= 0:
                    factor = (((0, gen + 1), 1),) + factor
                nk = reference_mul_key(key, factor)
                if type(val) is int:
                    nc = c * val
                else:
                    q = val.denominator
                    if m % q:
                        r = kernel.rescale(out, m, q)
                        c *= r
                        m *= r
                    nc = c // q * val.numerator
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
                else:
                    del out[nk]
    return out, m


_CODES = tuple(range(-2, 5))  # t, x, u_0 .. u_4
_RATES = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def derivation_inputs(draw):
    """A sum of terms in the generators ``t, x, u_0 .. u_4`` and the named
    constants ``a, b``, each term often times ``exp`` of a combination of
    x, t and u whose rates are fractional and may carry named constants."""
    out = ex.ZERO
    for _ in range(draw(st.integers(1, 4))):
        term = rational(draw(_RATES))
        for code, power in draw(st.lists(st.tuples(st.sampled_from(_CODES),
                                                   st.integers(1, 3)),
                                         max_size=3)):
            term = term * ex.gen_expr(code) ** power
        for name in draw(st.lists(st.sampled_from("ab"), max_size=2)):
            term = term * const(name) ** draw(st.sampled_from((-2, -1, 1, 2)))
        arg = ex.ZERO
        for v in draw(st.lists(st.sampled_from((x, t, u0)), max_size=3)):
            rate = rational(draw(_RATES))
            if draw(st.booleans()):
                rate = rate * const(draw(st.sampled_from("ab"))) \
                    ** draw(st.sampled_from((-1, 1, 2)))
            arg = arg + rate * v
        out = out + term * exp_of(arg)
    return out


@settings(max_examples=300, deadline=None)
@given(derivation_inputs())
def test_derive_terms_matches_the_kernels_it_replaced(e):
    # the same terms, in the same order, on the same scale
    def same(got, want):
        return (list(decoded(got[0]).items()), got[1]) == (
            list(want[0].items()), want[1])

    slots = decoded(e._t)
    assert same(kernel.derive_terms(e._t), _reference_total_d_terms(slots))
    for gen in _CODES:
        assert same(kernel.derive_terms(e._t, gen),
                    _reference_diff_terms(slots, gen))


def _snapshot(e):
    return e._t, dict(e._t), e._den


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_memoized_derivatives_are_not_mutated_by_use(seed):
    rng = random.Random(seed)
    e = _memo_expr(rng)
    other = _memo_expr(rng)
    held = [total_d(e), total_d_power(e, 2), partial(e, 0), partial(e, GEN_X)]
    before = [_snapshot(d) for d in held]
    for d in held:
        d + other, other + d, d - other, other - d, -d
        d * other, other * d, d * d, d / 3, d / const("b"), d ** 2, d ** 1
        d + d, d - d
    # the constant partials of a linear form are matrix entries
    ca = rational(rng.choice((1, 2, 3))) * const("a") + rng.choice((-1, 1))
    cb = rational(Fraction(1, rng.choice((2, 3)))) * const("b") + const("a")
    lin = ca * u0 + cb * u1
    entries = [partial(lin, 0), partial(lin, 1)]
    held += entries
    before += [_snapshot(d) for d in entries]
    linalg.nullspace([entries, entries[::-1], [entries[0], ex.ZERO]], 2)
    linalg.nullspace([[entries[0] * entries[1], entries[1] ** 2]], 2)
    for d, (t0, t1, den) in zip(held, before):
        assert d._t is t0 and d._t == t1 and d._den == den
    assert total_d(e) is held[0] and partial(e, 0) is held[2]


def test_memos_filled_from_many_threads_agree():
    # racing fills may store equal values twice or drop one, never a wrong
    # one: every thread must see the single-threaded results
    sources = ["u3 + 6*u*u1", "u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1",
               "x*u1 + 2*u + 3*t*(u3 + 6*u*u1)", "u2*exp(a*u + 1/2*x - t)"]
    want = [[to_source(total_d_power(e, j)) for j in range(5)]
            + [to_source(partial(e, g)) for g in _GENS]
            for e in (parse(src, ("a",)) for src in sources)]
    shared = [parse(src, ("a",)) for src in sources]
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30):
                i = rng.randrange(len(shared))
                e = shared[i]
                got = [to_source(total_d_power(e, j)) for j in range(5)] \
                    + [to_source(partial(e, g)) for g in _GENS]
                if got != want[i]:
                    errors.append((i, got))
        except Exception as err:  # reported below, not lost in the thread
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
