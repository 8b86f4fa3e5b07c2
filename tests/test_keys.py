"""Packed term keys against the slot-tuple layout they replaced.

``expr`` keeps a term's generator powers packed in one int, one field per
generator (``_kernel_py``'s docstring gives the layout), and shows every key
at its boundary as the slot tuple the kernel used to run on.  The reference
here is that kernel on slot tuples: ``conftest.reference_mul_key`` and
``reference_derive_terms`` below.  Every product, derivative, power, inverse,
round trip and printed form of the packed kernel equals the reference's
after decoding, and a power or u-index past its field is refused, never
carried into the next field.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from evosym import (DiffExpr, ExpressionError, const, exp_of, parse, partial,
                    rational, to_source, total_d, u)
from evosym import expr as ex
from evosym.expr import GEN_T, GEN_X, MAX_GEN_POWER, kernel
from evosym.parser import ParseError

from conftest import decoded, reference_mul_key

# -- the slot-tuple reference ---------------------------------------------------


def _reference_rescale(out: dict, m: int, q: int) -> int:
    r = q // gcd(m, q)
    for k in out:
        out[k] *= r
    return r


def reference_derive_terms(a: dict, gen=None):
    """The one derivation kernel as it ran on slot-tuple keys: ``(terms,
    m)`` with the derivative ``terms / m``, ``D`` for ``gen=None``."""
    total = gen is None
    out = {}
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        n = len(key)
        for idx, (slot, val) in enumerate(key):
            kind, g = slot[0], slot[1]
            if total:
                if kind == 1 or g == -2:  # constants and t: D is 0
                    continue
            elif g != gen:
                continue
            if kind == 0:
                head = key[:idx] if val == 1 else key[:idx] + ((slot, val - 1),)
                if not total or g == -1:
                    nk = head + key[idx + 1:]
                else:
                    nxt = idx + 1
                    up = (0, g + 1)
                    if nxt < n and key[nxt][0] == up:
                        nk = head + ((up, key[nxt][1] + 1),) + key[nxt + 1:]
                    else:
                        nk = head + ((up, 1),) + key[nxt:]
                nc = c * val
            else:
                factor = slot[2]
                if total and g >= 0:
                    factor = (((0, g + 1), 1),) + factor
                nk = reference_mul_key(key, factor)
                if type(val) is int:
                    nc = c * val
                else:
                    q = val.denominator
                    if m % q:
                        r = _reference_rescale(out, m, q)
                        c *= r
                        m *= r
                    nc = c // q * val.numerator
            v = out.get(nk, 0) + nc
            if v:
                out[nk] = v
            else:
                out.pop(nk, None)
    return out, m


def reference_mul_terms(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = reference_mul_key(ka, kb)
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def reference_to_source(e: DiffExpr) -> str:
    """``to_source`` as it read slot-tuple keys: terms by top generator,
    grade and key, descending."""
    def grade(key):
        return sum(v for s, v in key if s[0] == 0)

    def order(item):
        key = item[0]
        top = max((s[1] for s, _ in key if s[0] == 0), default=-3)
        return top, grade(key), key

    if e.is_zero:
        return "0"
    chunks = []
    for key, c in sorted(e.term_items(), key=order, reverse=True):
        factors = [ex._mono_src(s[1], v) for s, v in key if s[0] == 1]
        factors += [ex._mono_src(ex._gen_name(g), p) for g, p in sorted(
            ((s[1], v) for s, v in key if s[0] == 0), reverse=True)]
        atoms = [(s, v) for s, v in key if s[0] == 2]
        if atoms:
            factors.append(f"exp({ex._arg_src(atoms)})")
        if abs(c) != 1 or not factors:
            factors.insert(0, ex._num_src(abs(c)))
        body = "*".join(factors)
        sign = "" if c > 0 else "-"
        chunks.append(f"{sign}{body}" if not chunks
                      else f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


# -- drawn expressions ----------------------------------------------------------

_RATES = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_GENS = st.one_of(st.integers(0, 150).map(u), st.sampled_from((ex.x, ex.t)))


@st.composite
def terms(draw):
    """One term: a rational times powers of generators (``u_i`` up to
    i = 150, past ``MAX_U_INDEX``), of named constants (negative powers
    too) and often an exponential whose rates are rational and may carry
    constant monomials."""
    term = rational(draw(_RATES.filter(bool)))
    for g in draw(st.lists(_GENS, max_size=3)):
        term = term * g ** draw(st.integers(1, 4))
    for name in draw(st.lists(st.sampled_from("ab"), max_size=2)):
        term = term * const(name) ** draw(st.sampled_from((-3, -1, 1, 2)))
    arg = ex.ZERO
    for v in draw(st.lists(st.sampled_from((ex.x, ex.t, u(0))), max_size=3)):
        rate = rational(draw(_RATES))
        if draw(st.booleans()):
            rate = rate * const(draw(st.sampled_from("ab"))) \
                ** draw(st.sampled_from((-2, -1, 1)))
        arg = arg + rate * v
    return term * exp_of(arg)


expressions = st.lists(terms(), min_size=1, max_size=4).map(
    lambda ts: sum(ts, ex.ZERO))


def _codes(e: DiffExpr) -> list[int]:
    """Every generator code ``e`` holds, and one it does not."""
    held = {s[1] for key, _ in e.term_items() for s, _ in key if s[0] != 1}
    return sorted(held | {GEN_T, GEN_X, 151})


# -- parity ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(expressions, expressions, st.integers(-3, 3))
def test_products_match_the_slot_tuple_merge(a, b, factor):
    sa, sb = decoded(a._t), decoded(b._t)
    assert decoded(kernel.mul_terms(a._t, b._t)) == reference_mul_terms(sa, sb)
    acc = dict(a._t)
    kernel.addmul_into(acc, a._t, b._t, factor)
    want = dict(sa)
    for k, c in reference_mul_terms(sa, sb).items():
        v = want.get(k, 0) + factor * c
        if v:
            want[k] = v
        else:
            want.pop(k, None)
    assert decoded(acc) == want
    for key, c in b._t.items():
        slots = ex._decode_key(key)
        assert decoded(kernel.mul_single(a._t, key, c)) == {
            reference_mul_key(k, slots): v * c for k, v in sa.items()}
        assert ex._decode_key(kernel.mul_key(next(iter(a._t)), key)) == \
            reference_mul_key(next(iter(sa)), slots)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_every_derivation_matches_the_slot_tuple_kernel(e):
    # the same terms, in the same order, on the same scale
    slots = decoded(e._t)
    for gen in [None] + _codes(e):
        got, m = kernel.derive_terms(e._t, gen)
        want, n = reference_derive_terms(slots, gen)
        assert (list(decoded(got).items()), m) == (list(want.items()), n)


@settings(max_examples=150, deadline=None)
@given(terms(), st.integers(0, 5))
def test_term_powers_and_inverses_match_the_slot_tuples(e, n):
    term = ex._term(e)
    slots = ex._decode_key(term[0])
    key, num, den = ex.term_pow(term, n)
    assert (ex._decode_key(key), num, den) == (
        tuple((s, v * n) for s, v in slots) if n else (),
        term[1] ** n, term[2] ** n)
    inv = ex.term_inverse(term)
    if any(s[0] == 0 for s, _ in slots):
        assert inv is None
    else:
        assert (ex._decode_key(inv[0]), inv[1], inv[2]) == (
            tuple((s, -v) for s, v in slots), term[2], term[1])


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_keys_round_trip_and_print_as_before(e):
    items = e.term_items()
    assert DiffExpr(dict(items)) == e
    assert DiffExpr(dict(reversed(items))) == e
    # the canonical order is that of the slot tuples, by grade first
    keys = [k for k, _ in items]
    assert keys == sorted(keys, key=lambda k: (
        sum(v for s, v in k if s[0] == 0), k))
    assert to_source(e) == reference_to_source(e)


# -- overflow is refused -----------------------------------------------------------

_POWER = rf"^generator power out of range \(max {MAX_GEN_POWER}\)"


def test_the_largest_power_is_a_field_and_the_parser_reaches_it():
    assert MAX_GEN_POWER == 2 ** 31 - 1
    top = parse("(u1^65536)^32767*u1^65535")  # 2^31 - 1 = 65536*32767 + 65535
    assert top == u(1) ** MAX_GEN_POWER
    assert to_source(top) == f"u1^{MAX_GEN_POWER}"
    assert partial(top, "u1") == MAX_GEN_POWER * u(1) ** (MAX_GEN_POWER - 1)


@pytest.mark.parametrize("build", [
    lambda: u(1) ** 10 ** 30,
    lambda: u(1) ** (MAX_GEN_POWER + 1),
    lambda: u(1) ** MAX_GEN_POWER * u(1),
    lambda: u(1) ** MAX_GEN_POWER * (u(1) + u(2)),
    lambda: (u(1) ** MAX_GEN_POWER + u(2)) * (u(1) + u(2)),
    lambda: total_d(u(0) * u(1) ** MAX_GEN_POWER),
    lambda: total_d(exp_of(u(0)) * u(1) ** MAX_GEN_POWER),
    lambda: ex.sum_of_products([(1, u(1) ** 2 ** 30, u(1) ** 2 ** 30)]),
    lambda: DiffExpr({(((0, 1), MAX_GEN_POWER + 1),): 1}),
    lambda: DiffExpr({(((0, 1), 0),): 1}),
], ids=["power-10^30", "power", "product-single", "product-mul-single",
        "product-terms", "D", "D-chain-rule", "fused-sum", "mapping", "mapping-zero"])
def test_a_power_past_its_field_is_refused(build):
    with pytest.raises(ExpressionError, match=_POWER + "$"):
        build()


@pytest.mark.parametrize("source", ["(u1^65536)^32768",
                                    "(u1^65536)^32767*u1^65536"])
def test_the_parser_refuses_a_power_past_its_field(source):
    # 65536 * 32768 = 2^31, one past the bound; the parser adds the position
    with pytest.raises(ParseError, match=_POWER + r" \(line 1, column \d+\)$"):
        parse(source)


@pytest.mark.parametrize("build", [
    lambda: u(kernel.MAX_U + 1),
    lambda: total_d(u(kernel.MAX_U)),
    lambda: total_d(u(kernel.MAX_U - 1) ** 2 * u(kernel.MAX_U)),
    lambda: DiffExpr({(((0, kernel.MAX_U + 1), 1),): 1}),
], ids=["u", "D", "D-shared", "mapping"])
def test_a_u_index_past_the_fields_is_refused(build):
    with pytest.raises(ExpressionError, match=(
            rf"^u-index {kernel.MAX_U + 1} out of range "
            rf"\(max {kernel.MAX_U}\)$")):
        build()


def test_the_fields_hold_u_indices_past_the_grammar():
    # the library and D reach past u99, which the grammar cannot name
    e = total_d(u(150) ** 3 * u(149))
    assert e == 3 * u(151) * u(150) ** 2 * u(149) + u(150) ** 4
    assert ex.u_order(total_d(u(kernel.MAX_U - 1))) == kernel.MAX_U
    assert partial(u(kernel.MAX_U) * ex.x, kernel.MAX_U) == ex.x
    with pytest.raises(ExpressionError,
                       match=f"no generator has the code {kernel.MAX_U + 7}"):
        partial(u(3), kernel.MAX_U + 7)
    assert ex.u_indices(Fraction(1, 2) * u(120) * exp_of(u(0))) == {0, 120}
