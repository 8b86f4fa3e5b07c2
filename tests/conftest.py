from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from evosym import classify, exp_of, parse, partial, total_d_power, u
from evosym import expr as ex
from evosym.expr import GEN_T, GEN_X, DiffExpr

CORPUS_PATH = Path(__file__).resolve().parent.parent / "corpus" / \
    "evolution_equations.corpus"


@pytest.fixture(scope="session")
def kdv():
    return classify(parse("u3 + 6*u*u1"))


@pytest.fixture(scope="session")
def heat():
    return classify(parse("u2"))


@pytest.fixture(scope="session")
def burgers():
    return classify(parse("u2 + 2*u*u1"))


@pytest.fixture(scope="session")
def corpus_path():
    return CORPUS_PATH


# the three ways a value is copied: a copy and a pickle round trip must each
# rebuild an equal value
COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda v: pickle.loads(pickle.dumps(v))}


# -- the slot-tuple key layout of expr's public boundary ---------------------

def reference_mul_key(k1: tuple, k2: tuple) -> tuple:
    """The product of two slot-tuple keys (``DiffExpr.term_items``), by
    the merge the kernel ran on them before generator powers were packed:
    the values of matching slots added, zeros dropped."""
    if not k1:
        return k2
    if not k2:
        return k1
    out = []
    i = j = 0
    while i < len(k1) and j < len(k2):
        s1, v1 = k1[i]
        s2, v2 = k2[j]
        if s1 == s2:
            if v1 + v2:
                out.append((s1, v1 + v2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    return tuple(out) + k1[i:] + k2[j:]


def decoded(terms: dict) -> dict:
    """A kernel term map with its keys as slot tuples, in the same order."""
    return {ex._decode_key(k): c for k, c in terms.items()}


# -- random expression generation (seeded, used by the big property loops) --

GENS = (GEN_X, GEN_T, 0, 1, 2, 3)


def random_expr(rng: random.Random, max_terms: int = 3, max_u: int = 3,
                allow_x: bool = True, allow_t: bool = True,
                atoms: bool = True, consts: tuple[str, ...] = (),
                max_pow: int = 2) -> DiffExpr:
    """A small random expression: a sum of random monomials with small
    rational coefficients, optionally times an exponential factor."""
    gens = [i for i in range(max_u + 1)]
    if allow_x:
        gens.append(GEN_X)
    if allow_t:
        gens.append(GEN_T)
    out = ex.ZERO
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.choice((1, 1, 2)))
        term = ex.rational(coeff)
        for _ in range(rng.randint(0, 2)):
            term = term * ex.gen_expr(rng.choice(gens)) ** rng.randint(1, max_pow)
        if consts and rng.random() < 0.4:
            term = term * ex.const(rng.choice(consts))
        if atoms and rng.random() < 0.25:
            arg_gen = rng.choice([g for g in (0, GEN_X, GEN_T)
                                  if (g != GEN_X or allow_x)
                                  and (g != GEN_T or allow_t)])
            term = term * exp_of(rng.choice((-2, -1, 1, 2)) * ex.gen_expr(arg_gen))
        out = out + term
    return out


def random_rhs(rng: random.Random, n: int, allow_t: bool = True) -> DiffExpr:
    """A random order-n equation right-hand side (no x-dependence)."""
    lead = ex.rational(rng.choice((1, 1, 2, -1)))
    if rng.random() < 0.5:
        lead = lead * random_expr(rng, max_terms=1, max_u=max(0, n - 1),
                                  allow_x=False, allow_t=allow_t, atoms=False)
        if lead.is_zero:
            lead = ex.ONE
    F = lead * u(n)
    F = F + random_expr(rng, max_terms=2, max_u=n - 1, allow_x=False,
                        allow_t=allow_t)
    if ex.u_order(F) != n:  # the random tail must not cancel the leading term
        F = u(n) + random_expr(rng, max_terms=2, max_u=n - 1,
                               allow_x=False, allow_t=allow_t)
    return F


# -- an independent bracket oracle (raw definition expansion) ----------------

def nabla_oracle(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """``sum_j D^j(h) * dr/du_j`` expanded directly from the definition;
    deliberately avoids frechet/ev_apply/op_apply."""
    out = ex.ZERO
    top = ex.u_order(r)
    if top is None:
        return out
    for j in range(top + 1):
        dr = partial(r, j)
        if dr.is_zero:
            continue
        out = out + total_d_power(h, j) * dr
    return out


def bracket_oracle(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """``{h, r} = nabla_r(h) - nabla_h(r)`` by raw expansion."""
    return nabla_oracle(r, h) - nabla_oracle(h, r)
