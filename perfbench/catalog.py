"""Known answers the benchmark checks evosym against.

Every symmetry, non-symmetry, mastersymmetry pair and search expectation
here comes from the literature on the symmetry approach to integrability
(Olver, "Applications of Lie Groups to Differential Equations", ch. 5;
Mikhailov, Shabat and Sokolov, "The symmetry approach to classification of
integrable equations", 1991; Fordy and Gibbons 1980 for the fifth-order
flows).  Hierarchy members are normalised to leading coefficient 1.  None
of these answers is produced by evosym: ``test_perfbench.py`` confirms each
one with an independent sympy computation of ``{F, G}`` from its definition.

Polynomials are written in the evosym grammar restricted to sums of
monomials (``c*u^2*u1``), so that ``rescale`` can map an answer for
``u_t = F(u)`` to the answer for the rescaled equation
``u_t = F(lam*u)/lam`` without calling the program under test: a term of
total u-degree ``d`` is multiplied by ``lam^(d-1)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

# -- hierarchies -------------------------------------------------------------

# KdV u_t = u3 + 6*u*u1: the flows K_{2j+1} (Lenard recursion).
KDV = "u3 + 6*u*u1"
K3 = KDV
K5 = "u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1"
K7 = ("u7 + 14*u*u5 + 42*u1*u4 + 70*u2*u3 + 70*u^2*u3 + 280*u*u1*u2"
      " + 70*u1^3 + 140*u^3*u1")
K9 = ("u9 + 18*u*u7 + 72*u1*u6 + 168*u2*u5 + 252*u3*u4 + 126*u^2*u5"
      " + 756*u*u1*u4 + 1260*u*u2*u3 + 966*u1^2*u3 + 1302*u1*u2^2"
      " + 420*u^3*u3 + 2520*u^2*u1*u2 + 1260*u*u1^3 + 630*u^4*u1")
K11 = ("u11 + 22*u*u9 + 110*u1*u8 + 330*u2*u7 + 660*u3*u6 + 924*u4*u5"
       " + 198*u^2*u7 + 1584*u*u1*u6 + 3696*u*u2*u5 + 5544*u*u3*u4"
       " + 2838*u1^2*u5 + 11484*u1*u2*u4 + 7194*u1*u3^2 + 9702*u2^2*u3"
       " + 924*u^3*u5 + 8316*u^2*u1*u4 + 13860*u^2*u2*u3"
       " + 21252*u*u1^2*u3 + 28644*u*u1*u2^2 + 14784*u1^3*u2"
       " + 2310*u^4*u3 + 18480*u^3*u1*u2 + 13860*u^2*u1^3 + 2772*u^5*u1")

# Burgers u_t = u2 + 2*u*u1: B_n = D((D + u)^(n-1) u) (Cole-Hopf).
BURGERS = "u2 + 2*u*u1"
B2 = BURGERS
B3 = "u3 + 3*u*u2 + 3*u1^2 + 3*u^2*u1"
B4 = "u4 + 4*u*u3 + 10*u1*u2 + 6*u^2*u2 + 12*u*u1^2 + 4*u^3*u1"
B5 = ("u5 + 5*u*u4 + 15*u1*u3 + 10*u2^2 + 10*u^2*u3 + 50*u*u1*u2"
      " + 15*u1^3 + 10*u^3*u2 + 30*u^2*u1^2 + 5*u^4*u1")

# The fifth-order integrable equations of the classification and their
# order-7 symmetries.
SK = "u5 + 5*u*u3 + 5*u1*u2 + 5*u^2*u1"            # Sawada-Kotera
SK7 = ("u7 + 7*u*u5 + 14*u1*u4 + 21*u2*u3 + 14*u^2*u3 + 42*u*u1*u2"
       " + 7*u1^3 + 28/3*u^3*u1")
KK = "u5 + 10*u*u3 + 25*u1*u2 + 20*u^2*u1"          # Kaup-Kupershmidt
KK7 = ("u7 + 14*u*u5 + 49*u1*u4 + 84*u2*u3 + 56*u^2*u3 + 252*u*u1*u2"
       " + 70*u1^3 + 224/3*u^3*u1")
LAX5 = K5                                           # Lax's fifth-order KdV


@dataclass(frozen=True)
class Equation:
    """An equation with the answers known for it.

    ``symmetries`` are time-independent, ``t_symmetries`` depend on t;
    ``non_symmetries`` are not symmetries and have ``{F, {F, N}} != 0``, so
    they also break a mastersymmetry pair.  ``pairs`` are mastersymmetry
    pairs ``(G0, G1)`` with ``{F, G0} = G1 != 0`` and ``{F, G1} = 0``.
    """

    name: str
    F: str
    constants: tuple[str, ...] = ()
    symmetries: tuple[str, ...] = ()
    t_symmetries: tuple[str, ...] = ()
    non_symmetries: tuple[str, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()


VERIFY_EQUATIONS = (
    Equation("kdv", KDV,
             symmetries=("u1", K3, K5, K7, K9, K11),
             t_symmetries=("1 + 6*t*u1", f"x*u1 + 2*u + 3*t*({K3})"),
             non_symmetries=("u2", "u*u2"),
             pairs=(("1", "6*u1"), ("x*u1 + 2*u", f"3*({K3})"))),
    Equation("kdv-unit", "u3 + u*u1",
             symmetries=("u1", "u3 + u*u1"),
             t_symmetries=("1 + t*u1",),
             non_symmetries=("u2",),
             pairs=(("1", "u1"), ("x*u1 + 2*u", "3*u3 + 3*u*u1"))),
    Equation("potential-mkdv", "u3 + u1^2 + c", ("c",),
             symmetries=("u1", "1", "u3 + u1^2 + c"),
             t_symmetries=("x + 2*t*u1",),
             non_symmetries=("u",),
             pairs=(("x", "2*u1"),)),
    Equation("mkdv-shift", "u3 + u^2*u1 + c*u1", ("c",),
             symmetries=("u1", "u3 + u^2*u1 + c*u1"),
             non_symmetries=("1",)),
    Equation("cubic-derivative", "u3 + u1^3 + c*u1 + d", ("c", "d"),
             symmetries=("u1", "1", "u3 + u1^3 + c*u1 + d"),
             non_symmetries=("u1^2",)),
    Equation("exponential-potential",
             "u3 - u1^3/2 + (a*exp(2*u) + b*exp(-2*u) + d)*u1", ("a", "b", "d"),
             symmetries=("u1", "u3 - u1^3/2 + (a*exp(2*u) + b*exp(-2*u) + d)*u1"),
             non_symmetries=("1",)),
    Equation("burgers", BURGERS,
             symmetries=("u1", B2, B3, B4, B5),
             t_symmetries=("1 + 2*t*u1", f"x*u1 + u + 2*t*({B2})"),
             non_symmetries=("u2",),
             pairs=(("1", "2*u1"), ("x*u1 + u", f"2*({B2})"),
                    ("x*u2 + 2*x*u*u1 + u^2", f"2*({B3})"))),
    Equation("sawada-kotera", SK,
             symmetries=("u1", SK, SK7),
             non_symmetries=("u3",),
             pairs=(("x*u1 + 2*u", f"5*({SK})"),)),
    Equation("kaup-kupershmidt", KK,
             symmetries=("u1", KK, KK7),
             non_symmetries=("u3",),
             pairs=(("x*u1 + 2*u", f"5*({KK})"),)),
    Equation("lax5", LAX5,
             symmetries=("u1", K3, LAX5, K7),
             non_symmetries=("u3",),
             pairs=(("1", f"10*({K3})"), ("x*u1 + 2*u", f"5*({LAX5})"))),
)


@dataclass(frozen=True)
class LinearEquation:
    """A linear equation ``u_t = F`` whose right-hand side is
    ``sum_i a_i u_i`` with constant ``a_i``: ``{F, exp(p*x)} = P(p) exp(p*x)``
    with the symbol ``P``, so ``exp(p*x)`` passes the scaling test with
    ``lambda = P(p)``.  ``u^2`` has a non-proportional bracket."""

    F: str
    constants: tuple[str, ...]
    symbol: tuple[tuple[int, str], ...]   # (power of p, constant factor)


SCALING_EQUATIONS = (
    LinearEquation("u2", (), ((2, "1"),)),
    LinearEquation("u3", (), ((3, "1"),)),
    LinearEquation("u2 + c*u1", ("c",), ((2, "1"), (1, "c"))),
    LinearEquation("u3 + c*u1", ("c",), ((3, "1"), (1, "c"))),
)
SCALING_NON_PROPORTIONAL = "u^2"


# -- rescaling by monomial data ------------------------------------------------

_TERM_SPLIT = re.compile(r"\s+(?=[+-]\s)")
_FACTOR = re.compile(r"^(u\d*|x|t)(?:\^(\d+))?$")


def _parse_terms(src: str) -> list[tuple[Fraction, list[tuple[str, int]]]]:
    """Split a sum of monomials ``c*g^e*...`` into ``(coeff, factors)``."""
    out = []
    for chunk in _TERM_SPLIT.split(src.strip()):
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        coeff = Fraction(sign)
        factors = []
        for part in chunk.split("*"):
            m = _FACTOR.match(part)
            if m:
                factors.append((m.group(1), int(m.group(2) or 1)))
            else:
                coeff *= Fraction(part)
        out.append((coeff, factors))
    return out


def fraction_src(q: Fraction) -> str:
    """A rational in the grammar, parenthesised when negative."""
    s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({s})" if q < 0 else s


def rescale(src: str, lam: Fraction, const: str | None = None) -> str:
    """``(1/k) * P(k*u)`` with ``k = lam`` (times the named constant
    ``const`` when given), for ``P`` a flat sum of monomials."""
    parts = []
    for coeff, factors in _parse_terms(src):
        degree = sum(e for g, e in factors if g.startswith("u"))
        c = coeff * lam ** (degree - 1)
        body = [f"{g}^{e}" if e > 1 else g for g, e in factors]
        if const is not None and degree != 1:
            body.insert(0, f"{const}^{degree - 1}")
        parts.append("*".join([fraction_src(c)] + body))
    return " + ".join(parts)


# -- searches ----------------------------------------------------------------

@dataclass(frozen=True)
class SearchCase:
    """A ``find`` request family.

    ``members`` span the whole solution space, so the expected dimension
    is their number.  Without ``constants``, ``F`` and ``members`` are flat
    sums of monomials and each seed rescales them (``u -> lam*u``).  With
    ``constants`` they are templates in which each seed puts a rational
    multiple of every constant, and the space is the generic one
    (constants nonzero and in general position).
    """

    label: str
    F: str
    order: int
    weight: int
    t_degree: int = 0
    x_degree: int = 0
    constants: tuple[str, ...] = ()
    members: tuple[str, ...] = ()


_KDV_T1X1 = ("u1", KDV, "1 + 6*t*u1", "x*u1 + 2*u + 3*t*u3 + 18*t*u*u1")
_BURGERS_T1X1 = ("u1", BURGERS, "1 + 2*t*u1",
                 "x*u1 + u + 2*t*u2 + 4*t*u*u1",
                 "x*u2 + 2*x*u*u1 + u^2 + 2*t*u3 + 6*t*u*u2 + 6*t*u1^2"
                 " + 6*t*u^2*u1")

RATIONAL_SEARCHES = (
    SearchCase("burgers o5w7", BURGERS, 5, 7, members=("u1", B2, B3)),
    SearchCase("kdv o7w9", KDV, 7, 9, members=("u1", K3, K5, K7)),
    SearchCase("burgers o7w9", BURGERS, 7, 9, members=("u1", B2, B3, B4)),
    SearchCase("sawada-kotera o7w9", SK, 7, 9, members=("u1", SK, SK7)),
    SearchCase("kaup-kupershmidt o7w9", KK, 7, 9, members=("u1", KK, KK7)),
    SearchCase("lax5 o7w9", LAX5, 7, 9, members=("u1", K3, LAX5, K7)),
    SearchCase("burgers o3w5 t1 x1", BURGERS, 3, 5, 1, 1,
               members=_BURGERS_T1X1),
    SearchCase("kdv o9w11", KDV, 9, 11, members=("u1", K3, K5, K7, K9)),
    SearchCase("kdv o3w5 t1 x1", KDV, 3, 5, 1, 1, members=_KDV_T1X1),
)

# Generic answers: with named constants the KdV family keeps its flows and
# the general fifth-order family keeps only u1 and F (its integrable points
# are special values of the constants).  ``{a}`` marks where the request
# generator puts a seeded rational multiple of the constant ``a``.
FIFTH_ORDER_FAMILY = "u5 + {a}*u*u3 + {b}*u1*u2 + {c}*u^2*u1"
EXP_POTENTIAL = "u3 - u1^3/2 + ({a}*exp(2*u) + {b}*exp(-2*u) + {d})*u1"


def _kdv_a(*flows: str) -> tuple[str, ...]:
    # u_t = u3 + a*u*u1 is KdV rescaled by u -> (a/6)*u
    return tuple(rescale(f, Fraction(1, 6), "{a}") for f in flows)


SYMBOLIC_SEARCHES = (
    SearchCase("exp-potential o3w5", EXP_POTENTIAL, 3, 5,
               constants=("a", "b", "d"), members=("u1",)),
    SearchCase("fifth-order family o5w7", FIFTH_ORDER_FAMILY, 5, 7,
               constants=("a", "b", "c"), members=("u1", FIFTH_ORDER_FAMILY)),
    SearchCase("exp-potential o5w7", EXP_POTENTIAL, 5, 7,
               constants=("a", "b", "d"), members=("u1",)),
    SearchCase("kdv-a o7w9", "u3 + {a}*u*u1", 7, 9, constants=("a",),
               members=_kdv_a("u1", K3, K5, K7)),
    SearchCase("kdv-a o9w11", "u3 + {a}*u*u1", 9, 11, constants=("a",),
               members=_kdv_a("u1", K3, K5, K7, K9)),
    SearchCase("fifth-order family o7w9", FIFTH_ORDER_FAMILY, 7, 9,
               constants=("a", "b", "c"), members=("u1", FIFTH_ORDER_FAMILY)),
)


@dataclass(frozen=True)
class LinearTimeCase:
    """``find_linear_t_symmetries`` with ``x_degree_max = 1``: the quotient
    of the pairs is spanned by the listed ``G1`` (Galilean and scaling)."""

    label: str
    F: str
    order: int
    weight: int
    g1: tuple[str, ...] = ()


LINEAR_T_SEARCHES = (
    LinearTimeCase("kdv lin-t o3w5 x1", KDV, 3, 5, g1=("u1", KDV)),
    LinearTimeCase("burgers lin-t o3w5 x1", BURGERS, 3, 5,
                   g1=("u1", BURGERS, B3)),
)
