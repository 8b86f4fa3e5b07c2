"""Seeded request generator for the three benchmark workloads.

A workload is a fixed list of requests made from the catalogue's known
answers and a seed: rational rescalings of the equations, renamed
constants, rational combinations of known symmetries, perturbations by a
known non-symmetry, and the order of the requests.  The seed draws the
coefficients, the constant names and the order, never the shape of a
request (which command, equation, terms, rescaling or ansatz size), so
every seed asks for the same work.  evosym only ever sees the generated
argv strings, or equations parsed from them during set-up.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import catalog as cat

WORKLOADS = {
    "verify": "Time to verdict: check, determine, master, scaling and timedep "
              "load term arithmetic, D powers, brackets and determining "
              "systems; no linalg, so elimination changes read flat",
    "search-rational": "find on rescaled rational equations (15-58 columns) "
                       "and linear-t searches: over 90% dense exact "
                       "elimination in linalg, then bracket images; no "
                       "symbolic pivots",
    "search-symbolic": "find with named constants: the same linalg on "
                       "polynomial entries, with try_divide and symbolic "
                       "pivots; a rational-only fast path must leave it "
                       "unchanged",
}


@dataclass(frozen=True)
class Request:
    """One request and the answer it must give.

    ``kind`` is ``"verdict"`` (a CLI command whose JSON verdict is checked),
    ``"find"`` (the CLI search, whose basis is checked against ``members``)
    or ``"linear_t"`` (``find_linear_t_symmetries`` on ``equation``, whose
    ``G1`` span is checked against ``members``).  For ``"verdict"``,
    ``expect`` is ``(exit code, verdict kind, verdict data)``.
    """

    label: str
    kind: str
    argv: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    expect: tuple = ()
    members: tuple[str, ...] = ()
    equation: str = ""
    config: dict = field(default_factory=dict)


_U_INDEX = re.compile(r"u(\d*)")


def _order(src: str) -> int:
    return max((int(i or 0) for i in _U_INDEX.findall(src)), default=0)


# evosym keeps integral coefficients as ints, several times faster than
# Fractions, so a seed whose coefficients made more products integral
# would ask for less work (up to 2x on one request).  Denominators 7 and 13
# divide no coefficient of the catalogue's symmetries, so products with
# these coefficients stay fractional whatever the seed draws.
COEFFS = tuple(Fraction(sign * n, d) for d in (7, 13)
               for n in range(1, 10) if n % d for sign in (1, -1))


def _coeff(rng: random.Random) -> Fraction:
    return rng.choice(COEFFS)


# Positive rescaling factors of equal height, taken in turn.  The cost of
# exact elimination depends on the factor: by up to 20% per request between
# these two, and by up to 50% (kdv o3w5 t1 x1) between a factor and its
# negative, so a seeded choice would make the seed, not the program, move
# the figures.  The seed orders the requests.
SCALES = (Fraction(5, 7), Fraction(7, 5))

# Constant names for the symbolic workload, drawn in the order of the
# names they replace, so that terms sort as in the template: renaming a
# constant leaves the work unchanged (measured within 2%), unlike rescaling
# it.
NAMES = ("a", "b", "c", "d", "f", "g", "h", "k", "m", "p", "q", "r", "s",
         "v", "w", "y", "z")


def _combination(rng: random.Random, parts: list[str]) -> str:
    return " + ".join(f"{cat.fraction_src(_coeff(rng))}*({p})" for p in parts)


def _consts(eq) -> list[str]:
    return ["--const", ",".join(eq.constants)] if eq.constants else []


def _verdict(label, argv, constants, code, kind, data) -> Request:
    return Request(label=label, kind="verdict",
                   argv=tuple(argv) + ("--format", "json"),
                   constants=tuple(constants), expect=(code, kind, data))


def _candidate(rng, eq, anchor: str, perturb: bool, slot: int) -> str:
    """The anchor symmetry plus the next known symmetry of no higher
    order, with random rational coefficients, plus a random multiple of the
    ``slot``-th known non-symmetry when ``perturb``.  Which terms go in is
    fixed, so that the seed moves coefficients and not the cost."""
    lower = [s for s in eq.symmetries + eq.t_symmetries
             if s != anchor and _order(s) <= _order(anchor)]
    parts = [anchor] + ([max(lower, key=_order)] if lower else [])
    if perturb:
        parts.append(eq.non_symmetries[slot % len(eq.non_symmetries)])
    return _combination(rng, parts)


def _verify(rng: random.Random) -> list[Request]:
    """Which command, equation, terms, rates and degrees a request has is
    the same for every seed; the seed draws the coefficients and the order
    of the requests.  Which requests are perturbed, which non-symmetry and
    which exponents go in all change the cost by far more than the
    coefficients do (up to 25% per pass between seeds)."""
    out = []
    for i, eq in enumerate(cat.VERIFY_EQUATIONS):
        top = max(eq.symmetries, key=_order)
        second = (eq.t_symmetries[-1] if eq.t_symmetries
                  else sorted(eq.symmetries, key=_order)[-2])
        for j, anchor in enumerate((top, second, top)):
            perturb = (i + j) % 2 == 1
            G = _candidate(rng, eq, anchor, perturb, j)
            out.append(_verdict(
                f"check {eq.name}", ["check", "--equation", eq.F,
                                     "--candidate", G] + _consts(eq),
                eq.constants, 1 if perturb else 0,
                "exact", "NOT A SYMMETRY" if perturb else "SYMMETRY"))
        for j in range(2):
            perturb = (i + j) % 2 == 0
            G = _candidate(rng, eq, top, perturb, j)
            out.append(_verdict(
                f"determine {eq.name}", ["determine", "--equation", eq.F,
                                         "--candidate", G] + _consts(eq),
                eq.constants, 1 if perturb else 0,
                "exact", "NONZERO" if perturb else "ALL ZERO"))

        if not eq.pairs:
            continue
        low = max((s for s in eq.symmetries if _order(s) <= 5), key=_order)
        for case in ("pair", "no pair", "G1 = 0"):
            parts = []
            if case != "G1 = 0":
                parts += [g0 for g0, _ in eq.pairs]
            parts.append(low)
            if case == "no pair":
                parts.append(eq.non_symmetries[0])
            verdict = {"pair": "mastersymmetry pair",
                       "no pair": "no pair: {F, G1} != 0",
                       "G1 = 0": "G1 = 0: no time-dependent symmetry "
                                 "generated"}[case]
            out.append(_verdict(
                f"master {eq.name}", ["master", "--equation", eq.F, "--g0",
                                      _combination(rng, parts)] + _consts(eq),
                eq.constants, 0 if case == "pair" else 1, "exact", verdict))

    exponents = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3),
                 Fraction(1, 2), Fraction(-3, 2))
    for k, lin in enumerate(cat.SCALING_EQUATIONS + cat.SCALING_EQUATIONS):
        p = exponents[k % len(exponents)]
        q0 = f"{cat.fraction_src(_coeff(rng))}*exp({cat.fraction_src(p)}*x)"
        lam = " + ".join(f"{cat.fraction_src(p ** k)}*{c}"
                         for k, c in lin.symbol)
        out.append(_verdict(
            f"scaling {lin.F}", ["scaling", "--equation", lin.F, "--q0", q0]
            + _consts(lin), lin.constants, 0, "lambda", lam))
        q0 += f" + {cat.fraction_src(_coeff(rng))}*{cat.SCALING_NON_PROPORTIONAL}"
        out.append(_verdict(
            f"scaling {lin.F}", ["scaling", "--equation", lin.F, "--q0", q0]
            + _consts(lin), lin.constants, 1, "exact", "none"))
    # a time-independent symmetry Q0 gives {F, Q0} = 0, so lambda = 0
    for eq in cat.VERIFY_EQUATIONS:
        if eq.name not in ("kdv", "kdv-unit", "burgers", "sawada-kotera"):
            continue
        low = [s for s in eq.symmetries if _order(s) <= 5]
        q0 = _combination(rng, low[-2:])
        out.append(_verdict(
            f"scaling {eq.name}", ["scaling", "--equation", eq.F, "--q0", q0]
            + _consts(eq), eq.constants, 0, "lambda", "0"))

    monomials = ["u1", "u2", "u*u1", "u3", "u^2", "x*u1", "u1^2", "u*u2"]
    rates = ["1", "-2", "3/2", "c", "-c", "2*c"]
    for slot in range(18):
        spectrum: dict[str, int] = {}
        parts = []
        for k in range(4):
            m = monomials[(slot + 3 * k) % len(monomials)]
            rate = "0" if slot % 3 == 0 or k == 0 else \
                rates[(slot + k) % len(rates)]
            deg = (slot + k) % 3
            spectrum[rate] = max(spectrum.get(rate, 0), deg)
            factors = [cat.fraction_src(_coeff(rng))]
            if deg:
                factors.append(f"t^{deg}")
            if rate != "0":
                factors.append(f"exp({rate}*t)")
            parts.append("*".join(factors + [m]))
        out.append(_verdict(
            "timedep", ["timedep", "--expression", " + ".join(parts),
                        "--const", "c"], ("c",), 0, "time",
            tuple(sorted(spectrum.items()))))
    rng.shuffle(out)
    return out


def _find(label, F, case, constants, members) -> Request:
    argv = ["find", "--equation", F, "--order", str(case.order),
            "--weight", str(case.weight)]
    if case.t_degree:
        argv += ["--t-degree", str(case.t_degree)]
    if case.x_degree:
        argv += ["--x-degree", str(case.x_degree)]
    if constants:
        argv += ["--const", ",".join(constants)]
    return Request(label=label, kind="find", argv=tuple(argv),
                   constants=tuple(constants), members=tuple(members))


def _search_rational(rng: random.Random) -> list[Request]:
    out = []
    for k, case in enumerate(cat.RATIONAL_SEARCHES):
        lam = SCALES[k % len(SCALES)]
        out.append(_find(f"find {case.label}", cat.rescale(case.F, lam), case,
                         (), [cat.rescale(m, lam) for m in case.members]))
    for k, case in enumerate(cat.LINEAR_T_SEARCHES):
        lam = SCALES[k % len(SCALES)]
        out.append(Request(
            label=f"find_linear_t {case.label}", kind="linear_t",
            equation=cat.rescale(case.F, lam),
            members=tuple(cat.rescale(g, lam) for g in case.g1),
            config={"order": case.order, "weight_max": case.weight,
                    "x_degree_max": 1}))
    rng.shuffle(out)
    return out


def _search_symbolic(rng: random.Random) -> list[Request]:
    out = []
    for case in cat.SYMBOLIC_SEARCHES:
        names = dict(zip(case.constants,
                         sorted(rng.sample(NAMES, len(case.constants)))))
        out.append(_find(f"find {case.label}", case.F.format(**names), case,
                         tuple(names.values()),
                         [m.format(**names) for m in case.members]))
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list[Request]:
    """The fixed request list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return _verify(rng)
    if workload == "search-rational":
        return _search_rational(rng)
    if workload == "search-symbolic":
        return _search_symbolic(rng)
    raise ValueError(f"unknown workload {workload!r}")
