"""Time dependence of symmetries: classification, annihilators, closure
under d/dt (a violated statement raises ``SelfCheckError``), and the two
existence tests for time-dependent symmetries of time-independent equations
(exponential-in-t via a scaling relation, linear-in-t via a mastersymmetry
pair; a time-dependent equation is refused with ``ValueError``)."""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .expr import GEN_T, DiffExpr, is_t_only, occurs, partial, u_order
from .symmetry import EvolutionEquation, SelfCheckError, SymmetryReport, bracket, is_symmetry

TIME_INDEPENDENT = "independent"
POLYNOMIAL = "polynomial"
QUASIPOLYNOMIAL = "quasipolynomial"

# Largest annihilator order, sum(m + 1) over the spectrum, that
# ``annihilator`` builds, checked before any product: its coefficients and
# self-check grow with the square of the order.  Order 400 takes 0.5 s with
# one rate, numeric or symbolic (Python 3.11, one core).  With two symbolic
# rates the coefficients are polynomials in both, and
# ``expr.MAX_PRODUCT_PAIRS`` bounds each fused sum instead: order 162 is
# refused at once.
MAX_ANNIHILATOR_ORDER = 400


@dataclass(frozen=True)
class TimeDependenceClass:
    """Shape of the t-dependence of an expression: its spectrum.

    ``spectrum`` pairs each exponential rate lambda (a constant expression;
    0 for the plain part) with the maximal t-degree attached to it; the zero
    expression has the empty spectrum.  ``kind`` (independent, polynomial or
    quasipolynomial) and ``degree`` are read off it.
    """

    spectrum: tuple[tuple[DiffExpr, int], ...] = ()

    @property
    def degree(self) -> int:
        return max((m for _, m in self.spectrum), default=0)

    @property
    def kind(self) -> str:
        if any(lam for lam, _ in self.spectrum):
            return QUASIPOLYNOMIAL
        return POLYNOMIAL if self.degree else TIME_INDEPENDENT

    def __str__(self) -> str:
        if self.kind == TIME_INDEPENDENT:
            return "time-independent"
        if self.kind == POLYNOMIAL:
            return f"polynomial in t, degree {self.degree}"
        inner = ", ".join(f"(lambda = {lam}, degree {m})"
                          for lam, m in self.spectrum)
        return f"quasipolynomial in t: {inner}"


def classify_time(G: DiffExpr) -> TimeDependenceClass:
    """The exp(lambda*t) rates of the normal form, each with its top
    t-degree (``expr.exp_spectrum``), in the order of the rates' terms."""
    return TimeDependenceClass(tuple(sorted(
        ex.exp_spectrum(G, GEN_T), key=lambda it: it[0].term_items())))


@dataclass(frozen=True)
class AnnihilatorOp:
    """Constant-coefficient operator ``sum_l a_l (d/dt)^l`` killing a given
    t-dependence; built as the product of ``(d/dt - lambda)^(m+1)`` over the
    spectrum.  Coefficients are constant expressions (products of distinct
    symbolic rates expand into sums)."""

    coeffs: tuple[DiffExpr, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, e: DiffExpr) -> DiffExpr:
        products = []
        for l, a_l in enumerate(self.coeffs):
            if l:
                e = partial(e, GEN_T)
            products.append((1, a_l, e))
        return ex.sum_of_products(products)

    def __str__(self) -> str:
        parts = []
        for l in range(self.order, -1, -1):
            a = self.coeffs[l]
            if a.is_zero:
                continue
            dt = f"(d/dt)^{l}" if l > 1 else ("d/dt" if l == 1 else "1")
            if a == ex.ONE and l > 0:
                parts.append(dt)
            else:
                parts.append(f"({a})*{dt}" if l > 0 else f"({a})")
        return " + ".join(parts) if parts else "0"


def annihilator(G: DiffExpr) -> AnnihilatorOp:
    """Minimal-degree constant-coefficient annihilator of G's t-dependence:
    the product of ``(d/dt - lambda)^(m_lambda + 1)``; for purely polynomial
    dependence of degree p this is ``(d/dt)^(p+1)``."""
    spectrum = classify_time(G).spectrum or ((ex.ZERO, 0),)
    order = sum(m + 1 for _, m in spectrum)
    if order > MAX_ANNIHILATOR_ORDER:
        raise ex.ExpressionError(
            f"annihilator of order {order} exceeds the bound of "
            f"{MAX_ANNIHILATOR_ORDER} (timedep.MAX_ANNIHILATOR_ORDER)")
    coeffs = [ex.ONE]
    for lam, m in spectrum:
        # (d/dt - lambda)^k by the binomial theorem: coefficient l is
        # C(k, l) * (-lambda)^(k - l), all zero below l = k when lambda = 0
        k = m + 1
        factor = [ex.ZERO] * (k + 1)
        binom, power, step = 1, ex.ONE, -lam
        for l in range(k, -1, -1):
            if not power:
                break
            factor[l] = binom * power
            power = power * step
            binom = binom * l // (k - l + 1)  # C(k, l - 1)
        coeffs = [ex.sum_of_products((1, a, factor[d - i])
                                     for i, a in enumerate(coeffs)
                                     if 0 <= d - i <= k)
                  for d in range(len(coeffs) + k)]
    op = AnnihilatorOp(coeffs=tuple(coeffs))
    if not op.apply(G).is_zero:
        raise SelfCheckError("annihilator does not kill its target")
    return op


@dataclass(frozen=True)
class DtClosureVerdict:
    dt_order: int | None
    reduced: DiffExpr | None
    reduced_order: int | None
    detail: str


def dt_closure_check(eq: EvolutionEquation,
                     report: SymmetryReport) -> DtClosureVerdict:
    """For a time-independent equation and the report of a verified symmetry
    G: dG/dt must again be a symmetry of order <= ord G, and the annihilator
    of the leading coefficient c_k must map G to a symmetry of order <= k-1.
    A violation is a bug and raises ``SelfCheckError``."""
    if not eq.time_independent:
        raise ValueError("closure check requires a time-independent equation")
    if not report.is_symmetry:
        raise ValueError("closure check needs a verified symmetry")
    G, k = report.candidate, report.order
    Gt = partial(G, GEN_T)
    if not is_symmetry(eq, Gt).is_symmetry:
        raise SelfCheckError("dG/dt is not a symmetry")
    gt_ord = u_order(Gt)
    if gt_ord is not None and k is not None and gt_ord > k:
        raise SelfCheckError("order of dG/dt exceeds ord G")
    if k is None or k < 1:
        return DtClosureVerdict(gt_ord, None, None,
                                "order < 1: leading-coefficient step skipped")
    c_k = partial(G, k)
    if not is_t_only(c_k):
        return DtClosureVerdict(gt_ord, None, None,
                                "c_k not t-only: reduction step skipped")
    om = annihilator(c_k)
    reduced = om.apply(G)
    if not is_symmetry(eq, reduced).is_symmetry:
        raise SelfCheckError("annihilator image is not a symmetry")
    r_ord = u_order(reduced)
    if r_ord is not None and r_ord > k - 1:
        raise SelfCheckError("Omega(G) order too high")
    return DtClosureVerdict(gt_ord, reduced, r_ord, "Omega(G) has order <= k-1")


@dataclass(frozen=True)
class ScalingResult:
    lam: DiffExpr | None  # constant expression; None when no relation holds
    certified: SymmetryReport | None

    @property
    def found(self) -> bool:
        return self.lam is not None


def scaling_test(eq: EvolutionEquation, Q0: DiffExpr) -> ScalingResult:
    """Test ``{F, Q0} = lambda * Q0`` for time-independent Q0 != 0.

    On success the exponential symmetry ``exp(lambda*t) * Q0`` is certified
    by a full residual check (lambda = 0 degenerates to Q0 itself being a
    time-independent symmetry)."""
    if Q0.is_zero:
        raise ValueError("Q0 must be nonzero")
    if occurs(Q0, GEN_T):
        raise ValueError("Q0 must be time-independent")
    B = bracket(eq.F, Q0)
    if B.is_zero:
        lam, candidate = ex.ZERO, Q0
    else:
        lam = ex.try_divide(B, Q0)
        if lam is None or not ex.is_constant(lam):
            return ScalingResult(None, None)
        candidate = ex.exp_of(lam * ex.t) * Q0
    rep = is_symmetry(eq, candidate)
    if not rep.is_symmetry:
        raise SelfCheckError("scaling relation found but candidate failed "
                             "the residual check")
    return ScalingResult(lam, rep)


@dataclass(frozen=True)
class MasterResult:
    G0: DiffExpr
    G1: DiffExpr
    closes: bool            # {F, G1} = 0
    mu: DiffExpr | None     # G1 = mu * F when proportional
    certified: SymmetryReport | None

    @property
    def generates(self) -> bool:
        return bool(self.G1) and self.closes


def mastersymmetry_test(eq: EvolutionEquation, G0: DiffExpr) -> MasterResult:
    """Compute ``G1 = {F, G0}`` and report whether the pair generates the
    linear-in-t symmetry ``G0 + t*G1`` (certified when it does).  The
    construction needs ``dF/dt = 0``, so F must be time-independent."""
    if not eq.time_independent:
        raise ValueError("mastersymmetry test requires a time-independent "
                         "equation")
    if occurs(G0, GEN_T):
        raise ValueError("G0 must be time-independent")
    G1 = bracket(eq.F, G0)
    if G1.is_zero:
        return MasterResult(G0, G1, True, None, None)
    closes = bracket(eq.F, G1).is_zero
    mu = ex.try_divide(G1, eq.F)
    if mu is not None and not ex.is_constant(mu):
        mu = None
    certified = None
    if closes:
        rep = is_symmetry(eq, G0 + ex.t * G1)
        if not rep.is_symmetry:
            raise SelfCheckError("mastersymmetry pair found but G0 + t*G1 "
                                 "failed the residual check")
        certified = rep
    return MasterResult(G0, G1, closes, mu, certified)


@dataclass(frozen=True)
class TimePrediction:
    prediction: str  # "polynomial" | "quasipolynomial"
    basis_order_cap: int


def _all_polynomial(reports: list[SymmetryReport]) -> bool:
    return all(classify_time(rep.candidate).kind != QUASIPOLYNOMIAL
               for rep in reports)


def probe_time_shapes(reports: list[SymmetryReport]) -> str:
    """Aggregate the time-dependence shapes of verified symmetries.

    Purely observational: it reports what the supplied symmetries look like
    ("all polynomial in t" or "all quasipolynomial in t") and claims nothing
    beyond them.
    """
    for rep in reports:
        if not rep.is_symmetry:
            raise ValueError(f"not a symmetry: {rep.candidate}")
    if not reports:
        return "no symmetries supplied"
    if _all_polynomial(reports):
        return "all polynomial in t"
    return "all quasipolynomial in t"


def predict_time_dependence(eq: EvolutionEquation,
                            reports: list[SymmetryReport]) -> TimePrediction:
    """If every symmetry up to order n-1 (n-2 for a KdV-like equation) is
    polynomial in t, every symmetry is; likewise for quasipolynomial
    shapes.  The caller asserts completeness of the basis of verified
    symmetries; this classifies each one's t-dependence.  An empty basis is
    refused when the cap is at least 1, since it cannot be complete there."""
    if not eq.constant_separant:
        raise ValueError("prediction requires a constant-separant equation")
    if not eq.time_independent:
        raise ValueError("prediction requires a time-independent equation")
    cap = eq.n - 2 if eq.kdv_like else eq.n - 1
    if not reports and cap >= 1:
        # F has no x, so {F, u1} = -dF/dx = 0: u1 is a symmetry of order 1
        raise ValueError(f"empty basis: u1 is a symmetry of order 1 <= cap "
                         f"{cap}, so a complete basis is never empty")
    for rep in reports:
        g, k = rep.candidate, rep.order
        if not rep.is_symmetry:
            raise ValueError(f"basis element is not a symmetry: {g}")
        if k is not None and k > cap:
            raise ValueError(f"basis element has order {k} > cap {cap}: {g}")
    prediction = POLYNOMIAL if _all_polynomial(reports) else QUASIPOLYNOMIAL
    return TimePrediction(prediction=prediction, basis_order_cap=cap)
