"""Symmetry verification and structure theory for scalar evolution equations.

An evolution equation is ``u_t = F(t, u, u_1, ..., u_n)`` with ``n >= 2`` and
no explicit x-dependence.  A candidate ``G(x, t, u, ..., u_k)`` is a symmetry
exactly when ``dG/dt = {F, G}`` with the bracket
``{h, r} = h_*(r) - r_*(h)``.

Beyond plain verification this module builds the determining system two
ways and cross-checks them: as the coefficients ``E_l`` of the linearized
residual operator ``L``, and as ``-dR/du_l`` for the residual
``R = dG/dt - {F, G}``.  Since ``(h_*(r))_* = nabla_r(h_*) + h_* r_*``,
``L = -R_*``.  It also extracts and tests the structure of leading
coefficients, bounds and decomposes the x-dependence of verified symmetries
(``check_structure`` runs every such check that applies; a violated
statement raises ``SelfCheckError`` where it is checked).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import expr as ex
from .calculus import (DOperator, apply_triples, coeff_triples,
                       compose_triples, ev_triples, frechet, fused_operator,
                       nabla_triples)
from .expr import (GEN_T, GEN_X, DiffExpr, is_constant, is_t_only, occurs,
                   partial, to_source, try_divide, u_order)
from .expr import x as x_expr


class SelfCheckError(RuntimeError):
    """Two independent constructions of the same object disagreed, or a
    proved structural bound failed on a verified symmetry.  Either case
    means an implementation bug, so it is a hard failure."""


# -- the Lie bracket ---------------------------------------------------------

def bracket(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """Lie bracket ``{h, r} = h_*(r) - r_*(h)``.

    Evaluated both through Fréchet operators and through the evolutionary
    action, each as one signed fused sum; the two must agree identically
    (they are the same sum assembled by different code paths), and the
    common value is returned.
    """
    via_frechet = ex.sum_of_products(apply_triples(frechet(h), r)
                                     + apply_triples(frechet(r), h, -1))
    via_nabla = ex.sum_of_products(ev_triples(r, h) + ev_triples(h, r, -1))
    if via_frechet != via_nabla:
        raise SelfCheckError("bracket: Fréchet and evolutionary forms disagree")
    return via_frechet


# -- equations ---------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionEquation:
    """A validated right-hand side F together with its classification."""

    F: DiffExpr
    n: int
    separant: DiffExpr
    deriv_depth: int
    constant_separant: bool
    kdv_like: bool
    time_independent: bool

    def __str__(self) -> str:
        return f"u_t = {to_source(self.F)}"


def classify(F: DiffExpr) -> EvolutionEquation:
    """Validate and classify a right-hand side.

    Rejects orders below 2 and any x-dependence (translation invariance is a
    standing assumption).  ``constant_separant`` means the separant is
    exactly 1, i.e. ``F = u_n + f(t, u, ..., u_{n-1})``; ``kdv_like``
    additionally requires ``df/du_{n-1}`` to be a constant.  ``deriv_depth``
    is the largest j such that ``dF/du_{n-i}`` depends on t only for all
    ``i = 0..j`` (-1 when already the separant fails this).
    """
    order = u_order(F)
    if order is None or order < 2:
        raise ex.ExpressionError("equation right-hand side must have order >= 2")
    if occurs(F, GEN_X):
        raise ex.ExpressionError("equation right-hand side must not depend on x")
    n = order
    separant = partial(F, n)
    time_independent = not occurs(F, GEN_T)
    constant_separant = separant == ex.ONE
    f = F - ex.u(n) if constant_separant else None
    kdv_like = bool(constant_separant and is_constant(partial(f, n - 1)))
    depth = -1
    for i in range(n + 1):
        if not is_t_only(partial(F, n - i)):
            break
        depth = i
    return EvolutionEquation(F=F, n=n, separant=separant, deriv_depth=depth,
                             constant_separant=constant_separant,
                             kdv_like=kdv_like,
                             time_independent=time_independent)


# -- symmetry verification ----------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    """Verdict of a symmetry check.

    ``residual = dG/dt - {F, G}`` is zero exactly when G is a symmetry.
    """

    candidate: DiffExpr
    order: int | None
    residual: DiffExpr

    @property
    def is_symmetry(self) -> bool:
        return self.residual.is_zero


def is_symmetry(eq: EvolutionEquation, G: DiffExpr) -> SymmetryReport:
    """Check ``dG/dt = {F, G}``; a nonzero residual is a verdict, not an error."""
    residual = partial(G, GEN_T) - bracket(eq.F, G)
    return SymmetryReport(candidate=G, order=u_order(G), residual=residual)


def linearized_residual_operator(eq: EvolutionEquation, G: DiffExpr) -> DOperator:
    """Residual of the linearized compatibility condition as an operator:
    ``nabla_G(F_*) - nabla_F(G_*) + [F_*, G_*] - (dG/dt)_*``, one fused
    sum per degree.  The zero operator exactly when the linearized
    condition holds."""
    F_star = frechet(eq.F)
    G_star = frechet(G)
    return fused_operator(nabla_triples(G, F_star),
                          nabla_triples(eq.F, G_star, -1),
                          compose_triples(F_star, G_star),
                          compose_triples(G_star, F_star, -1),
                          coeff_triples(frechet(partial(G, GEN_T)), -1))


@dataclass(frozen=True)
class DeterminingSystem:
    """Coefficient-wise determining equations for a candidate symmetry.

    ``equations[l]`` is the condition read off at ``D^l``,
    l = 0..n+max(k, 1)-1 (an order-0 candidate still has a level at D^n);
    ``closure`` is the compatibility residual itself, which pins down the
    part the D-level equations cannot see (the linearized condition only
    determines the residual up to a function of x and t).
    """

    equations: tuple[DiffExpr, ...]
    closure: DiffExpr
    n: int
    k: int

    @property
    def all_zero(self) -> bool:
        return all(e.is_zero for e in self.equations) and self.closure.is_zero


def determining_system(eq: EvolutionEquation, G: DiffExpr) -> DeterminingSystem:
    """Build the determining system for G two ways and cross-check.

    (a) reads the coefficients ``E_l`` of the operator ``L`` of
    :func:`linearized_residual_operator`; (b) takes ``-dR/du_l`` of the
    residual ``R = dG/dt - {F, G}``, the ``closure``.  They agree because
    ``(h_*(r))_* = nabla_r(h_*) + h_* r_*``, so ``R_* = (dG/dt)_* -
    nabla_G(F_*) - F_* G_* + nabla_F(G_*) + G_* F_*``, which is ``-L``.  (a)
    forms the operator products; (b) forms none, it differentiates the
    assembled sum.  A disagreement at any degree is an implementation bug
    and raises, naming the lowest such degree.
    """
    k = u_order(G)
    if k is None:
        raise ex.ExpressionError("candidate must be nonzero")
    # levels 0..n+k-1 carry all content for k >= 1; an order-0 candidate
    # still contributes at D^n through the mixed second derivatives of F
    top = eq.n + max(k, 1)

    operator = linearized_residual_operator(eq, G)
    if operator.degree is not None and operator.degree >= top:
        raise SelfCheckError("determining system: unexpected operator degree")
    closure = is_symmetry(eq, G).residual
    from_residual = -frechet(closure)
    for l in sorted(operator.coeffs.keys() | from_residual.coeffs.keys()):
        if operator.coeff(l) != from_residual.coeff(l):
            raise SelfCheckError(
                f"determining system: constructions disagree at D^{l}")

    return DeterminingSystem(
        equations=tuple(operator.coeff(l) for l in range(top)),
        closure=closure, n=eq.n, k=k)


# -- leading-coefficient structure ---------------------------------------------

@dataclass(frozen=True)
class LeadingCoefficientVerdict:
    """``c_k(t)^m = num / den``, both t-only, with ``m`` the denominator of
    ``k/n`` in lowest terms; ``den`` is ``ONE`` when the quotient lies in
    the expression class."""

    m: int
    num: DiffExpr
    den: DiffExpr


def leading_coefficient_check(eq: EvolutionEquation,
                              report: SymmetryReport) -> LeadingCoefficientVerdict:
    """Check that ``dG/du_k = c_k(t) * separant^(k/n)``.

    Raised to the power ``m``, with ``k/n = p/m`` in lowest terms, the
    statement needs no root: ``L = (dG/du_k)^m`` is ``c_k(t)^m`` times
    ``S = separant^p``.  Then ``c_k(t)^m = num / den`` for the t-only
    coefficients ``den`` of ``S`` and ``num`` of ``L`` at one factor in x
    and u, and the statement holds exactly when ``L * den == S * num``:
    no division, so t in the denominator of ``c_k(t)`` is decided too.  A
    failure is a bug and raises ``SelfCheckError``.
    """
    if not report.is_symmetry:
        raise ValueError("leading-coefficient check needs a verified symmetry")
    k = report.order
    if k is None or k < 2:
        raise ValueError("leading-coefficient check needs order k >= 2")
    g = gcd(k, eq.n)
    p, m = k // g, eq.n // g
    L, S = partial(report.candidate, k) ** m, eq.separant ** p
    parts = ex.split_t_only(S)
    rest = min(parts, key=lambda r: (len(parts[r]), r))
    num, den = ex.split_t_only(L).get(rest, ex.ZERO), parts[rest]
    if L * den != S * num:
        raise SelfCheckError(
            "leading coefficient: dG/du_k is not c_k(t) * separant^(k/n)")
    quot = try_divide(num, den)
    if quot is None:
        return LeadingCoefficientVerdict(m, num, den)
    return LeadingCoefficientVerdict(m, quot, ex.ONE)


# -- x-dependence bounds -------------------------------------------------------

def descent_bound(k: int, n: int, q: int) -> int:
    """Number of d/dx steps that force a symmetry of order k down to low
    order: ``[k/(n-1)]``, lowered by one when ``k mod (n-1)`` lies in
    ``{0..q}``; ``q = -1`` disables the lowering.

    For n = 2 the residue condition is vacuous (modulus 1) and the two-case
    formula degenerates, so q in {0, 1} is rejected outright.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 2:
        raise ValueError("n must be >= 2")
    if q not in (-1, 0, 1):
        raise ValueError("q must be -1, 0 or 1")
    if q == -1:
        return k // (n - 1)
    if n == 2:
        raise ValueError("descent bound with q >= 0 is degenerate for n = 2")
    base = k // (n - 1)
    if k % (n - 1) <= q:
        return max(0, base - 1)
    return base


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple[tuple[DiffExpr, int | None], ...]
    note: str = ""


def x_descent(eq: EvolutionEquation, report: SymmetryReport) -> DescentTrace:
    """Differentiate a verified symmetry by x until the x-dependence is gone,
    checking at every step that the derivative is again a symmetry and that
    ``ord dG/dx <= max(1, ord G - n + 1)`` holds.  A bound violation is a
    hard failure.  x inside an exponential factor can never be
    differentiated away; the trace stops, and says so, once no term free of
    an exponential in x has a power of x left (a step on ``x * exp(x)``
    would only reproduce its x-degree)."""
    if not report.is_symmetry:
        raise ValueError("x-descent needs a verified symmetry")
    cur = report.candidate
    steps = [(cur, report.order)]
    # a power of x outside the exponentials makes dG/dx nonzero
    while ex.power_outside_exp(cur, GEN_X):
        nxt = partial(cur, GEN_X)
        if not is_symmetry(eq, nxt).is_symmetry:
            raise SelfCheckError("x-descent: dG/dx is not a symmetry")
        prev_order = u_order(cur) or 0
        nxt_order = u_order(nxt)
        if nxt_order is not None and nxt_order > max(1, prev_order - eq.n + 1):
            raise SelfCheckError("x-descent: order bound violated")
        steps.append((nxt, nxt_order))
        cur = nxt
    note = ("x-dependence carried by an exponential factor; descent is "
            "stationary") if occurs(cur, GEN_X) else ""
    return DescentTrace(steps=tuple(steps), note=note)


# -- the x-power representation -------------------------------------------------

@dataclass(frozen=True)
class XPowerDecomposition:
    """``G = psi(t, x, u, u_1) + sum_j x^j g_j(t, u, ..., u_{k-j(n-1)})``.

    ``g[j]`` is the full x^j coefficient for j >= 1 and the u-order >= 2
    part at j = 0; the remaining (t, u, u_1)-content sits in ``psi``.
    ``s_bound_used`` records which bound certified ``s_effective`` (the top
    power carrying u-order >= 2 content).
    """

    s: int
    g: tuple[DiffExpr, ...]
    psi: DiffExpr
    s_effective: int
    s_bound_used: int
    remark_applied: bool


def representation_decompose(eq: EvolutionEquation,
                             report: SymmetryReport) -> XPowerDecomposition:
    if not report.is_symmetry:
        raise ValueError("decomposition needs a verified symmetry")
    G = report.candidate
    if ex.has_exp_in(G, GEN_X):
        raise ex.ExpressionError(
            "cannot decompose by x-powers: x occurs inside an exponential")
    k = report.order if report.order is not None else 0
    n = eq.n
    by_power = ex.split_by_power(G, GEN_X)
    top_power = max(by_power, default=0)
    # With dF/du_n, ..., dF/du_{n-j} functions of t only (j >= 1), psi may
    # carry no u-dependence at all, but s is only bounded by [k/(n-1)].
    remark = eq.deriv_depth >= 1

    g_list: list[DiffExpr] = []
    psi = ex.ZERO
    s_eff = u_top = 0
    for j in range(top_power + 1):
        coeff = by_power.get(j, ex.ZERO)
        bound = k - j * (n - 1)
        hi, lo = ex.split_u_order(coeff, 2)
        if hi:
            s_eff = j
            if u_order(hi) > bound:
                raise SelfCheckError(
                    f"x-power decomposition: coefficient of x^{j} has order "
                    f"{u_order(hi)} > {bound}")
        dep = ex.split_u_order(coeff, 0)[0] if remark else ex.ZERO
        if dep:
            u_top = j
            if u_order(dep) > bound:
                raise SelfCheckError(
                    f"x-power decomposition: u-content at x^{j} exceeds "
                    f"order {bound}")
        if j == 0:
            psi = lo
        g_list.append(coeff if j else hi)

    if sum((x_expr ** j * g_j for j, g_j in enumerate(g_list)), psi) != G:
        raise SelfCheckError("x-power decomposition: reconstruction failed")
    s_bound = descent_bound(k, n, 1 if n > 2 else -1)  # n = 2: the raw bound
    for s, bound in ((s_eff, s_bound), (u_top, descent_bound(k, n, -1))):
        if s > bound:
            raise SelfCheckError(
                f"x-power decomposition: s = {s} exceeds bound {bound}")

    return XPowerDecomposition(s=top_power, g=tuple(g_list), psi=psi,
                               s_effective=s_eff, s_bound_used=s_bound,
                               remark_applied=remark)


# -- descended leading coefficient ----------------------------------------------

@dataclass(frozen=True)
class DescentLeadingVerdict:
    r: int
    Q: DiffExpr
    detail: str


def descent_leading_coeff_check(eq: EvolutionEquation,
                                report: SymmetryReport) -> DescentLeadingVerdict:
    """For a constant-separant, time-independent equation and a verified
    symmetry of order ``k > n-1``: after ``r`` x-derivatives (r the q=0
    descent bound) the result Q must lie in order <= n-1 and its leading
    coefficient must equal ``(1/n^r) d^r c_k / dt^r``.  A violation is a bug
    and raises ``SelfCheckError``."""
    if not (eq.constant_separant and eq.time_independent):
        raise ValueError("check requires a constant-separant, "
                         "time-independent equation")
    if not report.is_symmetry:
        raise ValueError("check needs a verified symmetry")
    k = report.order
    if k is None or k <= eq.n - 1:
        raise ValueError(f"check needs order k > n-1 = {eq.n - 1}")
    r = descent_bound(k, eq.n, 0)
    Q = report.candidate
    for _ in range(r):
        Q = partial(Q, GEN_X)
    c_k = partial(report.candidate, k)
    if not is_t_only(c_k):
        raise SelfCheckError("c_k is not a function of t")
    rhs = c_k
    for _ in range(r):
        rhs = partial(rhs, GEN_T)
    rhs = rhs / ex.rational(eq.n ** r)
    if Q.is_zero:
        if rhs.is_zero:
            return DescentLeadingVerdict(r, Q, "descended to zero")
        raise SelfCheckError("descended to zero but d^r c_k/dt^r != 0")
    q_ord = u_order(Q)
    if q_ord > eq.n - 1:
        raise SelfCheckError(f"descended order {q_ord} > n-1")
    if partial(Q, q_ord) != rhs:
        raise SelfCheckError("leading coefficient mismatch")
    return DescentLeadingVerdict(
        r, Q, f"dQ/du_{q_ord} = (1/{eq.n}^{r}) d^{r}c_k/dt^{r}")


# -- all structure checks of a verified symmetry ---------------------------------

def check_structure(eq: EvolutionEquation, report: SymmetryReport
                    ) -> tuple[LeadingCoefficientVerdict | None,
                               XPowerDecomposition | None, DescentTrace]:
    """Run the structure checks that apply to a verified symmetry: the
    leading coefficient (order >= 2, as ``c_k(t)^m`` with ``m`` the
    denominator of ``k/n``; ``None`` below order 2), the x-power
    decomposition (``None`` with x inside an exponential), the x-descent
    and, where it applies, the descended-leading-coefficient bound.  A
    failed check is a bug: it raises ``SelfCheckError`` naming the
    candidate in source form."""
    if not report.is_symmetry:
        raise ValueError("structure check needs a verified symmetry")
    k = report.order
    try:
        lead = dec = None
        if k is not None and k >= 2:
            lead = leading_coefficient_check(eq, report)
        if not ex.has_exp_in(report.candidate, GEN_X):
            dec = representation_decompose(eq, report)
        trace = x_descent(eq, report)
        # the descended-leading-coefficient bound is degenerate for n = 2
        if (eq.constant_separant and eq.time_independent and eq.n >= 3
                and k is not None and k > eq.n - 1):
            descent_leading_coeff_check(eq, report)
    except SelfCheckError as err:
        raise SelfCheckError(f"structure check failed for "
                             f"{to_source(report.candidate)}: {err}") from err
    return lead, dec, trace
