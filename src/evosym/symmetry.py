"""Symmetry verification and structure theory for scalar evolution equations.

An evolution equation is ``u_t = F(t, u, u_1, ..., u_n)`` with ``n >= 2`` and
no explicit x-dependence.  A candidate ``G(x, t, u, ..., u_k)`` is a symmetry
exactly when ``dG/dt = {F, G}`` with the bracket
``{h, r} = h_*(r) - r_*(h)``.

Beyond plain verification this module builds the determining system two
independent ways and cross-checks them, extracts and tests the structure of
leading coefficients, bounds and decomposes the x-dependence of verified
symmetries, and computes the dimension bound for symmetry spaces of
non-linearizable equations (non-linearizability itself is always a caller
assertion, never decided here).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from . import expr as ex
from .calculus import (DOperator, ev_apply, frechet, nabla_on_op, op_apply,
                       op_commutator, total_d_power)
from .expr import (GEN_T, GEN_X, DiffExpr, is_constant, is_t_only, occurs,
                   partial, to_source, try_divide, try_nth_root, u_order)
from .expr import x as x_expr


class SelfCheckError(RuntimeError):
    """Two independent constructions of the same object disagreed, or a
    proved structural bound failed on a verified symmetry.  Either case
    means an implementation bug, so it is a hard failure."""


class DegenerateCaseError(ValueError):
    """Raised where the n = 2 case makes a bound formula degenerate."""


# -- the Lie bracket ---------------------------------------------------------

def bracket(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """Lie bracket ``{h, r} = h_*(r) - r_*(h)``.

    Evaluated both through Fréchet operators and through the evolutionary
    action; the two must agree identically (they are the same sum assembled
    by different code paths), and the common value is returned.
    """
    via_frechet = op_apply(frechet(h), r) - op_apply(frechet(r), h)
    via_nabla = ev_apply(r, h) - ev_apply(h, r)
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
    ``nabla_G(F_*) - nabla_F(G_*) + [F_*, G_*] - (dG/dt)_*``.  The zero
    operator exactly when the linearized condition holds."""
    F_star = frechet(eq.F)
    G_star = frechet(G)
    out = nabla_on_op(G, F_star) - nabla_on_op(eq.F, G_star)
    out = out + op_commutator(F_star, G_star)
    return out - frechet(partial(G, GEN_T))


@dataclass(frozen=True)
class DeterminingSystem:
    """Coefficient-wise determining equations for a candidate symmetry.

    ``equations[l]`` is the condition read off at ``D^l``, l = 0..n+k-1;
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
    """Build the determining system for G two independent ways and cross-check.

    (a) transcribes the coefficient formula at each D-level directly, with
    binomial weights vanishing outside their natural range; (b) extracts the
    coefficients of :func:`linearized_residual_operator`.  Any term-level
    disagreement is an implementation bug and raises.
    """
    k = u_order(G)
    if k is None:
        raise ex.ExpressionError("candidate must be nonzero")
    n = eq.n
    F = eq.F

    dF = [partial(F, i) for i in range(n + 1)]
    dG = [partial(G, j) for j in range(k + 1)]
    # levels 0..n+k-1 carry all content for k >= 1; an order-0 candidate
    # still contributes at D^n through the mixed second derivatives of F
    top = n + max(k, 1)
    Gt = partial(G, GEN_T)

    literal = []
    for l in range(top):
        products = [(-1, ex.ONE, partial(Gt, l))] if l <= k else []
        for m in range(n + 1):
            term = partial(dF[m], l)
            if term:
                products.append((1, total_d_power(G, m), term))
        for r in range(k + 1):
            term = partial(dG[r], l)
            if term:
                products.append((-1, total_d_power(F, r), term))
        for j in range(max(0, l + 1 - n), k + 1):
            for i in range(max(l + 1 - j, 0), n + 1):
                p = i + j - l
                if p < 0:
                    continue
                if p <= i:
                    products.append(
                        (comb(i, p), dF[i], total_d_power(dG[j], p)))
                if p <= j:
                    products.append(
                        (-comb(j, p), dG[j], total_d_power(dF[i], p)))
        literal.append(ex.sum_of_products(products))

    operator = linearized_residual_operator(eq, G)
    if operator.degree is not None and operator.degree >= top:
        raise SelfCheckError("determining system: unexpected operator degree")
    for l in range(top):
        if literal[l] != operator.coeff(l):
            raise SelfCheckError(
                f"determining system: constructions disagree at D^{l}")

    closure = Gt - bracket(F, G)
    return DeterminingSystem(equations=tuple(literal), closure=closure,
                             n=n, k=k)


# -- leading-coefficient structure ---------------------------------------------

@dataclass(frozen=True)
class LeadingCoefficientVerdict:
    ok: bool
    inconclusive: bool
    c_k: DiffExpr | None
    detail: str


def leading_coefficient_check(eq: EvolutionEquation,
                              report: SymmetryReport) -> LeadingCoefficientVerdict:
    """Check that ``dG/du_k`` factors as (function of t) x separant^(k/n).

    With a constant separant this reduces to "depends on t only".  For a
    non-constant separant the fractional power is attempted as an exact
    root/power; when it does not exist in the expression class the verdict
    is inconclusive rather than forced.
    """
    if not report.is_symmetry:
        raise ValueError("leading-coefficient check needs a verified symmetry")
    k = report.order
    if k is None or k < 2:
        raise ValueError("leading-coefficient check needs order k >= 2")
    lead = partial(report.candidate, k)
    if eq.constant_separant:
        if is_t_only(lead):
            return LeadingCoefficientVerdict(True, False, lead, "c_k(t) = dG/du_k")
        return LeadingCoefficientVerdict(
            False, False, None, "dG/du_k depends on x or u")
    power = _separant_power(eq.separant, k, eq.n)
    if power is None:
        return LeadingCoefficientVerdict(
            False, True, None,
            f"separant^({k}/{eq.n}) is not expressible in the expression class")
    quot = try_divide(lead, power)
    if quot is not None and is_t_only(quot):
        return LeadingCoefficientVerdict(True, False, quot,
                                         "c_k(t) * separant^(k/n)")
    return LeadingCoefficientVerdict(
        False, False, None, "dG/du_k is not c_k(t) * separant^(k/n)")


def _separant_power(sep: DiffExpr, k: int, n: int) -> DiffExpr | None:
    if k % n == 0:
        return sep ** (k // n)
    g = gcd(k, n)
    p, m = k // g, n // g
    root = try_nth_root(sep, m)
    if root is not None:
        return root ** p
    return try_nth_root(sep ** p, m)


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
    if q not in (-1, 0, 1):
        raise ValueError("q must be -1, 0 or 1")
    if q == -1:
        if n < 2:
            raise ValueError("n must be >= 2")
        return k // (n - 1)
    if n == 2:
        raise DegenerateCaseError(
            "descent bound with q >= 0 is degenerate for n = 2")
    if n < 2:
        raise ValueError("n must be >= 2")
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
    differentiated away; the trace stops once the polynomial x-dependence is
    exhausted and says so."""
    if not report.is_symmetry:
        raise ValueError("x-descent needs a verified symmetry")
    cur = report.candidate
    steps = [(cur, report.order)]
    note = ""
    while occurs(cur, GEN_X):
        if ex.poly_degree(cur, GEN_X) == 0:
            note = ("x-dependence carried by an exponential factor; "
                    "descent is stationary")
            break
        nxt = partial(cur, GEN_X)
        if nxt.is_zero:
            break
        if not is_symmetry(eq, nxt).is_symmetry:
            raise SelfCheckError("x-descent: dG/dx is not a symmetry")
        prev_order = u_order(cur) or 0
        nxt_order = u_order(nxt)
        if nxt_order is not None and nxt_order > max(1, prev_order - eq.n + 1):
            raise SelfCheckError("x-descent: order bound violated")
        steps.append((nxt, nxt_order))
        cur = nxt
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

    g_list: list[DiffExpr] = []
    psi = ex.ZERO
    s_eff = 0
    for j in range(top_power + 1):
        coeff = by_power.get(j, ex.ZERO)
        hi, lo = ex.split_u_order(coeff, 2)
        if hi:
            s_eff = j
            bound = k - j * (n - 1)
            if (u_order(hi) or 0) > bound:
                raise SelfCheckError(
                    f"x-power decomposition: coefficient of x^{j} has order "
                    f"{u_order(hi)} > {bound}")
        if j == 0:
            g_list.append(hi)
            psi = lo
        else:
            g_list.append(coeff)

    while len(g_list) > 1 and g_list[-1].is_zero:
        g_list.pop()
    s = len(g_list) - 1

    rebuilt = psi
    for j, g_j in enumerate(g_list):
        rebuilt = rebuilt + x_expr ** j * g_j
    if rebuilt != G:
        raise SelfCheckError("x-power decomposition: reconstruction failed")

    try:
        s_bound = descent_bound(k, n, 1)
    except DegenerateCaseError:
        s_bound = descent_bound(k, n, -1)  # n = 2: only the raw bound applies
    if s_eff > s_bound:
        raise SelfCheckError(
            f"x-power decomposition: s = {s_eff} exceeds bound {s_bound}")

    # With dF/du_n, ..., dF/du_{n-j} functions of t only (j >= 1), psi may
    # carry no u-dependence at all, but s is only bounded by [k/(n-1)].
    remark = eq.deriv_depth >= 1
    if remark:
        remark_bound = descent_bound(k, n, -1)
        u_top = 0
        u_parts = {}
        for j, coeff in by_power.items():
            dep, _ = ex.split_u_order(coeff, 0)
            if dep:
                u_top = max(u_top, j)
                u_parts[j] = dep
        if u_top > remark_bound:
            raise SelfCheckError(
                f"x-power decomposition: s = {u_top} exceeds bound "
                f"{remark_bound}")
        for j, dep in u_parts.items():
            bound = k - j * (n - 1)
            if (u_order(dep) or 0) > bound:
                raise SelfCheckError(
                    f"x-power decomposition: u-content at x^{j} exceeds "
                    f"order {bound}")

    return XPowerDecomposition(s=s, g=tuple(g_list), psi=psi,
                               s_effective=s_eff, s_bound_used=s_bound,
                               remark_applied=remark)


# -- descended leading coefficient ----------------------------------------------

@dataclass(frozen=True)
class DescentLeadingVerdict:
    ok: bool
    r: int
    Q: DiffExpr
    detail: str


def descent_leading_coeff_check(eq: EvolutionEquation,
                                report: SymmetryReport) -> DescentLeadingVerdict:
    """For a constant-separant, time-independent equation and a verified
    symmetry of order ``k > n-1``: after ``r`` x-derivatives (r the q=0
    descent bound) the result Q must lie in order <= n-1 and its leading
    coefficient must equal ``(1/n^r) d^r c_k / dt^r``."""
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
        return DescentLeadingVerdict(False, r, Q, "c_k is not a function of t")
    rhs = c_k
    for _ in range(r):
        rhs = partial(rhs, GEN_T)
    rhs = rhs / ex.rational(eq.n ** r)
    if Q.is_zero:
        if rhs.is_zero:
            return DescentLeadingVerdict(True, r, Q, "descended to zero")
        return DescentLeadingVerdict(False, r, Q,
                                     "descended to zero but d^r c_k/dt^r != 0")
    q_ord = u_order(Q) or 0
    if q_ord > eq.n - 1:
        return DescentLeadingVerdict(False, r, Q,
                                     f"descended order {q_ord} > n-1")
    lead = partial(Q, q_ord) if u_order(Q) is not None else ex.ZERO
    if lead == rhs:
        return DescentLeadingVerdict(
            True, r, Q, f"dQ/du_{q_ord} = (1/{eq.n}^{r}) d^{r}c_k/dt^{r}")
    return DescentLeadingVerdict(False, r, Q, "leading coefficient mismatch")


# -- dimension bound --------------------------------------------------------------

def dimension_bound(k: int, n: int, dim_phi: int) -> int:
    """Upper bound for dim of the order-<=k symmetry space of a
    non-linearizable equation with ``dim_phi = dim {phi(x,t)} <= n``
    (non-linearizability and dim_phi are caller-supplied assertions).

    For ``k <= n-2`` this is ``dim_phi + k + 2``; above, the quotient
    dimensions are bounded level by level and summed.
    """
    if not 0 <= dim_phi <= n:
        raise ValueError("dim_phi must satisfy 0 <= dim_phi <= n")
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 2:
        raise ValueError("n must be >= 2")

    def n_low(j: int) -> int:
        return dim_phi + j + 2

    if k <= n - 2:
        return n_low(k)
    k0 = k - (k // (n - 1)) * (n - 1)
    total = n_low(k0)
    for j in range(k0 + 1, k + 1):
        if j <= n - 2:
            total += n_low(j)
        else:
            j0 = j - (j // (n - 1)) * (n - 1)
            total += n_low(j0) + j // (n - 1)
    return total
