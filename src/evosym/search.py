"""Finite-ansatz symmetry search.

A candidate is written as an unknown linear combination of a scaling-graded
monomial pool (times optional t-powers and an optional fixed ``exp(lambda*t)``
factor).  The compatibility residual is linear in the candidate, so the
coefficient of every normalized term yields one exact linear condition; the
nullspace of that system is the space of symmetries inside the ansatz.
Each pool entry ``m`` is built as one term, and its image ``dm/dt - {F,
m}`` as ``{m, F}``, plus ``dm/dt`` for an entry with t: the bracket is
antisymmetric, so no image is negated.  ``expr.coefficient_rows`` reads
the system off the images on their packed keys, decoding only the terms
whose shape is new to the system.  ``linalg`` computes the nullspace by
sparse exact elimination: a rational matrix modulo primes, each entry
rebuilt by rational reconstruction and every vector checked exactly; a
matrix with named constants fraction-free (Bareiss) on the cleared
entries as integer polynomials in the constants.  Every returned
expression is re-verified through the full residual check; a
linear-t pair through ``timedep.mastersymmetry_test``, whose
``MasterResult`` is the pair.

The linear-t search eliminates ``{F, {F, G0}} = 0`` on the pool once and
takes the quotient by the plain symmetries on the images ``G1 = {F, G0}``
of that kernel's vectors, combined from the first brackets already built.
``G0 -> {F, G0}`` is linear and vanishes exactly on the plain symmetries,
so a kernel vector lies in their span plus that of the earlier vectors
exactly when its ``G1`` lies in the span of the earlier ``G1``: the pairs
are the kernel vectors at the pivot columns of one elimination of the
``G1`` system, in the order and with the selection of a greedy span test.
``expr_in_span`` likewise reads whether the target's column is a pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from . import linalg
from .expr import GEN_T, GEN_X, DiffExpr, partial
from .symmetry import EvolutionEquation, SelfCheckError, bracket, is_symmetry
from .timedep import MasterResult, mastersymmetry_test

# Largest ansatz pool that ``ansatz_terms`` builds: each entry costs a
# bracket and a column of the elimination.
MAX_POOL = 4000


class PoolLimitError(ValueError):
    """The ansatz pool exceeded ``MAX_POOL``."""


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the search space.

    Monomials in u_0..u_k carry weight ``sum (i + base_weight) * e_i``;
    powers of x weigh -1 each and powers of t weigh -n each (scaling
    grading).  The pool holds every combination within ``weight_max``,
    ``x_degree_max`` and ``t_degree_max``; ``exp_rate`` multiplies the whole
    ansatz by a fixed ``exp(rate * t)``.
    """

    order: int
    weight_max: int
    t_degree_max: int = 0
    x_degree_max: int = 0
    base_weight: int = 2
    exp_rate: DiffExpr | None = None

    def __post_init__(self) -> None:
        for name, low in (("order", 0), ("t_degree_max", 0),
                          ("x_degree_max", 0), ("base_weight", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(
                    f"ansatz {name} must be >= {low}, got {value}")
        if self.exp_rate is not None and not ex.is_constant(self.exp_rate):
            raise ValueError("ansatz exp_rate must be a constant expression, "
                             f"got {self.exp_rate}")


@dataclass(frozen=True)
class SearchResult:
    basis: tuple[DiffExpr, ...]
    pool_size: int
    pivot_assumptions: tuple[DiffExpr, ...]


def _u_monomials(order: int, weight_max: int, w0: int, low: int = 0):
    """All monomials in u_low..u_order with scaling weight <= weight_max
    (u_j weighs j + w0), as ``((i, e_i), ...)`` over the nonzero exponents,
    in lexicographic order of ``(e_low, ..., e_order)``: 1, then for each j
    from the highest that fits down to ``low``, each power of u_j that fits
    times the monomials in the higher u's that fit beside it.  One level of
    recursion per factor, not per index, so a deep order stays shallow."""
    if weight_max < 0:
        return
    yield ()
    for j in range(min(order, weight_max - w0), low - 1, -1):
        w = j + w0
        for e in range(1, weight_max // w + 1):
            for rest in _u_monomials(order, weight_max - e * w, w0, j + 1):
                yield ((j, e),) + rest


def ansatz_terms(eq: EvolutionEquation, cfg: AnsatzConfig) -> list[DiffExpr]:
    """The concrete pool: t^j * x^p * (u-monomial) [* exp(rate*t)].  A pool
    that reaches a ``u_i`` past ``expr.MAX_U_INDEX`` is refused once built
    (so the cap on its size is met first): its answers would print
    ``u_i``, which the grammar does not read back."""
    factor = ex.int_term(1)
    if cfg.exp_rate is not None:
        factor = ex.exp_term(cfg.exp_rate * ex.t)
    x1, t1 = ex.gen_term(GEN_X), ex.gen_term(GEN_T)
    out = []
    # u_j weighs j + base_weight, and the pool holds u_top alone with the
    # top powers of x and t
    weight = cfg.weight_max + cfg.x_degree_max + eq.n * cfg.t_degree_max
    top = min(cfg.order, weight - cfg.base_weight)
    for combo in _u_monomials(cfg.order, weight, cfg.base_weight):
        w_mono = sum(e * (i + cfg.base_weight) for i, e in combo)
        mono = factor
        for i, e in combo:
            mono = ex.term_mul(mono, ex.term_pow(ex.gen_term(i), e))
        for p in range(cfg.x_degree_max + 1):
            with_x = ex.term_mul(mono, ex.term_pow(x1, p))
            for j in range(cfg.t_degree_max + 1):
                if w_mono - p - eq.n * j > cfg.weight_max:
                    continue
                out.append(ex.term_expr(ex.term_mul(with_x,
                                                    ex.term_pow(t1, j))))
                if len(out) > MAX_POOL:
                    raise PoolLimitError(
                        f"ansatz pool exceeds the cap of {MAX_POOL} "
                        "entries; tighten the configuration")
    if top > ex.MAX_U_INDEX:
        raise ValueError(f"ansatz pool reaches u-index {top}, past the "
                         f"grammar's bound (max {ex.MAX_U_INDEX})")
    return out


def _linear_system(images: list[DiffExpr]) -> tuple[list[list[DiffExpr]], int]:
    """One row per constant-free monomial, one column per pool entry;
    entries are the constant coefficients (``expr.coefficient_rows``).
    Rows come in the order the images' canonical terms first name them."""
    return ex.coefficient_rows(images), len(images)


def _pool(eq: EvolutionEquation, cfg: AnsatzConfig,
          pool: list[DiffExpr] | None) -> list[DiffExpr]:
    """The generated pool, distinct monomials, or ``pool`` checked: each
    entry an expression outside the span of those before it (the pivots of
    one elimination), so the nullspace's vectors combine to a basis.  An
    empty pool or the first bad entry raises ``ValueError``."""
    if pool is None:
        pool = ansatz_terms(eq, cfg)
    else:
        for i, m in enumerate(pool):
            if not isinstance(m, DiffExpr):
                raise ValueError(f"ansatz pool entry {i} is not an "
                                 f"expression: {m!r}")
        pivots = linalg.nullspace(*_linear_system(pool)).pivots
        if len(pivots) < len(pool):
            i = min(set(range(len(pool))).difference(pivots))
            raise ValueError(f"ansatz pool entry {i} lies in the span of the "
                             f"entries before it: {pool[i]}")
    if not pool:
        raise ValueError("empty ansatz pool")
    return pool


def _combine(vec, pool: list[DiffExpr]) -> DiffExpr:
    return ex.primitive_part(
        ex.sum_of_products((1, c, term) for c, term in zip(vec, pool)))


def find_symmetries(eq: EvolutionEquation, cfg: AnsatzConfig,
                    pool: list[DiffExpr] | None = None) -> SearchResult:
    """Solve the compatibility condition on the ansatz; the returned basis
    spans every symmetry expressible in the pool.  Each element is
    re-verified by the full residual check (hard assertion).  An explicit
    ``pool`` overrides the generated one; its entries must be linearly
    independent (``_pool``)."""
    pool = _pool(eq, cfg, pool)
    images = []
    for m in pool:
        # {m, F} = -{F, m}; an entry free of t has dm/dt = 0
        dt, image = partial(m, GEN_T), bracket(m, eq.F)
        images.append(dt + image if dt else image)
    rows, ncols = _linear_system(images)
    ns = linalg.nullspace(rows, ncols)
    basis = []
    for vec in ns.basis:
        g = _combine(vec, pool)
        if g.is_zero:
            raise SelfCheckError("nullspace produced a zero combination")
        if not is_symmetry(eq, g).is_symmetry:
            raise SelfCheckError("search produced a non-symmetry")
        basis.append(g)
    return SearchResult(basis=tuple(basis), pool_size=len(pool),
                        pivot_assumptions=ns.pivot_assumptions)


@dataclass(frozen=True)
class LinearTimeSearchResult:
    pairs: tuple[MasterResult, ...]
    pool_size: int
    pivot_assumptions: tuple[DiffExpr, ...]


def find_linear_t_symmetries(eq: EvolutionEquation, cfg: AnsatzConfig,
                             pool: list[DiffExpr] | None = None,
                             ) -> LinearTimeSearchResult:
    """Search the time-independent pool for G0 with ``{F, {F, G0}} = 0`` and
    ``{F, G0} != 0``; each pair is the ``timedep.MasterResult`` of its
    re-verification, whose certified symmetry is ``G0 + t {F, G0}``.  The
    pairs span the quotient modulo plain symmetries: the kernel vectors
    whose ``G1`` is outside the span of earlier ``G1``s."""
    if not eq.time_independent:
        raise ValueError("linear-t search requires a time-independent equation")
    if cfg.t_degree_max or cfg.exp_rate is not None:
        raise ValueError("the linear-t pool must be time-independent")
    pool = _pool(eq, cfg, pool)
    if any(ex.occurs(m, GEN_T) for m in pool):
        raise ValueError("the linear-t pool must be time-independent")
    first = [bracket(eq.F, m) for m in pool]
    second = [bracket(eq.F, g) for g in first]

    ker2 = linalg.nullspace(*_linear_system(second))
    G1s = [ex.sum_of_products((1, c, f) for c, f in zip(vec, first))
           for vec in ker2.basis]
    quotient = linalg.nullspace(*_linear_system(G1s))
    pairs = []
    for j in quotient.pivots:
        G0 = _combine(ker2.basis[j], pool)
        res = mastersymmetry_test(eq, G0)
        if res.G1.is_zero:
            raise SelfCheckError("quotient representative has {F, G0} = 0")
        if not res.closes:
            raise SelfCheckError("kernel vector fails {F, {F, G0}} = 0")
        pairs.append(res)
    return LinearTimeSearchResult(
        pairs=tuple(pairs), pool_size=len(pool),
        pivot_assumptions=linalg.normalize_assumptions(
            ker2.pivot_assumptions + quotient.pivot_assumptions))


def expr_in_span(target: DiffExpr, basis: list[DiffExpr]) -> bool:
    """Whether an expression is a linear combination (over constants) of the
    given expressions (generically, when constants are involved): whether
    its column is no pivot.  Used by recovery tests and the corpus runner."""
    return len(basis) not in linalg.nullspace(
        *_linear_system([*basis, target])).pivots
