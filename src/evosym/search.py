"""Finite-ansatz symmetry search.

A candidate is written as an unknown linear combination of a scaling-graded
monomial pool (times optional t-powers and an optional fixed ``exp(lambda*t)``
factor).  The compatibility residual is linear in the candidate, so the
coefficient of every normalized term yields one exact linear condition; the
nullspace of that system is the space of symmetries inside the ansatz.
Each cell of the system is built once from the integer numerators of its
image's terms.  ``linalg`` computes the nullspace by sparse exact
elimination in one domain for every matrix, rational or not: fraction-free
(Bareiss) on the cleared entries as integer polynomials in the named
constants.  Every returned expression is re-verified through the full
residual check; a linear-t pair through ``timedep.mastersymmetry_test``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import expr as ex
from . import linalg
from .expr import GEN_T, DiffExpr, partial
from .symmetry import EvolutionEquation, SelfCheckError, bracket, is_symmetry
from .timedep import mastersymmetry_test


class PoolLimitError(RuntimeError):
    """The ansatz pool exceeded the configured hard cap."""


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
    max_pool: int = 4000

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"ansatz order must be >= 0, got {self.order}")


@dataclass(frozen=True)
class SearchResult:
    basis: tuple[DiffExpr, ...]
    pool_size: int
    pivot_assumptions: tuple[DiffExpr, ...]


def _u_monomials(order: int, weight_max: int, w0: int):
    """All monomials in u_0..u_order with scaling weight <= weight_max."""

    def rec(i: int, budget: int):
        w = i + w0
        if i > order or w > budget:
            # no later u_j fits (weights grow with j); budget < 0 fits nothing
            if budget >= 0:
                yield ()
            return
        for e in count(0):
            if e * w > budget:
                break
            for rest in rec(i + 1, budget - e * w):
                yield ((i, e),) + rest if e else rest

    for combo in rec(0, weight_max):
        yield combo


def ansatz_terms(eq: EvolutionEquation, cfg: AnsatzConfig) -> list[DiffExpr]:
    """The concrete pool: t^j * x^p * (u-monomial) [* exp(rate*t)]."""
    factor = ex.ONE
    if cfg.exp_rate is not None:
        factor = ex.exp_of(cfg.exp_rate * ex.t)
    out = []
    for combo in _u_monomials(cfg.order, cfg.weight_max + cfg.x_degree_max
                              + eq.n * cfg.t_degree_max, cfg.base_weight):
        w_mono = sum(e * (i + cfg.base_weight) for i, e in combo)
        mono = ex.ONE
        for i, e in combo:
            mono = mono * ex.u(i) ** e
        for p in range(cfg.x_degree_max + 1):
            for j in range(cfg.t_degree_max + 1):
                if w_mono - p - eq.n * j > cfg.weight_max:
                    continue
                term = mono
                if p:
                    term = term * ex.x ** p
                if j:
                    term = term * ex.t ** j
                out.append(term * factor)
                if len(out) > cfg.max_pool:
                    raise PoolLimitError(
                        f"ansatz pool exceeds the cap of {cfg.max_pool} "
                        "entries; tighten the configuration")
    return out


def _split_const_slots(key) -> tuple[tuple, tuple]:
    """A term key as (its non-constant slots, its constant slots)."""
    row_key = []
    cell_key = []
    for sv in key:
        (cell_key if sv[0][0] == 1 else row_key).append(sv)
    return tuple(row_key), tuple(cell_key)


def _linear_system(images: list[DiffExpr]) -> tuple[list[list[DiffExpr]], int]:
    """One row per normalized term shape, one column per pool entry; entries
    are the constant coefficients.  Rows come in the order the images'
    canonical terms first name them; each cell is built once from its
    numerators over its image's denominator."""
    row_index: dict[tuple, int] = {}
    rows: list[list[DiffExpr]] = []
    ncols = len(images)
    for col, img in enumerate(images):
        cells: dict[int, dict] = {}
        for key, c in img._num_items():
            row_key, cell_key = _split_const_slots(key)
            i = row_index.get(row_key)
            if i is None:
                i = row_index[row_key] = len(rows)
                rows.append([ex.ZERO] * ncols)
            cell = cells.get(i)
            if cell is None:
                cells[i] = {cell_key: c}
            else:
                cell[cell_key] = c
        for i, terms in cells.items():
            rows[i][col] = ex._reduced(terms, img._den)
    return rows, ncols


def _combine(vec, pool: list[DiffExpr]) -> DiffExpr:
    return ex.primitive_part(
        ex.sum_of_products((1, c, term) for c, term in zip(vec, pool)))


def find_symmetries(eq: EvolutionEquation, cfg: AnsatzConfig,
                    pool: list[DiffExpr] | None = None) -> SearchResult:
    """Solve the compatibility condition on the ansatz; the returned basis
    spans every symmetry expressible in the pool.  Each element is
    re-verified by the full residual check (hard assertion).  An explicit
    ``pool`` overrides the generated one."""
    if pool is None:
        pool = ansatz_terms(eq, cfg)
    if not pool:
        raise ValueError("empty ansatz pool")
    images = [partial(m, GEN_T) - bracket(eq.F, m) for m in pool]
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
class MasterPair:
    G0: DiffExpr
    G1: DiffExpr
    mu: DiffExpr | None  # set when G1 is proportional to F


@dataclass(frozen=True)
class LinearTimeSearchResult:
    pairs: tuple[MasterPair, ...]
    pool_size: int
    pivot_assumptions: tuple[DiffExpr, ...]


def find_linear_t_symmetries(eq: EvolutionEquation, cfg: AnsatzConfig,
                             pool: list[DiffExpr] | None = None,
                             ) -> LinearTimeSearchResult:
    """Search the time-independent pool for G0 with ``{F, {F, G0}} = 0`` and
    ``{F, G0} != 0``; each pair generates the certified symmetry
    ``G0 + t {F, G0}``.  Returned pairs represent the quotient modulo plain
    time-independent symmetries of the pool."""
    if not eq.time_independent:
        raise ValueError("linear-t search requires a time-independent equation")
    if cfg.t_degree_max or cfg.exp_rate is not None:
        raise ValueError("the linear-t pool must be time-independent")
    if pool is None:
        pool = ansatz_terms(eq, cfg)
    first = [bracket(eq.F, m) for m in pool]
    second = [bracket(eq.F, g) for g in first]

    rows2, ncols = _linear_system(second)
    ker2 = linalg.nullspace(rows2, ncols)
    rows1, _ = _linear_system(first)
    ker1 = linalg.nullspace(rows1, ncols)

    assumptions = linalg.normalize_assumptions(
        ker2.pivot_assumptions + ker1.pivot_assumptions)
    accepted: list[tuple[DiffExpr, ...]] = [list(v) for v in ker1.basis]
    pairs = []
    for vec in ker2.basis:
        if linalg.in_span(list(vec), accepted, ncols):
            continue
        accepted.append(list(vec))
        G0 = _combine(vec, pool)
        res = mastersymmetry_test(eq, G0)
        if res.G1.is_zero:
            raise SelfCheckError("quotient representative has {F, G0} = 0")
        if not res.closes:
            raise SelfCheckError("kernel vector fails {F, {F, G0}} = 0")
        pairs.append(MasterPair(G0=G0, G1=res.G1, mu=res.mu))
    return LinearTimeSearchResult(pairs=tuple(pairs), pool_size=len(pool),
                                  pivot_assumptions=assumptions)


def expr_in_span(target: DiffExpr, basis: list[DiffExpr]) -> bool:
    """Whether an expression is a linear combination (over constants) of the
    given expressions; used by recovery tests and the corpus runner."""
    images = list(basis) + [target]
    rows, ncols = _linear_system(images)
    base_cols = [[row[i] for row in rows] for i in range(len(basis))]
    tgt_col = [row[ncols - 1] for row in rows]
    return linalg.in_span(tgt_col, base_cols, len(rows))