"""Differential-algebra operators over :class:`~evosym.expr.DiffExpr`.

The total x-derivative ``D = d/dx + sum u_{i+1} d/du_i``, the Fréchet
derivative ``h_* = sum (dh/du_i) D^i``, the evolutionary action
``nabla_h(r) = sum D^j(h) dr/du_j`` (never materialized as an infinite
object; only the finitely many terms ``r`` actually needs are expanded),
and finite-order operators in D with expression coefficients.

``D`` and the partials are derivations made by one kernel and kept in one
memo on the expression (``expr._derive``), so every operator here asks for
``D^j(e)`` or ``de/du_i`` when it needs one and keeps no table of its own.

Every sum of products goes through one ``expr.sum_of_products``, which
accumulates it in one term dict.  Each operator piece gives its signed
``(f, a, b)`` triples (``apply_triples``, ``ev_triples``, and per degree
``compose_triples``, ``nabla_triples``, ``coeff_triples``), so a caller
that adds or subtracts pieces (a bracket, a commutator, the linearized
residual operator of ``symmetry``) lists their triples and forms one sum,
or one sum per degree by ``fused_operator``, with no intermediate
expression or operator.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from . import expr as ex
from .expr import DiffExpr, partial, u_indices


def total_d(e: DiffExpr) -> DiffExpr:
    """Total derivative with respect to x; raises the top u-index by one."""
    return ex._derive(e, None)


def total_d_power(e: DiffExpr, j: int) -> DiffExpr:
    if j < 0:
        raise ex.ExpressionError("D power must be >= 0")
    for _ in range(j):
        d = ex._memo_d(e)  # a memo hit costs no total_d call
        e = total_d(e) if d is None else d
    return e


class DOperator:
    """Finite-degree polynomial in D with expression coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, DiffExpr]) -> None:
        clean = {}
        for d, c in coeffs.items():
            if d < 0:
                raise ex.ExpressionError("operator degrees must be >= 0")
            if c:
                clean[d] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("DOperator is immutable")

    def __reduce__(self):
        return DOperator, (self.coeffs,)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, d: int) -> DiffExpr:
        return self.coeffs.get(d, ex.ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self) -> "DOperator":
        return DOperator({d: -c for d, c in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "DOperator(0)"
        parts = [f"({c})*D^{d}" for d, c in sorted(self.coeffs.items(), reverse=True)]
        return "DOperator(" + " + ".join(parts) + ")"


def frechet(h: DiffExpr) -> DOperator:
    """Fréchet derivative of an expression; empty for u-independent input."""
    return DOperator({i: partial(h, i) for i in u_indices(h)})


# -- signed triples: the pieces of a fused sum ------------------------------

def apply_triples(op: DOperator, e: DiffExpr, sign: int = 1) -> list:
    """``sign * op(e)`` as ``(f, a, b)`` triples: ``c_d * D^d(e)``."""
    return [(sign, c, total_d_power(e, d)) for d, c in op.coeffs.items()]


def ev_triples(h: DiffExpr, r: DiffExpr, sign: int = 1) -> list:
    """``sign * nabla_h(r)`` as triples: ``D^j(h) * dr/du_j``."""
    return [(sign, total_d_power(h, j), partial(r, j)) for j in u_indices(r)]


def compose_triples(a: DOperator, b: DOperator,
                    sign: int = 1) -> dict[int, list]:
    """``sign * a∘b`` as triples per degree, by the iterated Leibniz rule
    ``D^i ∘ (c D^j) = sum_p C(i,p) D^p(c) D^{i+j-p}``."""
    products: dict[int, list] = {}
    for i, ai in a.coeffs.items():
        for j, bj in b.coeffs.items():
            for p in range(i + 1):
                products.setdefault(i + j - p, []).append(
                    (sign * comb(i, p), ai, total_d_power(bj, p)))
    return products


def nabla_triples(h: DiffExpr, op: DOperator,
                  sign: int = 1) -> dict[int, list]:
    """``sign * nabla_h`` applied to each coefficient, as triples per
    degree."""
    return {d: ev_triples(h, c, sign) for d, c in op.coeffs.items()}


def coeff_triples(op: DOperator, sign: int = 1) -> dict[int, list]:
    """``sign * op`` itself as triples per degree: ``c_d * 1``."""
    return {d: [(sign, c, ex.ONE)] for d, c in op.coeffs.items()}


def fused_operator(*parts: dict[int, list]) -> DOperator:
    """The operator summing the per-degree triples of all ``parts``: one
    ``sum_of_products`` per degree that has any."""
    products: dict[int, list] = {}
    for part in parts:
        for d, triples in part.items():
            if triples:
                products.setdefault(d, []).extend(triples)
    return DOperator({d: ex.sum_of_products(triples)
                      for d, triples in products.items()})


# -- operators and actions --------------------------------------------------

def op_apply(op: DOperator, e: DiffExpr) -> DiffExpr:
    return ex.sum_of_products(apply_triples(op, e))


def op_compose(a: DOperator, b: DOperator) -> DOperator:
    """Operator product a∘b, one fused sum per output degree."""
    return fused_operator(compose_triples(a, b))


def op_commutator(a: DOperator, b: DOperator) -> DOperator:
    """``a∘b - b∘a``, one fused sum per degree."""
    return fused_operator(compose_triples(a, b), compose_triples(b, a, -1))


def ev_apply(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """Evolutionary action ``nabla_h(r) = sum_j D^j(h) dr/du_j``.

    Finite because r depends on finitely many u_j; coincides with
    ``op_apply(frechet(r), h)``.
    """
    return ex.sum_of_products(ev_triples(h, r))


def nabla_on_op(h: DiffExpr, op: DOperator) -> DOperator:
    """Apply the evolutionary field of h to each coefficient of an operator."""
    return fused_operator(nabla_triples(h, op))
