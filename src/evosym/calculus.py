"""Differential-algebra operators over :class:`~evosym.expr.DiffExpr`.

The total x-derivative ``D = d/dx + sum u_{i+1} d/du_i``, the Fréchet
derivative ``h_* = sum (dh/du_i) D^i``, the evolutionary action
``nabla_h(r) = sum D^j(h) dr/du_j`` (never materialized as an infinite
object; only the finitely many terms ``r`` actually needs are expanded),
and finite-order operators in D with expression coefficients.

``D`` and the partials are memoized on the expression (``DiffExpr._d``,
``DiffExpr._parts``), so every operator here asks for ``D^j(e)`` or
``de/du_i`` when it needs one and keeps no table of its own.  Each sum of
products (``op_apply``, ``ev_apply``, one degree of ``op_compose``) is
accumulated in one term dict by ``expr.sum_of_products``.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from . import expr as ex
from .expr import DiffExpr, partial, u_indices, u_order


def total_d(e: DiffExpr) -> DiffExpr:
    """Total derivative with respect to x; raises the top u-index by one."""
    if e._d is None:
        terms, m = ex.kernel.total_d_terms(e._t)
        ex._set_d(e, ex._reduced(terms, e._den * m))
    return e._d


def total_d_power(e: DiffExpr, j: int) -> DiffExpr:
    if j < 0:
        raise ex.ExpressionError("D power must be >= 0")
    for _ in range(j):
        d = e._d  # read a memo hit without a call
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

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: "DOperator") -> "DOperator":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, ex.ZERO) + c
        return DOperator(out)

    def __sub__(self, other: "DOperator") -> "DOperator":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, ex.ZERO) - c
        return DOperator(out)

    def __neg__(self) -> "DOperator":
        return DOperator({d: -c for d, c in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "DOperator(0)"
        parts = [f"({c})*D^{d}" for d, c in sorted(self.coeffs.items(), reverse=True)]
        return "DOperator(" + " + ".join(parts) + ")"


D_OP = DOperator({1: ex.ONE})
ZERO_OP = DOperator({})


def frechet(h: DiffExpr) -> DOperator:
    """Fréchet derivative of an expression; empty for u-independent input."""
    top = u_order(h)
    if top is None:
        return ZERO_OP
    return DOperator({i: partial(h, i) for i in range(top + 1)})


def op_apply(op: DOperator, e: DiffExpr) -> DiffExpr:
    return ex.sum_of_products((1, c, total_d_power(e, d))
                              for d, c in op.coeffs.items())


def op_compose(a: DOperator, b: DOperator) -> DOperator:
    """Operator product a∘b via the iterated Leibniz rule
    ``D^i ∘ (c D^j) = sum_p C(i,p) D^p(c) D^{i+j-p}``, one fused sum per
    output degree."""
    products: dict[int, list] = {}
    for i, ai in a.coeffs.items():
        for j, bj in b.coeffs.items():
            for p in range(i + 1):
                products.setdefault(i + j - p, []).append(
                    (comb(i, p), ai, total_d_power(bj, p)))
    return DOperator({d: ex.sum_of_products(triples)
                      for d, triples in products.items()})


def op_commutator(a: DOperator, b: DOperator) -> DOperator:
    return op_compose(a, b) - op_compose(b, a)


def ev_apply(h: DiffExpr, r: DiffExpr) -> DiffExpr:
    """Evolutionary action ``nabla_h(r) = sum_j D^j(h) dr/du_j``.

    Finite because r depends on finitely many u_j; coincides with
    ``op_apply(frechet(r), h)``.
    """
    return ex.sum_of_products((1, total_d_power(h, j), partial(r, j))
                              for j in u_indices(r))


def nabla_on_op(h: DiffExpr, op: DOperator) -> DOperator:
    """Apply the evolutionary field of h to each coefficient of an operator."""
    return DOperator({d: ev_apply(h, c) for d, c in op.coeffs.items()})
