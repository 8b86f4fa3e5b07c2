"""An oracle for the benchmark's known answers that shares no code with
evosym: sympy expressions, and the total derivative, Fréchet derivative and
bracket written out from their definitions,

    D = d/dx + sum_i u_{i+1} d/du_i,    h_*(r) = sum_i (dh/du_i) D^i r,
    {h, r} = h_*(r) - r_*(h),           G is a symmetry of u_t = F
                                        iff dG/dt = {F, G}.

Used by the benchmark's tests only; the benchmark itself never imports
sympy.  Nothing here calls evosym.
"""

from __future__ import annotations

import random
from itertools import count

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

N_U = 16
X, T = sp.symbols("x t")
U = sp.symbols(f"u0:{N_U}")


def to_sympy(src: str, constants=()) -> sp.Expr:
    """Read an expression written in evosym's grammar."""
    names = {"x": X, "t": T, "u": U[0], "exp": sp.exp}
    names.update({f"u{i}": U[i] for i in range(N_U)})
    names.update({c: sp.Symbol(c) for c in constants})
    return sp.sympify(src.replace("^", "**"), locals=names)


def is_zero(e: sp.Expr) -> bool:
    # powsimp merges products of exponentials, exp(2*u)*exp(-2*u) = 1
    return sp.expand(sp.powsimp(sp.expand(e))) == 0


class _Algebra:
    """The expressions as sparse polynomials in x, t, u_0.. and one
    generator ``E_k`` per exponential ``exp(arg_k)``, with the derivation
    ``dE_k/dg = (d arg_k/dg) E_k``; coefficients are polynomials in the
    named constants."""

    def __init__(self, *exprs: sp.Expr) -> None:
        atoms = sorted(set().union(*(e.atoms(sp.exp) for e in exprs)),
                       key=sp.default_sort_key)
        self.exps = {sp.Symbol(f"_E{k}"): a for k, a in enumerate(atoms)}
        self.to_symbol = {a: s for s, a in self.exps.items()}
        gens = (X, T) + U + tuple(self.exps)
        constants = sorted(set().union(*(e.free_symbols for e in exprs))
                           - set(gens), key=str)
        domain = QQ[tuple(constants)] if constants else QQ
        self.R, *g = ring(gens, domain)
        self.x, self.u = g[0], g[2:2 + N_U]
        self.E = g[2 + N_U:]
        # d(arg_k)/d(generator) for x and every u_i
        self.chain = {gen: [self.R(sp.diff(a.args[0], gen)) for a in atoms]
                      for gen in (X,) + U}

    def poly(self, e: sp.Expr):
        return self.R(e.xreplace(self.to_symbol))

    def expr(self, p) -> sp.Expr:
        return p.as_expr().xreplace(self.exps)

    def partial(self, p, gen: sp.Symbol, g):
        out = p.diff(g)
        for E, c in zip(self.E, self.chain[gen]):
            if c and p.degree(E) > 0:
                out += c * E * p.diff(E)
        return out

    def D(self, p):
        out = self.partial(p, X, self.x)
        for i in range(N_U - 1):
            out += self.partial(p, U[i], self.u[i]) * self.u[i + 1]
        return out

    def frechet_apply(self, h, r):
        out = self.R.zero
        dr = r
        for i in range(N_U):
            if i:
                dr = self.D(dr)
            dh = self.partial(h, U[i], self.u[i])
            if dh:
                out += dh * dr
        return out


def bracket(h: sp.Expr, r: sp.Expr) -> sp.Expr:
    """``{h, r} = h_*(r) - r_*(h)``."""
    A = _Algebra(h, r)
    hp, rp = A.poly(h), A.poly(r)
    return A.expr(A.frechet_apply(hp, rp) - A.frechet_apply(rp, hp))


def residual(F: sp.Expr, G: sp.Expr) -> sp.Expr:
    return sp.expand(sp.diff(G, T) - bracket(F, G))


def is_symmetry(F: sp.Expr, G: sp.Expr) -> bool:
    return is_zero(residual(F, G))


# -- finite ansatz spaces --------------------------------------------------------

def pool(n: int, order: int, weight: int, t_degree: int = 0,
         x_degree: int = 0, base: int = 2) -> list[sp.Expr]:
    """Every ``t^j x^p m`` with ``m`` a monomial in u_0..u_order, where u_i
    weighs ``i + base``, x weighs -1 and t weighs -n, of weight at most
    ``weight``, ``j <= t_degree`` and ``p <= x_degree``."""
    top = weight + x_degree + n * t_degree

    def monomials(i: int, budget: int):
        if i > order:
            yield sp.Integer(1), 0
            return
        w = i + base
        for e in count(0):
            if e * w > budget:
                break
            for rest, wr in monomials(i + 1, budget - e * w):
                yield U[i] ** e * rest, e * w + wr

    out = []
    for m, w in monomials(0, top):
        for p in range(x_degree + 1):
            for j in range(t_degree + 1):
                if w - p - n * j <= weight:
                    out.append(T ** j * X ** p * m)
    return out


def _coefficients(e: sp.Expr) -> dict:
    return {k: v for k, v in sp.expand(e).as_coefficients_dict().items() if v}


def rank(exprs: list[sp.Expr]) -> int:
    """Rank over Q of expressions with rational coefficients."""
    coeffs = [_coefficients(e) for e in exprs]
    keys = sorted({k for c in coeffs for k in c}, key=sp.default_sort_key)
    if not keys:
        return 0
    rows = [[QQ.convert(sp.Rational(c.get(k, 0))) for c in coeffs]
            for k in keys]
    return DomainMatrix(rows, (len(keys), len(exprs)), QQ).rank()


def generic_point(constants, seed: int = 1) -> dict:
    """Random rationals for the named constants: a rank computed there is
    the generic rank except on a proper algebraic subset."""
    rng = random.Random(seed)
    return {sp.Symbol(c): sp.Rational(rng.randint(11, 97), rng.randint(2, 13))
            for c in constants}


def solution_dim(F: sp.Expr, ansatz: list[sp.Expr]) -> int:
    """Dimension of the symmetries inside the span of ``ansatz``."""
    images = [sp.diff(m, T) - bracket(F, m) for m in ansatz]
    return len(ansatz) - rank(images)
