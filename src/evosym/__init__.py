"""Symmetry calculus for scalar (1+1)-dimensional evolution equations.

Exact differential-polynomial expressions, the total/Fréchet derivative
calculus, symmetry verification and determining systems, x-dependence and
time-dependence structure theory, and a finite-ansatz symmetry search.
"""

from .expr import (DiffExpr, ExpressionError, ZERO, ONE, const, exp_of,
                   partial, rational, substitute, to_source, u, u_order, x,
                   t)
from .calculus import (DOperator, D_OP, ZERO_OP, ev_apply, frechet,
                       nabla_on_op, op_apply, op_commutator, op_compose,
                       total_d, total_d_power)
from .symmetry import (DegenerateCaseError, DeterminingSystem,
                       EvolutionEquation, SelfCheckError, SymmetryReport,
                       bracket, classify, descent_bound,
                       descent_leading_coeff_check, determining_system,
                       dimension_bound, is_symmetry,
                       leading_coefficient_check,
                       linearized_residual_operator,
                       representation_decompose, x_descent)
from .timedep import (AnnihilatorOp, TimeDependenceClass, annihilator,
                      classify_time, dt_closure_check, mastersymmetry_test,
                      predict_time_dependence, probe_time_shapes,
                      scaling_test)
from .search import (AnsatzConfig, PoolLimitError, expr_in_span,
                     find_linear_t_symmetries, find_symmetries)
from .parser import ParseError, parse

__version__ = "0.1.0"

BACKEND = "python"  # the term kernels (``_kernel_py``) are pure Python

__all__ = [
    "BACKEND", "DiffExpr", "ExpressionError", "ZERO", "ONE",
    "const", "exp_of", "partial", "rational", "substitute",
    "to_source", "u", "u_order", "x", "t",
    "DOperator", "D_OP", "ZERO_OP", "ev_apply", "frechet", "nabla_on_op",
    "op_apply", "op_commutator", "op_compose", "total_d", "total_d_power",
    "DegenerateCaseError", "DeterminingSystem", "EvolutionEquation",
    "SelfCheckError", "SymmetryReport", "bracket", "classify",
    "descent_bound", "descent_leading_coeff_check", "determining_system",
    "dimension_bound", "is_symmetry", "leading_coefficient_check",
    "linearized_residual_operator", "representation_decompose", "x_descent",
    "AnnihilatorOp", "TimeDependenceClass", "annihilator", "classify_time",
    "dt_closure_check", "mastersymmetry_test", "predict_time_dependence",
    "probe_time_shapes", "scaling_test",
    "AnsatzConfig", "PoolLimitError", "expr_in_span",
    "find_linear_t_symmetries", "find_symmetries",
    "ParseError", "parse",
]
