"""Call tracing from outside the program, for the traced benchmark run.

``Tracer.install`` replaces public functions of evosym's modules with
timing wrappers, both where each is defined and wherever another evosym
module imported it by name (``search.bracket``, ``symmetry.total_d_power``
...), and ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited, and an untraced run installs no wrapper at all.

Two kinds of wrapper:

* span functions (every layer but ``expr``) form a call tree.  Each call
  records a span ``(id, parent, request, name, start_ns, end_ns)`` in
  memory, and its self time is its duration minus the time of the span
  functions it called directly.
* flat functions (the ``expr`` kernels: products, sums, partial
  derivatives, printing, exact division) are counted and timed, but stay
  inside their caller's self time: they are the arithmetic every layer is
  made of, and are called millions of times per request, so they keep no
  spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function, group) for span functions; the group names the
# per-layer metric the function's self time is added to.
SPAN_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("parser", "parse", "parser.parse"),
    ("calculus", "total_d", "calculus.total_d"),
    ("calculus", "total_d_power", "calculus.operator"),
    ("calculus", "frechet", "calculus.operator"),
    ("calculus", "op_apply", "calculus.operator"),
    ("calculus", "op_compose", "calculus.operator"),
    ("calculus", "op_commutator", "calculus.operator"),
    ("calculus", "ev_apply", "calculus.operator"),
    ("calculus", "nabla_on_op", "calculus.operator"),
    ("symmetry", "bracket", "symmetry.bracket"),
    ("symmetry", "is_symmetry", "symmetry.is_symmetry"),
    ("symmetry", "classify", "symmetry.classify"),
    ("symmetry", "determining_system", "symmetry.determining_system"),
    ("symmetry", "linearized_residual_operator", "symmetry.determining_system"),
    ("symmetry", "leading_coefficient_check", "symmetry.structure"),
    ("symmetry", "representation_decompose", "symmetry.structure"),
    ("symmetry", "x_descent", "symmetry.structure"),
    ("symmetry", "descent_leading_coeff_check", "symmetry.structure"),
    ("timedep", "classify_time", "timedep"),
    ("timedep", "annihilator", "timedep"),
    ("timedep", "dt_closure_check", "timedep"),
    ("timedep", "scaling_test", "timedep"),
    ("timedep", "mastersymmetry_test", "timedep"),
    ("timedep", "predict_time_dependence", "timedep"),
    ("timedep", "probe_time_shapes", "timedep"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rank", "linalg.rank_fn"),
    ("linalg", "in_span", "linalg.in_span"),
    ("search", "ansatz_terms", "search.pool"),
    ("search", "find_symmetries", "search.find"),
    ("search", "find_linear_t_symmetries", "search.find"),
    ("search", "expr_in_span", "search.expr_in_span"),
]

# calls too frequent to keep a span for; they still get self times
NO_SPAN = {"total_d", "total_d_power"}

FLAT_FUNCTIONS = [
    ("kernel", "mul_terms", "expr.mul"),
    ("kernel", "add_into", "expr.add_into"),
    ("kernel", "mul_single", "expr.mul_single"),
    ("expr", "partial", "expr.partial"),
    ("expr", "to_source", "expr.to_source"),
    ("expr", "try_divide", "expr.try_divide"),
]


class Tracer:
    """Wrappers, spans and counters for one traced run."""

    def __init__(self, evosym_modules: dict) -> None:
        self.modules = evosym_modules
        self.div_step_cap = evosym_modules["expr"]._DIV_STEP_CAP
        self.calls = defaultdict(int)       # group -> calls
        self.self_ns = defaultdict(int)     # group -> self time
        self.total_ns = defaultdict(int)    # group -> inclusive time
        self.count = defaultdict(int)       # named deterministic counters
        self.max_terms = 0
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []        # [group, start, child_ns, id, name, stage]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, group in SPAN_FUNCTIONS:
            self._patch(mod_name, fn_name, self._span_wrapper(fn_name, group))
        for mod_name, fn_name, group in FLAT_FUNCTIONS:
            self._patch(mod_name, fn_name, self._flat_wrapper(fn_name, group))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _patch(self, mod_name: str, fn_name: str, make) -> None:
        original = getattr(self.modules[mod_name], fn_name)
        wrapper = make(original)
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "evosym"
                                         or name.startswith("evosym."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, original))

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn_name: str, group: str):
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        keep_span = fn_name not in NO_SPAN
        observe = getattr(self, f"_observe_{fn_name}", None)

        def make(original):
            def wrapper(*args, **kwargs):
                if observe is not None:
                    # keep the inspection out of the caller's self time
                    began = perf_counter_ns()
                    observe(args)
                    if stack:
                        stack[-1][2] += perf_counter_ns() - began
                span_id = self._next_id
                self._next_id += 1
                frame = [group, 0, 0, span_id, fn_name, False]
                stack.append(frame)
                frame[1] = start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    dur = end - start
                    calls[group] += 1
                    total_ns[group] += dur
                    self_ns[group] += dur - frame[2]
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += dur
                        if parent[0] == "search.find":
                            self._stage(parent, fn_name, dur)
                    if keep_span:
                        self.spans.append((span_id,
                                           parent[3] if parent else None,
                                           self.request, fn_name, start, end))
                self._result(fn_name, result)
                return result
            return wrapper
        return make

    def _flat_wrapper(self, fn_name: str, group: str):
        calls, total_ns, count = self.calls, self.total_ns, self.count

        def make(original):
            if fn_name == "mul_terms":
                def wrapper(a, b):
                    start = perf_counter_ns()
                    out = original(a, b)
                    total_ns[group] += perf_counter_ns() - start
                    calls[group] += 1
                    n = len(out)
                    count["expr.mul_terms_out"] += n
                    if not a or not b:
                        count["expr.mul_empty"] += 1
                    if n > self.max_terms:
                        self.max_terms = n
                    return out
            elif fn_name == "add_into":
                def wrapper(acc, terms, factor):
                    start = perf_counter_ns()
                    original(acc, terms, factor)
                    total_ns[group] += perf_counter_ns() - start
                    calls[group] += 1
                    if len(acc) > self.max_terms:
                        self.max_terms = len(acc)
            elif fn_name == "mul_single":
                def wrapper(terms, key, coeff):
                    calls[group] += 1
                    return original(terms, key, coeff)
            elif fn_name == "try_divide":
                def wrapper(a, b):
                    steps = calls["expr.mul_single"]
                    start = perf_counter_ns()
                    out = original(a, b)
                    total_ns[group] += perf_counter_ns() - start
                    calls[group] += 1
                    # try_divide makes one mul_single per division step and
                    # returns None both for "not divisible" and at its step
                    # cap; only the cap uses every step
                    if out is None and (calls["expr.mul_single"] - steps
                                        >= self.div_step_cap):
                        count["expr.try_divide_gave_up"] += 1
                    return out
            else:
                def wrapper(*args):
                    start = perf_counter_ns()
                    out = original(*args)
                    total_ns[group] += perf_counter_ns() - start
                    calls[group] += 1
                    return out
            return wrapper
        return make

    # -- what the spans see ----------------------------------------------------

    def _stage(self, parent: list, fn_name: str, dur: int) -> None:
        """Split a search call into stages by its direct children: pool
        build, bracket images (before the first elimination), elimination
        and the re-verification after it."""
        if fn_name in ("nullspace", "in_span", "rank"):
            parent[5] = True
        elif fn_name == "bracket" and not parent[5]:
            self.total_ns["search.images"] += dur
        elif fn_name in ("bracket", "is_symmetry"):
            self.total_ns["search.reverify"] += dur

    def _observe_nullspace(self, args) -> None:
        rows = args[0]
        as_scalar = self.modules["expr"].as_scalar
        cells = nonzeros = symbolic = 0
        for row in rows:
            cells += len(row)
            for e in row:
                if e:
                    nonzeros += 1
                    s = as_scalar(e)
                    if s is None or not s.is_rational:
                        symbolic += 1
        self.count["linalg.matrix_cells"] += cells
        self.count["linalg.matrix_nonzeros"] += nonzeros
        self.count["linalg.symbolic_entries"] += symbolic

    def _result(self, fn_name: str, result) -> None:
        if fn_name == "nullspace":
            self.count["linalg.rank"] += result.rank
            self.count["linalg.pivot_assumptions"] += len(
                result.pivot_assumptions)
        elif fn_name == "total_d":
            self.count["calculus.total_d_terms_out"] += len(result)
        elif fn_name == "ansatz_terms":
            self.count["search.pool_size"] += len(result)
        elif fn_name == "find_symmetries":
            self.count["search.basis_dim"] += len(result.basis)
        elif fn_name == "find_linear_t_symmetries":
            self.count["search.basis_dim"] += len(result.pairs)
