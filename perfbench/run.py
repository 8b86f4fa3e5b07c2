#!/usr/bin/env python3
"""evosym's benchmark: time to verdict, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One client sends requests in a closed loop, in this process and thread:
each request starts when the previous one has returned.  A run repeats the
workload's fixed request list (one *pass*) for about ``--seconds``, in whole
passes.  Requests go through ``evosym.cli.main(argv)``, or through
``find_linear_t_symmetries``, which the CLI does not expose.  Every answer is
checked against the known answer in ``catalog.py`` after its request has
returned, outside the timed region.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
repeated fresh imports and set-ups), and the latency, rate and CPU time of
the requests, each request taken at its median pass.  Every timing is
scaled to a fixed machine speed, measured by reference work run on either
side of it and sampled during it (see ``speed.py``); the printed lines
also give the unscaled figures.  Each request and set-up starts from a
collected heap.  ``--trace 1`` spends half the time on untraced passes and
half on traced ones, and reports the per-layer metrics per pass (unscaled,
and including the speed samples, about 1% of the time), plus the tracing
overhead (traced minus untraced request time per pass, scaled); it also
writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and sample count, the run's
``failed_share`` and ``wrong_answers``, evosym's kernel backend, the Python
version, the CPU count and the seed.  Results from different backends are
not comparable.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name, unit, better, bound (the share by which the parent's median may
# worsen before a change counts as a regression).  The timings get the
# largest bound allowed: scaled to a fixed speed, whole runs of unchanged
# code on a machine whose cores are shared still differ by a few percent.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_request", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, the group or counter it is read from.  Values are per pass.
PER_LAYER = [
    ("parser.parse_calls", "count", ("calls", "parser.parse")),
    ("parser.parse_ms", "ms", ("total", "parser.parse")),
    ("cli.self_ms", "ms", ("self", "cli.main")),
    ("expr.mul_calls", "count", ("calls", "expr.mul")),
    ("expr.mul_terms_out", "count", ("count", "expr.mul_terms_out")),
    ("expr.mul_empty_share", "ratio", None),
    ("expr.mul_ms", "ms", ("total", "expr.mul")),
    ("expr.add_into_calls", "count", ("calls", "expr.add_into")),
    ("expr.add_into_ms", "ms", ("total", "expr.add_into")),
    ("expr.partial_calls", "count", ("calls", "expr.partial")),
    ("expr.partial_ms", "ms", ("total", "expr.partial")),
    ("expr.to_source_ms", "ms", ("total", "expr.to_source")),
    ("expr.try_divide_calls", "count", ("calls", "expr.try_divide")),
    ("expr.try_divide_ms", "ms", ("total", "expr.try_divide")),
    ("expr.try_divide_gave_up", "count", ("count", "expr.try_divide_gave_up")),
    ("expr.max_terms", "count", None),
    ("calculus.total_d_calls", "count", ("calls", "calculus.total_d")),
    ("calculus.total_d_terms_out", "count",
     ("count", "calculus.total_d_terms_out")),
    ("calculus.total_d_self_ms", "ms", ("self", "calculus.total_d")),
    ("calculus.operator_self_ms", "ms", ("self", "calculus.operator")),
    ("symmetry.bracket_calls", "count", ("calls", "symmetry.bracket")),
    ("symmetry.bracket_self_ms", "ms", ("self", "symmetry.bracket")),
    ("symmetry.is_symmetry_self_ms", "ms", ("self", "symmetry.is_symmetry")),
    ("symmetry.classify_self_ms", "ms", ("self", "symmetry.classify")),
    ("symmetry.determining_system_self_ms", "ms",
     ("self", "symmetry.determining_system")),
    ("symmetry.structure_self_ms", "ms", ("self", "symmetry.structure")),
    ("timedep.calls", "count", ("calls", "timedep")),
    ("timedep.self_ms", "ms", ("self", "timedep")),
    ("linalg.nullspace_calls", "count", ("calls", "linalg.nullspace")),
    ("linalg.nullspace_self_ms", "ms", ("self", "linalg.nullspace")),
    ("linalg.nullspace_share", "ratio", None),
    ("linalg.matrix_cells", "count", ("count", "linalg.matrix_cells")),
    ("linalg.matrix_nonzeros", "count", ("count", "linalg.matrix_nonzeros")),
    ("linalg.symbolic_entries", "count", ("count", "linalg.symbolic_entries")),
    ("linalg.rank", "count", ("count", "linalg.rank")),
    ("linalg.pivot_assumptions", "count",
     ("count", "linalg.pivot_assumptions")),
    ("linalg.in_span_calls", "count", ("calls", "linalg.in_span")),
    ("linalg.in_span_ms", "ms", ("total", "linalg.in_span")),
    ("search.pool_size", "count", ("count", "search.pool_size")),
    ("search.pool_ms", "ms", ("total", "search.pool")),
    ("search.images_ms", "ms", ("total", "search.images")),
    ("search.system_self_ms", "ms", ("self", "search.find")),
    ("search.reverify_ms", "ms", ("total", "search.reverify")),
    ("search.basis_dim", "count", ("count", "search.basis_dim")),
    ("trace.request_ms", "ms", None),
    ("trace.overhead_ms", "ms", None),
]

RUN_SECONDS = 30
# set-up is repeated, each time with a fresh import, and its median reported
SETUP_REPEATS = 31
OUT_DIR = HERE / "out"


class SetupError(RuntimeError):
    pass


def load_evosym():
    """Import evosym afresh from the checkout's ``src/``; returns the
    package and its modules by name."""
    if not (SRC / "evosym" / "__init__.py").is_file():
        raise SetupError(f"evosym sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "evosym" or n.startswith("evosym.")]:
        del sys.modules[name]
    import evosym
    modules = {name: importlib.import_module(f"evosym.{name}")
               for name in ("cli", "parser", "expr", "calculus", "symmetry",
                            "timedep", "linalg", "search")}
    if Path(evosym.__file__).resolve().parent != SRC / "evosym":
        raise SetupError(f"imported evosym from {evosym.__file__}, "
                         f"not from {SRC}")
    modules["kernel"] = modules["expr"].kernel
    return evosym, modules


# -- set-up: requests and their parsed answers ----------------------------------

@dataclass
class Prepared:
    request: object
    equation: object = None    # classified equation of a library request
    expected: object = None    # parsed known answer


def prepare(workload: str, seed: int, evosym) -> list[Prepared]:
    """Generate the request list and parse/classify the catalogue entries
    it needs; this is the timed part of set-up after the import."""
    import workloads
    parse = evosym.parse
    out = []
    for req in workloads.generate(workload, seed):
        prep = Prepared(req)
        if req.kind == "linear_t":
            prep.equation = evosym.classify(parse(req.equation))
        if req.kind in ("find", "linear_t"):
            prep.expected = [parse(m, req.constants) for m in req.members]
        elif req.expect[1] == "lambda":
            prep.expected = parse(req.expect[2], req.constants)
        elif req.expect[1] == "time":
            prep.expected = {parse(rate, req.constants): deg
                             for rate, deg in req.expect[2]}
        out.append(prep)
    return out


# -- requests --------------------------------------------------------------------

def execute(prep: Prepared, evosym, modules):
    """Send one request; returns ``(exit code, output)``."""
    req = prep.request
    if req.kind == "linear_t":
        cfg = evosym.AnsatzConfig(**req.config)
        return 0, evosym.find_linear_t_symmetries(prep.equation, cfg)
    buf = io.StringIO()
    code = modules["cli"].main(list(req.argv), out=buf)
    return code, buf.getvalue()


def _time_spectrum(verdict: str, constants, parse) -> dict:
    if verdict == "time-independent":
        return {parse("0"): 0}
    if verdict.startswith("polynomial in t, degree "):
        return {parse("0"): int(verdict.rsplit(" ", 1)[1])}
    body = verdict.split(": ", 1)[1]
    out = {}
    for part in body[1:-1].split("), ("):
        rate, deg = part.split(", degree ")
        out[parse(rate.removeprefix("lambda = "), constants)] = int(deg)
    return out


def is_correct(prep: Prepared, code: int, output, evosym) -> bool:
    """Compare a request's answer with the known one."""
    req = prep.request
    if req.kind == "linear_t":
        g1 = [pair.G1 for pair in output.pairs]
        return (len(g1) == len(prep.expected)
                and all(evosym.expr_in_span(m, g1) for m in prep.expected))
    if req.kind == "find":
        basis = [evosym.parse(line[4:], req.constants)
                 for line in output.splitlines() if line.startswith("G = ")]
        return (code == 0 and len(basis) == len(prep.expected)
                and all(evosym.expr_in_span(m, basis) for m in prep.expected))
    want_code, kind, data = req.expect
    verdict = json.loads(output)["verdict"]
    if code != want_code:
        return False
    if kind == "exact":
        return verdict == data
    if kind == "lambda":
        return (verdict.startswith("lambda = ") and
                evosym.parse(verdict[9:], req.constants) == prep.expected)
    return _time_spectrum(verdict, req.constants, evosym.parse) == prep.expected


@dataclass
class PassResult:
    wall_ns: list
    cpu_ns: list
    piece_ns: list    # the speed each request ran at, in ns per piece
    failed: int
    wrong: int

    def scaled(self, times: list) -> list:
        """Each request's time at the reference speed (``speed.PIECE_NS``
        per piece)."""
        return [t * speed.PIECE_NS / s for t, s in zip(times, self.piece_ns)]


def run_pass(prepared, evosym, modules, tracer=None) -> PassResult:
    """One pass over the request list; answers are checked after the pass,
    with the tracer removed."""
    wall, cpu, speeds, answers = [], [], [], []
    failed = 0
    if tracer is not None:
        tracer.install()
    try:
        with speed.Meter() as meter:
            for i, prep in enumerate(prepared):
                if tracer is not None:
                    tracer.request = i
                # each request starts from a collected heap, as in a fresh
                # process, so that which request pays for a collection
                # does not vary from pass to pass
                gc.collect()
                meter.start()
                c0 = time.process_time_ns()
                t0 = time.perf_counter_ns()
                try:
                    code, output = execute(prep, evosym, modules)
                except Exception:
                    # a request that raises is a failure; the run goes on
                    traceback.print_exc(file=sys.stderr)
                    code, output = None, None
                t1 = time.perf_counter_ns()
                c1 = time.process_time_ns()
                sampled = meter.stop()
                wall.append(t1 - t0 - sampled.wall_ns)
                cpu.append(c1 - c0 - sampled.cpu_ns)
                speeds.append(meter.speed(sampled))
                answers.append((code, output))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wrong = 0
    for prep, (code, output) in zip(prepared, answers):
        if code not in (0, 1):
            # an exception, or an exit code that is not a verdict
            failed += 1
            continue
        try:
            ok = is_correct(prep, code, output, evosym)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"wrong answer: {prep.request.label}: "
                  f"{list(prep.request.argv)}", file=sys.stderr)
            wrong += 1
    return PassResult(wall, cpu, speeds, failed, wrong)


def run_passes(prepared, evosym, modules, seconds: float, tracer=None):
    """Whole passes until another one would end more than half a pass
    after ``seconds``; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(prepared, evosym, modules, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 >= seconds:
            return results


# -- metrics -----------------------------------------------------------------------

def end_to_end(results: list[PassResult], setup_s: float,
               scale: bool = True) -> dict:
    """Latencies and rates from each request's median pass, scaled to the
    reference speed (unscaled with ``scale=False``).

    Every pass repeats the same requests, so each request's median over
    the passes measures the program; the median and 90th percentile are
    then taken over the requests of the list.
    """
    if scale:
        wall = _per_request(r.scaled(r.wall_ns) for r in results)
        cpu = _per_request(r.scaled(r.cpu_ns) for r in results)
    else:
        wall = _per_request(r.wall_ns for r in results)
        cpu = _per_request(r.cpu_ns for r in results)
    deciles = statistics.quantiles(wall, n=10) if len(wall) > 1 else wall * 9
    return {
        "setup_s": setup_s,
        "requests_per_s": len(wall) / (sum(wall) / 1e9),
        "request_p50_ms": statistics.median(wall) / 1e6,
        "request_p90_ms": deciles[8] / 1e6,
        "cpu_ms_per_request": sum(cpu) / len(cpu) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _per_request(per_pass) -> list:
    """Each request's median time over the passes."""
    return [statistics.median(times) for times in zip(*per_pass)]


def per_layer(tracer, traced: list[PassResult],
              untraced: list[PassResult]) -> dict:
    passes = len(traced)
    request_ns = sum(sum(r.wall_ns) for r in traced) / passes
    sources = {"calls": tracer.calls, "total": tracer.total_ns,
               "self": tracer.self_ns, "count": tracer.count}
    out = {}
    for name, unit, source in PER_LAYER:
        if source is None:
            continue
        kind, key = source
        value = sources[kind][key] / passes
        out[name] = value / 1e6 if unit == "ms" else value
    mul_calls = tracer.calls["expr.mul"]
    out["expr.mul_empty_share"] = (tracer.count["expr.mul_empty"] / mul_calls
                                   if mul_calls else 0.0)
    out["expr.max_terms"] = tracer.max_terms
    out["linalg.nullspace_share"] = (
        tracer.self_ns["linalg.nullspace"] / passes / request_ns)
    out["trace.request_ms"] = request_ns / 1e6
    # per pass, each request at its median pass and scaled, as in end_to_end
    out["trace.overhead_ms"] = (
        sum(_per_request(r.scaled(r.wall_ns) for r in traced))
        - sum(_per_request(r.scaled(r.wall_ns) for r in untraced))) / 1e6
    return out


def write_spans(tracer, workload: str, seed: int, info: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(info) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("id", "parent", "request", "name", "start_ns", "end_ns"),
                span))) + "\n")
    return path


# -- entry point -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        prepared_filter=None) -> dict:
    """One benchmark run; returns the result object that is printed.
    ``prepared_filter`` narrows the request list (used by the smoke test)."""
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    setups, raw_setups = [], []
    with speed.Meter() as meter:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            meter.start()
            start = time.perf_counter_ns()
            evosym, modules = load_evosym()
            prepared = prepare(workload, seed, evosym)
            elapsed = time.perf_counter_ns() - start
            sampled = meter.stop()
            raw_setups.append((elapsed - sampled.wall_ns) / 1e9)
            setups.append(raw_setups[-1] * speed.PIECE_NS
                          / meter.speed(sampled))
    setup_s = statistics.median(setups)
    if prepared_filter is not None:
        prepared = prepared_filter(prepared)

    info = {"workload": workload, "seed": seed, "backend": evosym.BACKEND,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "requests_per_pass": len(prepared), "trace": trace}
    if trace:
        from tracer import Tracer
        untraced = run_passes(prepared, evosym, modules, seconds / 2)
        tracer = Tracer(modules)
        results = run_passes(prepared, evosym, modules, seconds / 2, tracer)
        metrics = per_layer(tracer, results, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        info["spans_file"] = str(write_spans(tracer, workload, seed, info)
                                 .relative_to(HERE.parent))
        results = untraced + results
    else:
        results = run_passes(prepared, evosym, modules, seconds)
        metrics = end_to_end(results, setup_s)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        info["unscaled"] = {
            name: round(value, 6) for name, value in
            end_to_end(results, statistics.median(raw_setups), False).items()
            if name != "peak_rss_mb"}
    info["piece_us"] = statistics.median(
        s for r in results for s in r.piece_ns) / 1e3

    attempted = sum(len(r.wall_ns) for r in results)
    failed = sum(r.failed for r in results)
    wrong = sum(r.wrong for r in results)
    info.update(passes=len(results), samples=attempted,
                failed_share=failed / attempted, wrong_answers=wrong)
    if trace:
        samples = {name: f"per pass, mean of {len(results) - len(untraced)} "
                         "traced passes" for name in metrics}
    else:
        per_request = (f"{len(prepared)} requests, each the median of "
                       f"{len(results)} passes, scaled")
        samples = {name: per_request for name in metrics}
        samples["setup_s"] = f"median of {SETUP_REPEATS} set-ups, scaled"
        samples["peak_rss_mb"] = "whole process"
    return {"info": info, "samples": samples,
            "result": {"correct": wrong == 0 and failed == 0,
                       "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": units[name]}
                                   for name, value in metrics.items()}}}


def spec() -> dict:
    """The ``BENCHMARK.json`` this benchmark implements."""
    import workloads
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u, _ in PER_LAYER],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    info, result = out["info"], out["result"]
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']} ({out['samples'][name]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
