"""Tests of the benchmark itself: its known answers, confirmed by the sympy
oracle and never by evosym, a smoke run of every workload traced and
untraced, exact repetition of the traced counts, and the failure path.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog as cat  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

try:
    import sympy as sp
    import oracle
except ImportError:  # the oracle tests need sympy; the rest do not
    sp = oracle = None

needs_sympy = pytest.mark.skipif(oracle is None, reason="sympy is missing")


_order = workloads._order


def _opts(argv) -> dict:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--")}


# -- the catalogue -------------------------------------------------------------

@needs_sympy
@pytest.mark.parametrize("eq", cat.VERIFY_EQUATIONS, ids=lambda e: e.name)
def test_verify_catalogue(eq):
    F = oracle.to_sympy(eq.F, eq.constants)
    for src in eq.symmetries + eq.t_symmetries:
        assert oracle.is_symmetry(F, oracle.to_sympy(src, eq.constants)), src
    for src in eq.non_symmetries:
        N = oracle.to_sympy(src, eq.constants)
        assert not oracle.is_symmetry(F, N), src
        assert not oracle.is_zero(oracle.bracket(F, oracle.bracket(F, N))), src
    for g0, g1 in eq.pairs:
        G0 = oracle.to_sympy(g0, eq.constants)
        G1 = oracle.to_sympy(g1, eq.constants)
        assert not oracle.is_zero(G1)
        assert oracle.is_zero(oracle.bracket(F, G0) - G1), g0
        assert oracle.is_zero(oracle.bracket(F, G1)), g1


def _template(src: str, constants) -> str:
    return src.format(**{c: c for c in constants})


@needs_sympy
@pytest.mark.parametrize("case", cat.RATIONAL_SEARCHES + cat.SYMBOLIC_SEARCHES,
                         ids=lambda c: c.label)
def test_search_expectation(case):
    """The members are symmetries and span the symmetries of the ansatz:
    their number is the dimension of the solution space, computed at a
    random point of the constants (the generic dimension)."""
    F = oracle.to_sympy(_template(case.F, case.constants), case.constants)
    members = [oracle.to_sympy(_template(m, case.constants), case.constants)
               for m in case.members]
    for src, G in zip(case.members, members):
        assert oracle.is_symmetry(F, G), src
    point = oracle.generic_point(case.constants)
    n = _order(case.F)
    ansatz = oracle.pool(n, case.order, case.weight, case.t_degree,
                         case.x_degree)
    assert oracle.solution_dim(F.subs(point), ansatz) == len(members)
    assert oracle.rank([G.subs(point) for G in members]) == len(members)


@needs_sympy
@pytest.mark.parametrize("case", cat.LINEAR_T_SEARCHES, ids=lambda c: c.label)
def test_linear_t_expectation(case):
    """The listed G1 are independent symmetries in the image of the pool
    under {F, .}, as many as the pairs ``G0 + t*G1`` the pool admits:
    dim ker {F, {F, .}} - dim ker {F, .}."""
    F = oracle.to_sympy(case.F)
    ansatz = oracle.pool(_order(case.F), case.order, case.weight, 0, 1)
    first = [oracle.bracket(F, m) for m in ansatz]
    second = [oracle.bracket(F, g) for g in first]
    g1 = [oracle.to_sympy(s) for s in case.g1]
    assert oracle.rank(first) - oracle.rank(second) == len(g1)
    assert oracle.rank(g1) == len(g1)
    r = oracle.rank(first)
    for src, G in zip(case.g1, g1):
        assert oracle.is_zero(oracle.bracket(F, G)), src
        assert oracle.rank(first + [G]) == r, src


# -- the generated requests ------------------------------------------------------

def _confirm_verdict(req) -> None:
    argv = req.argv
    opts = _opts(argv)
    consts = req.constants
    code, kind, data = req.expect
    if argv[0] == "timedep":
        E = oracle.to_sympy(opts["--expression"], consts)
        spectrum = [(oracle.to_sympy(r, consts), m) for r, m in data]

        def annihilate(spec):
            e = E
            for lam, m in spec:
                for _ in range(m + 1):
                    e = sp.expand(sp.diff(e, oracle.T) - lam * e)
            return e

        assert oracle.is_zero(annihilate(spectrum))
        for i, (lam, m) in enumerate(spectrum):
            lower = spectrum[:i] + ([(lam, m - 1)] if m else []) \
                + spectrum[i + 1:]
            assert not oracle.is_zero(annihilate(lower)), (lam, m)
        return
    F = oracle.to_sympy(opts["--equation"], consts)
    if argv[0] in ("check", "determine"):
        symmetric = oracle.is_symmetry(F, oracle.to_sympy(
            opts["--candidate"], consts))
        assert symmetric == (data in ("SYMMETRY", "ALL ZERO"))
        assert code == (0 if symmetric else 1)
    elif argv[0] == "master":
        G1 = oracle.bracket(F, oracle.to_sympy(opts["--g0"], consts))
        if oracle.is_zero(G1):
            assert data.startswith("G1 = 0")
        elif oracle.is_zero(oracle.bracket(F, G1)):
            assert data == "mastersymmetry pair"
        else:
            assert data.startswith("no pair")
    elif argv[0] == "scaling":
        Q0 = oracle.to_sympy(opts["--q0"], consts)
        B = oracle.bracket(F, Q0)
        if kind == "lambda":
            assert oracle.is_zero(B - oracle.to_sympy(data, consts) * Q0)
        else:
            ratio = sp.simplify(B / Q0)
            assert ratio.free_symbols & ({oracle.X, oracle.T} | set(oracle.U))
    else:
        raise AssertionError(f"unexpected command {argv[0]}")


@needs_sympy
def test_verify_requests():
    """Every verdict the verify workload expects, for one seed."""
    for req in workloads.generate("verify", 0):
        _confirm_verdict(req)


@needs_sympy
@pytest.mark.parametrize("workload", ["search-rational", "search-symbolic"])
def test_search_requests(workload):
    """The rescaled or renamed members of one seed's requests are
    symmetries of the rescaled or renamed equations."""
    for req in workloads.generate(workload, 0):
        if req.kind == "linear_t":
            F = oracle.to_sympy(req.equation)
        else:
            F = oracle.to_sympy(_opts(req.argv)["--equation"], req.constants)
        for src in req.members:
            G = oracle.to_sympy(src, req.constants)
            assert oracle.is_symmetry(F, G), (req.label, src)


_COEFF = re.compile(r"\(?-?\d+/(?:7|13)\)?\*")


@pytest.mark.parametrize("workload", ["verify", "search-rational"])
def test_seed_moves_only_coefficients_and_order(workload):
    """Two seeds ask for the same requests up to coefficients and order,
    so that they ask for the same work."""
    def shapes(seed):
        return sorted((r.label, r.kind, r.equation,
                       tuple(_COEFF.sub("c*", a) for a in r.argv))
                      for r in workloads.generate(workload, seed))
    assert shapes(1) == shapes(2)
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


# -- the benchmark -----------------------------------------------------------------

def test_scaled_times():
    ref = speed.PIECE_NS
    result = run.PassResult([10, 20], [5, 5], [ref, 2 * ref], 0, 0)
    assert result.scaled(result.wall_ns) == pytest.approx([10, 10])


def test_meter_samples_long_calls():
    """The timer samples the speed during a call and keeps its own time."""
    with speed.Meter() as meter:
        meter.start()
        speed.pieces_ns(int(0.2 / speed.SAMPLE_S) * 200)
        sampled = meter.stop()
        ns_per_piece = meter.speed(sampled)
    assert sampled.pieces > 0 and 0 < sampled.wall_ns
    assert ns_per_piece > 0


def test_benchmark_json_matches_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.spec()


SMALL = {
    "verify": lambda prepared: prepared[:12],
    "search-rational": lambda prepared: [
        p for p in prepared
        if "o5w7" in p.request.label or "lin-t" in p.request.label],
    "search-symbolic": lambda prepared: [
        p for p in prepared
        if "o3w5" in p.request.label or "o5w7" in p.request.label],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke(workload, trace):
    out = run.run(workload, 1, 0.01, trace, SMALL[workload])
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert sorted(result["metrics"]) == sorted(n[0] for n in names)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        if workload == "verify":
            assert metrics["linalg.nullspace_calls"] == 0
        else:
            assert metrics["linalg.nullspace_calls"] > 0
        assert (HERE.parent / out["info"]["spans_file"]).is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


_COUNTS = """
import json, sys
sys.path.insert(0, {here!r})
import run, test_perfbench
out = run.run({workload!r}, 3, 0.01, True, test_perfbench.SMALL[{workload!r}])
print(json.dumps(out["result"]["metrics"]))
"""


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    """Two runs under two hash seeds give the same counts."""
    seen = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c",
             _COUNTS.format(here=str(HERE), workload=workload)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])
        seen.append({k: m["value"] for k, m in metrics.items()
                     if m["unit"] == "count"})
    assert seen[0] == seen[1]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
