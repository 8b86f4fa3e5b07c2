"""Every request of the benchmark's three workloads (``perfbench/
workloads.py``) at seeds 7 and 99 answers exactly as recorded in
``tests/data/bench_requests.txt``: a ``find`` or verdict request by its exit
code and its CLI output, a ``linear_t`` request by each pair's ``(G0, G1,
mu)``, the pool size and the assumptions.  A change to the arithmetic that
reorders no term leaves every answer byte-identical.

To record the file again after an intended change of output::

    PYTHONPATH=src python tests/test_bench_requests.py > tests/data/bench_requests.txt
"""

import contextlib
import importlib.util
import io
import shlex
import sys
from pathlib import Path

from evosym import AnsatzConfig, classify, cli, find_linear_t_symmetries, parse

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "bench_requests.txt"
SEEDS = (7, 99)


def _load(name: str):
    """A module of ``perfbench/`` imported by path; it is registered under
    its name, since ``workloads`` imports ``catalog`` by name."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


catalog = _load("catalog")
workloads = _load("workloads")


def _answer(req) -> list[str]:
    """The lines that record one request's answer."""
    if req.kind == "linear_t":
        res = find_linear_t_symmetries(classify(parse(req.equation)),
                                       AnsatzConfig(**req.config))
        lines = [f"linear_t {req.equation} {sorted(req.config.items())}",
                 f"pool {res.pool_size}"]
        for pair in res.pairs:
            lines += [f"G0 = {pair.G0}", f"G1 = {pair.G1}",
                      f"mu = {pair.mu}"]
        lines += [f"assume {a} != 0" for a in res.pivot_assumptions]
        return lines
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(req.argv), out=out)
    return ([f"$ evosym {shlex.join(req.argv)}", f"exit {code}"]
            + out.getvalue().splitlines()
            + [f"stderr: {line}" for line in err.getvalue().splitlines()])


def render() -> str:
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            lines.append(f"== {workload} seed {seed}")
            for req in workloads.generate(workload, seed):
                lines.append(f"-- {req.label}")
                lines += _answer(req)
    return "\n".join(lines) + "\n"


def test_the_workloads_cover_the_catalogue():
    assert catalog.RATIONAL_SEARCHES and catalog.SYMBOLIC_SEARCHES
    kinds = {req.kind for w in workloads.WORKLOADS
             for req in workloads.generate(w, SEEDS[0])}
    assert kinds == {"verdict", "find", "linear_t"}


def test_every_benchmark_request_answers_as_recorded():
    got, want = render().splitlines(), GOLDEN.read_text().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {i}"


if __name__ == "__main__":
    sys.stdout.write(render())
