"""Command-line frontend.

Subcommands: ``check``, ``classify``, ``determine``, ``timedep``,
``scaling``, ``master``, ``find`` and ``corpus run``.  Every command emits
either human-readable text or a JSON report with the fields
``{entry, command, verdict, order, flags, time_class, residual}``.

Exit codes: 0 all expectations met, 1 a verdict mismatch, 2 usage, parse
or input errors (including input nested too deeply to evaluate), 3 an
internal error (a failed self-check or any other unexpected exception).
Codes 2 and 3 are never verdicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import dataclass

from . import expr as ex
from .parser import ParseError, parse
from .search import AnsatzConfig, PoolLimitError, expr_in_span, find_symmetries
from .symmetry import (EvolutionEquation, SelfCheckError, classify,
                       determining_system, is_symmetry,
                       leading_coefficient_check, representation_decompose,
                       descent_leading_coeff_check, x_descent)
from .timedep import (POLYNOMIAL, TIME_INDEPENDENT, annihilator,
                      classify_time, mastersymmetry_test,
                      predict_time_dependence, probe_time_shapes,
                      scaling_test)

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "entry": {"type": ["string", "null"]},
        "command": {"type": "string"},
        "verdict": {"type": "string"},
        "order": {"type": ["integer", "null"]},
        "flags": {
            "type": ["object", "null"],
            "properties": {
                "constant_separant": {"type": "boolean"},
                "kdv_like": {"type": "boolean"},
                "time_independent": {"type": "boolean"},
                "deriv_depth": {"type": "integer"},
            },
        },
        "time_class": {"type": ["string", "null"]},
        "residual": {"type": ["string", "null"]},
    },
    "required": ["entry", "command", "verdict", "order", "flags",
                 "time_class", "residual"],
    "additionalProperties": False,
}


def _report(command, verdict, order=None, flags=None, time_class=None,
            residual=None, entry=None):
    return {"entry": entry, "command": command, "verdict": verdict,
            "order": order, "flags": flags, "time_class": time_class,
            "residual": residual}


def _flags(eq: EvolutionEquation) -> dict:
    return {"constant_separant": eq.constant_separant,
            "kdv_like": eq.kdv_like,
            "time_independent": eq.time_independent,
            "deriv_depth": eq.deriv_depth}


def _emit(report: dict, lines: list[str], fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for line in lines:
            print(line, file=out)


def _compact_time(cls) -> str:
    if cls.kind == TIME_INDEPENDENT:
        return "independent"
    if cls.kind == POLYNOMIAL:
        return f"polynomial {cls.degree}"
    return "quasipolynomial"


# -- subcommand handlers -----------------------------------------------------

def _structure(eq, rep):
    """The structure checks of a verified symmetry: the leading coefficient
    (order >= 2; ``None`` below), the x-power decomposition (``None`` with
    x inside an exponential), the x-descent and, where it applies, the
    descended-leading-coefficient bound.  A failed check is a bug: it
    raises ``SelfCheckError`` naming the candidate in source form, which
    exits 3 and never as a verdict."""
    try:
        lead = dec = None
        if rep.order is not None and rep.order >= 2:
            lead = leading_coefficient_check(eq, rep)
            if not lead.ok and not lead.inconclusive:
                raise SelfCheckError(f"leading coefficient: {lead.detail}")
        if not ex.has_exp_in(rep.candidate, ex.GEN_X):
            dec = representation_decompose(eq, rep)
        trace = x_descent(eq, rep)
        # the descended-leading-coefficient bound is degenerate for n = 2
        if (eq.constant_separant and eq.time_independent and eq.n >= 3
                and rep.order is not None and rep.order > eq.n - 1):
            v = descent_leading_coeff_check(eq, rep)
            if not v.ok:
                raise SelfCheckError(v.detail)
    except SelfCheckError as err:
        raise SelfCheckError(f"structure check failed for "
                             f"{ex.to_source(rep.candidate)}: {err}") from err
    return lead, dec, trace


def _cmd_check(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    G = parse(args.candidate, args.constants)
    rep = is_symmetry(eq, G)
    cls = classify_time(G)
    verdict = "SYMMETRY" if rep.is_symmetry else "NOT A SYMMETRY"
    lines = [f"verdict: {verdict}",
             f"order: {rep.order}",
             f"time dependence: {cls}"]
    if rep.is_symmetry:
        lead, dec, trace = _structure(eq, rep)
        if lead is not None:
            lines.append(f"leading coefficient: "
                         f"{'ok' if lead.ok else 'inconclusive'} "
                         f"({lead.detail})")
        if dec is None:
            lines.append("x-power decomposition: skipped "
                         "(x inside an exponential)")
        else:
            lines.append(f"x-power decomposition: s = {dec.s}, "
                         f"psi = {dec.psi}")
        lines.append(f"x-descent: {len(trace.steps) - 1} step(s)"
                     + (f" ({trace.note})" if trace.note else ""))
    report = _report("check", verdict, order=rep.order, flags=_flags(eq),
                     time_class=str(cls),
                     residual=None if rep.is_symmetry else str(rep.residual))
    if not rep.is_symmetry:
        lines.append(f"residual: {rep.residual}")
    _emit(report, lines, args.format, out)
    return 0 if rep.is_symmetry else 1


def _cmd_classify(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    verdict = (f"constant separant: {'yes' if eq.constant_separant else 'no'}; "
               f"KdV-like: {'yes' if eq.kdv_like else 'no'}")
    lines = [verdict,
             f"order: {eq.n}",
             f"separant: {eq.separant}",
             f"time independent: {'yes' if eq.time_independent else 'no'}",
             f"t-only derivative depth: {eq.deriv_depth}"]
    report = _report("classify", verdict, order=eq.n, flags=_flags(eq))
    _emit(report, lines, args.format, out)
    return 0


def _cmd_determine(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    G = parse(args.candidate, args.constants)
    system = determining_system(eq, G)
    verdict = "ALL ZERO" if system.all_zero else "NONZERO"
    lines = [f"verdict: {verdict}",
             f"levels: {len(system.equations)} (l = 0..{eq.n + system.k - 1})"]
    for l, e in enumerate(system.equations):
        lines.append(f"E_{l} = {e}")
    lines.append(f"closure = {system.closure}")
    residual = None if system.all_zero else str(system.closure)
    report = _report("determine", verdict, order=system.k, flags=_flags(eq),
                     residual=residual)
    _emit(report, lines, args.format, out)
    return 0 if system.all_zero else 1


def _cmd_timedep(args, out) -> int:
    G = parse(args.expression, args.constants)
    cls = classify_time(G)
    om = annihilator(G)
    verdict = str(cls)
    lines = [f"time dependence: {cls}", f"annihilator: {om}"]
    report = _report("timedep", verdict, time_class=str(cls))
    _emit(report, lines, args.format, out)
    return 0


def _cmd_scaling(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    Q0 = parse(args.q0, args.constants)
    res = scaling_test(eq, Q0)
    if res.found:
        verdict = f"lambda = {res.lam}"
        lines = [f"verdict: {verdict}",
                 f"certified: exp(({res.lam})*t) * Q0 has zero residual"
                 if res.lam and not res.lam.is_zero else
                 "degenerate: lambda = 0, Q0 itself is a symmetry"]
    else:
        verdict = "none"
        lines = [f"verdict: {verdict}",
                 "no scaling relation: {F, Q0} is not proportional to Q0"]
    report = _report("scaling", verdict, flags=_flags(eq))
    _emit(report, lines, args.format, out)
    return 0 if res.found else 1


def _cmd_master(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    G0 = parse(args.g0, args.constants)
    res = mastersymmetry_test(eq, G0)
    if res.generates:
        verdict = "mastersymmetry pair"
    elif res.G1.is_zero:
        verdict = "G1 = 0: no time-dependent symmetry generated"
    else:
        verdict = "no pair: {F, G1} != 0"
    lines = [f"verdict: {verdict}", f"G1 = {res.G1}"]
    if res.mu is not None:
        lines.append(f"G1 = mu * F with mu = {res.mu}")
    if res.certified is not None:
        lines.append("certified: G0 + t*G1 has zero residual")
    report = _report("master", verdict)
    _emit(report, lines, args.format, out)
    return 0 if res.generates else 1


def _cmd_find(args, out) -> int:
    eq = classify(parse(args.equation, args.constants))
    rate = parse(args.exp_rate, args.constants) if args.exp_rate else None
    cfg = AnsatzConfig(order=args.order, weight_max=args.weight,
                       t_degree_max=args.t_degree,
                       x_degree_max=args.x_degree,
                       base_weight=args.base_weight,
                       exp_rate=rate, max_pool=args.max_pool)
    res = find_symmetries(eq, cfg)
    verdict = f"basis of dimension {len(res.basis)}"
    lines = [verdict, f"pool size: {res.pool_size}"]
    lines += [f"G = {g}" for g in res.basis]
    if res.pivot_assumptions:
        lines.append("generic-parameter assumptions: "
                     + ", ".join(f"{p} != 0" for p in res.pivot_assumptions))
    report = _report("find", verdict, order=args.order, flags=_flags(eq))
    _emit(report, lines, args.format, out)
    return 0 if res.basis else 1


# -- corpus ------------------------------------------------------------------

@dataclass
class CorpusEntry:
    name: str
    equation: str
    constants: tuple[str, ...] = ()
    expect_constant_separant: bool | None = None
    expect_kdv_like: bool | None = None
    symmetries: tuple[tuple[str, str | None], ...] = ()
    non_symmetries: tuple[str, ...] = ()
    basis: tuple[str, ...] = ()
    predict: str | None = None
    finds: tuple[dict, ...] = ()


class CorpusFormatError(ValueError):
    pass


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    raise CorpusFormatError(f"{where}: expected yes/no, got {value!r}")


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries: list[dict] = []
    cur: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[entry]":
            cur = {"symmetries": [], "non_symmetries": [], "finds": []}
            entries.append(cur)
            continue
        if cur is None:
            raise CorpusFormatError(f"line {lineno}: content before [entry]")
        if "=" not in line:
            raise CorpusFormatError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "name":
            cur["name"] = value
        elif key == "equation":
            cur["equation"] = value
        elif key == "constants":
            cur["constants"] = tuple(
                c.strip() for c in value.split(",") if c.strip())
        elif key == "constant_separant":
            cur["expect_constant_separant"] = _parse_bool(value, f"line {lineno}")
        elif key == "kdv_like":
            cur["expect_kdv_like"] = _parse_bool(value, f"line {lineno}")
        elif key == "symmetry":
            source, _, time_part = value.partition(";")
            expect_time = None
            if time_part:
                tkey, _, tval = time_part.partition("=")
                if tkey.strip() != "time":
                    raise CorpusFormatError(
                        f"line {lineno}: unknown symmetry attribute")
                expect_time = tval.strip()
            cur["symmetries"].append((source.strip(), expect_time))
        elif key == "not_symmetry":
            cur["non_symmetries"].append(value)
        elif key == "basis":
            cur["basis"] = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "predict":
            cur["predict"] = value
        elif key == "find":
            spec: dict = {}
            head, _, contains = value.partition("contains=")
            for part in head.split():
                k, _, v = part.partition("=")
                if k not in ("order", "weight", "t_degree", "x_degree"):
                    raise CorpusFormatError(
                        f"line {lineno}: unknown find parameter {k!r}")
                spec[k] = int(v)
            if "order" not in spec or "weight" not in spec:
                raise CorpusFormatError(
                    f"line {lineno}: find needs order= and weight=")
            if spec["order"] < 0:
                raise CorpusFormatError(
                    f"line {lineno}: find order must be >= 0")
            if contains.strip():
                spec["contains"] = contains.strip()
            cur["finds"].append(spec)
        else:
            raise CorpusFormatError(f"line {lineno}: unknown key {key!r}")
    out = []
    for raw_entry in entries:
        raw_entry["symmetries"] = tuple(raw_entry["symmetries"])
        raw_entry["non_symmetries"] = tuple(raw_entry["non_symmetries"])
        raw_entry["finds"] = tuple(raw_entry["finds"])
        if "name" not in raw_entry or "equation" not in raw_entry:
            raise CorpusFormatError("every entry needs name and equation")
        out.append(CorpusEntry(**raw_entry))
    return out


def _time_matches(cls, expected: str) -> bool:
    expected = expected.strip()
    compact = _compact_time(cls)
    if expected == compact:
        return True
    # allow "polynomial" without a degree
    return expected == cls.kind


def run_corpus_entry(entry: CorpusEntry) -> tuple[list[str], list[str]]:
    """Evaluate one entry; returns (log lines, mismatch descriptions)."""
    lines: list[str] = []
    problems: list[str] = []
    eq = classify(parse(entry.equation, entry.constants))
    if entry.expect_constant_separant is not None and \
            eq.constant_separant != entry.expect_constant_separant:
        problems.append("constant-separant flag mismatch")
    if entry.expect_kdv_like is not None and \
            eq.kdv_like != entry.expect_kdv_like:
        problems.append("KdV-like flag mismatch")
    lines.append(f"equation order {eq.n}; constant separant: "
                 f"{eq.constant_separant}; KdV-like: {eq.kdv_like}")

    verified: list = []
    for source, expect_time in entry.symmetries:
        G = parse(source, entry.constants)
        rep = is_symmetry(eq, G)
        if not rep.is_symmetry:
            problems.append(f"expected symmetry failed: {source}")
            continue
        verified.append(G)
        cls = classify_time(G)
        lines.append(f"symmetry ok: {source} (order {rep.order}, {cls})")
        if expect_time is not None and not _time_matches(cls, expect_time):
            problems.append(f"time class mismatch for {source}: "
                            f"got {_compact_time(cls)}, want {expect_time}")
        dec = _structure(eq, rep)[1]
        lines.append("  structure ok"
                     + ("" if dec is None else f" (s = {dec.s})"))
    if verified:
        lines.append(f"time-shape probe: {probe_time_shapes(eq, verified)} "
                     f"({len(verified)} verified symmetries)")

    for source in entry.non_symmetries:
        G = parse(source, entry.constants)
        rep = is_symmetry(eq, G)
        if rep.is_symmetry:
            problems.append(f"expected non-symmetry verified: {source}")
        else:
            lines.append(f"non-symmetry confirmed: {source}")

    if entry.predict is not None:
        basis_src = entry.basis or tuple(s for s, _ in entry.symmetries)
        basis = [parse(s, entry.constants) for s in basis_src]
        pred = predict_time_dependence(eq, basis, corollary_mode=eq.kdv_like)
        got = pred.prediction
        lines.append(f"prediction: {got} (basis of {len(basis)}, "
                     f"orders <= {pred.basis_order_cap})")
        if got != entry.predict:
            problems.append(f"prediction mismatch: got {got}, "
                            f"want {entry.predict}")

    for spec in entry.finds:
        cfg = AnsatzConfig(order=spec["order"], weight_max=spec["weight"],
                           t_degree_max=spec.get("t_degree", 0),
                           x_degree_max=spec.get("x_degree", 0))
        res = find_symmetries(eq, cfg)
        lines.append(f"find order={spec['order']}: basis of {len(res.basis)}")
        if "contains" in spec:
            target = parse(spec["contains"], entry.constants)
            if not expr_in_span(target, list(res.basis)):
                problems.append(
                    f"find result does not span {spec['contains']}")
    return lines, problems


def _cmd_corpus(args, out) -> int:
    with open(args.path, encoding="utf-8") as fh:
        entries = parse_corpus(fh.read())
    entries.sort(key=lambda e: e.name)
    any_problem = False
    reports = []
    for entry in entries:
        lines, problems = run_corpus_entry(entry)
        verdict = "ok" if not problems else "mismatch"
        any_problem = any_problem or bool(problems)
        if args.format == "json":
            reports.append(_report("corpus", verdict, entry=entry.name))
        else:
            print(f"[{entry.name}] {verdict}", file=out)
            for line in lines:
                print(f"  {line}", file=out)
            for p in problems:
                print(f"  MISMATCH: {p}", file=out)
    if args.format == "json":
        print(json.dumps(reports, indent=2, sort_keys=True), file=out)
    return 1 if any_problem else 0


# -- argument plumbing ---------------------------------------------------------

def _const_list(value: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in value.split(",") if c.strip())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after
    it: building costs far more than a request's parse (each argument makes
    a help formatter, which reads the terminal size), and ``parse_args``
    does not mutate the parser."""
    top = argparse.ArgumentParser(
        prog="evosym",
        description="Symmetry calculus for scalar evolution equations "
                    "u_t = F(t, u, u_1, ..., u_n).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--const", dest="constants", type=_const_list,
                       default=(), metavar="a,b,...",
                       help="declare named constants")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="verify a candidate symmetry")
    p.add_argument("--equation", required=True)
    p.add_argument("--candidate", required=True)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="classify an equation")
    p.add_argument("--equation", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("determine", help="print the determining system")
    p.add_argument("--equation", required=True)
    p.add_argument("--candidate", required=True)
    common(p)
    p.set_defaults(func=_cmd_determine)

    p = sub.add_parser("timedep", help="classify time dependence")
    p.add_argument("--expression", required=True)
    common(p)
    p.set_defaults(func=_cmd_timedep)

    p = sub.add_parser("scaling", help="test {F, Q0} = lambda * Q0")
    p.add_argument("--equation", required=True)
    p.add_argument("--q0", required=True)
    common(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("master", help="test {F, G0} = G1, {F, G1} = 0")
    p.add_argument("--equation", required=True)
    p.add_argument("--g0", required=True)
    common(p)
    p.set_defaults(func=_cmd_master)

    p = sub.add_parser("find", help="finite-ansatz symmetry search")
    p.add_argument("--equation", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--t-degree", type=int, default=0)
    p.add_argument("--x-degree", type=int, default=0)
    p.add_argument("--base-weight", type=int, default=2)
    p.add_argument("--exp-rate", default=None,
                   help="fixed exponential rate (expression in constants)")
    p.add_argument("--max-pool", type=int, default=4000)
    common(p)
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("corpus", help="run a corpus file")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pr = corpus_sub.add_parser("run")
    pr.add_argument("path")
    common(pr)
    pr.set_defaults(func=_cmd_corpus)

    return top


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ParseError, ex.ExpressionError, CorpusFormatError,
            PoolLimitError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to evaluate "
              "(recursion limit reached)", file=sys.stderr)
        return 2
    except Exception as err:
        # a bug, not a verdict: exit codes 0 and 1 must stay unambiguous
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
