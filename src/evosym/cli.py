"""Command-line frontend.

Subcommands: ``check``, ``classify``, ``determine``, ``timedep``,
``scaling``, ``master``, ``find`` and ``corpus run``.  Each handler returns
its answer as ``(exit code, report, text lines)``, and ``main`` prints one
of the two forms: the text lines, or the JSON report with the fields
``{entry, command, verdict, order, flags, time_class, residual}`` (a list
of them from ``corpus run``).

Exit codes: 0 all expectations met, 1 a verdict mismatch, 2 usage, parse
or input errors (including input nested too deeply to evaluate), 3 an
internal error (a failed self-check or any other unexpected exception).
Codes 2 and 3 are never verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import traceback
from dataclasses import dataclass, field

from . import expr as ex
from .parser import constant_names, parse
from .search import AnsatzConfig, expr_in_span, find_symmetries
from .symmetry import (EvolutionEquation, check_structure, classify,
                       determining_system, is_symmetry)
from .timedep import (POLYNOMIAL, annihilator, classify_time,
                      mastersymmetry_test, predict_time_dependence,
                      probe_time_shapes, scaling_test)

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


# what a handler returns: (exit code, report, text lines)
Answer = tuple[int, dict | list, list[str]]


def _emit(report: dict | list, lines: list[str], fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for line in lines:
            print(line, file=out)


def _compact_time(cls) -> str:
    return f"polynomial {cls.degree}" if cls.kind == POLYNOMIAL else cls.kind


def _ratio_src(num, den) -> str:
    """``num/den`` in source form, a denominator of one left out."""
    def atom(e) -> str:
        return str(e) if str(e).replace("^", "").isalnum() else f"({e})"
    return str(num) if den == ex.ONE else f"{atom(num)}/{atom(den)}"


# -- subcommand handlers -----------------------------------------------------

def _equation(args) -> EvolutionEquation:
    return classify(parse(args.equation, args.constants))


def _cmd_check(args) -> Answer:
    eq = _equation(args)
    G = parse(args.candidate, args.constants)
    rep = is_symmetry(eq, G)
    cls = str(classify_time(G))
    verdict = "SYMMETRY" if rep.is_symmetry else "NOT A SYMMETRY"
    lines = [f"verdict: {verdict}",
             f"order: {rep.order}",
             f"time dependence: {cls}"]
    if rep.is_symmetry:
        lead, dec, trace = check_structure(eq, rep)
        if lead is not None:
            power = "" if lead.m == 1 else f"^{lead.m}"
            lines.append(f"leading coefficient: ok (c_{rep.order}(t){power} "
                         f"= {_ratio_src(lead.num, lead.den)})")
        if dec is None:
            lines.append("x-power decomposition: skipped "
                         "(x inside an exponential)")
        else:
            lines.append(f"x-power decomposition: s = {dec.s}, "
                         f"psi = {dec.psi}")
        lines.append(f"x-descent: {len(trace.steps) - 1} step(s)"
                     + (f" ({trace.note})" if trace.note else ""))
    residual = None if rep.is_symmetry else str(rep.residual)
    report = _report("check", verdict, order=rep.order, flags=_flags(eq),
                     time_class=cls, residual=residual)
    if residual is not None:
        lines.append(f"residual: {residual}")
    return (0 if rep.is_symmetry else 1), report, lines


def _cmd_classify(args) -> Answer:
    eq = _equation(args)
    verdict = (f"constant separant: {'yes' if eq.constant_separant else 'no'}; "
               f"KdV-like: {'yes' if eq.kdv_like else 'no'}")
    lines = [verdict,
             f"order: {eq.n}",
             f"separant: {eq.separant}",
             f"time independent: {'yes' if eq.time_independent else 'no'}",
             f"t-only derivative depth: {eq.deriv_depth}"]
    report = _report("classify", verdict, order=eq.n, flags=_flags(eq))
    return 0, report, lines


def _cmd_determine(args) -> Answer:
    eq = _equation(args)
    G = parse(args.candidate, args.constants)
    system = determining_system(eq, G)
    verdict = "ALL ZERO" if system.all_zero else "NONZERO"
    levels = len(system.equations)
    lines = [f"verdict: {verdict}", f"levels: {levels} (l = 0..{levels - 1})"]
    for l, e in enumerate(system.equations):
        lines.append(f"E_{l} = {e}")
    closure = str(system.closure)
    lines.append(f"closure = {closure}")
    residual = None if system.all_zero else closure
    report = _report("determine", verdict, order=system.k, flags=_flags(eq),
                     residual=residual)
    return (0 if system.all_zero else 1), report, lines


def _cmd_timedep(args) -> Answer:
    G = parse(args.expression, args.constants)
    cls = str(classify_time(G))
    lines = [f"time dependence: {cls}", f"annihilator: {annihilator(G)}"]
    return 0, _report("timedep", cls, time_class=cls), lines


def _cmd_scaling(args) -> Answer:
    eq = _equation(args)
    Q0 = parse(args.q0, args.constants)
    res = scaling_test(eq, Q0)
    if res.found:
        lam = str(res.lam)
        verdict = f"lambda = {lam}"
        lines = [f"verdict: {verdict}",
                 f"certified: exp(({lam})*t) * Q0 has zero residual"
                 if res.lam else
                 "degenerate: lambda = 0, Q0 itself is a symmetry"]
    else:
        verdict = "none"
        lines = [f"verdict: {verdict}",
                 "no scaling relation: {F, Q0} is not proportional to Q0"]
    report = _report("scaling", verdict, flags=_flags(eq))
    return (0 if res.found else 1), report, lines


def _cmd_master(args) -> Answer:
    eq = _equation(args)
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
    return (0 if res.generates else 1), report, lines


def _cmd_find(args) -> Answer:
    eq = _equation(args)
    rate = parse(args.exp_rate, args.constants) if args.exp_rate else None
    cfg = AnsatzConfig(order=args.order, weight_max=args.weight,
                       t_degree_max=args.t_degree,
                       x_degree_max=args.x_degree,
                       base_weight=args.base_weight,
                       exp_rate=rate)
    res = find_symmetries(eq, cfg)
    verdict = f"basis of dimension {len(res.basis)}"
    lines = [verdict, f"pool size: {res.pool_size}"]
    lines += [f"G = {g}" for g in res.basis]
    if res.pivot_assumptions:
        lines.append("generic-parameter assumptions: "
                     + ", ".join(f"{p} != 0" for p in res.pivot_assumptions))
    report = _report("find", verdict, order=args.order, flags=_flags(eq))
    return (0 if res.basis else 1), report, lines


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
    # each find line's configuration and its "contains=" source, if any
    finds: tuple[tuple[AnsatzConfig, str | None], ...] = ()
    # each key's line numbers, one per value in file order
    lines: dict[str, list[int]] = field(default_factory=dict)


class CorpusFormatError(ValueError):
    pass


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    raise CorpusFormatError(f"{where}: expected yes/no, got {value!r}")


# a find line's parameters and the AnsatzConfig fields they set
_FIND_FIELDS = {"order": "order", "weight": "weight_max",
                "t_degree": "t_degree_max", "x_degree": "x_degree_max"}


def _parse_find(value: str, where: str) -> tuple[AnsatzConfig, str | None]:
    """A find line's configuration, range-checked by ``AnsatzConfig``."""
    fields = {}
    head, _, contains = value.partition("contains=")
    for part in head.split():
        k, _, v = part.partition("=")
        if k not in _FIND_FIELDS:
            raise CorpusFormatError(f"{where}: unknown find parameter {k!r}")
        if not re.fullmatch(r"-?[0-9]+", v):
            raise CorpusFormatError(
                f"{where}: find {k} must be an integer, got {v!r}")
        fields[_FIND_FIELDS[k]] = int(v)
    if "order" not in fields or "weight_max" not in fields:
        raise CorpusFormatError(f"{where}: find needs order= and weight=")
    try:
        cfg = AnsatzConfig(**fields)
    except ValueError as err:
        raise CorpusFormatError(f"{where}: {err}") from None
    return cfg, contains.strip() or None


# the keys an entry may give once: a second value would replace the first
_SINGLE_KEYS = ("name", "equation", "constants", "constant_separant",
                "kdv_like", "basis", "predict")


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries: list[dict] = []
    cur: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        # "#" starts a comment anywhere: the expression grammar has no "#"
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line == "[entry]":
            cur = {"symmetries": [], "non_symmetries": [], "finds": [],
                   "lines": {}}
            entries.append(cur)
            continue
        if cur is None:
            raise CorpusFormatError(f"line {lineno}: content before [entry]")
        if "=" not in line:
            raise CorpusFormatError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _SINGLE_KEYS and key in cur["lines"]:
            raise CorpusFormatError(f"line {lineno}: repeated key {key!r}")
        if key in ("name", "equation", "predict"):
            cur[key] = value
        elif key in ("constants", "basis"):
            cur[key] = _const_list(value)
        elif key in ("constant_separant", "kdv_like"):
            cur[f"expect_{key}"] = _parse_bool(value, f"line {lineno}")
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
        elif key == "find":
            cur["finds"].append(_parse_find(value, f"line {lineno}"))
        else:
            raise CorpusFormatError(f"line {lineno}: unknown key {key!r}")
        cur["lines"].setdefault(key, []).append(lineno)
    out = []
    for raw_entry in entries:
        for key in ("symmetries", "non_symmetries", "finds"):
            raw_entry[key] = tuple(raw_entry[key])
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


@contextlib.contextmanager
def _value_at(entry: CorpusEntry, key: str, i: int = -1):
    """Appends the corpus line and the entry of the i-th value of ``key``
    to a ``ValueError`` (every refusal of the package is one) raised while
    that value is read or checked."""
    try:
        yield
    except ValueError as err:
        if key in entry.lines:
            err.args = (f"{err} (corpus line {entry.lines[key][i]}, "
                        f"entry {entry.name!r})",)
        raise


def run_corpus_entry(entry: CorpusEntry) -> tuple[list[str], list[str]]:
    """Evaluate one entry; returns (log lines, mismatch descriptions)."""
    lines: list[str] = []
    problems: list[str] = []
    with _value_at(entry, "constants"):
        constant_names(entry.constants)
    with _value_at(entry, "equation"):
        eq = classify(parse(entry.equation, entry.constants))
    if entry.expect_constant_separant is not None and \
            eq.constant_separant != entry.expect_constant_separant:
        problems.append("constant-separant flag mismatch")
    if entry.expect_kdv_like is not None and \
            eq.kdv_like != entry.expect_kdv_like:
        problems.append("KdV-like flag mismatch")
    lines.append(f"equation order {eq.n}; constant separant: "
                 f"{eq.constant_separant}; KdV-like: {eq.kdv_like}")

    reports: dict = {}  # one per candidate, so a basis value reuses its line's

    def verify(source: str):
        G = parse(source, entry.constants)
        if G not in reports:
            reports[G] = is_symmetry(eq, G)
        return reports[G]

    verified: list = []
    for i, (source, expect_time) in enumerate(entry.symmetries):
        with _value_at(entry, "symmetry", i):
            rep = verify(source)
            if not rep.is_symmetry:
                problems.append(f"expected symmetry failed: {source}")
                continue
            verified.append(rep)
            cls = classify_time(rep.candidate)
            lines.append(f"symmetry ok: {source} (order {rep.order}, {cls})")
            if (expect_time is not None
                    and not _time_matches(cls, expect_time)):
                problems.append(
                    f"time class mismatch for {source}: "
                    f"got {_compact_time(cls)}, want {expect_time}")
            dec = check_structure(eq, rep)[1]
            lines.append("  structure ok"
                         + ("" if dec is None else f" (s = {dec.s})"))
    if verified:
        lines.append(f"time-shape probe: {probe_time_shapes(verified)} "
                     f"({len(verified)} verified symmetries)")

    for i, source in enumerate(entry.non_symmetries):
        with _value_at(entry, "not_symmetry", i):
            if verify(source).is_symmetry:
                problems.append(f"expected non-symmetry verified: {source}")
            else:
                lines.append(f"non-symmetry confirmed: {source}")

    # a failed symmetry line is already a mismatch; when none verified and
    # no basis line is given, there is no default basis to predict from
    if entry.predict is not None and (entry.basis or verified
                                      or not entry.symmetries):
        basis = verified
        if entry.basis:
            with _value_at(entry, "basis"):
                basis = [verify(source) for source in entry.basis]
        with _value_at(entry, "predict"):
            pred = predict_time_dependence(eq, basis)
        got = pred.prediction
        lines.append(f"prediction: {got} (basis of {len(basis)}, "
                     f"orders <= {pred.basis_order_cap})")
        if got != entry.predict:
            problems.append(f"prediction mismatch: got {got}, "
                            f"want {entry.predict}")

    for i, (cfg, contains) in enumerate(entry.finds):
        with _value_at(entry, "find", i):
            res = find_symmetries(eq, cfg)
            lines.append(f"find order={cfg.order}: basis of {len(res.basis)}")
            if contains is not None:
                target = parse(contains, entry.constants)
                if not expr_in_span(target, list(res.basis)):
                    problems.append(f"find result does not span {contains}")
    return lines, problems


def _cmd_corpus(args) -> Answer:
    with open(args.path, encoding="utf-8") as fh:
        entries = parse_corpus(fh.read())
    entries.sort(key=lambda e: e.name)
    # nothing is printed until every entry has run: a rejected entry
    # (exit 2) must not leave the verdicts of the entries before it
    reports, text = [], []
    for entry in entries:
        lines, problems = run_corpus_entry(entry)
        verdict = "ok" if not problems else "mismatch"
        reports.append(_report("corpus", verdict, entry=entry.name))
        text += [f"[{entry.name}] {verdict}",
                 *(f"  {line}" for line in lines),
                 *(f"  MISMATCH: {p}" for p in problems)]
    code = 1 if any(r["verdict"] != "ok" for r in reports) else 0
    return code, reports, text


# -- argument plumbing ---------------------------------------------------------

# the plain subcommands: name, help, required expression options, handler
COMMANDS = (
    ("check", "verify a candidate symmetry", ("--equation", "--candidate"),
     _cmd_check),
    ("classify", "classify an equation", ("--equation",), _cmd_classify),
    ("determine", "print the determining system",
     ("--equation", "--candidate"), _cmd_determine),
    ("timedep", "classify time dependence", ("--expression",), _cmd_timedep),
    ("scaling", "test {F, Q0} = lambda * Q0", ("--equation", "--q0"),
     _cmd_scaling),
    ("master", "test {F, G0} = G1, {F, G1} = 0", ("--equation", "--g0"),
     _cmd_master),
)

def _const_list(value: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in value.split(",") if c.strip())


class _ArgumentParser(argparse.ArgumentParser):
    """argparse reads a value that starts with ``-`` (``--candidate -u1``)
    as an option and reports the value missing; the error names the
    ``--option=VALUE`` spelling, which reads it.  Subparsers inherit it."""

    def error(self, message):
        if message.endswith(": expected one argument"):
            message += (f" (write {message.split()[1][:-1]}=VALUE for a "
                        "value that starts with '-')")
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after
    it: building costs far more than a request's parse (each argument makes
    a help formatter, which reads the terminal size), and ``parse_args``
    does not mutate the parser."""
    top = _ArgumentParser(
        prog="evosym",
        description="Symmetry calculus for scalar evolution equations "
                    "u_t = F(t, u, u_1, ..., u_n).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--const", dest="constants", type=_const_list,
                       default=(), metavar="a,b,...",
                       help="declare named constants")
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name, help_text, options, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, required=True)
        common(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("find", help="finite-ansatz symmetry search")
    p.add_argument("--equation", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--t-degree", type=int, default=AnsatzConfig.t_degree_max)
    p.add_argument("--x-degree", type=int, default=AnsatzConfig.x_degree_max)
    p.add_argument("--base-weight", type=int, default=AnsatzConfig.base_weight)
    p.add_argument("--exp-rate", default=None,
                   help="fixed exponential rate (expression in constants)")
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
        code, report, lines = args.func(args)
        _emit(report, lines, args.format, out)
        return code
    except (ValueError, OSError) as err:
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
