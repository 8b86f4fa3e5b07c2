"""The exit-code contract of the command line, fuzzed.

Every subcommand is called in-process with arguments drawn from the
expression grammar and from hostile forms (huge exponents, deep nesting,
stray characters, invalid names, hundreds of constants, out-of-range
search settings).  Each call must return 0 or 1 (a verdict) or 2 (a
rejected request), never 3 (an internal error), within ``WALL_S`` seconds,
and its text and JSON reports must agree.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import jsonschema
from hypothesis import given, settings, strategies as st

from evosym.cli import REPORT_SCHEMA, main

WALL_S = 2.0

CONSTANTS = st.one_of(st.just("a,b"), st.sampled_from([
    "", "a", ",".join([f"c{i}" for i in range(300)] + ["a", "b"]),
    "1x", "a b", "exp", "u7", "# c"]))

ATOMS = st.sampled_from(["u", "u1", "u2", "u3", "u_1", "t", "x", "a", "b",
                         "0", "1", "2", "3", "1/2"])
RATES = st.sampled_from(["t", "-t", "2*t", "a*t", "u", "-2*u", "x", "x - t",
                         "a*t + u"])
EXPRESSIONS = st.recursive(ATOMS, lambda e: st.one_of(
    st.builds("({} + {})".format, e, e),
    st.builds("({} - {})".format, e, e),
    st.builds("{}*{}".format, e, e),
    st.builds("{}/{}".format, e, st.sampled_from(["2", "3", "a"])),
    st.builds("({})^{}".format, e, st.integers(0, 3)),
    st.builds("-{}".format, e),
    st.builds("exp({})*{}".format, RATES, e)), max_leaves=6)

HOSTILE = st.sampled_from([
    "t^100000*u1", "x^100000*u1", "u1^100000", "u^100000*u1",
    "exp(t)^100000*u1", "(u + 1)^100000", "u^9^9^9", "0",
    "2^20000*u1", "9" * 5000, "(" * 99 + "u1" + ")" * 99,
    "(" * 101 + "u1" + ")" * 101, "t^3000*exp(2*t)*u1", "u1/0", "u1/u",
    "exp(u^2)", "6uu1", "٣*u1", "u100", "", ")", "u1 +", "# u1",
    "u1 # u2", "x*u1", "exp(x)*u2"])

CANDIDATES = st.one_of(EXPRESSIONS, HOSTILE)
# mostly valid right-hand sides: order 2 or 3, no x
EQUATIONS = st.one_of(
    st.builds("u{} + {}".format, st.integers(2, 3),
              EXPRESSIONS.filter(lambda e: "x" not in e)),
    st.sampled_from(["u3 + 6*u*u1", "u2", "u2 + 2*u*u1", "a*u2",
                     "t*u2", "(u+1)^3*u3"]),
    CANDIDATES)


def small(low, high):
    return st.integers(low, high).map(str)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["check", "classify", "determine",
                                    "timedep", "scaling", "master", "find",
                                    "corpus"]))
    # "--flag=value": a separate value that starts with "-" is an option
    const = [f"--const={draw(CONSTANTS)}"]
    if command == "timedep":
        return ["timedep", f"--expression={draw(CANDIDATES)}"] + const
    if command == "classify":
        return ["classify", f"--equation={draw(EQUATIONS)}"] + const
    if command == "find":
        argv = ["find", f"--equation={draw(EQUATIONS)}",
                f"--order={draw(small(-1, 3))}",
                f"--weight={draw(small(-1, 4))}"]
        for flag, low in (("--t-degree", -1), ("--x-degree", -1),
                          ("--base-weight", 0)):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(small(low, 2))}")
        if draw(st.booleans()):
            argv.append("--exp-rate=" + draw(st.sampled_from(["1", "-2", "a",
                                                              "u", "x"])))
        return argv + const
    if command == "corpus":
        lines = ["[entry]", "name = fuzz",
                 f"equation = {draw(EQUATIONS)}",
                 f"constants = {draw(CONSTANTS)}",
                 f"symmetry = {draw(CANDIDATES)}",
                 f"not_symmetry = {draw(CANDIDATES)}"]
        lines += draw(st.lists(st.sampled_from([
            "kdv_like = yes", "constant_separant = maybe",
            "predict = polynomial",
            "find = order=1 weight=2", "find = order=x weight=2",
            "find = order=-1 weight=2", "symmetry = u1 ; time = independent",
            "colour = red", "[entry]", "name = second", "equation = u2",
            "symmetry = u1 +"]), max_size=4))
        # the file's text; the test writes it and passes the path
        return ["corpus", "run", "\n".join(lines) + "\n"]
    flag = {"check": "--candidate", "determine": "--candidate",
            "scaling": "--q0", "master": "--g0"}[command]
    return [command, f"--equation={draw(EQUATIONS)}",
            f"{flag}={draw(CANDIDATES)}"] + const


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _text_verdicts(text: str) -> set[str]:
    labels = ("verdict: ", "time dependence: ")
    return {line.split(": ", 1)[1] if line.startswith(labels) else line
            for line in text.splitlines()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argvs())
def test_exit_code_contract(argv):
    path = None
    if argv[0] == "corpus":
        with tempfile.NamedTemporaryFile("w", suffix=".corpus",
                                         delete=False) as fh:
            fh.write(argv[2])
        path = argv[2] = fh.name
    try:
        code, text, err, wall = _run(argv)
        assert code in (0, 1, 2), (argv, err)
        assert wall < WALL_S, (argv, wall)
        json_code, report, json_err, wall = _run(argv + ["--format", "json"])
        assert wall < WALL_S, (argv, wall)
    finally:
        if path is not None:
            os.unlink(path)
    assert (json_code, json_err) == (code, err), argv
    if code == 2:
        assert text == report == "" and err.startswith("error: "), argv
        return
    reports = json.loads(report)
    if argv[0] != "corpus":
        jsonschema.validate(reports, REPORT_SCHEMA)
        assert reports["verdict"] in _text_verdicts(text), argv
        return
    for r in reports:
        jsonschema.validate(r, REPORT_SCHEMA)
    assert [f"[{r['entry']}] {r['verdict']}" for r in reports] == \
        [line for line in text.splitlines() if line.startswith("[")]
