import io
import json
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from evosym import cli, parse
from evosym.cli import REPORT_SCHEMA, build_parser, main, parse_corpus
from evosym.symmetry import (DescentLeadingVerdict, LeadingCoefficientVerdict,
                             SelfCheckError)

DATA = Path(__file__).resolve().parent / "data"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestCheck:
    def test_symmetry(self):
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", "1 + 6*t*u1")
        assert code == 0
        assert "verdict: SYMMETRY" in out
        assert "polynomial in t, degree 1" in out

    def test_non_symmetry(self):
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", "u2")
        assert code == 1
        assert "verdict: NOT A SYMMETRY" in out
        assert "residual:" in out

    def test_json_schema_and_agreement(self):
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", "1 + 6*t*u1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        _, text = run_cli("check", "--equation", "u3 + 6*u*u1",
                          "--candidate", "1 + 6*t*u1")
        assert f"verdict: {report['verdict']}" in text
        assert f"order: {report['order']}" in text
        assert report["flags"]["kdv_like"] is True

    def test_parse_error_exit_2(self):
        code, _ = run_cli("check", "--equation", "u3 +", "--candidate", "u1")
        assert code == 2

    @pytest.mark.parametrize("candidate", ["(u1+u2+u3+x)^200",
                                           "(u+1)^100000"])
    def test_oversized_product_exit_2_promptly(self, candidate, capsys):
        start = time.perf_counter()
        code, out = run_cli("check", "--equation", "u3",
                            "--candidate", candidate)
        assert code == 2 and out == ""
        assert "term pairs" in capsys.readouterr().err
        assert time.perf_counter() - start < 2


class TestBounds:
    """Exponent towers and annihilator orders over their bounds are refused
    before the work; without the bounds each of these runs for more than
    10 s."""

    @pytest.mark.parametrize("argv, bound", [
        (("check", "--equation", "u3 + u*u1", "--candidate", "u^2^3^4^5"),
         "exponent out of range (max 100000)"),
        (("check", "--equation", "u3 + u*u1", "--candidate", "u^9^9^9"),
         "exponent out of range (max 100000)"),
        (("timedep", "--expression", "t^3000*exp(2*t)*u1"),
         "exceeds the bound of 400"),
        (("timedep", "--expression", "t^100000*u1"),
         "exceeds the bound of 400"),
    ], ids=["tower-2^3^4^5", "tower-9^9^9", "annihilator-3001",
            "annihilator-100001"])
    def test_exit_2_promptly(self, argv, bound, capsys):
        start = time.perf_counter()
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert bound in capsys.readouterr().err
        assert time.perf_counter() - start < 2


class TestClassify:
    def test_fourth_corpus_equation(self):
        code, out = run_cli("classify", "--equation", "u3 + u1^3 + c*u1 + d",
                            "--const", "c,d")
        assert code == 0
        assert "constant separant: yes; KdV-like: yes" in out

    def test_json(self):
        code, out = run_cli("classify", "--equation", "u*u3",
                            "--format", "json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["flags"]["constant_separant"] is False


class TestDetermine:
    def test_symmetry_all_zero(self):
        code, out = run_cli("determine", "--equation", "u3 + 6*u*u1",
                            "--candidate", "u1")
        assert code == 0
        assert "verdict: ALL ZERO" in out

    def test_non_symmetry(self):
        code, out = run_cli("determine", "--equation", "u3 + 6*u*u1",
                            "--candidate", "u2")
        assert code == 1
        assert "E_1 = -12*u2" in out


class TestTimedep:
    def test_polynomial(self):
        code, out = run_cli("timedep", "--expression", "1 + 6*t*u1")
        assert code == 0
        assert "polynomial in t, degree 1" in out
        assert "(d/dt)^2" in out


class TestScalingMaster:
    def test_scaling_heat(self):
        code, out = run_cli("scaling", "--equation", "u2", "--q0", "exp(x)")
        assert code == 0
        assert "lambda = 1" in out

    def test_scaling_none(self):
        code, out = run_cli("scaling", "--equation", "u3 + 6*u*u1",
                            "--q0", "u2")
        assert code == 1
        assert "none" in out

    def test_scaling_none_when_the_divisor_has_an_exponential(self):
        # {F, Q0} = exp(x) is no multiple of Q0 = exp(x) + 2: a verdict,
        # where a division that cannot tell would give up
        code, out = run_cli("scaling", "--equation", "u2",
                            "--q0", "exp(x) + 2")
        assert code == 1
        assert "no scaling relation" in out

    def test_master_kdv(self):
        code, out = run_cli("master", "--equation", "u3 + 6*u*u1",
                            "--g0", "x*u1 + 2*u")
        assert code == 0
        assert "mastersymmetry pair" in out
        assert "mu = 3" in out

    def test_master_degenerate(self):
        code, out = run_cli("master", "--equation", "u3 + 6*u*u1",
                            "--g0", "u1")
        assert code == 1
        assert "G1 = 0" in out


class TestFind:
    def test_find_kdv_hierarchy(self):
        code, out = run_cli("find", "--equation", "u3 + 6*u*u1",
                            "--order", "5", "--weight", "7")
        assert code == 0
        assert "basis of dimension 3" in out
        assert "u5" in out

    def test_fifth_order_family_prints_primitive_elements(self):
        code, out = run_cli("find", "--equation",
                            "u5 + a*u*u3 + b*u1*u2 + c*u^2*u1",
                            "--const", "a,b,c", "--order", "7",
                            "--weight", "9")
        assert code == 0
        lines = out.splitlines()
        assert sorted(line for line in lines if line.startswith("G = ")) \
            == ["G = u1", "G = u5 + a*u3*u + b*u2*u1 + c*u1*u^2"]
        head = "generic-parameter assumptions: "
        listed, = (line[len(head):] for line in lines
                   if line.startswith(head))
        for item in listed.split(", "):
            assert item.endswith(" != 0")
            # a monomial in the constants is nonzero with them
            assert len(parse(item[:-len(" != 0")], "abc")) > 1, item

    def test_large_order_gives_the_order_one_answer(self):
        # no u_i with i + base weight above the weight budget can enter, so
        # order 100000 has order 1's pool; it must not recurse per index
        args = ("find", "--equation", "u3+u*u1", "--weight", "3")
        code, out = run_cli(*args, "--order", "100000")
        assert (code, out) == run_cli(*args, "--order", "1")
        assert code == 0 and "pool size: 3" in out

    def test_negative_order_exit_2(self, capsys):
        code, out = run_cli("find", "--equation", "u3+u*u1",
                            "--order", "-1", "--weight", "3")
        assert code == 2
        assert out == ""
        assert "error: ansatz order must be >= 0, got -1" \
            in capsys.readouterr().err


class TestCorpus:
    def test_full_corpus_green(self, corpus_path):
        code, out = run_cli("corpus", "run", str(corpus_path))
        assert code == 0, out
        assert "MISMATCH" not in out
        # deterministic order: entries sorted by name
        names = [line.split("]")[0][1:] for line in out.splitlines()
                 if line.startswith("[")]
        assert names == sorted(names)

    def test_mismatch_exit_1(self, tmp_path):
        bad = tmp_path / "bad.corpus"
        bad.write_text("[entry]\nname = broken\nequation = u3 + 6*u*u1\n"
                       "symmetry = u2\n")
        code, out = run_cli("corpus", "run", str(bad))
        assert code == 1
        assert "MISMATCH" in out

    def test_format_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.corpus"
        bad.write_text("name = orphan\n")
        code, _ = run_cli("corpus", "run", str(bad))
        assert code == 2

    def test_negative_find_order_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.corpus"
        bad.write_text("[entry]\nname = kdv\nequation = u3 + 6*u*u1\n"
                       "find = order=-1 weight=3\n")
        code, out = run_cli("corpus", "run", str(bad))
        assert code == 2
        assert out == ""
        assert "line 4: find order must be >= 0" in capsys.readouterr().err

    def test_corpus_verdicts_match_library(self, corpus_path):
        from evosym import classify, classify_time, is_symmetry, parse
        entries = parse_corpus(corpus_path.read_text())
        for entry in entries:
            eq = classify(parse(entry.equation, entry.constants))
            if entry.expect_constant_separant is not None:
                assert eq.constant_separant == entry.expect_constant_separant
            if entry.expect_kdv_like is not None:
                assert eq.kdv_like == entry.expect_kdv_like
            for source, _ in entry.symmetries:
                assert is_symmetry(eq, parse(source, entry.constants)).is_symmetry
            for source in entry.non_symmetries:
                assert not is_symmetry(eq, parse(source, entry.constants)).is_symmetry


class TestUsage:
    def test_unknown_command_exit_2(self):
        code, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_required_exit_2(self):
        code, _ = run_cli("check", "--equation", "u2")
        assert code == 2


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    REQUESTS = [
        ("check", "--equation", "u3 + a*u*u1", "--candidate", "u1",
         "--const", "a,b"),
        ("classify", "--equation", "u2 + c*u1^2", "--const", "c",
         "--format", "json"),
        # without --const, an earlier call's constants must not leak in
        ("check", "--equation", "u3 + a*u*u1", "--candidate", "u1"),
        ("timedep", "--expression", "exp(2*t)*u1 + t"),
    ]

    @staticmethod
    def _run(argv, capsys):
        code, out = run_cli(*argv)
        return code, out, capsys.readouterr().err

    def test_consecutive_calls_print_what_fresh_calls_print(self, capsys):
        fresh = []
        for argv in self.REQUESTS:
            build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        parser = build_parser()
        reused = [self._run(argv, capsys) for argv in self.REQUESTS]
        assert build_parser() is parser
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0]

    def test_help_and_bad_flags_with_a_reused_parser(self, capsys):
        check = ("check", "--equation", "u2", "--candidate", "u1")
        assert run_cli(*check)[0] == 0
        assert run_cli("--help")[0] == 0
        assert "usage: evosym" in capsys.readouterr().out
        assert run_cli("check", "--bogus")[0] == 2
        assert run_cli(*check)[0] == 0


class TestErrorExitCodes:
    """Codes 0 and 1 are verdicts; input errors exit 2 and internal
    failures 3, never a verdict code."""

    def test_internal_linalg_failure_exit_3(self, monkeypatch, capsys):
        from evosym import linalg

        def broken(rows, ncols):
            raise RuntimeError("nullspace verification failed (bug)")

        monkeypatch.setattr(linalg, "nullspace", broken)
        code, out = run_cli("find", "--equation", "u3 + 6*u*u1",
                            "--order", "3", "--weight", "5")
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: nullspace verification failed" \
            in err

    def test_self_check_failure_exit_3(self, monkeypatch, capsys):
        from types import SimpleNamespace

        from evosym import search

        monkeypatch.setattr(search, "is_symmetry",
                            lambda eq, g: SimpleNamespace(is_symmetry=False))
        code, _ = run_cli("find", "--equation", "u3 + 6*u*u1",
                          "--order", "3", "--weight", "5")
        assert code == 3
        assert "internal error: SelfCheckError" in capsys.readouterr().err

    def test_deep_nesting_exit_2(self, capsys):
        deep = "(" * 3000 + "u1" + ")" * 3000
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", deep)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("candidate, message", [
        ("2^20000*u1", "error: an integer of 6021 digits exceeds the limit "
         f"of {sys.get_int_max_str_digits()} digits"),
        ("7" * 5001 + "*u1", "error: integer literal of 5001 digits exceeds "
         f"the limit of {sys.get_int_max_str_digits()} digits (line 1, "
         "column 1)"),
    ], ids=["printed", "literal"])
    def test_long_integers_exit_2(self, capsys, candidate, message):
        # 2^20000*u1 is a symmetry whose answer prints the coefficient
        code, out = run_cli("check", "--equation", "u3 + u*u1",
                            "--candidate", candidate)
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    def test_division_by_zero_is_a_parse_error(self, capsys):
        code, _ = run_cli("check", "--equation", "u3 + 6*u*u1",
                          "--candidate", "u1/0")
        assert code == 2
        assert "error: division by zero" in capsys.readouterr().err


class TestStructureFailures:
    """A failed structure check on a verified symmetry is a bug: it exits 3
    naming the candidate in source form, from ``check`` and ``corpus run``
    alike, never with a verdict code; an inconclusive leading coefficient
    is reported as such."""

    # the message prints the normal form, not the source as written
    CHECK = ("check", "--equation", "u3 + 6*u*u1",
             "--candidate", "6*u*u1 + u3")
    CORPUS = ("[entry]\nname = kdv\nequation = u3 + 6*u*u1\n"
              "symmetry = 6*u*u1 + u3\n")
    ERROR = ("internal error: SelfCheckError: structure check failed for "
             "u3 + 6*u1*u: ")

    @staticmethod
    def _fail_lead(monkeypatch, inconclusive=False):
        verdict = LeadingCoefficientVerdict(False, inconclusive, None,
                                            "forced for the test")
        monkeypatch.setattr(cli, "leading_coefficient_check",
                            lambda eq, rep: verdict)

    @staticmethod
    def _fail_descent(monkeypatch):
        def broken(eq, rep):
            raise SelfCheckError("x-descent: order bound violated")

        monkeypatch.setattr(cli, "x_descent", broken)

    @staticmethod
    def _fail_descended_lead(monkeypatch):
        verdict = DescentLeadingVerdict(False, 0, None, "forced for the test")
        monkeypatch.setattr(cli, "descent_leading_coeff_check",
                            lambda eq, rep: verdict)

    @pytest.mark.parametrize("fail", ["_fail_lead", "_fail_descent",
                                      "_fail_descended_lead"])
    def test_check_exits_3(self, monkeypatch, capsys, fail):
        getattr(self, fail)(monkeypatch)
        for fmt in ("text", "json"):
            code, out = run_cli(*self.CHECK, "--format", fmt)
            assert code == 3 and out == ""
            assert self.ERROR in capsys.readouterr().err

    @pytest.mark.parametrize("fail", ["_fail_lead", "_fail_descent",
                                      "_fail_descended_lead"])
    def test_corpus_run_exits_3(self, monkeypatch, capsys, tmp_path, fail):
        getattr(self, fail)(monkeypatch)
        path = tmp_path / "one.corpus"
        path.write_text(self.CORPUS)
        for fmt in ("text", "json"):
            code, out = run_cli("corpus", "run", str(path), "--format", fmt)
            assert code == 3 and out == ""
            err = capsys.readouterr().err
            assert self.ERROR in err and "MISMATCH" not in err

    def test_inconclusive_is_not_a_failure(self, monkeypatch):
        self._fail_lead(monkeypatch, inconclusive=True)
        code, out = run_cli(*self.CHECK)
        assert code == 0
        assert "leading coefficient: inconclusive (forced for the test)" \
            in out
        assert "FAILED" not in out


class TestGoldenOutputs:
    """In-process CLI output pinned byte for byte by files under
    ``tests/data`` (the corpus in text and JSON, and the fifth-order family
    ``u5 + a*u*u3 + b*u1*u2 + c*u^2*u1`` searched at order 7, weight 9:
    two elements and three assumptions)."""

    @pytest.mark.parametrize("argv, golden", [
        (("corpus", "run", "{corpus}"), "corpus_run.txt"),
        (("corpus", "run", "{corpus}", "--format", "json"),
         "corpus_run.json"),
        (("find", "--equation", "u5 + a*u*u3 + b*u1*u2 + c*u^2*u1",
          "--order", "7", "--weight", "9", "--const", "a,b,c"),
         "find_fifth_order_o7w9.txt"),
    ])
    def test_output_matches_the_golden_file(self, corpus_path, capsys, argv,
                                            golden):
        argv = [a.format(corpus=corpus_path) for a in argv]
        code, out = run_cli(*argv)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out == (DATA / golden).read_text(encoding="utf-8")
