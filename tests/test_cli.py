import io
import json

import jsonschema
import pytest

from evosym import parse
from evosym.cli import REPORT_SCHEMA, main, parse_corpus


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

    def test_division_by_zero_is_a_parse_error(self, capsys):
        code, _ = run_cli("check", "--equation", "u3 + 6*u*u1",
                          "--candidate", "u1/0")
        assert code == 2
        assert "error: division by zero" in capsys.readouterr().err
