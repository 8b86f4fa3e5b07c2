import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import evosym
from evosym import cli, parse, symmetry, timedep
from evosym.search import AnsatzConfig
from evosym.cli import REPORT_SCHEMA, build_parser, main, parse_corpus
from evosym.symmetry import SelfCheckError

DATA = Path(__file__).resolve().parent / "data"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_process(*argv):
    """The CLI in a fresh process with a 2 s wall bound."""
    src = Path(evosym.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "evosym.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=2)


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

    @pytest.mark.parametrize("argv, line", [
        (("--equation", "(u+1)^3*u3", "--candidate",
          "2*u5*(u+1)^5 + 10*u4*u1*(u+1)^4 + 10*u3*u2*(u+1)^4 "
          "+ 5*u3*u1^2*(u+1)^3"), "leading coefficient: ok (c_5(t)^3 = 8)"),
        (("--equation", "a*u2", "--candidate", "u3", "--const", "a"),
         "leading coefficient: ok (c_3(t)^2 = a^-3)"),
        (("--equation", "u3 + 6*u*u1", "--candidate",
          "x*u1 + 2*u + 3*t*(u3 + 6*u*u1)"),
         "leading coefficient: ok (c_3(t) = 3*t)"),
        (("--equation", "t*u2", "--candidate", "u3"),
         "leading coefficient: ok (c_3(t)^2 = 1/t^3)"),
        (("--equation", "t*u2", "--candidate", "u2"),
         "leading coefficient: ok (c_2(t) = 1/t)"),
        (("--equation", "(t+1)*(u3 + 6*u*u1)", "--candidate",
          "3*(t^2/2 + t)*(u3 + 6*u*u1) + x*u1 + 2*u"),
         "leading coefficient: ok (c_3(t) = (3/2*t^2 + 3*t)/(t + 1))"),
    ], ids=["shifted-harry-dym-o5", "a-u2-o3", "kdv-scaling", "t-u2-o3",
            "t-u2-o2", "rescaled-kdv-scaling"])
    def test_leading_coefficient_power(self, argv, line):
        # n does not divide k in the first two: separant^(k/n) has no
        # exact representative, its m-th power does; c_k(t) has t in its
        # denominator in the last three
        code, out = run_cli("check", *argv)
        assert code == 0 and line in out.splitlines()

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


    def test_an_exponential_in_x_skips_the_x_power_decomposition(self):
        code, out = run_cli("check", "--equation", "u2",
                            "--candidate", "exp(x+t)")
        assert code == 0
        assert out == (
            "verdict: SYMMETRY\n"
            "order: 0\n"
            "time dependence: quasipolynomial in t: (lambda = 1, degree 0)\n"
            "x-power decomposition: skipped (x inside an exponential)\n"
            "x-descent: 0 step(s) (x-dependence carried by an exponential "
            "factor; descent is stationary)\n")


class TestBounds:
    """Exponent towers, annihilator orders and fused sums over their bounds
    are refused before the work; without the bounds each of these runs for
    more than 1.5 s, all but the first fused sum for more than 10 s."""

    @pytest.mark.parametrize("argv, bound", [
        (("check", "--equation", "u3 + u*u1", "--candidate", "u^2^3^4^5"),
         "exponent out of range (max 100000)"),
        (("check", "--equation", "u3 + u*u1", "--candidate", "u^9^9^9"),
         "exponent out of range (max 100000)"),
        (("timedep", "--expression", "t^3000*exp(2*t)*u1"),
         "exceeds the bound of 400"),
        (("timedep", "--expression", "t^100000*u1"),
         "exceeds the bound of 400"),
        (("timedep", "--expression", "t^80*exp(a*t)*u1 + t^80*exp(b*t)*u",
          "--const", "a,b"),
         "sum of products of 912168 term pairs exceeds the budget"),
        (("timedep", "--expression",
          "t^199*exp(a*t)*u1 + t^199*exp(b*t)*u", "--const", "a,b"),
         "sum of products of 13493800 term pairs exceeds the budget"),
    ], ids=["tower-2^3^4^5", "tower-9^9^9", "annihilator-3001",
            "annihilator-100001", "fused-sum-order-162",
            "fused-sum-order-400"])
    def test_exit_2_promptly(self, argv, bound, capsys):
        start = time.perf_counter()
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert bound in capsys.readouterr().err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("candidate", [
        "(u1^65536)^32768",              # 2^31: a power one past the bound
        "u*(u1^65536)^32767*u1^65535",   # 2^31 - 1, which D raises by one
    ], ids=["power", "D"])
    def test_a_generator_power_past_its_field_exits_2(self, candidate,
                                                      capsys):
        code, out = run_cli("check", "--equation", "u2",
                            f"--candidate={candidate}")
        assert code == 2 and out == ""
        assert "generator power out of range (max 2147483647)" in \
            capsys.readouterr().err


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

    @pytest.mark.parametrize("candidate, code, verdict, closure", [
        ("1", 0, "ALL ZERO", "0"), ("exp(x)", 1, "NONZERO", "-exp(x)")])
    def test_an_order_0_candidate_lists_the_levels_it_has(
            self, candidate, code, verdict, closure):
        # an order-0 candidate still has a level at D^n: n + 1 levels
        got, out = run_cli("determine", "--equation", "u2",
                           "--candidate", candidate)
        assert got == code
        assert out == (f"verdict: {verdict}\nlevels: 3 (l = 0..2)\n"
                       "E_0 = 0\nE_1 = 0\nE_2 = 0\n"
                       f"closure = {closure}\n")


    def test_a_zero_candidate_exit_2(self, capsys):
        code, out = run_cli("determine", "--equation", "u2",
                            "--candidate", "0")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: candidate must be nonzero\n"


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

    def test_master_without_a_pair(self):
        code, out = run_cli("master", "--equation", "u3+6*u*u1",
                            "--g0", "x*u1")
        assert code == 1
        assert out == ("verdict: no pair: {F, G1} != 0\n"
                       "G1 = 3*u3 + 6*u1*u\n")

    def test_scaling_degenerate(self, capsys):
        code, out = run_cli("scaling", "--equation", "u2", "--q0", "u1")
        assert (code, out) == (0, "verdict: lambda = 0\n"
                               "degenerate: lambda = 0, Q0 itself is a "
                               "symmetry\n")
        assert capsys.readouterr().err == ""

    def test_master_drops_a_mu_that_is_not_constant(self, capsys):
        # G1 = 2*u1 * F: a multiple of F, but not by a constant
        code, out = run_cli("master", "--equation", "u2", "--g0", "u*u1")
        assert (code, out) == (1, "verdict: no pair: {F, G1} != 0\n"
                               "G1 = 2*u2*u1\n")
        assert capsys.readouterr().err == ""

    def test_master_kdv(self):
        code, out = run_cli("master", "--equation", "u3 + 6*u*u1",
                            "--g0", "x*u1 + 2*u")
        assert code == 0
        assert "mastersymmetry pair" in out
        assert "mu = 3" in out

    @pytest.mark.parametrize("equation, g0", [("u2+t*u1", "x*u1"),
                                              ("u3+t*u*u1", "1")])
    def test_master_needs_a_time_independent_equation(self, equation, g0,
                                                      capsys):
        code, out = run_cli("master", "--equation", equation, "--g0", g0)
        assert code == 2 and out == ""
        assert ("error: mastersymmetry test requires a time-independent "
                "equation") in capsys.readouterr().err

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

    def test_exp_rate_multiplies_the_generated_pool(self):
        # u_t = u_2 + u: exp(t) solves it, u*exp(t) does not
        code, out = run_cli("find", "--equation", "u2 + u", "--order", "0",
                            "--weight", "2", "--exp-rate", "1")
        assert code == 0
        assert out == "basis of dimension 1\npool size: 2\nG = exp(t)\n"

    @pytest.mark.parametrize("rate", ["u", "x", "t*a", "exp(t)"])
    def test_non_constant_exp_rate_exit_2(self, capsys, rate):
        # u is linear in the exponent, but a rate must be a constant: the
        # refusal names the rate, not the exponential it would build
        code, out = run_cli("find", "--equation", "u2", "--order", "1",
                            "--weight", "3", "--const", "a",
                            f"--exp-rate={rate}")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: ansatz exp_rate must be a constant expression, got "
            f"{parse(rate, ('a',))}\n")

    def test_deep_pool_reaches_the_cap(self):
        # u_0..u_998 all fit the weight budget; the pool generator must not
        # recurse once per index
        proc = run_process("find", "--equation", "u3+6*u*u1",
                           "--order", "1000", "--weight", "1000")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: ansatz pool exceeds the cap of 4000 "
                               "entries; tighten the configuration\n")

    def test_pool_past_the_grammar_u_index_exit_2(self, capsys):
        # u101 is in the pool, and a printed "G = u101" would not parse
        code, out = run_cli("find", "--equation", "u2", "--order", "101",
                            "--weight", "202", "--base-weight", "100")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: ansatz pool reaches u-index 101, past the grammar's "
            "bound (max 99)\n")
        # the top index the grammar reads is searched, and reads back
        code, out = run_cli("find", "--equation", "u2", "--order", "101",
                            "--weight", "199", "--base-weight", "100")
        assert code == 0 and "G = u99" in out.splitlines()
        for line in out.splitlines():
            if line.startswith("G = "):
                parse(line[4:])

    def test_max_pool_is_an_unrecognized_argument(self, capsys):
        code, out = run_cli("find", "--equation", "u3", "--order", "1",
                            "--weight", "3", "--max-pool", "50")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage: evosym")
        assert err.endswith("error: unrecognized arguments: --max-pool 50\n")

    def test_negative_order_exit_2(self, capsys):
        code, out = run_cli("find", "--equation", "u3+u*u1",
                            "--order", "-1", "--weight", "3")
        assert code == 2
        assert out == ""
        assert "error: ansatz order must be >= 0, got -1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--base-weight", "0", "ansatz base_weight must be >= 1, got 0"),
        ("--base-weight", "-2", "ansatz base_weight must be >= 1, got -2"),
        ("--t-degree", "-1", "ansatz t_degree_max must be >= 0, got -1"),
        ("--x-degree", "-1", "ansatz x_degree_max must be >= 0, got -1"),
        # a valid configuration whose pool is empty: no search runs
        ("--weight", "-1", "empty ansatz pool"),
    ])
    def test_invalid_configuration_exit_2_promptly(self, capsys, flag, value,
                                                   message):
        start = time.perf_counter()
        code, out = run_cli("find", "--equation", "u3+6*u*u1", "--order", "2",
                            "--weight", "3", flag, value)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"
        assert time.perf_counter() - start < 2

    def test_parser_defaults_are_the_ansatz_defaults(self):
        args = build_parser().parse_args(
            ["find", "--equation", "u3", "--order", "1", "--weight", "3"])
        cfg = AnsatzConfig(order=1, weight_max=3)
        assert (args.t_degree, args.x_degree, args.base_weight,
                args.exp_rate) == (
            cfg.t_degree_max, cfg.x_degree_max, cfg.base_weight,
            cfg.exp_rate)


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

    KDV = "[entry]\nname = kdv\nequation = u3 + 6*u*u1\n"

    @pytest.mark.parametrize("line, mismatch", [
        ("constant_separant = no", "constant-separant flag mismatch"),
        ("kdv_like = no", "KdV-like flag mismatch"),
        ("symmetry = u1; time = polynomial 1",
         "time class mismatch for u1: got independent, want polynomial 1"),
        ("not_symmetry = u1", "expected non-symmetry verified: u1"),
        ("symmetry = u1\npredict = quasipolynomial",
         "prediction mismatch: got polynomial, want quasipolynomial"),
        ("find = order=3 weight=5 contains= u2",
         "find result does not span u2"),
    ], ids=["constant-separant", "kdv-like", "time-class", "non-symmetry",
            "prediction", "find-contains"])
    def test_each_mismatch_exit_1(self, tmp_path, line, mismatch):
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}{line}\n")
        code, out = run_cli("corpus", "run", str(path))
        assert code == 1
        assert out.splitlines()[0] == "[kdv] mismatch"
        assert f"  MISMATCH: {mismatch}" in out.splitlines()

    @pytest.mark.parametrize("line, message", [
        ("constant_separant = maybe", "expected yes/no, got 'maybe'"),
        ("symmetry u1", "expected key = value"),
        ("symmetry = u1; kind = x", "unknown symmetry attribute"),
        ("find = order=1 depth=3", "unknown find parameter 'depth'"),
        ("find = order=1", "find needs order= and weight="),
        ("find = order=x weight=3", "find order must be an integer, got 'x'"),
        ("colour = red", "unknown key 'colour'"),
    ], ids=["yes-no", "key-value", "symmetry-attribute", "find-parameter",
            "find-order-weight", "find-integer", "unknown-key"])
    def test_each_format_error_exit_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}{line}\n")
        code, out = run_cli("corpus", "run", str(path))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: line 4: {message}\n"

    @pytest.mark.parametrize("key, lines, lineno", [
        ("name", "name = kdv2", 4),
        ("equation", "equation = u2", 4),
        ("constants", "constants = a\nconstants = b", 5),
        ("constant_separant", "constant_separant = yes\n"
                              "constant_separant = no", 5),
        ("kdv_like", "kdv_like = yes\nkdv_like = yes", 5),
        ("basis", "basis = u1\nbasis = u1", 5),
        ("predict", "predict = polynomial\npredict = polynomial", 5),
    ])
    def test_a_repeated_single_key_exit_2(self, tmp_path, capsys, key,
                                          lines, lineno):
        # a second value must not silently replace the first, even an
        # equal one
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}{lines}\n")
        assert run_cli("corpus", "run", str(path)) == (2, "")
        assert capsys.readouterr().err == (
            f"error: line {lineno}: repeated key {key!r}\n")

    def test_find_line_past_the_grammar_u_index_names_its_line(self):
        # a corpus find line has no base weight, so its pools hit the size
        # cap long before u100; the entry is built with one that reaches it
        cfg = AnsatzConfig(order=101, weight_max=202, base_weight=100)
        entry = cli.CorpusEntry(name="heat", equation="u2",
                                finds=((cfg, None),), lines={"find": [4]})
        with pytest.raises(ValueError) as err:
            cli.run_corpus_entry(entry)
        assert str(err.value) == (
            "ansatz pool reaches u-index 101, past the grammar's bound "
            "(max 99) (corpus line 4, entry 'heat')")

    def test_a_failed_symmetry_leaves_the_default_basis(self, tmp_path,
                                                        capsys):
        # without a basis line the prediction reads the listed symmetries
        # that verified: a failed one is a mismatch, not a rejected value
        path = tmp_path / "one.corpus"
        path.write_text("[entry]\nname = kdv-bad\nequation = u3 + 6*u*u1\n"
                        "symmetry = u1\nsymmetry = u2\n"
                        "predict = polynomial\n")
        code, out = run_cli("corpus", "run", str(path))
        assert code == 1 and capsys.readouterr().err == ""
        assert out.splitlines() == [
            "[kdv-bad] mismatch",
            "  equation order 3; constant separant: True; KdV-like: True",
            "  symmetry ok: u1 (order 1, time-independent)",
            "    structure ok (s = 0)",
            "  time-shape probe: all polynomial in t (1 verified symmetries)",
            "  prediction: polynomial (basis of 1, orders <= 1)",
            "  MISMATCH: expected symmetry failed: u2"]

    def test_no_verified_symmetry_and_no_basis_skips_the_prediction(
            self, tmp_path, capsys):
        # the failed line is the mismatch: no default basis is left to
        # refuse, so the run exits 1, not 2
        code, out = run_cli("corpus", "run",
                            str(DATA / "corpus_mismatch.corpus"))
        assert (code, capsys.readouterr().err) == (1, "")
        assert out == (DATA / "corpus_mismatch.txt").read_text(
            encoding="utf-8")
        assert out.splitlines() == [
            "[kdv] mismatch",
            "  equation order 3; constant separant: True; KdV-like: True",
            "  MISMATCH: expected symmetry failed: u2"]
        # with no symmetry line either, the empty basis is refused
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}predict = polynomial\n")
        assert run_cli("corpus", "run", str(path)) == (2, "")
        assert capsys.readouterr().err == (
            "error: empty basis: u1 is a symmetry of order 1 <= cap 1, so a "
            "complete basis is never empty (corpus line 4, entry 'kdv')\n")

    @pytest.fixture
    def verified(self, monkeypatch):
        """The ``(equation, candidate)`` pairs that the runner and
        ``timedep`` send through ``is_symmetry``, in call order."""
        seen = []

        def spy(eq, G):
            seen.append((eq.F, G))
            return symmetry.is_symmetry(eq, G)

        monkeypatch.setattr(cli, "is_symmetry", spy)
        monkeypatch.setattr(timedep, "is_symmetry", spy)
        return seen

    def test_each_candidate_is_verified_once(self, tmp_path, verified):
        # a basis value equal to a listed symmetry reuses its report, and
        # one listed nowhere else is verified once however often it appears
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}symmetry = u1\nsymmetry = 1 + 6*t*u1\n"
                        "symmetry = u1\nnot_symmetry = u2\n"
                        "basis = u1, 6*t*u1 + 1, 2*u1, u1*2\n"
                        "predict = polynomial\n")
        code, out = run_cli("corpus", "run", str(path))
        assert code == 0, out
        assert [G for _, G in verified] == [
            parse(s) for s in ("u1", "1 + 6*t*u1", "u2", "2*u1")]
        # the probe still counts every listed value that verified
        assert "(3 verified symmetries)" in out
        assert "prediction: polynomial (basis of 4, orders <= 1)" in out

    def test_the_shipped_corpus_verifies_each_line_once(self, corpus_path,
                                                        verified):
        entries = parse_corpus(corpus_path.read_text())
        code, _ = run_cli("corpus", "run", str(corpus_path))
        assert code == 0
        assert len(set(verified)) == len(verified) == sum(
            len(e.symmetries) + len(e.non_symmetries) for e in entries)

    def test_readme_example_runs_verbatim(self, tmp_path):
        # "#" starts a comment anywhere on a line, as the README example has
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Corpus files", 1)[1].split("```\n")[1]
        assert "constants = " in block and "# comma list" in block
        path = tmp_path / "readme.corpus"
        path.write_text(block)
        [entry] = parse_corpus(block)
        assert entry.constants == ()
        assert entry.basis == ("u1", "1 + 6*t*u1")
        assert entry.predict == "polynomial"
        code, out = run_cli("corpus", "run", str(path))
        assert code == 0, out
        assert out.splitlines()[0] == "[kdv] ok"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rejected_later_entry_prints_no_verdict(self, tmp_path, capsys,
                                                    fmt):
        path = tmp_path / "two.corpus"
        path.write_text("[entry]\nname = a\nequation = u2\n"
                        "[entry]\nname = b\nequation = u2\nsymmetry = u1 +\n")
        code, out = run_cli("corpus", "run", str(path), "--format", fmt)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: unexpected token")

    @pytest.mark.parametrize("line", [
        "equation = u3 +", "symmetry = u1 +", "not_symmetry = u2 -",
        "basis = u1, u1 +", "find = order=3 weight=5 contains= u2 *",
    ], ids=["equation", "symmetry", "not-symmetry", "basis", "find-contains"])
    def test_a_bad_value_names_its_line_and_entry(self, tmp_path, capsys,
                                                  line):
        key = line.split(" =")[0]
        # good symmetry and not_symmetry values on both sides of the bad
        # line: a bad value's line is that of its own index
        text = (f"{self.KDV}symmetry = u1\n# a comment\n\n"
                f"not_symmetry = u2\n{line}\nsymmetry = u1\n"
                "not_symmetry = u2\npredict = polynomial\n")
        if key == "equation":
            text = text.replace("equation = u3 + 6*u*u1\n", "")
        path = tmp_path / "one.corpus"
        path.write_text(text)
        code, out = run_cli("corpus", "run", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: unexpected token")
        lineno = text.splitlines().index(line) + 1
        assert err.endswith(f"(corpus line {lineno}, entry 'kdv')\n"), err

    @pytest.mark.parametrize("lines, message", [
        # predict_time_dependence refuses a basis element above the cap
        ("basis = u5 + 10*u*u3 + 20*u1*u2 + 30*u^2*u1\npredict = polynomial",
         "basis element has order 5 > cap 1"),
        ("not_symmetry = u2\nfind = order=9 weight=40",
         "ansatz pool exceeds the cap of 4000 entries"),
        # an explicit basis value is verified, and a non-symmetry refused
        ("basis = u1, u2\npredict = polynomial",
         "basis element is not a symmetry: u2"),
    ], ids=["predict", "pool-limit", "basis-non-symmetry"])
    def test_a_check_that_refuses_a_value_names_its_line(self, tmp_path,
                                                         capsys, lines,
                                                         message):
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}{lines}\n")
        code, out = run_cli("corpus", "run", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")
        assert err.endswith("(corpus line 5, entry 'kdv')\n")

    @pytest.mark.parametrize("value, message", [
        ("1a", "constant name '1a' is not an identifier"),
        ("a, u2", "constant name 'u2' collides with a reserved identifier"),
    ], ids=["not-identifier", "reserved"])
    def test_a_bad_constant_name_names_its_own_line(self, tmp_path, capsys,
                                                    value, message):
        # the constants come before the equation that would use them
        path = tmp_path / "one.corpus"
        path.write_text(f"[entry]\nname = k\nconstants = {value}\n"
                        "equation = u3 + a*u*u1\n")
        code, out = run_cli("corpus", "run", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: {message} (corpus line 3, entry 'k')\n"

    def test_a_failed_self_check_is_not_given_a_line(self, monkeypatch,
                                                     capsys, tmp_path):
        def fail(eq, rep):
            raise SelfCheckError("x-descent: planted")
        monkeypatch.setattr("evosym.cli.check_structure", fail)
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}symmetry = u1\n")
        code, _ = run_cli("corpus", "run", str(path))
        err = capsys.readouterr().err
        assert code == 3
        assert "SelfCheckError: x-descent: planted\n" in err
        assert "corpus line" not in err

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
        assert capsys.readouterr().err == (
            "error: line 4: ansatz order must be >= 0, got -1\n")

    @pytest.mark.parametrize("key", ["t_degree", "x_degree"])
    def test_negative_find_degree_exit_2(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.corpus"
        bad.write_text(f"{self.KDV}find = order=1 weight=3 {key}=-1\n")
        code, out = run_cli("corpus", "run", str(bad))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: line 4: ansatz {key}_max must be >= 0, got -1\n")

    def test_a_prediction_from_an_empty_basis_names_its_line(self, tmp_path,
                                                             capsys):
        # u1 is a symmetry of order 1 <= cap 1, so no basis is complete
        path = tmp_path / "one.corpus"
        path.write_text(f"{self.KDV}predict = quasipolynomial\n")
        code, out = run_cli("corpus", "run", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: empty basis: u1 is a symmetry of order 1 <= cap 1, so a "
            "complete basis is never empty (corpus line 4, entry 'kdv')\n")

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

    def test_a_value_starting_with_a_minus_needs_the_equals_form(self,
                                                                 capsys):
        # argparse reads "-u1" as an option; its error names the form
        # that reads it as a value
        code, out = run_cli("check", "--equation", "u2", "--candidate", "-u1")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines()[-1] == (
            "evosym check: error: argument --candidate: expected one "
            "argument (write --candidate=VALUE for a value that starts "
            "with '-')")
        code, out = run_cli("check", "--equation", "u2", "--candidate=-u1")
        assert code == 0 and out.splitlines()[0] == "verdict: SYMMETRY"


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

    def test_the_exit_code_follows_the_exception_class(self, monkeypatch,
                                                       capsys):
        # every class the package defines for a refused request is a
        # ValueError, which main alone catches for exit 2; a failed
        # self-check is not, and exits 3
        classes = {}
        for info in pkgutil.iter_modules(evosym.__path__):
            module = importlib.import_module(f"evosym.{info.name}")
            for obj in vars(module).values():
                if (isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__):
                    classes[obj.__name__] = obj
        assert sorted(classes) == ["CorpusFormatError", "ExpressionError",
                                   "ParseError", "PoolLimitError",
                                   "SelfCheckError"]
        for name, cls in classes.items():
            refusal = name != "SelfCheckError"
            assert issubclass(cls, ValueError) == refusal, name
            err = cls("planted", 1, 1) if name == "ParseError" \
                else cls("planted")

            def fail(eq, cfg, err=err):
                raise err

            monkeypatch.setattr(cli, "find_symmetries", fail)
            code, out = run_cli("find", "--equation", "u3", "--order", "1",
                                "--weight", "3")
            assert (code, out) == ((2 if refusal else 3), ""), name
            err_text = capsys.readouterr().err
            if refusal:
                assert err_text == f"error: {err}\n", name
            else:
                assert "internal error: SelfCheckError: planted" in err_text

    def test_deep_nesting_exit_2(self, capsys):
        deep = "(" * 3000 + "u1" + ")" * 3000
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", deep)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in capsys.readouterr().err

    def test_recursion_inside_a_command_exit_2(self, monkeypatch, capsys):
        # raised from a function the handler calls: the cached parser holds
        # the handler objects themselves
        def deep(_):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "classify", deep)
        code, out = run_cli("classify", "--equation", "u2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: input nested too deeply to evaluate (recursion limit "
            "reached)\n")

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

    def test_long_u_index_exit_2(self, capsys):
        code, out = run_cli("check", "--equation", "u2",
                            "--candidate", "u" + "1" * 5000)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: u-index of 5000 digits out of range (max 99) (line 1, "
            "column 1)\n")

    def test_non_ascii_digit_exit_2(self, capsys):
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", "\u0663*u1")
        assert code == 2 and out == ""
        assert ("error: unexpected character '\u0663' (line 1, column 1)"
                in capsys.readouterr().err)

    def test_constant_name_not_an_identifier_exit_2(self, capsys):
        code, out = run_cli("check", "--equation", "u3 + 6*u*u1",
                            "--candidate", "u1", "--const", "1x, a b")
        assert code == 2 and out == ""
        assert "is not an identifier" in capsys.readouterr().err

    def test_division_by_zero_is_a_parse_error(self, capsys):
        code, _ = run_cli("check", "--equation", "u3 + 6*u*u1",
                          "--candidate", "u1/0")
        assert code == 2
        assert "error: division by zero" in capsys.readouterr().err


class TestStructureFailures:
    """A failed structure check on a verified symmetry is a bug: it exits 3
    naming the candidate in source form, from ``check`` and ``corpus run``
    alike, never with a verdict code."""

    # the message prints the normal form, not the source as written
    CHECK = ("check", "--equation", "u3 + 6*u*u1",
             "--candidate", "6*u*u1 + u3")
    CORPUS = ("[entry]\nname = kdv\nequation = u3 + 6*u*u1\n"
              "symmetry = 6*u*u1 + u3\n")
    ERROR = ("internal error: SelfCheckError: structure check failed for "
             "u3 + 6*u1*u: ")

    @staticmethod
    def _fail(monkeypatch, check, message):
        def broken(eq, rep):
            raise SelfCheckError(message)

        monkeypatch.setattr(symmetry, check, broken)

    def _fail_lead(self, monkeypatch):
        self._fail(monkeypatch, "leading_coefficient_check",
                   "leading coefficient: forced for the test")

    def _fail_descent(self, monkeypatch):
        self._fail(monkeypatch, "x_descent", "x-descent: order bound violated")

    def _fail_descended_lead(self, monkeypatch):
        self._fail(monkeypatch, "descent_leading_coeff_check",
                   "forced for the test")

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


class TestExponentialDescent:
    """``(x + 2*t)*exp(x + t)`` solves the heat equation, so it is a
    symmetry of ``u_t = u_2``; d/dx keeps its x-degree at 1, so the
    x-descent must stop at once rather than step forever.  Each run is a
    process with a 2 s wall bound."""

    HEAT = ("--equation", "u2", "--candidate", "(x+2*t)*exp(x+t)")
    STATIONARY = ("x-descent: 0 step(s) (x-dependence carried by an "
                  "exponential factor; descent is stationary)")

    def test_check(self):
        proc = run_process("check", *self.HEAT)
        assert proc.returncode == 0, proc.stderr
        assert "verdict: SYMMETRY" in proc.stdout
        assert self.STATIONARY in proc.stdout

    def test_corpus_run(self, tmp_path):
        path = tmp_path / "heat.corpus"
        path.write_text("[entry]\nname = heat\nequation = u2\n"
                        "symmetry = (x+2*t)*exp(x+t)\n")
        proc = run_process("corpus", "run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "  structure ok\n" in proc.stdout


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

    # every page of --help, the top level first; a page's lines break at
    # the terminal width, which the parser reads when it is built
    HELP_PAGES = [(), ("check",), ("classify",), ("determine",),
                  ("timedep",), ("scaling",), ("master",), ("find",),
                  ("corpus",), ("corpus", "run")]

    def test_help_matches_the_golden_file(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        try:
            pages = []
            for argv in self.HELP_PAGES:
                assert run_cli(*argv, "--help") == (0, "")
                out, err = capsys.readouterr()
                assert err == ""
                pages.append(f"$ evosym {' '.join(argv + ('--help',))}\n{out}")
        finally:
            build_parser.cache_clear()
        assert "\n".join(pages) == (DATA / "cli_help.txt").read_text(
            encoding="utf-8")
