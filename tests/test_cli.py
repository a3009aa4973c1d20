import contextlib
import io
import json
import subprocess

import numpy as np
import pytest

from marketclear import cli, specio
from marketclear.market import _FlatMarket
from marketclear.solvers import SCHEMES, Trace

from conftest import PYTHON, SPEC_DIR, json_path, set_leaf

SINGLE_GOOD = str(SPEC_DIR / "single_good.json")
MARKET_N6 = str(SPEC_DIR / "market_n6.json")


def run_cli(*args, env=None):
    """`marketclear args` as a CompletedProcess: `cli.main` in this process,
    with argparse's exit mapped to its return code, or, when a test
    passes `env`, `python -m marketclear` in a subprocess. Logging binds
    the first stderr it is given, so a test that reads log lines passes
    env. `test_same_outcome_in_process_and_as_a_module` keeps the two
    ways equal."""
    if env is not None:
        return run_module(*args, env=env)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            returncode = cli.main(list(args))
        except SystemExit as exc:
            returncode = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, returncode, out.getvalue(), err.getvalue())


def run_module(*args, env=None):
    return subprocess.run(
        [PYTHON, "-m", "marketclear", *args],
        capture_output=True, text=True, env=env,
    )


class TestGen:
    def test_writes_deterministic_spec(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            r = run_cli("gen", "--n", "4", "--consumers", "2", "--suppliers", "2",
                        "--seed", "9", "--out", str(out))
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_round_trips(self):
        r = run_cli("gen", "--n", "3", "--consumers", "1", "--suppliers", "1",
                    "--seed", "2")
        assert r.returncode == 0
        market = specio.market_from_document(json.loads(r.stdout))
        assert specio.dumps_document(specio.market_to_document(market)) == r.stdout

    def test_rejects_bad_counts(self):
        r = run_cli("gen", "--n", "0", "--consumers", "1", "--suppliers", "1")
        assert r.returncode == 1
        # the arguments are no document, so the error names no path
        assert r.stderr == "error: n: must be an integer >= 1, got 0\n"


class TestSolve:
    def test_single_good_demo(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        r = run_cli("solve", "--market", SINGLE_GOOD, "--scheme", "basic",
                    "--trace", str(trace_path))
        assert r.returncode == 0, r.stderr
        assert "converged=true" in r.stdout
        table = specio.read_trace(str(trace_path))
        assert table.price[0] == pytest.approx(3.0, abs=1e-8)

    def test_iteration_cap_exit_code(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        r = run_cli("solve", "--market", SINGLE_GOOD, "--max-iters", "3",
                    "--trace", str(trace_path))
        assert r.returncode == 2
        table = specio.read_trace(str(trace_path))
        assert table.iterations == 3
        # prices so far above z that p - z rounds to p: no false convergence
        p0 = tmp_path / "p0.json"
        p0.write_text(json.dumps([1e18] * 6))
        r = run_cli("solve", "--market", MARKET_N6, "--p0", str(p0), "--max-iters", "200")
        assert r.returncode == 2, r.stderr
        assert "iters=64 converged=false " in r.stdout  # stalled after one block
        assert "residual=0.000e+00" not in r.stdout

    def test_oversized_step_refused(self):
        # single-good smoothness constant is 4, so the cap is 0.25
        r = run_cli("solve", "--market", SINGLE_GOOD, "--step", "0.5")
        assert r.returncode == 1
        assert "smoothness" in r.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tolerance"), ("--tol", "inf", "tolerance"),
        ("--tol", "-1e-8", "tolerance"), ("--step", "nan", "step size"),
    ])
    def test_bad_tol_or_step_is_a_config_error(self, flag, value, message):
        r = run_cli("solve", "--market", SINGLE_GOOD, f"{flag}={value}")
        assert r.returncode == 1
        assert r.stderr.startswith(f"error: {message}")
        assert "Traceback" not in r.stderr

    def test_scheme_choices_are_the_solver_schemes(self):
        r = run_cli("solve", "--help")
        assert "{" + ",".join(SCHEMES) + "}" in r.stdout
        r = run_cli("solve", "--market", SINGLE_GOOD, "--scheme", "newton")
        assert r.returncode == 2 and "invalid choice" in r.stderr

    def test_missing_file(self):
        r = run_cli("solve", "--market", "no_such_file.json")
        assert r.returncode == 1

    def test_malformed_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("solve", "--market", str(bad))
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_invalid_spec_diagnostic(self, tmp_path):
        doc = specio.generate_market(3, 1, 1, seed=0)
        doc["consumers"][0]["nests"][0]["mu"] = 1.5
        bad = tmp_path / "bad_mu.json"
        bad.write_text(specio.dumps_document(doc))
        r = run_cli("solve", "--market", str(bad))
        assert r.returncode == 1
        assert "mu out of range" in r.stderr

    def test_non_finite_ter_is_not_converged(self, monkeypatch, capsys):
        kernel = _FlatMarket.kernel

        def overflowing(self, x, value, grad):  # TER overflows, z stays finite
            return (-np.inf if value else None), kernel(self, x, value, grad)[1]

        monkeypatch.setattr(_FlatMarket, "kernel", overflowing)
        returncode = cli.main(["solve", "--market", MARKET_N6])
        stdout, stderr = capsys.readouterr()
        assert returncode == 1
        assert "non-finite potential value (TER) at iteration 1" in stderr
        assert "Traceback" not in stderr
        assert "converged" not in stdout

    def test_p0_file(self, tmp_path):
        p0 = tmp_path / "p0.json"
        p0.write_text("[2.9]")
        r = run_cli("solve", "--market", SINGLE_GOOD, "--p0", str(p0))
        assert r.returncode == 0

    def test_p0_of_wrong_length(self, tmp_path):
        p0 = tmp_path / "p0.json"
        p0.write_text("[1.0, 2.0]")
        r = run_cli("solve", "--market", SINGLE_GOOD, "--p0", str(p0))
        assert r.returncode == 1
        assert "initial prices have shape (2,), expected (1,)" in r.stderr
        assert "Traceback" not in r.stderr

    def test_non_numeric_p0(self, tmp_path):
        p0 = tmp_path / "p0.json"
        for text, message in (('["a"]', "expected a number, got str"),
                              ("[true]", "expected a number, got bool"),  # numpy reads 1.0
                              # a number, but TER and <p, z> overflow there
                              ("[1e308]", "magnitude exceeds 1e+50")):
            p0.write_text(text)
            r = run_cli("solve", "--market", SINGLE_GOOD, "--p0", str(p0))
            assert r.returncode == 1
            assert r.stderr == f"error: p0[0]: {message}\n"  # and no warning

    def test_p0_that_is_not_json(self, tmp_path):
        # the spec reader's JSON reader, the error at the option's name
        p0 = tmp_path / "p0.json"
        for content in (b"not json", b"\xff\xfe"):
            p0.write_bytes(content)
            r = run_cli("solve", "--market", SINGLE_GOOD, "--p0", str(p0))
            assert r.returncode == 1
            assert r.stderr.startswith("error: p0: invalid JSON: ")
            assert r.stderr.count("\n") == 1

    def test_summary_is_the_last_trace_row(self, tmp_path):
        trace_path = tmp_path / "run.csv"
        r = run_cli("solve", "--market", MARKET_N6, "--trace", str(trace_path))
        assert r.returncode == 0, r.stderr
        fields = dict(kv.split("=", 1) for kv in r.stdout.split())
        table = specio.read_trace(str(trace_path))
        assert float(fields["ter"]) == table.ter[-1]
        assert fields["residual"] == f"{table.grad_norm[-1]:.3e}"
        assert fields["min_excess"] == f"{table.min_excess[-1]:.3e}"
        assert fields["complementarity"] == f"{table.complementarity[-1]:.3e}"

    @pytest.mark.parametrize("keys, value", [
        (("suppliers", 0, "y_nat", 0), float("nan")),
        (("suppliers", 0, "y_nat", 0), float("inf")),
        (("suppliers", 0, "base_cost", "c", 0), float("nan")),
        (("suppliers", 0, "base_cost", "c", 0), float("inf")),
        (("suppliers", 0, "gamma"), float("nan")),
        (("suppliers", 0, "gamma"), float("inf")),
        (("suppliers", 0, "capacity", "hi", 0), float("nan")),
        (("suppliers", 0, "capacity", "hi", 0), float("inf")),
        (("consumers", 0, "count"), float("inf")),
        (("consumers", 0, "utilities", 0), float("nan")),
    ])
    def test_non_finite_field_is_a_coded_error(self, tmp_path, keys, value):
        doc = json.loads((SPEC_DIR / "market_n6.json").read_text(encoding="utf-8"))
        set_leaf(doc, keys, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # writes the JSON extensions NaN and Infinity
        r = run_cli("solve", "--market", str(bad))
        assert r.returncode == 1
        assert r.stderr == f"error: {json_path(keys)}: must be finite [non-finite]\n"

    def test_accelerated_scheme(self):
        r = run_cli("solve", "--market", MARKET_N6, "--scheme", "accelerated")
        assert r.returncode == 0, r.stderr
        assert "scheme=accelerated" in r.stdout


class TestVerify:
    def test_unknown_suite(self):
        r = run_cli("verify", "--market", SINGLE_GOOD, "--suite", "nonsense")
        assert r.returncode == 1
        assert "unknown suite" in r.stderr

    def test_negative_seed(self):
        r = run_cli("verify", "--market", SINGLE_GOOD, "--suite", "gradient", "--seed", "-1")
        assert r.returncode == 1
        assert r.stderr == "error: seed: must be an integer >= 0, got -1\n"
        assert r.stdout == ""

    def test_gradient_suite_passes(self):
        r = run_cli("verify", "--market", SINGLE_GOOD, "--suite", "gradient")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "pass" in r.stdout

    def test_correlation_suite_small_sample(self):
        r = run_cli("verify", "--market", MARKET_N6, "--suite", "correlation",
                    "--samples", "200000")
        assert r.returncode == 0, r.stdout + r.stderr

    def test_montecarlo_suite(self):
        r = run_cli("verify", "--market", MARKET_N6, "--suite", "montecarlo",
                    "--samples", "100000")
        assert r.returncode == 0, r.stdout + r.stderr


class TestRate:
    def _write_power_law_trace(self, path, exponent=-1.0):
        t = np.arange(1, 201, dtype=float)
        gaps = 3.0 * t**exponent
        trace = Trace(
            scheme="basic", step=0.1, ter=gaps, grad_norm=np.zeros_like(t),
            min_excess=np.zeros_like(t), complementarity=np.zeros_like(t),
            steps=np.full_like(t, 0.1), price=np.zeros(2), stop="tol",
        )
        specio.write_trace(trace, str(path))

    def test_exact_power_law_slope(self, tmp_path):
        path = tmp_path / "t.csv"
        self._write_power_law_trace(path)
        r = run_cli("rate", "--trace", str(path), "--ter-star", "0.0")
        assert r.returncode == 0
        slope = float(r.stdout.split("slope=")[1].split()[0])
        assert slope == pytest.approx(-1.0, abs=0.01)

    def test_missing_trace(self):
        r = run_cli("rate", "--trace", "nope.csv", "--ter-star", "0.0")
        assert r.returncode == 1

    @pytest.mark.parametrize("ter_star", ["nan", "inf"])
    def test_non_finite_ter_star(self, tmp_path, ter_star):
        path = tmp_path / "t.csv"
        self._write_power_law_trace(path)
        r = run_cli("rate", "--trace", str(path), f"--ter-star={ter_star}")
        assert r.returncode == 1
        assert r.stderr == f"error: ter_star must be finite, got {ter_star}\n"

    def test_solver_trace_end_to_end(self, tmp_path):
        trace_path = tmp_path / "run.csv"
        r = run_cli("solve", "--market", MARKET_N6, "--trace", str(trace_path))
        assert r.returncode == 0
        ter_star = float(r.stdout.split("ter=")[1].split()[0])
        r2 = run_cli("rate", "--trace", str(trace_path), "--ter-star", repr(ter_star))
        assert r2.returncode == 0
        slope = float(r2.stdout.split("slope=")[1].split()[0])
        assert slope <= -0.85


class TestErrorBoundary:
    """`main` reports every package error and OSError as one line, exit 1."""

    @pytest.fixture
    def inputs(self, tmp_path):
        """U: every capacity.hi = 0.1 (unproductive), H: y_nat[0] = 1e200,
        B: bytes that are not UTF-8, D: a path in a missing directory."""
        unproductive, huge = (json.loads((SPEC_DIR / "market_n6.json").read_text(encoding="utf-8"))
                              for _ in range(2))
        for s in unproductive["suppliers"]:
            s["capacity"]["hi"] = [0.1] * unproductive["n"]
        huge["suppliers"][0]["y_nat"][0] = 1e200
        paths = {"U": tmp_path / "U", "H": tmp_path / "H", "B": tmp_path / "B",
                 "D": tmp_path / "missing" / "x.json"}
        paths["U"].write_text(json.dumps(unproductive))
        paths["H"].write_text(json.dumps(huge))
        paths["B"].write_bytes(b"\xff\xfe")
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("args", [
        ("gen", "--n", "3", "--consumers", "1", "--suppliers", "1", "--out", "D"),
        ("verify", "--market", "U", "--suite", "bounds"),
        ("verify", "--market", "H", "--suite", "bounds"),
        ("solve", "--market", "B"),
        ("verify", "--market", "B", "--suite", "all"),
        ("solve", "--market", MARKET_N6, "--p0", "B"),
        ("rate", "--trace", "B", "--ter-star", "0"),
    ])
    def test_package_error_is_one_line(self, inputs, args):
        r = run_cli(*(inputs.get(a, a) for a in args))
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(market, config):
            raise ZeroDivisionError("a defect")

        monkeypatch.setattr(cli, "solve", broken)
        with pytest.raises(ZeroDivisionError, match="a defect"):
            cli.main(["solve", "--market", SINGLE_GOOD])


class TestLogging:
    def test_info_logging_to_stderr(self):
        import os

        env = dict(os.environ, MARKETCLEAR_LOG="info")
        r = run_cli("solve", "--market", SINGLE_GOOD, env=env)
        assert r.returncode == 0
        assert "solve" in r.stderr


def test_same_outcome_in_process_and_as_a_module(tmp_path):
    # every command, exit codes 0, 1 and 2, and an argparse usage error
    trace = str(tmp_path / "trace.csv")
    argvs = [
        ("gen", "--n", "3", "--consumers", "1", "--suppliers", "1", "--seed", "2"),
        ("solve", "--market", MARKET_N6, "--scheme", "accelerated", "--trace", trace),
        ("solve", "--market", SINGLE_GOOD, "--max-iters", "3"),
        ("solve", "--market", "no_such_file.json"),
        ("solve", "--market", SINGLE_GOOD, "--scheme", "newton"),
        ("verify", "--market", SINGLE_GOOD, "--suite", "gradient"),
        ("verify", "--market", SINGLE_GOOD, "--suite", "nonsense"),
        ("rate", "--trace", trace, "--ter-star", "-100"),
        ("rate", "--trace", "nope.csv", "--ter-star", "0.0"),
    ]
    codes = set()
    for argv in argvs:
        here, there = run_cli(*argv), run_module(*argv)
        assert (here.returncode, here.stdout, here.stderr) == (
            there.returncode, there.stdout, there.stderr), argv
        codes.add(here.returncode)
    assert codes == {0, 1, 2}
    assert run_cli(*argvs[4]).stderr.startswith("usage: marketclear solve")


def test_import_does_not_load_scipy():
    # scipy costs about a third of a second and 20 MB at import; the
    # package, its CLI and its verification suites must not need it
    code = ("import sys, marketclear, marketclear.cli, marketclear.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
