import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from btensor.cli import main
from btensor.datasets import example_path
from btensor.opnorms import SandwichViolation
from btensor.tensorio import dump_tensor, load_tensor
from btensor import Tensor

EX41 = str(example_path("ex41"))
EX42 = str(example_path("ex42"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_bundled_example_is_strict(self, capsys):
        code, out, err = run_cli(capsys, "classify", EX41)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "B"
        assert payload["row_sums"] == [57.0, 55.5, 54.5]
        assert "verdict: B" in err

    def test_tolerance_flag(self, capsys, tmp_path):
        path = tmp_path / "marginal.json"
        dump_tensor(Tensor.diagonal_tensor(2, 2, [1e-6, 1.0]), path)
        code, out, _ = run_cli(capsys, "classify", str(path), "--tol", "1e-3")
        assert code == 0
        assert json.loads(out)["verdict"] == "B0"

    def test_tolerance_verdict_gets_its_diagnostics(self, capsys, tmp_path):
        # B0 only within the tolerance: at tol 0 the second row sum, -1e-6, makes it Neither.
        path = tmp_path / "within_tol.json"
        path.write_text('{"order": 2, "dim": 2, "dense": [1.0, 0.0, 0.0, -0.000001]}')
        code, out, err = run_cli(capsys, "classify", str(path), "--tol", "1e-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "B0"
        assert payload["diagnostics"]["strict"] is False
        assert payload["diagnostics"]["rowsum_exceeds_cap"] == [True, False]
        assert err == "verdict: B0\n"

    @pytest.mark.parametrize("path", [EX41, EX42])
    def test_classifies_once(self, capsys, monkeypatch, path):
        from btensor import structure

        calls = []
        classify = structure.classify
        monkeypatch.setattr(structure, "classify", lambda *a, **k: calls.append(1) or classify(*a, **k))
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert "diagnostics" in json.loads(out)
        assert len(calls) == 1

    def test_non_finite_entry_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"order": 3, "dim": 2, "dense": [1, 0, 0, NaN, 0, 0, 0, 1]}')
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert not out
        assert "must be finite" in err

    def test_negative_tol_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "classify", EX41, "--tol", "-1")
        assert code == 2
        assert not out
        assert "tol must be >= 0" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "no-such-file.json")
        assert code == 2
        assert "error" in err

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "line 1" in err


class TestSemipositiveCommand:
    def test_bundled_example_clean(self, capsys):
        code, out, _ = run_cli(capsys, "semipositive", EX41, "--mode", "strict", "--grid", "8")
        assert code == 0
        payload = json.loads(out)
        assert not payload["violated"]
        assert payload["worst_value"] > 0

    def test_violation_sets_exit_code(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        dump_tensor(Tensor.diagonal_tensor(3, 2, -1.0), path)
        code, out, _ = run_cli(capsys, "semipositive", str(path), "--mode", "strict")
        assert code == 1
        assert json.loads(out)["violated"]

    def test_grid_over_the_point_budget_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "semipositive", EX42, "--grid", "100000")
        assert code == 2
        assert not out
        assert err.startswith("error: simplex lattice has ")


class TestBoundsCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", EX41, "--op", "T", "--norm", "inf")
        assert code == 0
        payload = json.loads(out)
        assert payload["general_upper"] == 57.0
        assert payload["b_upper"] == 54.0
        assert payload["empirical_estimate"] is None

    def test_estimate_included_on_request(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", EX41, "--op", "T", "--norm", "inf",
            "--estimate", "--samples", "16", "--steps", "5", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["b_lower"] <= payload["empirical_estimate"] <= payload["b_upper"] + 1e-9

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", EX42, "--op", "T", "--norm", "p", "--p", "2", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        # The report's fields in their order, less the witness vector.
        assert header == "operator,norm,variant,strict,general_upper,b_lower,b_upper,empirical_estimate"
        cells = row.split(",")
        assert cells[0] == "T"
        assert abs(float(cells[6]) - 48.0) <= 1e-9

    def test_odd_order_f_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        dump_tensor(Tensor.diagonal_tensor(3, 2), path)
        code, _, err = run_cli(capsys, "bounds", str(path), "--op", "F")
        assert code == 2
        assert "even order" in err

    @pytest.mark.parametrize("estimate", [[], ["--estimate"]])
    @pytest.mark.parametrize("op", ["T", "F"])
    def test_nonmember_is_refused_first(self, capsys, tmp_path, op, estimate):
        # With or without the estimate, membership is checked before the order F needs.
        path = tmp_path / "neither.json"
        dump_tensor(Tensor.diagonal_tensor(3, 2, [-1.0, 1.0]), path)
        code, out, err = run_cli(capsys, "bounds", str(path), "--op", op, *estimate)
        assert code == 2
        assert not out
        assert err == "error: operation needs at least a B0 tensor, classification is Neither\n"

    @pytest.mark.parametrize("p", ["nan", "0.5"])
    def test_exponent_below_one_is_usage_error(self, capsys, p):
        # NaN once passed the p < 1 check and came out as "general_upper is nan".
        code, out, err = run_cli(capsys, "bounds", EX41, "--op", "T", "--norm", "p", "--p", p)
        assert code == 2
        assert not out
        assert err == f"error: norm exponent must be >= 1 or inf, got {float(p)}\n"

    def test_negative_steps_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bounds", EX41, "--op", "T", "--estimate", "--steps", "-1")
        assert code == 2
        assert not out
        assert err == "error: ascent_steps must be >= 0, got -1\n"

    def test_overflowing_bound_is_usage_error(self, capsys, tmp_path):
        big = load_tensor(EX41).array.copy()
        big[0, 0, 0, 0] = 1e308
        path = tmp_path / "big.json"
        dump_tensor(Tensor(big), path)
        code, out, err = run_cli(
            capsys, "bounds", str(path), "--op", "T", "--norm", "p", "--p", "2", "--estimate"
        )
        assert code == 2
        assert not out
        assert err.startswith("error: general_upper is inf")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("estimate", [[], ["--estimate"]])
    def test_overflowing_bound_is_named_without_warnings(self, capsys, tmp_path, estimate):
        big = load_tensor(EX41).array.copy()
        big[1, 1, 1, 1] = 1e308
        path = tmp_path / "big.json"
        dump_tensor(Tensor(big), path)
        code, out, err = run_cli(capsys, "bounds", str(path), "--op", "T", *estimate)
        assert code == 2
        assert not out
        assert err == "error: b_upper is inf: the entries overflow the closed-form bound\n"

    def test_sandwich_violation_is_verification_failure(self, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise SandwichViolation("estimate 2.0 outside [0.0, min(1.0, 1.0)]")

        monkeypatch.setattr("btensor.opnorms.bound_report", violated)
        code, out, err = run_cli(capsys, "bounds", EX41, "--op", "T", "--estimate")
        assert code == 1
        assert not out
        assert err.startswith("error: estimate 2.0 outside")

    def test_other_arithmetic_error_is_not_a_verification_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("not a sandwich check")

        monkeypatch.setattr("btensor.structure.classify", broken)
        with pytest.raises(ZeroDivisionError):
            main(["classify", EX41])


class TestEigenCommand:
    def test_verified_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", EX41, "--kind", "h", "--starts", "8", "--seed", "7",
            "--verify-bounds",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"]
        assert payload["bound_report"]["all_within"]
        assert all(p["residual"] <= 1e-8 for p in payload["pairs"])

    @pytest.mark.parametrize("kind", ["h", "z"])
    def test_verify_bounds_classifies_once(self, capsys, monkeypatch, kind):
        from btensor import structure

        calls = []
        classify = structure.classify
        monkeypatch.setattr(structure, "classify", lambda *a, **k: calls.append(1) or classify(*a, **k))
        code, out, _ = run_cli(capsys, "eigen", EX41, "--kind", kind, "--starts", "4", "--verify-bounds")
        assert code == 0
        assert json.loads(out)["bound_report"]["all_within"]
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["h", "z"])
    def test_starts_below_one_is_usage_error(self, capsys, kind):
        code, out, err = run_cli(capsys, "eigen", EX41, "--kind", kind, "--starts", "-3")
        assert code == 2
        assert not out
        assert "starts must be >= 1" in err

    def test_z_zero_iterate_is_not_a_crash(self, capsys, tmp_path):
        path = tmp_path / "huge_diagonal.json"
        dump_tensor(Tensor.diagonal_tensor(3, 2, [1e200, 1.0]), path)
        code, out, err = run_cli(capsys, "eigen", str(path), "--kind", "z", "--starts", "8")
        assert code == 0
        assert "Traceback" not in err
        assert all(p["residual"] <= 1e-8 for p in json.loads(out)["pairs"])

    def test_pair_outside_the_bound_is_verification_failure(self, capsys, monkeypatch):
        # No pair the search finds on a member breaks its bound, so the search is replaced by
        # one that returns an H-pair far beyond ex41's bound of about 152.6.
        from btensor import spectral

        outside = spectral.EigenPair(kind="H", value=1000.0, vector=np.eye(3)[0], residual=0.0)
        monkeypatch.setattr(spectral, "find_h_eigenpairs", lambda *args, **kwargs: [outside])
        code, out, err = run_cli(capsys, "eigen", EX41, "--kind", "h", "--verify-bounds")
        assert code == 1
        report = json.loads(out)["bound_report"]
        assert report["max_abs_h"] == 1000.0 and not report["all_within"]
        assert err == "found 1 h-pairs\n"

    def test_z_kind(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", EX42, "--kind", "z", "--starts", "6", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert all(abs(np.linalg.norm(p["vector"]) - 1.0) <= 1e-10 for p in payload["pairs"])


class TestTcpCommand:
    def test_solve(self, capsys):
        code, out, _ = run_cli(capsys, "tcp", "solve", EX41, "--q", "[-1,-1,-1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["residual"] <= 1e-8

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "tcp", "bounds", EX41, "--q", "[-1,-1,-1]")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lb_inf"] - 1.0 / 162.0) <= 1e-12

    def test_verify_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "tcp", "solve", EX41, "--q", "[-1,-1,-1]")
        x = json.loads(out)["x"]
        code, out, _ = run_cli(
            capsys, "tcp", "verify", EX41, "--q", "[-1,-1,-1]", "--x", json.dumps(x)
        )
        assert code == 0
        assert json.loads(out)["holds"]

    def test_dimension_mismatch_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tcp", "solve", EX41, "--q", "[-1,-1]")
        assert code == 2
        assert "length 3" in err

    def test_starts_below_one_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tcp", "solve", EX41, "--q", "[-1,-1,-1]", "--starts", "0")
        assert code == 2
        assert not out
        assert "starts must be >= 1" in err

    @pytest.mark.parametrize("vector", ["[NaN,-1,-1]", "[-1,Infinity,-1]", "[1e400,-1,-1]", '{"a": 1}', "[1,"])
    @pytest.mark.parametrize(
        "argv", [["solve", EX41, "--q"], ["verify", EX41, "--q", "[-1,-1,-1]", "--x"]]
    )
    def test_bad_vector_is_usage_error(self, capsys, argv, vector):
        code, out, err = run_cli(capsys, "tcp", *argv, vector)
        assert code == 2
        assert not out
        assert err.startswith("error: vector")

    @pytest.mark.parametrize("vector", ['["-1", true, "-1"]', '[false, "-2", -1]', "[[-1, -1, -1]]"])
    @pytest.mark.parametrize(
        "argv",
        [["solve", EX41, "--q"], ["bounds", EX41, "--q"], ["verify", EX41, "--q", "[-1,-1,-1]", "--x"]],
        ids=["solve-q", "bounds-q", "verify-x"],
    )
    def test_vector_of_strings_or_booleans_is_usage_error(self, capsys, argv, vector):
        # numpy would read "-1" as -1 and true as 1; the vector takes JSON numbers only, as a
        # tensor's dense list does.
        code, out, err = run_cli(capsys, "tcp", *argv, vector)
        assert (code, out) == (2, "")
        assert err == "error: vector must be a JSON list of numbers\n"

    @pytest.mark.parametrize(
        "command,flag",
        [("bounds", "--starts"), ("bounds", "--tol"), ("bounds", "--seed"), ("verify", "--starts"), ("verify", "--seed")],
    )
    def test_flags_a_command_does_not_read_are_refused(self, capsys, command, flag):
        x = ["--x", "[1,1,1]"] if command == "verify" else []
        with pytest.raises(SystemExit) as exc:
            main(["tcp", command, EX41, "--q", "[-1,-1,-1]", *x, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_bounds_that_fail_are_a_verification_failure(self, capsys):
        # Within tol 10, x = (1e-6, 0, 0) counts as converged, but its norm is far below the bounds.
        code, out, err = run_cli(
            capsys, "tcp", "verify", EX41, "--q", "[-1,-1,-1]", "--x", "[1e-6,0,0]", "--tol", "10"
        )
        assert code == 1
        assert json.loads(out)["holds"] is False
        assert err == "bounds hold: False\n"

    def test_zero_solution_verify_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "tcp", "verify", EX41, "--q", "[1,1,1]", "--x", "[0,0,0]"
        )
        assert code == 2
        assert "nonzero" in err


class TestParserReuse:
    """One parser serves every ``main`` call of a process, as a fresh one per call would."""

    Q = ["--q", "[-1,-1,-1]"]

    def run_sequence(self, capsys, monkeypatch, tmp_path):
        # A B0 matrix whose 2-norm is not attained at a fixed start, so the estimate depends on the seed.
        matrix, manifest = tmp_path / "matrix.json", tmp_path / "manifest.json"
        matrix.write_text('{"order": 2, "dim": 2, "dense": [1.0, 1.0, 0.0, 1.0]}')
        bounds = ["bounds", str(matrix), "--op", "T", "--norm", "p", "--estimate", "--samples", "4", "--steps", "1"]
        runs = []

        def run(*argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            runs.append((argv, code, *capsys.readouterr()))
            return runs[-1]

        run(*bounds, "--seed", "3")
        monkeypatch.setenv("BTENSOR_SEED", "5")
        run(*bounds)
        monkeypatch.delenv("BTENSOR_SEED")
        run(*bounds)
        run("bounds", EX41, "--op", "X")
        run("tcp", "bounds", EX41, *self.Q, "--seed", "1")
        x = json.loads(run("tcp", "solve", EX41, *self.Q, "--seed", "2")[2])["x"]
        run("tcp", "verify", EX41, *self.Q, "--x", json.dumps(x))
        run("tcp", "bounds", EX41, *self.Q)
        run("--manifest", str(manifest), "tcp", "solve", EX41, *self.Q)
        recorded = json.loads(manifest.read_text())
        recorded.pop("wall_clock_ms")  # a timing, different on every run
        manifest.unlink()
        run("classify", EX41)  # no --manifest: the last run's must not carry over
        return runs, recorded, manifest.exists()

    def test_same_outputs_as_a_fresh_parser_per_call(self, capsys, monkeypatch, tmp_path):
        import btensor.cli as cli

        reused = self.run_sequence(capsys, monkeypatch, tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = self.run_sequence(capsys, monkeypatch, tmp_path)
        assert reused == fresh
        runs, recorded, rewritten = reused
        assert [code for _, code, _, _ in runs] == [0, 0, 0, 2, 2, 0, 0, 0, 0, 0]
        assert runs[0][2] != runs[1][2]  # seed 3, then seed 5 from the environment
        assert recorded["seed"] == 0 and recorded["command"].startswith("btensor --manifest")
        assert not rewritten

    def test_parser_is_built_once(self):
        import btensor.cli as cli

        assert cli.build_parser() is cli.build_parser()


class TestNonFiniteReport:
    """A report value that overflows to inf exits 2 with its JSON path, not json's message."""

    @staticmethod
    def run_module(*argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "btensor", *argv], capture_output=True, text=True, env=env, check=False
        )

    @pytest.mark.parametrize("kind", ["h", "z"])
    def test_eigen_bound_overflow_names_the_field(self, tmp_path, kind):
        big = load_tensor(EX41).array.copy()
        big[1, 1, 1, 1] = 1e308
        path = tmp_path / "big.json"
        dump_tensor(Tensor(big), path)
        run = self.run_module("eigen", str(path), "--kind", kind, "--verify-bounds")
        assert run.returncode == 2
        assert not run.stdout
        assert "error: bound_report.z_bound is inf" in run.stderr
        assert "Traceback" not in run.stderr
        assert "not JSON compliant" not in run.stderr

    def test_tcp_solve_overflow_names_the_field(self, tmp_path):
        path = tmp_path / "diag.json"
        dump_tensor(Tensor.diagonal_tensor(3, 2, [1e200, 1e200]), path)
        run = self.run_module("tcp", "solve", str(path), "--q", "[-1e300,-1]")
        assert run.returncode == 2
        assert not run.stdout
        assert "error: w[0] is inf" in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    def test_tcp_certificate_overflow_is_an_input_error(self, tmp_path, command):
        big = load_tensor(EX41).array.copy()
        big[0, 0, 0, 0] = 1e308
        path = tmp_path / "big.json"
        dump_tensor(Tensor(big), path)
        extra = ["--x", "[1e-3,0,0]", "--tol", "10"] if command == "verify" else []
        run = self.run_module("tcp", command, str(path), "--q", "[-1,-1,-1]", *extra)
        assert run.returncode == 2
        assert not run.stdout
        assert run.stderr.splitlines() == [
            "error: lb_inf overflows (numerator 1.0, denominator inf): the input is too large for the closed-form bound"
        ]

    def test_path_of_first_non_finite_value(self):
        from btensor.cli import _non_finite

        payload = {"b": [1.0, {"c": float("nan")}], "a": {"x": 2.0, "y": [0.0, -math.inf]}, "z": "inf"}
        path, value = _non_finite(payload)
        assert path == "a.y[1]" and value == -math.inf
        assert _non_finite({"a": [1.0, 2], "b": None, "c": "nan"}) is None


class TestTrialPointOverflow:
    """A Newton trial point that overflows is a length that does not help, not a warning."""

    def test_tcp_solve_at_order_40_converges_without_a_warning(self, tmp_path):
        # The entry `gen --m 40 --n 1` writes: the full step's trial point overflows x**39.
        path = tmp_path / "t.json"
        dump_tensor(Tensor.from_flat(40, 1, [0.2770888466262316]), path)
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-m", "btensor", "tcp", "solve", str(path), "--q", "[-1]"],
            capture_output=True, text=True, env=env, check=False, timeout=120,
        )
        assert run.returncode == 0
        report = json.loads(run.stdout)
        assert report["converged"] is True
        # stderr holds the summary line alone.
        assert run.stderr.splitlines() == [f"converged: True (residual {report['residual']:.3e})"]


class TestSizeLimit:
    """A tensor over the entry budget exits 2 naming its size, before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", '{"order": 40, "dim": 2, "entries": []}'],
            ["classify", '{"order": 40, "dim": 2, "dense": []}'],
            ["gen", "--m", "40", "--n", "2", "--kind", "random"],
            ["gen", "--m", "40", "--n", "2", "--kind", "B"],
        ],
    )
    def test_over_the_budget_is_usage_error(self, tmp_path, argv):
        if argv[0] == "classify":
            path = tmp_path / "huge.json"
            path.write_text(argv[1])
            argv = ["classify", str(path)]
        run = TestNonFiniteReport.run_module(*argv)
        assert run.returncode == 2
        assert not run.stdout
        assert run.stderr == "error: order 40, dim 2 is 1099511627776 entries, over the limit of 16777216\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", EX41, "--kind", "h", "--starts", "1000000000000000"],
            ["eigen", EX41, "--kind", "z", "--starts", "1000000000000000"],
            ["bounds", EX41, "--op", "T", "--estimate", "--samples", "1000000000000000"],
            # The first start alone converges on this instance; the count is refused before it runs.
            ["tcp", "solve", EX41, "--q", "[-1,-1,-1]", "--starts", "1000000000000000"],
        ],
        ids=["eigen-h", "eigen-z", "bounds", "tcp-solve"],
    )
    def test_count_over_the_budget_is_usage_error(self, argv):
        # Drawing these starts or samples asked numpy for 21.3 PiB and printed its MemoryError traceback.
        run = TestNonFiniteReport.run_module(*argv)
        assert run.returncode == 2
        assert not run.stdout
        name = "samples" if argv[0] == "bounds" else "starts"
        assert run.stderr == f"error: {name} 1000000000000000 at dim 3 is over the limit of 16777216 entries\n"

    def test_order_over_the_axis_limit_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"order": 65, "dim": 1, "entries": []}')
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert not out
        assert err == "error: order 65 is over numpy's limit of 64 axes\n"


class TestDeepNesting:
    """JSON nested past the decoder's recursion limit is an input error, not a traceback."""

    DEEP = "[" * 100_000

    @pytest.mark.parametrize("text", [DEEP, '{"order": 4, "dim": 3, "entries": ' + DEEP + "}"], ids=["top", "entries"])
    def test_tensor_file(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: JSON is nested too deeply to decode\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tcp", "solve", EX41, "--q", DEEP],
            ["tcp", "bounds", EX41, "--q", DEEP],
            ["tcp", "verify", EX41, "--q", DEEP, "--x", "[1,1,1]"],
            ["tcp", "verify", EX41, "--q", "[-1,-1,-1]", "--x", DEEP],
        ],
        ids=["solve-q", "bounds-q", "verify-q", "verify-x"],
    )
    def test_vector_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: vector is nested too deeply to decode\n"


class TestClosedStdout:
    """A reader that closes stdout before the report is written gets exit 1 and no error line."""

    @pytest.mark.parametrize("argv", [["classify", EX41], ["eigen", EX41, "--kind", "h"]])
    def test_exit_one_without_error_line(self, argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            run = subprocess.run(
                [sys.executable, "-m", "btensor", *argv], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=env, check=False, timeout=120,
            )
        finally:
            os.close(write_end)
        assert run.returncode == 1
        assert "error:" not in run.stderr
        assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr


class TestGenCommand:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--m", "4", "--n", "3", "--kind", "B", "--seed", "1")
        _, second, _ = run_cli(capsys, "gen", "--m", "4", "--n", "3", "--kind", "B", "--seed", "1")
        assert first == second

    def test_random_kind_deterministic_bytes(self, capsys):
        argv = ["gen", "--m", "3", "--n", "2", "--kind", "random", "--seed", "5"]
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0 and len(json.loads(first[1])["dense"]) == 8

    @pytest.mark.parametrize("kind,verdict", [("B", "B"), ("B0", "B0")])
    def test_kinds_classify_as_labeled(self, capsys, tmp_path, kind, verdict):
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(
            capsys, "gen", "--m", "3", "--n", "3", "--kind", kind, "--seed", "9",
            "--out", str(path),
        )
        assert code == 0
        from btensor import classify

        assert classify(load_tensor(path)).verdict == verdict

    def test_diagonal_kind(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        run_cli(capsys, "gen", "--m", "3", "--n", "2", "--kind", "diagonal", "--out", str(path))
        tensor = load_tensor(path)
        assert np.array_equal(tensor.diagonal, [1.0, 1.0])
        assert tensor.entries.sum() == 2.0

    def test_file_round_trip_is_identical(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        run_cli(capsys, "gen", "--m", "3", "--n", "2", "--kind", "B", "--seed", "4",
                "--out", str(path))
        reparsed = tmp_path / "b2.json"
        dump_tensor(load_tensor(path), reparsed)
        assert path.read_bytes() == reparsed.read_bytes()

    @pytest.mark.parametrize("kind", ["B", "B0", "random", "diagonal"])
    @pytest.mark.parametrize("m,n", [(1, 2), (3, 0)])
    def test_shape_of_no_tensor_is_usage_error(self, capsys, kind, m, n):
        # Order 1 once raised IndexError in the B generator, dim 0 a numpy reshape error.
        code, out, err = run_cli(capsys, "gen", "--m", str(m), "--n", str(n), "--kind", kind)
        assert (code, out) == (2, "")
        assert err == f"error: a tensor needs order >= 2 and dim >= 1, got order {m}, dim {n}\n"

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BTENSOR_SEED", "31")
        _, via_env, _ = run_cli(capsys, "gen", "--m", "3", "--n", "2", "--kind", "B")
        monkeypatch.delenv("BTENSOR_SEED")
        _, via_flag, _ = run_cli(capsys, "gen", "--m", "3", "--n", "2", "--kind", "B",
                                 "--seed", "31")
        assert via_env == via_flag


class TestSeedChecks:
    """A seed from the flag or from the environment is checked before the command runs, whether
    or not anything draws with it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", EX41, "--kind", "h"],
            ["tcp", "solve", EX41, "--q", "[-1,-1,-1]"],  # its first start converges without a draw
            ["bounds", EX41, "--op", "T"],  # nothing draws without --estimate
        ],
    )
    def test_negative_flag_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-5")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a non-negative integer, got -5\n"

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_environment_seed_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BTENSOR_SEED", value)
        code, out, err = run_cli(capsys, "eigen", EX41, "--kind", "h", "--starts", "4")
        assert (code, out) == (2, "")
        assert err == f"error: BTENSOR_SEED must be a non-negative integer, got {value!r}\n"
        # The flag, when given, is the seed, and the environment is not read.
        assert run_cli(capsys, "eigen", EX41, "--kind", "h", "--starts", "4", "--seed", "0")[0] == 0


class TestTolChecks:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["tcp", "solve", EX41, "--q", "[-1,-1,-1]"],
            ["tcp", "verify", EX41, "--q", "[-1,-1,-1]", "--x", "[1,1,1]"],
            ["classify", EX41],
        ],
    )
    def test_tol_not_finite_or_negative_is_usage_error(self, capsys, argv, tol):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"error: tol must be >= 0 and finite, got {float(tol)}\n"


class TestVerifyPaperCommand:
    def test_all_claims_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert len(payload["claims"]) >= 12
        assert err.count("PASS") == len(payload["claims"])

    def test_tcp_claim_reuses_the_ex41_classification(self, capsys, monkeypatch):
        from btensor import structure, tcp

        reports, passed = [], []
        classify, verify = structure.classify, tcp.verify_solution_bounds
        monkeypatch.setattr(structure, "classify", lambda *a, **k: reports.append(classify(*a, **k)) or reports[-1])
        monkeypatch.setattr(tcp, "verify_solution_bounds", lambda *a: passed.append(a[3:]) or verify(*a))
        code, _, _ = run_cli(capsys, "verify-paper", "--seed", "7")
        assert code == 0
        # The claim's certificate gets the report of the first classification, that of ex41.
        assert len(passed) == 1 and passed[0][0] is reports[0]

    def test_each_tensor_is_classified_once(self, capsys, monkeypatch):
        from btensor import structure

        classified = []
        classify = structure.classify
        monkeypatch.setattr(structure, "classify", lambda t, *a, **k: classified.append(t) or classify(t, *a, **k))
        code, _, _ = run_cli(capsys, "verify-paper", "--seed", "7")
        assert code == 0
        # ex41, then ex42, each once: the claims reuse their classification reports.
        assert [t.dim for t in classified] == [3, 4]

    def test_manifest_written(self, capsys, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        code, _, _ = run_cli(
            capsys, "--manifest", str(manifest_path), "classify", EX41
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["payload"]["verdict"] == "B"
        assert len(manifest["input_hashes"]) == 1
        assert "wall_clock_ms" in manifest


class TestManifestErrors:
    """A manifest that cannot be written is an input error naming its path, after the report."""

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, where):
        path = tmp_path / "absent" / "manifest.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, "--manifest", str(path), "classify", EX41)
        assert code == 2
        assert json.loads(out)["verdict"] == "B"
        message, = err.splitlines()[1:]  # the first line is the verdict note
        assert message.startswith("error: ") and message.endswith(f"{str(path)!r}")
        assert "Traceback" not in err


class TestSubprocessDeterminism:
    def test_verify_paper_reports_are_byte_identical(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "btensor", "verify-paper", "--seed", "7"],
                capture_output=True,
                env=env,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty report
        # Golden stdout for seed 7: a change meant to keep every result keeps these bytes.
        golden = Path(__file__).resolve().parent / "data" / "verify_paper_seed7.json"
        assert runs[0].stdout == golden.read_bytes()

