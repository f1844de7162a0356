"""Command-line contract: outputs, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gegenexp.cli import main
from gegenexp.expansion import ExpansionParams, coeff_table


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestCoeffs:
    def test_csv_quadratic_kernel(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            [
                "coeffs", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--eps", "0", "--lmax", "2", "--mmax", "2",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ell,m,b"
        rows = [line.split(",") for line in lines[1:]]
        parsed = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert set(parsed) == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}
        assert parsed[(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert parsed[(1, 1)] == pytest.approx(-0.5, abs=1e-12)
        assert parsed[(2, 2)] == 0.0

    def test_odd_parity_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        main(
            [
                "coeffs", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--eps", "1", "--lmax", "2", "--mmax", "2",
                "--format", "csv", "--out", str(out),
            ]
        )
        keys = [
            tuple(map(int, line.split(",")[:2]))
            for line in out.read_text().splitlines()[1:]
        ]
        assert all((ell + m) % 2 == 1 for ell, m in keys)

    def test_json_round_trip_is_bit_exact(self, tmp_path):
        out = tmp_path / "t.json"
        main(
            [
                "coeffs", "--lambda", "1.7", "--mu", "0.9", "--nu", "2.3",
                "--eps", "0", "--lmax", "5", "--mmax", "4",
                "--format", "json", "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        table = coeff_table(ExpansionParams(1.7, 0.9, 2.3, 0), 5, 4)
        got = np.array(payload["values"]).reshape(6, 5)
        assert np.array_equal(got, table)
        assert payload["params"]["lambda"] == 1.7

    def test_chebyshev_point_table(self, tmp_path):
        # lambda = mu = 0 was refused; the table is the series' at the limit basis T_n
        out = tmp_path / "t.json"
        code = main(["coeffs", "--lambda", "0", "--mu", "0", "--nu", "3.5", "--eps", "1",
                     "--lmax", "4", "--mmax", "3", "--format", "json", "--out", str(out)])
        assert code == 0
        got = np.array(json.loads(out.read_text(encoding="utf-8"))["values"]).reshape(5, 4)
        assert np.array_equal(got, coeff_table(ExpansionParams(0.0, 0.0, 3.5, 1), 4, 3))

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--lambda", "1", "--mu", "1", "--nu", "1"])
        assert info.value.code == 2

    def test_domain_error_exits_2(self, tmp_path):
        code = main(
            [
                "coeffs", "--lambda", "-1", "--mu", "1", "--nu", "1",
                "--eps", "0", "--lmax", "2", "--mmax", "2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--lambda", "--mu", "--nu"])
    def test_nan_parameter_exits_2(self, flag, tmp_path, capsys):
        argv = ["coeffs", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--eps", "0", "--lmax", "2", "--mmax", "2",
                "--out", str(tmp_path / "x.csv")]
        argv[argv.index(flag) + 1] = "nan"
        assert main(argv) == 2
        name = {"--lambda": "lam", "--mu": "mu", "--nu": "nu"}[flag]
        rule = "exceed 0.0" if name == "nu" else "at least 0.0"
        assert capsys.readouterr().err == f"error: {name} must be finite and {rule}, got nan\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--mu", "--nu"])
    def test_infinite_parameter_exits_2(self, flag, value, tmp_path, capsys):
        argv = ["coeffs", "--lambda=1", "--mu=1", "--nu=1",
                "--eps", "0", "--lmax", "2", "--mmax", "2",
                "--out", str(tmp_path / "x.csv")]
        index = next(i for i, arg in enumerate(argv) if arg.startswith(f"{flag}="))
        argv[index] = f"{flag}={value}"
        assert main(argv) == 2
        name = {"--lambda": "lam", "--mu": "mu", "--nu": "nu"}[flag]
        rule = "exceed 0.0" if name == "nu" else "at least 0.0"
        assert capsys.readouterr().err == f"error: {name} must be finite and {rule}, got {value}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--lmax", "--mmax"])
    def test_negative_order_exits_2(self, flag, tmp_path, capsys):
        argv = ["coeffs", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--eps", "0", "--lmax", "2", "--mmax", "2",
                "--out", str(tmp_path / "x.csv")]
        argv[argv.index(flag) + 1] = "-1"
        assert main(argv) == 2
        err = capsys.readouterr().err
        name = {"--lmax": "L", "--mmax": "M"}[flag]
        assert err == f"error: {name} must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "x.csv").exists()


class TestEval:
    def test_hypothesis_violation_exits_3(self, tmp_path):
        code = main(
            [
                "eval", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--order", "4", "--grid", "3", "--out", str(tmp_path / "e.csv"),
            ]
        )
        assert code == 3

    def test_force_override_and_columns(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main(
            [
                "eval", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--order", "4", "--grid", "3", "--force", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,t,series,kernel,abs_err"
        assert len(lines) == 1 + 9
        worst = max(float(line.split(",")[4]) for line in lines[1:])
        assert worst < 1e-12

    def test_degenerate_grid(self, tmp_path):
        out = tmp_path / "e.csv"
        main(
            [
                "eval", "--lambda", "1", "--mu", "1", "--nu", "3.5",
                "--order", "10", "--grid", "1", "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("-1.0,-1.0,")

    def test_converged_orders_meet_tolerance(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main(
            [
                "eval", "--lambda", "1", "--mu", "1", "--nu", "3.5",
                "--order", "60", "--grid", "21", "--out", str(out),
            ]
        )
        assert code == 0
        worst = max(
            float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]
        )
        assert worst <= 1e-6

    def test_chebyshev_point_meets_tolerance(self, tmp_path):
        # truncation_order((0, 0, 3.5, 0), 1e-6) is (22, 22)
        out = tmp_path / "e.csv"
        code = main(["eval", "--lambda", "0", "--mu", "0", "--nu", "3.5", "--order", "22",
                     "--grid", "21", "--out", str(out)])
        assert code == 0
        worst = max(float(line.split(",")[4]) for line in out.read_text().splitlines()[1:])
        assert worst <= 1e-6

    @pytest.mark.parametrize("order", ["abc", "-2", "2,-3", "1,2,3"])
    def test_bad_order_exits_2(self, order, tmp_path, capsys):
        code = main(
            [
                "eval", "--lambda", "1", "--mu", "1", "--nu", "3.5",
                "--order", order, "--grid", "3", "--out", str(tmp_path / "e.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --order") and err.count("\n") == 1
        assert not (tmp_path / "e.csv").exists()


class TestBx:
    def test_prints_value(self, capsys):
        code = main(
            ["bx", "--lambda", "0.7", "--mu", "1.3", "--nu", "0.9",
             "--ell", "0", "--m", "0", "--x", "0"]
        )
        assert code == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(1.4810235188333072, rel=1e-13)

    def test_monomial_zero(self, capsys):
        main(
            ["bx", "--lambda", "0.7", "--mu", "1.3", "--nu", "0.9",
             "--ell", "0", "--m", "2", "--x", "0"]
        )
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_oracle_flag(self, capsys):
        code = main(
            ["bx", "--lambda", "1", "--mu", "1", "--nu", "1.2",
             "--ell", "1", "--m", "2", "--x", "0.6", "--oracle"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("oracle ")
        assert float(lines[2].split()[1]) <= 1e-7

    def test_large_index_at_unit_shear(self, capsys):
        # the Gauss sum's reciprocal gammas leave the double range here
        code = main(
            ["bx", "--lambda", "0.5", "--mu", "0.5", "--nu", "1.2",
             "--ell", "350", "--m", "1", "--x", "-1"]
        )
        assert code == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(2.45401338388946e-20, rel=1e-12, abs=0.0)

    def test_huge_parameter_exits_2(self, capsys):
        code = main(
            ["bx", "--lambda", "1e308", "--mu", "1", "--nu", "1",
             "--ell", "0", "--m", "0", "--x", "0.5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma argument 1e+308") and err.count("\n") == 1

    def test_overflow_exits_2(self, monkeypatch, capsys):
        # any OverflowError that escapes a closed form is a domain error
        from gegenexp import expansion as ex

        def boom(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(ex, "sheared_integral", boom)
        code = main(
            ["bx", "--lambda", "1", "--mu", "1", "--nu", "1.2",
             "--ell", "1", "--m", "2", "--x", "0.6"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: math range error\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--mu", "--nu"])
    def test_nan_parameter_exits_2(self, flag, capsys):
        argv = ["bx", "--lambda", "0.7", "--mu", "1.3", "--nu", "0.9",
                "--ell", "0", "--m", "0", "--x", "0"]
        argv[argv.index(flag) + 1] = "nan"
        assert main(argv) == 2
        out = capsys.readouterr()
        name, floor = {"--lambda": ("lam", -0.5), "--mu": ("mu", -0.5), "--nu": ("nu", 0.0)}[flag]
        assert out.out == ""
        assert out.err == f"error: {name} must be finite and exceed {floor}, got nan\n"

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--mu", "--nu"])
    def test_infinite_parameter_exits_2(self, flag, value, capsys):
        argv = ["bx", "--lambda=0.7", "--mu=1.3", "--nu=0.9",
                "--ell", "0", "--m", "0", "--x", "0.5"]
        index = next(i for i, arg in enumerate(argv) if arg.startswith(f"{flag}="))
        argv[index] = f"{flag}={value}"
        assert main(argv) == 2
        out = capsys.readouterr()
        name, floor = {"--lambda": ("lam", -0.5), "--mu": ("mu", -0.5), "--nu": ("nu", 0.0)}[flag]
        assert out.out == ""
        assert out.err == f"error: {name} must be finite and exceed {floor}, got {value}\n"

    @pytest.mark.parametrize(
        "variant, ell, m, lam, x, message",
        [("abs", 1, 0, "-5", "7", "lam must be finite and exceed -0.5, got -5.0"),
         ("abs", 1, 0, "-5", "0.5", "lam must be finite and exceed -0.5, got -5.0"),
         ("abssgn", 1, 1, "nan", "0.5", "lam must be finite and exceed -0.5, got nan"),
         ("abs", 1, 0, "1", "7", "x must lie in [-1, 1], got 7.0")],
        ids=["abs-lam-and-x", "abs-lam", "abssgn-lam-nan", "abs-x"],
    )
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_vanishing_variant_outside_domain_exits_2(self, variant, ell, m, lam, x, message,
                                                      oracle, capsys):
        # the parity zero was printed, and --oracle then divided by zero
        argv = ["bx", "--variant", variant, f"--lambda={lam}", "--mu", "1", "--nu", "1",
                "--ell", str(ell), "--m", str(m), "--x", x] + oracle
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_zero_over_zero_normalization_takes_its_limit(self, capsys):
        # u_prefactor(0, 0) reads Gamma(1) Gamma(0) / Gamma(0), which raised a
        # false pole and exited 2; its limit is 1, since u_0^0 = (1-s^2)^(-1/2)
        argv = ["bx", "--lambda", "0", "--mu", "1", "--nu", "1", "--ell", "0", "--m", "0",
                "--x", "0.5", "--oracle"]
        assert main(argv) == 0
        out = capsys.readouterr()
        value, oracle, abs_err = out.out.splitlines()
        assert oracle.startswith("oracle ") and abs_err.startswith("abs_err ")
        assert float(abs_err.split()[1]) <= 1e-9
        assert out.err == ""

    @pytest.mark.parametrize("degrees", [("1", "0"), ("3", "2")], ids=["ell-1", "ell-3-m-2"])
    def test_chebyshev_degree_is_checked_by_the_oracle(self, degrees, capsys):
        # at lam = 0 and ell >= 1 the closed form was printed and the oracle
        # then exited 2 with a gamma pole; it now integrates T_ell
        ell, m = degrees
        argv = ["bx", "--lambda", "0", "--mu", "1", "--nu", "1", "--ell", ell, "--m", m,
                "--x", "0.5", "--oracle"]
        assert main(argv) == 0
        out = capsys.readouterr()
        value, oracle, abs_err = out.out.splitlines()
        assert float(value) != 0.0 and oracle.startswith("oracle ")
        assert float(abs_err.split()[1]) <= 1e-9
        assert out.err == ""


class TestVerify:
    def test_single_suite_report(self, capsys):
        code = main(["verify", "--suite", "mehta", "--cases", "1", "--no-timing"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["overall_pass"] is True
        assert report["suite"] == "mehta"
        assert report["cases"][0]["identity"] == "gaussian-pair-kernel"
        assert report["cases"][0]["abs_err"] <= 1e-8

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(
                ["verify", "--suite", "stz", "--cases", "2", "--seed", "7",
                 "--no-timing", "--out", str(path)]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_failing_tolerance_exits_1(self, tmp_path):
        code = main(
            ["verify", "--suite", "mehta", "--cases", "1", "--tol", "1e-30",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1

    def test_zero_cases_exits_1(self, capsys):
        code = main(["verify", "--suite", "mehta", "--cases", "0", "--no-timing"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["overall_pass"] is False
        assert report["cases"] == []

    @pytest.mark.parametrize(
        "flags", [["--tol", "0"], ["--tol", "-1"], ["--cases", "-1"], ["--seed", "-1"],
                  ["--tol", "inf"], ["--tol", "nan"]]
    )
    def test_usage_error_exits_2(self, flags, capsys):
        # --tol inf once ran the suite and reported "tol": null
        code = main(["verify", "--suite", "mehta", "--no-timing", *flags])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "must be" in err and err.startswith("error: ") and err.count("\n") == 1


class TestExitCodes:
    def test_oracle_nonconvergence_exits_4(self, monkeypatch, capsys):
        from gegenexp import verify as vf
        from gegenexp.oracle import OracleConvergenceError

        def boom(*args, **kwargs):
            raise OracleConvergenceError("stalled", value=0.0, est_error=1.0)

        monkeypatch.setattr(vf, "sheared_oracle", boom)
        code = main(
            ["bx", "--lambda", "1", "--mu", "1", "--nu", "1.2",
             "--ell", "1", "--m", "2", "--x", "0.6", "--oracle"]
        )
        assert code == 4


    def test_2f1_nonconvergence_exits_4(self, monkeypatch, capsys):
        from gegenexp import expansion as ex
        from gegenexp.specfun import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("2F1 series did not converge")

        monkeypatch.setattr(ex, "sheared_integral", boom)
        code = main(
            ["bx", "--lambda", "1", "--mu", "1", "--nu", "1.2",
             "--ell", "1", "--m", "2", "--x", "0.6"]
        )
        assert code == 4
        assert "did not converge" in capsys.readouterr().err


class TestUnwritableOut:
    """An --out that cannot be opened is a usage error (exit 2, one error
    line), not a failing suite (exit 1) or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--lambda", "1", "--mu", "1", "--nu", "1", "--eps", "0",
             "--lmax", "2", "--mmax", "2"],
            ["verify", "--suite", "tv", "--cases", "1"],
        ],
        ids=["coeffs", "verify"],
    )
    def test_exits_2_without_traceback(self, argv, tmp_path):
        out = tmp_path / "missing" / "t.out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "gegenexp.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(out) in proc.stderr
        assert not out.exists()


class TestCsvRoundTrip:
    def test_values_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "t.csv"
        main(
            [
                "coeffs", "--lambda", "1.7", "--mu", "0.9", "--nu", "2.3",
                "--eps", "1", "--lmax", "6", "--mmax", "6",
                "--format", "csv", "--out", str(out),
            ]
        )
        table = coeff_table(ExpansionParams(1.7, 0.9, 2.3, 1), 6, 6)
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            ell, m, b = line.split(",")
            assert float(b) == table[int(ell), int(m)]


def _fresh_python(code: str) -> str:
    """Standard output of code run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    """The package runs on numpy alone: importing the CLI must not pull in
    scipy (whose import used to be most of a cold start), nor
    concurrent.futures, since the suites run serially."""
    code = (
        "import gegenexp.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    assert _fresh_python(code) == "[]"


def test_hermite_oracle_loads_no_numpy_polynomial():
    """The Hermite rules come from the package's own Golub-Welsch solve, so
    a Hermite oracle call leaves numpy.polynomial, whose lazy import took
    ~4 ms, unloaded."""
    code = (
        "import gegenexp, sys; gegenexp.integrate_hermite_2d(1.0, 0.5, 2, 2, 1e-6); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    assert _fresh_python(code) == "[]"


def test_suites_load_no_numpy_submodule():
    """Past importing the package, running every suite loads no numpy
    submodule: the cases are drawn by the standard library's random.Random,
    where numpy.random's lazy import took 9-15 ms of a fresh verify run, and
    np.unique, for one, lazily imports numpy.ma, which took ~13 ms of a
    first df call."""
    code = (
        "import gegenexp.verify as vf, sys; before = set(sys.modules); "
        "vf.run_suite('all'); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))"
    )
    assert _fresh_python(code) == "[]"
