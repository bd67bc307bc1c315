"""CLI behavior: subcommands, exit codes, report schema, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from l1rec.chebyshev import build_grid
from l1rec.cli import REPORT_KEYS, run



def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


class TestRip:
    def test_sufficient_case(self, capsys):
        code, report = run_json(
            ["rip", "--N", "11", "--n", "1", "--k", "1", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["delta"] == pytest.approx(4.0 / 13.0)
        assert report["sufficient"] is True

    def test_bruteforce(self, capsys):
        code, report = run_json(
            ["rip", "--N", "9", "--n", "1", "--k", "2", "--bruteforce", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert report["delta_bruteforce"] <= report["delta"] + 1e-10

    def test_schema_keys(self, capsys):
        _, report = run_json(
            ["rip", "--N", "5", "--n", "1", "--k", "0", "--no-timestamp"], capsys
        )
        for key in REPORT_KEYS:
            assert key in report
        assert "input_hash" in report


class TestApprox:
    def test_absx_degree2(self, capsys):
        code, report = run_json(
            ["approx", "--fn", "abs(x)", "--degree", "2", "--no-timestamp"], capsys
        )
        assert code == 0
        # the 3-node interpolant sqrt(2)x^2 (error 0.2761) is not optimal: its
        # residual only touches zero at x=0; the optimum interpolates at the
        # four U_4 roots with error (sqrt(5)-2)/2
        assert report["l1_error"] == pytest.approx((np.sqrt(5.0) - 2.0) / 2.0, abs=1e-9)
        assert report["path"] == "interpolant_shortcut"
        assert report["duality_gap"] is None  # no LP on the shortcut
        assert report["lp_points"] is None

    def test_errdata(self, capsys, tmp_path):
        err = tmp_path / "resid.csv"
        code, _ = run_cli(
            [
                "approx", "--fn", "abs(x)", "--degree", "2",
                "--errdata", str(err), "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        lines = err.read_text().splitlines()
        assert lines[0] == "x,residual"
        assert len(lines) == 2002
        first = lines[1].split(",")
        assert float(first[0]) == -1.0

    def test_parse_error_exit2(self, capsys):
        code = run(["approx", "--fn", "abs(x", "--degree", "2", "--no-timestamp"])
        assert code == 2

    def test_solver_failure_exit3(self, capsys, monkeypatch):
        from scipy.optimize import OptimizeResult

        failed = OptimizeResult(status=4, message="HiGHS Status 0: Not Set", x=None)
        monkeypatch.setattr("l1rec.lp.linprog", lambda *args, **kwargs: failed)
        code, report = run_json(
            ["approx", "--fn", "expsin10", "--degree", "4", "--no-timestamp"], capsys
        )
        assert code == 3
        assert report["path"] == "SolverFailure"
        assert "l1-fit LP failed" in report["error"]
        assert report["input"] == {"fn": "expsin10", "degree": 4, "tol": 1e-14}

    def test_degree_beyond_the_lp_guard_exit3(self, capsys):
        # |x| at n = 20480 does not certify at the noise floor, and the LP
        # start would need a 204,810 x 20481 Vandermonde (31 GiB)
        code, report = run_json(
            ["approx", "--fn", "abs(x)", "--degree", "20480", "--no-timestamp"], capsys
        )
        assert code == 3
        assert report["path"] == "TooLarge"
        assert "Vandermonde" in report["error"]

    def test_overflow_exits_2_without_numpy_warning(self):
        proc = subprocess.run(
            [sys.executable, "-m", "l1rec.cli", "approx", "--fn", "exp(1000*x)",
             "--degree", "3", "--no-timestamp"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "left the real domain" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_offcenter_kink_degree12(self, capsys):
        # a refined-mesh LP on which HiGHS can stop with "Status 0: Not Set"
        # at the 1e-10 feasibility tolerance
        code, report = run_json(
            ["approx", "--fn", "abs(x-0.3)", "--degree", "12", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["path"] == "newton_converged"

    def test_nested_kink_degree6(self, capsys):
        # Newton needs the breakpoints +-0.5 of the inner kink as well as 0
        code, report = run_json(
            ["approx", "--fn", "abs(abs(x)-0.5)", "--degree", "6", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["path"] == "newton_converged"

    def test_corrupted_path_fills_exact_and_k(self, capsys):
        code, report = run_json(
            ["approx", "--fn", "corrupted_t5", "--degree", "5", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["path"] == "corrupted_polynomial"
        assert report["exact"] is True
        assert report["k"] == 76
        assert 0.0 <= report["duality_gap"] <= 1e-8
        assert report["lp_points"] == 122  # the detector's strided LP certified it

    def test_duality_gap_of_the_newton_start(self, capsys):
        code, report = run_json(
            ["approx", "--fn", "expsin10", "--degree", "10", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["path"] == "newton_converged"
        assert 0.0 <= report["duality_gap"] <= 1e-8
        assert 0 < report["lp_points"] <= 25 * 11  # the refine LP starts Newton

    def test_samples_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x,f\n0.0,1.0\n")
        code = run(["approx", "--fn", str(path), "--degree", "2", "--no-timestamp"])
        assert code == 2

    def test_catalog_name_beats_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "absx").write_text("x,f\n0.0,1.0\n")
        code, report = run_json(
            ["approx", "--fn", "absx", "--degree", "2", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["l1_error"] == pytest.approx((np.sqrt(5.0) - 2.0) / 2.0, abs=1e-9)


class TestRecover:
    def test_corrupted_t5(self, capsys):
        code, report = run_json(
            ["recover", "--fn", "corrupted_t5", "--degree", "5", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert report["exact"] is True
        assert report["k"] > 0
        assert 0.0 <= report["duality_gap"] <= 1e-8
        # every 41st of the 5000 default samples: the strided LP's fit was
        # certified, so no full-grid LP ran
        assert report["lp_points"] == 122
        t5 = np.zeros(6)
        t5[5] = 1.0
        from l1rec.chebyshev import first_to_second

        expect = first_to_second(t5)
        got = np.array(report["coefficients"])
        assert got == pytest.approx(expect, abs=1e-10)

    def test_samples_csv(self, capsys, tmp_path):
        g = build_grid(40)
        vals = g.points**3 - 0.2
        vals[11] -= 4.0
        rows = ["x,f"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(g.points, vals)]
        path = tmp_path / "s.csv"
        path.write_text("\n".join(rows) + "\n")
        code, report = run_json(
            ["recover", "--fn", str(path), "--degree", "3", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["exact"] is True
        assert report["corrupted_indices"] == [11]
        assert report["lp_points"] == 41  # 41 < 40(n+1): the full grid at once

    def test_bad_sample_grid_exit2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n-0.5,1.0\n0.0,1.0\n0.5,1.0\n")
        code = run(["recover", "--fn", str(path), "--degree", "1", "--no-timestamp"])
        assert code == 2

    def test_sweep(self, capsys):
        code, report = run_json(
            [
                "recover", "--fn", "corrupted_t5", "--degree", "0",
                "--sweep", "6", "--samples", "2000", "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        assert report["sweep_found"] == 5
        assert [r["degree"] for r in report["runs"]] == [0, 1, 2, 3, 4, 5]

    def test_corrupted_spec(self, capsys, tmp_path):
        # corrupted:COEFFS.csv:a..b,c..d:EXPR is the U-series in the file plus
        # EXPR on the intervals; EXPR >= 2 there, so every sample inside is an
        # error and none outside
        path = tmp_path / "cubic.csv"
        path.write_text("0.5\n-0.3\n0.8\n1.2\n")
        spec = f"corrupted:{path}:-0.21..-0.18,0.4..0.41:3 + sin(20*x)"
        code, report = run_json(
            ["recover", "--fn", spec, "--degree", "3", "--no-timestamp"], capsys
        )
        assert code == 0
        assert report["exact"] is True
        x = build_grid(4999).points
        inside = ((x >= -0.21) & (x <= -0.18)) | ((x >= 0.4) & (x <= 0.41))
        assert report["k"] == int(np.count_nonzero(inside))
        assert report["coefficients"] == pytest.approx([0.5, -0.3, 0.8, 1.2], abs=1e-10)


class TestBench:
    def test_lpconv_writes_csv_and_report(self, capsys, tmp_path):
        out = tmp_path / "bench"
        code, _ = run_cli(
            ["bench", "--case", "lpconv", "--out", str(out), "--no-timestamp"], capsys
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "bench"
        rows = (out / "lp_convergence.csv").read_text().splitlines()
        assert rows[0] == "samples,unrefined,refined"
        samples = [int(line.split(",")[0]) for line in rows[1:]]
        assert samples == [r["samples"] for r in report["bench"]["rows"]]
        assert samples == [100, 316, 1000, 3162, 10000]


class TestLocalize:
    def test_runs_carry_the_minimax_bracket(self, capsys):
        code, report = run_json(
            ["localize", "--fn", "absx", "--degrees", "2,5", "--no-timestamp"], capsys
        )
        assert code == 0
        for run in report["runs"]:
            assert 0.0 < run["linf_level"] <= run["linf_error"] <= run["linf_max"]
            assert run["linf_max"] - run["linf_level"] <= 1e-9 * run["linf_max"]

    def test_failure_keeps_completed_runs(self, capsys, monkeypatch):
        from l1rec import cli
        from l1rec.errors import ExchangeStalled

        real = cli.omega_measure

        def measure(f, n):
            if n == 3:
                raise ExchangeStalled("stalled on purpose")
            return real(f, n)

        monkeypatch.setattr(cli, "omega_measure", measure)
        code, report = run_json(
            ["localize", "--fn", "absx", "--degrees", "2,3", "--no-timestamp"], capsys
        )
        assert code == 3
        assert report["path"] == "ExchangeStalled"
        assert [r["degree"] for r in report["runs"]] == [2]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = [
            "recover", "--fn", "corrupted_t5", "--degree", "5",
            "--samples", "1200", "--no-timestamp",
        ]
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = run(args + ["--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_all_numbers_finite(self, capsys):
        _, report = run_json(
            ["approx", "--fn", "expsin10", "--degree", "4", "--no-timestamp"], capsys
        )

        def walk(v):
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)
            elif isinstance(v, float):
                assert np.isfinite(v)

        walk(report)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "l1rec.cli", "rip", "--N", "10", "--n", "1",
             "--k", "1", "--no-timestamp"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["sufficient"] is False  # boundary case delta = 1/3
