import argparse
import json
import random
import time
from fractions import Fraction

import pytest

import gelfond.certify as certify
import gelfond.cli as cli
from conftest import sigma_modulus_40
from gelfond import (DepthError, GuardError, IrrationalRotation,
                     PotentialParams, polynomial_sum)
from gelfond.cli import build_parser, fmt, main, parse_c


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelpers:
    def test_fmt_15_significant_digits(self):
        assert fmt(0.4281333290213341) == "0.428133329021334"
        assert fmt(1.0) == "1"

    def test_parse_c(self):
        assert parse_c("0.5") == 0.5
        assert parse_c("8/21") == pytest.approx(8.0 / 21.0)
        assert parse_c("1.25") == 0.25
        # -1e-20 % 1.0 rounds up to 1.0, which is the phase 0
        assert parse_c("-1e-20") == parse_c("-1/100000000000000000000") == 0.0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1/0", "x"])
    def test_parse_c_rejects(self, text):
        with pytest.raises(ValueError):
            parse_c(text)


class TestGelfondCommand:
    def test_landmark(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c", "0.5")
        assert code == 0
        assert "gamma = 0.792481250360578" in out
        assert "period 2" in out

    def test_trivial_c_zero(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c", "0")
        assert code == 0
        assert "gamma = 1" in out

    def test_nonperiodic_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2",
                               "--c", "0.380952380952")
        assert code == 2
        assert "nonperiodic" in out

    def test_negative_phase_within_half_an_ulp_of_zero(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c=-1e-20")
        assert code == 0
        assert "beta  = 0.693147180559945" in out.splitlines()

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c", "1/4",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["period"] == 4
        assert doc["beta"] == pytest.approx(0.51585926722389, abs=1e-12)

    def test_former_depth_error_exits_2(self, capsys):
        # this c raised DepthError while the balance dropped image arcs
        # shorter than 1e-15
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2",
                               "--c", "0.18208148")
        assert code == 2
        assert "rotation = 15/17" in out.splitlines()

    def test_irrational_rotation_estimate(self, capsys, monkeypatch):
        # no float c at q = 2 reaches a rotation past the denominators that
        # rotation_number tries, so the report is built by hand
        report = certify.NonPeriodicReport(
            PotentialParams(2, 0.25), -0.6, IrrationalRotation(0.618, 1e-6),
            "no cycle")
        monkeypatch.setattr(cli, "gelfond_exponent", lambda *args: report)
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c", "1/4")
        assert code == 2
        assert out.splitlines() == ["nonperiodic: no cycle",
                                    "lambda_star = 0.4",
                                    "rotation estimate = 0.618 +- 1e-06"]

    def test_json_nonperiodic(self, capsys):
        code, out, _ = run_cli(capsys, "gelfond", "--q", "2", "--c", "8/21",
                               "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "nonperiodic"
        assert doc["rotation"] == "9/14"


class TestUsageError:
    """argparse's usage and message on stderr, and exit 1: its own code, 2,
    is a nonperiodic report's."""

    @pytest.mark.parametrize("argv, message", [
        (["gelfond", "--q", "x", "--c", "1/3"],
         "gelfond gelfond: error: argument --q: invalid int value: 'x'"),
        (["gelfond", "--q", "2"],
         "gelfond gelfond: error: the following arguments are required: --c"),
        (["profile", "--lambda", "0.3", "--bogus", "1"],
         "gelfond: error: unrecognized arguments: --bogus 1"),
        (["profile", "--lambda", "0.3", "--max-period", "5"],
         "gelfond: error: unrecognized arguments: --max-period 5"),
    ], ids=["bad-int", "missing-c", "unknown-flag", "profile-max-period"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: ")
        assert err.endswith(f"\n{message}\n")

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "gelfond", "--help")
        assert code == 0
        assert out.startswith("usage: gelfond gelfond") and err == ""


class TestBadInput:
    """Bad input prints one error line and exits 1, with no traceback."""

    def assert_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_c_nan(self, capsys):
        self.assert_error(capsys, ["gelfond", "--c", "nan"],
                          "phase must be a finite number, got 'nan'")

    def test_c_zero_denominator(self, capsys):
        self.assert_error(capsys, ["gelfond", "--c", "1/0"],
                          "phase '1/0' has a zero denominator")

    def test_q_one(self, capsys):
        self.assert_error(capsys, ["gelfond", "--q", "1", "--c", "0.3"],
                          "q must be an integer >= 2, got 1")

    def test_resolution_one(self, capsys):
        self.assert_error(capsys, ["beta-curve", "--resolution", "1"],
                          "resolution must be >= 2")

    def test_c_list_zero_denominator(self, capsys, tmp_path):
        clist = tmp_path / "cs.txt"
        clist.write_text("1/2\n1/0\n")
        self.assert_error(capsys, ["table2", "--c-list", str(clist)],
                          "phase '1/0' has a zero denominator")

    def test_checks_c_points_one(self, capsys):
        self.assert_error(capsys, ["checks", "--q", "3", "--c-points", "1",
                                   "--grid", "10"], "c_points must be >= 2")

    def test_c_list_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.txt"
        self.assert_error(capsys, ["table2", "--c-list", str(missing)],
                          f"[Errno 2] No such file or directory: "
                          f"'{missing}'")

    def test_cycles_q_one(self, capsys):
        self.assert_error(capsys, ["cycles", "--q", "1"],
                          "q must be an integer >= 2, got 1")

    @pytest.mark.parametrize("argv", [
        ["validity", "--threads", "1"],
        ["table2", "--threads", "1"],
        ["beta-curve", "--resolution", "4", "--threads", "1"],
        ["profile", "--lambda", "0.3"],
        ["checks"],
        ["verify", "--c", "0.3"],
    ], ids=lambda argv: argv[0])
    def test_q_one_rejected_before_output(self, capsys, argv):
        self.assert_error(capsys, [*argv, "--q", "1"],
                          "q must be an integer >= 2, got 1")

    @pytest.mark.parametrize("argv", [
        ["validity", "--period", "2"],
        ["table2"],
        ["beta-curve", "--resolution", "4"],
    ], ids=lambda argv: argv[0])
    def test_negative_threads(self, capsys, argv):
        self.assert_error(capsys, [*argv, "--threads", "-1"],
                          "threads must be >= 0")

    def test_checks_q2_needs_probe(self, capsys):
        self.assert_error(capsys, ["checks", "--q", "2"],
                          "q=2 has no inequality grid; give --probe-c")

    @pytest.mark.parametrize("q", ["3", "5"])
    def test_table2_off_q2_needs_c_list(self, capsys, tmp_path, q):
        out = tmp_path / "t.csv"
        self.assert_error(capsys, ["table2", "--q", q, "--output", str(out)],
                          f"q={q} has no reference c list; give --c-list")
        assert not out.exists()

    def test_c_overflowing_a_float(self, capsys):
        text = "1" + "0" * 400 + "/3"
        self.assert_error(capsys, ["gelfond", "--c", text],
                          f"phase {text!r} overflows a float")

    def test_c_list_overflowing_a_float(self, capsys, tmp_path):
        clist = tmp_path / "cs.txt"
        clist.write_text("1/2\n1e400\n")
        self.assert_error(capsys, ["table2", "--c-list", str(clist)],
                          "phase '1e400' overflows a float")

    @pytest.mark.parametrize("argv, message", [
        (["--q", "1"], "q must be an integer >= 2, got 1"),
        (["--points", "0"], "points must be >= 1"),
        (["--max-period", "0"], "max_period must be >= 1"),
    ])
    def test_staircase_bad_arguments(self, capsys, argv, message):
        self.assert_error(capsys, ["staircase", "--points", "4", *argv],
                          message)

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0"], "grid_size must be >= 1"),
        (["--n-max", "0"], "n_max must be >= 2"),
        (["--samples", "0"], "samples must be >= 1"),
    ])
    def test_verify_bad_sizes(self, capsys, argv, message):
        self.assert_error(capsys, ["verify", "--c", "0.3", "--samples", "2",
                                   "--n-max", "3", "--grid", "8", *argv],
                          message)

    @pytest.mark.parametrize("q, n_max", [(2, 25), (3, 16), (8, 9),
                                          (3, 100_000_000)])
    def test_verify_direct_sum_cap(self, capsys, q, n_max):
        # rejected whichever n the seed would sample, and at once: q^n_max
        # is never built in full
        t0 = time.perf_counter()
        self.assert_error(capsys, ["verify", "--q", str(q), "--c", "1/4",
                                   "--n-max", str(n_max), "--samples", "5"],
                          f"q^n_max = {q}^{n_max} exceeds the direct-sum "
                          f"cap 16777216")
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0"], "grid_size must be >= 1"),
        (["--probe-c", "0.3", "--samples", "0"], "samples must be >= 1"),
        (["--probe-c", "0.3", "--depth", "0"], "depth must be >= 1"),
    ])
    def test_checks_bad_sizes(self, capsys, argv, message):
        self.assert_error(capsys, ["checks", "--q", "3", "--grid", "4",
                                   "--c-points", "2", *argv], message)

    @pytest.mark.parametrize("argv, message", [
        (["table2", "--max-period", "0", "--threads", "1"],
         "max_period must be >= 1"),
        (["beta-curve", "--resolution", "4", "--max-period", "0",
          "--threads", "1"], "max_period must be >= 1"),
        (["validity", "--period", "1", "--threads", "1"],
         "period must be in 2..13, got 1"),
        (["validity", "--period", "14", "--threads", "1"],
         "period must be in 2..13, got 14"),
        (["validity", "--max-period", "1", "--threads", "1"],
         "max_period must be >= 2"),
        (["gelfond", "--c", "0.3", "--max-period", "0"],
         "max_period must be >= 1"),
    ])
    def test_bad_cycle_selection(self, capsys, argv, message):
        self.assert_error(capsys, argv, message)

    def test_unwritable_output_path(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "rows.csv"
        self.assert_error(capsys, ["cycles", "-o", str(out)],
                          f"[Errno 20] Not a directory: '{out}'")

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--q", "2", "--c", "0.5", "--samples", "3", "--n-max",
          "3", "--grid", "16"], "--fit-csv"),
        (["checks", "--q", "3", "--grid", "10", "--c-points", "2"],
         "--json-dir"),
    ])
    def test_unwritable_report_path(self, capsys, tmp_path, argv, flag):
        # the report lines already printed stay; the path error is one line
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub"
        code, _, err = run_cli(capsys, *argv, flag, str(target))
        assert code == 1
        assert err == f"error: [Errno 20] Not a directory: '{target}'\n"


class TestGuardError:
    """A guard violation exits 3: JSON on stdout with --json, one line on
    stderr without it."""

    @pytest.fixture(autouse=True)
    def raise_guard(self, monkeypatch):
        def fail(*args, **kwargs):
            raise GuardError("lambda=0.5 outside the admissible window")
        monkeypatch.setattr(cli, "gelfond_exponent", fail)

    def test_plain(self, capsys):
        code, out, err = run_cli(capsys, "gelfond", "--c", "0.3")
        assert (code, out) == (3, "")
        assert err == ("guard error: lambda=0.5 outside the admissible "
                       "window\n")

    def test_json(self, capsys):
        code, out, err = run_cli(capsys, "gelfond", "--c", "0.3", "--json")
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "schema_version": 1, "status": "guard_error",
            "reason": "lambda=0.5 outside the admissible window"}


class TestCyclesCommand:
    def test_row_count_57(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "--q", "2",
                               "--max-period", "13")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 58  # header + 57 rows
        assert lines[0] == ("q,period,rotation_num,rotation_den,base_digit,"
                            "s_min,s_max,window_lo,window_hi")
        assert lines[1] == "2,2,1,2,0,1/3,2/3,1/6,1/3"

    def test_min_period_1_includes_fixed_point(self, capsys):
        _, out, _ = run_cli(capsys, "cycles", "--q", "2", "--max-period", "3",
                            "--min-period", "1")
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[1].startswith("2,1,0,1,0,0/1,0/1,")


class TestValidityCommand:
    def test_period_2_row(self, capsys, monkeypatch):
        roots = []
        c_root = certify._c_root
        monkeypatch.setattr(certify, "_c_root",
                            lambda *a: roots.append(a) or c_root(*a))
        code, out, _ = run_cli(capsys, "validity", "--q", "2", "--period", "2",
                               "--threads", "1")
        assert code == 0
        assert len(roots) == 2  # only the period-2 row is computed
        lines = out.strip().splitlines()
        assert lines[0] == "period,rotation,window_lo,window_hi,c_lo,c_hi,status"
        fields = lines[1].split(",")
        assert fields[:4] == ["2", "1/2", "1/6", "1/3"]
        assert float(fields[4]) == pytest.approx(0.427484440439, abs=1e-9)
        # 15 significant digits in the c columns
        assert len(fields[4].replace("0.", "")) == 15


class TestTable2Command:
    def test_small_list_and_determinism(self, capsys, tmp_path):
        clist = tmp_path / "cs.txt"
        clist.write_text("1/2\n8/21\n")
        args = ("table2", "--q", "2", "--c-list", str(clist), "--threads", "1")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "c,beta,gamma,period,status"
        assert lines[1].startswith("1/2,0.549306144334055,")
        assert lines[2] == "8/21,,,,SKIPPED"

    def test_negative_phase_within_half_an_ulp_of_zero(self, capsys,
                                                       tmp_path):
        clist = tmp_path / "cs.txt"
        clist.write_text("-1/100000000000000000000\n")
        code, out, _ = run_cli(capsys, "table2", "--c-list", str(clist),
                               "--threads", "1")
        assert code == 0
        assert out.splitlines()[1] == ("-1/100000000000000000000,"
                                       "0.693147180559945,1,1,OK")

    def test_parallel_matches_serial(self, capsys, tmp_path):
        clist = tmp_path / "cs.txt"
        clist.write_text("1/2\n1/4\n1/3\n")
        _, serial, _ = run_cli(capsys, "table2", "--q", "2", "--c-list",
                               str(clist), "--threads", "1")
        _, parallel, _ = run_cli(capsys, "table2", "--q", "2", "--c-list",
                                 str(clist), "--threads", "3")
        assert serial == parallel


class TestStaircaseCommand:
    def test_monotone_estimates(self, capsys):
        code, out, _ = run_cli(capsys, "staircase", "--q", "2", "--points",
                               "256")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 256
        ests = [float(line.split(",")[1]) for line in lines]
        assert all(b >= a for a, b in zip(ests, ests[1:]))

    @pytest.mark.parametrize("q, points, max_period", [(2, 128, 13),
                                                       (5, 64, 8)])
    def test_estimate_is_the_exact_rotation(self, capsys, q, points,
                                            max_period):
        code, out, _ = run_cli(capsys, "staircase", "--q", str(q), "--points",
                               str(points), "--max-period", str(max_period))
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, est, num, den = line.split(",")
            assert est == fmt(int(num) / int(den))


class TestProfileCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--q", "2", "--lambda",
                               "0.25", "--depth", "12", "--grid", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,e"
        assert len(lines) == 33
        for line in lines[1:]:
            x, e = line.split(",")
            assert 0.0 <= float(x) < 1.0
            assert int(e) >= 0


class TestVerifyAndChecks:
    def test_verify_passes(self, capsys, tmp_path):
        fit_csv = tmp_path / "fit.csv"
        sigma_csv = tmp_path / "sigma.csv"
        code, out, _ = run_cli(capsys, "verify", "--q", "2", "--c", "0.5",
                               "--samples", "25", "--n-max", "6",
                               "--grid", "512", "--seed", "7",
                               "--fit-csv", str(fit_csv),
                               "--sigma-csv", str(sigma_csv))
        assert code == 0
        assert "verify: PASS" in out
        assert fit_csv.read_text().startswith(
            "n,gamma_n,excess_n,argmax_x,excess_hi\n")
        assert sigma_csv.read_text().startswith("x,abs_sigma")

    @pytest.mark.parametrize("q, n_max", [(2, 10), (3, 7), (5, 5)])
    def test_sigma_csv_rows(self, capsys, tmp_path, q, n_max):
        # the rows are |sigma_N| at N = q^n_max: the direct sum at a few
        # rows, a 40-digit product of geometric sums at seeded rows
        sigma_csv = tmp_path / "sigma.csv"
        grid = 256
        code, _, _ = run_cli(capsys, "verify", "--q", str(q), "--c", "0.3",
                             "--samples", "1", "--n-max", str(n_max),
                             "--grid", str(grid), "--sigma-csv",
                             str(sigma_csv))
        assert code == 0
        lines = sigma_csv.read_text().splitlines()
        assert lines[0] == "x,abs_sigma" and len(lines) == grid + 1
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [x for x, _ in rows] == [i / grid for i in range(grid)]
        params = PotentialParams(q, 0.3)
        for x, v in rows[::37]:
            assert v == pytest.approx(abs(polynomial_sum(params, q ** n_max,
                                                         x)), abs=1e-9)
        for x, v in random.Random(q).sample(rows, 20):
            ref = sigma_modulus_40(q, 0.3, n_max, x)
            assert abs(v - ref) <= 1e-13 * max(1.0, ref)

    def test_verify_without_certificate(self, capsys):
        # a nonperiodic report at q = 2 (rotation 15/17): no fit, no failure
        code, out, _ = run_cli(capsys, "verify", "--q", "2", "--c",
                               "0.18208128", "--n-max", "3", "--samples", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["exponent fit skipped: no certificate at this c",
                              "verify: PASS"]

    def test_verify_exact_orbits(self, capsys):
        # a float orbit iterated mod 1 drifted by q^n times its rounding
        # here: worst rel err 1.059e-10, over the 1e-10 bound
        code, out, _ = run_cli(capsys, "verify", "--q", "3", "--c", "1/4",
                               "--n-max", "10")
        assert code == 0
        assert out.splitlines()[0] == ("product identity: worst rel err "
                                       "4.825e-13 [PASS]")

    def test_checks_q3(self, capsys, tmp_path):
        jdir = tmp_path / "reports"
        code, out, _ = run_cli(capsys, "checks", "--q", "3", "--grid", "40",
                               "--c-points", "3", "--json-dir", str(jdir))
        assert code == 0
        assert "centering" in out and "PASS" in out
        doc = json.loads((jdir / "inner_shift.json").read_text())
        assert doc["passed"] is True

    def test_checks_guard_error_keeps_earlier_reports(self, capsys,
                                                      tmp_path):
        # at q = 50 the probe finds no sample clear of the arc ends
        jdir = tmp_path / "reports"
        code, out, err = run_cli(capsys, "checks", "--q", "50", "--probe-c",
                                 "0.3", "--grid", "20", "--c-points", "2",
                                 "--json-dir", str(jdir))
        assert code == 3
        assert err.startswith("guard error: no probe samples")
        names = ["centering", "inner_shift", "outer_shift"]
        assert [line.split(":")[0] for line in out.splitlines()] == names
        assert all(line.endswith("[PASS]") for line in out.splitlines())
        assert sorted(p.name for p in jdir.iterdir()) == sorted(
            f"{name}.json" for name in names)

    def test_checks_probe_skipped_above_grids(self, capsys):
        code, out, _ = run_cli(capsys, "checks", "--q", "3", "--probe-c",
                               "0.3", "--max-period", "1", "--grid", "20",
                               "--c-points", "2")
        assert code == 0
        assert out.splitlines()[0] == "probe skipped: no certificate at c=0.3"
        assert [line.split(":")[0] for line in out.splitlines()[1:]] == [
            "centering", "inner_shift"]


class TestSharedParser:
    """main parses every call with one parser, which keeps no state from
    one call to the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_fit_csv_not_carried_over(self, capsys, tmp_path):
        fit = tmp_path / "fit.csv"
        small = ["verify", "--q", "2", "--c", "0.3", "--samples", "5",
                 "--n-max", "3", "--grid", "64"]
        assert run_cli(capsys, *small, "--fit-csv", str(fit))[0] == 0
        fit.unlink()
        assert run_cli(capsys, *small)[0] == 0
        assert list(tmp_path.iterdir()) == []

    def test_probe_not_carried_over(self, capsys, monkeypatch):
        small = ["--grid", "20", "--c-points", "2"]
        code, out, _ = run_cli(capsys, "checks", "--q", "3", "--probe-c",
                               "0.3", "--samples", "8", "--depth", "12",
                               *small)
        assert code == 0 and "condition_probe" in out

        def no_certificate(*args):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(cli, "gelfond_exponent", no_certificate)
        code, out, _ = run_cli(capsys, "checks", "--q", "4", *small)
        assert code == 0
        assert "probe" not in out
        assert "outer_shift" in out


class TestBetaCurveCommand:
    def test_csv_and_svg(self, capsys, tmp_path):
        svg = tmp_path / "curve.svg"
        code, out, _ = run_cli(capsys, "beta-curve", "--q", "2",
                               "--resolution", "16", "--threads", "1",
                               "--svg", str(svg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,beta,gamma,period,status"
        assert len(lines) == 17
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_svg_skips_one_point_runs(self, tmp_path):
        # runs of certificates split at a gap; a lone certificate draws no
        # line
        svg = tmp_path / "curve.svg"
        cert = certify.gelfond_exponent(PotentialParams(2, 0.5))
        gap = DepthError("depth cap reached")
        cli._svg_curve([(0.1, cert), (0.2, gap), (0.3, cert), (0.4, cert)],
                       str(svg))
        [line] = [s for s in svg.read_text().splitlines() if "polyline" in s]
        assert line.count(",") == 2



def _fail_at(monkeypatch, name, bad):
    """certify.<name> raises DepthError where bad(*args) holds.  The row
    drivers look the name up at call time, in worker processes too."""
    real = getattr(certify, name)

    def failing(*args, **kwargs):
        if bad(*args):
            raise DepthError("depth cap reached")
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, name, failing)


def _quarter(params, *_):
    return params.c == 0.25


def _rotation_one_third(q, cycle):
    return cycle.rotation == Fraction(1, 3)


class TestErrorRows:
    """A row whose certifier raises is an ERROR row and the run exits 1."""

    @pytest.mark.parametrize("name, bad, argv, c_list, error_line, statuses", [
        ("gelfond_exponent", _quarter,
         ["beta-curve", "--q", "2", "--resolution", "4"], None,
         "0.25,,,,ERROR: depth cap reached",
         ["OK", "ERROR: depth cap reached", "OK", "OK"]),
        ("validity_interval", _rotation_one_third,
         ["validity", "--q", "2", "--max-period", "3"], None,
         "3,1/3,1/14,1/7,,,ERROR: depth cap reached",
         ["OK", "ERROR: depth cap reached", "OK"]),
        ("gelfond_exponent", _quarter, ["table2", "--q", "2"],
         "1/2\n1/4\n1/3\n", "1/4,,,,ERROR: depth cap reached",
         ["OK", "ERROR: depth cap reached", "OK"]),
    ], ids=["beta-curve", "validity", "table2"])
    def test_error_row_exits_1(self, capsys, monkeypatch, tmp_path, name,
                               bad, argv, c_list, error_line, statuses):
        if c_list is not None:
            (tmp_path / "cs.txt").write_text(c_list)
            argv = [*argv, "--c-list", str(tmp_path / "cs.txt")]
        _fail_at(monkeypatch, name, bad)
        code, out, _ = run_cli(capsys, *argv, "--threads", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[2] == error_line
        assert [line.split(",")[-1] for line in lines[1:]] == statuses

    @pytest.mark.parametrize("name, bad, argv, c_list, statuses", [
        ("gelfond_exponent", _quarter,
         ["beta-curve", "--q", "2", "--resolution", "16", "--max-period",
          "4"], None, {"OK", "GAP", "ERROR: depth cap reached"}),
        ("validity_interval", _rotation_one_third,
         ["validity", "--q", "2", "--max-period", "3"], None,
         {"OK", "ERROR: depth cap reached"}),
        ("gelfond_exponent", _quarter, ["table2", "--q", "2"],
         "1/2\n8/21\n1/4\n1/3\n",
         {"OK", "SKIPPED", "ERROR: depth cap reached"}),
    ], ids=["beta-curve", "validity", "table2"])
    def test_pool_matches_serial(self, capsys, monkeypatch, tmp_path, name,
                                 bad, argv, c_list, statuses):
        # certificates, reports and exceptions cross the pool by pickle
        if c_list is not None:
            (tmp_path / "cs.txt").write_text(c_list)
            argv = [*argv, "--c-list", str(tmp_path / "cs.txt")]
        _fail_at(monkeypatch, name, bad)
        monkeypatch.setattr(certify.os, "cpu_count", lambda: 2)
        serial = run_cli(capsys, *argv, "--threads", "1")
        parallel = run_cli(capsys, *argv, "--threads", "2")
        assert serial == parallel
        assert serial[0] == 1
        lines = serial[1].splitlines()[1:]
        assert {line.split(",")[-1] for line in lines} == statuses


class TestOutputFile:
    def test_output_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "cycles.csv"
        code, out, _ = run_cli(capsys, "cycles", "--q", "2",
                               "--max-period", "2", "-o", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("q,period,")

    def test_gelfond_output_file(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        argv = ("gelfond", "--q", "2", "--c", "1/3", "--json")
        _, stdout, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "-o", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout

    @pytest.mark.parametrize("argv", [
        ("verify", "--q", "2", "--c", "1/3", "--samples", "5", "--n-max", "4",
         "--grid", "64"),
        ("checks", "--q", "3", "--grid", "20", "--c-points", "2"),
    ])
    def test_report_lines_output_file(self, tmp_path, capsys, argv):
        path = tmp_path / "report.txt"
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "-o", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout

    def test_probe_depth_past_cap(self, capsys):
        # the probe's sweep had not finished after 20 s at this depth; at
        # q = 4 the refusal comes before the grids' reports
        code, out, err = run_cli(capsys, "checks", "--q", "2", "--probe-c",
                                 "0.3", "--depth", "100000")
        assert code == 1
        assert out == ""
        assert err == "error: depth 100000 exceeds cap 400\n"
        code, out, err = run_cli(capsys, "checks", "--q", "4", "--grid", "20",
                                 "--probe-c", "0.3", "--depth", "500")
        assert code == 1
        assert out == ""
        assert err == "error: depth 500 exceeds cap 400\n"

    def test_checks_bad_json_dir_before_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "checks", "--q", "3", "--grid", "20",
                                 "--c-points", "2", "--json-dir",
                                 str(blocker / "reports"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


def test_option_surface():
    # every subcommand's flags, so that adding or removing one shows here
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))

    def flags(p):
        return sorted(opt for a in p._actions for opt in a.option_strings
                      if opt not in ("-h", "--help"))

    common = ["--max-period", "--output", "--q", "-o"]
    threads = ["--threads"]
    surface = {name: flags(p) for name, p in sub.choices.items()}
    assert flags(parser) == []
    # profile has no cycles, so no --max-period
    assert surface.pop("profile") == ["--depth", "--grid", "--lambda",
                                      "--output", "--q", "-o"]
    assert surface == {name: sorted(common + extra) for name, extra in {
        "gelfond": ["--c", "--json"],
        "cycles": ["--min-period"],
        "validity": threads + ["--period"],
        "table2": threads + ["--c-list"],
        "beta-curve": threads + ["--resolution", "--svg"],
        "staircase": ["--points"],
        "verify": ["--c", "--fit-csv", "--grid", "--n-max", "--samples",
                   "--seed", "--sigma-csv"],
        "checks": ["--c-points", "--depth", "--grid", "--json-dir",
                   "--probe-c", "--samples"],
    }.items()}
