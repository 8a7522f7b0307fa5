"""Byte-for-byte CLI output against pinned fixtures.

Each file in tests/data/cli_golden/ holds the exact stdout of the argv next
to its name below, written by the CLI before the arc, extended-real and
row-type refactor (validity_q2: before the exit-level cache and the
math.remainder potential; beta_curve_q3_r64 and beta_curve_q8_r64: before
the per-call potential memo and the bisected coarse bracket; validity_q2_p5:
before the shared bisection and the period filter ahead of the c-roots;
staircase_q2_p256, staircase_q3_p512 and staircase_q8_p256_m64: rewritten by
the commit that replaced both float lifts with one exact Stern-Brocot walk,
which made rho_estimate the exact rotation; gelfond_q2_1_3, gelfond_q2_8_21,
gelfond_q2_8_21_text, gelfond_q5_0_35 and checks_q4_g64: rewritten by the
commit that replaced the lambda bracket's coarse grid with one bisection
from the guarded window's certified ends, which moved lambda_star, and the
centering theta and probe values derived from it, by less than 1e-12;
checks_q4_g64 again by the commit that replaced the condition probe's
Gauss-Legendre quadrature of psi with the exact telescoped sum over the
inverse-branch images, which moved the probe's worst value in its last
printed digit and its inside residual by 5e-15); the exit code is pinned
here.  The files a run writes beside its stdout (verify --fit-csv, checks
--json-dir) are pinned the same way, from tests/data/cli_files/; the checks
files were rewritten with checks_q4_g64 (only condition_probe.json changed
the second time), and centering.json alone by the commit that made the
bisection move an end only on a certified sign: at c = 1/2 the balance sign
at the guarded window's midpoint is uncertain, so that midpoint is lambda_star
and the centering theta is exactly 0.125 = 1/(2q), not 0.12499999999954525.
checks_q4_g64's centering line and centering.json were rewritten again by
the commit that certifies the centering bound by two balance signs per c
instead of bisecting lambda*: worst_value became the least sign margin and
worst_point names the lambda of that end, the JSON details give each c's two
ends with their balance values, not theta; no other line or file changed.
verify_q2_c03_s7 and verify_q3_c03_s7 are the two verify sizes of the
benchmark's crosscheck items, written before the orbit products moved from
Fraction to integer numerators and the outer shift grid from scalar _f calls
to one array pass.  A change that alters any certificate, CSV cell or JSON
key fails this test, so refactors that claim byte-identical output can show
it.  validity_q2 also
pins every bisection sign of the c-roots, since each one moves a printed
digit.
"""

from pathlib import Path

import pytest

from gelfond.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

CASES = {
    "table2_q2": (["table2", "--q", "2", "--threads", "1"], 0),
    "beta_curve_q2_r64": (["beta-curve", "--q", "2", "--resolution", "64",
                           "--threads", "1"], 0),
    "beta_curve_q3_r64": (["beta-curve", "--q", "3", "--resolution", "64",
                           "--threads", "1"], 0),
    "beta_curve_q8_r64": (["beta-curve", "--q", "8", "--resolution", "64",
                           "--threads", "1"], 0),
    "staircase_q2_p256": (["staircase", "--q", "2", "--points", "256"], 0),
    "staircase_q3_p512": (["staircase", "--q", "3", "--points", "512"], 0),
    "staircase_q8_p256_m64": (["staircase", "--q", "8", "--points", "256",
                               "--max-period", "64"], 0),
    "cycles_q3_min1": (["cycles", "--q", "3", "--min-period", "1"], 0),
    "profile_q2_l03": (["profile", "--q", "2", "--lambda", "0.3"], 0),
    "gelfond_q2_1_3": (["gelfond", "--json", "--q", "2", "--c", "1/3"], 0),
    "gelfond_q2_8_21": (["gelfond", "--json", "--q", "2", "--c", "8/21"], 2),
    "gelfond_q2_8_21_text": (["gelfond", "--q", "2", "--c", "8/21"], 2),
    "gelfond_q5_0_35": (["gelfond", "--json", "--q", "5", "--c", "0.35"], 0),
    "validity_q2": (["validity", "--q", "2", "--threads", "1"], 0),
    "validity_q2_p5": (["validity", "--q", "2", "--period", "5",
                        "--threads", "1"], 0),
    "checks_q4_g64": (["checks", "--q", "4", "--grid", "64", "--c-points", "3",
                       "--probe-c", "0.3", "--samples", "8", "--depth", "12"],
                      0),
    "verify_q2_c03_s7": (["verify", "--q", "2", "--c", "0.3", "--seed", "7",
                          "--samples", "40", "--n-max", "5", "--grid", "256"],
                         0),
    "verify_q3_c03_s7": (["verify", "--q", "3", "--c", "0.3", "--seed", "7",
                          "--samples", "20", "--n-max", "5", "--grid", "256"],
                         0),
}
FILES = Path(__file__).parent / "data" / "cli_files"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_pinned(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


def test_every_fixture_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_verify_fit_csv_pinned(tmp_path, capsys):
    fit = tmp_path / "fit.csv"
    assert main(["verify", "--q", "2", "--c", "1/3", "--samples", "20",
                 "--n-max", "6", "--fit-csv", str(fit)]) == 0
    capsys.readouterr()
    assert fit.read_bytes() == (FILES / "verify_q2_1_3_fit.csv").read_bytes()


def test_checks_json_files_pinned(tmp_path, capsys):
    jdir = tmp_path / "reports"
    assert main([*CASES["checks_q4_g64"][0], "--json-dir", str(jdir)]) == 0
    capsys.readouterr()
    pinned = FILES / "checks_q4_g64"
    names = sorted(p.name for p in pinned.glob("*.json"))
    assert sorted(p.name for p in jdir.iterdir()) == names
    for name in names:
        assert (jdir / name).read_bytes() == (pinned / name).read_bytes()
