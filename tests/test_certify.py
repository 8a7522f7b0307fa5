import concurrent.futures
import dataclasses
import functools
import itertools
import math
import os
import pickle
import random
import statistics
import subprocess
import sys
from fractions import Fraction as F

import pytest

import gelfond.certify as certify
from gelfond import (BalanceValue, DomainError,
                     GelfondCertificate, GelfondError, GuardError,
                     NonPeriodicReport, PotentialParams, ValidityInterval,
                     beta_period2_closed_form, build_cycle,
                     enumerate_cycles, exponent_table, find_balance_point,
                     gelfond_exponent, lambda_window, orbit_potential_mean,
                     rotation_number, validity_interval, validity_table)
from gelfond.certify import DEFAULT_LAMBDA_TOL, period2_validity_q2
from gelfond.circle import sturmian_balance
from gelfond.potential import _f

from conftest import (all_orbits_best, exact_window_holds, full_bisection,
                      linear_scan_select)
from reference_tables import TABLE2_BASELINE, VALIDITY_BASELINE

LOG2 = math.log(2.0)


def curve(q, max_period, resolution):
    grid = [i / resolution for i in range(resolution)]
    return exponent_table(q, max_period, c_list=grid)


def cert(q, c):
    res = gelfond_exponent(PotentialParams(q, c))
    assert isinstance(res, GelfondCertificate), res
    return res


# q=2 phases where gelfond_exponent raised DepthError while the balance
# dropped image arcs shorter than 1e-15
FORMER_DEPTH_ERROR_C = (0.18208148, 0.1820834, 0.18208392, 0.18208468,
                        0.18208924)


class TestBalancePoint:
    def test_symmetric_case(self):
        lam = find_balance_point(PotentialParams(2, 0.5)) % 1.0
        assert lam == pytest.approx(0.25, abs=1e-11)

    def test_quarter_case_bracket(self):
        lam = find_balance_point(PotentialParams(2, 0.25)) % 1.0
        assert 13.0 / 30.0 <= lam <= 14.0 / 30.0

    def test_third_case_bracket(self):
        lam = find_balance_point(PotentialParams(2, 1.0 / 3.0)) % 1.0
        assert 5.0 / 14.0 <= lam <= 6.0 / 14.0

    def test_lifted_window_membership(self):
        params = PotentialParams(2, 0.7)
        lam = find_balance_point(params)
        assert -0.5 - 0.7 < lam < -0.7


class TestLandmarks:
    def test_example_half(self):
        res = cert(2, 0.5)
        assert res.beta == pytest.approx(math.log(math.sqrt(3.0)), abs=1e-13)
        assert res.gamma == pytest.approx(math.log(3) / math.log(4), abs=1e-13)
        assert res.cycle.points == (F(1, 3), F(2, 3))

    def test_example_quarter(self):
        res = cert(2, 0.25)
        assert res.beta == pytest.approx(0.51585926722389, abs=1e-12)
        assert res.gamma == pytest.approx(0.74422760662052, abs=1e-12)
        assert res.cycle.points == (F(7, 15), F(11, 15), F(13, 15), F(14, 15))

    def test_example_third(self):
        res = cert(2, 1.0 / 3.0)
        assert res.beta == pytest.approx(0.522266412324137, abs=1e-12)
        assert res.gamma == pytest.approx(res.beta / LOG2, abs=1e-15)
        assert res.cycle.points == (F(3, 7), F(5, 7), F(6, 7))

    def test_example_three_quarters_mirror(self):
        res = cert(2, 0.75)
        mirror = cert(2, 0.25)
        assert res.beta == pytest.approx(mirror.beta, abs=1e-13)
        assert res.cycle.points == (F(1, 15), F(2, 15), F(4, 15), F(8, 15))
        assert res.cycle.points != mirror.cycle.points

    def test_c_zero_trivial(self):
        res = cert(2, 0.0)
        assert res.beta == math.log(2.0)
        assert res.gamma == 1.0
        assert res.cycle.period == 1
        res3 = cert(3, 0.0)
        assert res3.beta == math.log(3.0)
        assert res3.gamma == 1.0

    @pytest.mark.parametrize("q,c", [(3, 0.35), (3, 0.72), (4, 0.3)])
    def test_window_generalization_cross_check(self, q, c):
        # the balance zero found independently lands inside the certified
        # cycle's 1/q arc-base window
        res = cert(q, c)
        lam = find_balance_point(PotentialParams(q, c))
        assert exact_window_holds(res.cycle, lam)
        win = lambda_window(res.cycle)
        assert win.hi - win.lo <= F(1, q)

    def test_support_matches_certificate(self):
        res = cert(2, 0.25)
        rot = rotation_number(2, res.lambda_star % 1.0, max_denominator=13)
        assert rot.cycle.points == res.cycle.points


class TestCertificateContract:
    def test_signs_certified(self):
        res = cert(2, 0.4)
        assert res.lambda1 < res.lambda_star < res.lambda2
        assert res.v1.value > res.v1.err_bound
        assert res.v2.value < -res.v2.err_bound

    def test_gamma_in_unit_interval(self):
        for c in (0.1, 0.25, 0.4, 0.5, 0.63, 0.9):
            res = gelfond_exponent(PotentialParams(2, c))
            if isinstance(res, GelfondCertificate):
                assert 0.0 < res.gamma < 1.0

    def test_orbit_mean_start_invariant(self):
        res = cert(2, 0.25)
        params = PotentialParams(2, 0.25)
        m = res.cycle.period
        # the mean is the same from any starting point of the orbit
        for start in res.cycle.points:
            pts = [start]
            for _ in range(m - 1):
                pts.append((2 * pts[-1]) % 1)
            mean = math.fsum(_f(2, float(s) + 0.25) for s in pts) / m
            assert mean == pytest.approx(res.beta, abs=1e-14)

    def test_orbit_sum_over_repeated_periods(self):
        res = cert(2, 0.5)
        m = res.cycle.period
        x = res.cycle.points[0]
        for k in (1, 3, 7):
            total = 0.0
            y = x
            for _ in range(k * m):
                total += _f(2, float(y) + 0.5)
                y = (2 * y) % 1
            assert total == pytest.approx(k * m * res.beta, abs=1e-12)

    def test_orbit_mean_is_beta(self):
        res = cert(2, 0.25)
        assert orbit_potential_mean(PotentialParams(2, 0.25),
                                    res.cycle) == res.beta

    def test_orbit_mean_cycle_of_another_base_rejected(self):
        # the q = 3 potential would be averaged over the q = 2 cycle
        cyc = build_cycle(2, 0, F(1, 2))
        with pytest.raises(ValueError, match="base 2, not q=3"):
            orbit_potential_mean(PotentialParams(3, 0.3), cyc)

    def test_json_dict(self):
        d = cert(2, 0.5).to_json_dict()
        assert d["schema_version"] == 1
        assert d["period"] == 2
        assert d["cycle_points"] == ["1/3", "2/3"]
        assert d["v1"]["err_bound"] > 0

    def test_nonperiodic_at_gap(self):
        res = gelfond_exponent(PotentialParams(2, 8.0 / 21.0))
        assert isinstance(res, NonPeriodicReport)
        assert res.to_json_dict()["status"] == "nonperiodic"

    def test_nonperiodic_rotation_window_holds_lambda_star(self):
        # lam* lies 3e-13 inside the lower edge of the 2/5 window, where the
        # balance sign is not certified; the lift estimate's best
        # approximation was 21/53, whose window misses lam*
        res = gelfond_exponent(PotentialParams(2, 0.6128191359788798))
        assert isinstance(res, NonPeriodicReport)
        assert res.reason.startswith("balance signs at the window endpoints")
        assert res.rotation.value == F(2, 5)
        assert exact_window_holds(res.rotation.cycle, res.lambda_star)
        assert res.to_json_dict()["rotation"] == "2/5"


class TestValidityIntervals:
    def test_period2_regression(self):
        cyc = next(c for c in enumerate_cycles(2, 2) if c.period == 2)
        vi = validity_interval(2, cyc)
        row = next(r for r in VALIDITY_BASELINE if r[0] == 2)
        assert vi.c_lo == pytest.approx(row[4], abs=1e-9)
        assert vi.c_hi == pytest.approx(row[5], abs=1e-9)
        assert period2_validity_q2() == (vi.c_lo, vi.c_hi)

    def test_cycle_of_another_base_rejected(self):
        # the q = 3 interval would be labelled with the q = 2 cycle
        cyc = build_cycle(2, 0, F(1, 2))
        with pytest.raises(ValueError, match="base 2, not q=3"):
            validity_interval(3, cyc)

    def test_mirror_symmetry_of_endpoints(self):
        cycles = {(c.period, str(c.rotation)): c
                  for c in enumerate_cycles(2, 5)}
        a = validity_interval(2, cycles[(3, "1/3")])
        b = validity_interval(2, cycles[(3, "2/3")])
        assert a.c_lo == pytest.approx(1.0 - b.c_hi, abs=1e-9)
        assert a.c_hi == pytest.approx(1.0 - b.c_lo, abs=1e-9)

    def test_round_trip_with_exponent(self):
        # c strictly inside a cycle's interval certifies that cycle
        for period, rot in [(2, "1/2"), (3, "1/3"), (5, "2/5")]:
            cyc = next(c for c in enumerate_cycles(2, 5)
                       if (c.period, str(c.rotation)) == (period, rot))
            vi = validity_interval(2, cyc)
            mid = 0.5 * (vi.c_lo + vi.c_hi) % 1.0
            res = cert(2, mid)
            assert res.cycle.points == cyc.points

    def test_fixed_point_interval_covers_small_c(self):
        fp = next(c for c in enumerate_cycles(2, 1))
        vi = validity_interval(2, fp)
        # wraps through 1: covers c near 0 and c near 1
        assert vi.c_lo < 1.0 < vi.c_hi
        res = cert(2, 0.05)
        assert res.cycle.period == 1

    def test_baseline_regression_sample(self):
        cycles = {(c.period, str(c.rotation)): c
                  for c in enumerate_cycles(2, 13)}
        for row in VALIDITY_BASELINE:
            period, rot, _, _, c_lo, c_hi = row
            if period not in (2, 3, 7, 13):
                continue
            vi = validity_interval(2, cycles[(period, rot)])
            assert vi.c_lo == pytest.approx(c_lo, abs=2e-11)
            assert vi.c_hi == pytest.approx(c_hi, abs=2e-11)

    def test_pairwise_disjoint(self):
        rows1 = validity_table(2, 6)
        ivs = sorted((vi.c_lo, vi.c_hi) for _, vi in rows1
                     if isinstance(vi, ValidityInterval))
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            assert hi1 < lo2 + 1e-9

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_certified_c_inside_its_cycle_interval(self, q):
        # the per-c certificate and the validity table are two routes to
        # one answer; intervals are taken mod 1, since the period-1 ones
        # wrap through 0
        intervals = {}
        for i in range(64):
            res = gelfond_exponent(PotentialParams(q, i / 64))
            if not isinstance(res, GelfondCertificate):
                continue
            if res.cycle not in intervals:
                intervals[res.cycle] = validity_interval(q, res.cycle)
            vi = intervals[res.cycle]
            assert 0.0 < (i / 64 - vi.c_lo) % 1.0 < vi.c_hi - vi.c_lo
        assert any(cy.period == 1 for cy in intervals)
        assert len(intervals) > 10


class TestPool:
    """_pmap runs at most one worker per item and one per core: the pool
    forks all max_workers processes at its first submit.  A fake executor
    records the pool size, so no process is started; _pmap imports the
    executor from concurrent.futures only when it forks, so the fake
    replaces it there."""

    @pytest.mark.parametrize("threads, items, cores, workers", [
        (5000, 57, 4, 4), (5000, 3, 64, 3), (2, 57, 64, 2),
        (5000, 57, 1, None), (5000, 57, None, None), (1, 57, 64, None),
        (0, 57, 64, None), (None, 57, 64, None), (8, 1, 64, None)])
    def test_workers_clamped(self, monkeypatch, threads, items, cores,
                             workers):
        sizes = []

        class FakeExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, it):
                return map(fn, it)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakeExecutor)
        monkeypatch.setattr(certify.os, "cpu_count", lambda: cores)
        got = certify._pmap(abs, list(range(-items, 0)), threads)
        assert got == list(range(items, 0, -1))
        assert sizes == ([] if workers is None else [workers])


class TestClosedForm:
    def test_matches_pipeline_at_50_points(self):
        lo, hi = period2_validity_q2()
        for i in range(50):
            c = lo + (hi - lo) * (i + 0.5) / 50
            res = cert(2, c)
            assert beta_period2_closed_form(c) == \
                pytest.approx(res.beta, abs=1e-12)

    def test_value_at_half(self):
        assert beta_period2_closed_form(0.5) == \
            pytest.approx(math.log(math.sqrt(3.0)), abs=1e-15)

    def test_near_endpoint_matches_pipeline(self):
        c = period2_validity_q2()[0] + 1e-7
        assert beta_period2_closed_form(c) == \
            pytest.approx(cert(2, c).beta, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            beta_period2_closed_form(0.3)


class TestTables:
    def test_table2_skipped_row(self):
        rows2 = exponent_table(2, 13, c_list=[F(8, 21), F(1, 2)])
        by_label = {str(c): a for c, a in rows2}
        assert isinstance(by_label["8/21"], NonPeriodicReport)
        assert isinstance(by_label["1/2"], GelfondCertificate)

    def test_table2_baseline_sample(self):
        wanted = {"1/2", "2/5", "5/13", "9/19", "12/25"}
        c_list = [F(lbl) for lbl, *_ in TABLE2_BASELINE if lbl in wanted]
        rows2 = exponent_table(2, 13, c_list=c_list)
        baseline = {lbl: (p, rot, b) for lbl, p, rot, b in TABLE2_BASELINE}
        for c, r in rows2:
            p, rot, b = baseline[str(c)]
            assert r.cycle.period == p
            assert r.beta == pytest.approx(b, abs=1e-11)

    def test_table2_baseline_rotations(self):
        certified = [(lbl, rot) for lbl, p, rot, _ in TABLE2_BASELINE
                     if p is not None]
        assert len(certified) == 61
        for lbl, rot in certified:
            res = cert(2, float(F(lbl)) % 1.0)
            assert res.cycle.rotation == F(rot), lbl

    def test_table1_row_count(self):
        rows1 = validity_table(2, 6)
        assert len(rows1) == 11  # periods 2..6
        assert all(isinstance(vi, ValidityInterval) for _, vi in rows1)


class TestBetaCurve:
    """The beta curve is exponent_table on the grid i / resolution."""

    def test_symmetry_and_bounds(self):
        points = curve(2, 13, resolution=64)
        by_c = {round(c, 12): p for c, p in points}
        for c, p in points:
            if not isinstance(p, GelfondCertificate):
                continue
            if c != 0.0:
                assert p.beta < LOG2
            mirror = by_c.get(round((1.0 - c) % 1.0, 12))
            if isinstance(mirror, GelfondCertificate):
                assert p.beta == pytest.approx(mirror.beta, abs=1e-10)

    def test_gaps_flagged_not_fatal(self):
        points = curve(2, 4, resolution=32)
        kinds = {type(p) for _, p in points}
        assert GelfondCertificate in kinds
        assert all(k in (GelfondCertificate, NonPeriodicReport) for k in kinds)

    def test_maximum_near_c_zero(self):
        points = [(c, p) for c, p in curve(2, 13, resolution=64)
                  if isinstance(p, GelfondCertificate)]
        best_c, _ = max(points, key=lambda cp: cp[1].beta)
        assert min(best_c, 1.0 - best_c) <= 2.0 / 64


class TestSelectionMatchesLinearScan:
    """gelfond_exponent, which selects through rotation_number, against the
    linear scan over enumerate_cycles it replaced, at the balance zero lam*:
    a certificate carries the scanned cycle and its guarded window ends, and
    every report carries the rotation number at lam*, whose witness is the
    scanned cycle when the scan finds one."""

    @pytest.fixture
    def outcomes(self):
        scans = {}

        def run(q, c, max_period=13):
            params = PotentialParams(q, c)
            try:
                res = gelfond_exponent(params, max_period)
            except (GelfondError, ValueError) as exc:
                return f"{type(exc).__name__}: {exc}"
            if (q, max_period) not in scans:
                scans[q, max_period] = enumerate_cycles(q, max_period)
            lam = res.lambda_star
            picked = linear_scan_select(scans[q, max_period], lam, lam)
            if isinstance(res, GelfondCertificate):
                assert picked is not None
                cyc, k = picked
                win = lambda_window(cyc)
                glo, ghi = certify._guarded_window(-1.0 / q - c, -c)
                assert res.cycle == cyc
                assert res.lambda1 == max(float(win.lo) + k, glo)
                assert res.lambda2 == min(float(win.hi) + k, ghi)
            else:
                assert res.rotation == rotation_number(
                    q, lam, max(64, 4 * max_period))
                if picked is not None:
                    assert res.rotation.cycle == picked[0]
            return res.to_json_dict()

        return run

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    @pytest.mark.parametrize("max_period", [1, 3, 13])
    def test_seeded_mirror_pairs(self, outcomes, q, max_period):
        rng = random.Random(100 * q + max_period)
        cs = [0.0, 8.0 / 21.0]
        for _ in range(3):
            c = rng.random()
            cs += [c, (1.0 - c) % 1.0]
        for c in cs:
            outcomes(q, c, max_period)

    @pytest.mark.parametrize("row", VALIDITY_BASELINE,
                             ids=lambda r: f"{r[0]}-{r[1]}")
    def test_validity_endpoints(self, outcomes, row):
        # 1e-9 inside each endpoint certifies the row's cycle; 1e-9 outside
        # falls in a gap of higher periods
        period, rot, _, _, c_lo, c_hi = row
        for c, inside in ((c_lo + 1e-9, True), (c_lo - 1e-9, False),
                          (c_hi - 1e-9, True), (c_hi + 1e-9, False)):
            res = outcomes(2, c % 1.0)
            if inside:
                assert (res["period"], res["rotation"]) == (period, rot)

    def test_depth_error_unchanged(self, outcomes):
        # the balance that dropped image arcs shorter than 1e-15 raised
        # DepthError here; every arc is kept now, and each c is a gap
        for c in FORMER_DEPTH_ERROR_C:
            res = outcomes(2, c)
            assert (res["status"], res["rotation"]) == ("nonperiodic",
                                                        "15/17"), c

    def test_former_depth_error_c_is_a_gap(self, outcomes):
        # the grid-started bracket met the depth cap here
        res = outcomes(2, 0.18208128)
        assert (res["status"], res["rotation"]) == ("nonperiodic", "15/17")

    def test_max_period_zero_rejected(self, outcomes):
        # c = 0.05 sits in the fixed point's window, which the walk reaches
        # before any period cap
        assert outcomes(2, 0.05, 0) == "ValueError: max_period must be >= 1"

    @pytest.mark.parametrize("c, certified, rotation", [
        (0.5, True, F(1, 2)),
        (VALIDITY_BASELINE[0][4] - 1e-9, False, F(16, 31)),  # below 1/2
        (8.0 / 21.0, False, F(9, 14)),  # period 14, past the cap 13
    ], ids=["certificate", "gap", "8/21"])
    def test_one_rotation_number_call(self, monkeypatch, c, certified,
                                      rotation):
        calls = []

        def counting(*args):
            calls.append(args)
            return rotation_number(*args)

        monkeypatch.setattr(certify, "rotation_number", counting)
        res = gelfond_exponent(PotentialParams(2, c))
        assert len(calls) == 1
        assert isinstance(res, GelfondCertificate) == certified
        cycle = res.cycle if certified else res.rotation.cycle
        assert cycle.rotation == rotation


def test_max_period_rejected_before_any_balance_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return sturmian_balance(*args, **kwargs)

    monkeypatch.setattr(certify, "sturmian_balance", counting)
    with pytest.raises(ValueError, match=r"^max_period must be >= 1$"):
        gelfond_exponent(PotentialParams(2, 0.3), 0)
    assert calls == []
    gelfond_exponent(PotentialParams(2, 0.3), 1)
    assert calls  # the stand-in does see the balance calls


# Finds the root to tolerance 0 from a certified sign bracket: the lambda
# root at q = 2, c = 1/3, or the c-root at the upper window end of the q = 2
# period-2 cycle.  The root must be the midpoint of the full bisection's
# bracket, which must end at two adjacent floats or at a midpoint whose sign
# is uncertain.
ZERO_TOL_ROOT = """
import math, sys
from fractions import Fraction
from conftest import full_bisection
from gelfond import certify
from gelfond.circle import sturmian_balance
from gelfond.potential import PotentialParams
from gelfond.sturmian import build_cycle, lambda_window

if sys.argv[1] == "lambda_bracket":
    params = PotentialParams(2, 1 / 3)
    a, b = certify._guarded_window(-0.5 - 1 / 3, -1 / 3)

    def balance_at(lam):
        return sturmian_balance(params, lam)
else:
    lam_e = float(lambda_window(build_cycle(2, 0, Fraction(1, 2))).hi)
    a, b = certify._guarded_window(-lam_e - 0.5, -lam_e)

    def balance_at(c):
        return sturmian_balance(PotentialParams(2, c % 1.0), lam_e)
root, _ = certify._root(balance_at, a, b, 0.0, sys.argv[1])
lo, hi, _ = full_bisection(balance_at, a, b, 0.0)
assert root == 0.5 * (lo + hi), (root, lo, hi)
assert a <= lo < hi <= b, (lo, hi)
assert (math.nextafter(lo, math.inf) == hi or certify._certified_sign(
    balance_at(0.5 * (lo + hi))) == 0), (lo, hi)
"""


@pytest.mark.parametrize("bracket", ["lambda_bracket", "c_root"])
def test_zero_tolerance_terminates(bracket):
    # run in a child process so that a regression fails on the timeout
    # instead of hanging
    src = os.path.dirname(os.path.dirname(certify.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", ZERO_TOL_ROOT, bracket],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Median balance calls per certificate over the c of
# test_balance_calls_per_certificate: the lambda root, replayed from the
# points its search settles, and the two window-endpoint checks.  The full
# bisection makes 43 / 43 / 42 / 41: the two ends of the guarded window,
# ceil(log2(width / DEFAULT_LAMBDA_TOL)) steps for the width
# 1/q - 4 * WINDOW_GUARD, and the two checks.
MEDIAN_CALLS_PER_CERTIFICATE = {2: 14, 3: 14.5, 5: 12.5, 8: 11.5}
# The work behind those calls: median levels integrated per certificate,
# the sum of BalanceValue.depth over its calls, over the same c.  A search
# that calls the same number of points deeper shows here, without timing.
MEDIAN_LEVELS_PER_CERTIFICATE = {2: 287.5, 3: 193.5, 5: 123, 8: 84}


def lambda_bracket(params):
    """The full bisection's lambda bracket and its number of calls: the
    bracket whose midpoint find_balance_point returns."""
    q, c = params.q, params.c
    return full_bisection(
        lambda lam: sturmian_balance(params, lam),
        *certify._guarded_window(-1.0 / q - c, -c), DEFAULT_LAMBDA_TOL)


def bracket_done(params, bra, brb):
    """The lambda bracket's stopping rule: width <= DEFAULT_LAMBDA_TOL, or a
    midpoint whose balance sign is uncertain."""
    return brb - bra <= DEFAULT_LAMBDA_TOL or certify._certified_sign(
        sturmian_balance(params, 0.5 * (bra + brb))) == 0


class TestBracketMatchesLinearScan:
    """The lambda bracket: the balance certified + at the start of the
    guarded window and - at its end, then one bisection on certified signs
    to DEFAULT_LAMBDA_TOL or an uncertain midpoint.  The class keeps the
    name it had while the bracket started from a coarse grid checked against
    a scan of every grid point; the grid and that oracle are gone."""

    @staticmethod
    def check_invariants(q, c):
        params = PotentialParams(q, c)
        glo, ghi = certify._guarded_window(-1.0 / q - c, -c)
        for lam, sign in ((glo, 1), (ghi, -1)):
            v = sturmian_balance(params, lam)
            assert certify._certified_sign(v) == sign, (q, c, lam)
        bra, brb, _ = lambda_bracket(params)
        assert glo <= bra < brb <= ghi
        assert bracket_done(params, bra, brb)
        res = gelfond_exponent(params)
        assert res.lambda_star == 0.5 * (bra + brb)
        assert res.lambda_star == find_balance_point(params)
        if isinstance(res, GelfondCertificate):
            assert res.lambda1 < res.lambda_star < res.lambda2
            assert certify._certified_sign(res.v1) > 0
            assert certify._certified_sign(res.v2) < 0
            assert exact_window_holds(res.cycle, res.lambda_star)
        return res

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_seeded_mirror_pairs(self, q):
        rng = random.Random(700 + q)
        cs = [0.0, 8.0 / 21.0, 0.5]
        for _ in range(4):
            c = rng.random()
            cs += [c, (1.0 - c) % 1.0]
        for c in cs:
            self.check_invariants(q, c)

    def test_validity_endpoints(self):
        # at and within 1e-9 of sampled endpoints any certificate names its
        # row's cycle; nearer than 1e-12 whether one certifies depends on
        # where the bisection's points fall, so only the points 1e-9 inside
        # must certify
        certified = 0
        for row in VALIDITY_BASELINE[::4]:
            period, rot, _, _, c_lo, c_hi = row
            for c, off in itertools.product(
                    (c_lo, c_hi), (0.0, 1e-12, -1e-12, 1e-9, -1e-9)):
                res = self.check_invariants(2, (c + off) % 1.0)
                if isinstance(res, GelfondCertificate):
                    certified += 1
                    assert (res.cycle.period, str(res.cycle.rotation)) == (
                        period, rot)
                else:
                    assert off != (1e-9 if c == c_lo else -1e-9), (row, c)
        assert certified > 2 * len(VALIDITY_BASELINE[::4])

    @pytest.mark.parametrize("q", sorted(MEDIAN_CALLS_PER_CERTIFICATE))
    def test_balance_calls_per_certificate(self, monkeypatch, q):
        depths = record_balance_depths(monkeypatch)
        rng = random.Random(17 + q)
        per_certificate, levels = [], []
        for c in [0.0, 0.5] + [rng.random() for _ in range(6)]:
            depths.clear()
            res = gelfond_exponent(PotentialParams(q, c))
            if isinstance(res, GelfondCertificate):
                n = len(depths)
                per_certificate.append(n)
                levels.append(sum(depths))
                bra, brb, n_full = lambda_bracket(res.params)
                assert res.lambda_star == 0.5 * (bra + brb), (q, c)
                if brb - bra <= DEFAULT_LAMBDA_TOL:
                    assert n <= n_full + 2, (q, c)
                else:  # stopped at an uncertain midpoint
                    assert bracket_done(res.params, bra, brb), (q, c)
                    assert n <= n_full + 2 + certify.SETTLE_CALLS, (q, c)
        assert len(per_certificate) >= 2
        assert statistics.median(per_certificate) == (
            MEDIAN_CALLS_PER_CERTIFICATE[q])
        assert statistics.median(levels) == MEDIAN_LEVELS_PER_CERTIFICATE[q]

    def test_former_depth_errors_are_gaps(self):
        # while image arcs shorter than 1e-15 were dropped, a bisection
        # midpoint's err_bound stayed above 1e-13 at every depth here
        for c in FORMER_DEPTH_ERROR_C:
            res = self.check_invariants(2, c)
            assert isinstance(res, NonPeriodicReport), c
            assert res.rotation.value == F(15, 17), c

    @pytest.mark.parametrize("value", [
        lambda lam: 1.0,                 # no sign change
        lambda lam: lam + 0.6,           # oriented -,+ on c = 0.4's window
        lambda lam: 0.0,                 # nothing certified
    ])
    def test_ends_must_bracket(self, monkeypatch, value):
        monkeypatch.setattr(
            certify, "sturmian_balance",
            lambda params, lam, *a, **k: BalanceValue(value(lam), 0.0, 1))
        with pytest.raises(GuardError, match=r"^no certified sign bracket "
                                             r"in lambda for q=2, c=0\.4$"):
            find_balance_point(PotentialParams(2, 0.4))


# The certificates at the symmetric c = 0 and 1/2 before the bisection moved
# only on certified signs: (base digit, rotation, beta as float.hex).
SYMMETRIC_C = {
    (2, 0.0): (0, F(0), "0x1.62e42fefa39efp-1"),
    (2, 0.5): (0, F(1, 2), "0x1.193ea7aad030cp-1"),
    (3, 0.0): (0, F(0), "0x1.193ea7aad030bp+0"),
    (3, 0.5): (1, F(0), "0x1.193ea7aad030bp+0"),
    (5, 0.0): (0, F(0), "0x1.9c041f7ed8d33p+0"),
    (5, 0.5): (2, F(0), "0x1.9c041f7ed8d33p+0"),
    (8, 0.0): (0, F(0), "0x1.0a2b23f3bab73p+1"),
    (8, 0.5): (3, F(1, 2), "0x1.bc442b08a53a4p+0"),
}


def root_calls(balance, tol):
    """The points certify._root calls for balance on [0, 1] at tol, in
    order, each once; the points full_bisection calls, in order; and the
    full bisection's bracket, whose midpoint _root returns."""
    seen, full = [], []

    def recording(into):
        def balance_at(x):
            into.append(x)
            return balance(x)
        return balance_at

    root, _ = certify._root(recording(seen), 0.0, 1.0, tol, "x")
    a, b, n_full = full_bisection(recording(full), 0.0, 1.0, tol)
    assert root == 0.5 * (a + b)
    assert len(set(seen)) == len(seen)
    assert len(full) == n_full
    return seen, full, (a, b)


def settled_points(values):
    """(lo, hi): of the points called, given as {x: BalanceValue}, the
    nearest to the root whose balance clears twice its bound by
    SETTLED_MARGIN, on the + side and on the - side; -inf and inf where
    there is none."""
    m = certify.SETTLED_MARGIN
    return (max((x for x, v in values.items()
                 if v.value - 2.0 * v.err_bound >= m), default=-math.inf),
            min((x for x, v in values.items()
                 if -v.value - 2.0 * v.err_bound >= m), default=math.inf))


class TestCertifiedSigns:
    """The bisection moves an end only on a certified sign and stops at a
    midpoint whose sign is uncertain; at the symmetric c = 0 and 1/2 that is
    its first midpoint, which becomes lam*."""

    @pytest.mark.parametrize("value", [1e-3, -1e-3])
    def test_uncertain_first_midpoint_moves_no_end(self, value):
        # certified + at 0 and - at 1, uncertain in between: the search
        # stops at its first midpoint, and the bisection calls the ends
        def balance(x):
            if x in (0.0, 1.0):
                return BalanceValue(1.0 - 2.0 * x, 0.0, 1)
            return BalanceValue(value, 1.0, 1)

        seen, full, bracket = root_calls(balance, 1e-12)
        assert bracket == (0.0, 1.0)
        assert full == [0.0, 1.0, 0.5]
        assert seen == [0.5, 0.0, 1.0]

    def test_zero_tolerance_stops_at_adjacent_floats(self):
        # every sign is certified, so only the float spacing ends the search
        _, _, (a, b) = root_calls(
            lambda x: BalanceValue(1.0 if x < 0.3 else -1.0, 0.0, 1), 0.0)
        assert math.nextafter(a, math.inf) == b
        assert a < 0.3 <= b

    def test_search_stops_at_the_uncertain_midpoint(self):
        # the sign of 0.3 - x is certified only farther than 0.01 from 0.3
        def balance(x):
            return BalanceValue(0.3 - x, 0.01, 1)

        seen, full, (a, b) = root_calls(balance, 1e-12)
        assert full[:2] == [0.0, 1.0]  # the certified ends
        assert full[2:] == [0.5, 0.25, 0.375, 0.3125, 0.28125, 0.296875]
        assert (a, b) == (0.28125, 0.3125)
        assert 0.5 * (a + b) == full[-1] == seen[-1]
        assert certify._certified_sign(balance(a)) == 1
        assert certify._certified_sign(balance(b)) == -1
        # the search settles 0.25 and 0.5, so the ends and the first two
        # midpoints cost no call; the false-position step 0.3 is uncertain
        assert seen == [0.5, 0.25, 0.3, 0.375, 0.3125, 0.28125, 0.296875]

    @pytest.mark.parametrize("q, c", sorted(SYMMETRIC_C))
    def test_symmetric_c_stops_at_the_guarded_midpoint(self, q, c):
        # the balance vanishes at the guarded window's midpoint, the
        # bisection's first point
        res = cert(q, c)
        digit, rotation, beta = SYMMETRIC_C[q, c]
        assert (res.cycle.base_digit, res.cycle.rotation) == (digit, rotation)
        assert res.beta == float.fromhex(beta)
        glo, ghi = certify._guarded_window(-1.0 / q - c, -c)
        assert res.lambda_star == 0.5 * (glo + ghi)

    @pytest.mark.parametrize("q, c", sorted(SYMMETRIC_C))
    def test_symmetric_c_makes_five_calls(self, monkeypatch, q, c):
        # the full bisection's three (its ends and the uncertain guarded
        # midpoint) and the two window-endpoint checks
        calls = count_balance_calls(monkeypatch)
        res = cert(q, c)
        assert len(calls) == 5
        bra, brb, n_full = lambda_bracket(res.params)
        assert n_full == 3
        assert res.lambda_star.hex() == (0.5 * (bra + brb)).hex()


def c_root_cases(q, max_period):
    """(lambda, balance_at) at both window ends of every cycle of period
    2..max_period."""
    for cy in enumerate_cycles(q, max_period):
        if cy.period < 2:
            continue
        win = lambda_window(cy)
        for lam in (float(win.hi), float(win.lo)):
            yield lam, functools.partial(balance_in_c, q, lam)


def balance_in_c(q, lam, c):
    return sturmian_balance(PotentialParams(q, c % 1.0), lam)


def count_balance_calls(monkeypatch):
    """The argument tuples of the balance calls made through certify."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sturmian_balance(*args, **kwargs)

    monkeypatch.setattr(certify, "sturmian_balance", counting)
    return calls


def record_balance_depths(monkeypatch):
    """The BalanceValue.depth of each balance call made through certify."""
    depths = []

    def recording(*args, **kwargs):
        v = sturmian_balance(*args, **kwargs)
        depths.append(v.depth)
        return v

    monkeypatch.setattr(certify, "sturmian_balance", recording)
    return depths


def check_settled_premise(balance_at, a, b, tol, rng, where):
    """Past a point _root settles in [a, b], whose balance clears twice its
    bound by SETTLED_MARGIN, every adaptive call certifies that point's
    sign, down to one float beyond it."""
    seen = {}

    def recording(x):
        seen[x] = balance_at(x)
        return seen[x]

    certify._root(recording, a, b, tol, "x")
    lo, hi = settled_points(seen)
    assert a <= lo < hi <= b, where
    for end, sign, edge in ((lo, 1, a), (hi, -1, b)):
        points = [math.nextafter(end, edge)] + [
            end + (edge - end) * 10.0 ** rng.uniform(-14, 0)
            for _ in range(6)]
        for x in points:
            v = balance_at(x)
            assert certify._certified_sign(v) == sign, (where, x)


# Median balance calls and levels (the sum of BalanceValue.depth) per
# _c_root over c_root_cases(q, C_ROOT_MAX_PERIOD[q]); the full bisection
# makes 36 to 38 calls per root.
C_ROOT_MAX_PERIOD = {2: 13, 3: 9, 5: 8, 8: 6}
MEDIAN_CALLS_PER_C_ROOT = {2: 11, 3: 12, 5: 13, 8: 12}
MEDIAN_LEVELS_PER_C_ROOT = {2: 249, 3: 169, 5: 124, 8: 88}


class TestSettledReplay:
    """_root replays the bisection, in c for _c_root and in lambda for
    find_balance_point, from the points its search settles, taking the sign
    of an end or midpoint beyond them without a call: the same root, bit for
    bit, from fewer calls."""

    @pytest.mark.parametrize("q, max_period", [(2, 13), (5, 8)])
    def test_c_root_is_the_full_bisection(self, monkeypatch, q, max_period):
        calls = count_balance_calls(monkeypatch)
        for lam, balance_at in c_root_cases(q, max_period):
            a, b, n_full = full_bisection(
                balance_at, *certify._guarded_window(-lam - 1.0 / q, -lam),
                certify.DEFAULT_VALIDITY_TOL)
            calls.clear()
            root = certify._c_root(q, lam)
            assert root.hex() == (0.5 * (a + b)).hex(), (q, lam)
            # each c is called once, and the search adds at most its cap
            assert len(set(calls)) == len(calls)
            assert len(calls) <= n_full + certify.SETTLE_CALLS

    def test_median_calls_per_root(self, monkeypatch):
        depths = record_balance_depths(monkeypatch)
        calls, levels = {}, {}
        for q, max_period in C_ROOT_MAX_PERIOD.items():
            per_root = []
            for lam, _ in c_root_cases(q, max_period):
                depths.clear()
                certify._c_root(q, lam)
                per_root.append((len(depths), sum(depths)))
            calls[q] = statistics.median(n for n, _ in per_root)
            levels[q] = statistics.median(d for _, d in per_root)
        assert calls == MEDIAN_CALLS_PER_C_ROOT
        assert levels == MEDIAN_LEVELS_PER_C_ROOT

    @staticmethod
    def check_lambda_root(calls, q, c):
        params = PotentialParams(q, c)
        a, b, n_full = lambda_bracket(params)
        calls.clear()
        lam = find_balance_point(params)
        assert lam.hex() == (0.5 * (a + b)).hex(), (q, c)
        # each lambda is called once, and no more often than the bisection
        assert len(set(calls)) == len(calls) <= n_full, (q, c)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_lambda_root_is_the_full_bisection(self, monkeypatch, q):
        calls = count_balance_calls(monkeypatch)
        rng = random.Random(900 + q)
        for _ in range(50):
            self.check_lambda_root(calls, q, rng.random())

    def test_lambda_root_near_validity_endpoints(self, monkeypatch):
        # lambda* within about 1e-12 of a cycle's window edge
        calls = count_balance_calls(monkeypatch)
        for row in VALIDITY_BASELINE:
            for c, off in itertools.product(row[4:6], (1e-12, -1e-12)):
                self.check_lambda_root(calls, 2, (c + off) % 1.0)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_settled_points_fix_farther_signs(self, q):
        # the premise of the replay in c at a fixed lambda
        rng = random.Random(31 + q)
        cycles = [cy for cy in enumerate_cycles(q, 8) if cy.period >= 2]
        for cy in rng.sample(cycles, 3):
            win = lambda_window(cy)
            lam = float(rng.choice((win.lo, win.hi)))
            check_settled_premise(
                functools.partial(balance_in_c, q, lam),
                *certify._guarded_window(-lam - 1.0 / q, -lam),
                certify.DEFAULT_VALIDITY_TOL, rng, (q, lam))

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_settled_lambda_points_fix_farther_signs(self, q):
        # the premise of the replay in lambda at a fixed c
        rng = random.Random(41 + q)
        for c in [rng.random() for _ in range(3)]:
            params = PotentialParams(q, c)
            check_settled_premise(
                functools.partial(sturmian_balance, params),
                *certify._guarded_window(-1.0 / q - c, -c),
                DEFAULT_LAMBDA_TOL, rng, (q, c))

    # The test keeps the name it had while the replay was a function of
    # its own, given the settled points.
    @pytest.mark.parametrize("balance, tol", [
        # the sign of 0.3 - x certified only farther than 0.01 from 0.3
        (lambda x: BalanceValue(0.3 - x, 0.01, 1), 1e-12),
        # every sign certified, down to adjacent floats
        (lambda x: BalanceValue(1.0 if x < 0.3 else -1.0, 0.0, 1), 0.0),
    ], ids=["uncertain_stop", "adjacent_floats"])
    def test_sign_bracket_skips_settled_midpoints(self, balance, tol):
        seen, full, _ = root_calls(balance, tol)
        lo, hi = settled_points({x: balance(x) for x in seen})
        skipped = set(full) - set(seen)
        # the bisection's points _root does not call lie past the settled
        # points, where their signs are known
        assert skipped and all(x <= lo or x >= hi for x in skipped)
        if tol:
            assert len(seen) < len(full)
        else:
            # false position crawls along the step, so the search's calls
            # (at most its cap past the opening) outnumber the skips
            assert len(seen) <= len(full) + certify.SETTLE_CALLS

    def test_end_past_no_settled_point_is_called(self):
        # certified + left of 0.75 and uncertain from there on: the search
        # settles 0.5 and stops at the uncertain 0.75, so the end 0 is
        # taken as + without a call, while nothing settled lies between
        # the end 1 and the root, which is called and fails the bracket
        seen = []

        def balance_at(x):
            seen.append(x)
            return BalanceValue(0.8 - x, 0.0 if x < 0.75 else 1.0, 1)

        with pytest.raises(GuardError,
                           match=r"^no certified sign bracket in x$"):
            certify._root(balance_at, 0.0, 1.0, 1e-12, "x")
        assert seen == [0.5, 0.75, 1.0]

    def test_uncertified_ends_settle_nothing(self):
        # the search stops at its uncertain first midpoint; with nothing
        # settled the end 0 is called, and fails the bracket
        seen = []

        def balance_at(x):
            seen.append(x)
            return BalanceValue(0.3 - x, 1.0, 1)

        with pytest.raises(GuardError,
                           match=r"^no certified sign bracket in x$"):
            certify._root(balance_at, 0.0, 1.0, 1e-12, "x")
        assert seen == [0.5, 0.0]


def bisection_path(a, b, tol, r):
    """_root's bisection path from [a, b] toward r: its ends, then the
    midpoints it takes halving toward r."""
    path = [a, b]
    while b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        path.append(mid)
        a, b = (mid, b) if mid < r else (a, mid)
    return path


def on_path_before(a, b, tol, r, x):
    """certify._on_path as it stood before it stopped past x: the whole
    path, searched for the nearest point to x on x's side of r."""
    return min((p for p in bisection_path(a, b, tol, r)
                if (p - r) * (x - r) > 0), key=lambda p: abs(p - x))


def test_on_path_matches_the_whole_path():
    rng = random.Random(4321)
    for _ in range(10_000):
        a = rng.uniform(-2.0, 1.0)
        b = a + 10.0 ** rng.uniform(-13, 0)
        tol = rng.choice((0.0, 1e-12, 10.0 ** rng.uniform(-15, -1)))
        # r anywhere in [a, b], at an end, or at a point of some path
        path = bisection_path(a, b, tol, rng.uniform(a, b))
        r = rng.choice((rng.uniform(a, b), a, b, rng.choice(path)))
        path = [p for p in bisection_path(a, b, tol, r) if p != r]
        p, s = rng.choice(path), rng.choice(path)
        # x near r, at a path point, or halfway between two of them (a tie)
        x = rng.choice((r + (b - a) * rng.choice((-1, 1))
                        * 10.0 ** rng.uniform(-16, 0), p, 0.5 * (p + s)))
        try:
            expected = on_path_before(a, b, tol, r, x)
        except ValueError:  # no path point on x's side of r, or x == r
            with pytest.raises(ValueError):
                certify._on_path(a, b, tol, r, x)
            continue
        assert certify._on_path(a, b, tol, r, x) == expected, (a, b, tol, r, x)


def seeded_mirror_cs(q, n=100):
    rng = random.Random(1100 + q)
    return [c for c in (rng.random() for _ in range(n)) if c > 0.0]


def inexact_mirror_cs():
    """The i/1000 whose grid mirror (1000 - i)/1000 is not exactly 1 - c."""
    return [i / 1000 for i in range(1, 1000, 7)
            if F(i / 1000) + F((1000 - i) / 1000) != 1]


def lambda_root_work(depths, q, c):
    """find_balance_point at (q, c): lambda*, its balance calls and levels."""
    depths.clear()
    lam = find_balance_point(PotentialParams(q, c))
    return lam, (len(depths), sum(depths))


# Median balance calls and levels per lambda root, over seeded_mirror_cs(q):
# at c, with nothing kept, and at 1 - c, from the settled pair kept at c;
# and calls at the grid mirror of each of inexact_mirror_cs().
MEDIAN_CALLS_PER_FIRST_ROOT = {2: 13, 3: 14, 5: 13, 8: 12}
MEDIAN_CALLS_PER_SEEDED_MIRROR = {2: 1, 3: 2, 5: 1, 8: 1}
MEDIAN_LEVELS_PER_SEEDED_MIRROR = {2: 43, 3: 50, 5: 18, 8: 13}
MEDIAN_CALLS_PER_INEXACT_MIRROR = {2: 2.5, 3: 3, 5: 2, 8: 2}


class TestMirrorSeed:
    """find_balance_point at 1 - c reads the settled pair (lo, hi) kept at
    c and gives _root its mirror images, -1/q - hi and -1/q - lo shifted
    into W_{1-c}, as settled points: both when the kept phase is exactly
    1 - c, otherwise the one the order of the phases proves, the other
    called first.  The replay keeps the full bisection's root, bit for bit.
    The class keeps the name it had while the kept value was a seed for
    the search."""

    @staticmethod
    def key(q, c):
        return q, round(c * 2**40)

    @staticmethod
    def check_full_bisection(q, c, lam):
        bra, brb, _ = lambda_bracket(PotentialParams(q, c))
        assert lam.hex() == (0.5 * (bra + brb)).hex(), (q, c)

    @pytest.mark.parametrize("q", sorted(MEDIAN_CALLS_PER_SEEDED_MIRROR))
    def test_mirror_is_the_full_bisection(self, monkeypatch, q):
        depths = record_balance_depths(monkeypatch)
        first, mirror = [], []
        for c in seeded_mirror_cs(q):
            assert F(c) + F(1.0 - c) == 1  # an exact mirror
            certify._brackets.clear()
            first.append(lambda_root_work(depths, q, c)[1])
            assert certify._brackets[self.key(q, c)][0] == c
            lam, work = lambda_root_work(depths, q, 1.0 - c)
            mirror.append(work)
            self.check_full_bisection(q, 1.0 - c, lam)
        assert statistics.median(n for n, _ in first) == (
            MEDIAN_CALLS_PER_FIRST_ROOT[q])
        assert statistics.median(n for n, _ in mirror) == (
            MEDIAN_CALLS_PER_SEEDED_MIRROR[q])
        assert statistics.median(d for _, d in mirror) == (
            MEDIAN_LEVELS_PER_SEEDED_MIRROR[q])

    @pytest.mark.parametrize("q", sorted(MEDIAN_CALLS_PER_INEXACT_MIRROR))
    def test_inexact_mirror_is_the_full_bisection(self, monkeypatch, q):
        depths = record_balance_depths(monkeypatch)
        mirror = []
        for c in inexact_mirror_cs():
            certify._brackets.clear()
            lambda_root_work(depths, q, c)
            cm = (1000 - round(c * 1000)) / 1000
            assert self.key(q, 1.0 - cm) == self.key(q, c)
            lam, work = lambda_root_work(depths, q, cm)
            mirror.append(work[0])
            self.check_full_bisection(q, cm, lam)
        assert statistics.median(mirror) == MEDIAN_CALLS_PER_INEXACT_MIRROR[q]

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_colliding_key_takes_one_side(self, monkeypatch, q):
        # a phase 1 - c + d with the key of 1 - c: the order of the phases
        # proves the image on one side, and the other is the first call
        calls = count_balance_calls(monkeypatch)
        settled = tried = 0
        for c in seeded_mirror_cs(q, 6):
            certify._brackets.clear()
            find_balance_point(PotentialParams(q, c))
            _, lo, hi = certify._brackets[self.key(q, c)]
            for d in (2.0**-52, -(2.0**-52), 2.0**-42, -(2.0**-42)):
                cm = 1.0 - c + d
                if self.key(q, 1.0 - cm) != self.key(q, c):
                    continue
                assert F(cm) + F(c) != 1
                tried += 1
                certify._brackets.clear()
                certify._brackets[self.key(q, c)] = c, lo, hi
                calls.clear()
                lam = find_balance_point(PotentialParams(q, cm))
                self.check_full_bisection(q, cm, lam)
                # k - 1/q - x, in the window of 1 - c
                glo, ghi = certify._guarded_window(-1.0 / q - cm, -cm)
                k = round(0.5 * (glo + ghi + lo + hi) + 1.0 / q)
                probe = k - 1.0 / q - (hi if d > 0 else lo)
                assert calls[0][1] == pytest.approx(probe, abs=1e-15), (
                    q, c, d)
                assert len(set(calls)) == len(calls)
                # once the probe settles on its side, the bisection calls
                # only points strictly between it and the proved image
                v = sturmian_balance(*calls[0])
                if ((1 if d > 0 else -1) * v.value - 2.0 * v.err_bound
                        >= certify.SETTLED_MARGIN):
                    settled += 1
                    proved = k - F(1, q) - F(lo if d > 0 else hi)
                    for _, x in calls[1:]:
                        assert (x - calls[0][1]) * (proved - F(x)) > 0, (
                            q, c, d, x)
        # the probe settles at the nearest phases, not at all of the farthest
        assert 0 < settled < tried

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_exact_pair_calls_between_both_images(self, monkeypatch, q):
        # phases c + s = 1 exactly, either first: both images are settled
        # points, so the root at s calls only points strictly between them
        calls = count_balance_calls(monkeypatch)
        pairs = [(c, 1.0 - c) for c in seeded_mirror_cs(q, 40)
                 if F(c) + F(1.0 - c) == 1]
        pairs += [(0.375, 0.625), (2.0**-30, 1.0 - 2.0**-30),
                  (0.5 - 2.0**-40, 0.5 + 2.0**-40)]
        pairs += [(s, c) for c, s in pairs]
        between = 0
        for c, s in pairs:
            assert F(c) + F(s) == 1 and self.key(q, 1.0 - s) == self.key(q, c)
            certify._brackets.clear()
            find_balance_point(PotentialParams(q, c))
            _, lo, hi = certify._brackets[self.key(q, c)]
            calls.clear()
            lam = find_balance_point(PotentialParams(q, s))
            self.check_full_bisection(q, s, lam)
            # k - 1/q - x, in the window of s
            glo, ghi = certify._guarded_window(-1.0 / q - s, -s)
            k = round(0.5 * (glo + ghi + lo + hi) + 1.0 / q)
            below, above = k - F(1, q) - F(hi), k - F(1, q) - F(lo)
            for _, x in calls:
                assert below < F(x) < above, (q, c, x)
            between += len(calls)
        assert len(pairs) >= 20 and between > 0

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_own_mirror_reads_no_seed(self, monkeypatch, q, c):
        # c = 1/2 is its own mirror, and c = 0's mirror 1 is no key in [0, 1)
        calls = count_balance_calls(monkeypatch)
        counts = []
        for _ in range(2):
            calls.clear()
            cert(q, c)
            counts.append(list(calls))
        assert counts[0] == counts[1]
        assert len(counts[0]) == 5

    # The test keeps the name it had while the dict held root estimates.
    def test_estimates_are_bounded(self, monkeypatch):
        # a stand-in balance, linear in lambda, so that 3,000 roots are fast
        monkeypatch.setattr(
            certify, "sturmian_balance",
            lambda params, lam: BalanceValue(-(lam + 0.3 + params.c),
                                             1e-14, 1))
        cs = [(i + 0.5) / 3000 for i in range(3000)]
        for c in cs:
            find_balance_point(PotentialParams(2, c))
        kept = certify._brackets
        assert len(kept) == certify.BRACKETS_SIZE == 1024
        # the oldest are dropped first
        assert list(kept) == [self.key(2, c) for c in cs[-1024:]]
        for c, value in zip(cs[-1024:], kept.values()):
            assert type(value) is tuple and len(value) == 3
            assert all(type(v) is float for v in value)
            assert value[0] == c and value[1] < value[2]


# The longest period all_orbits_best searches at each q: every orbit of
# period <= P, in a few hundredths of a second per c.
ALL_ORBITS_PERIOD = {2: 16, 3: 10, 5: 7, 8: 5}


@pytest.mark.parametrize("q", sorted(ALL_ORBITS_PERIOD))
def test_no_periodic_orbit_beats_beta(q):
    # the paper's theorem: the Sturmian cycle maximizes f_c over every
    # invariant measure, so over every periodic orbit, Sturmian or not
    rng = random.Random(4400 + q)
    cs = [0.0, 0.25, 1.0 / 3.0, 0.5, 0.75] + [rng.random() for _ in range(6)]
    if q == 2:
        cs += [float(c) for c in certify.DEFAULT_TABLE2_FRACTIONS]
    period = ALL_ORBITS_PERIOD[q]
    reached = 0
    for c in cs:
        # the reference c = 8/21 needs a cycle of period 21
        res = gelfond_exponent(PotentialParams(q, c), max_period=25)
        assert isinstance(res, GelfondCertificate), res
        best = all_orbits_best(q, c, period)
        assert best <= res.beta + 1e-12, (q, c, best - res.beta)
        if res.cycle.period <= period:
            reached += 1
            assert best >= res.beta - 1e-12, (q, c, best - res.beta)
    assert reached >= 11


def test_outward_rounds_away_exactly():
    # the float on each side of k - 1/q - x nearest it, itself if a float
    rng = random.Random(606)
    for _ in range(2000):
        q = rng.choice((2, 3, 5, 7, 8))
        k = rng.randrange(-2, 2)
        x = rng.choice((rng.uniform(-2.0, 1.0), -0.5, 0.25,
                        float(k - F(1, q))))
        e = k - F(1, q) - F(x)
        for side in (-1, 1):
            y = certify._outward(k, q, x, side)
            inward = math.nextafter(y, -side * math.inf)
            assert (F(y) - e) * side >= 0 > (F(inward) - e) * side, (
                k, q, x, side)
        if F(float(e)) == e:
            assert certify._outward(k, q, x, -1) == certify._outward(
                k, q, x, 1)


def test_root_keeps_the_nearest_settled_points():
    # given settled points nearer the root than any the search settles are
    # kept, and a later call nearer still replaces them
    def balance(x):
        return BalanceValue(0.3 - x, 0.01, 1)

    for lo, hi in ((0.29, 0.31), (0.29, math.inf), (-math.inf, 0.31),
                   (0.1, 0.9)):
        values = {}

        def balance_at(x):
            values[x] = balance(x)
            return values[x]

        root, settled = certify._root(balance_at, 0.0, 1.0, 1e-12, "x",
                                      lo, hi)
        a, b, _ = full_bisection(balance, 0.0, 1.0, 1e-12)
        assert root == 0.5 * (a + b)
        called_lo, called_hi = settled_points(values)
        assert settled == (max(lo, called_lo), min(hi, called_hi))
        if lo > -math.inf and hi < math.inf:  # the replay alone runs
            assert all(lo < x < hi for x in values)


class TestCompactRecords:
    def test_pickle_and_replace(self):
        res = cert(2, 0.25)
        gap = gelfond_exponent(PotentialParams(2, 8.0 / 21.0))
        for obj in (res, res.params, res.cycle, res.v1, gap):
            assert not hasattr(obj, "__dict__")
            assert pickle.loads(pickle.dumps(obj)) == obj
        moved = dataclasses.replace(res, beta=res.beta + 1.0)
        assert moved.beta == res.beta + 1.0 and moved.cycle is res.cycle
        v = dataclasses.replace(res.v1, err_bound=2.0)
        assert isinstance(v, BalanceValue) and v.value == res.v1.value
        cyc = dataclasses.replace(res.cycle, base_digit=0)
        assert cyc == res.cycle
        with pytest.raises(ValueError):
            dataclasses.replace(res.params, q=1)

    def test_certificates_share_cycles(self):
        a, b = cert(2, 0.25), cert(2, 0.26)
        assert a.cycle is b.cycle is build_cycle(2, 0, F(3, 4))
