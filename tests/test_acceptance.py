"""Acceptance suite: one test (or test pair) per criterion, each printing a
PASS/FAIL line.

Criteria 2b and 3b check that the package reproduces the printed q = 2
tables (reference_tables.PRINTED_TABLE1/2).  A printed row either matches
the computed one at print precision, or it is a print defect, and then an
oracle that shares no code with gelfond has to show the print wrong and the
computed value right.  That oracle (conftest.SturmianTournament and
orbit_mean_50) uses the paper's definition directly: beta(2; c) is the
maximal ergodic average of log|2 cos pi(x + c)|, attained by a Sturmian
measure, so on a periodic piece the maximizing cycle is the one whose exact
orbit mean wins a tournament over all Sturmian cycles.

2b (Table 1).  No printed c-interval matches at the 1e-9 / 1e-8 tolerance:
the deviations run from about 5.8e-7 (period 13) to 6.5e-4 (period 2), and
every printed interval lies strictly inside the computed one (the
duplicated period-9 line after TABLE1_MIRROR_FIX included).  Against every
cycle of period <= 30 the row's cycle wins at the midpoint of each gap
between a printed and a computed endpoint (by >= 1.1e-8) and at
1e-4 * width inside each computed endpoint (by >= 8.8e-10), and loses at
1e-4 * width outside it.  So the computed roots are right and the printed
endpoints are inner approximations; the test asserts exactly that.

3b (Table 2).  49 of the 61 printed rows match within 5e-6.  For every row
the tournament winner over periods <= 24 has the certified period and its
50-digit orbit mean equals the certified beta (and beta / log 2 the
certified gamma) within 1e-12.  The 12 rows of TABLE2_KNOWN_DEVIATIONS are
print defects: 11 miss the certified value by 5.03e-6 to 1.11e-5 in the 5th
decimal, and 5/13 prints (within 1.3e-5) the mean of the 4/7 cycle, which
the certified 5/8 cycle beats by 1.23e-2.  The set of rows beyond 5e-6 must
equal TABLE2_KNOWN_DEVIATIONS.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from gelfond import (GelfondCertificate, PotentialParams,
                     beta_period2_closed_form, centering_bound_check,
                     enumerate_cycles, exit_sets, exponent_table,
                     gelfond_exponent, inner_shift_negativity_grid,
                     lambda_window, modulus_product,
                     multiplicativity_check, outer_shift_negativity_grid,
                     polynomial_sum, rotation_staircase, sturmian_balance,
                     sturmian_condition_probe, sup_exponent_fit,
                     validity_table)
from gelfond.certify import period2_validity_q2
from gelfond.potential import _f

from conftest import (SturmianTournament, balance_quadrature_oracle,
                      orbit_mean_50)
from reference_tables import (PRINTED_TABLE1, PRINTED_TABLE2,
                              TABLE1_MIRROR_FIX, TABLE2_KNOWN_DEVIATIONS)

LOG2 = math.log(2.0)

# Tournament settings for 2b/3b: a cycle wins when its orbit mean beats every
# other Sturmian cycle of period <= TOURNAMENT_PERIOD_* by more than
# WIN_MARGIN, far above the ~1e-15 float error of a mean; BRACKET is the
# offset, as a share of the computed interval's width, of the points that
# bracket each computed endpoint.
TOURNAMENT_PERIOD_T1 = 30
TOURNAMENT_PERIOD_T2 = 24
WIN_MARGIN = 1e-12
BRACKET = 1e-4


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def certify(c, q=2, **kw):
    res = gelfond_exponent(PotentialParams(q, c), **kw)
    assert isinstance(res, GelfondCertificate), res
    return res


def test_criterion_1_landmarks():
    certify(0.5, max_period=2)  # warm-up outside the timed section
    timings = []

    t = time.perf_counter()
    half = certify(0.5)
    timings.append(time.perf_counter() - t)
    assert half.beta == pytest.approx(math.log(math.sqrt(3.0)), abs=1e-12)
    assert half.gamma == pytest.approx(math.log(3) / math.log(4), abs=1e-12)

    t = time.perf_counter()
    quarter = certify(0.25)
    timings.append(time.perf_counter() - t)
    assert quarter.beta == pytest.approx(0.51585926722389, abs=1e-11)
    assert quarter.gamma == pytest.approx(0.74422760662052, abs=1e-11)

    t = time.perf_counter()
    third = certify(1.0 / 3.0)
    timings.append(time.perf_counter() - t)
    assert third.beta == pytest.approx(0.522266412324137, abs=1e-11)

    t = time.perf_counter()
    mirror = certify(0.75)
    timings.append(time.perf_counter() - t)
    assert mirror.beta == pytest.approx(quarter.beta, abs=1e-12)
    assert mirror.cycle.points != quarter.cycle.points

    ok = report(1, max(timings) < 1.0,
                f"4 landmark certificates, slowest {max(timings):.2f}s")
    assert ok


def _table1_rows():
    t0 = time.perf_counter()
    rows1 = validity_table(2, 13, threads=1)
    elapsed = time.perf_counter() - t0
    return rows1, elapsed


TABLE1_CACHE = {}


def test_criterion_2a_enumeration_and_windows():
    cycles = [c for c in enumerate_cycles(2, 13) if c.period >= 2]
    assert len(cycles) == 57
    ours = {(lambda_window(c).lo, lambda_window(c).hi) for c in cycles}
    printed = {(lo, hi) for _, lo, hi, _, _ in PRINTED_TABLE1}
    assert ours == printed
    rows1, elapsed = _table1_rows()
    TABLE1_CACHE["rows"] = rows1
    TABLE1_CACHE["elapsed"] = elapsed
    assert all(r.status == "OK" for r in rows1)
    ok = report("2a", elapsed < 120.0,
                f"57 cycles, exact windows, intervals in {elapsed:.1f}s")
    assert ok


def test_criterion_2b_printed_validity_endpoints():
    if "rows" not in TABLE1_CACHE:
        TABLE1_CACHE["rows"], TABLE1_CACHE["elapsed"] = _table1_rows()
    by_window = {(r.period, r.window_lo, r.window_hi): r
                 for r in TABLE1_CACHE["rows"]}
    tour = SturmianTournament(TOURNAMENT_PERIOD_T1)
    rotation_of = {(rot.denominator, pts[-1] - F(1, 2), pts[0]): rot
                   for rot, pts in tour.cycles.items()}
    matched, not_inner, wins, losses = [], [], [], []
    for period, wlo, whi, c_lo, c_hi in PRINTED_TABLE1:
        key = (period, wlo, whi)
        if key in TABLE1_MIRROR_FIX:
            c_lo, c_hi = TABLE1_MIRROR_FIX[key]
        r = by_window[key]
        rot = rotation_of[key]
        assert r.rotation == rot, (key, r.rotation, rot)
        tol = 1e-9 if period <= 6 else 1e-8
        if max(abs(r.c_lo - c_lo), abs(r.c_hi - c_hi)) <= tol:
            matched.append(key)
        if not r.c_lo < c_lo < c_hi < r.c_hi:
            not_inner.append((period, str(rot)))
        w = r.c_hi - r.c_lo
        for c in ((r.c_lo + c_lo) / 2, (c_hi + r.c_hi) / 2,
                  r.c_lo + BRACKET * w, r.c_hi - BRACKET * w):
            wins.append((tour.margin(rot, c), period, str(rot), c))
        for c in (r.c_lo - BRACKET * w, r.c_hi + BRACKET * w):
            losses.append((tour.margin(rot, c), period, str(rot), c))
    assert not not_inner, f"printed not inside computed: {not_inner}"
    lost = [x for x in wins if x[0] <= WIN_MARGIN]
    assert not lost, f"row cycle does not win inside its interval: {lost}"
    won = [x for x in losses if x[0] >= -WIN_MARGIN]
    assert not won, f"row cycle still wins outside its interval: {won}"

    # The duplicated line: at the midpoint of the verbatim-printed interval
    # the row's cycle loses to the cycle of the row it copies, and the
    # mirror fix is the reflection c -> 1-c of the partner row's print.
    printed = {row[:3]: row[3:] for row in PRINTED_TABLE1}
    for key, fixed in TABLE1_MIRROR_FIX.items():
        copied = [k for k, v in printed.items()
                  if k != key and v == printed[key]]
        assert len(copied) == 1
        mid = sum(printed[key]) / 2
        assert tour.winner(mid)[0] == rotation_of[copied[0]]
        assert tour.margin(rotation_of[key], mid) < -WIN_MARGIN
        mirror = next(k for k, rot in rotation_of.items()
                      if rot == 1 - rotation_of[key])
        lo, hi = printed[mirror]
        assert fixed == pytest.approx((1.0 - hi, 1.0 - lo), abs=1e-15)

    ok = report("2b", True,
                f"{len(matched)}/57 printed c-intervals match at print "
                f"precision; {57 - len(matched)}/57 are print defects, "
                f"strictly inside the computed interval; the row's cycle "
                f"wins all {len(wins)} gap-midpoint and inner-bracket "
                f"points against period <= {TOURNAMENT_PERIOD_T1} (smallest "
                f"margin {min(x[0] for x in wins):.2e}) and loses all "
                f"{len(losses)} outer-bracket points (smallest deficit "
                f"{min(-x[0] for x in losses):.2e})")
    assert ok


def test_criterion_3a_table2_skip_and_runtime():
    t0 = time.perf_counter()
    rows2 = exponent_table(2, 13, threads=1)
    elapsed = time.perf_counter() - t0
    TABLE1_CACHE["rows2"] = rows2
    by_label = {r.c_label: r for r in rows2}
    assert by_label["8/21"].status == "SKIPPED"
    assert sum(r.status == "OK" for r in rows2) == 61
    ok = report("3a", elapsed < 60.0,
                f"62 rows with 8/21 SKIPPED in {elapsed:.1f}s")
    assert ok


def test_criterion_3b_printed_table2_values():
    if "rows2" not in TABLE1_CACHE:
        TABLE1_CACHE["rows2"] = exponent_table(2, 13, threads=1)
    by_label = {r.c_label: r for r in TABLE1_CACHE["rows2"]}
    tour = SturmianTournament(TOURNAMENT_PERIOD_T2)
    deviating, oracle_gap, margins = set(), 0.0, []
    for label, beta_p, gamma_p in PRINTED_TABLE2:
        if beta_p is None:
            continue
        r = by_label[label]
        rot, margin = tour.winner(r.c)
        assert margin > WIN_MARGIN, (label, margin)
        margins.append(margin)
        beta50 = orbit_mean_50(rot, r.c)
        assert r.period == rot.denominator, (label, r.period, rot)
        gap = max(abs(r.beta - beta50), abs(r.gamma - beta50 / LOG2))
        assert gap <= 1e-12, (label, gap)
        oracle_gap = max(oracle_gap, gap)
        dev = max(abs(r.beta - beta_p), abs(r.gamma - gamma_p))
        if dev <= 5e-6:
            continue
        deviating.add(label)
        if label not in TABLE2_KNOWN_DEVIATIONS:
            continue
        assert certify(r.c).cycle.rotation == rot, label
        if label != "5/13":
            assert dev <= 2e-5, (label, dev)
    assert deviating == TABLE2_KNOWN_DEVIATIONS, \
        sorted(deviating ^ TABLE2_KNOWN_DEVIATIONS)

    # 5/13 prints the mean of the 4/7 cycle, which the certified 5/8 beats.
    beta_p, gamma_p = next(row[1:] for row in PRINTED_TABLE2
                           if row[0] == "5/13")
    beta47 = orbit_mean_50(F(4, 7), F(5, 13))
    assert abs(beta_p - beta47) <= 2e-5
    assert abs(gamma_p - beta47 / LOG2) <= 2e-5
    assert by_label["5/13"].beta - beta47 > 1e-2

    ok = report("3b", True,
                f"{61 - len(deviating)}/61 printed rows match at 5e-6; "
                f"{len(deviating)}/61 are print defects (5/13 prints the "
                f"non-maximizing 4/7 cycle); all 61 certified rows agree "
                f"with the 50-digit tournament winner within "
                f"{oracle_gap:.1e}, smallest winning margin "
                f"{min(margins):.2e} against period <= "
                f"{TOURNAMENT_PERIOD_T2}")
    assert ok


def test_criterion_4_closed_form_consistency():
    lo, hi = period2_validity_q2()
    worst = 0.0
    for i in range(50):
        c = lo + (hi - lo) * (i + 0.5) / 50
        res = certify(c)
        worst = max(worst, abs(beta_period2_closed_form(c) - res.beta))
    ok = report(4, worst <= 1e-12,
                f"closed form vs pipeline at 50 points, worst {worst:.2e}")
    assert ok


def test_criterion_5_product_identity_and_multiplicativity():
    rng = random.Random(5)
    worst = 0.0
    for q in (2, 3):
        params = PotentialParams(q, 0.29 if q == 2 else 0.61)
        for _ in range(100):
            x = rng.random()
            for n in (rng.randint(1, 7), 8):
                direct = abs(polynomial_sum(params, q ** n, x))
                prod = modulus_product(params, n, x)
                rel = abs(direct - prod) / max(1.0, direct, prod)
                worst = max(worst, rel)
    assert worst <= 1e-10

    failures = 0
    for _ in range(1000):
        q = rng.choice([2, 3])
        params = PotentialParams(q, rng.random())
        t = rng.randint(1, 7)
        a = rng.randint(1, 500)
        b = rng.randint(0, q ** t - 1)
        if not multiplicativity_check(params, a, t, b, x=rng.random()):
            failures += 1
    ok = report(5, failures == 0,
                f"product identity worst rel {worst:.2e}; "
                f"multiplicativity {failures}/1000 failures")
    assert ok


def test_criterion_6_symmetry():
    if "rows2" not in TABLE1_CACHE:
        TABLE1_CACHE["rows2"] = exponent_table(2, 13, threads=1)
    worst_gamma = 0.0
    for r in TABLE1_CACHE["rows2"]:
        if r.status != "OK":
            continue
        mirror = gelfond_exponent(PotentialParams(2, (1.0 - r.c) % 1.0))
        assert isinstance(mirror, GelfondCertificate)
        worst_gamma = max(worst_gamma, abs(mirror.gamma - r.gamma))
    assert worst_gamma <= 1e-10

    rng = random.Random(6)
    worst_prod = 0.0
    for q in (2, 3):
        c = 0.3 if q == 2 else 0.45
        for _ in range(50):
            x = rng.random()
            fwd, mir = [], []
            y = x
            for _ in range(rng.randint(1, 8)):
                fwd.append(_f(q, y + c))
                mir.append(_f(q, (1.0 - y) + (1.0 - c)))
                y = (q * y) % 1.0
            worst_prod = max(worst_prod,
                             abs(math.fsum(fwd) - math.fsum(mir)))
    ok = report(6, worst_prod <= 1e-12,
                f"gamma mirror worst {worst_gamma:.2e}; "
                f"log-product identity worst {worst_prod:.2e}")
    assert ok


def test_criterion_7_exit_mass_and_balance_oracle():
    rng = random.Random(7)
    worst_mass = 0.0
    for _ in range(20):
        q = rng.choice([2, 3, 4, 5, 6])
        lam = rng.random()
        sets = exit_sets(q, lam, 60)
        total = math.fsum(ln for pairs in sets for _, ln in pairs)
        expected = (1.0 - q ** -60) / (q - 1)
        worst_mass = max(worst_mass, abs(total - expected))
    assert worst_mass <= 1e-12

    worst_gap = 0.0
    for _ in range(20):
        q = rng.choice([2, 3])
        c = 0.05 + 0.9 * rng.random()
        t = 0.05 + 0.9 * rng.random()
        lam = -1.0 / q - c + t / q
        v = sturmian_balance(PotentialParams(q, c), lam, depth=60)
        assert v.err_bound <= 1e-13
        oracle = balance_quadrature_oracle(q, c, lam, n=400_000)
        gap = abs(v.value - oracle) - v.err_bound
        worst_gap = max(worst_gap, gap)
        assert abs(v.value - oracle) <= v.err_bound + 1e-4
    ok = report(7, True,
                f"exit mass worst {worst_mass:.2e}; oracle gap beyond bound "
                f"at most {worst_gap:.2e} (quadrature tolerance 1e-4)")
    assert ok


def test_criterion_8_sup_norm_behaviour():
    t0 = time.perf_counter()
    details = []
    for c in (0.5, 0.25, 1.0 / 3.0):
        params = PotentialParams(2, c)
        res = certify(c)
        # orbit-sum identity over repeated periods at the first cycle point
        m = res.cycle.period
        y = res.cycle.points[0]
        total = 0.0
        for _ in range(3 * m):
            total += _f(2, float(y) + c)
            y = (2 * y) % 1
        assert total - 3 * m * res.beta == pytest.approx(0.0, abs=1e-12)

        rows = sup_exponent_fit(params, 18, 4096, res.beta)
        early = max(r.excess_n for r in rows if r.n <= 9)
        late = max(r.excess_n for r in rows if r.n > 9)
        assert late <= early + 0.5
        floor_gap = min(r.gamma_n - (res.gamma - 0.02) for r in rows)
        assert floor_gap >= 0.0
        details.append(f"c={c:.3f} floor slack {floor_gap:.3f}")
    elapsed = time.perf_counter() - t0
    ok = report(8, elapsed < 120.0,
                "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_9_rotation_staircase():
    rows = rotation_staircase(2, 2048)
    ests = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(ests, ests[1:]))
    window = [r for r in rows
              if 1.0 / 6.0 + 1e-4 <= r[0] <= 1.0 / 3.0 - 1e-4]
    assert window
    assert all(r[2] == F(1, 2) for r in window)
    ok = report(9, True,
                f"2048-point staircase monotone; rho = 1/2 certified on "
                f"{len(window)} window points")
    assert ok


def test_criterion_10_lemma_grids_and_probe():
    margins = []
    for q in (3, 4, 5, 6):
        grid = [0.06 + 0.88 * i / 7 for i in range(8)]
        rep = centering_bound_check(q, grid)
        assert rep.passed and rep.worst_value > 0
        margins.append(f"centering sign(q={q}) {rep.worst_value:.3f}")
        rep = inner_shift_negativity_grid(q, 200, 200)
        assert rep.passed and rep.worst_value < 0
        margins.append(f"inner(q={q}) {rep.worst_value:.3f}")
    for q in (4, 5, 6):
        rep = outer_shift_negativity_grid(q, 200, 200)
        assert rep.passed and rep.worst_value < 0
        margins.append(f"outer(q={q}) {rep.worst_value:.3f}")

    params = PotentialParams(2, 0.5)
    probe = sturmian_condition_probe(params, certify(0.5), samples=50,
                                     depth=30)
    assert probe.details["inside_residual"] <= 1e-4
    assert probe.worst_value < -1e-3
    ok = report(10, probe.passed,
                f"grids pass; probe residual "
                f"{probe.details['inside_residual']:.1e}, outside margin "
                f"{-probe.worst_value:.3f}")
    assert ok
