import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import gelfond.sturmian as sturmian
from gelfond import (IrrationalRotation, RationalRotation, SturmianCycle,
                     build_cycle, enumerate_cycles, lambda_window,
                     rotation_number)
from gelfond.cli import fmt, main

from conftest import (exact_window_holds, fraction_rotation_walk,
                      linear_scan_select, sturmian_cycle)
from reference_tables import PRINTED_TABLE1


class TestEnumeration:
    def test_period_one_fixed_points(self):
        cycles = enumerate_cycles(2, 1)
        assert len(cycles) == 1
        assert cycles[0].points == (F(0),)
        cycles = enumerate_cycles(4, 1)
        assert [c.points[0] for c in cycles] == [F(0), F(1, 3), F(2, 3)]

    def test_two_cycle(self):
        cycles = [c for c in enumerate_cycles(2, 2) if c.period == 2]
        assert len(cycles) == 1
        cyc = cycles[0]
        assert cyc.points == (F(1, 3), F(2, 3))
        win = lambda_window(cyc)
        assert (win.lo, win.hi) == (F(1, 6), F(1, 3))

    def test_count_57_for_periods_2_to_13(self):
        cycles = [c for c in enumerate_cycles(2, 13) if c.period >= 2]
        assert len(cycles) == 57
        # Euler phi per period
        by_period = {}
        for c in cycles:
            by_period[c.period] = by_period.get(c.period, 0) + 1
        assert by_period == {2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4,
                             9: 6, 10: 4, 11: 10, 12: 4, 13: 12}

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_one_cycle_per_digit_and_rotation(self, q):
        # 58 / 116 / 232 / 406 distinct cycles at q = 2 / 3 / 5 / 8
        phi = sum(1 for m in range(2, 14) for p in range(1, m)
                  if math.gcd(p, m) == 1)
        cycles = enumerate_cycles(q, 13)
        assert len(cycles) == (q - 1) * (1 + phi)
        assert len({c.points for c in cycles}) == len(cycles)

    def test_exact_permutation_and_arc(self):
        for cyc in enumerate_cycles(3, 6):
            cyc.validate()  # integer arithmetic, no tolerance
            assert cyc.s_max - cyc.s_min <= F(1, cyc.q)

    def test_windows_match_printed_table(self):
        ours = {(lambda_window(c).lo, lambda_window(c).hi)
                for c in enumerate_cycles(2, 13) if c.period >= 2}
        printed = {(lo, hi) for _, lo, hi, _, _ in PRINTED_TABLE1}
        assert ours == printed

    def test_windows_disjoint_interiors(self):
        wins = sorted((lambda_window(c).lo % 1, lambda_window(c).hi % 1)
                      for c in enumerate_cycles(2, 10))
        for (_, hi1), (lo2, _) in zip(wins, wins[1:]):
            assert hi1 <= lo2

    def test_distinct_rotations_distinct_cycles(self):
        cycles = enumerate_cycles(3, 5)
        keys = {(c.base_digit, c.rotation) for c in cycles}
        assert len(keys) == len(cycles)

    def test_specific_period_6_window(self):
        row = next(c for c in enumerate_cycles(2, 6)
                   if c.period == 6 and c.s_min == F(31, 63))
        win = lambda_window(row)
        assert (win.lo, win.hi) == (F(61, 126), F(31, 63))


class TestBuildCycle:
    def test_three_cycles(self):
        c1 = build_cycle(2, 0, F(1, 3))
        assert c1.points == (F(1, 7), F(2, 7), F(4, 7))
        c2 = build_cycle(2, 0, F(2, 3))
        assert c2.points == (F(3, 7), F(5, 7), F(6, 7))

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            build_cycle(2, 1, F(1, 2))


def select(q, lam, max_period):
    """gelfond_exponent's cycle at the balance zero lam: the rotation_number
    witness when its period is at most max_period, else None."""
    rot = rotation_number(q, lam, max(64, 4 * max_period))
    if isinstance(rot, RationalRotation) and rot.cycle.period <= max_period:
        return rot.cycle
    return None


class TestSelectCycle:
    """A certificate's cycle: the witness of one exact rotation_number walk
    at the balance zero lam*, against a linear scan of every float window
    at that single point."""

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_windows_ordered_by_rotation(self, q):
        # the descent's premise: ordered by base digit, then rotation, the
        # windows are disjoint, increasing and inside [-1/q, 1 - 1/q)
        cycles = sorted(enumerate_cycles(q, 13),
                        key=lambda c: (c.base_digit, c.rotation))
        wins = [lambda_window(c) for c in cycles]
        assert wins[0].lo == F(-1, q)
        assert wins[-1].hi < 1 - F(1, q)
        for w1, w2 in zip(wins, wins[1:]):
            assert w1.lo < w1.hi < w2.lo

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_matches_linear_scan(self, q, monkeypatch):
        # points uniform over the lifted range of lam, within 2e-12 of a
        # window edge, or on one; within rounding of an edge (at q = 5 and 8
        # some adjacent windows share a float edge) the exact window of
        # Fraction(lam), which the walk reduces exactly, decides
        built = []
        cached = sturmian.build_cycle

        def counting_build(*args):
            built.append(args)
            return cached(*args)

        monkeypatch.setattr(sturmian, "build_cycle", counting_build)
        cycles = enumerate_cycles(q, 13)
        edges = [float(e) for c in cycles
                 for e in (lambda_window(c).lo, lambda_window(c).hi)]
        rng = random.Random(q)
        found = on_edge = 0
        for max_period in (1, 3, 13):
            scan = [c for c in cycles if c.period <= max_period]
            for i in range(600):
                edge = rng.choice(edges) + rng.choice((-1, 0))
                if i % 3 == 0:
                    lam = rng.uniform(-1.0 - 1.0 / q, 0.0)
                elif i % 3 == 1:
                    lam = edge + rng.uniform(-2e-12, 2e-12)
                else:
                    lam = edge
                built.clear()
                got = select(q, lam, max_period)
                picked = linear_scan_select(scan, lam, lam)
                if any(abs((lam - e + 0.5) % 1.0 - 0.5) <= 1e-15
                       for e in edges):
                    on_edge += 1
                    assert got is None or exact_window_holds(got, lam)
                    assert got is None or picked is not None
                else:
                    assert got == (None if picked is None else picked[0])
                if got is not None:
                    assert exact_window_holds(got, lam)
                    assert len(built) <= max_period
                    found += 1
        assert found > 600 and on_edge >= 600

    def test_denominator_cap(self):
        # the 9/14 window of q=2 holds its own midpoint only from period 14
        win = lambda_window(build_cycle(2, 0, F(9, 14)))
        mid = float((win.lo + win.hi) / 2)
        assert select(2, mid, 13) is None
        assert linear_scan_select(enumerate_cycles(2, 13), mid, mid) is None
        cyc = select(2, mid, 14)
        assert cyc.rotation == F(9, 14)
        assert linear_scan_select(enumerate_cycles(2, 14), mid, mid) == (
            cyc, 0)


class TestRotationNumber:
    def test_fixed_point_at_zero(self):
        rot = rotation_number(2, 0.0)
        assert isinstance(rot, RationalRotation)
        assert rot.value == 0
        assert rot.cycle.points == (F(0),)

    def test_max_denominator_zero_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^max_denominator must be >= 1$"):
            rotation_number(2, 0.25, 0)

    def test_half_at_quarter(self):
        rot = rotation_number(2, 0.25)
        assert isinstance(rot, RationalRotation)
        assert rot.value == F(1, 2)
        assert rot.cycle.points == (F(1, 3), F(2, 3))

    def test_lifted_lam_reduced_exactly(self):
        # the float reduction -0.2 % 1.0 rounds into the fixed point's
        # window, Fraction(-0.2) lies just left of it; the walk reduces
        # exactly and its witness window holds Fraction(-0.2)
        fixed = build_cycle(5, 0, F(0))
        assert exact_window_holds(fixed, -0.2 % 1.0)
        assert not exact_window_holds(fixed, -0.2)
        rot = rotation_number(5, -0.2)
        assert isinstance(rot, RationalRotation)
        assert rot.value == F(95, 24)
        assert exact_window_holds(rot.cycle, -0.2)

    def test_plateau_constant_on_window(self):
        # rotation is 1/2 across the whole window of the 2-cycle
        for lam in (1.0 / 6.0 + 1e-6, 0.2, 0.3, 1.0 / 3.0 - 1e-6):
            rot = rotation_number(2, lam)
            assert isinstance(rot, RationalRotation)
            assert rot.value == F(1, 2)


def oracle_rotation(q, lam, max_denominator):
    """rotation_number's answer as the Fraction walk of conftest gives it."""
    kind, value, *rest = fraction_rotation_walk(q, lam, max_denominator)
    if kind == "irrational":
        return IrrationalRotation(value, *rest)
    a, rotation, points = rest
    return RationalRotation(value, SturmianCycle(
        q=q, period=len(points), rotation=rotation, base_digit=a,
        points=points))


class TestIntegerWalk:
    """The walk on integer ratios against the Fraction walk it replaced,
    compared by repr: the same types and values, bit for bit."""

    @staticmethod
    def window_end_lams(q):
        # the float nearest each end of some windows, and one float either
        # side: the ends of dyadic windows are floats themselves
        for a in range(q - 1):
            for rot in (F(0), F(1, 2), F(1, 3), F(2, 5), F(5, 8)):
                points = sturmian_cycle(q, a, rot)
                for end in (points[-1] - F(1, q), points[0]):
                    lam = float(end)
                    yield from (lam, math.nextafter(lam, -math.inf),
                                math.nextafter(lam, math.inf))

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_matches_fraction_walk(self, q):
        rng = random.Random(3700 + q)
        lams = [rng.uniform(-3.0, 3.0) for _ in range(300)]
        # just below 0 (a float % 1.0 rounds to 1.0 there; -0.2 is the
        # rounding case at q = 5), ints, and float window ends
        lams += [-1e-20, -5e-324, -0.2, 0, 1, -1, 2, -3, 0.0, 0.25, 0.5,
                 -0.25, -0.5, 1.25, 2.5]
        lams += list(self.window_end_lams(q))
        rational = 0
        for lam in lams:
            for max_denominator in (1, 2, 5, 13, 64):
                rot = rotation_number(q, lam, max_denominator)
                assert repr(rot) == repr(oracle_rotation(
                    q, lam, max_denominator)), (q, lam, max_denominator)
                rational += isinstance(rot, RationalRotation)
        assert 0 < rational < 5 * len(lams)

    def test_rational_lam_is_its_float(self):
        # an int, a NumPy integer or a Fraction is read exactly, like the
        # float of the same value
        for q in (2, 3, 5, 8):
            for lam in (-2, 0, 1, 3, np.int64(-1), F(5, 4), F(-1, 8)):
                assert repr(rotation_number(q, lam)) == repr(
                    rotation_number(q, float(lam))), (q, lam)


def enclosure(rot):
    """The exact interval [value - uncertainty, value + uncertainty]."""
    return F(rot.value) - F(rot.uncertainty), F(rot.value) + F(rot.uncertainty)


class TestRotationEnclosure:
    """Past max_denominator, rotation_number encloses the true rotation
    between the rotations of the two adjacent windows."""

    def test_lambda_near_a_window_edge(self):
        # 1e-12 inside the upper end of the 16/23 window of q=3
        rot = rotation_number(3, 0.15384658808554108, 13)
        assert isinstance(rot, IrrationalRotation)
        lo, hi = enclosure(rot)
        assert lo <= F(9, 13) and F(7, 10) <= hi
        assert lo <= F(16, 23) <= hi
        assert rotation_number(3, 0.15384658808554108, 23).value == F(16, 23)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    @pytest.mark.parametrize("max_denominator", [3, 5, 8, 13])
    def test_enclosure_holds_the_deeper_rotation(self, q, max_denominator):
        # lam at the middle of a window of period just above the cap, or
        # uniform; the walk at 256 finds the rotation the enclosure must hold
        rng = random.Random(100 * q + max_denominator)
        enclosed = 0
        for i in range(40):
            if i % 2:
                m = rng.randint(max_denominator + 1, max_denominator + 8)
                p = rng.choice([p for p in range(1, m) if math.gcd(p, m) == 1])
                win = lambda_window(build_cycle(q, rng.randrange(q - 1),
                                                F(p, m)))
                lam = float((win.lo + win.hi) / 2) % 1.0
            else:
                lam = rng.random()
            deep = rotation_number(q, lam, 256)
            assert isinstance(deep, RationalRotation)
            rot = rotation_number(q, lam, max_denominator)
            if isinstance(rot, IrrationalRotation):
                enclosed += 1
                lo, hi = enclosure(rot)
                assert lo <= deep.value <= hi
                # adjacent windows: width at most 1/max_denominator
                assert rot.uncertainty <= 0.5 / max_denominator + 1e-15
            else:
                assert rot.value == deep.value
        assert enclosed >= 10


class TestExactWindowCertificate:
    """A RationalRotation names a cycle whose exact window holds lam."""

    def assert_certified(self, q, lam, rot):
        assert exact_window_holds(rot.cycle, lam)
        cyc = rot.cycle
        assert (rot.value - cyc.base_digit - cyc.rotation) % (q - 1) == 0

    def test_float_candidate_outside_its_window(self):
        # the lift estimate's best approximation, 26/41, misses lam
        lam = 0.3568637029796707
        rot = rotation_number(2, lam, max_denominator=64)
        assert isinstance(rot, RationalRotation)
        assert rot.value == F(19, 30)
        self.assert_certified(2, lam, rot)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    @pytest.mark.parametrize("max_denominator", [13, 64])
    def test_near_window_edges(self, q, max_denominator):
        # at float(edge) itself lam may round to either side (float(1/6) is
        # just below the window [1/6, 1/3] of the q=2 two-cycle)
        rng = random.Random(1000 * q + max_denominator)
        rational = 0
        for _ in range(6):
            m = rng.randint(1, max_denominator)
            p = rng.choice([p for p in range(m) if math.gcd(p, m) == 1])
            win = lambda_window(build_cycle(q, rng.randrange(q - 1), F(p, m)))
            for edge in (win.lo, win.hi):
                for off in (0.0, 3e-13, -3e-13, 1e-12, -1e-12, 1e-9, -1e-9):
                    lam = (float(edge) + off) % 1.0
                    rot = rotation_number(q, lam, max_denominator)
                    if isinstance(rot, RationalRotation):
                        rational += 1
                        assert rot.cycle.period <= max_denominator
                        self.assert_certified(q, lam, rot)
        assert rational >= 24


class TestMeasureSupport:
    """The cycle carrying the invariant measure of the arc based at lam, as
    the witness of a certified rational rotation number."""

    def support(self, lam, max_period):
        return rotation_number(2, lam, max_denominator=max_period)

    def test_two_cycle_at_02(self):
        cyc = self.support(0.2, 13).cycle
        assert cyc.points == (F(1, 3), F(2, 3))

    def test_fixed_point(self):
        cyc = self.support(0.0, 13).cycle
        assert cyc.points == (F(0),)

    def test_period_6_just_inside_window(self):
        cyc = self.support(61.0 / 126.0 + 1e-4, 13).cycle
        assert cyc.period == 6
        assert cyc.s_min == F(31, 63)

    def test_irrational_flag_out_of_reach(self):
        # inside a high-period window, period cap 5 cannot certify
        res = self.support(61.0 / 126.0 + 1e-4, 5)
        assert isinstance(res, IrrationalRotation)
        assert res.uncertainty > 0
        lo, hi = enclosure(res)
        assert lo <= F(5, 6) <= hi


class TestStaircase:
    def test_monotone_and_plateau(self):
        rows = [(i / 512, rotation_number(2, i / 512)) for i in range(512)]
        est = [float(rot.value) for _, rot in rows]
        assert all(b >= a for a, b in zip(est, est[1:]))
        plateau = [rot for lam, rot in rows
                   if 1.0 / 6.0 + 1e-4 <= lam <= 1.0 / 3.0 - 1e-4]
        assert plateau and all(isinstance(rot, RationalRotation)
                               and rot.value == F(1, 2) for rot in plateau)

    def test_estimates_near_certified(self, capsys):
        # the staircase command's estimate column on its certified rows
        assert main(["staircase", "--q", "2", "--points", "128"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 128
        for line in lines:
            lam, est, num, den = line.split(",")
            if num:
                assert est == fmt(float(F(int(num), int(den))))


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_cycles(2, 0), r"max_period must be >= 1"),
    (lambda: build_cycle(2, 0, F(3, 2)),
     r"rotation must lie in \[0,1\), got 3/2"),
], ids=["enumerate_cycles", "build_cycle"])
def test_rejects_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
