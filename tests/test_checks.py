import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import inner_shift_loop, outer_shift_loop, transfer_integral_loop
import gelfond.certify as certify
import gelfond.checks as checks
from gelfond import (BalanceValue, GelfondCertificate, PotentialParams,
                     centering_bound_check, find_balance_point,
                     gelfond_exponent, inner_shift_negativity_grid,
                     outer_shift_negativity_grid, sturmian_balance,
                     sturmian_condition_probe)
from gelfond.circle import DEPTH_CAP, _psi_differences
from gelfond.errors import DepthError, GuardError
from gelfond.potential import (REMOVABLE_TOL, ZERO_TOL, _f, _fp,
                               potential_array, potential_derivative_array)


def _signs(end_pair):
    """The certified signs of one c's two ends in a centering report."""
    return tuple(certify._certified_sign(
        BalanceValue(e["value"], e["err_bound"], e["depth"]))
        for e in end_pair)


class TestCenteringBound:
    def test_q2_excluded(self):
        with pytest.raises(ValueError):
            centering_bound_check(2, [0.3])

    @pytest.mark.parametrize("q", [3, 4])
    def test_grid_passes(self, q):
        grid = [0.05 + 0.9 * i / 11 for i in range(12)]
        rep = centering_bound_check(q, grid)
        assert rep.passed
        assert rep.worst_value > 0
        lo, hi = 3.0 / (8 * q), 5.0 / (8 * q)
        margins = []
        for c, (e_lo, e_hi) in zip(grid, rep.details["ends"]):
            assert e_lo["lambda"] + 1.0 / q + c == pytest.approx(lo)
            assert e_hi["lambda"] + 1.0 / q + c == pytest.approx(hi)
            assert _signs((e_lo, e_hi)) == (1, -1)
            margins += [e_lo["value"] - e_lo["err_bound"],
                        -e_hi["value"] - e_hi["err_bound"]]
        assert rep.worst_value == min(margins)

    def test_q3_specific_value(self):
        rep = centering_bound_check(3, [0.3])
        (e_lo, e_hi), = rep.details["ends"]
        assert e_lo["lambda"] == 1.0 / 8.0 - 1.0 / 3.0 - 0.3
        assert e_hi["lambda"] == 5.0 / 24.0 - 1.0 / 3.0 - 0.3
        assert _signs((e_lo, e_hi)) == (1, -1)
        assert rep.worst_point[0] == 0.3
        assert rep.worst_point[1] in (e_lo["lambda"], e_hi["lambda"])

    def test_tiny_negative_phase_is_zero(self):
        # -1e-20 % 1.0 rounds up to 1.0, outside [0, 1)
        rep = centering_bound_check(3, [-1e-20])
        assert rep.details["ends"] == \
            centering_bound_check(3, [0.0]).details["ends"]

    def test_empty_grid_rejected(self):
        # an empty grid would pass with worst_value inf and no worst point
        with pytest.raises(ValueError, match="nonempty"):
            centering_bound_check(3, [])

    @pytest.mark.parametrize("q", [3, 4, 5, 6, 8])
    def test_verdict_matches_bisected_theta(self, q):
        # the oracle: theta = lam* + 1/q + c with lam* bisected to 1e-12,
        # the method the check used before it read two signs
        rng = random.Random(1000 + q)
        grid = [rng.random() for _ in range(200)] + [0.0, 0.5]
        rep = centering_bound_check(q, grid)
        lo, hi = 3.0 / (8 * q), 5.0 / (8 * q)
        inside = []
        for c, ends in zip(grid, rep.details["ends"]):
            theta = find_balance_point(PotentialParams(q, c)) + 1.0 / q + c
            theta -= math.floor(theta)
            inside.append(lo < theta < hi)
            assert (_signs(ends) == (1, -1)) == inside[-1], (q, c, theta)
        assert rep.passed == all(inside)
        # two shallow calls replace the bisection's ~41, most of them deep
        assert max(e["depth"] for ends in rep.details["ends"]
                   for e in ends) <= 8

    def test_two_balance_calls_per_c(self, monkeypatch):
        calls = []

        def counting(params, lam, **kw):
            calls.append(lam)
            return sturmian_balance(params, lam, **kw)

        monkeypatch.setattr(certify, "sturmian_balance", counting)
        grid = [0.05 + 0.9 * i / 6 for i in range(7)]
        rep = centering_bound_check(4, grid)
        assert len(calls) == 2 * len(grid)
        assert calls == [e["lambda"] for ends in rep.details["ends"]
                         for e in ends]

    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("value", [0.05, -0.5])
    def test_bad_sign_fails(self, monkeypatch, end, value):
        # one end of one c reads value times the sign it needs, against an
        # err_bound of 0.1: 0.05 leaves the sign uncertain, -0.5 certifies
        # the wrong one; the report must fail and name that c and end
        grid = [0.1, 0.4, 0.7]
        bad = 2 * 1 + end  # the call for c = 0.4 at this end
        calls = []

        def patched(params, lam, **kw):
            calls.append(lam)
            v = sturmian_balance(params, lam, **kw)
            if len(calls) - 1 != bad:
                return v
            return BalanceValue((1 - 2 * end) * value, 0.1, v.depth)

        monkeypatch.setattr(certify, "sturmian_balance", patched)
        rep = centering_bound_check(3, grid)
        assert not rep.passed
        assert rep.worst_value <= 0
        assert rep.worst_point == (0.4, calls[bad])


class TestInnerShiftGrid:
    def test_q_bound(self):
        with pytest.raises(ValueError):
            inner_shift_negativity_grid(2)

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_negative(self, q):
        rep = inner_shift_negativity_grid(q, 120, 120)
        assert rep.passed
        assert rep.worst_value < 0

    @pytest.mark.parametrize("q", [3, 5, 8])
    def test_a_bound_at_quarter_over_q(self, q):
        # log(sin(pi/(4q)) / sin(5 pi/(4q))) stays below -1.3169
        s = 1.0 / (4 * q)
        a_val = math.log(math.sin(math.pi * s) /
                         math.sin(math.pi * (1.0 / q + s)))
        assert a_val <= -1.3169

    def test_sliver_diverges(self):
        # s -> 0+ sends the first term to -infinity
        q = 3
        s = 1e-12
        a_val = math.log(math.sin(math.pi * s) /
                         math.sin(math.pi * (1.0 / q + s)))
        assert a_val < -20


class TestOuterShiftGrid:
    def test_q_bound(self):
        with pytest.raises(ValueError):
            outer_shift_negativity_grid(3)

    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_negative(self, q):
        rep = outer_shift_negativity_grid(q, 120, 120)
        assert rep.passed
        assert rep.worst_value < 0

    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_diagonal_identity(self, q):
        # at s = t the composite reduces to U(t) + log q - f(t), negative
        for t in np.linspace(3.0 / (8 * q) + 1e-6, 5.0 / (8 * q) - 1e-6, 25):
            u_val = math.log(math.sin(math.pi * (1.0 / q - t)) /
                             math.sin(math.pi * (1.0 / q + t)))
            g_tt = u_val + math.log(q) - _f(q, float(t))
            assert g_tt < 0

    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_u_negative_on_range(self, q):
        # direct evaluation: sin(pi(1/q - s)) < sin(pi(1/q + s)) there
        for s in np.linspace(1e-6, 1.0 / q - 1e-6, 200):
            assert math.sin(math.pi * (1.0 / q - s)) < \
                math.sin(math.pi * (1.0 / q + s))

    def test_report_json(self):
        rep = outer_shift_negativity_grid(4, 40, 40)
        d = rep.to_json_dict()
        assert d["schema_version"] == 1
        assert d["passed"] is True


def _certificate(q, c):
    res = gelfond_exponent(PotentialParams(q, c))
    assert isinstance(res, GelfondCertificate)
    return res


class TestConditionProbe:
    def test_constancy_on_arc_at_half(self):
        params = PotentialParams(2, 0.5)
        rep = sturmian_condition_probe(params, _certificate(2, 0.5),
                                       samples=50, depth=30)
        assert rep.passed
        assert rep.details["inside_residual"] <= 1e-4
        assert rep.worst_value < -1e-3

    def test_outside_margin_at_quarter(self):
        params = PotentialParams(2, 0.25)
        rep = sturmian_condition_probe(params, _certificate(2, 0.25),
                                       samples=40, depth=30)
        assert rep.passed
        assert rep.worst_value < -1e-3

    def test_q3_case(self):
        params = PotentialParams(3, 0.35)
        rep = sturmian_condition_probe(params, _certificate(3, 0.35),
                                       samples=30, depth=25)
        assert rep.passed

    def test_transfer_series_truncation_bound(self):
        # |psi'_20 - psi'_30| <= M q^-20 / (q-1) pointwise, with M the larger
        # endpoint |f_c'| on the base arc, so |psi_20(p) - psi_30(p)| is at
        # most p times that, plus rounding
        for q, c in [(2, 0.4), (3, 0.35)]:
            cert = _certificate(q, c)
            lam = cert.lambda_star % 1.0
            m_edge = max(abs(_fp(q, lam + c)), abs(_fp(q, lam + 1 / q + c)))
            ps = np.linspace(0.02, 0.98, 23).tolist()
            psi20 = _psi_differences(q, c, lam, ps, 20)
            psi30 = _psi_differences(q, c, lam, ps, 30)
            for p in ps:
                assert abs(psi20[p] - psi30[p]) <= \
                    p * m_edge * float(q) ** -20 / (q - 1) + 1e-13

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    @pytest.mark.parametrize("depth", [5, 12, 20])
    def test_balance_is_psi_difference(self, q, depth):
        # the balance at lambda* is f_c + psi - psi o T integrated over the
        # base arc: both sum f_c over the same _tau_pairs images
        c = 0.35
        params = PotentialParams(q, c)
        lam_star = find_balance_point(params)
        lam = lam_star % 1.0
        psi = _psi_differences(q, c, lam, [1 / q], depth - 1)[1 / q]
        v = sturmian_balance(params, lam_star, depth=depth)
        assert v.value == pytest.approx(
            _f(q, lam + 1 / q + c) - _f(q, lam + c) + psi, abs=1e-15)

    @pytest.mark.parametrize("q", [50, 64, 101])
    def test_high_base_refused(self, q):
        # at 1/q <= 2 PROBE_MARGIN every outside sample lies within the
        # margin of a singularity, and past q = 100 the inside samples fall
        # off the arc: the probe would pass, or fail, on nothing
        params = PotentialParams(q, 0.3)
        with pytest.raises(GuardError, match="no probe samples"):
            sturmian_condition_probe(params, _certificate(q, 0.3))

    def test_q49_still_probes(self):
        params = PotentialParams(49, 0.3)
        rep = sturmian_condition_probe(params, _certificate(49, 0.3))
        assert rep.passed
        assert rep.worst_point[0] is not None

    def test_params_must_match_certificate(self):
        # another c with this certificate would get a plausible FAIL report
        with pytest.raises(ValueError, match="differ"):
            sturmian_condition_probe(PotentialParams(2, 0.3),
                                     _certificate(2, 0.5))

    def test_depth_zero_rejected(self):
        # at depth 0 psi vanishes and the probe would fail
        with pytest.raises(ValueError, match="depth"):
            sturmian_condition_probe(PotentialParams(2, 0.5),
                                     _certificate(2, 0.5), depth=0)

    def test_depth_past_cap_rejected(self):
        # psi's sweep costs depth tau-steps per sample: at depth 100000 it
        # ran for minutes before the cap
        with pytest.raises(DepthError, match=f"^depth {DEPTH_CAP + 1} "
                                             f"exceeds cap {DEPTH_CAP}$"):
            sturmian_condition_probe(PotentialParams(2, 0.5),
                                     _certificate(2, 0.5),
                                     depth=DEPTH_CAP + 1)

    def test_residual_decreases_with_depth(self):
        params = PotentialParams(2, 0.5)
        cert = _certificate(2, 0.5)
        resids = []
        for depth in (8, 16, 30):
            rep = sturmian_condition_probe(params, cert, samples=15,
                                           depth=depth)
            resids.append(rep.details["inside_residual"])
        assert resids[0] > resids[1] > resids[2]


def _hex(x):
    return float.hex(float(x))


def _f_array(q, u):
    """potential_array on one element: the grids' f, point by point."""
    return float(potential_array(q, 0.0, np.array([u]))[0])


class TestBatchedScans:
    """The shift grids evaluate blocks of whole t rows, one array each, and
    must equal the earlier one-row loops bit for bit, at every grid point
    and not only the worst one, where the f'(t) term vanishes; the probe's
    exact psi sweep must agree with a Gauss-Legendre quadrature of its
    derivative series."""

    @staticmethod
    def check_against_row_loops(q, t_steps, s_steps, n_blocks, monkeypatch):
        scanned = []
        scan = checks._shift_scan

        def capturing(q, t_steps, s_steps, s_span, quantity):
            def recorded(*args):
                scanned.append(quantity(*args))
                return scanned[-1]
            return scan(q, t_steps, s_steps, s_span, recorded)

        monkeypatch.setattr(checks, "_shift_scan", capturing)
        grids = [(inner_shift_negativity_grid, inner_shift_loop)]
        if q >= 4:
            grids.append((outer_shift_negativity_grid, outer_shift_loop))
        for grid, loop in grids:
            scanned.clear()
            rep = grid(q, t_steps, s_steps)
            worst, point, rows = loop(_f_array, _fp, q, t_steps, s_steps)
            assert _hex(rep.worst_value) == _hex(worst)
            assert [_hex(v) for v in rep.worst_point] == \
                [_hex(v) for v in point]
            assert rep.passed == (worst < 0.0)
            assert len(scanned) == n_blocks
            assert all(v.size <= checks.SCAN_BLOCK for v in scanned)
            values = np.concatenate(scanned)
            assert values.shape == (t_steps, s_steps)
            assert np.array_equal(values, np.array(rows))

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_shift_grids_match_row_loops(self, q, monkeypatch):
        # grids up to 256 x 256 are one block
        rng = random.Random(300 + q)
        for _ in range(3):
            t_steps, s_steps = rng.randint(10, 150), rng.randint(10, 150)
            self.check_against_row_loops(q, t_steps, s_steps, 1, monkeypatch)

    def test_blocks_above_block_size(self, monkeypatch):
        # 65536 // 300 = 218 rows a block: 218 and 82
        self.check_against_row_loops(4, 300, 300, 2, monkeypatch)

    def test_peak_memory_bounded(self):
        # 1.44 million points took about 100 MB of temporaries in one block
        tracemalloc.start()
        try:
            outer_shift_negativity_grid(4, 1200, 1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_transfer_integral_matches_interval_loop(self, q):
        rng = random.Random(500 + q)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        for _ in range(2):
            cert = gelfond_exponent(PotentialParams(q, rng.random()))
            while not isinstance(cert, GelfondCertificate):
                cert = gelfond_exponent(PotentialParams(q, rng.random()))
            c, lam = cert.params.c, cert.lambda_star % 1.0
            depth = rng.choice([12, 30])
            breaks, y = [], (q * lam) % 1.0  # forward orbit of the cut
            for _ in range(depth + 1):
                breaks.append(y)
                y = (q * y) % 1.0
            positions = sorted(rng.random() for _ in range(12))
            got = _psi_differences(q, c, lam, positions, depth)
            want = transfer_integral_loop(potential_derivative_array, nodes,
                                          weights, q, c, lam, positions,
                                          depth, breaks)
            assert sorted(got) == [0.0] + positions
            for p in positions:
                assert abs(got[p] - want[p]) <= 1e-12


class TestFMap:
    """potential_array at c = 0, the grids' f, is the scalar _f on every
    element, bit for bit, at each branch boundary of the kernel."""

    @staticmethod
    def _assert_bits(q, x):
        x = np.asarray(x, dtype=float)
        want = np.array([_f(q, v) for v in x.ravel().tolist()])
        got = potential_array(q, 0.0, x)
        assert got.shape == x.shape
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))
        return want

    @staticmethod
    def _ulps(u, k=100):
        # the 2k + 1 floats centred on u
        lo = [u]
        for _ in range(k):
            lo.append(math.nextafter(lo[-1], -math.inf))
        hi = [u]
        for _ in range(k):
            hi.append(math.nextafter(hi[-1], math.inf))
        return lo[::-1] + hi[1:]

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_branches(self, q):
        ints = [float(n) for n in range(-2, 4)] + [2.0 ** 53, -2.0 ** 60]
        assert set(self._assert_bits(q, ints).tolist()) == {math.log(q)}
        zeros = [k / q for k in range(-2 * q, 3 * q) if k % q]
        assert set(self._assert_bits(q, zeros).tolist()) == {-math.inf}
        for u in (REMOVABLE_TOL, -REMOVABLE_TOL, 1.0 + REMOVABLE_TOL,
                  -2.0 - REMOVABLE_TOL):
            us = self._ulps(u)
            self._assert_bits(q, us)
            # the floats straddle the removable-point threshold
            assert {abs(math.remainder(v, 1.0)) <= REMOVABLE_TOL
                    for v in us} == {True, False}
        # near a nonzero integer q*ur steps by multiples of 2**-53, which
        # q*ZERO_TOL is not, so no float lands on the zero threshold itself;
        # the floats around it straddle it
        vtol = q * ZERO_TOL
        for u in ((1.0 + vtol) / q, (1.0 - vtol) / q, (q - 1.0 + vtol) / q,
                  1.0 / q + ZERO_TOL, -1.0 / q - ZERO_TOL):
            want = self._assert_bits(q, self._ulps(u))
            assert (want == -math.inf).any()
            assert np.isfinite(want).any()
        for u in ([1e6 + 0.3, -1e6 - 0.3, 1e6 + 1.0 / q, 3e9 + 0.7,
                   2.0 ** 52 + 0.5]):
            self._assert_bits(q, [u])
