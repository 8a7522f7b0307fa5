import cmath
import math
import random
from fractions import Fraction as F

import pytest

import gelfond.series as series
from conftest import zoom_fit_loop
from gelfond import (PotentialParams, digit_sum, gelfond_exponent,
                     modulus_product, multiplicativity_check, polynomial_sum,
                     sup_exponent_fit)
from gelfond.potential import _f, potential_array
from gelfond.series import polynomial_profile

TM_SIGNS = [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]


class TestDigitSum:
    @pytest.mark.parametrize("q,n,s", [(2, 3, 2), (2, 0, 0), (10, 1234, 10),
                                       (3, 26, 6), (2, 2 ** 17, 1),
                                       (5, 5 ** 9, 1)])
    def test_values(self, q, n, s):
        assert digit_sum(q, n) == s

    def test_classical_signs(self):
        # the coefficient of index n is the step of the partial sums at x = 0
        params = PotentialParams(2, 0.5)
        for n, sign in enumerate(TM_SIGNS):
            t = polynomial_sum(params, n + 1, 0.0) - (
                polynomial_sum(params, n, 0.0) if n else 0)
            assert t.imag == pytest.approx(0.0, abs=1e-15)
            assert t.real == pytest.approx(sign, abs=1e-14)

    def test_unit_modulus(self, rng):
        params = PotentialParams(3, 0.37)
        for _ in range(50):
            n, x = rng.randint(1, 1000), rng.random()
            t = polynomial_sum(params, n + 1, x) - polynomial_sum(params, n, x)
            assert abs(t) == pytest.approx(1.0, abs=1e-12)


class TestPolynomialSum:
    def test_length_one(self):
        params = PotentialParams(2, 0.3)
        for x in (0.0, 0.4, 0.9):
            assert polynomial_sum(params, 1, x) == pytest.approx(1.0)

    def test_classical_partial_sum_at_zero(self):
        # 1 - 1 - 1 + 1 = 0
        val = polynomial_sum(PotentialParams(2, 0.5), 4, 0.0)
        assert abs(val) == pytest.approx(0.0, abs=1e-14)

    def test_direct_vs_product_small(self):
        params = PotentialParams(2, 0.5)
        x = 0.1
        direct = abs(polynomial_sum(params, 8, x))
        prod = modulus_product(params, 3, x)
        assert direct == pytest.approx(prod, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    def test_direct_vs_product_random(self, q, rng):
        params = PotentialParams(q, 0.29)
        for _ in range(25):
            x = rng.random()
            n = rng.randint(1, 6)
            direct = abs(polynomial_sum(params, q ** n, x))
            prod = modulus_product(params, n, x)
            assert abs(direct - prod) <= 1e-10 * max(1.0, direct, prod)

    def test_product_maximal_when_phase_inverse_is_fixed(self):
        # every factor is maximal when the orbit of -c stays put (c = 0)
        for q in (2, 3):
            val = modulus_product(PotentialParams(q, 0.0), 5, 0.0)
            assert val == pytest.approx(q ** 5, rel=1e-12)

    def test_first_factor_maximal_at_phase_inverse(self):
        q, c = 2, 0.25
        full = modulus_product(PotentialParams(q, c), 1, 1.0 - c)
        assert full == pytest.approx(q, rel=1e-12)

    def test_exact_rational_orbit_path(self):
        params = PotentialParams(2, 0.5)
        v_frac = modulus_product(params, 10, F(1, 3))
        v_float = modulus_product(params, 10, 1.0 / 3.0)
        assert v_frac == pytest.approx(v_float, rel=1e-9)
        assert v_frac == pytest.approx(3.0 ** 5, rel=1e-12)

    def test_float_orbit_iterated_exactly(self):
        # a float x is iterated as its exact Fraction; the float orbit
        # (3 * x) % 1.0 was off by 1.06e-10 here (30-digit value below)
        params = PotentialParams(3, 0.25)
        x = 0.8494859651863671
        prod = modulus_product(params, 10, x)
        assert prod == modulus_product(params, 10, F(x))
        assert prod == pytest.approx(1.7403022109065756, rel=1e-15)

    def test_cap(self):
        with pytest.raises(ValueError):
            polynomial_sum(PotentialParams(2, 0.5), 2 ** 24 + 1, 0.1)


class TestMultiplicativity:
    def test_spec_example(self):
        assert multiplicativity_check(PotentialParams(2, 0.5), 3, 4, 5, x=0.3)

    def test_b_zero_trivial(self):
        assert multiplicativity_check(PotentialParams(3, 0.2), 7, 2, 0, x=0.9)

    def test_random_batch(self, rng):
        params = PotentialParams(2, 0.37)
        for _ in range(200):
            t = rng.randint(1, 8)
            a = rng.randint(1, 1000)
            b = rng.randint(0, 2 ** t - 1)
            assert multiplicativity_check(params, a, t, b, x=rng.random())

    def test_precondition(self):
        with pytest.raises(ValueError):
            multiplicativity_check(PotentialParams(2, 0.5), 1, 2, 4, x=0.1)

    def test_mutation_detected(self):
        # perturbing one coefficient phase must flip the check
        params = PotentialParams(2, 0.5)
        q, c, x = 2, 0.5, 0.3123

        def w(n, extra=0.0):
            return cmath.exp(2j * math.pi * (c * digit_sum(q, n) + n * x
                                             + extra))

        a, t, b = 3, 4, 5
        lhs = w(a * 2 ** t + b, extra=1e-6)
        rhs = w(a * 2 ** t) * w(b)
        assert abs(lhs - rhs) > 1e-12


class TestSymmetry:
    def test_shared_orbit_identity(self, rng):
        # sum_k f_c(x_k) equals sum_k f_{1-c}(1 - x_k) along one orbit
        q, c = 2, 0.3
        pc = PotentialParams(q, c)
        pm = PotentialParams(q, 1.0 - c)
        for _ in range(40):
            x = rng.random()
            fwd, mir = [], []
            y = x
            for _ in range(10):
                fwd.append(_f(q, y + c))
                mir.append(_f(q, (1.0 - y) + (1.0 - c)))
                y = (q * y) % 1.0
            assert math.fsum(fwd) == pytest.approx(math.fsum(mir),
                                                   abs=1e-12)

    def test_modulus_products_mirror(self, rng):
        for q in (2, 3):
            pc = PotentialParams(q, 0.41)
            pm = PotentialParams(q, 0.59)
            for _ in range(20):
                x = rng.random()
                n = rng.randint(1, 7)
                p1 = modulus_product(pc, n, x)
                p2 = modulus_product(pm, n, (1.0 - x) % 1.0)
                assert abs(p1 - p2) <= 1e-10 * max(1.0, p1, p2)


class TestSupExponentFit:
    def test_orbit_sum_identity_exact_at_cycle_point(self):
        # at the certified cycle point the excess vanishes over full periods
        params = PotentialParams(2, 0.5)
        res = gelfond_exponent(params)
        m = res.cycle.period
        x = res.cycle.points[0]
        for k in (1, 2, 4):
            total = 0.0
            y = x
            for _ in range(k * m):
                total += _f(2, float(y) + 0.5)
                y = (2 * y) % 1
            assert total - k * m * res.beta == pytest.approx(0.0, abs=1e-12)

    def test_rows_shape_and_floor(self):
        params = PotentialParams(2, 0.5)
        res = gelfond_exponent(params)
        rows = sup_exponent_fit(params, 12, 2048, res.beta)
        assert [r.n for r in rows] == list(range(1, 13))
        for r in rows:
            assert r.gamma_n >= res.gamma - 0.02
            assert 0.0 <= r.argmax_x < 1.0

    def test_excess_bounded(self):
        params = PotentialParams(2, 0.25)
        res = gelfond_exponent(params)
        rows = sup_exponent_fit(params, 14, 2048, res.beta)
        early = max(r.excess_n for r in rows if r.n <= 7)
        late = max(r.excess_n for r in rows if r.n > 7)
        assert late <= early + 0.5

    def test_mirror_gamma_sequences(self):
        # dyadic grid, no zoom: the two fits share exact orbit arithmetic
        pa = PotentialParams(2, 0.3)
        pb = PotentialParams(2, 0.7)
        ra = sup_exponent_fit(pa, 10, 4096, 0.51, zoom_passes=0)
        rb = sup_exponent_fit(pb, 10, 4096, 0.51, zoom_passes=0)
        for a, b in zip(ra, rb):
            assert a.gamma_n == pytest.approx(b.gamma_n, abs=1e-12)


def _fit_hex(rows):
    return [(r[0], *(float.hex(v) for v in r[1:])) for r in rows]


class TestBatchedZoomPasses:
    """The zoom passes run every candidate through one orbit-sum call; the
    rows must equal the one-candidate-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_matches_per_candidate_loop(self, q):
        rng = random.Random(1000 + q)
        for _ in range(3):
            c = rng.random()
            n_max = rng.choice([5, 8])
            grid = rng.choice([64, 200, 256])
            beta = rng.random()
            rows = sup_exponent_fit(PotentialParams(q, c), n_max, grid, beta)
            got = _fit_hex([(r.n, r.gamma_n, r.excess_n, r.argmax_x)
                            for r in rows])
            assert got == _fit_hex(zoom_fit_loop(potential_array, q, c,
                                                 n_max, grid, beta))

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_empty_candidate_level(self, q):
        # one grid point on an amplitude zero: level 1 has no finite sample
        # and no carried seed, so its zoom passes have no candidate
        c = 1.0 / q
        rows = sup_exponent_fit(PotentialParams(q, c), 3, 1, 0.5)
        assert rows[0].gamma_n == -math.inf
        got = _fit_hex([(r.n, r.gamma_n, r.excess_n, r.argmax_x)
                        for r in rows])
        assert got == _fit_hex(zoom_fit_loop(potential_array, q, c, 3, 1,
                                             0.5))

    @pytest.mark.parametrize("top_k", [2, 8])
    def test_potential_calls_do_not_grow_with_candidates(self, monkeypatch,
                                                         top_k):
        calls = []

        def counting(*args):
            calls.append(1)
            return potential_array(*args)

        monkeypatch.setattr(series, "potential_array", counting)
        n_max = 5
        sup_exponent_fit(PotentialParams(3, 0.3), n_max, 256, 0.5,
                         top_k=top_k)
        # one call per base level, then one per orbit step of each pass
        assert len(calls) == n_max + 3 * n_max * (n_max + 1) // 2 == 50


class TestProfileAndSample:
    def test_profile_matches_direct(self):
        params = PotentialParams(2, 0.5)
        prof = polynomial_profile(params, 64, 32)
        for x, v in prof[::5]:
            assert v == pytest.approx(abs(polynomial_sum(params, 64, x)),
                                      abs=1e-9)
