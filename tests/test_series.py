import cmath
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import gelfond.series as series
from conftest import (direct_profile, modulus_product_fraction,
                      multiplicativity_fraction, polynomial_sum_lists)
from gelfond import (PotentialParams, digit_sum, exit_sets, exit_time_profile,
                     gelfond_exponent, modulus_product, multiplicativity_check, polynomial_sum,
                     rotation_number, sup_exponent_fit)
from gelfond.potential import _amp, _f, potential_array

TM_SIGNS = [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]
# phases whose Fraction has a large denominator (up to 2**1074)
WIDE_C = [5e-324, 1e-300, 0.3 + 2.0 ** -54, 1.0 - 2.0 ** -53]


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

    def test_one_float_per_term(self):
        # 3^10 phases take 472 KB; two lists of cosines and sines and a
        # NumPy array of digit sums took 4.3 MB
        tracemalloc.start()
        try:
            polynomial_sum(PotentialParams(3, 0.25), 3 ** 10, 0.123)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 10])
    def test_matches_two_list_form_bit_for_bit(self, q):
        # lengths at and next to each power of q up to 3^9, and random ones;
        # short sums run at every (c, x), long ones at every c with the x
        # values taken in turn
        rng = random.Random(1100 + q)
        lengths = {1, rng.randint(2, 3 ** 9), rng.randint(2, 3 ** 9),
                   rng.randint(2, 500)}
        k = 1
        while q ** k <= 3 ** 9:
            lengths |= {q ** k - 1, q ** k, q ** k + 1}
            k += 1
        xs = [0.0, 0.5, 1.0 - 2.0 ** -53, -0.3, 1e-300, rng.random()]
        cs = [0.0, 0.37] + WIDE_C
        turn = 0
        for N in sorted(lengths):
            for c in cs:
                for x in (xs if N <= 500 else [xs[turn % len(xs)]]):
                    turn += 1
                    got = polynomial_sum(PotentialParams(q, c), N, x)
                    want = polynomial_sum_lists(q, c, N, x)
                    assert (got.real.hex(), got.imag.hex()) == (
                        want.real.hex(), want.imag.hex()), (N, c, x)

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 10])
    def test_carry_counter_digit_sums(self, q):
        # past q^2 blocks of the table, so the counter carries twice over
        N = series.LOW_BLOCK * q ** 2 + 3
        assert list(series._digit_sums(q, N)) == [
            float(digit_sum(q, n)) for n in range(N)]


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


def _orbit_inputs(rng, q):
    """Seeded floats, dyadic floats, Fractions, ints, numpy.float64s,
    verify's mirror points 1 - Fraction(x), zero and large-denominator
    floats."""
    xs = [0.0, 0, F(0), 5e-324, 1e-300, 1.0 - 2.0 ** -53, -0.3, 7, -3,
          np.float64(0.3), np.float64(-1e-300), F(-5, 3)]
    for _ in range(20):
        x = rng.random()
        xs += [x, F(x), 1 - F(x), rng.randint(0, 2 ** 10) / 2 ** 10,
               F(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 6)),
               F(rng.randint(0, q ** 12), q ** 12 - 1),
               rng.randint(-10, 10), np.float64(rng.random())]
    return xs


class TestIntegerOrbits:
    """The integer orbits equal the earlier Fraction orbits exactly."""

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_modulus_product_matches_fraction_orbit(self, q):
        rng = random.Random(900 + q)
        for c in [0.0, 0.3, rng.random(), rng.random()] + WIDE_C:
            params = PotentialParams(q, c)
            for x in _orbit_inputs(rng, q):
                for n in (1, rng.randint(2, 12), 40):
                    assert modulus_product(params, n, x) == \
                        modulus_product_fraction(_amp, q, c, n, x), (c, x, n)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_multiplicativity_matches_fraction_phases(self, q, monkeypatch):
        # every phase handed to cmath.exp is compared, not only the verdict
        rng = random.Random(950 + q)
        phases, real_exp = [], cmath.exp

        def exp(z):
            phases.append(z)
            return real_exp(z)

        monkeypatch.setattr(cmath, "exp", exp)
        for c in [0.0, 0.37, rng.random()] + WIDE_C:
            params = PotentialParams(q, c)
            for x in _orbit_inputs(rng, q)[:40]:
                t = rng.randint(1, 8)
                a, b = rng.randint(1, 1000), rng.randint(0, q ** t - 1)
                phases.clear()
                got = multiplicativity_check(params, a, t, b, x=x)
                ours = phases[:]
                phases.clear()
                want = multiplicativity_fraction(
                    digit_sum, q, c, a, t, b, x, series.MULTIPLICATIVITY_TOL)
                assert len(ours) == 3
                assert (got, ours) == (want, phases), (c, x, a, t, b)


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
            assert r.excess_n <= r.excess_hi

    def test_excess_bounded(self):
        params = PotentialParams(2, 0.25)
        res = gelfond_exponent(params)
        rows = sup_exponent_fit(params, 14, 2048, res.beta)
        early = max(r.excess_n for r in rows if r.n <= 7)
        late = max(r.excess_n for r in rows if r.n > 7)
        assert late <= early + 0.5

    def test_mirror_gamma_sequences(self):
        # 1 - i/K is grid point K - i, and negation mod K commutes with the
        # orbit map, so the two fits sum the same orbits mirrored
        pa = PotentialParams(2, 0.3)
        pb = PotentialParams(2, 0.7)
        ra = sup_exponent_fit(pa, 10, 4096, 0.51)
        rb = sup_exponent_fit(pb, 10, 4096, 0.51)
        for a, b in zip(ra, rb):
            assert a.gamma_n == pytest.approx(b.gamma_n, abs=1e-12)
            assert a.excess_hi == pytest.approx(b.excess_hi, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_matches_fraction_orbit_oracle(self, q):
        # the oracle iterates grid points' orbits as exact Fractions
        rng = random.Random(1000 + q)
        n_max = 3

        def orbit_sums(c, x):
            out, total = [], 0.0
            for _ in range(n_max):
                total += _f(q, float(x) + c)
                out.append(total)
                x = (q * x) % 1
            return out

        # a small grid, checked whole; then two FIT_CHUNK blocks with the
        # level-1 peak, near x = 1 - c, in the second block
        for grid, c in ((64, rng.random()),
                        (2 * series.FIT_CHUNK, rng.random() / 2)):
            rows = sup_exponent_fit(PotentialParams(q, c), n_max, grid, 0.0)
            size = max(grid, min(series.FIT_OVERSAMPLE * q ** n_max,
                                 series.FIT_GRID_CAP))
            for r in rows:
                i = round(r.argmax_x * size)
                assert i / size == r.argmax_x
                assert r.excess_n == pytest.approx(
                    orbit_sums(c, F(i, size))[r.n - 1], abs=1e-12)
            if grid == 64:
                sums = [orbit_sums(c, F(i, size)) for i in range(size)]
                for r in rows:
                    assert r.excess_n == pytest.approx(
                        max(s[r.n - 1] for s in sums), abs=1e-12)

    @pytest.mark.parametrize("q,n_max", [(2, 8), (3, 5), (5, 3)])
    def test_encloses_direct_sum_maximum(self, q, n_max):
        # the direct sum shares no code with the fit; its dense grid holds
        # the fit grid, so its maximum lies in [lower end, upper end]
        params = PotentialParams(q, 0.3)
        beta = gelfond_exponent(params).beta
        rows = sup_exponent_fit(params, n_max, 64, beta)
        dense = 4 * series.FIT_OVERSAMPLE * q ** n_max
        for r in rows:
            peak = max(v for _, v in direct_profile(q, params.c, q ** r.n,
                                                    dense))
            excess = math.log(peak) - r.n * beta
            assert r.excess_n - 1e-9 <= excess <= r.excess_hi

    def test_peak_found_at_quarter(self):
        # the zoom search this replaced reported 0.210 here
        params = PotentialParams(2, 0.25)
        rows = sup_exponent_fit(params, 14, 1024,
                                gelfond_exponent(params).beta)
        assert rows[13].excess_n >= 0.29
        assert rows[13].excess_n <= rows[13].excess_hi

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_zero_amplitude_grid_points(self, q):
        # at c = 1/q the amplitude vanishes at grid point 0 (and at every
        # point whose orbit reaches it), whose orbit sums are -inf
        rows = sup_exponent_fit(PotentialParams(q, 1.0 / q), 4, 1, 0.5)
        for r in rows:
            assert math.isfinite(r.excess_n)
            assert r.excess_n <= r.excess_hi < math.inf

    @pytest.mark.parametrize("q", [2, 8])
    def test_potential_evaluated_once_per_grid_point(self, monkeypatch, q):
        sizes = []

        def counting(q, c, x):
            sizes.append(len(x))
            return potential_array(q, c, x)

        monkeypatch.setattr(series, "potential_array", counting)
        # a grid within one FIT_CHUNK block is evaluated in one call
        sup_exponent_fit(PotentialParams(q, 0.3), 3, 256, 0.5)
        assert sizes == [max(256, series.FIT_OVERSAMPLE * q ** 3)]
        sizes.clear()
        # a grid of several blocks is evaluated once, block by block
        n_max = {2: 16, 8: 5}[q]
        size = series.FIT_OVERSAMPLE * q ** n_max
        sup_exponent_fit(PotentialParams(q, 0.3), n_max, 256, 0.5)
        assert sum(sizes) == size
        assert sizes == [series.FIT_CHUNK] * (size // series.FIT_CHUNK)


@pytest.mark.parametrize("call, message", [
    (lambda: digit_sum(2, -1), "n must be >= 0"),
    (lambda: polynomial_sum(PotentialParams(2, 0.5), 0, 0.1),
     "N must be >= 1"),
    (lambda: modulus_product(PotentialParams(2, 0.5), 0, 0.1),
     "n_levels must be >= 1"),
    (lambda: sup_exponent_fit(PotentialParams(2, 0.5), 1, 64, 0.5),
     "n_max must be >= 2"),
], ids=["digit_sum", "polynomial_sum", "modulus_product", "sup_exponent_fit"])
def test_rejects_out_of_range_sizes(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


P2 = PotentialParams(2, 0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, name", [
    (lambda v: exit_sets(2, v, 3), "lam"),
    (lambda v: exit_time_profile(2, v, 3, 8), "lam"),
    (lambda v: polynomial_sum(P2, 8, v), "x"),
    (lambda v: modulus_product(P2, 3, v), "x"),
    (lambda v: multiplicativity_check(P2, 1, 2, 1, v), "x"),
    (lambda v: rotation_number(2, v), "lam"),
], ids=["exit_sets", "exit_time_profile", "polynomial_sum", "modulus_product",
        "multiplicativity_check", "rotation_number"])
def test_rejects_non_finite_points(call, name, value):
    # NaN arcs and sums came back before, and OverflowError from inf (also
    # from the exact Fraction(lam) of rotation_number)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        call(value)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400],
                         ids=["huge", "-huge"])
@pytest.mark.parametrize("call, name", [
    (lambda v: exit_sets(2, v, 3), "lam"),
    (lambda v: exit_time_profile(2, v, 3, 8), "lam"),
    (lambda v: polynomial_sum(P2, 8, v), "x"),
    (lambda v: rotation_number(2, v), "lam"),
], ids=["exit_sets", "exit_time_profile", "polynomial_sum", "rotation_number"])
def test_rejects_ints_beyond_float_range(call, name, value):
    # OverflowError came back before, from the conversion to float;
    # rotation_number read them exactly, as no float lam can be
    with pytest.raises(ValueError, match=f"^{name} is beyond the float "
                                         f"range$"):
        call(value)
