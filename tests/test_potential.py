import math

import numpy as np
import pytest

from gelfond import PotentialParams, SingularityError, amplitude, potential
from gelfond.potential import _amp, _f, _fp, potential_array

from conftest import (amp_round_form, central_diff, f_round_form,
                      potential_array_two_pass)


def kernel_arguments(q, rng):
    """u at the integers, the ties k + 1/2 and k/q + 1/(2q), the zeros k/q
    and 1e-13 or 1e-12 either side of them, and seeded u in [-10, 10]."""
    us = []
    for k in range(-10 * q, 10 * q + 1):
        z = k / q
        us += [z, z + 1.0 / (2 * q), z + 1e-13, z - 1e-13, z + 1e-12,
               z - 1e-12]
    for k in range(-10, 11):
        us += [float(k), k + 0.5]
    us.append(-0.0)
    us += [rng.uniform(-10.0, 10.0) for _ in range(2000)]
    us += [rng.uniform(-1e-3, 1e-3) for _ in range(200)]
    return us


class TestScalarKernel:
    """_f and _amp reduce with math.remainder; every value, -inf included,
    matches the u - round(u) form bit for bit."""

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_amp_matches_round_form(self, q, rng):
        for u in kernel_arguments(q, rng):
            assert _amp(q, u).hex() == amp_round_form(q, u).hex(), u

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_f_matches_round_form(self, q, rng):
        for u in kernel_arguments(q, rng):
            assert _f(q, u).hex() == f_round_form(q, u).hex(), u

    def test_arguments_reach_every_branch(self, rng):
        vals = [_f(2, u) for u in kernel_arguments(2, rng)]
        assert math.log(2.0) in vals
        assert float("-inf") in vals
        assert any(-math.inf < v < math.log(2.0) for v in vals)


class TestParams:
    def test_valid(self):
        PotentialParams(2, 0.0)
        PotentialParams(6, 0.999)

    @pytest.mark.parametrize("q,c", [(1, 0.5), (2, 1.0), (2, -0.1), (0, 0.2)])
    def test_invalid(self, q, c):
        with pytest.raises(ValueError):
            PotentialParams(q, c)


class TestAmplitude:
    def test_removable_singularity_limit(self):
        assert amplitude(PotentialParams(2, 0.0), 0.0) == 2.0
        assert amplitude(PotentialParams(5, 0.25), -0.25) == 5.0
        assert amplitude(PotentialParams(3, 0.0), 1.0) == 3.0

    def test_gelfond_point(self):
        # the period-2 orbit value behind beta(1/2) = log sqrt(3)
        val = amplitude(PotentialParams(2, 0.5), 1.0 / 3.0)
        assert val == pytest.approx(math.sqrt(3.0), abs=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_zeros_at_branch_points(self, q):
        c = 0.3
        for k in range(1, q):
            assert amplitude(PotentialParams(q, c), k / q - c) == 0.0

    def test_cosine_identity_q2(self):
        # for q=2 the amplitude is 2|cos(pi(x+c))|
        params = PotentialParams(2, 0.37)
        xs = np.arange(10_000) / 10_000
        for x in xs[::37]:
            lhs = amplitude(params, float(x))
            rhs = 2.0 * abs(math.cos(math.pi * (x + 0.37)))
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_cosine_identity_q2_grid(self):
        xs = np.arange(10_000) / 10_000
        lhs = np.exp(potential_array(2, 0.37, xs))
        rhs = 2.0 * np.abs(np.cos(np.pi * (xs + 0.37)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_periodicity_exact(self):
        # bit-exact whenever x, c, x+1 and x+c are exactly representable
        params = PotentialParams(3, 215.0 / 1024.0)
        for k in (51, 410, 789, 1023):
            x = k / 1024.0
            assert amplitude(params, x + 1.0) == amplitude(params, x)
            assert float(potential(params, x + 1.0)) == \
                float(potential(params, x))

    def test_periodicity_generic(self):
        params = PotentialParams(3, 0.21)
        for x in (0.05, 0.4, 0.77, 1.31):
            assert amplitude(params, x + 1.0) == \
                pytest.approx(amplitude(params, x), rel=1e-13)


class TestPotential:
    def test_maximum_value(self):
        assert float(potential(PotentialParams(2, 0.0), 0.0)) == math.log(2.0)

    def test_example_value(self):
        val = float(potential(PotentialParams(2, 0.5), 1.0 / 3.0))
        assert val == pytest.approx(0.549306144334055, abs=1e-14)

    def test_neg_infinity_at_zeros(self):
        val = potential(PotentialParams(3, 0.0), 1.0 / 3.0)
        assert val == float("-inf")
        assert val < -1e308

    def test_upper_bound_log_q(self):
        params = PotentialParams(4, 0.123)
        for x in np.linspace(0, 1, 503):
            assert potential(params, float(x)) <= math.log(4.0) + 1e-12

    def test_translation_bit_identical(self):
        # f with phase c at x equals f with phase 0 at x+c, same code path
        c = 0.2847
        for x in (0.11, 0.52, 0.9):
            a = float(potential(PotentialParams(2, c), x))
            b = float(potential(PotentialParams(2, 0.0), x + c))
            assert a == b

    def test_array_matches_scalar(self):
        xs = np.linspace(0.01, 0.99, 101)
        arr = potential_array(3, 0.2, xs)
        for x, v in zip(xs, arr):
            assert float(potential(PotentialParams(3, 0.2), float(x))) == \
                pytest.approx(v, abs=1e-14)


class TestDerivatives:
    """_fp(q, x + c) is the derivative of the potential at x."""

    def test_zero_at_maximum(self):
        assert _fp(2, 0.0 + 0.0) == 0.0

    def test_signs_around_maximum(self):
        # maximum at x = 1/2 for c = 1/2
        assert _fp(2, 0.4 + 0.5) > 0
        assert _fp(2, 0.6 + 0.5) < 0

    @pytest.mark.parametrize("q,c,x", [(6, 0.0, 0.05), (2, 0.3, 0.11),
                                       (3, 0.55, 0.27)])
    def test_matches_finite_difference(self, q, c, x):
        params = PotentialParams(q, c)
        fd = central_diff(lambda t: float(potential(params, t)), x, 1e-7)
        val = _fp(q, x + c)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_series_branch_matches_direct(self):
        # continuity across the near-maximum series cutoff
        below = _fp(5, 9.9e-5 + 0.0)
        above = _fp(5, 1.01e-4 + 0.0)
        z = math.pi * 1e-4
        slope = math.pi ** 2 * (1.0 / math.sin(z) ** 2
                                - 25.0 / math.sin(5.0 * z) ** 2)
        assert below - above == pytest.approx(-slope * 0.02e-4, rel=1e-3)

    def test_strictly_decreasing_between_singularities(self):
        # concavity: f' strictly decreasing on an arc between singularities
        xs = np.linspace(1.0 / 3.0 + 1e-3, 2.0 / 3.0 - 1e-3, 100)
        vals = [_fp(3, float(x) + 0.0) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            _fp(2, 0.5 + 1e-12 + 0.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestArrayKernelOracles:
    """potential_array, the one array kernel, keeps the bits of the fit's
    log of an amplitude array that it replaced.  u = x + c sits on every
    branch edge: the integers, the zeros k/q, 1e-13 inside and 1e-12 either
    side of them, and seeded points, in 1-D and 2-D."""

    @staticmethod
    def _points(q, seed):
        ks = np.arange(-3 * q, 3 * q + 1) / q
        edges = [ks + d for d in (0.0, 1e-13, -1e-13, 1e-12, -1e-12)]
        seeded = np.random.default_rng(seed).uniform(-3.0, 3.0, 20_000)
        u = np.concatenate(edges + [np.arange(-3.0, 4.0), seeded])
        return u[:u.size // 4 * 4]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 64])
    def test_zero_differing_bits(self, q):
        for i, c in enumerate((0.0, 0.3, 1 / 3, 0.7071)):
            u = self._points(q, 1000 * q + i)
            for shape in (u.shape, (4, u.size // 4)):
                uu = u.reshape(shape)
                want = _bits(potential_array_two_pass(q, c, uu - c))
                assert np.array_equal(_bits(potential_array(q, c, uu - c)),
                                      want)
            # the branch edges are reached: maximum, zeros and live points
            f = potential_array(q, 0.0, u)
            assert (f == math.log(q)).any() and np.isneginf(f).any()

    @pytest.mark.parametrize("q", [9170, 19143, 94869])
    def test_maximum_has_scalar_bits(self, q):
        # np.log(q) and math.log(q) differ in the last bit at these q
        f = potential_array(q, 0.0, [0.0, 1.0, -2.0])
        assert np.array_equal(_bits(f), _bits([_f(q, 0.0)] * 3))
