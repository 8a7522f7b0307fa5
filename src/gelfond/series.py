"""Digit-sum exponential sums and the independent verification layer.

The coefficient of index n is t_n = exp(2*pi*i*c*S_q(n)) with S_q the
base-q digit sum.  Since t_{aq^k+b} = t_a t_b for b < q^k, the partial sum
of length q^n factors into the product of amplitudes along the orbit of x
under multiplication by q; that product is how |sigma_{q^n}| is computed.
The direct compensated complex sum is kept only as its independent check:
their agreement and the q-multiplicativity identity are empirical
cross-checks.
The sup-norm fit encloses log||sigma_{q^n}||_inf - n*beta on both sides,
the paper's N^gamma growth measured against the certified beta.

The direct sum stores one float per term, 8 bytes, so 128 MiB at
DIRECT_SUM_CAP = 2^24 terms.
"""

from __future__ import annotations

import cmath
import functools
import math
from array import array
from dataclasses import dataclass
from typing import Iterator

from .potential import (PotentialParams, _amp, check_base, check_finite,
                        potential_array)

DIRECT_SUM_CAP = 2 ** 24  # 8 B per term: 128 MiB of phases at the cap
MULTIPLICATIVITY_TOL = 1e-12  # largest |lhs - rhs| the identity check passes
LOW_BLOCK = 64            # digit sums per table block, at most
FIT_OVERSAMPLE = 8        # fit grid points per frequency of the longest sum
FIT_GRID_CAP = 2 ** 21    # most fit grid points: a 16 MB table of f_c
FIT_CHUNK = 2 ** 13       # grid points per array pass, bounding temporaries
# per level: one potential value was off by <= 3.4e-11 where the amplitude
# is >= 1e-4 (q <= 8, 48,000 grid points against 200-bit values)
FIT_ROUNDING = 1e-10


def digit_sum(q: int, n: int) -> int:
    """Sum of the base-q digits of n >= 0."""
    check_base(q)
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 0
    while n:
        n, r = divmod(n, q)
        s += r
    return s


@functools.cache
def _low_digit_sums(q: int) -> tuple[float, ...]:
    """S_q(r) for r < q^m, the largest power of q at most LOW_BLOCK."""
    low = [0.0]
    while len(low) * q <= LOW_BLOCK:
        low = [d + s for d in range(q) for s in low]
    return tuple(low)


def _digit_sums(q: int, N: int) -> Iterator[float]:
    """S_q(n) for n = 0..N-1, as floats, by a carry counter.

    With B = q^m, n = j*B + r has S_q(n) = S_q(j) + S_q(r), the second read
    from a table.  Going from j to j + 1 clears the k trailing digits of j
    equal to q - 1 and raises the next one, so S_q(j) changes by
    1 - k(q - 1), exactly in floats.
    """
    low = _low_digit_sums(q)
    size = len(low)
    top = q - 1
    digits = [0] * N.bit_length()  # the digits of j, lowest first
    high = 0.0
    r = 0
    for _ in range(N):
        yield high + low[r]
        r += 1
        if r == size:
            r = k = 0
            while digits[k] == top:
                digits[k] = 0
                k += 1
            digits[k] += 1
            high += 1 - k * top


def polynomial_sum(params: PotentialParams, N: int, x: float) -> complex:
    """Direct partial sum of length N at x, via compensated summation.

    The cumulative phase n*x mod 1 is carried as a double-double pair so the
    per-term phase error stays at one ulp independent of n.  Only the phase
    of each term is stored, 8 bytes per term; math.fsum rounds the cosines
    and sines exactly, so summing them afterwards loses nothing.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > DIRECT_SUM_CAP:
        raise ValueError(f"N={N} exceeds the direct-sum cap {DIRECT_SUM_CAP}")
    check_finite("x", x)
    q, c = params.q, params.c
    xm = x % 1.0
    phase_hi = 0.0
    phase_lo = 0.0
    thetas = array("d")
    append = thetas.append
    two_pi = 2.0 * math.pi
    for s_n in _digit_sums(q, N):
        append(two_pi * ((phase_hi + phase_lo) + c * s_n))
        # exact two-sum of the phase increment, then exact wrap into [0,1);
        # each error is <= 2**-53, so |phase_lo| <= 2**-29 at the cap
        s = phase_hi + xm
        z = s - phase_hi
        err = (phase_hi - (s - z)) + (xm - z)
        phase_lo += err
        if s >= 1.0:
            s -= 1.0
        phase_hi = s
    return complex(math.fsum(map(math.cos, thetas)),
                   math.fsum(map(math.sin, thetas)))


def _ratio(x) -> tuple[int, int]:
    """x.as_integer_ratio(), a ValueError naming x where x is not finite."""
    try:
        return x.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"x must be finite, got {x!r}") from None


def modulus_product(params: PotentialParams, n_levels: int, x) -> float:
    """|partial sum of length q^n| via the amplitude product along the orbit.

    The orbit of x (a float, an int or a Fraction, whose as_integer_ratio()
    is Fraction(x)'s numerator and denominator) is iterated exactly, as
    integer numerators over x's denominator, reduced mod 1 at every level,
    so no rounding is amplified by q^n; num / den rounds as float(Fraction)
    does.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    q, c = params.q, params.c
    acc = 1.0
    num, den = _ratio(x)
    num %= den
    for _ in range(n_levels):
        acc *= _amp(q, num / den + c)
        num = q * num % den
    return acc


def multiplicativity_check(params: PotentialParams, a: int, t: int, b: int,
                           x: float) -> bool:
    """Check w(a*q^t + b) = w(a*q^t) * w(b) for b < q^t, w(n) = t_n e^(2 pi i n x).

    Phases are reduced mod 1 in exact integer arithmetic, over the product
    of the denominators of c and x, so the check stays meaningful for large
    n*x.
    """
    q, c = params.q, params.c
    if b >= q ** t:
        raise ValueError("requires b < q^t")
    c_num, c_den = c.as_integer_ratio()
    x_num, x_den = _ratio(x)
    den = c_den * x_den

    def w(n: int) -> complex:
        num = c_num * x_den * digit_sum(q, n) + n * x_num * c_den
        return cmath.exp(2j * math.pi * (num % den / den))

    lhs = w(a * q ** t + b)
    rhs = w(a * q ** t) * w(b)
    return abs(lhs - rhs) <= MULTIPLICATIVITY_TOL


@dataclass(frozen=True)
class ExponentFitRow:
    """Level n of the sup-norm fit, N = q^n: log||sigma_N||_inf - n*beta
    lies in [excess_n, excess_hi].  The grid maximum of log|sigma_N| is
    attained at argmax_x; excess_n is it less n*beta, gamma_n it over
    n log q."""

    n: int
    gamma_n: float
    excess_n: float
    argmax_x: float
    excess_hi: float


def sup_exponent_fit(params: PotentialParams, n_max: int, grid_size: int,
                     beta: float) -> list[ExponentFitRow]:
    """Two-sided enclosure of log||sigma_{q^n}||_inf - n*beta, n <= n_max.

    log|sigma_{q^n}(x)| is the orbit sum S_n(x) = sum_{k<n} f_c(q^k x).  On
    the grid i/K, q*(i/K) mod 1 is grid point (q*i) mod K, so each orbit is
    exact by index into one table of f_c.  The lower end is the grid maximum
    of S_n; the upper end is the smaller of Bernstein's bound (|sigma_N| is
    pi(N-1)||sigma_N||-Lipschitz) and subadditivity (sup S_n <= sup S_m +
    sup S_{n-m}), plus FIT_ROUNDING per level.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    import numpy as np

    q, c = params.q, params.c
    size = max(grid_size, min(FIT_OVERSAMPLE * q ** n_max, FIT_GRID_CAP))
    blocks = [(a, min(a + FIT_CHUNK, size)) for a in range(0, size, FIT_CHUNK)]
    f = np.empty(size)
    for a, b in blocks:
        f[a:b] = potential_array(q, c, np.arange(a, b) / size)
    best, at = [-math.inf] * n_max, [0] * n_max  # max of S_n, at grid point
    for a, b in blocks:
        j, sums = np.arange(a, b), np.zeros(b - a)
        for n in range(n_max):
            sums += f.take(j)
            j *= q
            j %= size
            k = int(sums.argmax())
            if sums[k] > best[n]:
                best[n], at[n] = float(sums[k]), a + k
    his = [0.0]  # his[m]: upper end at level m; sigma_1 = 1 has excess 0
    for n in range(1, n_max + 1):
        # the sup is at most the grid maximum over 1 - arg, for arg < 1
        arg = math.pi * (q ** n - 1) / (2 * size)
        his.append(min([his[m] + his[n - m] for m in range(1, n)] + [
            best[n - 1] - n * beta - math.log1p(-arg) + n * FIT_ROUNDING
            if arg < 1 else math.inf]))
    return [ExponentFitRow(n, top / (n * math.log(q)), top - n * beta,
                           i / size, his[n])
            for n, top, i in zip(range(1, n_max + 1), best, at)]
