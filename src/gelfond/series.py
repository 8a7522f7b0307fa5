"""Digit-sum exponential sums and the independent verification layer.

The coefficient of index n is exp(2*pi*i*c*S_q(n)) with S_q the base-q digit
sum.  Partial sums of the associated trigonometric polynomial are computed
two independent ways: a direct compensated complex sum, and (at lengths q^n)
the product of amplitudes along the orbit of x under multiplication by q.
Their agreement, the q-multiplicativity identity, and the growth-exponent
fits are the empirical cross-checks on the certified exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potential import PotentialParams, _amp, potential_array

DIRECT_SUM_CAP = 2 ** 24
MULTIPLICATIVITY_TOL = 1e-12  # largest |lhs - rhs| the identity check passes


def digit_sum(q: int, n: int) -> int:
    """Sum of the base-q digits of n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 0
    while n:
        n, r = divmod(n, q)
        s += r
    return s


def _digit_sums_upto(q: int, N: int) -> np.ndarray:
    arr = np.arange(N, dtype=np.int64)
    s = np.zeros(N, dtype=np.int64)
    while arr.any():
        s += arr % q
        arr //= q
    return s


def polynomial_sum(params: PotentialParams, N: int, x: float) -> complex:
    """Direct partial sum of length N at x, via compensated summation.

    The cumulative phase n*x mod 1 is carried as a double-double pair so the
    per-term phase error stays at one ulp independent of n.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > DIRECT_SUM_CAP:
        raise ValueError(f"N={N} exceeds the direct-sum cap {DIRECT_SUM_CAP}")
    q, c = params.q, params.c
    digit_sums = _digit_sums_upto(q, N)
    xm = x % 1.0
    phase_hi = 0.0
    phase_lo = 0.0
    re: list[float] = []
    im: list[float] = []
    two_pi = 2.0 * math.pi
    for n in range(N):
        theta = two_pi * ((phase_hi + phase_lo) + c * float(digit_sums[n]))
        re.append(math.cos(theta))
        im.append(math.sin(theta))
        # exact two-sum of the phase increment, then exact wrap into [0,1)
        s = phase_hi + xm
        z = s - phase_hi
        err = (phase_hi - (s - z)) + (xm - z)
        phase_lo += err
        if s >= 1.0:
            s -= 1.0
        if phase_lo >= 1.0:
            phase_lo -= 1.0
        phase_hi = s
    return complex(math.fsum(re), math.fsum(im))


def modulus_product(params: PotentialParams, n_levels: int, x) -> float:
    """|partial sum of length q^n| via the amplitude product along the orbit.

    The orbit of x (a float or a Fraction) is iterated exactly as a Fraction,
    reduced mod 1 at every level, so no rounding is amplified by q^n.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    q, c = params.q, params.c
    acc = 1.0
    xk = Fraction(x) % 1
    for _ in range(n_levels):
        acc *= _amp(q, float(xk) + c)
        xk = (q * xk) % 1
    return acc


def multiplicativity_check(params: PotentialParams, a: int, t: int, b: int,
                           x: float) -> bool:
    """Check w(a*q^t + b) = w(a*q^t) * w(b) for b < q^t, w(n) = t_n e^(2 pi i n x).

    Phases are reduced mod 1 in exact rational arithmetic so the check stays
    meaningful for large n*x.
    """
    q, c = params.q, params.c
    if b >= q ** t:
        raise ValueError("requires b < q^t")
    xf = Fraction(x)
    cf = Fraction(c)

    def w(n: int) -> complex:
        theta = (cf * digit_sum(q, n) + n * xf) % 1
        return cmath.exp(2j * math.pi * float(theta))

    lhs = w(a * q ** t + b)
    rhs = w(a * q ** t) * w(b)
    return abs(lhs - rhs) <= MULTIPLICATIVITY_TOL


@dataclass(frozen=True)
class ExponentFitRow:
    n: int
    gamma_n: float
    excess_n: float
    argmax_x: float


def _orbit_sums(q: int, c: float, xs: np.ndarray, n: int) -> np.ndarray:
    """Sum of the potential along the first n orbit points of each x
    (elementwise, any shape)."""
    out = np.zeros_like(xs)
    cur = xs.copy()
    for _ in range(n):
        out += potential_array(q, c, cur)
        cur = (q * cur) % 1.0
    return out


def sup_exponent_fit(params: PotentialParams, n_max: int, grid_size: int,
                     beta: float, *, top_k: int = 8, zoom: int = 33,
                     zoom_passes: int = 3) -> list[ExponentFitRow]:
    """Per-length growth exponents from grid maxima of the orbit sums.

    gamma_n = (max over x of sum_{k<n} f_c(q^k x)) / (n log q) and
    excess_n = that max minus n*beta.  The base grid is refined by zoom
    passes around the running maxima; the result is a lower bound for the
    true sup, so gamma_n can undershoot by the residual grid slack.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    q, c = params.q, params.c
    log_q = math.log(q)
    xs = np.arange(grid_size) / grid_size
    sums = np.zeros_like(xs)
    cur = xs.copy()
    rows = []
    carried: list[float] = []  # value-ranked seeds from the previous level;
    # the base grid alone can die into a singularity at deep levels
    for n in range(1, n_max + 1):
        sums += potential_array(q, c, cur)
        cur = (q * cur) % 1.0
        order = np.argsort(sums)[::-1][:top_k]
        finite = [i for i in order if math.isfinite(sums[i])]
        cands, seen = [], set()
        for x in [float(xs[i]) for i in finite] + carried:
            key = round(x, 13)
            if key not in seen:
                seen.add(key)
                cands.append(x)
        if finite:
            best_val = float(sums[finite[0]])
            best_x = float(xs[finite[0]])
        else:
            best_val = -math.inf
            best_x = float(xs[0])
        entries = [(best_val, x) for x in cands]
        spacing = 1.0 / grid_size
        for _ in range(zoom_passes):
            # window spans two previous grid steps so a peak adjacent to the
            # chosen sample cannot fall outside the next pass
            half = 2.0 * spacing
            if entries:
                # one row per candidate, one orbit-sum pass for all rows
                grid = (np.array([x for _, x in entries])[:, None]
                        + np.linspace(-half, half, zoom)) % 1.0
                vals = _orbit_sums(q, c, grid, n)
                at = (np.arange(len(entries)), np.argmax(vals, axis=1))
                entries = list(zip(vals[at].tolist(), grid[at].tolist()))
                for v, x in entries:
                    if v > best_val:
                        best_val, best_x = v, x
            spacing = 2.0 * half / (zoom - 1)
        # the next level's peaks sit near inverse-branch images of this
        # level's peaks, since S_{n+1}(x) = f(x) + S_n(q x mod 1); keep the
        # children of the best-valued parents
        entries.sort(key=lambda t: -t[0])
        seeds = [x for _, x in entries[:top_k]] + [best_x]
        carried = [((s + j) / q) % 1.0 for s in seeds for j in range(q)]
        rows.append(ExponentFitRow(n, best_val / (n * log_q),
                                   best_val - n * beta, best_x))
    return rows


def polynomial_profile(params: PotentialParams, N: int,
                       grid_size: int) -> list[tuple[float, float]]:
    """(x, |partial sum of length N|) on a uniform grid, chunked by index."""
    if N > DIRECT_SUM_CAP:
        raise ValueError(f"N={N} exceeds the direct-sum cap {DIRECT_SUM_CAP}")
    q, c = params.q, params.c
    xs = np.arange(grid_size) / grid_size
    coeff = np.exp(2j * np.pi * c * _digit_sums_upto(q, N))
    acc = np.zeros(grid_size, dtype=complex)
    chunk = max(1, (1 << 22) // grid_size)
    for start in range(0, N, chunk):
        ns = np.arange(start, min(start + chunk, N))
        phases = np.exp(2j * np.pi * ((ns[:, None] * xs[None, :]) % 1.0))
        acc += (coeff[start:start + len(ns)][:, None] * phases).sum(axis=0)
    return list(zip(xs.tolist(), np.abs(acc).tolist()))
