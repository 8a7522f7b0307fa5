"""Shared oracles and fixtures.

The oracles here deliberately avoid the code paths they check: derivatives
are cross-checked by central finite differences of the potential, the
balance integral by midpoint quadrature of f' weighted with a first-exit
time computed by forward orbit iteration (no inverse-branch machinery), and
the maximizing cycle by a tournament of orbit means over all q = 2 Sturmian
cycles (no balance integral, no bisection, nothing imported from gelfond),
the Stern-Brocot cycle selection by a linear scan over every enumerated
cycle, its integer walk by the Fraction walk it replaced, on cycles read off
mechanical words, every periodic orbit's mean (not only the Sturmian ones')
by Birkhoff sums on the grids k/(q^n - 1), the scalar potential by its earlier u - round(u) form, and the
c-roots by the sign bisection that calls every midpoint.  The two
batched shift grids are checked against their earlier one-t-at-a-time loops,
and the probe's exact transfer function against a Gauss-Legendre quadrature
of its derivative series.  The orbit product and the multiplicativity check
are checked against their earlier Fraction-orbit forms, and the direct sum
against its earlier two-list form.  Those take the potential kernels as
arguments, so nothing here imports gelfond.  The --sigma-csv profile, which
reads the orbit product, is checked against the chunked NumPy direct sum it
replaced and against a 40-digit product of geometric sums.

One autouse fixture reaches into gelfond: before each test it clears the
settled lambda pairs that certify keeps for the mirror phase, so the calls
a certificate makes do not depend on the tests that ran before it.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def forward_exit_times(q: int, lam: float, xs: np.ndarray,
                       cap: int = 45) -> np.ndarray:
    """First-exit counts e(x) = inf{k >= 0 : T^k x outside [lam, lam+1/q)}."""
    lam_mod = lam % 1.0
    e = np.zeros(len(xs), dtype=np.int64)
    y = np.asarray(xs, dtype=float) % 1.0
    alive = np.ones(len(xs), dtype=bool)
    for _ in range(cap):
        alive = alive & ((y - lam_mod) % 1.0 < 1.0 / q)
        if not alive.any():
            break
        e += alive
        y = (q * y) % 1.0
    return e


def balance_quadrature_oracle(q: int, c: float, lam: float, depth: int = 45,
                              n: int = 1_000_000) -> float:
    """Midpoint quadrature of f_c' * e over the base arc (independent path)."""
    lam_mod = lam % 1.0
    xs = lam_mod + (np.arange(n) + 0.5) / n / q
    e = forward_exit_times(q, lam, xs, cap=depth)
    u = xs + c
    ur = u - np.round(u)
    vr = q * ur - np.round(q * ur)
    fp = np.pi * (q / np.tan(np.pi * vr) - 1.0 / np.tan(np.pi * ur))
    return float(np.mean(fp * e) / q)


def sturmian_cycle(q: int, base_digit: int,
                   rotation: Fraction) -> tuple[Fraction, ...]:
    """Sorted exact points of the Sturmian cycle of x -> q*x mod 1 with the
    given base digit and rotation p/m (lowest terms; rotation 0 is the
    fixed point base_digit/(q - 1)).

    The cycle is read off the mechanical word w_k = 1 iff (k*p mod m) >= m-p,
    k = 0..m-1 (p ones among m letters): each of its m cyclic shifts, with
    base_digit added to every letter and read as a base-q numeral k, is the
    point k/(q^m - 1).
    """
    p, m = rotation.numerator, rotation.denominator
    digits = [base_digit + ((k * p) % m >= m - p) for k in range(m)]
    den = q ** m - 1
    points = []
    for i in range(m):
        k = 0
        for d in digits[i:] + digits[:i]:
            k = k * q + d
        points.append(Fraction(k, den))
    return tuple(sorted(points))


def sturmian_cycle_q2(rotation: Fraction) -> tuple[Fraction, ...]:
    """sturmian_cycle at q = 2, base digit 0."""
    return sturmian_cycle(2, 0, rotation)


def fraction_rotation_walk(q: int, lam, max_denominator: int) -> tuple:
    """rotation_number's Stern-Brocot walk as it ran on Fractions, on the
    cycles of sturmian_cycle: ("rational", value, base digit, rotation,
    points) when the window [s_max - 1/q, s_min] of a node holds
    Fraction(lam) mod 1, lifted into [-1/q, 1 - 1/q); otherwise
    ("irrational", value, uncertainty), the interval between the last nodes
    passed left and right of it, rounded outward."""
    x = Fraction(lam) % 1
    n = int(x >= 1 - Fraction(1, q))
    x -= n
    shift = n * (q - 1)
    a = q - 2
    while a > 0 and x < Fraction(a, q - 1) - Fraction(1, q):
        a -= 1
    left, right = Fraction(0), Fraction(1)
    p = left
    while True:
        points = sturmian_cycle(q, a, p)
        lo, hi = points[-1] - Fraction(1, q), points[0]
        if lo <= x <= hi:
            return "rational", a + p + shift, a, p, points
        if x < lo:
            right = p
        else:
            left = p
        if left.denominator + right.denominator > max_denominator:
            break
        p = Fraction(left.numerator + right.numerator,
                     left.denominator + right.denominator)
    lo, hi = a + left + shift, a + right + shift
    value = float((lo + hi) / 2)
    half = max(hi - Fraction(value), Fraction(value) - lo)
    uncertainty = float(half)
    if uncertainty < half:
        uncertainty = math.nextafter(uncertainty, math.inf)
    return "irrational", value, uncertainty


def all_orbits_best(q: int, c: float, max_period: int) -> float:
    """The best mean of f_c(x) = log|sin(pi q u)/sin(pi u)|,
    u = x + c, over every periodic orbit of x -> q*x mod 1 of period at
    most max_period, Sturmian or not.

    Every point of period dividing n is k/(q^n - 1), k = 0..q^n - 2, and T
    maps it to (k*q mod (q^n - 1))/(q^n - 1), so one array of f_c on that
    grid and n gathers give the Birkhoff sum S_n f_c at every such point.
    The amplitude is reduced as in potential_array_two_pass, and is q at a
    removable point u in Z.
    """
    best = -math.inf
    for n in range(1, max_period + 1):
        N = q ** n - 1
        k = np.arange(N, dtype=np.int64)
        u = k / N + c
        ur = u - np.round(u)
        vr = q * ur - np.round(q * ur)
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = np.abs(np.sin(np.pi * vr) / np.sin(np.pi * ur))
            g = np.log(np.where(ur == 0.0, float(q), amp))
        total = g.copy()
        for _ in range(n - 1):
            k = k * q % N
            total += g[k]
        best = max(best, float(total.max()) / n)
    return best


class SturmianTournament:
    """Orbit means of f_c(x) = log|2 cos pi(x + c)| over every q = 2 Sturmian
    cycle of period <= max_period, compared at one c at a time.

    For q = 2 the potential log|sin 2 pi u / sin pi u| is log|2 cos pi u|,
    so this evaluates the paper's definition of beta(2; c) restricted to
    periodic Sturmian measures: no balance integral, no window search and no
    gelfond code.  Cycles are keyed by rotation (period = denominator);
    means are float (error ~1e-15), margins are mean differences.
    """

    def __init__(self, max_period: int):
        self.rotations = [Fraction(p, m) for m in range(1, max_period + 1)
                          for p in range(m) if math.gcd(p, m) == 1]
        self.cycles = {rot: sturmian_cycle_q2(rot) for rot in self.rotations}
        self._index = {rot: i for i, rot in enumerate(self.rotations)}
        pts = [pt for rot in self.rotations for pt in self.cycles[rot]]
        self._x = np.array([float(pt) for pt in pts])
        self._owner = np.repeat(np.arange(len(self.rotations)),
                                [len(self.cycles[r]) for r in self.rotations])
        self._period = np.bincount(self._owner).astype(float)

    def means(self, c: float) -> np.ndarray:
        """Orbit mean of f_c per cycle, in the order of self.rotations."""
        with np.errstate(divide="ignore"):
            f = np.log(np.abs(2.0 * np.cos(np.pi * (self._x + c))))
        return np.bincount(self._owner, weights=f) / self._period

    def margin(self, rotation: Fraction, c: float) -> float:
        """Mean of the given cycle minus the best mean of all other cycles:
        positive iff that cycle wins the tournament at c."""
        return self._margin(self.means(c), self._index[rotation])

    def winner(self, c: float) -> tuple[Fraction, float]:
        """Rotation of the best cycle at c and its margin over the runner-up."""
        means = self.means(c)
        i = int(np.argmax(means))
        return self.rotations[i], self._margin(means, i)

    @staticmethod
    def _margin(means: np.ndarray, i: int) -> float:
        own = means[i]
        means[i] = -np.inf
        return float(own - means.max())


def orbit_mean_50(rotation: Fraction, c) -> float:
    """Mean of log|2 cos pi(x + c)| over the exact points of one q = 2
    Sturmian cycle in 50-digit mpmath; c is taken exactly (Fraction or the
    binary value of a float)."""
    mpmath = pytest.importorskip("mpmath")
    pts = sturmian_cycle_q2(rotation)
    c = Fraction(c)
    with mpmath.workdps(50):
        total = mpmath.fsum(
            mpmath.log(abs(2 * mpmath.cospi(mpmath.mpf(u.numerator)
                                            / u.denominator)))
            for u in (pt + c for pt in pts))
        return float(total / len(pts))


def linear_scan_select(cycles, bra: float, brb: float):
    """(cycle, k) for the first cycle whose float arc-base window
    [s_max - 1/q, s_min], shifted by k = round(lam - midpoint), contains the
    bracket [bra, brb]; None if no cycle's does.  This is the scan the
    Stern-Brocot descent replaced, kept as its oracle."""
    lam = 0.5 * (bra + brb)
    for cyc in cycles:
        lo_f = float(cyc.points[-1] - Fraction(1, cyc.q))
        hi_f = float(cyc.points[0])
        k = round(lam - 0.5 * (lo_f + hi_f))
        if lo_f + k <= bra and brb <= hi_f + k:
            return cyc, k
    return None


def full_bisection(balance_at, a: float, b: float,
                   tol: float) -> tuple[float, float, int]:
    """The sign bisection as it stood before the c-roots skipped calls:
    balance_at (a value with .value and .err_bound) certified + at a and -
    at b, then [a, b] halved with a call at every midpoint, an end moving
    only on a certified sign, until b - a <= tol, no float lies between a
    and b, or a midpoint's sign is uncertain.  Returns the bracket and the
    number of calls."""
    def sign(x):
        v = balance_at(x)
        return (v.value > v.err_bound) - (v.value < -v.err_bound)

    assert sign(a) > 0 > sign(b), (a, b)
    calls = 2
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        s = sign(mid)
        calls += 1
        if s == 0:
            break
        if s > 0:
            a = mid
        else:
            b = mid
    return a, b, calls


def exact_window_holds(cycle, lam: float) -> bool:
    """Whether the arc-base window [s_max - 1/q, s_min] of cycle, shifted by
    an integer, holds Fraction(lam), in exact arithmetic (every window is
    shorter than 1)."""
    lo = cycle.points[-1] - Fraction(1, cycle.q)
    d = Fraction(lam) - lo
    return d - math.floor(d) <= cycle.points[0] - lo


def amp_round_form(q: int, u: float) -> float:
    """|sin(pi*q*u)/sin(pi*u)| reduced by u - round(u), the form the scalar
    potential had before it moved to math.remainder (tolerances 1e-12)."""
    ur = u - round(u)
    if abs(ur) <= 1e-12:
        return float(q)
    v = q * ur
    vr = v - round(v)
    if abs(vr) <= q * 1e-12:
        return 0.0
    return abs(math.sin(math.pi * vr) / math.sin(math.pi * ur))


def f_round_form(q: int, u: float) -> float:
    """log of amp_round_form, -inf at the zeros."""
    a = amp_round_form(q, u)
    if a == 0.0:
        return float("-inf")
    return math.log(a)


def potential_array_two_pass(q: int, c: float, x) -> np.ndarray:
    """log of a separate amplitude array, NumPy's sin and log: the array
    potential before f_c had one array kernel (tolerances 1e-12)."""
    u = np.asarray(x, dtype=float) + c
    ur = u - np.round(u)
    vr = q * ur - np.round(q * ur)
    removable = np.abs(ur) <= 1e-12
    den = np.abs(np.sin(np.pi * ur))
    num = np.abs(np.sin(np.pi * vr))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out = np.where(removable, float(q), out)
    out = np.where(~removable & (np.abs(vr) <= q * 1e-12), 0.0, out)
    with np.errstate(divide="ignore"):
        return np.log(out)


def transfer_integral_loop(derivative_array, nodes, weights, q: int, c: float,
                           lam_mod: float, positions, depth: int, breaks,
                           max_panel: float = 0.005) -> dict:
    """Cumulative integrals of the truncated transfer-derivative series by
    24-point Gauss-Legendre panels, split at the positions and at the
    forward orbit of the branch cut (breaks), one series call per interval."""

    def transfer(x):
        acc = np.zeros_like(x)
        w = 1.0
        y = np.asarray(x, dtype=float)
        for _ in range(depth):
            y = lam_mod + ((y - q * lam_mod) % 1.0) / q
            w /= q
            acc += w * derivative_array(q, c, y)
        return acc

    cuts = {0.0}
    for p in positions:
        cuts.add(float(p))
    for br in breaks:
        t = (br - lam_mod) % 1.0
        if 0.0 < t < 1.0:
            cuts.add(t)
    grid = sorted(cuts)
    cum = {0.0: 0.0}
    total = 0.0
    for lo, hi in zip(grid, grid[1:]):
        n_sub = max(1, int(math.ceil((hi - lo) / max_panel)))
        edges = np.linspace(lo, hi, n_sub + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1:] - edges[:-1])
        pts = (mids[:, None] + halves[:, None] * nodes[None, :])
        vals = transfer(lam_mod + pts.ravel()).reshape(pts.shape)
        total += float(np.sum(halves * (vals @ weights)))
        cum[hi] = total
    return cum


def _shift_ts(q: int, t_steps: int, off: float = 1e-6):
    return np.linspace(3.0 / (8 * q) + off, 5.0 / (8 * q) - off, t_steps)


def inner_shift_loop(f, fp, q: int, t_steps: int, s_steps: int,
                     off: float = 1e-6) -> tuple:
    """(worst, (t, s), rows) of the inner-shift grid, one t row at a time;
    rows holds every row's values, in t order."""
    one_q = 1.0 / q
    log_q = math.log(q)
    worst = -math.inf
    worst_point = None
    rows = []
    for t in _shift_ts(q, t_steps, off):
        f_t = f(q, t)
        fp_t = fp(q, t)
        s = np.linspace(off, one_q - t, s_steps)
        a_vals = np.log(np.sin(np.pi * s) / np.sin(np.pi * (one_q + s)))
        b_vals = log_q - f_t - fp_t * (one_q - t - s) / (q - 1)
        h = a_vals + b_vals
        rows.append(h)
        j = int(np.argmax(h))
        if h[j] > worst:
            worst = float(h[j])
            worst_point = (float(t), float(s[j]))
    return worst, worst_point, rows


def outer_shift_loop(f, fp, q: int, t_steps: int, s_steps: int,
                     off: float = 1e-6) -> tuple:
    """(worst, (t, s), rows) of the outer-shift grid, one t row at a time;
    rows holds every row's values, in t order."""
    one_q = 1.0 / q
    log_q = math.log(q)
    worst = -math.inf
    worst_point = None
    rows = []
    for t in _shift_ts(q, t_steps, off):
        f_t = f(q, t)
        fp_t = fp(q, t)
        f_qt = f(q, one_q - t)
        s = np.linspace(t, one_q - off, s_steps)
        u_vals = np.log(np.sin(np.pi * (one_q - s))
                        / np.sin(np.pi * (one_q + s)))
        inner = one_q - t - (s - t) / (q - 1)
        f_inner = np.array([f(q, float(w)) for w in inner])
        v_vals = log_q - f_t + f_inner - f_qt - fp_t * (s - t) / (q - 1)
        g = u_vals + v_vals
        rows.append(g)
        j = int(np.argmax(g))
        if g[j] > worst:
            worst = float(g[j])
            worst_point = (float(t), float(s[j]))
    return worst, worst_point, rows


def modulus_product_fraction(amp, q: int, c: float, n_levels: int,
                             x) -> float:
    """The orbit product with the orbit of x iterated as a Fraction, the
    form modulus_product had before it moved to integer numerators."""
    acc = 1.0
    xk = Fraction(x) % 1
    for _ in range(n_levels):
        acc *= amp(q, float(xk) + c)
        xk = (q * xk) % 1
    return acc


def multiplicativity_fraction(digit_sum, q: int, c: float, a: int, t: int,
                              b: int, x: float, tol: float) -> bool:
    """The multiplicativity check with its phases reduced as Fractions, the
    form multiplicativity_check had before it moved to integers."""
    xf = Fraction(x)
    cf = Fraction(c)

    def w(n: int) -> complex:
        theta = (cf * digit_sum(q, n) + n * xf) % 1
        return cmath.exp(2j * math.pi * float(theta))

    lhs = w(a * q ** t + b)
    rhs = w(a * q ** t) * w(b)
    return abs(lhs - rhs) <= tol


def digit_sums_array(q: int, N: int) -> np.ndarray:
    """S_q(n) for n = 0..N-1 by repeated division."""
    arr = np.arange(N, dtype=np.int64)
    digit_sums = np.zeros(N, dtype=np.int64)
    while arr.any():
        digit_sums += arr % q
        arr //= q
    return digit_sums


def polynomial_sum_lists(q: int, c: float, N: int, x: float) -> complex:
    """The direct sum as polynomial_sum had it before it stored one float
    per term: NumPy digit sums, and a list each of cosines and sines."""
    digit_sums = digit_sums_array(q, N)
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


def direct_profile(q: int, c: float, N: int,
                   grid_size: int) -> list[tuple[float, float]]:
    """(x, |partial sum of length N|) on the grid i/grid_size, by a direct
    NumPy sum chunked by index: the --sigma-csv profile before it read the
    orbit product."""
    xs = np.arange(grid_size) / grid_size
    coeff = np.exp(2j * np.pi * c * digit_sums_array(q, N))
    acc = np.zeros(grid_size, dtype=complex)
    chunk = max(1, (1 << 22) // grid_size)
    for start in range(0, N, chunk):
        ns = np.arange(start, min(start + chunk, N))
        phases = np.exp(2j * np.pi * ((ns[:, None] * xs[None, :]) % 1.0))
        acc += (coeff[start:start + len(ns)][:, None] * phases).sum(axis=0)
    return list(zip(xs.tolist(), np.abs(acc).tolist()))


def sigma_modulus_40(q: int, c: float, n: int, x: float) -> float:
    """|partial sum of length q^n| at x in 40-digit mpmath, as the product
    over k < n of |sum_{d<q} e(d(c + q^k x))|, each a geometric sum of
    exponentials (no sine ratio); c, x and the orbit are taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        acc = mpmath.mpf(1)
        xk = Fraction(x) % 1
        for _ in range(n):
            u = Fraction(c) + xk
            e = mpmath.expjpi(2 * mpmath.mpf(u.numerator) / u.denominator)
            acc *= abs(mpmath.fsum(e ** d for d in range(q)))
            xk = q * xk % 1
        return float(acc)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(autouse=True)
def no_kept_brackets():
    from gelfond import certify

    certify._brackets.clear()
