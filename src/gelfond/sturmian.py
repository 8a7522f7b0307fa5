"""Sturmian cycles of x -> q*x mod 1 and rotation numbers of the truncated map.

A cycle with rotation p/m (lowest terms) and base digit a is generated by the
mechanical digit word a_j = a + floor(j*p/m) - floor((j-1)*p/m); the seed
point is the base-q value of that word divided by q^m - 1, and the orbit is
computed in exact integer arithmetic (Python ints are unbounded, so no width
policy applies).  Every such cycle fits in a closed arc of length 1/q, and
the arcs [lam, lam+1/q] containing it are exactly those with lam in the
window [s_max - 1/q, s_min].

The truncated circle map equals x -> q*x on the arc and is constant outside.
Its rotation number is a + p/m on the window of the cycle (a, p/m), which
then carries the invariant measure of the arc, so the windows are pairwise
disjoint and ordered by a + p/m (a devil's staircase): the window holding a
given arc base is found by descending the Stern-Brocot tree of p/m, see
select_cycle.  That window is the only certificate of a rational rotation;
off the windows of the allowed periods, a monotone degree-one lift gives a
float estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# build_cycle keeps this many cycles; enough for every cycle of period <= 13
# at q = 2, 3, 5 and 8 (58 per base digit, 812 in all), so the certificates
# of a run share one cycle object each.
CYCLE_CACHE_SIZE = 1024


@dataclass(frozen=True, slots=True)
class SturmianCycle:
    """Periodic orbit inside a closed arc of length 1/q.

    points are sorted, exact, and permuted by T: s -> q*s mod 1.
    """

    q: int
    period: int
    rotation: Fraction
    base_digit: int
    points: tuple[Fraction, ...]

    @property
    def s_min(self) -> Fraction:
        return self.points[0]

    @property
    def s_max(self) -> Fraction:
        return self.points[-1]

    def validate(self) -> None:
        q = self.q
        pts = set(self.points)
        if len(pts) != self.period:
            raise ValueError("points are not distinct")
        for s in self.points:
            if not (0 <= s < 1):
                raise ValueError(f"point {s} outside [0,1)")
            if (q * s) % 1 not in pts:
                raise ValueError(f"T does not permute the points (at {s})")
        if self.s_max - self.s_min > Fraction(1, q):
            raise ValueError("support wider than 1/q")

    def __str__(self):
        pts = ",".join(str(p) for p in self.points)
        return f"period-{self.period} cycle {{{pts}}} (rotation {self.rotation})"


@dataclass(frozen=True)
class LambdaWindow:
    """Arc-base window [lo, hi]; lo = s_max - 1/q may be negative (lifted)."""

    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


@functools.lru_cache(maxsize=CYCLE_CACHE_SIZE)
def build_cycle(q: int, base_digit: int, rotation: Fraction) -> SturmianCycle:
    """Construct the cycle for one (base digit, rotation) pair.

    rotation must be 0 (fixed point a/(q-1)) or a fraction p/m in (0,1) in
    lowest terms; the resulting orbit has exact period m.  Cycles are
    immutable and cached, so equal arguments return the same object.
    """
    if not 0 <= base_digit <= q - 2:
        raise ValueError(f"base digit must be in 0..q-2, got {base_digit}")
    p, m = rotation.numerator, rotation.denominator
    if not (0 <= p < m or (p == 0 and m == 1)):
        raise ValueError(f"rotation must lie in [0,1), got {rotation}")
    digits = [base_digit + (j * p) // m - ((j - 1) * p) // m for j in range(1, m + 1)]
    num = 0
    for d in digits:
        num = num * q + d
    den = q ** m - 1
    if den == 0:
        raise ValueError("q must be >= 2")
    nums = [num]
    for _ in range(m - 1):
        nums.append((nums[-1] * q) % den)
    if len(set(nums)) != m:
        raise ValueError(f"orbit of rotation {rotation} is not primitive")
    points = tuple(sorted(Fraction(k, den) for k in nums))
    cyc = SturmianCycle(q=q, period=m, rotation=Fraction(p, m) if m > 1 else Fraction(0),
                        base_digit=base_digit, points=points)
    cyc.validate()
    return cyc


def enumerate_cycles(q: int, max_period: int) -> list[SturmianCycle]:
    """All cycles with period 1..max_period, one per (base digit, rotation)
    pair (their windows are disjoint, so the cycles are distinct), sorted.

    Period-1 entries are the fixed points k/(q-1) for k = 0..q-2.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    out = []
    for a in range(q - 1):
        for m in range(1, max_period + 1):
            ps = [0] if m == 1 else [p for p in range(1, m) if math.gcd(p, m) == 1]
            for p in ps:
                out.append(build_cycle(q, a, Fraction(p, m)))
    out.sort(key=lambda cy: (cy.period, cy.rotation, cy.base_digit))
    return out


def lambda_window(cycle: SturmianCycle) -> LambdaWindow:
    """Exact window of arc bases whose arc contains the cycle support."""
    return LambdaWindow(lo=cycle.s_max - Fraction(1, cycle.q), hi=cycle.s_min)


def select_cycle(q: int, bra: float, brb: float,
                 max_period: int) -> tuple[SturmianCycle, int] | None:
    """The cycle of period <= max_period whose window holds [bra, brb].

    Returns (cycle, k) when lo + k <= bra and brb <= hi + k for the float
    window ends lo, hi and k = round(lam - (lo + hi)/2), lam the bracket
    midpoint; None when the bracket straddles a window edge or lies in no
    window of the allowed periods.

    lam is reduced into [-1/q, 1 - 1/q), which holds every window.  The
    fixed-point windows [a/(q-1) - 1/q, a/(q-1)] fix the base digit a; the
    windows of rotations p/m in (0, 1) with that digit lie between the fixed
    windows a and a+1 in the order of p/m, so a walk down the Stern-Brocot
    tree between 0/1 and 1/1 meets the one holding the bracket, if any,
    before its denominator exceeds max_period.  Denominators grow along the
    walk, so it builds at most max_period cycles.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    lam = 0.5 * (bra + brb)
    n = math.floor(lam + 1.0 / q)  # lam - n lies in [-1/q, 1 - 1/q)

    def place(cycle):
        """(0, k) if the window holds the bracket, -1 or +1 if the bracket
        lies left or right of it, None if it straddles an edge."""
        win = lambda_window(cycle)
        lo_f, hi_f = float(win.lo), float(win.hi)
        k = round(lam - 0.5 * (lo_f + hi_f))
        if lo_f + k <= bra and brb <= hi_f + k:
            return 0, k
        if brb <= lo_f + n:
            return -1, k
        if bra >= hi_f + n:
            return 1, k
        return None, k

    a = q - 2
    while a > 0 and float(Fraction(a, q - 1) - Fraction(1, q)) + n > lam:
        a -= 1
    cycle = build_cycle(q, a, Fraction(0))
    side, k = place(cycle)
    if side == 0:
        return cycle, k
    if side != 1:
        return None
    left, right = (0, 1), (1, 1)
    while left[1] + right[1] <= max_period:
        p, m = left[0] + right[0], left[1] + right[1]
        cycle = build_cycle(q, a, Fraction(p, m))
        side, k = place(cycle)
        if side == 0:
            return cycle, k
        if side is None:
            return None
        if side < 0:
            right = (p, m)
        else:
            left = (p, m)
    return None


def truncated_map_lift(q: int, lam: float, x: float) -> float:
    """Monotone degree-one lift of the truncated map.

    On [lam, lam+1/q] the lift is q*x; on the rest of the period it is the
    plateau q*lam+1; it extends by lift(x+1) = lift(x)+1.  With this
    normalization the rotation number satisfies rho(lam+1) = rho(lam)+q-1.
    """
    m = math.floor(x - lam)
    u = x - m
    return m + min(q * u, q * lam + 1.0)


@dataclass(frozen=True)
class RationalRotation:
    """Certified rational rotation, witnessed by a cycle inside the arc."""

    value: Fraction
    cycle: SturmianCycle


@dataclass(frozen=True)
class IrrationalRotation:
    """Uncertified estimate; the honest outcome when no window of the
    allowed periods holds the arc base."""

    value: float
    uncertainty: float


def _window_rotation(q: int, lam: float,
                     max_period: int) -> RationalRotation | None:
    """Rotation a + p/m + k(q-1) of the arc based at lam in [0, 1), where
    the window of the cycle (a, p/m) of period <= max_period, shifted by k,
    holds lam exactly; None if no such window does."""
    selected = select_cycle(q, lam, lam, max_period)
    if selected is None:
        return None
    cycle, k = selected
    win = lambda_window(cycle)
    if not win.lo <= Fraction(lam) - k <= win.hi:
        return None  # lam is within rounding of an edge, outside the window
    return RationalRotation(cycle.base_digit + cycle.rotation + k * (q - 1),
                            cycle)


def _lift_orbit_estimate(q: int, lam: float, iterations: int) -> float:
    x0 = lam % 1.0
    x = x0
    for _ in range(iterations):
        x = truncated_map_lift(q, lam % 1.0, x)
    return (x - x0) / iterations


def rotation_number(q: int, lam: float, iterations: int = 10_000,
                    max_denominator: int = 64
                    ) -> RationalRotation | IrrationalRotation:
    """Rotation number of the truncated map for the arc based at lam.

    Returns RationalRotation when the window of a cycle of period at most
    max_denominator holds lam mod 1 (select_cycle, checked exactly);
    otherwise an IrrationalRotation estimate from iterations lift steps,
    with uncertainty 2/iterations.
    """
    if iterations < 1_000:
        raise ValueError("iterations must be >= 1000")
    rot = _window_rotation(q, lam % 1.0, max_denominator)
    if rot is not None:
        return rot
    return IrrationalRotation(_lift_orbit_estimate(q, lam, iterations),
                              2.0 / iterations)


def rotation_staircase(q: int, points: int, iterations: int = 20_000,
                       max_denominator: int = 64):
    """Rows (lam, estimate, certified rotation or None) over a uniform grid.

    The estimate column is the raw lift-orbit quotient with a single fixed
    iteration count, which is nondecreasing in lam; the certified column
    carries the exact rotation of the window holding lam where the estimate
    agrees: its best approximation with denominator <= max_denominator is
    that rotation, within 2/iterations.
    """
    import numpy as np

    if points < 1:
        raise ValueError("points must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    lams = np.arange(points) / points
    x = lams.copy()
    x0 = x.copy()
    plateau = q * lams + 1.0
    for _ in range(iterations):
        m = np.floor(x - lams)
        u = x - m
        x = m + np.minimum(q * u, plateau)
    est = (x - x0) / iterations
    rows = []
    for lam, e in zip(lams.tolist(), est.tolist()):
        cand = Fraction(e).limit_denominator(max_denominator)
        rot = _window_rotation(q, lam, max_denominator)
        certified = (rot is not None and rot.value == cand
                     and abs(cand - e) <= 2.0 / iterations)
        rows.append((lam, e, cand if certified else None))
    return rows
