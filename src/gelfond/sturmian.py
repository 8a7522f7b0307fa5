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
given arc base is found by descending the Stern-Brocot tree of p/m.  One
exact walk does it (rotation_number): it gives the rotation of the window
that holds an arc base, with that window's cycle as witness, or the exact
interval between the two adjacent windows it passes once the denominators
exceed the cap.  The staircase and the nonperiodic report need that walk, so
a certificate picks its cycle through it too (certify.gelfond_exponent): the
walk runs at the balance zero lam*, and the witness is accepted when certified
balance signs at the ends of its window put lam* strictly inside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .potential import check_base, check_finite

# _node caches this many cycles, with their window ends; enough for every
# cycle of period <= 13 at q = 2, 3, 5 and 8 (58 per base digit, 812 in all),
# so the certificates of a run share one cycle object each.
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


@dataclass(frozen=True)
class LambdaWindow:
    """Arc-base window [lo, hi]; lo = s_max - 1/q may be negative (lifted)."""

    lo: Fraction
    hi: Fraction


def build_cycle(q: int, base_digit: int, rotation: Fraction) -> SturmianCycle:
    """Construct the cycle for one (base digit, rotation) pair.

    rotation must be 0 (fixed point a/(q-1)) or a fraction p/m in (0,1) in
    lowest terms; the resulting orbit has exact period m.  Cycles are
    immutable and cached, so equal arguments return the same object.
    """
    check_base(q)
    if not 0 <= base_digit <= q - 2:
        raise ValueError(f"base digit must be in 0..q-2, got {base_digit}")
    p, m = rotation.numerator, rotation.denominator
    if not (0 <= p < m or (p == 0 and m == 1)):
        raise ValueError(f"rotation must lie in [0,1), got {rotation}")
    return _node(q, base_digit, p, m)[0]


# typed, so a float base equal to an int one misses the cache and is refused
@functools.lru_cache(maxsize=CYCLE_CACHE_SIZE, typed=True)
def _node(q: int, base_digit: int, p: int, m: int
          ) -> tuple[SturmianCycle, int, int, int, int]:
    """The cycle of rotation p/m and its window [lo, hi], as the integer
    ratios lo_n, lo_d, hi_n, hi_d (build_cycle checks the arguments)."""
    digits = [base_digit + (j * p) // m - ((j - 1) * p) // m for j in range(1, m + 1)]
    num = 0
    for d in digits:
        num = num * q + d
    den = q ** m - 1
    nums = [num]
    for _ in range(m - 1):
        nums.append((nums[-1] * q) % den)
    if len(set(nums)) != m:
        raise ValueError(f"orbit of rotation {Fraction(p, m)} is not primitive")
    points = tuple(sorted(Fraction(k, den) for k in nums))
    cyc = SturmianCycle(q=q, period=m, rotation=Fraction(p, m) if m > 1 else Fraction(0),
                        base_digit=base_digit, points=points)
    cyc.validate()
    win = lambda_window(cyc)
    return cyc, *win.lo.as_integer_ratio(), *win.hi.as_integer_ratio()


def enumerate_cycles(q: int, max_period: int) -> list[SturmianCycle]:
    """All cycles with period 1..max_period, one per (base digit, rotation)
    pair (their windows are disjoint, so the cycles are distinct), sorted.

    Period-1 entries are the fixed points k/(q-1) for k = 0..q-2.
    """
    check_base(q)
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


@dataclass(frozen=True)
class RationalRotation:
    """Certified rational rotation, witnessed by a cycle inside the arc."""

    value: Fraction
    cycle: SturmianCycle


@dataclass(frozen=True)
class IrrationalRotation:
    """Rotation that no window of the allowed periods certifies: it lies in
    [value - uncertainty, value + uncertainty], the exact interval between
    the rotations of the two adjacent windows, rounded outward."""

    value: float
    uncertainty: float


def rotation_number(q: int, lam: float, max_denominator: int = 64
                    ) -> RationalRotation | IrrationalRotation:
    """Rotation number of the truncated map for the arc based at lam.

    x = lam mod 1, reduced exactly on lam's integer ratio (a float
    lam % 1.0 rounds for lam just below 0), then into [-1/q, 1 - 1/q) by n
    in {0, 1}, which adds n(q-1) to the rotation.  The base digit a is the
    largest one whose fixed-point window [a/(q-1) - 1/q, a/(q-1)] does not
    start right of x.  The windows of a + p/m, 0 < p/m < 1, lie between the
    fixed windows a and a+1 in the order of p/m, so a walk down the
    Stern-Brocot tree between 0/1 and 1/1 meets the one holding x, if any,
    before its denominator exceeds max_denominator (denominators grow along
    the walk, so it builds at most max_denominator cycles).  The walk is
    exact on integers: each node's cycle is cached with its window ends as
    integer ratios, compared with x by cross-multiplication, and Fractions
    are built only for the rotation returned.

    Returns RationalRotation when such a window holds x; otherwise an
    IrrationalRotation between the rotations of the last windows passed left
    and right of x, adjacent in the tree with denominators summing past
    max_denominator, so at most 1/max_denominator wide.
    """
    check_base(q)
    check_finite("lam", lam)
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    # x = xn / xd, xd > 0, from here on; Fraction takes any other rational
    xn, xd = (lam if isinstance(lam, float) else Fraction(lam)
              ).as_integer_ratio()
    xn %= xd
    n = int(q * xn >= (q - 1) * xd)
    xn -= n * xd
    shift = n * (q - 1)
    a = q - 2
    while a > 0 and q * (q - 1) * xn < (a * q - q + 1) * xd:
        a -= 1
    lp, lm, rp, rm = 0, 1, 1, 1  # the nodes passed left and right of x
    p, m = 0, 1  # x is not left of the fixed window a, so rp/rm stays above
    while True:
        cycle, lo_n, lo_d, hi_n, hi_d = _node(q, a, p, m)
        if xn * lo_d < lo_n * xd:
            rp, rm = p, m
        elif xn * hi_d > hi_n * xd:
            lp, lm = p, m
        else:
            return RationalRotation(a + shift + Fraction(p, m), cycle)
        if lm + rm > max_denominator:
            break
        p, m = lp + rp, lm + rm
    lo, hi = a + shift + Fraction(lp, lm), a + shift + Fraction(rp, rm)
    value = float((lo + hi) / 2)
    half = max(hi - Fraction(value), Fraction(value) - lo)
    uncertainty = float(half)
    if uncertainty < half:
        uncertainty = math.nextafter(uncertainty, math.inf)
    return IrrationalRotation(value, uncertainty)

