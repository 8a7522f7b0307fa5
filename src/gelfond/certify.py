"""Certified computation of the Gelfond exponent gamma(q;c).

Pipeline: locate the unique zero lam* of the balance integral inside the
admissible window W_c = (-1/q - c, -c); take the rotation number at lam*
(sturmian.rotation_number, one exact Stern-Brocot walk) and accept its
witness cycle when its period is at most max_period, lam* lies strictly
inside its arc-base window intersected with W_c, and the balance integral
has a certified sign change at the two ends of that intersection; then
evaluate

    beta(c)  = mean of the potential over the exact cycle points,
    gamma(c) = beta(c) / log q.

The certificate carries the signed balance values with their rigorous error
bounds, so the cycle identification is machine-checkable.  Validity
intervals in c (one per cycle) come from root-finding the balance integral
in c at the two window endpoints; c -> balance is strictly decreasing, which
gives clean brackets.  The lambda zero and the c-roots share one root
routine, _root: a sign bisection on certified signs, to a fixed width
(DEFAULT_LAMBDA_TOL in lambda, DEFAULT_VALIDITY_TOL in c), replayed after a
false-position search that settles the signs far from the root, so that
those points cost no call; its docstring gives the argument that the
answer is the bisection's, bit for bit.  From 11 to 13 calls per c-root
and 12 to 14 per lambda zero instead of 36 to 41 (medians at q = 2 to 8).

The amplitude is even, so the balance B has B_{1-c}(-1/q - lambda) =
-B_c(lambda).  Each lambda zero keeps its settled pair (_root) in a dict,
and the zero at 1 - c takes its mirror images as settled points
(find_balance_point), rounded outward from their exact integer ratios:
its replay calls only the bisection's points between them, 1 to 2 calls
instead of 12 to 14 (medians at q = 2 to 8).
exponent_table computes each c's mirror right after it, in one process.

All lambda and c arithmetic runs in lifted coordinates where W_c is a real
interval; reduction mod 1 happens only at I/O boundaries.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .circle import (DEFAULT_TARGET_ERR, WINDOW_GUARD, BalanceValue,
                     sturmian_balance)
from .errors import DomainError, GuardError
from .potential import PotentialParams, _f, check_base, reduce_phase
from .sturmian import (IrrationalRotation, RationalRotation, SturmianCycle,
                       build_cycle, enumerate_cycles, lambda_window,
                       rotation_number)

DEFAULT_MAX_PERIOD = 13
DEFAULT_LAMBDA_TOL = 1e-12    # width of the certificate's lambda bracket
DEFAULT_VALIDITY_TOL = 1e-11  # width of each validity endpoint's c bracket
SETTLED_MARGIN = 1e-12  # value - 2 * err_bound past which a side is settled
SETTLE_AIM = 3e-11      # |balance| at which _root's search steps off the root
SETTLE_CALLS = 20       # cap on that search's calls past its opening
BRACKETS_SIZE = 1024    # the settled lambda pairs kept, the oldest dropped
assert SETTLED_MARGIN >= 10 * DEFAULT_TARGET_ERR

# _key(q, c) -> (c, lo, hi): the phase and the settled pair of its lambda
# root, read by the root at the mirror phase 1 - c
_brackets: dict[tuple[int, int], tuple[float, float, float]] = {}


@dataclass(frozen=True, slots=True)
class GelfondCertificate:
    """Certified answer for one (q, c): cycle, sign bracket, beta, gamma."""

    params: PotentialParams
    cycle: SturmianCycle
    lambda_star: float
    lambda1: float
    lambda2: float
    v1: BalanceValue
    v2: BalanceValue
    beta: float
    gamma: float

    def to_json_dict(self) -> dict:
        win = lambda_window(self.cycle)
        return {
            "schema_version": 1,
            "q": self.params.q,
            "c": self.params.c,
            "period": self.cycle.period,
            "rotation": str(self.cycle.rotation),
            "base_digit": self.cycle.base_digit,
            "cycle_points": [str(p) for p in self.cycle.points],
            "window_lo": str(win.lo),
            "window_hi": str(win.hi),
            "lambda_star": self.lambda_star,
            "lambda_star_mod1": self.lambda_star % 1.0,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "v1": {"value": self.v1.value, "err_bound": self.v1.err_bound,
                   "depth": self.v1.depth},
            "v2": {"value": self.v2.value, "err_bound": self.v2.err_bound,
                   "depth": self.v2.depth},
            "beta": self.beta,
            "gamma": self.gamma,
        }


@dataclass(frozen=True, slots=True)
class NonPeriodicReport:
    """Honest failure: no cycle of the allowed periods certifies this c;
    rotation is the rotation number at lambda_star."""

    params: PotentialParams
    lambda_star: float
    rotation: RationalRotation | IrrationalRotation
    reason: str

    def to_json_dict(self) -> dict:
        rot = self.rotation
        rot_json = (str(rot.value) if isinstance(rot, RationalRotation) else
                    {"estimate": rot.value, "uncertainty": rot.uncertainty})
        return {
            "schema_version": 1,
            "q": self.params.q,
            "c": self.params.c,
            "status": "nonperiodic",
            "lambda_star": self.lambda_star,
            "lambda_star_mod1": self.lambda_star % 1.0,
            "rotation": rot_json,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ValidityInterval:
    """c-range on which a fixed cycle is the certified maximizer."""

    cycle: SturmianCycle
    c_lo: float
    c_hi: float


def _guarded_window(lo: float, hi: float) -> tuple[float, float]:
    """An admissible window (lo, hi) pulled in at both ends by twice the
    balance guard, so every point of it passes sturmian_balance's check."""
    return lo + 2.0 * WINDOW_GUARD, hi - 2.0 * WINDOW_GUARD


def _certified_sign(v: BalanceValue) -> int:
    if v.value > v.err_bound:
        return 1
    if v.value < -v.err_bound:
        return -1
    return 0


def _key(q: int, c: float) -> tuple[int, int]:
    """c's key in _brackets; c and 1.0 - (1.0 - c) almost always share it."""
    return q, round(c * 2**40)


def _outward(k: int, q: int, x: float, side: int) -> float:
    """The float nearest k - 1/q - x on its side (-1 below, 1 above), or
    k - 1/q - x itself, from the integer ratio n / d of it."""
    n, d = x.as_integer_ratio()
    n, d = (k * q - 1) * d - q * n, q * d
    yn, yd = (y := n / d).as_integer_ratio()  # correctly rounded: one step
    return math.nextafter(y, side * math.inf) if (
        yn * d - n * yd) * side < 0 else y


def find_balance_point(params: PotentialParams) -> float:
    """The lambda in W_c where the balance integral vanishes (lifted): the
    root of the balance in lambda on the guarded W_c, given as settled
    points the mirror images of the settled pair (lo, hi) kept at a phase
    s with the key of 1 - c.  B is 1-periodic in lambda and decreases
    strictly in c, so at -1/q - hi, shifted into W_c and rounded down,
    B_c >= B_{1-s} = -B_s(hi) >= SETTLED_MARGIN when c <= 1 - s; likewise
    at -1/q - lo, rounded up, when c >= 1 - s.  An image the phases do not
    prove is called first."""
    q, c = params.q, params.c
    glo, ghi = _guarded_window(-1.0 / q - c, -c)
    key, mirror = _key(q, c), _key(q, 1.0 - c)
    kept = _brackets.get(mirror) if mirror != key else None
    lo, hi, first = -math.inf, math.inf, ()
    if kept is not None:
        s, plus, minus = kept
        # lambda -> k - 1/q - lambda maps W_s onto W_c when c = 1 - s
        k = round(0.5 * (glo + ghi + plus + minus) + 1.0 / q)
        lo, hi = _outward(k, q, minus, -1), _outward(k, q, plus, 1)
        (cn, cd), (sn, sd) = c.as_integer_ratio(), s.as_integer_ratio()
        if (gap := cn * sd + sn * cd - cd * sd) < 0:  # c + s - 1, times cd sd
            first, hi = (hi,), math.inf
        elif gap > 0:
            first, lo = (lo,), -math.inf
    # the binding is read at each call, so a patched one sees every call
    root, (lo, hi) = _root(lambda lam: sturmian_balance(params, lam),
                           glo, ghi, DEFAULT_LAMBDA_TOL,
                           f"lambda for q={q}, c={c!r}", lo, hi, first)
    if -math.inf < lo and hi < math.inf:
        _brackets[key] = c, lo, hi
        if len(_brackets) > BRACKETS_SIZE:
            del _brackets[next(iter(_brackets))]
    return root


def orbit_potential_mean(params: PotentialParams, cycle: SturmianCycle) -> float:
    """Mean of the potential over the exact cycle points (this is beta)."""
    if cycle.q != params.q:
        raise ValueError(f"cycle has base {cycle.q}, not q={params.q}")
    total = math.fsum(_f(params.q, float(s) + params.c) for s in cycle.points)
    return total / cycle.period


def gelfond_exponent(params: PotentialParams,
                     max_period: int = DEFAULT_MAX_PERIOD):
    """Certified beta(c) and gamma(c), or a NonPeriodicReport.

    The period-1 fixed points participate like any other cycle, so c = 0
    resolves to beta = log q, gamma = 1 through the same code path.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    q, c = params.q, params.c
    lam_star = find_balance_point(params)
    rot = rotation_number(q, lam_star, max(64, 4 * max_period))
    if not (isinstance(rot, RationalRotation)
            and rot.cycle.period <= max_period):
        return NonPeriodicReport(
            params, lam_star, rot,
            f"no cycle of period <= {max_period} has a window containing the "
            f"balance-zero bracket",
        )
    # the exact window holds lam* less an integer, which k recovers
    win = lambda_window(rot.cycle)
    lo, hi = float(win.lo), float(win.hi)
    k = round(lam_star - 0.5 * (lo + hi))
    glo, ghi = _guarded_window(-1.0 / q - c, -c)
    l1, l2 = max(lo + k, glo), min(hi + k, ghi)
    v1 = sturmian_balance(params, l1)
    v2 = sturmian_balance(params, l2)
    if not (l1 < lam_star < l2
            and _certified_sign(v1) > 0 > _certified_sign(v2)):
        return NonPeriodicReport(
            params, lam_star, rot,
            "balance signs at the window endpoints could not be certified "
            "beyond their error bounds",
        )
    beta = orbit_potential_mean(params, rot.cycle)
    gamma = beta / math.log(q)
    return GelfondCertificate(params, rot.cycle, lam_star, l1, l2, v1, v2,
                              beta, gamma)


def _on_path(a: float, b: float, tol: float, r: float, x: float) -> float:
    """The point nearest x, on x's side of r, of _root's bisection path from
    [a, b] toward r: its ends and the midpoints it takes halving toward r
    (the earlier on a tie).  For r in [a, b] the points on x's side approach
    r monotonically, so the walk stops at the first one at or past x, and
    the nearest is that point or the one before it."""
    while b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        if mid < r:
            if x <= mid:
                return a if abs(a - x) <= abs(mid - x) else mid
            a = mid
        else:
            if r < mid <= x:
                return b if abs(b - x) <= abs(mid - x) else mid
            if mid == r < x:  # every later midpoint lies left of r
                return b
            b = mid
    if x < r and a < r:
        return a
    if x > r and b > r:
        return b
    raise ValueError(f"no point of the path lies on x={x!r}'s side of r")


def _root(balance_at, a: float, b: float, tol: float, what: str,
          lo: float = -math.inf, hi: float = math.inf,
          first: tuple[float, ...] = ()) -> tuple[float, tuple[float, float]]:
    """The root of the decreasing balance_at in [a, b]: the midpoint of the
    sign bisection's bracket, each point called at most once; and the
    settled pair (lo, hi) below that it ends with.

    The bisection certifies balance_at + at a and - at b (GuardError, naming
    what, when either sign is uncertified), then halves [a, b], moving an
    end only on a certified sign at the midpoint, until b - a <= tol, no
    float lies strictly between a and b, or the midpoint's sign is
    uncertain (that midpoint is then the bracket's midpoint).

    The settled points lo and hi are the nearest to the root, on its + and
    on its - side, of the given lo and hi (default -inf and inf) and the
    points called where +-value - 2 * err_bound >= SETTLED_MARGIN, so that
    B >= SETTLED_MARGIN at lo and B <= -SETTLED_MARGIN at hi (below).  The
    points of first are called first.  Until lo and hi are both set, a
    search calls the bisection's midpoints toward the root until a
    certified + and a certified - bracket it, then runs false position
    (Anderson-Bjorck weights) from that bracket.  Once a certified
    value is within 30 SETTLE_AIM of 0, it steps off the root estimate to
    where the balance is about +-SETTLE_AIM, on the side whose settled
    point is farther, and moves that step to the nearest point on the same
    side of the bisection's path toward the estimate (_on_path), so that
    its deep calls near the root are the bisection's own.  It stops on an
    uncertain sign, when hi - lo <= tol, on a step outside (lo, hi) or to a
    point already called, or after SETTLE_CALLS calls past the opening.
    The bisection then runs on the same calls, taking an end or midpoint
    at or left of lo as + and one at or right of hi as -, without a call.

    Why that is the bracket of the bisection that calls every point, bit
    for bit, when balance_at(x) is the adaptive sturmian_balance in
    x = lambda at a fixed c, or in x = c at a fixed lambda:
    - The true balance B is strictly decreasing in x: in lambda, as the
      centering bound (checks.centering_bound_check) uses, and in c.
    - An adaptive call certifies B's sign whenever |B| > 2.31
      DEFAULT_TARGET_ERR: a 50-digit replay put its float error at up to
      31% of err_bound, so |value - B| <= 1.31 err_bound.  If the call
      stops on |running| > 2 err_bound, |value| exceeds err_bound; if it
      stops on err_bound <= DEFAULT_TARGET_ERR, |value| >= |B| - 1.31e-13
      > err_bound.  Either way the sign is B's.
    - At lo, B >= SETTLED_MARGIN, which is at least 10 DEFAULT_TARGET_ERR:
      at a point called, B >= value - 1.31 err_bound >= SETTLED_MARGIN; a
      given lo comes with its own proof (find_balance_point).  So
      B > 2.31 DEFAULT_TARGET_ERR at every x <= lo, and the call the
      bisection would make there, at a midpoint or at the end a, is
      certified +.  Likewise - at every x >= hi.
    So every sign taken without a call is the one the call would certify:
    the signs, the bracket and its midpoint are the bisection's, whatever
    points the search calls.  A midpoint whose sign is uncertain lies
    strictly inside (lo, hi), where it is still called; so does an end
    with no settled point between it and the root, so GuardError is raised
    where the bisection raises it.
    """
    calls: dict[float, BalanceValue] = {}

    def call(x):
        nonlocal lo, hi
        v = calls.get(x)
        if v is None:
            v = calls[x] = balance_at(x)
            if v.value - 2.0 * v.err_bound >= SETTLED_MARGIN:
                lo = max(lo, x)
            elif -v.value - 2.0 * v.err_bound >= SETTLED_MARGIN:
                hi = min(hi, x)
        return v

    for x in first:
        call(x)
    u, w, ya, yb = a, b, None, None  # the certified points nearest the root
    while (ya is None or yb is None) and (lo == -math.inf or hi == math.inf):
        x = 0.5 * (u + w)
        if not (w - u > tol and u < x < w):
            break
        v = call(x)
        if (sign := _certified_sign(v)) == 0:
            break
        if sign > 0:
            u, ya = x, v.value
        else:
            w, yb = x, v.value
    if ya is not None and yb is not None:  # a certified + and - bracket it
        wa, wb = ya, yb  # their false-position weights
        side = 0         # the sign of the last certified point
        for _ in range(SETTLE_CALLS):
            if hi - lo <= tol:
                break
            x = u + (w - u) * (wa / (wa - wb))
            # any factor from 3 to 100 gives the same calls within 1% at q = 2
            if min(ya, -yb) <= 30.0 * SETTLE_AIM:
                step = SETTLE_AIM * (w - u) / (wa - wb)
                x = _on_path(a, b, tol, x,
                             x - step if x - lo >= hi - x else x + step)
            if not lo < x < hi or x in calls:
                break
            v = call(x)
            if (sign := _certified_sign(v)) == 0:
                break
            if u < x < w:
                # a second step to the same side scales the other end's weight
                y = v.value
                if sign > 0:
                    if side > 0:
                        m = 1.0 - y / ya
                        wb *= m if m > 0.0 else 0.5
                    u, ya, wa = x, y, y
                else:
                    if side < 0:
                        m = 1.0 - y / yb
                        wa *= m if m > 0.0 else 0.5
                    w, yb, wb = x, y, y
                side = sign

    if not ((a <= lo or a < hi and _certified_sign(call(a)) > 0) and lo < b
            and (b >= hi or _certified_sign(call(b)) < 0)):
        raise GuardError(f"no certified sign bracket in {what}")
    while b - a > tol and a < (x := 0.5 * (a + b)) < b:
        if x <= lo or x < hi and (sign := _certified_sign(call(x))) > 0:
            a = x
        elif x >= hi or sign < 0:
            b = x
        else:  # an uncertain sign
            break
    return 0.5 * (a + b), (lo, hi)


def _c_root(q: int, lam_e: float) -> float:
    """Solve balance = 0 in c at a fixed lambda."""
    return _root(
        lambda c: sturmian_balance(PotentialParams(q, c % 1.0), lam_e),
        *_guarded_window(-lam_e - 1.0 / q, -lam_e), DEFAULT_VALIDITY_TOL,
        f"c for lambda={lam_e!r}")[0]


def validity_interval(q: int, cycle: SturmianCycle) -> ValidityInterval:
    """The c-interval on which this cycle is the certified maximizer.

    The window's upper endpoint yields the smaller c; the map from window
    endpoint to c-endpoint is orientation-reversing, which is asserted
    rather than assumed.
    """
    check_base(q)
    if cycle.q != q:
        raise ValueError(f"cycle has base {cycle.q}, not q={q}")
    win = lambda_window(cycle)
    r_from_hi = _c_root(q, float(win.hi))
    r_from_lo = _c_root(q, float(win.lo))
    if not r_from_hi < r_from_lo:
        raise RuntimeError(
            f"endpoint-to-c assignment unexpectedly ordered: "
            f"{r_from_hi} >= {r_from_lo}"
        )
    shift = -math.floor(r_from_hi)
    return ValidityInterval(cycle, r_from_hi + shift, r_from_lo + shift)


@functools.cache
def period2_validity_q2() -> tuple[float, float]:
    """Validity interval (c_lo, c_hi) of the q=2 period-2 cycle {1/3, 2/3}:
    the c-range where the balance integral vanishes inside that cycle's
    window, computed by validity_interval on first use."""
    vi = validity_interval(2, build_cycle(2, 0, Fraction(1, 2)))
    return vi.c_lo, vi.c_hi


def beta_period2_closed_form(c: float) -> float:
    """Closed form of beta on the q=2 period-2 validity interval."""
    lo, hi = period2_validity_q2()
    if not (lo - 1e-12 <= c <= hi + 1e-12):
        raise DomainError(
            f"c={c!r} outside the period-2 validity interval [{lo}, {hi}]"
        )
    prod = math.cos(math.pi * (1.0 / 3.0 + c)) * math.cos(math.pi * (2.0 / 3.0 + c))
    return math.log(2.0) + 0.5 * math.log(abs(prod))


# The c values of the reference beta/gamma table (q = 2).
DEFAULT_TABLE2_FRACTIONS: tuple[Fraction, ...] = tuple(
    Fraction(n, d) for n, d in [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 7), (3, 7), (3, 8),
        (2, 9), (4, 9), (3, 10), (2, 11), (3, 11), (4, 11), (5, 11), (5, 12),
        (3, 13), (4, 13), (5, 13), (6, 13), (3, 14), (5, 14), (7, 15),
        (7, 16), (3, 17), (4, 17), (5, 17), (6, 17), (7, 17), (8, 17),
        (5, 18), (7, 18), (4, 19), (5, 19), (6, 19), (7, 19), (8, 19),
        (9, 19), (7, 20), (9, 20), (4, 21), (5, 21), (8, 21), (5, 22),
        (7, 22), (9, 22), (5, 23), (6, 23), (7, 23), (8, 23), (9, 23),
        (10, 23), (11, 23), (5, 24), (7, 24), (11, 24), (6, 25), (7, 25),
        (8, 25), (9, 25), (11, 25), (12, 25),
    ]
)


def _answer(fn, *args):
    """fn(*args), or the exception it raised: one row's answer."""
    try:
        return fn(*args)
    except Exception as exc:  # per-row errors are collected, not fatal
        return exc


# The row functions name validity_interval and gelfond_exponent at call time,
# so a patched binding sees every row's call, also in a worker process.
def _validity_row(args):
    q, cycle = args
    return cycle, _answer(validity_interval, q, cycle)


def _row_and_mirror(args):
    q, c_values, max_period = args
    return [(cv, _answer(gelfond_exponent,
                         PotentialParams(q, reduce_phase(float(cv))),
                         max_period)) for cv in c_values]


def _pmap(fn, items, threads):
    """fn over items, in worker processes when more than one is useful: at
    most one per item and one per core (the pool forks all of them up
    front)."""
    workers = min(threads or 1, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    # imported here, so that a run in one process never loads the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def validity_table(q: int = 2, max_period: int = DEFAULT_MAX_PERIOD, *,
                   threads: int | None = None, period: int | None = None
                   ) -> list[tuple[SturmianCycle,
                                   ValidityInterval | Exception]]:
    """(cycle, validity interval or the exception it raised) for each cycle
    of period 2..max_period, or only of the given period."""
    check_base(q)
    if max_period < 2:
        raise ValueError("max_period must be >= 2")
    if period is not None and not 2 <= period <= max_period:
        raise ValueError(f"period must be in 2..{max_period}, got {period}")
    cycles = [cy for cy in enumerate_cycles(q, max_period)
              if cy.period >= 2 and (period is None or cy.period == period)]
    return _pmap(_validity_row, [(q, cy) for cy in cycles], threads)


def exponent_table(q: int = 2, max_period: int = DEFAULT_MAX_PERIOD, *,
                   c_list, threads: int | None = None
                   ) -> list[tuple[Fraction | float, GelfondCertificate
                                   | NonPeriodicReport | Exception]]:
    """(c, gelfond_exponent's answer or the exception it raised) for each c
    of c_list, in its order: the reference list makes table 2, a grid of c
    the beta curve."""
    check_base(q)
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    # each c and its mirrors, in list order in one task, so that a mirror
    # reads the settled pair the first leaves in _brackets
    c_list, tasks = list(c_list), {}
    for i, cv in enumerate(c_list):
        c = reduce_phase(float(cv))
        tasks.setdefault(min(_key(q, c), _key(q, 1.0 - c)), []).append(i)
    answers = [None] * len(c_list)
    for t, rows in zip(tasks.values(), _pmap(
            _row_and_mirror, [(q, [c_list[i] for i in t], max_period)
                              for t in tasks.values()], threads)):
        for i, row in zip(t, rows):
            answers[i] = row
    return answers
