"""Circle interval dynamics and the certified balance integral.

For a base arc C' = [lam, lam+1/q) the inverse branch tau maps the whole
circle affinely (slope 1/q) into C', splitting at the single discontinuity
q*lam mod 1.  Iterating tau on C' produces the exit sets A_n (total length
q^-n) whose indicator sum is the first-exit time profile.  The balance
integral

    balance(lam) = sum_n  integral over A_n of f_c'

is evaluated exactly per truncation level as a telescoping sum of potential
values at interval endpoints, with a rigorous tail bound from the monotone
derivative on C'.  Its zero in lam certifies the maximizing arc.  Depth grows
until the sign is certified or the bound meets DEFAULT_TARGET_ERR.  The exit
levels depend on q and lam mod 1 only, and the last lam's are cached with a
table of their distinct endpoints; every call reads that table, building
the entries it lacks, and evaluates f_c once per endpoint.  The condition
probe's transfer function psi telescopes the same way over the tau images
of its sample arcs.  Arcs are (lo, len) pairs, read by no other module.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import DepthError, GuardError
from .potential import (PotentialParams, _f, _fp, check_base, check_finite,
                        reduce_phase)

WINDOW_GUARD = 1e-6       # least distance of lambda from the window's ends
DEPTH_CAP = 400           # truncation-depth cap
DEFAULT_TARGET_ERR = 1e-13


def _tau_pairs(pairs, q: int, lam_mod: float):
    """Apply the inverse branch to (lo, len) pairs; returns every image.

    Each arc is lifted into [q*lam, q*lam+1) via t = (lo - q*lam) mod 1 and
    mapped affinely to [lam + t/q, ...); an arc straddling the lift cut
    splits into exactly two images.
    """
    qlam = (q * lam_mod) % 1.0
    out = []
    for lo, ln in pairs:
        t = (lo - qlam) % 1.0
        if t + ln <= 1.0:
            out.append(((lam_mod + t / q) % 1.0, ln / q))
        else:
            l1 = 1.0 - t
            out.append(((lam_mod + t / q) % 1.0, l1 / q))
            out.append((lam_mod % 1.0, (ln - l1) / q))
    return out


@functools.lru_cache(maxsize=1)
def _exit_levels(q: int, lam_mod: float):
    """Exit levels at one lambda and their endpoint table, shared by the
    balance calls there (the c-root bisection holds lambda fixed) and by
    exit_sets.  levels[n-1] is A_n's arcs as _tau_pairs returns them, with
    A_1 = the base arc; table[n-1] is (the endpoints lo + ln and lo that
    A_n adds to those of A_1..A_{n-1}, each A_n arc's (hi, lo) positions in
    the endpoints of A_1..A_n in first-seen order).  A balance call reads
    the table and builds the entries it lacks.  Both lists grow lazily by
    slice stores of whole entries that depend on nothing but the key, so a
    cache hit gives the same arcs as computing them afresh."""
    return [[(lam_mod, 1.0 / q)]], []


def exit_sets(q: int, lam: float,
              depth: int) -> list[list[tuple[float, float]]]:
    """Exit sets A_1..A_depth as (lo, len) arcs; A_1 is the base arc,
    A_{n+1} its tau image.  The arcs of one level are pairwise disjoint."""
    check_base(q)
    check_finite("lam", lam)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEPTH_CAP:
        raise DepthError(f"depth {depth} exceeds cap {DEPTH_CAP}")
    lam_mod = reduce_phase(lam)
    levels, _ = _exit_levels(q, lam_mod)
    for n in range(len(levels), depth):
        levels[n:n + 1] = [_tau_pairs(levels[n - 1], q, lam_mod)]
    return [list(pairs) for pairs in levels[:depth]]


def _endpoint_entry(arcs, index: dict[float, int]):
    """One level's endpoint-table entry: the endpoints lo + ln and lo of
    the arcs that index lacks, in first-seen order, and each arc's (hi, lo)
    positions; index gains the new endpoints at the next positions."""
    adds, pairs = [], []
    for lo, ln in arcs:
        hi = index.get(e := lo + ln)
        if hi is None:
            hi = index[e] = len(index)
            adds.append(e)
        i = index.get(lo)
        if i is None:
            i = index[lo] = len(index)
            adds.append(lo)
        pairs.append((hi, i))
    return adds, pairs


@dataclass(frozen=True, slots=True)
class BalanceValue:
    """Truncated balance integral with a rigorous tail bound.

    |value - exact| <= err_bound; err_bound shrinks at least geometrically
    (factor 1/q) in depth.
    """

    value: float
    err_bound: float
    depth: int


def sturmian_balance(params: PotentialParams, lam: float, *,
                     depth: int | None = None) -> BalanceValue:
    """Certified evaluation of the exit-weighted derivative integral.

    Each truncation level adds the exact integral of f_c' over A_n as a sum
    of potential differences at the arc endpoints, with f_c evaluated once
    per endpoint of _exit_levels' table; the tail after depth N is bounded
    by M * q^-N / (q-1) with M the larger endpoint |f_c'| on the base arc
    (f_c' is monotone there); every image arc is kept, so that tail is the
    whole bound.  Without `depth` the call stops at the first level N >= 3
    where the running sum exceeds twice the bound (a certified sign), or where
    the bound meets DEFAULT_TARGET_ERR: by depth 64 at q = 2, as the window
    guard keeps M below about 1e6.  A fixed `depth` integrates that many
    levels; its bound is the one an adaptive call stopping there reports.
    Past DEPTH_CAP, or once q^-N/(q-1) is subnormal, it raises DepthError.
    """
    q, c = params.q, params.c
    if depth is not None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > DEPTH_CAP:
            raise DepthError(f"depth {depth} exceeds cap {DEPTH_CAP}")
        if q ** -depth / (q - 1) < sys.float_info.min:
            raise DepthError(f"depth {depth} underflows the tail bound")
    one_q = 1.0 / q
    # r = lam + c must lie in the window (1-1/q, 1) mod 1 with WINDOW_GUARD
    # to spare at both ends; a lambda outside it has a negative gap
    r = (lam + c) % 1.0
    lo_gap = r - (1.0 - one_q)
    hi_gap = 1.0 - r
    if not (lo_gap >= WINDOW_GUARD and hi_gap >= WINDOW_GUARD):
        raise GuardError(
            f"lambda={lam!r} not {WINDOW_GUARD} inside the admissible window "
            f"for c={c!r} (gaps {lo_gap:.3e}, {hi_gap:.3e})"
        )
    m_edge = max(abs(_fp(q, r)), abs(_fp(q, r + one_q)))

    lam_mod = reduce_phase(lam)
    levels, table = _exit_levels(q, lam_mod)
    f = _f  # bound per call, so a patched circle._f still applies
    # f at the endpoint table's endpoints, fs[i] at the i-th
    fs: list[float] = []
    index: dict[float, int] = {}  # the table's endpoints of levels 1..known
    known = 0
    terms: list[float] = []
    running = 0.0
    comp = 0.0  # Kahan carry for the running sign check
    tail_mass = 1.0 / (q - 1)
    for n in range(1, (depth or DEPTH_CAP) + 1):
        if n > len(levels):
            # a slice store, not append: if another thread added level n
            # first, this rewrites it with the same value
            levels[n - 1:n] = [_tau_pairs(levels[n - 2], q, lam_mod)]
        if n > len(table):
            # index takes the endpoints of the entries read, not built,
            # here; then a slice store of the new entry, as for levels
            for adds, _ in table[known:n - 1]:
                for e in adds:
                    index[e] = len(index)
            table[n - 1:n] = [_endpoint_entry(levels[n - 1], index)]
            known = n
        adds, pairs = table[n - 1]
        for e in adds:
            fs.append(f(q, e + c))
        for hi, lo in pairs:
            t = fs[hi] - fs[lo]
            terms.append(t)
            y = t - comp
            s = running + y
            comp = (s - running) - y
            running = s
        tail_mass /= q
        err = m_edge * tail_mass
        if depth is None and (err <= DEFAULT_TARGET_ERR
                              or n >= 3 and abs(running) > 2.0 * err):
            break
    return BalanceValue(math.fsum(terms), err, n)


def _psi_differences(q: int, c: float, lam_mod: float, positions,
                     depth: int) -> dict:
    """psi(lam + p) - psi(lam) at each arc-length position p in [0, 1), in
    one sweep over the sorted positions; psi' is the transfer series
    sum_{n=1}^{depth} f_c'(tau^n y) / q^n.

    On each image arc of tau^n the map is affine with slope q^-n, so the
    n-th term integrates exactly to f_c(hi) - f_c(lo) there; _tau_pairs
    splits each arc at the cut, as for the balance.
    """
    cum, total, prev = {0.0: 0.0}, 0.0, 0.0
    for p in sorted(positions):
        pairs, terms = [((lam_mod + prev) % 1.0, p - prev)], []
        for _ in range(depth):
            pairs = _tau_pairs(pairs, q, lam_mod)
            terms.extend(_f(q, lo + ln + c) - _f(q, lo + c)
                         for lo, ln in pairs)
        total += math.fsum(terms)
        cum[p], prev = total, p
    return cum


def exit_time_profile(q: int, lam: float, depth: int,
                      grid_size: int) -> list[tuple[float, int]]:
    """Samples (x, e(x)) of the truncated first-exit time on a uniform grid.

    e(x) counts how many of A_1..A_depth contain x; it vanishes off the base
    arc.  Sample points use a fixed non-dyadic offset so they avoid the arc
    endpoints, where the half-open convention makes the value conventional.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    level_pairs = exit_sets(q, lam, depth)
    offset = 0.318309886  # 1/pi, keeps samples off dyadic/q-adic endpoints
    out = []
    for i in range(grid_size):
        x = (i + offset) / grid_size
        e = 0
        for pairs in level_pairs:
            for lo, ln in pairs:
                if (x - lo) % 1.0 < ln:
                    e += 1
                    break
        out.append((x, e))
    return out
