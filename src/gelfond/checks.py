"""Finite-grid confirmations of the inequality bounds behind the certificates.

Three families: the centering bound on where the balanced arc sits, two
negativity grids for composite bounds controlling points reached by 1/q
shifts of the arc, and a direct probe that the transfer-corrected potential
is constant on the certified arc and strictly smaller outside.  The probe's
transfer function psi is exact up to its truncation depth: each series term
integrates in closed form over the inverse-branch images of an arc.  The
centering bound is certified at each grid c by two balance signs, with the
certificates' err_bound; the other three are numerical confirmations with
explicit margins, not proofs.  The margins double as regression baselines.
The probe's sample margin and pass thresholds are the PROBE_* constants,
written into its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import certify
# find_balance_point is unused here: the benchmark tracer wraps it
from .certify import GelfondCertificate, find_balance_point
from .circle import _tau_pairs
from .errors import GuardError
# potential_derivative_array is unused here: the benchmark tracer wraps it
from .potential import (REMOVABLE_TOL, ZERO_TOL, PotentialParams, _f, _fp,
                        potential_derivative_array, reduce_phase)

BOUNDARY_OFFSET = 1e-6  # pull grids off the open-domain edges
PROBE_MARGIN = 0.01     # probe samples' distance from arc ends, singularities
PROBE_INSIDE_TOL = 1e-4      # the probe needs |F - beta| <= this on the arc
PROBE_OUTSIDE_MARGIN = 1e-3  # and F < beta - this off the arc


@dataclass(frozen=True)
class GridReport:
    """Worst value of a scanned quantity, with the point attaining it."""

    grid_spec: dict
    worst_value: float
    worst_point: tuple
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "grid_spec": self.grid_spec,
            "worst_value": self.worst_value,
            "worst_point": list(self.worst_point),
            "passed": self.passed,
            "details": self.details,
        }


def centering_bound_check(q: int, c_grid) -> GridReport:
    """Certify 3/(8q) < theta < 5/(8q) for theta = lam* + 1/q + c, q >= 3.

    theta measures where the balanced arc's right endpoint sits relative to
    the potential maximum; the bound says the arc is nearly centered.  The
    balance is strictly decreasing in lam and vanishes at lam*, so the bound
    holds exactly when the balance is certified + at lam = 3/(8q) - 1/q - c
    and - at lam = 5/(8q) - 1/q - c: two adaptive balance calls per c, no
    search for lam*.  worst_value is the least sign margin over the grid,
    value - err_bound at the first end and -value - err_bound at the second,
    so it is positive exactly when every sign is certified; worst_point is
    that c with its end's lambda.
    """
    if q < 3:
        raise ValueError("the centering bound applies to q >= 3")
    if len(c_grid) == 0:
        raise ValueError("the centering bound needs a nonempty c grid")
    lo = 3.0 / (8.0 * q)
    hi = 5.0 / (8.0 * q)
    worst = math.inf
    worst_point = None
    ends = []
    for c in c_grid:
        params = PotentialParams(q, reduce_phase(float(c)))
        lam_lo = lo - 1.0 / q - params.c
        lam_hi = hi - 1.0 / q - params.c
        # certify's binding, so the benchmark tracer counts these calls
        v_lo = certify.sturmian_balance(params, lam_lo)
        v_hi = certify.sturmian_balance(params, lam_hi)
        ends.append([{"lambda": lam, "value": v.value,
                      "err_bound": v.err_bound, "depth": v.depth}
                     for lam, v in ((lam_lo, v_lo), (lam_hi, v_hi))])
        for margin, lam in ((v_lo.value - v_lo.err_bound, lam_lo),
                            (-v_hi.value - v_hi.err_bound, lam_hi)):
            if margin < worst:
                worst = margin
                worst_point = (float(c), lam)
    return GridReport(
        grid_spec={"q": q, "c_grid": [float(c) for c in c_grid],
                   "bound": [lo, hi]},
        worst_value=worst,
        worst_point=worst_point,
        passed=worst > 0.0,
        details={"ends": ends},
    )


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn from math on every element of a 1-D x."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _f_map(q: int, x: np.ndarray) -> np.ndarray:
    """_f on every element of x, bit for bit _f, in one array pass.

    x - rint(x) is math.remainder(x, 1.0) exactly, up to the sign of a zero,
    which reaches the result only through abs.  sin and log are called
    through math, so the bits are libm's: NumPy's own kernels may round
    differently.
    """
    ur = x - np.rint(x)
    vr = q * ur
    vr -= np.rint(vr)
    out = np.full(x.shape, math.log(q))
    live = np.abs(ur) > REMOVABLE_TOL
    zero = np.abs(vr) <= q * ZERO_TOL
    out[live & zero] = -math.inf
    live &= ~zero
    ratio = _libm(math.sin, np.pi * vr[live])
    ratio /= _libm(math.sin, np.pi * ur[live])
    out[live] = _libm(math.log, np.abs(ratio))
    return out


def _shift_scan(q: int, t_steps: int, s_steps: int, s_span,
                quantity) -> GridReport:
    """Grid maximum over t in (3/8q, 5/8q) and s in linspace(*s_span(t));
    s_span takes the array of t and returns each row's two ends.

    quantity(t, s, f_t, fp_t) is evaluated once on the whole (t_steps,
    s_steps) grid, t and its f, f' as columns; each row's maximum then
    updates the running worst in t order.
    """
    off = BOUNDARY_OFFSET
    ts = np.linspace(3.0 / (8 * q) + off, 5.0 / (8 * q) - off, t_steps)
    s = np.linspace(*s_span(ts), s_steps, axis=1)
    t = ts[:, None]
    g = quantity(t, s, _f_map(q, t),
                 np.array([[_fp(q, v)] for v in ts.tolist()]))
    at = (np.arange(t_steps), np.argmax(g, axis=1))
    worst, worst_point = -math.inf, None
    for t_i, s_j, g_j in zip(ts.tolist(), s[at].tolist(), g[at].tolist()):
        if g_j > worst:
            worst, worst_point = g_j, (t_i, s_j)
    return GridReport({"q": q, "t_steps": t_steps, "s_steps": s_steps,
                       "offset": off}, worst, worst_point, worst < 0.0)


def inner_shift_negativity_grid(q: int, t_steps: int = 200,
                                s_steps: int = 200) -> GridReport:
    """Grid maximum of A(s) + B(t,s) on t in (3/8q, 5/8q), 0 < s <= 1/q - t.

    A(s) = log(sin(pi s) / sin(pi (1/q + s))),
    B(t,s) = log q - f(t) - f'(t) (1/q - t - s)/(q-1), f the base potential.
    Negativity bounds the shifted points whose base point lies inside the arc.
    """
    if q < 3:
        raise ValueError("the inner-shift grid applies to q >= 3")
    one_q, log_q = 1.0 / q, math.log(q)
    return _shift_scan(
        q, t_steps, s_steps, lambda t: (BOUNDARY_OFFSET, one_q - t),
        lambda t, s, f_t, fp_t: (
            np.log(np.sin(np.pi * s) / np.sin(np.pi * (one_q + s)))
            + (log_q - f_t - fp_t * (one_q - t - s) / (q - 1))))


def outer_shift_negativity_grid(q: int, t_steps: int = 200,
                                s_steps: int = 200) -> GridReport:
    """Grid maximum of U(s) + V(t,s) on t in (3/8q, 5/8q), t <= s < 1/q.

    U(s) = log(sin(pi (1/q - s)) / sin(pi (1/q + s))),
    V(t,s) = log q - f(t) + f(1/q - t - (s-t)/(q-1)) - f(1/q - t)
             - f'(t) (s-t)/(q-1).
    Negativity bounds the shifted points whose base point lies past the arc.
    """
    if q < 4:
        raise ValueError("the outer-shift grid applies to q >= 4")
    one_q, log_q = 1.0 / q, math.log(q)
    return _shift_scan(
        q, t_steps, s_steps, lambda t: (t, one_q - BOUNDARY_OFFSET),
        lambda t, s, f_t, fp_t: (
            np.log(np.sin(np.pi * (one_q - s)) / np.sin(np.pi * (one_q + s)))
            + (log_q - f_t + _f_map(q, one_q - t - (s - t) / (q - 1))
               - _f_map(q, one_q - t) - fp_t * (s - t) / (q - 1))))


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


def sturmian_condition_probe(params: PotentialParams,
                             certificate: GelfondCertificate,
                             samples: int = 50, depth: int = 30) -> GridReport:
    """Probe F = f_c + psi - psi o T against beta on and off the arc.

    psi differences are exact integrals of the depth-truncated transfer
    series from the arc base (psi itself is only defined up to a constant).
    F should be constant (= beta) on the arc and strictly below beta outside;
    samples keep PROBE_MARGIN away from the arc endpoints and from the
    potential singularities.
    """
    if params != certificate.params:
        raise ValueError(f"params {params} differ from {certificate.params}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    q, c = params.q, params.c
    lam_mod = certificate.lambda_star % 1.0
    beta = certificate.beta
    one_q = 1.0 / q

    singulars = [(-c + k / q) % 1.0 for k in range(1, q)]
    inside_x = [(lam_mod + float(t)) % 1.0
                for t in np.linspace(PROBE_MARGIN, one_q - PROBE_MARGIN,
                                     samples)]
    outside_x = []
    for t in np.linspace(PROBE_MARGIN, 1.0 - one_q - PROBE_MARGIN, samples):
        x = (lam_mod + one_q + float(t)) % 1.0
        if any(abs((x - s + 0.5) % 1.0 - 0.5) < PROBE_MARGIN
               for s in singulars):
            continue
        outside_x.append(x)
    if not inside_x:
        raise GuardError("no interior samples survive the boundary margin")

    # one cumulative sweep covers every psi difference needed: arcs of the
    # samples and of their forward images
    arcs = {(y - lam_mod) % 1.0 for x in inside_x + outside_x
            for y in (x, (q * x) % 1.0)}
    cum = _psi_differences(q, c, lam_mod, arcs, depth)

    def big_f(x_mod: float) -> float:
        arc = (x_mod - lam_mod) % 1.0
        arc_t = ((q * x_mod) % 1.0 - lam_mod) % 1.0
        return _f(q, x_mod + c) + cum[arc] - cum[arc_t]

    inside_resid, inside_worst = 0.0, None
    for x in inside_x:
        r = abs(big_f(x) - beta)
        if r > inside_resid:
            inside_resid = r
            inside_worst = x

    outside_worst, outside_point = -math.inf, None
    for x in outside_x:
        d = big_f(x) - beta
        if d > outside_worst:
            outside_worst = d
            outside_point = x
    passed = (inside_resid <= PROBE_INSIDE_TOL
              and outside_worst < -PROBE_OUTSIDE_MARGIN)
    return GridReport(
        grid_spec={"q": q, "c": c, "samples": samples, "depth": depth,
                   "boundary_margin": PROBE_MARGIN},
        worst_value=outside_worst,
        worst_point=(outside_point,),
        passed=passed,
        details={"inside_residual": inside_resid,
                 "inside_worst_x": inside_worst,
                 "inside_tol": PROBE_INSIDE_TOL,
                 "outside_margin": PROBE_OUTSIDE_MARGIN},
    )
