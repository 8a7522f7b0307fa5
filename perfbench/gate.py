"""Output gate: every answer the benchmark times is checked here.

Each check returns None when the output is right and a one-line reason when
it is not; a reason makes the item count as failed.  The beta replay works
in 40-digit mpmath on the exact cycle points, so it shares no floating-point
code with the package's potential.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
import os
from fractions import Fraction

BETA_TOL = 1e-12


def replay_beta(q: int, c: float, points) -> float:
    """Mean of log|sin(pi q u) / sin(pi u)| over u = s + c, in mpmath."""
    import mpmath  # imported on first use, so it is not part of set-up time

    with mpmath.workdps(40):
        cc = mpmath.mpf(c)
        total = mpmath.mpf(0)
        for s in points:
            u = mpmath.mpf(s.numerator) / s.denominator + cc
            total += mpmath.log(abs(mpmath.sin(mpmath.pi * q * u)
                                    / mpmath.sin(mpmath.pi * u)))
        return float(total / len(points))


def check_certificate(cert) -> str | None:
    q, c = cert.params.q, cert.params.c
    if not cert.v1.value > cert.v1.err_bound:
        return f"v1 sign not certified: {cert.v1}"
    if not cert.v2.value < -cert.v2.err_bound:
        return f"v2 sign not certified: {cert.v2}"
    if not cert.lambda1 < cert.lambda_star < cert.lambda2:
        return (f"lambda_star {cert.lambda_star!r} outside "
                f"[{cert.lambda1!r}, {cert.lambda2!r}]")
    ref = replay_beta(q, c, cert.cycle.points)
    if abs(cert.beta - ref) > BETA_TOL:
        return f"beta {cert.beta!r} differs from the 40-digit replay {ref!r}"
    if cert.gamma != cert.beta / math.log(q):
        return f"gamma {cert.gamma!r} != beta / log q"
    return None


def check_mirror(a, b) -> str | None:
    """(c, 1-c) must give the same period and beta (or both no certificate)."""
    a_ok = hasattr(a, "cycle")
    b_ok = hasattr(b, "cycle")
    if a_ok != b_ok:
        return (f"mirror pair c={a.params.c!r} / {b.params.c!r}: one side "
                f"certified, the other not")
    if not a_ok:
        return None
    if a.cycle.period != b.cycle.period:
        return (f"mirror pair c={a.params.c!r}: periods {a.cycle.period} "
                f"vs {b.cycle.period}")
    if abs(a.beta - b.beta) > BETA_TOL:
        return f"mirror pair c={a.params.c!r}: beta {a.beta!r} vs {b.beta!r}"
    return None


def load_validity_baseline(root: str) -> dict:
    """VALIDITY_BASELINE from tests/reference_tables.py, keyed by
    (period, rotation)."""
    path = os.path.join(root, "tests", "reference_tables.py")
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(row[0], row[1]): row for row in mod.VALIDITY_BASELINE}


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def check_validity_row(baseline: dict, period: int, rotation: Fraction,
                       window_lo: Fraction, window_hi: Fraction,
                       c_lo: float, c_hi: float) -> str | None:
    """Row against the frozen baseline: exact window, endpoints at 12 digits."""
    row = baseline.get((period, str(rotation)))
    if row is None:
        return f"no baseline row for period {period} rotation {rotation}"
    _, _, b_lo, b_hi, b_clo, b_chi = row
    if (_frac(window_lo), _frac(window_hi)) != (b_lo, b_hi):
        return f"window {window_lo}..{window_hi} != baseline {b_lo}..{b_hi}"
    for got, want in ((c_lo, b_clo), (c_hi, b_chi)):
        if f"{got:.12f}" != f"{want:.12f}":
            return (f"period {period} rotation {rotation}: endpoint {got!r} "
                    f"!= baseline {want!r} at 12 digits")
    return None


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _csv(header: list, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def validity_csv(rows) -> bytes:
    """Bytes the validity command must write for rows of
    (cycle, c_lo, c_hi)."""
    return _csv(["period", "rotation", "window_lo", "window_hi", "c_lo",
                 "c_hi", "status"],
                [[cyc.period, _frac(cyc.rotation),
                  _frac(cyc.s_max - Fraction(1, cyc.q)), _frac(cyc.s_min),
                  _fmt(c_lo), _fmt(c_hi), "OK"] for cyc, c_lo, c_hi in rows])


def table2_csv(results) -> bytes:
    """Bytes the table2 command must write for (c, result) pairs, where c
    was written to the c-list as repr(c) and result is a certificate, a
    nonperiodic report or the exception gelfond_exponent raised."""
    rows = []
    for c, res in results:
        label = str(Fraction(repr(c)))
        if isinstance(res, Exception):
            rows.append([label, "", "", "", f"ERROR: {res}"])
        elif hasattr(res, "cycle"):
            rows.append([label, _fmt(res.beta), _fmt(res.gamma),
                         res.cycle.period, "OK"])
        else:
            rows.append([label, "", "", "", "SKIPPED"])
    return _csv(["c", "beta", "gamma", "period", "status"], rows)
