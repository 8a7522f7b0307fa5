"""Log-amplitude potential driving the maximization.

The central object is the 1-periodic amplitude

    amplitude(x) = |sin(pi*q*(x+c)) / sin(pi*(x+c))|

for an integer base q >= 2 and a phase parameter c in [0,1).  Its logarithm
(the potential) reaches log q at x = -c (mod 1), has q-1 logarithmic
singularities at x = -c + k/q (k not divisible by q), and is strictly concave
between adjacent singularities.  Everything downstream (balance integrals,
certificates, grids, sup-norm fits) evaluates through this module, so that
f_c(x) = f_0(x+c) holds bit for bit; potential_array, through NumPy's sin and
log, is the one array evaluation, for the fit and the grids alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SingularityError

# The array functions import NumPy on first use, so the scalar certificate
# path never loads it.
if TYPE_CHECKING:
    import numpy as np

# Circle-distance thresholds, in circle units.
REMOVABLE_TOL = 1e-12     # x+c this close to an integer counts as the maximum
ZERO_TOL = 1e-12          # x+c this close to a zero of the amplitude counts as 0
SINGULARITY_GUARD = 1e-9  # f' is refused this close to a singularity
_SERIES_CUTOFF = 1e-4     # below this |x+c mod 1| the derivative formulas cancel


def check_base(q) -> None:
    """Reject a base that is not an integer >= 2."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")


def check_finite(name: str, x) -> None:
    """Reject with a ValueError naming the argument a NaN, an infinity, or
    an int beyond the float range."""
    try:
        finite = math.isfinite(x)
    except OverflowError:  # math.isfinite converts an int to float
        raise ValueError(f"{name} is beyond the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True, slots=True)
class PotentialParams:
    """Base q >= 2 and phase c in [0,1)."""

    q: int
    c: float

    def __post_init__(self):
        check_base(self.q)
        if not (0.0 <= self.c < 1.0):
            raise ValueError(f"c must lie in [0,1), got {self.c!r}")


def reduce_phase(x: float) -> float:
    """x % 1.0, but 0.0 where that rounds a tiny negative x up to 1.0."""
    r = x % 1.0
    return 0.0 if r == 1.0 else r


_PI = math.pi


def _amp(q: int, u: float) -> float:
    """Amplitude |sin(pi*q*u)/sin(pi*u)| with removable points patched."""
    ur = math.remainder(u, 1.0)
    if abs(ur) <= REMOVABLE_TOL:
        return float(q)
    vr = math.remainder(q * ur, 1.0)
    if abs(vr) <= q * ZERO_TOL:
        return 0.0
    return abs(math.sin(_PI * vr) / math.sin(_PI * ur))


def _f(q: int, u: float) -> float:
    """log amplitude as a plain float, -inf at the zeros.

    The same reduction as _amp, inlined: this is the balance kernel's inner
    call.  math.remainder(u, 1.0) equals u - round(u) up to the sign of a
    zero, which only reaches the result through abs().
    """
    ur = math.remainder(u, 1.0)
    if abs(ur) <= REMOVABLE_TOL:
        return math.log(q)
    vr = math.remainder(q * ur, 1.0)
    if abs(vr) <= q * ZERO_TOL:
        return -math.inf
    return math.log(abs(math.sin(_PI * vr) / math.sin(_PI * ur)))


def _fp(q: int, u: float) -> float:
    """Derivative of the log amplitude; series branch near the maximum.
    Raises SingularityError within SINGULARITY_GUARD of a singularity; the
    value is 0 at the maximum u = 0."""
    ur = u - round(u)
    if abs(ur) < _SERIES_CUTOFF:
        z = _PI * ur
        return _PI * (z * (1 - q * q) / 3.0 + z ** 3 * (1 - q ** 4) / 45.0)
    v = q * ur
    vr = v - round(v)
    if abs(vr) < q * SINGULARITY_GUARD:
        raise SingularityError(f"derivative requested within "
                               f"{SINGULARITY_GUARD} of a singularity (u={u!r})")
    return _PI * (q / math.tan(_PI * vr) - 1.0 / math.tan(_PI * ur))


def amplitude(params: PotentialParams, x: float) -> float:
    """|sin(pi*q*(x+c)) / sin(pi*(x+c))|, total on the reals.

    Returns the limit value q at the removable points x+c in Z and exactly
    0.0 within ZERO_TOL of the amplitude zeros.
    """
    return _amp(params.q, x + params.c)


def potential(params: PotentialParams, x: float) -> float:
    """log(amplitude), -inf exactly where the amplitude vanishes."""
    return _f(params.q, x + params.c)


def potential_array(q: int, c: float, x: np.ndarray) -> np.ndarray:
    """Vectorized log amplitude through NumPy's sin and log: _f's branches
    and tests on every element of u = x + c, -inf at the zeros, NaN kept.
    u - rint(u) is math.remainder(u, 1.0) up to the sign of a zero, which
    reaches the result only through abs."""
    check_base(q)
    import numpy as np

    u = np.asarray(x, dtype=float) + c
    ur = u - np.rint(u)
    vr = q * ur
    vr -= np.rint(vr)
    out = np.full(u.shape, math.log(q))  # _f's bits; np.log's may differ
    live = ~(np.abs(ur) <= REMOVABLE_TOL)
    zero = np.abs(vr) <= q * ZERO_TOL
    out[live & zero] = -math.inf
    live &= ~zero
    ratio = np.sin(np.pi * vr[live])
    ratio /= np.sin(np.pi * ur[live])
    out[live] = np.log(np.abs(ratio))
    return out


def potential_derivative_array(q: int, c: float, x: np.ndarray) -> np.ndarray:
    """Vectorized derivative of the potential; no singularity guard.

    Callers must keep arguments away from the logarithmic singularities;
    near the maximum the series branch avoids the cot cancellation.
    """
    check_base(q)
    import numpy as np

    u = np.asarray(x, dtype=float) + c
    ur = u - np.round(u)
    vr = q * ur - np.round(q * ur)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.pi * (q / np.tan(np.pi * vr) - 1.0 / np.tan(np.pi * ur))
    z = np.pi * ur
    series = np.pi * (z * (1 - q * q) / 3.0 + z ** 3 * (1 - q ** 4) / 45.0)
    return np.where(np.abs(ur) < _SERIES_CUTOFF, series, direct)
