"""Every public function that takes a bare base q rejects q < 2.

Without the check, digit_sum(1, n) never returned, q = 0 divided by zero,
and exit_sets, exit_time_profile, enumerate_cycles and validity_table
answered for a base that does not exist.  Each raises the ValueError that
PotentialParams raises, before any other argument is looked at.
"""

from fractions import Fraction

import numpy as np
import pytest

import gelfond as g
from gelfond.potential import potential_array, potential_derivative_array

CALLS = {
    "digit_sum": lambda q: g.digit_sum(q, 5),
    "exit_sets": lambda q: g.exit_sets(q, 0.3, 2),
    "exit_time_profile": lambda q: g.exit_time_profile(q, 0.3, 2, 4),
    "rotation_number": lambda q: g.rotation_number(q, 0.3),
    "build_cycle": lambda q: g.build_cycle(q, 0, Fraction(1, 2)),
    "enumerate_cycles": lambda q: g.enumerate_cycles(q, 5),
    "validity_interval": lambda q: g.validity_interval(
        q, g.build_cycle(2, 0, Fraction(1, 2))),
    "validity_table": lambda q: g.validity_table(q, 3, threads=1),
    "exponent_table": lambda q: g.exponent_table(q, 3, c_list=[0.3],
                                                 threads=1),
    "centering_bound_check": lambda q: g.centering_bound_check(q, [0.3]),
    "inner_shift_negativity_grid":
        lambda q: g.inner_shift_negativity_grid(q, 4, 4),
    "outer_shift_negativity_grid":
        lambda q: g.outer_shift_negativity_grid(q, 4, 4),
    "potential_array": lambda q: potential_array(q, 0.3, np.zeros(2)),
    "potential_derivative_array":
        lambda q: potential_derivative_array(q, 0.3, np.zeros(2)),
}


@pytest.mark.parametrize("q", [1, 0, -2, 2.0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_base_below_two_rejected(name, q):
    with pytest.raises(ValueError) as exc:
        CALLS[name](q)
    assert str(exc.value) == f"q must be an integer >= 2, got {q!r}"
