"""Certified Gelfond exponents of generalized Thue-Morse polynomials.

The sup norm of the length-N polynomial with coefficients exp(2 pi i c S_q(n))
grows like N^gamma(q;c); gamma is the maximal ergodic average of a concave
log-amplitude potential under x -> q x mod 1, attained on a Sturmian cycle.
This package certifies the maximizing cycle, evaluates beta and gamma in
closed form from exact cycle points, reproduces the reference tables, and
independently verifies the growth on the polynomial side.
"""

from .circle import (BalanceValue, exit_sets, exit_time_profile,
                     sturmian_balance)
from .certify import (GelfondCertificate, NonPeriodicReport, ValidityInterval,
                      beta_period2_closed_form, exponent_table,
                      find_balance_point, gelfond_exponent,
                      orbit_potential_mean, validity_interval, validity_table)
from .checks import (GridReport, centering_bound_check,
                     inner_shift_negativity_grid, outer_shift_negativity_grid,
                     sturmian_condition_probe)
from .errors import (DepthError, DomainError, GelfondError, GuardError,
                     SingularityError)
from .potential import PotentialParams, amplitude, potential
from .series import (ExponentFitRow, digit_sum, modulus_product,
                     multiplicativity_check, polynomial_sum, sup_exponent_fit)
from .sturmian import (IrrationalRotation, LambdaWindow, RationalRotation,
                       SturmianCycle, build_cycle, enumerate_cycles,
                       lambda_window, rotation_number)

__version__ = "0.1.0"

__all__ = [
    "BalanceValue", "exit_sets", "exit_time_profile", "sturmian_balance",
    "GelfondCertificate", "NonPeriodicReport", "ValidityInterval",
    "beta_period2_closed_form", "exponent_table",
    "find_balance_point", "gelfond_exponent", "orbit_potential_mean",
    "validity_interval", "validity_table",
    "GridReport", "centering_bound_check", "inner_shift_negativity_grid",
    "outer_shift_negativity_grid", "sturmian_condition_probe",
    "DepthError", "DomainError", "GelfondError", "GuardError",
    "SingularityError",
    "PotentialParams", "amplitude", "potential",
    "ExponentFitRow", "digit_sum", "modulus_product",
    "multiplicativity_check", "polynomial_sum", "sup_exponent_fit",
    "IrrationalRotation", "LambdaWindow", "RationalRotation",
    "SturmianCycle", "build_cycle", "enumerate_cycles", "lambda_window",
    "rotation_number",
]
