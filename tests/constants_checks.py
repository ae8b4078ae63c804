"""Cross-checks of the closed-form constants that feed no report.

``eps_objective`` is the one-dimensional objective whose closed-form
minimizer ``weighted_sobolev_constants`` reports as ``eps_opt``, and
``gradient_coeff_expanded`` the unfactored form of its gradient
coefficient; the tests compare the library's closed forms against both.
"""

from cknlab.constants import pair_power_flip, pair_power_upper


def eps_objective(k: int, p: float, alpha: float, h_prime_r0: float,
                  eps: float) -> float:
    """Gradient-coefficient objective whose minimizer is ``eps_opt``."""
    a_p = pair_power_upper(p)
    b_p = pair_power_flip(p)
    g = p * (alpha + 1.0)
    big_a = a_p / h_prime_r0 ** (p - 1.0) * p ** p / (k - g) ** p
    aa = abs(alpha)
    return a_p * ((aa + eps ** 2) ** (p / 2.0) * aa ** (p / 2.0) * b_p * big_a
                  + (1.0 + aa * eps ** -2.0) ** (p / 2.0))


def gradient_coeff_expanded(k: int, p: float, alpha: float,
                            h_prime_r0: float) -> float:
    """Unfactored form of the gradient coefficient (equal to the factored one)."""
    a_p = pair_power_upper(p)
    g = p * (alpha + 1.0)
    inner = (abs(alpha) ** (2.0 * p / (2.0 + p))
             * 2.0 ** (abs(p - 2.0) / (p + 2.0))
             * h_prime_r0 ** (2.0 * (1.0 - p) / (2.0 + p))
             * (p / (k - g)) ** (2.0 * p / (p + 2.0)))
    return a_p * (1.0 + inner) ** ((p + 2.0) / 2.0)
