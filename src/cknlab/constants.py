"""Explicit constants and exponent algebra of the inequality catalog.

Everything here is closed-form: the two-term power comparison coefficients,
the dimensional Sobolev constant with its one-parameter family and optimal
member, the weighted-inequality coefficient bundle produced by an explicit
one-dimensional optimization, the interpolation constant, and the solver
that completes a partially specified exponent tuple from its balance
identities.

The balance closures are rational in the unknowns, so they are evaluated
with whatever number type the caller supplies; passing
:class:`fractions.Fraction` values gives exact results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClosureUnsupported,
    ConstantUndefined,
    InconsistentParameters,
    InfeasibleParameters,
    InvalidArgument,
)

_IDENTITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Two-term power comparison
# ---------------------------------------------------------------------------

def pair_power_upper(p: float) -> float:
    """max(1, 2**((p-2)/2)): upper coefficient comparing (a^2+b^2)^{p/2} with a^p+b^p."""
    return max(1.0, 2.0 ** ((p - 2.0) / 2.0))


def pair_power_flip(p: float) -> float:
    """max(1, 2**((2-p)/2)); the product with :func:`pair_power_upper` is 2**(|p-2|/2)."""
    return max(1.0, 2.0 ** ((2.0 - p) / 2.0))


# ---------------------------------------------------------------------------
# Unit-ball volume via exact half-integer gamma values
# ---------------------------------------------------------------------------

def _gamma_half(two_x: int) -> float:
    """Gamma(two_x / 2) for positive integer ``two_x``."""
    if two_x <= 0:
        raise InvalidArgument("argument must be positive")
    if two_x % 2 == 0:
        return float(math.factorial(two_x // 2 - 1))
    n = (two_x - 1) // 2
    return math.factorial(2 * n) / (4.0 ** n * math.factorial(n)) * math.sqrt(math.pi)


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in dimension ``k``."""
    if k < 1:
        raise InvalidArgument("dimension must be >= 1")
    return math.pi ** (k / 2.0) / _gamma_half(k + 2)


# ---------------------------------------------------------------------------
# Dimensional Sobolev constant
# ---------------------------------------------------------------------------

def hoffman_spruck_constant(k: int, p: float, z: float,
                            flat_ambient: bool = False) -> float:
    """One-parameter family of dimensional Sobolev constants.

    ``flat_ambient`` selects the sharper variant available when the ambient
    curvature bound is zero (leading factor 1 instead of pi/2).
    """
    if k < 2:
        raise InvalidArgument("dimension k must be >= 2")
    if not 1 <= p < k:
        raise InvalidArgument("need 1 <= p < k")
    if not 0 < z < 1:
        raise InvalidArgument("z must lie in (0, 1)")
    lead = 1.0 if flat_ambient else math.pi / 2.0
    # (omega_k^{-1} / (1-z))^{1/k} through exp/log to stay overflow-safe
    root = math.exp((-math.log(unit_ball_volume(k)) - math.log(1.0 - z)) / k)
    return (lead * (2.0 ** k * k) / (z * (k - 1)) * root
            * 2.0 ** (p - 1.0) * (p * (k - 1) / (k - p)) ** p)


def hoffman_spruck_optimal(k: int, p: float, flat_ambient: bool = False) -> float:
    """Minimum of the constant family over its free parameter (at z = k/(k+1))."""
    return hoffman_spruck_constant(k, p, k / (k + 1.0), flat_ambient=flat_ambient)


# ---------------------------------------------------------------------------
# Weighted-inequality coefficient bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedConstants:
    """Coefficients of the weighted Sobolev inequality for one (k, p, alpha)."""

    k: int
    p: float
    alpha: float
    h_prime_r0: float
    hardy_factor: float      # multiplies the gradient integral in the Hardy step
    perp_factor: float       # multiplies the normal-component integral there
    eps_opt: float           # minimizer of the split objective (inf at alpha = 0)
    grad_coeff: float        # Gamma: right-hand-side coefficient
    perp_sq_coeff: float     # Phi: |normal radial|^2 term coefficient
    perp_p_coeff: float      # Delta: |normal radial|^p term coefficient


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


def weighted_sobolev_constants(k: int, p: float, alpha: float,
                               h_prime_r0: float = 1.0) -> WeightedConstants:
    """All coefficients of the weighted Sobolev inequality.

    Requires ``p*(alpha+1) < k`` so that the singular weight stays integrable
    and every coefficient is finite.
    """
    if p < 1:
        raise InvalidArgument("exponent p must be >= 1")
    if not 0 < h_prime_r0 <= 1:
        raise InvalidArgument("h'(r0) must lie in (0, 1]")
    g = p * (alpha + 1.0)
    if g >= k:
        raise ConstantUndefined(f"p*(alpha+1) = {g} must be below k = {k}")
    a_p = pair_power_upper(p)
    b_p = pair_power_flip(p)
    hp = h_prime_r0
    aa = abs(alpha)
    big_a = a_p / hp ** (p - 1.0) * p ** p / (k - g) ** p
    big_b = g * p / (k - g)
    if aa == 0.0:
        eps_opt = math.inf
    else:
        eps_opt = (aa ** ((p - 2.0) / 2.0) * b_p * big_a) ** (-1.0 / (p + 2.0))
    # factored form of the gradient coefficient
    bracket = (hp ** (2.0 * (p - 1.0) / (p + 2.0))
               + aa ** (2.0 * p / (2.0 + p))
               * 2.0 ** (abs(p - 2.0) / (p + 2.0))
               * (p / (k - g)) ** (2.0 * p / (p + 2.0)))
    grad_coeff = hp ** (1.0 - p) * a_p * bracket ** ((p + 2.0) / 2.0)
    inner = (aa ** (2.0 * p / (2.0 + p))
             + 2.0 ** (-abs(p - 2.0) / (p + 2.0))
             * hp ** (2.0 * (p - 1.0) / (p + 2.0))
             * (p / (k - g)) ** (-2.0 * p / (p + 2.0)))
    perp_sq_coeff = (2.0 ** (abs(p - 2.0) / 2.0) * big_b
                     * inner ** (p / 2.0) * aa ** (2.0 * p / (2.0 + p)))
    perp_p_coeff = a_p * inner ** (p / 2.0) * aa ** (2.0 * p / (2.0 + p))
    return WeightedConstants(k=k, p=p, alpha=alpha, h_prime_r0=hp,
                             hardy_factor=big_a, perp_factor=big_b,
                             eps_opt=eps_opt, grad_coeff=grad_coeff,
                             perp_sq_coeff=perp_sq_coeff,
                             perp_p_coeff=perp_p_coeff)


def hardy_endpoint_coeff(k: int, p: float, alpha: float,
                         h_prime_r0: float = 1.0) -> float:
    """Coefficient of the pure-Hardy endpoint of the interpolation family."""
    g = p * (alpha + 1.0)
    if g >= k:
        raise ConstantUndefined(f"p*(alpha+1) = {g} must be below k = {k}")
    return pair_power_upper(p) * p ** p * h_prime_r0 ** (-p) / (k - g) ** p


# ---------------------------------------------------------------------------
# Exponent tuples and their balance identities
# ---------------------------------------------------------------------------

def _to_number(x):
    if isinstance(x, (int,)):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class ParameterSet:
    """Exponent tuple of the two-factor interpolation inequality.

    Fields may be floats or :class:`fractions.Fraction`; the identity checks
    are exact for rational inputs and 1e-12-accurate otherwise.
    """

    k: int
    p: object
    q: object
    t: object
    alpha: object
    beta: object
    gamma: object
    sigma: object
    a: object
    s: object
    b_interp: object
    c: object
    theta: object

    @property
    def p_star(self):
        if not self.p < self.k:
            raise InvalidArgument("critical exponent needs p < k")
        return self.k * self.p / (self.k - self.p)

    def residuals(self) -> dict:
        """Numeric residuals of every balance identity."""
        k, p, q, t = self.k, self.p, self.q, self.t
        al, be, ga, si = self.alpha, self.beta, self.gamma, self.sigma
        a, s, b, c, th = self.a, self.s, self.b_interp, self.c, self.theta
        ps = self.p_star
        res = {
            "convex_combination": ga - (a * si + (1 - a) * be),
            "balance": (Fraction(1, 1) / t - ga / k
                        - a * (1 / p - (al + 1) / k)
                        - (1 - a) * (1 / q - be / k)),
            "s_from_p": 1 / s - (1 / p - ((al + 1) - si) / k),
            "s_from_pstar": 1 / s - (1 / ps + (si - al) / k),
            "t_mix": 1 / t - (a / s + (1 - a) / q),
            "b_value": b - a * q / (a * q + (1 - a) * s),
            "b_cross": (1 - b) * a * q - (1 - a) * b * s,
            "gamma_t": ga * t - (b * s * si + (1 - b) * q * be),
            "s_convex": s - ((1 - c) * p + c * ps),
            "theta_link": c * (k - th * p) - th * (k - p),
        }
        return {name: float(v) for name, v in res.items()}

    def validate(self) -> None:
        """Raise :class:`InconsistentParameters` naming the first failed identity."""
        if not 1 <= self.p:
            raise InconsistentParameters("p must be >= 1")
        if not self.p < self.k:
            raise InconsistentParameters("p must be below k")
        if not self.q > 0:
            raise InconsistentParameters("q must be positive")
        if not self.t > 0:
            raise InconsistentParameters("t must be positive")
        if not 0 <= self.a <= 1:
            raise InconsistentParameters("a must lie in [0, 1]")
        if not self.alpha <= self.sigma <= self.alpha + 1:
            raise InconsistentParameters("sigma must lie in [alpha, alpha + 1]")
        for name in ("b_interp", "c", "theta"):
            v = getattr(self, name)
            if not -_IDENTITY_TOL <= float(v) <= 1 + _IDENTITY_TOL:
                raise InconsistentParameters(f"{name} must lie in [0, 1]")
        if not self.p - _IDENTITY_TOL <= self.s <= self.p_star + _IDENTITY_TOL:
            raise InconsistentParameters("s must lie in [p, p*]")
        for name, value in self.residuals().items():
            if abs(value) > _IDENTITY_TOL:
                raise InconsistentParameters(
                    f"identity {name} violated by {value:.3e}")

    def as_floats(self) -> dict:
        out = {"k": int(self.k)}
        for name in ("p", "q", "t", "alpha", "beta", "gamma", "sigma",
                     "a", "s", "b_interp", "c", "theta"):
            out[name] = float(getattr(self, name))
        out["p_star"] = float(self.p_star)
        return out


def _complete(k, p, q, alpha, beta, sigma, a):
    """Fill the derived fields from the free ones (all rational operations)."""
    if not alpha <= sigma <= alpha + 1:
        raise InfeasibleParameters("sigma must lie in [alpha, alpha + 1]")
    if not 0 <= a <= 1:
        raise InfeasibleParameters("a must lie in [0, 1]")
    gamma = a * sigma + (1 - a) * beta
    theta = (alpha + 1) - sigma
    s = k * p / (k - theta * p)
    c = theta * (k - p) / (k - theta * p)
    t = 1 / (a / s + (1 - a) / q)
    b = a * q / (a * q + (1 - a) * s)
    return ParameterSet(k=int(k), p=p, q=q, t=t, alpha=alpha, beta=beta,
                        gamma=gamma, sigma=sigma, a=a, s=s, b_interp=b,
                        c=c, theta=theta)


def solve_balance(**known) -> ParameterSet:
    """Complete a partial exponent tuple from its balance identities.

    Supported closures (by exact key set):

    - ``{k, p, alpha, sigma}``: single-factor case (a = 1).
    - ``{k, p, q, alpha, beta, sigma, a}``: general forward closure.
    - ``{k, p, q, alpha, beta, gamma, t}``: inverse closure solving for
      ``a`` and ``sigma`` when an admissible solution exists.
    """
    known = {key: _to_number(v) for key, v in known.items()}
    keys = frozenset(known)
    k = known.get("k")
    if k is None or int(k) != k or k < 2:
        raise ClosureUnsupported("an integer dimension k >= 2 is required")
    k = int(k)
    p = known.get("p")
    if p is None or not 1 <= p < k:
        raise ClosureUnsupported("need 1 <= p < k")

    if keys == {"k", "p", "alpha", "sigma"}:
        al, si = known["alpha"], known["sigma"]
        return _complete(k, p, p, al, si, si, _to_number(1))

    if keys == {"k", "p", "q", "alpha", "beta", "sigma", "a"}:
        if not known["q"] > 0:
            raise InfeasibleParameters("q must be positive")
        return _complete(k, p, known["q"], known["alpha"], known["beta"],
                         known["sigma"], known["a"])

    if keys == {"k", "p", "q", "alpha", "beta", "gamma", "t"}:
        q, al, be, ga, t = (known["q"], known["alpha"], known["beta"],
                            known["gamma"], known["t"])
        if not (q > 0 and t > 0):
            raise InfeasibleParameters("q and t must be positive")
        num = 1 / t - ga / k - 1 / q + be / k
        den = 1 / p - (al + 1) / k - 1 / q + be / k
        if den == 0:
            raise InfeasibleParameters(
                "the two interpolation slots are indistinguishable; "
                "a is undetermined")
        a = num / den
        if not 0 <= a <= 1:
            raise InfeasibleParameters(f"solved a = {float(a):.6g} outside [0, 1]")
        if a == 0:
            if ga != be or abs(float(1 / t - 1 / q)) > _IDENTITY_TOL:
                raise InfeasibleParameters(
                    "a = 0 requires gamma = beta and t = q")
            sigma = al  # free at a = 0; the pure-critical convention
        else:
            sigma = (ga - (1 - a) * be) / a
        if not al <= sigma <= al + 1:
            raise InfeasibleParameters(
                f"solved sigma = {float(sigma):.6g} outside [alpha, alpha + 1]")
        ps = _complete(k, p, q, al, be, sigma, a)
        # the requested (gamma, t) must be reproduced
        if abs(float(ps.gamma - ga)) > _IDENTITY_TOL or \
                abs(float(1 / ps.t - 1 / t)) > _IDENTITY_TOL:
            raise InfeasibleParameters("no admissible completion reproduces "
                                       "the requested gamma and t")
        return ps

    raise ClosureUnsupported(f"unsupported key set {sorted(keys)}")


def interpolation_constants(params: ParameterSet, h_prime_r0: float,
                            sobolev_const: float) -> tuple[float, float]:
    """Endpoint coefficient and combined interpolation constant for ``params``."""
    params.validate()
    k, p = params.k, float(params.p)
    alpha = float(params.alpha)
    if p * (alpha + 1.0) >= k:
        raise InconsistentParameters("need k - p*(alpha+1) > 0")
    lam = hardy_endpoint_coeff(k, p, alpha, h_prime_r0)
    wc = weighted_sobolev_constants(k, p, alpha, h_prime_r0)
    c = float(params.c)
    s = float(params.s)
    p_star = float(params.p_star)
    combined = ((lam / h_prime_r0) ** (p * (1.0 - c) / s)
                * (sobolev_const * wc.grad_coeff) ** (p_star * c / s))
    return lam, combined
