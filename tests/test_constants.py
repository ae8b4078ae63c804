import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cknlab import constants as cn
from cknlab.errors import (
    ClosureUnsupported,
    ConstantUndefined,
    InconsistentParameters,
    InfeasibleParameters,
    InvalidArgument,
)
from constants_checks import eps_objective, gradient_coeff_expanded

# pinned by an independent hand evaluation of the closed formula with
# omega_3 = 4*pi/3: the value equals 256*pi*(3/pi)**(1/3)
S_323_REGRESSION = 791.9789379277148


# ---------------------------------------------------------------------------
# two-term power comparison
# ---------------------------------------------------------------------------

def power_split_bounds(p, a, b):
    """Bounds sandwiching (a^2+b^2)^{p/2} between multiples of a^p+b^p,
    with the coefficients the reports use."""
    if p < 1:
        raise InvalidArgument("exponent p must be >= 1")
    if a < 0 or b < 0:
        raise InvalidArgument("arguments must be nonnegative")
    s = a ** p + b ** p
    return s / cn.pair_power_flip(p), cn.pair_power_upper(p) * s


def test_power_split_degenerate_p2():
    lower, upper = power_split_bounds(2.0, 1.3, 0.4)
    middle = (1.3 ** 2 + 0.4 ** 2)
    assert lower == pytest.approx(middle)
    assert upper == pytest.approx(middle)


def test_power_split_equality_cases():
    lower, upper = power_split_bounds(1.0, 1.0, 1.0)
    middle = math.sqrt(2.0)
    assert lower == pytest.approx(middle, abs=1e-15)  # left bound tight
    assert upper == pytest.approx(2.0, abs=1e-15)
    lower, upper = power_split_bounds(4.0, 1.0, 0.0)
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx(2.0)
    assert lower <= 1.0 <= upper  # middle = 1


def test_power_split_rejects_bad_exponent():
    with pytest.raises(InvalidArgument):
        power_split_bounds(0.5, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_power_split_sandwich(p, a, b):
    lower, upper = power_split_bounds(p, a, b)
    middle = (a * a + b * b) ** (p / 2.0)
    scale = max(1.0, middle)
    assert lower <= middle + 1e-12 * scale
    assert middle <= upper + 1e-12 * scale


def test_pair_coefficient_product_identity():
    rng = np.random.default_rng(7)
    ps = rng.uniform(1.0, 6.0, size=500)
    for p in ps:
        prod = cn.pair_power_upper(p) * cn.pair_power_flip(p)
        assert abs(prod - 2.0 ** (abs(p - 2.0) / 2.0)) < 1e-14


# ---------------------------------------------------------------------------
# unit-ball volumes and the dimensional constant
# ---------------------------------------------------------------------------

def test_unit_ball_volume_matches_gamma():
    for k in range(1, 12):
        expected = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        assert cn.unit_ball_volume(k) == pytest.approx(expected, rel=1e-14)


def test_log_unit_ball_volume_is_finite_for_every_k():
    # the exact value's log up to k = 170, log-gamma beyond: the two forms
    # agree where both exist, and the large-k rows stay finite
    for k in range(1, 400):
        lgamma_form = 0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k + 1)
        assert cn.log_unit_ball_volume(k) == pytest.approx(lgamma_form,
                                                           rel=1e-12)
    for k in range(1, 171):
        assert cn.log_unit_ball_volume(k) == math.log(cn.unit_ball_volume(k))
    assert math.isfinite(cn.log_unit_ball_volume(10 ** 6))


def test_large_k_constants_are_finite_or_refused():
    assert cn.hoffman_spruck_optimal(1000, 2.0) == pytest.approx(
        1.04581753048e+303, rel=1e-10)
    for k, p in ((1030, 2.0), (500, 400.0)):
        with pytest.raises(ConstantUndefined, match=f"k = {k}"):
            cn.hoffman_spruck_optimal(k, p)
    with pytest.raises(ConstantUndefined, match=f"k = {10 ** 17}"):
        cn.hoffman_spruck_optimal(10 ** 17, 2.0)


def test_hoffman_spruck_regression_value():
    assert cn.hoffman_spruck_constant(3, 2, 0.75) == pytest.approx(
        S_323_REGRESSION, rel=1e-12)


def test_hoffman_spruck_flat_variant_ratio():
    general = cn.hoffman_spruck_constant(4, 2, 0.4)
    flat = cn.hoffman_spruck_constant(4, 2, 0.4, flat_ambient=True)
    assert general / flat == pytest.approx(math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("k,p", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_hoffman_spruck_argmin(k, p):
    zs = np.arange(1e-3, 1.0, 1e-3)
    vals = [cn.hoffman_spruck_constant(k, p, z) for z in zs]
    zmin = zs[int(np.argmin(vals))]
    assert abs(zmin - k / (k + 1)) <= 1e-3 + 1e-12
    assert cn.hoffman_spruck_optimal(k, p) <= min(vals) + 1e-9


def test_hoffman_spruck_optimal_closed_form():
    for k, p in ((3, 2), (5, 3), (4, 1.5)):
        omega = cn.unit_ball_volume(k)
        expected = (math.pi / 2 * 2 ** k * (k + 1) ** ((k + 1) / k) / (k - 1)
                    * omega ** (-1 / k) * 2 ** (p - 1)
                    * (p * (k - 1) / (k - p)) ** p)
        assert cn.hoffman_spruck_optimal(k, p) == pytest.approx(expected,
                                                                rel=1e-12)


def test_hoffman_spruck_validation():
    with pytest.raises(InvalidArgument):
        cn.hoffman_spruck_constant(3, 3, 0.5)
    with pytest.raises(InvalidArgument):
        cn.hoffman_spruck_constant(3, 2, 1.5)
    with pytest.raises(InvalidArgument):
        cn.hoffman_spruck_constant(1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# weighted coefficient bundle
# ---------------------------------------------------------------------------

def test_weighted_constants_alpha_zero_collapse():
    wc = cn.weighted_sobolev_constants(3, 2, 0.0, 1.0)
    assert wc.grad_coeff == pytest.approx(1.0)
    assert wc.perp_sq_coeff == 0.0
    assert wc.perp_p_coeff == 0.0
    assert math.isinf(wc.eps_opt)


def test_weighted_constants_perp_factor_example():
    wc = cn.weighted_sobolev_constants(4, 2, 0.5, 1.0)
    assert wc.perp_factor == pytest.approx(6.0)  # gamma = 3, 3*2/(4-3)


def test_weighted_constants_undefined_beyond_threshold():
    with pytest.raises(ConstantUndefined):
        cn.weighted_sobolev_constants(3, 2, 0.6, 1.0)  # p(alpha+1) = 3.2 >= 3


def test_gradient_coeff_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, k - 0.2))
        alpha_hi = k / p - 1.0
        alpha = float(rng.uniform(-1.0, alpha_hi - 0.05))
        hp = float(rng.uniform(0.2, 1.0))
        wc = cn.weighted_sobolev_constants(k, p, alpha, hp)
        expanded = gradient_coeff_expanded(k, p, alpha, hp)
        assert wc.grad_coeff == pytest.approx(expanded, rel=1e-12)


def test_optimized_constants_match_objective_at_minimizer():
    # Gamma must equal the objective evaluated at its closed-form minimizer
    for (k, p, alpha, hp) in ((4, 2, 0.5, 1.0), (3, 1.5, -0.3, 0.8),
                              (6, 2.5, 0.2, 0.9)):
        wc = cn.weighted_sobolev_constants(k, p, alpha, hp)
        assert eps_objective(k, p, alpha, hp, wc.eps_opt) == pytest.approx(
            wc.grad_coeff, rel=1e-12)


def test_eps_opt_brute_force():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 20:
        k = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, min(k - 0.2, 4.0)))
        alpha_hi = k / p - 1.0
        alpha = float(rng.uniform(-0.9, alpha_hi - 0.1))
        if abs(alpha) < 1e-3:
            continue
        hp = float(rng.uniform(0.3, 1.0))
        wc = cn.weighted_sobolev_constants(k, p, alpha, hp)
        res = minimize_scalar(
            lambda e: eps_objective(k, p, alpha, hp, e),
            bounds=(1e-4, max(10.0, 3.0 * wc.eps_opt)), method="bounded",
            options={"xatol": 1e-8})
        assert abs(res.x - wc.eps_opt) < 1e-4
        checked += 1


def test_constants_continuous_at_alpha_zero():
    for sign in (1.0, -1.0):
        wc = cn.weighted_sobolev_constants(3, 2, sign * 1e-8, 0.7)
        base = cn.weighted_sobolev_constants(3, 2, 0.0, 0.7)
        assert abs(wc.grad_coeff - base.grad_coeff) < 1e-4
        assert wc.perp_sq_coeff < 1e-4
        assert wc.perp_p_coeff < 1e-4


def test_hardy_blowup_monotonicity():
    # the endpoint coefficient blows up as the weighted exponent approaches k
    alphas = np.linspace(0.0, 0.45, 12)
    lams = [cn.hardy_endpoint_coeff(3, 2, a, 0.9) for a in alphas]
    hardys = [cn.weighted_sobolev_constants(3, 2, a, 0.9).hardy_factor
              for a in alphas]
    assert np.all(np.diff(lams) > 0)
    assert np.all(np.diff(hardys) > 0)


# ---------------------------------------------------------------------------
# balance algebra
# ---------------------------------------------------------------------------

def test_nash_closure_exact():
    ps = cn.solve_balance(k=3, p=2, q=1, alpha=0, beta=0, sigma=0,
                          a=Fraction(3, 5))
    assert ps.t == Fraction(2)
    assert float(ps.t) == 2.0
    ps.validate()
    assert ps.s == Fraction(6)
    assert ps.c == 1


def test_single_factor_closure():
    ps = cn.solve_balance(k=4, p=2, alpha=Fraction(1, 4),
                          sigma=Fraction(3, 4))
    ps.validate()
    assert ps.a == 1
    assert ps.t == ps.s
    assert ps.gamma == ps.sigma
    # 1/t = 1/p - ((alpha+1) - gamma)/k
    assert Fraction(1, 1) / ps.t == Fraction(1, 2) - (Fraction(5, 4)
                                                      - ps.gamma) / 4


def test_inverse_closure_a_zero():
    ps = cn.solve_balance(k=3, p=2, q=Fraction(3, 2), alpha=0,
                          beta=Fraction(1, 3), gamma=Fraction(1, 3),
                          t=Fraction(3, 2))
    ps.validate()
    assert ps.a == 0
    assert ps.gamma == ps.beta
    assert ps.t == ps.q


def test_hpw_closure():
    ps = cn.solve_balance(k=3, p=2, q=2, alpha=0, beta=-1, gamma=0, t=2)
    ps.validate()
    assert ps.a == Fraction(1, 2)
    assert ps.sigma == 1
    assert ps.s == 2
    assert ps.c == 0
    assert ps.b_interp == Fraction(1, 2)


def test_closure_validation_errors():
    with pytest.raises(ClosureUnsupported):
        cn.solve_balance(k=3, p=2, q=1)
    with pytest.raises(ClosureUnsupported):
        cn.solve_balance(k=3, p=5, alpha=0, sigma=0)
    with pytest.raises(InfeasibleParameters):
        cn.solve_balance(k=3, p=2, alpha=0, sigma=2.0)
    with pytest.raises(InfeasibleParameters):
        # requested t incompatible with any a in [0, 1]
        cn.solve_balance(k=3, p=2, q=1, alpha=0, beta=0, gamma=0, t=50.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.25, max_value=3.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_forward_closure_always_validates(k, pf, sf, af, q, beta):
    p = 1.0 + pf * (k - 1.0 - 1e-6)
    alpha_hi = k / p - 1.0
    alpha = -0.5 + 0.4 * beta
    if alpha >= alpha_hi - 1e-9:
        alpha = alpha_hi - 0.1
    sigma = alpha + sf
    ps = cn.solve_balance(k=k, p=p, q=q, alpha=alpha, beta=beta, sigma=sigma,
                          a=af)
    ps.validate()


def test_interpolation_constant_endpoints():
    ps = cn.solve_balance(k=3, p=2, alpha=0.25, sigma=1.25)  # sigma=alpha+1
    lam, comb = cn.interpolation_constants(ps, 0.8, 100.0)
    assert comb == pytest.approx(lam / 0.8, rel=1e-12)
    ps2 = cn.solve_balance(k=3, p=2, alpha=0.25, sigma=0.25)  # sigma=alpha
    wc = cn.weighted_sobolev_constants(3, 2, 0.25, 0.8)
    lam2, comb2 = cn.interpolation_constants(ps2, 0.8, 100.0)
    assert comb2 == pytest.approx(100.0 * wc.grad_coeff, rel=1e-12)


def test_theta_exponent_identity():
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, k - 0.2))
        alpha = float(rng.uniform(-0.8, k / p - 1.2))
        sigma = float(rng.uniform(alpha, alpha + 1.0))
        ps = cn.solve_balance(k=k, p=p, alpha=alpha, sigma=sigma)
        theta = float(ps.theta)
        c = float(ps.c)
        p_star = float(ps.p_star)
        assert abs(theta * (1 - c) * p - (1 - theta) * c * p_star) < 1e-12


def test_validate_reports_offending_identity():
    ps = cn.solve_balance(k=3, p=2, q=1, alpha=0, beta=0, sigma=0, a=0.5)
    broken = cn.ParameterSet(**{**ps.__dict__, "gamma": 0.25})
    with pytest.raises(InconsistentParameters, match="convex_combination"):
        broken.validate()
