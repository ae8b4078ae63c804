import math

import numpy as np
import pytest

from cknlab.quadrature import (
    box_rule,
    gauss_rule,
    jacobi_rule,
    nested_rows,
    product_rule,
    product_weights,
    simplex_rule,
    simplex_volume,
    split_simplex_bary,
)


def unit_simplex_monomial(exponents):
    """Exact integral of prod x_i^{a_i} over the unit simplex."""
    k = len(exponents)
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(k + sum(exponents))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s,degree", [(1, 3), (2, 5)])
def test_simplex_rule_exactness(k, s, degree):
    corners = np.vstack([np.zeros(k), np.eye(k)])
    bary, wts = simplex_rule(k, s)
    pts = bary @ corners
    vol = simplex_volume(corners)
    rng = np.random.default_rng(k * 10 + s)
    for _ in range(12):
        exps = rng.integers(0, degree + 1, size=k)
        while exps.sum() > degree:
            exps = rng.integers(0, degree + 1, size=k)
        vals = np.prod(pts ** exps, axis=1)
        approx = vol * np.sum(wts * vals)
        assert approx == pytest.approx(unit_simplex_monomial(exps),
                                       rel=1e-12, abs=1e-15)


def test_simplex_rule_weights_sum_to_one():
    for k in (1, 2, 3):
        for s in (0, 1, 2):
            _, wts = simplex_rule(k, s)
            assert np.sum(wts) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_grundmann_moller_rules_nest(k, s):
    # every point of index s - 1 is a point of index s, equal as a float
    rows = nested_rows(k, s)
    assert np.array_equal(simplex_rule(k, s)[0][rows],
                          simplex_rule(k, s - 1)[0])
    assert len(set(rows.tolist())) == len(rows)


def test_gauss_rule_exactness():
    x, w = gauss_rule(4)  # degree 7
    for a in range(8):
        assert np.sum(w * x ** a) == pytest.approx(1.0 / (a + 1), rel=1e-13)


def test_box_rule_tensor_exactness():
    pts, wts = box_rule(3, 3)  # degree 5 per axis
    val = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 4 * pts[:, 2])
    assert val == pytest.approx((1 / 3) * (1 / 5) * (1 / 2), rel=1e-13)


def test_split_simplex_partitions_volume():
    for k in (1, 2):
        corners = np.vstack([np.zeros(k), np.eye(k)]) + 0.3
        corners[1] *= 2.0
        total = simplex_volume(corners)
        parts = sum(simplex_volume(mb @ corners)
                    for mb in split_simplex_bary(k))
        assert parts == pytest.approx(total, rel=1e-12)


def test_simplex_volume_triangle_in_3d():
    tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    assert simplex_volume(tri) == pytest.approx(3.0)


JACOBI_ALPHAS = (-0.95, -0.5, 0.0, 1.3, 6.49)


@pytest.mark.parametrize("alpha", JACOBI_ALPHAS)
@pytest.mark.parametrize("npts", [1, 2, 3, 4, 5, 6])
def test_jacobi_rule_matches_scipy(npts, alpha):
    from scipy.special import roots_jacobi
    t, w = jacobi_rule(npts, alpha)
    x, wx = roots_jacobi(npts, 0.0, alpha)   # weight (1 + x)^alpha on [-1, 1]
    mass = 1.0 / (alpha + 1.0)
    assert np.max(np.abs(t - (x + 1.0) / 2.0)) <= 1e-13
    assert np.max(np.abs(w - wx / 2.0 ** (alpha + 1.0))) <= 1e-13 * mass


@pytest.mark.parametrize("alpha", JACOBI_ALPHAS)
@pytest.mark.parametrize("npts", [1, 2, 3, 4, 6])
def test_jacobi_rule_exactness(npts, alpha):
    t, w = jacobi_rule(npts, alpha)
    for j in range(2 * npts):
        exact = 1.0 / (alpha + j + 1.0)
        assert np.sum(w * t ** j) == pytest.approx(exact, rel=1e-13)


# product weights on the pole's fixed nodes, the Gauss-Jacobi nodes of
# t ** -0.8, for the weight t ** alpha of any exponent

POLE_ALPHA = -0.8


@pytest.mark.parametrize("alpha", [-0.99, -0.95, -0.5, 0.0, 1.0, 3.0, 6.5])
@pytest.mark.parametrize("npts", [2, 3, 4, 5, 6, 7, 8])
def test_product_weights_exactness(npts, alpha):
    t, fit = product_rule(2 * npts, POLE_ALPHA)
    w = product_weights(fit, alpha)
    for j in range(2 * npts):
        exact = 1.0 / (alpha + j + 1.0)
        assert np.sum(w * t ** j) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("npts", [2, 3, 4, 5, 6, 7, 8])
def test_product_weights_as_accurate_as_gauss_jacobi(npts):
    # the worst error over the exponents, each relative to the weight's
    # mass 1 / (alpha + 1), of the 2 * npts fixed nodes against npts
    # Gauss-Jacobi points placed for each exponent (at 8 points both reach
    # the roundoff of the reference on the first integrand)
    from scipy.integrate import quad
    alphas = np.linspace(-0.95, 6.5, 32)
    t, fit = product_rule(2 * npts, POLE_ALPHA)
    for f in (lambda x: np.exp(-2.0 * x) * np.cos(3.0 * x),
              lambda x: 1.0 / (1.0 + 4.0 * x * x)):
        fitted, gauss = [], []
        for alpha in alphas:
            exact = quad(f, 0.0, 1.0, weight="alg", wvar=(alpha, 0.0),
                         epsabs=0.0, epsrel=1e-13, limit=200)[0]
            tg, wg = jacobi_rule(npts, alpha)
            fitted.append(abs(product_weights(fit, alpha) @ f(t) - exact))
            gauss.append(abs(wg @ f(tg) - exact))
        mass = 1.0 / (alphas + 1.0)
        assert np.max(fitted / mass) <= max(np.max(np.array(gauss) / mass),
                                            1e-14)
