import numpy as np

from cknlab.geometry import Domain, graph_mesh, sphere_mesh
from geometry_checks import (
    divergence_residuals,
    divergence_theorem_residual,
    hessian_comparison_margin,
)


def constant_field(direction):
    d = np.asarray(direction, dtype=float)

    def fn(pts):
        pts = np.atleast_2d(pts)
        vals = np.broadcast_to(d, pts.shape).copy()
        jacs = np.zeros((len(pts), 3, 3))
        return vals, jacs

    return fn


def position_field(pts):
    pts = np.atleast_2d(pts)
    jacs = np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
    return pts.copy(), jacs


def polynomial_field(pts):
    pts = np.atleast_2d(pts)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    vals = np.stack([x * y + 0.3 * z, y * y - 0.2 * x, 0.4 * x * z + y],
                    axis=1)
    jacs = np.zeros((len(pts), 3, 3))
    jacs[:, 0, 0] = y
    jacs[:, 0, 1] = x
    jacs[:, 0, 2] = 0.3
    jacs[:, 1, 0] = -0.2
    jacs[:, 1, 1] = 2 * y
    jacs[:, 2, 0] = 0.4 * z
    jacs[:, 2, 1] = 1.0
    jacs[:, 2, 2] = 0.4 * x
    return vals, jacs


def flat_patch(divisions):
    # offset in height so the ambient pole stays off the surface
    return graph_mesh(lambda x, y: np.full_like(x, 0.07), 1.0, divisions,
                      center_xy=(0.3, 0.1))


def curved_patch(divisions):
    return graph_mesh(
        lambda x, y: 0.3 * x * x - 0.2 * y * y + 0.15 * x * y + 0.07,
        1.0, divisions, center_xy=(0.3, 0.1))


def test_constant_field_on_flat_plane_machine_zero(euclid3):
    dom = Domain(flat_patch(6), euclid3)
    res_a, res_b = divergence_residuals(dom, constant_field((0.3, -1.2, 0.7)))
    assert res_a < 1e-12
    assert res_b < 1e-12


def test_sphere_position_field_residual_refines(euclid3):
    values = []
    for level in (2, 3):
        dom = Domain(sphere_mesh(1.0, level=level), euclid3)
        res_a, _ = divergence_residuals(dom, position_field)
        values.append(res_a)
    # div_M x = 2 and <H, x> = -2 on the unit sphere; the finite-volume
    # route must approach that splitting at first order or better
    assert values[1] < 0.6 * values[0]
    assert values[1] < 0.2


def test_polynomial_field_residuals_first_order(euclid3):
    res = []
    for divisions in (6, 12, 24):
        dom = Domain(curved_patch(divisions), euclid3)
        res.append(divergence_residuals(dom, polynomial_field))
    orders_a = [np.log2(res[i][0] / res[i + 1][0]) for i in range(2)]
    orders_b = [np.log2(res[i][1] / res[i + 1][1]) for i in range(2)]
    assert min(orders_a) >= 0.9
    assert min(orders_b) >= 0.9


def test_divergence_theorem_residual_refines(euclid3):
    values = []
    for divisions in (12, 24, 48):
        dom = Domain(curved_patch(divisions), euclid3)
        values.append(divergence_theorem_residual(dom, polynomial_field))
    orders = [np.log2(values[i] / values[i + 1]) for i in range(2)]
    # first-order from the boundary conormal tilt; interior terms are O(h^2)
    assert min(orders) >= 0.85
    assert values[-1] < values[0] / 3.0


def test_hessian_comparison_equality_euclidean(euclid3, rng):
    pts = rng.normal(size=(6, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.4, 1.5, size=6)[:, None]
    vs = rng.normal(size=(6, 3))
    margins = hessian_comparison_margin(euclid3, pts, vs)
    assert np.min(margins) > -1e-6
    assert np.max(np.abs(margins)) < 1e-6


def test_hessian_comparison_equality_warped(warped3, rng):
    pts = rng.normal(size=(6, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.3, 1.2, size=6)[:, None]
    vs = rng.normal(size=(6, 3))
    margins = hessian_comparison_margin(warped3, pts, vs)
    assert np.min(margins) > -1e-6
    assert np.max(np.abs(margins)) < 1e-6


def test_hessian_comparison_tightens_with_step(warped3):
    pts = np.array([[0.5, 0.2, -0.3]])
    vs = np.array([[0.1, 1.0, 0.4]])
    coarse = abs(hessian_comparison_margin(warped3, pts, vs, step=1e-3)[0])
    fine = abs(hessian_comparison_margin(warped3, pts, vs, step=1e-4)[0])
    assert fine <= coarse + 1e-12
