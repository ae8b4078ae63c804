import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.integrate as sint

from cknlab.errors import (
    InvalidArgument,
    NonIntegrableWeight,
    PreconditionViolated,
    SingularPoint,
)
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    boundary_integral,
    disk_mesh,
    flat_disk_patch,
    graph_mesh,
    plane_rect,
    poly_graph_patch,
    sphere_mesh,
    sphere_patch,
    weighted_integral,
)
from cknlab.geometry.fields import make_field
from cknlab.geometry.mesh import read_mesh, write_mesh
from cknlab.warp import CurvatureProfile, WarpingFunction
from geometry_checks import band_pair, comparison_margin


# ---------------------------------------------------------------------------
# radial data
# ---------------------------------------------------------------------------

def radial_data(ambient, x):
    """Distance to the pole, radial gradient and the comparison value h'/h."""
    x = np.asarray(x, dtype=float)[None, :]
    r = float(ambient.radius(x)[0])
    if r == 0.0:
        raise SingularPoint("radial data undefined at the pole")
    grad = (x - ambient.pole)[0] / r
    h, hp = ambient.h_values(r)
    return r, grad, float(hp / h)


def test_radial_data_euclidean(euclid3):
    r, grad, bound = radial_data(euclid3, (3.0, 4.0, 0.0))
    assert r == pytest.approx(5.0)
    assert grad == pytest.approx([0.6, 0.8, 0.0])
    assert bound == pytest.approx(0.2)


def test_radial_data_warped_unit_curvature(warped3):
    x = np.array([math.pi / 4, 0.0, 0.0])
    r, grad, bound = radial_data(warped3, x)
    assert r == pytest.approx(math.pi / 4)
    assert bound == pytest.approx(1.0, abs=1e-9)  # cos/sin at pi/4
    assert grad == pytest.approx([1.0, 0.0, 0.0])


def test_radial_data_hyperbolic_like_table():
    # a hand-built warping table with sinh values exercises the h'/h bound
    # evaluation independently of the ODE solver
    grid = np.linspace(0.0, 2.0, 2001)
    w = WarpingFunction(profile=CurvatureProfile.constant(0.0),
                        representation="ode_table", increasing_limit=math.inf,
                        step=1e-3,
                        _grid=grid, _h=np.sinh(grid), _hp=np.cosh(grid))
    amb = AmbientSpace.warped(3, w)
    _, _, bound = radial_data(amb, (1.0, 0.0, 0.0))
    assert bound == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-8)


def test_radial_data_singular_at_pole(euclid3):
    with pytest.raises(SingularPoint):
        radial_data(euclid3, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def test_flat_plane_mean_curvature_zero(disk_domain):
    hi, _ = disk_domain.sites()
    assert np.max(hi.h_norm) < 1e-10


def test_sphere_mean_curvature(euclid3):
    dom = Domain(sphere_mesh(0.7, level=4), euclid3)
    hi, _ = dom.sites()
    target = 2.0 / 0.7
    assert np.max(np.abs(hi.h_norm - target)) / target < 0.01


def test_sphere_mean_curvature_converges(euclid3):
    errs = []
    for level in (2, 3):
        dom = Domain(sphere_mesh(1.0, level=level), euclid3)
        hi, _ = dom.sites()
        errs.append(float(np.max(np.abs(hi.h_norm - 2.0))))
    assert errs[1] < 0.5 * errs[0]


def test_sphere_patch_brute_force_second_derivatives(euclid3):
    # independent oracle: finite-difference jets of a private parametrization
    R = 1.3
    dom = Domain(sphere_patch(euclid3, R, cells=(8, 16)))
    hi, _ = dom.sites()
    assert np.max(np.abs(hi.h_norm - 2.0 / R)) < 1e-10

    def immersion(th, ph):
        return np.array([R * math.sin(th) * math.cos(ph),
                         R * math.sin(th) * math.sin(ph),
                         R * math.cos(th)])

    th0, ph0 = 0.9, 1.1
    e = 1e-5
    F0 = immersion(th0, ph0)
    d_th = (immersion(th0 + e, ph0) - immersion(th0 - e, ph0)) / (2 * e)
    d_ph = (immersion(th0, ph0 + e) - immersion(th0, ph0 - e)) / (2 * e)
    d_thth = (immersion(th0 + e, ph0) - 2 * F0 + immersion(th0 - e, ph0)) / e ** 2
    d_phph = (immersion(th0, ph0 + e) - 2 * F0 + immersion(th0, ph0 - e)) / e ** 2
    d_thph = (immersion(th0 + e, ph0 + e) - immersion(th0 + e, ph0 - e)
              - immersion(th0 - e, ph0 + e) + immersion(th0 - e, ph0 - e)) / (4 * e ** 2)
    T = np.stack([d_th, d_ph], axis=1)
    g = T.T @ T
    ginv = np.linalg.inv(g)
    S = np.empty((3, 2, 2))
    S[:, 0, 0], S[:, 1, 1] = d_thth, d_phph
    S[:, 0, 1] = S[:, 1, 0] = d_thph
    inner = np.einsum("aij,am->mij", S, T)
    S_perp = S - np.einsum("nl,lm,mij->nij", T, ginv, inner)
    H = np.einsum("ij,nij->n", ginv, S_perp)
    assert np.linalg.norm(H) == pytest.approx(2.0 / R, rel=1e-4)


def test_geodesic_cone_is_minimal(geodesic_domain):
    hi, _ = band_pair(geodesic_domain, 1.0)
    assert np.max(hi.h_norm) < 1e-5


def test_warped_geodesic_sphere_curvature(warped3):
    dom = Domain(sphere_patch(warped3, 0.8, cells=(6, 12)))
    hi, _ = dom.sites()
    target = 2.0 * math.cos(0.8) / math.sin(0.8)
    assert np.max(np.abs(hi.h_norm - target)) < 1e-9


# ---------------------------------------------------------------------------
# normal radial component
# ---------------------------------------------------------------------------

def test_perp_plane_through_pole(disk_domain):
    hi, _ = disk_domain.sites()
    assert np.max(hi.perp) < 1e-7


def test_perp_sphere_about_pole(sphere_domain):
    hi, _ = sphere_domain.sites()
    assert np.min(hi.perp) > 0.997  # faceting keeps it just below 1


def test_perp_tilted_plane_matches_d_over_r(tilted_disk_domain):
    hi, _ = tilted_disk_domain.sites()
    assert np.max(np.abs(hi.perp - 0.5 / hi.r)) < 1e-12


def test_pythagoras_identity_everywhere(disk_domain, sphere_domain,
                                        geodesic_domain, cap_domain,
                                        ball_domain_euclid):
    for dom in (disk_domain, sphere_domain, geodesic_domain, cap_domain,
                ball_domain_euclid):
        hi, _ = dom.sites()
        dev = np.abs(np.clip(hi.tan_sq, 0, 1) + hi.perp ** 2 - 1.0)
        assert np.max(dev) < 1e-12


# ---------------------------------------------------------------------------
# weighted integrals
# ---------------------------------------------------------------------------

def test_disk_area(disk_domain):
    q = weighted_integral(disk_domain, 1.0, 0.0)
    assert q.value == pytest.approx(math.pi, rel=2e-3)


def test_disk_inverse_radius(disk_domain):
    q = weighted_integral(disk_domain, 1.0, 1.0)
    assert q.value == pytest.approx(2 * math.pi, rel=2e-3)


def test_disk_cone_weighted(disk_domain):
    f = make_field("radial_power", (1.0,))
    q = weighted_integral(disk_domain, lambda b: b.psi, 1.0, field=f)
    assert q.value == pytest.approx(math.pi, rel=1e-3)


def test_patch_disk_integrals_exact(disk_patch_domain):
    assert weighted_integral(disk_patch_domain, 1.0, 0.0).value == \
        pytest.approx(math.pi, rel=1e-12)
    assert weighted_integral(disk_patch_domain, 1.0, 1.0).value == \
        pytest.approx(2 * math.pi, rel=1e-10)


def test_strong_singular_weight_against_radial_oracle(geodesic_domain):
    exact = 2 * math.pi * sint.quad(
        lambda r: math.cos(r) * math.sin(r) ** -0.5, 0.0, 0.5)[0]
    got = weighted_integral(geodesic_domain, 1.0, 1.5,
                            "h_power_times_hprime")
    assert got.value == pytest.approx(exact, rel=1e-4)


def test_weighted_integral_validation(disk_domain):
    with pytest.raises(NonIntegrableWeight):
        weighted_integral(disk_domain, 1.0, 2.0)  # gamma >= k at the pole
    with pytest.raises(InvalidArgument):
        weighted_integral(disk_domain, lambda b: -np.ones_like(b.r), 0.0)
    with pytest.raises(InvalidArgument):
        weighted_integral(disk_domain, 1.0, 0.0, "mystery_weight")


def test_mesh_in_an_ambient_of_another_dimension_is_refused():
    # the CLI derives the ambient's dimension; a library caller may not
    with pytest.raises(InvalidArgument,
                       match="3-d vertices in a 2-d ambient"):
        Domain(disk_mesh(1.0, rings=4), AmbientSpace.euclidean(2))


@pytest.mark.parametrize("name", ["disk_domain", "disk_patch_domain",
                                  "ball_domain_euclid"])
def test_sites_refuse_a_non_integrable_weight(request, name):
    dom = request.getfixturevalue(name)
    assert dom.through_pole
    for gamma in (dom.k, dom.k + 0.5):
        with pytest.raises(NonIntegrableWeight):
            dom.sites(gamma)


def test_pole_on_a_mesh_off_its_vertices_is_refused(euclid3):
    # an odd grid puts the pole on the diagonal edge of a flat graph mesh's
    # central square; a shifted disk puts it inside a cell
    flat = lambda x, y: 0.0 * x
    with pytest.raises(InvalidArgument, match="not at a vertex"):
        Domain(graph_mesh(flat, 1.0, 7), euclid3)
    with pytest.raises(InvalidArgument, match="not at a vertex"):
        Domain(disk_mesh(1.0, rings=4, center=(0.05, 0.02, 0.0)), euclid3)
    assert Domain(graph_mesh(flat, 1.0, 8), euclid3).through_pole


def test_chart_pole_inside_a_cell_is_refused(euclid3):
    # an odd cell count puts the pole at the centre of a cell, a node of
    # the low-order rule
    with pytest.raises(InvalidArgument, match="inside a chart cell"):
        Domain(plane_rect(euclid3, 1.0, cells=7))
    with pytest.raises(InvalidArgument, match="inside a chart cell"):
        Domain(poly_graph_patch(euclid3, {(2, 0): 0.25, (0, 2): -0.15},
                                cells=7))
    # any chart: the unit sphere about (1, 0, 0) meets the pole at
    # theta = pi / 2, phi = pi, inside a theta cell of seven and on a phi
    # grid line; a pole inside a solid ball or a flat disk off their grids
    with pytest.raises(InvalidArgument, match="inside a chart cell"):
        Domain(sphere_patch(euclid3, 1.0, (1.0, 0.0, 0.0), cells=(7, 16)))
    with pytest.raises(InvalidArgument, match="inside a chart cell"):
        Domain(ball_domain(AmbientSpace.euclidean(3, pole=(0.2, 0.1, 0.3)),
                           1.0, cells=(2, 2, 4)))
    with pytest.raises(InvalidArgument, match="inside a chart cell"):
        Domain(flat_disk_patch(AmbientSpace.euclidean(
            3, pole=(0.31, 0.17, 0.0)), 1.0, cells=(4, 8)))
    # at a grid corner, or off the surface, any count will do
    assert Domain(sphere_patch(euclid3, 1.0, (1.0, 0.0, 0.0),
                               cells=(8, 16))).through_pole
    assert not Domain(plane_rect(euclid3, 1.0, height=0.5,
                                 cells=7)).through_pole
    assert not Domain(flat_disk_patch(euclid3, 1.0, 0.5)).through_pole


def test_sphere_through_the_pole_is_a_polar_chart(euclid3):
    # the unit sphere about (0, 0, -1): its face theta = 0 maps to the pole
    dom = Domain(sphere_patch(euclid3, 1.0, center=(0.0, 0.0, -1.0)))
    assert dom.through_pole
    with pytest.raises(NonIntegrableWeight):
        weighted_integral(dom, 1.0, 2.5)
    # the area within distance r of a point on it is pi r^2 (Archimedes),
    # so the integral is 2 pi times that of r^-0.5 over [0, 2]
    got = weighted_integral(dom, 1.0, 1.5)
    assert abs(got.value - 4.0 * math.sqrt(2.0) * math.pi) <= got.err
    assert dom.grading[2].max_depth <= 4


def test_a_mesh_of_pole_cells_only(euclid3):
    # every cell of a one-ring disk has the pole as a corner, so above
    # band 0 the band tables are empty and the pole rule takes it all
    dom = Domain(disk_mesh(1.0, rings=1), euclid3)
    got = weighted_integral(dom, 1.0, 1.5)
    # the regular hexagon in the unit circle against r^-1.5
    apothem = math.cos(math.pi / 6)
    true = 24.0 * sint.quad(lambda phi: (apothem / math.cos(phi)) ** 0.5,
                            0.0, math.pi / 6)[0]
    assert abs(true - got.value) <= got.err
    assert dom.grading[2].pieces == 0


def test_offset_domain_allows_large_exponent(tilted_disk_domain):
    q = weighted_integral(tilted_disk_domain, 1.0, 3.0)
    exact = sint.quad(lambda rho: 2 * math.pi * rho
                      * (rho ** 2 + 0.25) ** -1.5, 0.0, 1.0)[0]
    assert q.value == pytest.approx(exact, rel=1e-3)


# ---------------------------------------------------------------------------
# boundary integrals
# ---------------------------------------------------------------------------

def test_disk_boundary_flux(disk_domain):
    q = boundary_integral(disk_domain, 1.0, -1.0, with_radial_conormal=True)
    assert q.value == pytest.approx(2 * math.pi, rel=2e-3)


def test_vanishing_field_boundary_zero(disk_domain):
    f = make_field("radial_power", (1.0,))
    q = boundary_integral(disk_domain, lambda b: np.abs(b.psi), 0.0, field=f)
    assert q.value == 0.0


def test_hemisphere_conormal_orthogonal(euclid3):
    dom = Domain(sphere_patch(euclid3, 1.0, theta_range=(0.0, math.pi / 2),
                              cells=(6, 12)))
    q = boundary_integral(dom, 1.0, 0.0, with_radial_conormal=True)
    assert abs(q.value) < 1e-12


def test_closed_surface_boundary_warns(sphere_domain):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = boundary_integral(sphere_domain, 1.0, 0.0)
    assert q.value == 0.0
    assert any("closed" in str(w.message) for w in caught)


def test_flat_disk_divergence_identity_fine(euclid3):
    # k * vol(M) = boundary integral of r <grad r, nu> at ~1e4 cells
    dom = Domain(disk_mesh(1.0, rings=41), euclid3)
    lhs = 2.0 * weighted_integral(dom, 1.0, 0.0).value
    rhs = boundary_integral(dom, 1.0, -1.0, with_radial_conormal=True).value
    assert lhs == pytest.approx(2 * math.pi, rel=1e-3)
    assert abs(lhs - rhs) / rhs < 1e-3


# ---------------------------------------------------------------------------
# pole placement and mesh input
# ---------------------------------------------------------------------------

def test_pole_inside_cell_rejected(euclid3):
    mesh = disk_mesh(1.0, rings=4, center=(0.02, 0.01, 0.0))
    with pytest.raises(InvalidArgument):
        Domain(mesh, euclid3)


def test_mesh_io_roundtrip(tmp_path, euclid3):
    mesh = disk_mesh(0.8, rings=4)
    path = tmp_path / "disk.mesh"
    write_mesh(mesh, path)
    loaded = read_mesh(path)
    assert np.allclose(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.cells, mesh.cells)
    assert np.array_equal(np.sort(loaded.boundary_facets, axis=None),
                          np.sort(mesh.boundary_facets, axis=None))


def test_mesh_refinement_nests_disk(euclid3):
    mesh = disk_mesh(1.0, rings=4)
    fine = mesh.refine()
    assert len(fine.cells) == 4 * len(mesh.cells)
    dom = Domain(fine, euclid3)
    # the refined rim interpolates the original 24-gon chords, so the area
    # sits between the 24-gon and the true disk
    assert weighted_integral(dom, 1.0, 0.0).value == pytest.approx(
        math.pi, rel=4e-3)


# ---------------------------------------------------------------------------
# comparison margin
# ---------------------------------------------------------------------------

def test_margin_flat_plane_alpha_zero(disk_domain):
    margins = comparison_margin(disk_domain, 0.0, 1.001)
    assert np.max(np.abs(margins)) < 1e-10


def test_margin_sphere_alpha_zero(sphere_domain):
    margins = comparison_margin(sphere_domain, 0.0, 1.001)
    assert np.min(margins) > -1e-6


def test_margin_tilted_patch_fractional(tilted_disk_domain):
    margins = comparison_margin(tilted_disk_domain, 1.5, 1.2)
    assert np.min(margins) > -1e-6


def test_margin_requires_ball(tilted_disk_domain):
    with pytest.raises(PreconditionViolated):
        comparison_margin(tilted_disk_domain, 0.5, 0.3)


def test_margin_equality_configuration_refinement(warped3):
    from cknlab.geometry import geodesic_disk
    dom = Domain(geodesic_disk(warped3, 0.5, cells=(4, 8)))
    worst = []
    for _ in range(3):
        margins = comparison_margin(dom, 1.2, 0.55)
        worst.append(float(np.max(np.abs(margins))))
        dom = dom.refined()
    assert all(w < 1e-10 for w in worst)  # equality case sits at roundoff


# ---------------------------------------------------------------------------
# field reconstruction
# ---------------------------------------------------------------------------

def test_constant_field_gradient_zero(disk_domain):
    f = make_field("polynomial", (3.0, 0, 0, 0, 0, 0),
                   boundary_vanishing=False)
    bf = disk_domain.bind(f)
    assert np.max(bf.cell_grad_norm) < 1e-12


def test_linear_field_gradient_exact(disk_domain):
    f = make_field("polynomial", (0.0, 1.0, 0, 0, 0, 0),
                   boundary_vanishing=False)
    bf = disk_domain.bind(f)
    # psi = x / scale on a unit disk: scale = 1, in-plane gradient norm 1
    assert np.allclose(bf.cell_grad_norm, 1.0, atol=1e-10)


def test_domain_keeps_no_binding(euclid3):
    dom = Domain(disk_mesh(1.0, rings=2), euclid3)
    family = make_field("radial_power", (1.0,))
    refs = []
    for i in range(1000):
        bound = dom.bind(family.with_dof((1.0 + i / 1000,)))
        dom.sites(0.0, bound)
        refs.append(weakref.ref(bound))
    del bound
    assert [ref() for ref in refs] == [None] * len(refs)
    # a binding passes through its own domain and binds afresh elsewhere
    bound = dom.bind(family)
    assert dom.bind(bound) is bound
    other = Domain(disk_mesh(1.0, rings=2), euclid3)
    assert other.bind(bound).domain is other


def test_rectangle_chart_corner_singularity(euclid3):
    # pole at an interior grid corner of a plane chart: the Kuhn triangles
    # at it must resolve the 1/r weight
    dom = Domain(plane_rect(euclid3, 1.0, 0.0, cells=8))
    assert dom.through_pole
    got = weighted_integral(dom, 1.0, 1.0).value
    # polar reduction: 8 * integral of sec over [0, pi/4]
    exact = 8.0 * math.log(1.0 + math.sqrt(2.0))
    assert got == pytest.approx(exact, rel=1e-6)


def test_poly_graph_patch_curvature(euclid3):
    dom = Domain(poly_graph_patch(euclid3, {(2, 0): 0.5, (0, 2): 0.5},
                                  half_width=0.4, cells=6))
    hi, _ = dom.sites()
    # graph z = (x^2 + y^2)/2: |H| = (2 + x^2 + y^2) / (1 + x^2 + y^2)^(3/2)
    x, y = hi.points[:, 0], hi.points[:, 1]
    rho2 = x ** 2 + y ** 2
    expect = (2.0 + rho2) / (1.0 + rho2) ** 1.5
    assert np.max(np.abs(hi.h_norm - expect)) < 1e-10


@pytest.mark.parametrize("height", [0.0, 0.5, -0.3])
def test_plane_rect_jet_is_the_flat_rectangle(euclid3, height):
    # plane_rect is built as the graph of the constant height; its jet is
    # still (s, t, height), the identity frame and no curvature, bit for bit
    U = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 2))
    rect = plane_rect(euclid3, 1.0, height)
    F, dF, d2F = rect.jet(U)
    assert np.array_equal(F, np.column_stack([U, np.full(len(U), height)]))
    assert np.array_equal(dF, np.broadcast_to(np.eye(3, 2), dF.shape))
    assert np.array_equal(d2F, np.zeros((len(U), 3, 2, 2)))
    assert rect.metadata == {"generator": "plane_rect", "half_width": 1.0,
                             "height": height, "center_xy": (0.0, 0.0)}


def test_mean_curvature_vector_helper(sphere_domain):
    mesh = sphere_domain.mesh
    vecs = mesh.vertex_mean_curvature()
    # vectors point inward on the sphere about the pole
    inward = -np.einsum("vn,vn->v", vecs, mesh.vertices)
    assert np.all(inward > 0)
