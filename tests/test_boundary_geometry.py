"""Boundary measures, conormals and the support radius against closed forms.

Chart boundary tables take the face measure and the radial conormal product
from the inverse metric; mesh conormals are the normalized gradients of the
barycentric coordinate opposite each boundary facet.  The checks below hold
on any correct construction: the rims' lengths and areas, a conormal equal
to the radial direction on rims centred at the pole, unit conormals
orthogonal to their facets, and invariance of the boundary terms when the
domain and its pole move together.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import inequalities as iq
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    SimplicialMesh,
    ball_domain,
    boundary_integral,
    disk_mesh,
    flat_disk_patch,
    geodesic_disk,
    graph_mesh,
    poly_graph_patch,
    sphere_patch,
)
from cknlab.geometry.fields import make_field
from cknlab.geometry.mesh import detect_boundary

# -- chart boundaries ---------------------------------------------------------


def _rims(euclid, warped3):
    """name -> (domain, total boundary measure)."""
    t0, t1 = math.pi / 6, math.pi / 2
    h = warped3.h_values(np.array([0.5]))[0][0]
    return {
        "flat_disk": (Domain(flat_disk_patch(euclid, 1.3, cells=(4, 8))),
                      2.0 * math.pi * 1.3),
        "cap": (Domain(sphere_patch(euclid, 1.0, theta_range=(0.0, 1.0),
                                    cells=(4, 8))),
                2.0 * math.pi * math.sin(1.0)),
        "zone": (Domain(sphere_patch(euclid, 1.3, theta_range=(t0, t1),
                                     cells=(4, 8))),
                 2.0 * math.pi * 1.3 * (math.sin(t0) + math.sin(t1))),
        "ball": (Domain(ball_domain(euclid, 0.8, cells=(2, 8, 8))),
                 4.0 * math.pi * 0.8 ** 2),
        "geodesic_disk": (Domain(geodesic_disk(warped3, 0.5, cells=(4, 8))),
                          2.0 * math.pi * h),
    }


@pytest.mark.parametrize("name", ["flat_disk", "cap", "zone", "ball",
                                  "geodesic_disk"])
def test_boundary_density_sums_to_the_rim_measure(euclid3, warped3, name):
    domain, measure = _rims(euclid3, warped3)[name]
    hi, _ = domain.boundary_sites()
    assert abs(np.sum(hi.density) - measure) <= 1e-12 * measure


@pytest.mark.parametrize("name", ["flat_disk", "ball", "geodesic_disk"])
def test_radial_conormal_is_one_on_rims_centred_at_the_pole(euclid3, warped3,
                                                            name):
    domain, _ = _rims(euclid3, warped3)[name]
    for table in domain.boundary_sites():
        np.testing.assert_allclose(table.conormal_dot, 1.0, rtol=0,
                                   atol=1e-12)


def test_boundary_sites_lie_outside_the_vanishing_support(euclid3):
    # the face samples miss the closest boundary point of this tilted graph
    # (r = 1.0607 at x = +-1, y = -1/4); a boundary-vanishing radial field
    # must vanish at every boundary site
    domain = Domain(poly_graph_patch(euclid3, {(0, 0): 0.5, (0, 1): 1.0}))
    bound = domain.bind(make_field("radial_power", (1.0,)))
    assert bound.support_r < 1.0610
    for table in domain.boundary_sites():
        assert np.all(bound._f(table.r) == 0.0)


# -- mesh conormals -----------------------------------------------------------

def _mesh(vertices, cells):
    cells = np.asarray(cells)
    return SimplicialMesh(np.asarray(vertices, float), cells,
                          detect_boundary(cells))


def _skewed_tetrahedra():
    # a sheared 2 x 1 x 1 block of Kuhn tetrahedra, and one skewed tetrahedron
    # with a facet in z = 0 whose edges are far from orthogonal
    shape = (3, 2, 2)
    grid = np.stack(np.indices(shape).reshape(3, -1), axis=1).astype(float)
    shear = np.array([[1.0, 0.0, 0.0], [0.7, 1.0, 0.0], [-0.4, 0.5, 1.0]])
    cells = []
    for corner in np.ndindex(2, 1, 1):
        for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                     (2, 1, 0)]:
            at, path = np.array(corner), [corner]
            for axis in perm:
                at = at + np.eye(3, dtype=int)[axis]
                path.append(tuple(at))
            cells.append([np.ravel_multi_index(p, shape) for p in path])
    return {"sheared_block": _mesh(grid @ shear, cells),
            "skewed_tetrahedron": _mesh(
                [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.9, 0.3, 0.0],
                 [0.2, 0.4, 0.8]], [[0, 1, 2, 3]])}


def _conormal_meshes():
    t = np.linspace(0.0, 1.0, 9)
    polyline = _mesh(np.stack([t, t * t, np.sin(t)], axis=1),
                     np.stack([np.arange(8), np.arange(1, 9)], axis=1))
    return {
        "disk_mesh": disk_mesh(1.0, rings=4, center=(0.1, 0.0, 0.3)),
        "graph_mesh": graph_mesh(lambda x, y: 0.3 * x * x - 0.2 * x * y,
                                 1.0, 6),
        "polyline": polyline,
        **_skewed_tetrahedra(),
    }


@pytest.mark.parametrize("name", ["disk_mesh", "graph_mesh", "polyline",
                                  "sheared_block", "skewed_tetrahedron"])
def test_mesh_conormals_are_unit_outward_and_orthogonal_to_the_facet(name):
    mesh = _conormal_meshes()[name]
    nu = mesh.boundary_conormals()
    owners = mesh.boundary_owners()
    facets = mesh.vertices[mesh.boundary_facets]              # (B, k, n)
    np.testing.assert_allclose(np.linalg.norm(nu, axis=1), 1.0, rtol=0,
                               atol=1e-14)
    edges = facets[:, 1:] - facets[:, :1]
    assert np.max(np.abs(np.einsum("bjn,bn->bj", edges, nu)),
                  initial=0.0) <= 1e-14
    # in the owning cell's plane, away from the vertex opposite the facet
    frames = mesh.cell_frames()[owners]
    in_plane = np.einsum("bkn,bk->bn", frames,
                         np.einsum("bkn,bn->bk", frames, nu))
    assert np.max(np.abs(in_plane - nu)) <= 1e-14
    cells = mesh.cells[owners]
    opposite = np.array([np.setdiff1d(c, f)[0] for c, f
                         in zip(cells, mesh.boundary_facets)])
    away = np.einsum("bn,bn->b", facets.mean(axis=1)
                     - mesh.vertices[opposite], nu)
    assert np.all(away > 0.0)


# -- rigid motions ------------------------------------------------------------

def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


_FIELD = make_field("radial_power", (2.0,), boundary_vanishing=False)
_SIGNED = {"p": 1.5, "gamma": 0.5}
_POLE = np.array([0.2, -0.1, 0.3])


def _boundary_terms(domain):
    """The signed radial boundary integral and a ``hardy_signed`` report."""
    flux = boundary_integral(domain, lambda b: b.psi, 0.5,
                             with_radial_conormal=True, field=_FIELD)
    return flux.value, iq.evaluate("hardy_signed", domain, _FIELD, _SIGNED)


def _assert_same_terms(got, want):
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    a, b = got[1], want[1]
    assert a.satisfied == b.satisfied
    assert a.rhs_terms["boundary_term"] != 0.0
    for terms in ("lhs_terms", "rhs_terms"):
        for name, value in getattr(b, terms).items():
            assert getattr(a, terms)[name] == pytest.approx(
                value, rel=1e-10, abs=1e-14), name
    for name in ("lhs_total", "rhs_total", "ratio"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10)


_DISK = disk_mesh(1.0, rings=4)


@functools.cache
def _disk_terms():
    return _boundary_terms(Domain(_DISK, AmbientSpace.euclidean(3, _POLE)))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_disk_mesh_boundary_terms_survive_a_rigid_motion(q, shift):
    rot, shift = _rotation(q), np.array(shift)
    meta = dict(_DISK.metadata)
    meta["center"] = rot @ meta["center"] + shift
    meta["axes"] = meta["axes"] @ rot.T
    moved = SimplicialMesh(_DISK.vertices @ rot.T + shift, _DISK.cells,
                           _DISK.boundary_facets, metadata=meta)
    ambient = AmbientSpace.euclidean(3, rot @ _POLE + shift)
    _assert_same_terms(_boundary_terms(Domain(moved, ambient)), _disk_terms())


def _cap(shift):
    ambient = AmbientSpace.euclidean(3, _POLE + shift)
    return Domain(sphere_patch(ambient, 1.0, center=shift,
                               theta_range=(0.0, 1.2), cells=(4, 8)))


@functools.cache
def _cap_terms():
    return _boundary_terms(_cap(np.zeros(3)))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_sphere_patch_boundary_terms_survive_a_translation(shift):
    _assert_same_terms(_boundary_terms(_cap(np.array(shift))), _cap_terms())
