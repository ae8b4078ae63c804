"""Stacked domain construction against per-item references.

The two-ring curvature fit runs in stacked vertex blocks and the chart site
columns come from ``@`` chains with a closed-form inverse; both reorder the
arithmetic of the per-vertex loop and of the ``einsum`` contractions kept
here as test-only references, so they agree to roundoff
(``rtol = 1e-10``, ``atol = 1e-12 * scale``).  ``perp`` is computed
differently on purpose: as the norm of the radial direction's normal part,
not as ``sqrt(1 - |tangential part|^2)``, which leaves ``sqrt(eps)`` of
noise where the radial direction is tangent.  The chart sites take the
ambient connection contracted with the chart basis; the reference builds the
full symbol and contracts it.  Both take the mean curvature's normal part
by projecting twice, the sites after tracing, the reference before: on a
totally geodesic chart through the pole the trace grows like ``1 / r``, and
the second projection keeps ``|H|`` within roundoff of its exact 0.

The fit solves normal equations where the per-vertex reference calls lstsq,
and both take the minimum-norm fit where a stencil leaves the quadratic
undetermined.  The mesh generators and the midpoint refinement build their
arrays without per-vertex loops and must equal, bit for bit, the loop
generators kept here.  The mesh topology (boundary facets and their owning
cells) comes from sorted facet rows and must equal the dict-based reference
kept here, and a weight
band above 0 must read the rows of the cells it keeps whole in band 0's
tables and compute only its graded pieces.
"""

import math
import re
from dataclasses import fields as dc_fields
from itertools import combinations

import numpy as np
import pytest

from cknlab.corpus import corpus_geometries
from cknlab.errors import InsufficientStencil, InvalidArgument
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    SimplicialMesh,
    disk_mesh,
    flat_disk_patch,
    graph_mesh,
    plane_rect,
    poly_graph_patch,
    sphere_mesh,
    sphere_patch,
)
from cknlab.geometry.domain import SiteBatch, _adjugate_and_det
from cknlab.geometry.fields import make_field
from cknlab.geometry import mesh as mesh_module
from cknlab.geometry.mesh import detect_boundary, read_mesh
from cknlab.quadrature import simplex_rule
from geometry_checks import (
    band_pair,
    band_tables,
    chart_clamp,
    chart_column_lengths,
)


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# the curvature fit
# ---------------------------------------------------------------------------

def ref_vertex_rings(mesh):
    one = [set() for _ in range(len(mesh.vertices))]
    for cell in mesh.cells:
        for a in cell:
            one[a].update(int(b) for b in cell if b != a)
    two = []
    for v, ring in enumerate(one):
        acc = set(ring)
        for w in ring:
            acc.update(one[w])
        acc.discard(v)
        two.append(acc)
    return one, two


def ref_vertex_mean_curvature(mesh):
    """The per-vertex fit: one svd, one lstsq and one inv per vertex."""
    k, n = mesh.k, mesh.n
    one_ring, rings = ref_vertex_rings(mesh)
    ncols = 1 + k + k * (k + 1) // 2
    out = np.zeros((len(mesh.vertices), n))
    for v, ring in enumerate(rings):
        ring = set(ring)
        grown = 0
        while len(ring) < ncols and grown < 3:
            extra = set()
            for w in ring:
                extra.update(one_ring[w])
            extra.discard(v)
            if extra <= ring:
                break
            ring |= extra
            grown += 1
        nbrs = np.fromiter(ring, int)
        disp = mesh.vertices[nbrs] - mesh.vertices[v]
        _, _, vt = np.linalg.svd(disp, full_matrices=True)
        tan, nor = vt[:k], vt[k:]
        t = disp @ tan.T
        w = disp @ nor.T
        cols = [np.ones(len(nbrs))]
        cols.extend(t[:, i] for i in range(k))
        cols.extend(t[:, i] * t[:, j] for i in range(k) for j in range(i, k))
        coef, *_ = np.linalg.lstsq(np.stack(cols, axis=1), w, rcond=None)
        grad = coef[1:1 + k]
        quad = np.zeros((n - k, k, k))
        pos = 1 + k
        for i in range(k):
            for j in range(i, k):
                for m in range(n - k):
                    if i == j:
                        quad[m, i, i] = 2.0 * coef[pos, m]
                    else:
                        quad[m, i, j] = coef[pos, m]
                        quad[m, j, i] = coef[pos, m]
                pos += 1
        ginv = np.linalg.inv(np.eye(k) + grad @ grad.T)
        tangents = tan + grad @ nor
        second = np.einsum("mij,mn->ijn", quad, nor)
        proj = second - np.einsum("ijn,lm,ln,mo->ijo",
                                  second, ginv, tangents, tangents)
        out[v] = np.einsum("ij,ijn->n", ginv, proj)
    return out


CORPUS_MESHES = ("disk_pole", "disk_offset", "disk_tilted", "sphere_pole",
                 "sphere_offset", "graph_patch")


@pytest.mark.parametrize("name", CORPUS_MESHES)
def test_fit_matches_per_vertex_reference_on_corpus_meshes(name):
    mesh = corpus_geometries()[name]().mesh
    _close(mesh.vertex_mean_curvature(), ref_vertex_mean_curvature(mesh))


def test_fit_matches_per_vertex_reference_across_blocks():
    # 5167 vertices: the interior stencil size alone spans several blocks
    mesh = disk_mesh(1.0, rings=41, center=(0.0, 0.0, 0.2),
                     axes=[[math.cos(0.3), 0.0, math.sin(0.3)],
                           [0.0, 1.0, 0.0]])
    _close(mesh.vertex_mean_curvature(), ref_vertex_mean_curvature(mesh))


@pytest.mark.parametrize("name", CORPUS_MESHES + ("disk_41_rings",))
def test_stencil_dedup_matches_np_unique(monkeypatch, name):
    """The CSR stencils sort and mask their pairs; np.unique is the
    reference, on every pair array the one-ring and the widening pass."""
    mesh = (disk_mesh(1.0, rings=41) if name == "disk_41_rings"
            else corpus_geometries()[name]().mesh)
    fresh = SimplicialMesh(mesh.vertices, mesh.cells, mesh.boundary_facets)
    real, sizes = mesh_module._distinct, []

    def checked(pairs):
        out = real(pairs)
        assert np.array_equal(out, np.unique(pairs))
        sizes.append(len(pairs))
        return out

    monkeypatch.setattr(mesh_module, "_distinct", checked)
    fresh.vertex_mean_curvature()
    # the one-ring, one block's widening and the two-ring, at least
    assert len(sizes) >= 3 and min(sizes) > 0


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5)])
@pytest.mark.parametrize("rings", [8, 10, 16, 41])
def test_fit_is_exactly_zero_on_coordinate_plane_disks(rings, center):
    # the scatter's eigenvectors are the coordinate axes bit for bit, so
    # the normal displacements and the fitted quadratic vanish exactly
    got = disk_mesh(1.0, rings=rings, center=center).vertex_mean_curvature()
    assert np.array_equal(got, np.zeros_like(got))


def test_conic_stencil_fits_through_the_vertex(monkeypatch):
    # a one-ring hexagon lifted onto a sphere cap: the centre's neighbours
    # lie on one circle, so its design matrix has rank 5 of 6
    disk = disk_mesh(1.0, rings=1)
    radius = 2.0
    lifted = disk.vertices.copy()
    lifted[:, 2] = radius - np.sqrt(radius ** 2 - lifted[:, 0] ** 2
                                    - lifted[:, 1] ** 2)
    mesh = SimplicialMesh(lifted, disk.cells, disk.boundary_facets)
    real, pinv_rows = np.linalg.pinv, []

    def counting(a, **kwargs):
        pinv_rows.append(len(a))
        return real(a, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    got = mesh.vertex_mean_curvature()
    assert pinv_rows == [1]
    # the graph through the centre with constant term 0 is dz (x^2 + y^2),
    # dz = 2 - sqrt(3) the neighbours' height: trace 4 dz
    centre = np.all(disk.vertices == 0.0, axis=1)
    assert centre.sum() == 1
    assert abs(np.linalg.norm(got[centre]) - 4.0 * (2.0 - math.sqrt(3.0))
               ) <= 1e-12
    np.testing.assert_allclose(got[~centre],
                               ref_vertex_mean_curvature(mesh)[~centre],
                               rtol=0.0, atol=1e-12)
    # the flat hexagon's centre takes the same fit and reads exactly 0
    flat = disk.vertex_mean_curvature()
    assert pinv_rows == [1, 1]
    assert np.array_equal(flat, np.zeros_like(flat))


def test_fit_matches_on_a_refined_sphere():
    mesh = sphere_mesh(1.0, level=1)
    _close(mesh.vertex_mean_curvature(), ref_vertex_mean_curvature(mesh))


def test_icosahedron_is_too_coarse_for_the_fit():
    # its two-ring holds 10 of the 12 vertices, whose displacements point
    # mostly along the normal
    with pytest.raises(InsufficientStencil, match="sphere mesh"):
        sphere_mesh(1.0, level=0).vertex_mean_curvature()


def test_short_stencil_is_refused():
    mesh = graph_mesh(lambda x, y: 0.2 * x * x, 1.0, divisions=1)
    with pytest.raises(InsufficientStencil,
                       match="graph mesh: vertex 0 has 3"):
        mesh.vertex_mean_curvature()
    # a vertex in no cell has an empty stencil
    disk = disk_mesh(1.0, rings=4, center=(0.0, 0.0, 0.3))
    mesh = SimplicialMesh(np.vstack([disk.vertices, [[5.0, 5.0, 5.0]]]),
                          disk.cells, disk.boundary_facets)
    with pytest.raises(InsufficientStencil, match="vertex 61 has 0"):
        mesh.vertex_mean_curvature()


# ---------------------------------------------------------------------------
# chart sites
# ---------------------------------------------------------------------------

def ref_christoffels(amb, pts):
    """The full connection symbol (m, n, n, n), indexed [point, upper, a,
    b], from five 4-index einsums; zero on a Euclidean ambient."""
    m, n = pts.shape
    if amb.kind == "euclidean":
        return np.zeros((m, n, n, n))
    d = pts - amb.pole
    r = np.linalg.norm(d, axis=1)
    u = d / r[:, None]
    h, hp = amb.warp.h(r), amb.warp.h_prime(r)
    phi = h / r
    a = phi * (hp * r - h) / r ** 2
    b = (1.0 - phi ** 2) / r
    eye = np.eye(n)
    uu = np.einsum("ia,ib->iab", u, u)
    low = (a[:, None, None, None]
           * (np.einsum("ia,cb->icab", u, eye)
              + np.einsum("ib,ca->icab", u, eye)
              - np.einsum("ic,ab->icab", u, eye)
              - np.einsum("ia,ib,ic->icab", u, u, u))
           + b[:, None, None, None] * np.einsum("ic,iab->icab", u, eye - uu))
    # g^{dc} = phi^-2 delta + (1 - phi^-2) u u
    inv_diag = phi ** -2
    return (inv_diag[:, None, None, None] * low
            + np.einsum("id,ic,icab->idab", u,
                        (1.0 - inv_diag)[:, None] * u, low))


def ref_patch_batch(domain, U):
    """The einsum contractions, with np.linalg.inv and det, unit rule."""
    patch, amb = domain.patch, domain.ambient
    F, dF, d2F = patch.jet(U)
    G = amb.metric_matrix(F)
    g = np.einsum("sai,sab,sbj->sij", dF, G, dF)
    det = np.linalg.det(g)
    dens = np.sqrt(det)
    colnorm = np.sqrt(np.einsum("sii->si", g))
    dFn = dF / colnorm[:, None, :]
    gn = g / (colnorm[:, :, None] * colnorm[:, None, :])
    ginv = np.linalg.inv(gn)
    r = amb.radius(F)
    d = F - amb.pole
    dr = np.einsum("sa,sai->si", d, dFn) / np.where(r > 0, r, 1.0)[:, None]
    tan_sq = np.einsum("si,sij,sj->s", dr, ginv, dr)
    perp = np.sqrt(np.clip(1.0 - tan_sq, 0.0, 1.0))
    if patch.k == domain.n:
        h_norm = np.zeros(len(U))
        perp = np.zeros(len(U))
        tan_sq = np.ones(len(U))
    else:
        gam = ref_christoffels(amb, F)
        S = d2F + np.einsum("scab,sai,sbj->scij", gam, dF, dF)
        S = S / (colnorm[:, None, :, None] * colnorm[:, None, None, :])
        # the normal part, projected twice as the program does
        for _ in range(2):
            inner = np.einsum("saij,sab,sbm->smij", S, G, dFn)
            S = S - np.einsum("snl,slm,smij->snij", dFn, ginv, inner)
        Hvec = np.einsum("sij,snij->sn", ginv, S)
        h_norm = np.sqrt(np.maximum(
            np.einsum("sn,snm,sm->s", Hvec, G, Hvec), 0.0))
    return {"points": F, "density": dens, "r": r, "tan_sq": tan_sq,
            "perp": perp, "h_norm": h_norm, "dF": dFn,
            "chart_colnorm": colnorm, "metric_ginv": ginv}


def ref_at_sites(bound, batch, U):
    """``BoundField.at_sites`` of a planar field on a chart, by einsum, with
    the clamp taken in the chart coordinates ``U`` of the sites."""
    psi, amb_grad = bound._planar(batch.points)
    dpsi = np.einsum("sa,sai->si", amb_grad, batch.dF)
    if bound._clamp is not None:
        cval, cgrad = chart_clamp(bound.domain.metadata)(U)
        dpsi = (dpsi * cval[:, None] + psi[:, None] * cgrad
                / chart_column_lengths(bound.domain, U))
        psi = psi * cval
    grad = np.sqrt(np.maximum(
        np.einsum("si,sij,sj->s", dpsi, batch.metric_ginv, dpsi), 0.0))
    amp = bound.field.amplitude
    return amp * psi, abs(amp) * grad


def _charts(warped3):
    euclid = AmbientSpace.euclidean(3)
    corpus = corpus_geometries()
    charts = {name: corpus[name] for name in
              ("disk_patch", "cap", "zone", "geodesic_disk", "ball",
               "ball_warped")}
    charts.update({
        "plane_rect": lambda: Domain(plane_rect(euclid, 1.0, cells=8)),
        "poly_graph": lambda: Domain(poly_graph_patch(
            euclid, {(2, 0): 0.25, (0, 2): -0.15}, cells=8)),
        "cap_warped": lambda: Domain(sphere_patch(
            warped3, 0.4, theta_range=(0.0, 1.0), cells=(4, 8))),
    })
    return charts


CHARTS = ("disk_patch", "cap", "zone", "geodesic_disk", "ball", "ball_warped",
          "plane_rect", "poly_graph", "cap_warped")
# charts through the pole on a totally geodesic surface: the radial
# direction is tangent at every site
FLAT_THROUGH_POLE = ("disk_patch", "geodesic_disk", "plane_rect")


def _chart_points(domain):
    """The chart points of band 0's tables, of a band above it and of the
    pole's, each table's as the domain's builders lay them out."""
    gamma = 1.5 if domain.through_pole else 2.5
    points = []
    build = domain._patch_batch

    def recording(U, rule_dens):
        points.append(U)
        return build(U, rule_dens)

    domain._patch_batch = recording
    try:
        domain.sites(0.0) + domain.sites(gamma)
    finally:
        del domain._patch_batch
    assert points, "the domain had built its tables already"
    return points


@pytest.mark.parametrize("name", CHARTS)
def test_patch_sites_match_einsum_reference(warped3, name):
    domain = _charts(warped3)[name]()
    U = np.concatenate(_chart_points(domain))
    got, colnorm = domain._patch_batch(U, np.ones(len(U)))
    want = ref_patch_batch(domain, U)
    _close(colnorm, want.pop("chart_colnorm"))
    for column, value in want.items():
        if column != "perp":
            _close(getattr(got, column), value)
    # perp^2 = 1 - tan_sq, whichever way it is taken
    np.testing.assert_allclose(got.perp ** 2, want["perp"] ** 2, rtol=0,
                               atol=1e-14)
    if name in FLAT_THROUGH_POLE:
        assert np.max(want["perp"]) > 1e-9
        assert np.max(got.perp) <= 1e-15
        assert np.max(got.h_norm) <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_connection_contracts_the_full_symbol(warped3, k):
    rng = np.random.default_rng(k)
    x = rng.standard_normal((300, 3))
    pts = x / np.linalg.norm(x, axis=1)[:, None] * rng.uniform(
        0.01, 1.4, (300, 1))
    frame = rng.standard_normal((300, 3, k))
    want = np.einsum("scab,sai,sbj->scij", ref_christoffels(warped3, pts),
                     frame, frame)
    np.testing.assert_allclose(warped3.connection(pts, frame), want, rtol=0,
                               atol=1e-12)
    euclid = AmbientSpace.euclidean(3, pole=(0.2, -0.1, 0.3))
    assert np.array_equal(euclid.connection(pts, frame),
                          np.zeros((300, 3, k, k)))


@pytest.mark.parametrize("name", ["disk_patch", "cap", "cap_warped",
                                  "poly_graph"])
def test_planar_field_matches_einsum_reference(warped3, name):
    domain = _charts(warped3)[name]()
    points = _chart_points(domain)
    for vanishing in (False, True):
        field = make_field("polynomial",
                           [0.3, -0.7, 0.5, 1.1, -0.4, 0.8],
                           boundary_vanishing=vanishing).scaled(1.7)
        bound = domain.bind(field)
        for U in points:
            batch = domain._patch_batch(U, np.ones(len(U)))[0]
            for got, want in zip(bound.at_sites(batch),
                                 ref_at_sites(bound, batch, U)):
                _close(got, want)


@pytest.mark.parametrize("symmetric", [True, False], ids=["spd", "general"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_inverse_and_determinant(k, symmetric):
    rng = np.random.default_rng(k)
    B = rng.standard_normal((500, k, k))
    a = (B @ B.swapaxes(1, 2) + 0.1 * np.eye(k) if symmetric
         else B + 3.0 * np.eye(k))
    adj, det = _adjugate_and_det(a)
    np.testing.assert_allclose(det, np.linalg.det(a), rtol=1e-12)
    inv = np.linalg.inv(a)
    np.testing.assert_allclose(adj / det[:, None, None], inv, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(inv)))


def test_zero_chart_column_is_refused_before_dividing(euclid3):
    domain = Domain(flat_disk_patch(euclid3, 1.0, cells=(4, 8)))
    # rho = 0: the angular column of the polar chart vanishes
    with np.errstate(all="raise"), pytest.raises(InvalidArgument,
                                                 match="degenerate chart"):
        domain._patch_batch(np.array([[0.5, 0.5], [0.0, 0.5]]), np.ones(2))


@pytest.mark.parametrize("geometry", ["flat_disk_patch", "disk_mesh"])
def test_perp_vanishes_on_flat_domains_through_the_pole(euclid3, geometry):
    domain = Domain(flat_disk_patch(euclid3, 1.0, cells=(8, 16))
                    if geometry == "flat_disk_patch"
                    else disk_mesh(1.0, rings=8), euclid3)
    assert domain.through_pole
    for gamma in (0.0, 1.5):
        for batch in domain.sites(gamma):
            assert np.max(batch.perp) <= 1e-15


# ---------------------------------------------------------------------------
# mesh generators
# ---------------------------------------------------------------------------

def ref_disk_plane(radius, rings):
    """Planar vertices and cells of ``disk_mesh``, built point by point and
    merged ring by ring."""
    ring_ids = [[0]]
    plane_pts = [(0.0, 0.0)]
    for j in range(1, rings + 1):
        ids = []
        rr = radius * j / rings
        for i in range(6 * j):
            th = 2.0 * math.pi * i / (6 * j)
            ids.append(len(plane_pts))
            plane_pts.append((rr * math.cos(th), rr * math.sin(th)))
        ring_ids.append(ids)
    cells = []
    for j in range(1, rings + 1):
        inner, outer = ring_ids[j - 1], ring_ids[j]
        if j == 1:
            for i in range(6):
                cells.append([inner[0], outer[i], outer[(i + 1) % 6]])
            continue
        ni, no = len(inner), len(outer)
        ai = [2.0 * math.pi * i / ni for i in range(ni)]
        ao = [2.0 * math.pi * i / no for i in range(no)]
        i1 = i2 = 0
        for _ in range(ni + no):
            next_i = ai[(i1 + 1) % ni] + (2 * math.pi if i1 + 1 >= ni else 0)
            next_o = ao[(i2 + 1) % no] + (2 * math.pi if i2 + 1 >= no else 0)
            if next_o <= next_i:
                cells.append([inner[i1 % ni], outer[i2 % no],
                              outer[(i2 + 1) % no]])
                i2 += 1
            else:
                cells.append([inner[i1 % ni], outer[i2 % no],
                              inner[(i1 + 1) % ni]])
                i1 += 1
    return np.array(plane_pts), np.array(cells, int)


@pytest.mark.parametrize("rings", [1, 2, 8, 10, 16, 41])
def test_disk_mesh_matches_the_loop_generator(rings):
    axes = np.array([[math.cos(0.3), 0.0, math.sin(0.3)], [0.0, 1.0, 0.0]])
    center = np.array([0.1, -0.2, 0.5])
    plane, cells = ref_disk_plane(0.7, rings)
    mesh = disk_mesh(0.7, rings=rings, center=center, axes=axes)
    assert np.array_equal(mesh.vertices, center + plane @ axes)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.boundary_facets, ref_detect_boundary(cells))


def ref_refine(mesh):
    """Midpoint subdivision numbering each midpoint in a dict on first use."""
    midpoint = {}
    new_vertices = list(mesh.vertices)

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(new_vertices)
            new_vertices.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
        return midpoint[key]

    cells = []
    for a, b, c in mesh.cells:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        cells.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    bfacets = []
    for a, b in mesh.boundary_facets:
        m = mid(a, b)
        bfacets.extend([[a, m], [m, b]])
    out = SimplicialMesh(np.array(new_vertices), np.array(cells),
                         np.array(bfacets) if bfacets else None,
                         metadata=dict(mesh.metadata))
    mesh_module._snap_to_surface(out)
    return out


REFINED = {
    "disk": lambda: disk_mesh(0.8, rings=5, center=(0.0, 0.1, 0.2)),
    "graph": lambda: graph_mesh(lambda x, y: 0.2 * x * y - 0.1 * y * y,
                                1.0, 6),
}


@pytest.mark.parametrize("name", sorted(REFINED))
def test_refine_matches_the_dict_refinement(name):
    mesh = REFINED[name]()
    got, want = mesh.refine(), ref_refine(mesh)
    for part in ("vertices", "cells", "boundary_facets"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    assert got.boundary_facets.shape[1] == 2
    assert len(got.boundary_facets) == 2 * len(mesh.boundary_facets) > 0


@pytest.mark.parametrize("level", [1, 2, 3])
def test_sphere_levels_match_the_dict_refinement(level):
    want = sphere_mesh(1.3, level=0, center=(0.1, 0.0, -0.2))
    for _ in range(level):
        want = ref_refine(want)
    got = sphere_mesh(1.3, level=level, center=(0.1, 0.0, -0.2))
    for part in ("vertices", "cells", "boundary_facets"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("build", [
    lambda: sphere_mesh(1.0, level=-2),
    lambda: sphere_mesh(1.0, level=-1),
    lambda: graph_mesh(lambda x, y: x * y, 1.0, divisions=0),
    lambda: graph_mesh(lambda x, y: x * y, 1.0, divisions=-3),
    lambda: disk_mesh(1.0, rings=0),
], ids=["sphere_level_-2", "sphere_level_-1", "graph_divisions_0",
        "graph_divisions_-3", "disk_rings_0"])
def test_generators_refuse_empty_resolutions(build):
    with pytest.raises(InvalidArgument):
        build()


# ---------------------------------------------------------------------------
# mesh topology
# ---------------------------------------------------------------------------

def ref_detect_boundary(cells):
    """Facets appearing in exactly one cell, counted in a dict."""
    k = cells.shape[1] - 1
    count = {}
    for cell in cells:
        for sub in combinations(sorted(cell), k):
            count[sub] = count.get(sub, 0) + 1
    facets = [list(f) for f, c in count.items() if c == 1]
    return np.array(facets, int) if facets else np.zeros((0, k), int)


def ref_boundary_owners(mesh):
    """Owning cell of each boundary facet, looked up in a dict of sets."""
    lookup = {}
    for cid, cell in enumerate(mesh.cells):
        for sub in combinations(cell, mesh.k):
            lookup.setdefault(frozenset(sub), []).append(cid)
    owners = np.empty(len(mesh.boundary_facets), dtype=int)
    for i, facet in enumerate(mesh.boundary_facets):
        own = lookup.get(frozenset(facet), [])
        if len(own) != 1:
            raise InvalidArgument(f"owned by {len(own)} cells")
        owners[i] = own[0]
    return owners


def _file_mesh(path, vertices, cells):
    """A mesh read back from a file listing each boundary facet with its
    vertices rotated, the facets in reverse order."""
    facets = ref_detect_boundary(cells)[::-1]
    facets = np.roll(facets, 1, axis=1)
    rows = [f"{len(vertices)} {len(cells)} {len(facets)}"]
    rows += [" ".join(map(repr, v)) for v in np.asarray(
        vertices, float).tolist()]
    rows += [" ".join(map(str, c)) for c in cells.tolist() + facets.tolist()]
    path.write_text("\n".join(rows) + "\n")
    return read_mesh(path)


def _polyline(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    vertices = np.stack([t, t * t, np.zeros_like(t)], axis=1)
    cells = np.stack([np.arange(8), np.arange(1, 9)], axis=1)[::-1]
    return _file_mesh(tmp_path / "polyline.mesh", vertices, cells)


def _kuhn_tetrahedra(tmp_path):
    # a 2 x 2 x 1 block of unit cubes, six tetrahedra each
    shape = (3, 3, 2)
    vertices = np.stack(np.indices(shape).reshape(3, -1), axis=1)
    cells = []
    for corner in np.ndindex(2, 2, 1):
        for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                     (2, 1, 0)]:
            at, path = np.array(corner), [corner]
            for axis in perm:
                at = at + np.eye(3, dtype=int)[axis]
                path.append(tuple(at))
            cells.append([np.ravel_multi_index(p, shape) for p in path])
    return _file_mesh(tmp_path / "tets.mesh", vertices, np.array(cells))


TOPOLOGY_MESHES = {
    "disk": lambda _: disk_mesh(1.0, rings=5),
    "graph": lambda _: graph_mesh(lambda x, y: 0.1 * x * y, 1.0, 6),
    "sphere": lambda _: sphere_mesh(1.0, level=2),
    "polyline": _polyline,
    "tetrahedra": _kuhn_tetrahedra,
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MESHES))
def test_topology_matches_dict_reference(tmp_path, name):
    mesh = TOPOLOGY_MESHES[name](tmp_path)
    want = ref_detect_boundary(mesh.cells)
    got = detect_boundary(mesh.cells)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert (len(want) == 0) == (name == "sphere")
    assert np.array_equal(mesh.boundary_owners(), ref_boundary_owners(mesh))


@pytest.mark.parametrize("owners", [0, 2])
@pytest.mark.parametrize("name", ["disk", "polyline", "tetrahedra"])
def test_facet_not_owned_by_one_cell_is_refused(tmp_path, name, owners):
    mesh = TOPOLOGY_MESHES[name](tmp_path)
    if owners == 0:
        # the first boundary facet with a vertex moved to one in no cell
        mesh.vertices = np.vstack([mesh.vertices, np.full(mesh.n, 9.0)])
        facet = mesh.boundary_facets[0].copy()
        facet[0] = len(mesh.vertices) - 1
    else:
        # a facet of the first cell that is not on the boundary
        boundary = {tuple(f) for f in np.sort(mesh.boundary_facets, axis=1)}
        facet = next(np.array(sub) for sub in combinations(
            sorted(mesh.cells[0]), mesh.k) if sub not in boundary)
    mesh.boundary_facets = np.vstack([mesh.boundary_facets, facet])
    with pytest.raises(InvalidArgument, match=f"owned by {owners} cells"):
        ref_boundary_owners(mesh)
    with pytest.raises(InvalidArgument, match=re.escape(
            f"boundary facet {sorted(facet.tolist())} owned by {owners} "
            "cells")):
        mesh.boundary_owners()


# ---------------------------------------------------------------------------
# weight bands share band 0's whole cells
# ---------------------------------------------------------------------------

def _rule_sizes(domain):
    if domain.kind == "mesh":
        return [len(simplex_rule(domain.k, s)[1])
                for s in domain._simplex_indices()]
    return [npts ** domain.k for npts in (domain.order, domain.order - 1)]


@pytest.mark.parametrize("name", sorted(corpus_geometries()))
def test_band_copies_whole_cells_from_band0(monkeypatch, name):
    domain = corpus_geometries()[name]()
    band0 = domain.sites(0.0)
    batch = "_mesh_batch" if domain.kind == "mesh" else "_patch_batch"
    build = getattr(domain, batch)
    rows = []

    def counted(*args):
        rows.append(len(args[-1]))     # the densities, one per site
        return build(*args)

    monkeypatch.setattr(domain, batch, counted)
    band = 2
    # asked for at -band: the gamma >= k check lets it by
    tables = band_pair(domain, -band)
    whole, pieces, _, _ = domain._pieces(band)
    graded = len(pieces[0])
    sizes = _rule_sizes(domain)
    # and, through the pole, the pole's pair once
    pole = domain.sites(-band)[len(band_tables(domain, -band)):]
    assert rows == [graded * q for q in sizes] + [len(t.r) for t in pole]
    assert len(whole) > 0
    for table, base, q in zip(tables, band0, sizes):
        assert len(table.r) == (len(whole) + graded) * q
        at = (whole[:, None] * q + np.arange(q)).reshape(-1)
        for column in dc_fields(SiteBatch):
            got, want = (getattr(table, column.name),
                         getattr(base, column.name))
            assert (got is None) == (want is None), column.name
            if got is not None:
                assert np.array_equal(got[:len(at)], want[at]), column.name
