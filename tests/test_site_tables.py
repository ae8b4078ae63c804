"""Site-table schema and construction.

The boundary reference below is the per-cell builder the batched
``Domain._build_patch_boundary`` replaces: one chart cell of one boundary
face at a time, with its own jet evaluation.  The batched builder must give
the same sites in the same order (face, then cell, then node), so every
boundary column agrees bit for bit.

The pole references are the three builders that ``Domain._pole_tables``
replaces: Duffy's rule on a triangle, applied to the mesh cells at a pole
vertex, and the chart builder with its ring of boxes on a polar face and
its Kuhn triangles at a grid corner.  Every column of both pole tables must
agree bit for bit.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from cknlab import inequalities as iq
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    flat_disk_patch,
    geodesic_disk,
    graph_mesh,
    plane_rect,
    poly_graph_patch,
    sphere_patch,
)
from cknlab.geometry import domain as domain_mod
from cknlab.geometry.domain import SiteBatch
from cknlab.geometry.fields import make_field
from cknlab.quadrature import (box_rule, gauss_rule, jacobi_rule,
                               simplex_rule)

BOUNDARY_COLUMNS = ("points", "density", "r", "h", "hp", "conormal_dot",
                    "chart")


# -- reference: the per-cell boundary builder ---------------------------------

def ref_patch_boundary(domain):
    patch, amb = domain.patch, domain.ambient
    k = patch.k
    faces = [(axis, side) for (axis, side), kind in patch.faces.items()
             if kind == "boundary"]
    edges = patch.grid()
    out = []
    for npts in (domain.order, domain.order - 1):
        cols = {name: [] for name in BOUNDARY_COLUMNS}
        for axis, side in faces:
            fixed = patch.bounds[axis][side]
            other_axes = [d for d in range(k) if d != axis]
            nodes, wts = box_rule(k - 1, npts)
            cells = [list(zip(edges[d][:-1], edges[d][1:]))
                     for d in other_axes]
            grids = np.meshgrid(*[np.arange(len(c)) for c in cells],
                                indexing="ij")
            combos = np.stack([g.ravel() for g in grids], axis=1)
            for combo in combos:
                lo = np.array([cells[j][i][0] for j, i in enumerate(combo)])
                hi = np.array([cells[j][i][1] for j, i in enumerate(combo)])
                width = hi - lo
                U = np.zeros((len(nodes), k))
                U[:, axis] = fixed
                for j, d in enumerate(other_axes):
                    U[:, d] = lo[j] + nodes[:, j] * width[j]
                F, dF, _ = patch.jet(U)
                G = amb.metric_matrix(F)
                E = dF[:, :, other_axes]
                ge = np.einsum("sai,sab,sbj->sij", E, G, E)
                det = np.linalg.det(ge) if k > 2 else ge[:, 0, 0]
                dS = wts * np.prod(width) * np.sqrt(np.maximum(det, 0.0))
                sign = 1.0 if side == 1 else -1.0
                nu = sign * dF[:, :, axis].copy()
                basis = []
                for j in range(E.shape[2]):
                    e = E[:, :, j].copy()
                    for prev in basis:
                        e = e - amb.metric_dot(F, e, prev)[:, None] * prev
                    nrm = np.sqrt(np.maximum(amb.metric_dot(F, e, e),
                                             domain_mod._TINY))
                    basis.append(e / nrm[:, None])
                for prev in basis:
                    nu = nu - amb.metric_dot(F, nu, prev)[:, None] * prev
                nrm = np.sqrt(np.maximum(amb.metric_dot(F, nu, nu),
                                         domain_mod._TINY))
                nu = nu / nrm[:, None]
                r = amb.radius(F)
                h, hp = amb.h_values(r)
                u = (F - amb.pole) / np.where(r > 0, r, 1.0)[:, None]
                for name, value in (("points", F), ("density", dS),
                                    ("r", r), ("h", h), ("hp", hp),
                                    ("conormal_dot",
                                     amb.metric_dot(F, u, nu)),
                                    ("chart", U)):
                    cols[name].append(value)
        out.append({name: np.concatenate(v) for name, v in cols.items()})
    return out


def _patches(warped3):
    euclid = AmbientSpace.euclidean(3)
    off_pole = AmbientSpace.euclidean(3, pole=(0.2, -0.1, 0.3))
    graph = {(2, 0): 0.3, (1, 1): -0.2, (0, 2): 0.1}
    return {
        "plane_rect": lambda: plane_rect(euclid, 1.0, cells=4),
        "plane_rect_off_pole": lambda: plane_rect(off_pole, 1.0, cells=4),
        "flat_disk_patch": lambda: flat_disk_patch(euclid, 1.0, cells=(4, 8)),
        "poly_graph": lambda: poly_graph_patch(euclid, graph, cells=4),
        "sphere_cap": lambda: sphere_patch(
            euclid, 1.0, theta_range=(0.0, math.pi / 3), cells=(4, 8)),
        "sphere_zone": lambda: sphere_patch(
            euclid, 1.3, theta_range=(math.pi / 6, math.pi / 2),
            cells=(4, 8)),
        "sphere_cap_warped": lambda: sphere_patch(
            warped3, 0.4, theta_range=(0.0, 1.0), cells=(4, 8)),
        "sphere_zone_warped": lambda: sphere_patch(
            warped3, 0.4, theta_range=(0.3, 1.2), cells=(4, 8)),
        "geodesic_disk": lambda: geodesic_disk(warped3, 0.5, cells=(4, 8)),
        "ball": lambda: ball_domain(euclid, 1.0, cells=(2, 2, 4)),
        "ball_warped": lambda: ball_domain(warped3, 0.5, cells=(2, 2, 4)),
    }


PATCH_NAMES = ("plane_rect", "plane_rect_off_pole", "flat_disk_patch",
               "poly_graph", "sphere_cap", "sphere_zone", "sphere_cap_warped",
               "sphere_zone_warped", "geodesic_disk", "ball", "ball_warped")


def _set_columns(batch):
    return {f.name for f in fields(SiteBatch)
            if getattr(batch, f.name) is not None}


@pytest.mark.parametrize("order", [4, 5])
@pytest.mark.parametrize("name", PATCH_NAMES)
def test_patch_boundary_matches_per_cell_reference(warped3, name, order):
    domain = Domain(_patches(warped3)[name](), order=order)
    tables = domain.boundary_sites()
    for got, want in zip(tables, ref_patch_boundary(domain)):
        assert _set_columns(got) == set(BOUNDARY_COLUMNS)
        for column in BOUNDARY_COLUMNS:
            assert np.array_equal(getattr(got, column), want[column]), column


def test_closed_patch_has_no_boundary_table(euclid3):
    domain = Domain(sphere_patch(euclid3, 1.0, cells=(4, 8)))
    assert not domain.has_boundary
    assert domain.boundary_sites() == (None, None)


# -- reference: the per-kind pole builders ------------------------------------

def ref_duffy_rule(k, npts, gamma):
    assert k == 2
    t, wt = jacobi_rule(npts, 1.0 - gamma)
    u, wu = gauss_rule(npts)
    t, wt = t[:, None], wt[:, None]
    bary = np.stack(np.broadcast_arrays(1.0 - t, t * (1.0 - u), t * u), 2)
    return bary.reshape(-1, 3), (2.0 * wt * t ** gamma * wu).reshape(-1)


def ref_mesh_pole_sites(domain, gamma):
    k, cells = domain.k, domain._pole_cells
    cols = (np.arange(k + 1) - domain._pole_corner[:, None]) % (k + 1)
    out = []
    for npts in (domain.order, domain.order - 1):
        bary, wts = ref_duffy_rule(k, npts, gamma)
        bary = bary[:, cols].swapaxes(0, 1)
        out.append(domain._mesh_batch(
            cells.repeat(len(wts)), bary.reshape(-1, k + 1),
            (bary @ domain.mesh.vertices[domain.mesh.cells[cells]]).reshape(
                -1, domain.n),
            (domain._volumes[cells][:, None] * wts).reshape(-1)))
    return tuple(out)


def ref_patch_pole_sites(domain, gamma):
    k = domain.k
    lo, hi = (a[domain._pole_cells] for a in domain.patch.cell_boxes())
    width = hi - lo
    volume = np.prod(width, axis=1)

    def ring(npts):
        axis, side = domain._pole_face
        alpha = k - 1 - gamma
        t, wt = jacobi_rule(npts, alpha)
        others, wo = box_rule(k - 1, npts)
        nodes = np.empty((npts, len(wo), k))
        nodes[..., axis] = (t if side == 0 else 1.0 - t)[:, None]
        nodes[..., np.arange(k) != axis] = others
        wts = ((wt * t ** -alpha)[:, None] * wo).reshape(-1)
        U = lo[:, None] + nodes.reshape(-1, k) * width[:, None]
        return U.reshape(-1, k), (wts * volume[:, None]).reshape(-1)

    def kuhn(npts):
        bary, wts = ref_duffy_rule(k, npts, gamma)
        at_pole = (domain._pole_corner[:, None] >> np.arange(k) & 1) > 0
        p, q = np.where(at_pole, hi, lo), np.where(at_pole, lo, hi)
        tri = np.stack([p, np.where([True, False], q, p), q,
                        p, np.where([False, True], q, p), q], axis=1)
        return ((bary @ tri.reshape(-1, 3, 2)).reshape(-1, k),
                (np.repeat(volume / 2.0, 2)[:, None] * wts).reshape(-1))

    rule = ring if domain._pole_face else kuhn
    return tuple(domain._patch_batch(*rule(npts))
                 for npts in (domain.order, domain.order - 1))


def _through_pole(euclid, warped3):
    return {
        "disk_mesh": lambda: disk_mesh(1.0, rings=4),
        "graph_mesh": lambda: graph_mesh(lambda x, y: 0.0 * x, 1.0, 8),
        "plane_rect": lambda: plane_rect(euclid, 1.0, cells=8),
        "poly_graph": lambda: poly_graph_patch(
            euclid, {(2, 0): 0.25, (0, 2): -0.15}, cells=8),
        "flat_disk_patch": lambda: flat_disk_patch(euclid, 1.0, cells=(4, 8)),
        "geodesic_disk": lambda: geodesic_disk(warped3, 0.5, cells=(4, 8)),
        "ball": lambda: ball_domain(euclid, 1.0, cells=(2, 2, 4)),
        "ball_warped": lambda: ball_domain(warped3, 0.5, cells=(2, 2, 4)),
        "sphere_patch": lambda: sphere_patch(euclid, 1.0,
                                             center=(0.0, 0.0, -1.0),
                                             cells=(4, 8)),
    }


@pytest.mark.parametrize("order", [4, 5])
@pytest.mark.parametrize("name", ["disk_mesh", "graph_mesh", "plane_rect",
                                  "poly_graph", "flat_disk_patch",
                                  "geodesic_disk", "ball", "ball_warped",
                                  "sphere_patch"])
def test_pole_tables_match_per_kind_reference(euclid3, warped3, name, order):
    domain = Domain(_through_pole(euclid3, warped3)[name](), euclid3, order)
    assert domain.through_pole
    ref = (ref_mesh_pole_sites if domain.kind == "mesh"
           else ref_patch_pole_sites)
    for gamma in (-1.0, 0.5, 1.5, domain.k - 0.05):
        tables = domain.pole_sites(gamma)
        assert len(tables) == 2
        for got, want in zip(tables, ref(domain, gamma)):
            assert _set_columns(got) == _set_columns(want)
            for column in _set_columns(want):
                assert np.array_equal(getattr(got, column),
                                      getattr(want, column)), column


# -- one schema ---------------------------------------------------------------

def test_concatenated_patch_tables_keep_every_column(disk_patch_domain):
    hi, lo = disk_patch_domain.sites(0.0)
    merged = domain_mod._concat_batches([hi, lo])
    for column in _set_columns(hi):
        assert np.array_equal(getattr(merged, column),
                              np.concatenate([getattr(hi, column),
                                              getattr(lo, column)])), column
    # the planar kinds read the chart basis, chart points and inverse metric
    bound = disk_patch_domain.bind(make_field("polynomial"))
    psi, grad = bound.at_sites(merged)
    for part, got in zip(bound.at_sites(hi), (psi, grad)):
        assert np.array_equal(got[:len(hi.r)], part)


def test_field_columns_survive_concatenation(disk_patch_domain):
    bound = disk_patch_domain.bind(make_field("polynomial"))
    hi, lo = disk_patch_domain.sites(0.0, bound)
    merged = domain_mod._concat_batches([hi, lo])
    assert np.array_equal(merged.psi, np.concatenate([hi.psi, lo.psi]))
    assert np.array_equal(merged.grad_psi,
                          np.concatenate([hi.grad_psi, lo.grad_psi]))


def test_mesh_tables_carry_their_columns(disk_domain_coarse):
    hi, _ = disk_domain_coarse.sites(0.0)
    assert _set_columns(hi) == {"points", "density", "r", "h", "hp", "perp",
                                "h_norm", "tan_sq", "cell_ids", "bary",
                                "h_vec"}
    bhi, _ = disk_domain_coarse.boundary_sites()
    assert _set_columns(bhi) == {"points", "density", "r", "h", "hp",
                                 "conormal_dot", "facet_ids", "bary"}


# -- mesh quadrature order ----------------------------------------------------

@pytest.mark.parametrize("order,indices", [(2, (1, 0)), (4, (2, 1)),
                                           (5, (2, 1)), (6, (3, 2))])
def test_mesh_order_picks_grundmann_moller_indices(euclid3, order, indices):
    # the default order 4 keeps indices (2, 1), the rules of the depth-first
    # reference in test_grading.py
    mesh = disk_mesh(1.0, rings=4, center=(0.0, 0.0, 0.5))
    domain = Domain(mesh, euclid3, order=order)
    cells = len(mesh.cells)
    for batch, s_index in zip(domain.sites(0.0), indices):
        bary, _ = simplex_rule(2, s_index)
        assert len(batch.r) == cells * len(bary)
        assert np.array_equal(batch.bary[:len(bary)], bary)
    for batch, s_index in zip(domain.boundary_sites(), indices):
        bary, _ = simplex_rule(1, s_index)
        assert len(batch.r) == len(mesh.boundary_facets) * len(bary)


def test_higher_mesh_order_passes_the_cone_equality(euclid3):
    mesh = disk_mesh(1.0, rings=8)
    coarse, fine = Domain(mesh, euclid3), Domain(mesh, euclid3, order=6)
    assert len(fine.sites(0.0)[0].r) > len(coarse.sites(0.0)[0].r)
    rep = iq.evaluate("hardy", fine, make_field("radial_power", (1.0,)),
                      {"p": 1.0, "gamma": 1.0})
    assert rep.satisfied
    assert abs(rep.ratio - 1.0) < 5e-3
    assert rep.mesh_stats["quadrature_order"] == 6
