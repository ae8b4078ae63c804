"""Discrete vector-calculus identity checks on meshes.

These operators back the convergence tests: the splitting of the ambient
divergence into its tangential part and the mean-curvature pairing, the
product rule, and the divergence theorem.  Each residual is computed from
two genuinely different discrete routes (finite-volume fluxes against
pointwise jets, sampled products against reconstructed gradients), so the
residuals measure discretization quality rather than restating algebra.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgument
from .domain import Domain


def _require_mesh(domain: Domain):
    if domain.kind != "mesh":
        raise InvalidArgument("calculus residuals are defined on meshes")
    if domain.k != 2:
        raise InvalidArgument("calculus residuals support surface meshes")


def divergence_residuals(domain: Domain, vector_field, scalar_field=None):
    """L2 residuals of the tangential-divergence identity and product rule.

    ``vector_field(points) -> (values (m, n), jacobians (m, n, n))`` supplies
    an ambient field with its first derivative.  Returns ``(res_a, res_b)``:

    - ``res_a``: at interior vertices, the finite-volume divergence of the
      tangential part (dual-cell boundary fluxes) plus the fitted
      mean-curvature pairing, against the pointwise ambient divergence.
    - ``res_b``: per cell, the divergence of the sampled product field
      (reconstructed from vertex samples) against the product-rule
      expansion using exact jets.
    """
    _require_mesh(domain)
    mesh = domain.mesh
    frames = mesh.cell_frames()
    vols = mesh.cell_volumes()
    verts = mesh.vertices
    cells = mesh.cells
    vertex_H = mesh.vertex_mean_curvature()

    boundary_vertices = (set(np.unique(mesh.boundary_facets).tolist())
                         if len(mesh.boundary_facets) else set())

    yv, _ = vector_field(verts)

    # --- identity (a): finite-volume divergence of the tangential part
    flux = np.zeros(len(verts))
    area = np.zeros(len(verts))
    for cid, cell in enumerate(cells):
        corners = verts[cell]
        centroid = corners.mean(axis=0)
        frame = frames[cid]
        proj = frame.T @ frame
        for local, v in enumerate(cell):
            others = [w for j, w in enumerate(cell) if j != local]
            m1 = 0.5 * (verts[v] + verts[others[0]])
            m2 = 0.5 * (verts[v] + verts[others[1]])
            for seg_start in (m1, m2):
                seg = centroid - seg_start
                mid = 0.5 * (seg_start + centroid)
                # in-plane normal to the segment, oriented away from v
                seg_t = frame @ seg
                normal2 = np.array([seg_t[1], -seg_t[0]])
                normal = frame.T @ normal2
                nlen = np.linalg.norm(normal)
                if nlen == 0:
                    continue
                normal /= nlen
                if np.dot(normal, mid - verts[v]) < 0:
                    normal = -normal
                w_mid, _ = vector_field(mid[None, :])
                w_tan = proj @ w_mid[0]
                flux[v] += np.dot(w_tan, normal) * np.linalg.norm(seg)
            area[v] += vols[cid] / 3.0

    res_a_sq = 0.0
    area_tot = 0.0
    _, jac_v = vector_field(verts)
    for v in range(len(verts)):
        if v in boundary_vertices or area[v] == 0:
            continue
        div_tan_fv = flux[v] / area[v]
        # pointwise ambient divergence along the fitted tangent plane,
        # averaged over the incident cells
        incident = [cid for cid, cell in enumerate(cells) if v in cell]
        div_pt = np.mean([
            np.trace(frames[cid] @ jac_v[v] @ frames[cid].T)
            for cid in incident])
        resid = div_pt - (div_tan_fv - np.dot(vertex_H[v], yv[v]))
        res_a_sq += resid ** 2 * area[v]
        area_tot += area[v]
    res_a = float(np.sqrt(res_a_sq / max(area_tot, 1e-300)))

    # --- identity (b): product rule with a scalar field
    if scalar_field is None:
        def scalar_field(pts):
            return 1.0 + pts[:, 0] - 0.5 * pts[:, 1]
    psi_v = scalar_field(verts)
    prod_v = psi_v[:, None] * yv                      # sampled product field
    grads_psi = mesh.reconstruct_gradients(psi_v)
    comp_grads = np.stack(
        [mesh.reconstruct_gradients(prod_v[:, a]) for a in range(mesh.n)],
        axis=1)                                       # (C, n_comp, n_dir)
    res_b_sq = 0.0
    for cid, cell in enumerate(cells):
        frame = frames[cid]
        centroid = verts[cell].mean(axis=0)
        ym, jm = vector_field(centroid[None, :])
        div_prod = float(np.einsum("ka,an,kn->", frame, comp_grads[cid],
                                   frame))
        psi_bar = float(np.mean(psi_v[cell]))
        div_y = float(np.trace(frame @ jm[0] @ frame.T))
        pairing = float(np.dot(grads_psi[cid], ym[0]))
        resid = div_prod - (psi_bar * div_y + pairing)
        res_b_sq += resid ** 2 * vols[cid]
    res_b = float(np.sqrt(res_b_sq / vols.sum()))
    return res_a, res_b


def divergence_theorem_residual(domain: Domain, vector_field) -> float:
    """| integral of div of the tangential part - boundary flux |.

    The interior side evaluates the divergence of the tangential part as
    the ambient divergence along the cell plane plus the fitted
    mean-curvature pairing (the tangential projection sheds exactly that
    much); the boundary side integrates the conormal flux.  The mismatch
    measures faceting and fit error and vanishes under refinement.
    """
    _require_mesh(domain)
    mesh = domain.mesh
    frames = mesh.cell_frames()
    vols = mesh.cell_volumes()
    vertex_H = mesh.vertex_mean_curvature()
    total = 0.0
    for cid, cell in enumerate(mesh.cells):
        centroid = mesh.vertices[cell].mean(axis=0)
        val, jac = vector_field(centroid[None, :])
        h_mid = vertex_H[cell].mean(axis=0)
        div_tan = (float(np.trace(frames[cid] @ jac[0] @ frames[cid].T))
                   + float(np.dot(h_mid, val[0])))
        total += div_tan * vols[cid]
    flux = 0.0
    if len(mesh.boundary_facets):
        conormals = mesh.boundary_conormals()
        for fid, facet in enumerate(mesh.boundary_facets):
            corners = mesh.vertices[facet]
            mid = corners.mean(axis=0)
            length = np.linalg.norm(corners[1] - corners[0])
            val, _ = vector_field(mid[None, :])
            flux += float(np.dot(val[0], conormals[fid])) * length
    return abs(total - flux)


def hessian_comparison_margin(ambient, points, directions, step=1e-4):
    """FD radial Hessian minus the comparison bound, per (point, direction).

    Second differences of the distance function along straight coordinate
    lines, corrected by the connection; the bound is attained on the model
    ambients, so margins sit at the FD noise floor.
    """
    points = np.atleast_2d(points)
    directions = np.atleast_2d(directions)
    out = np.empty(len(points))
    for i, (x, v) in enumerate(zip(points, directions)):
        G = ambient.metric_matrix(x[None, :])[0]
        v = v / np.sqrt(v @ G @ v)
        r0 = ambient.radius(x[None, :])[0]
        rp = ambient.radius((x + step * v)[None, :])[0]
        rm = ambient.radius((x - step * v)[None, :])[0]
        d2 = (rp - 2.0 * r0 + rm) / step ** 2
        u = ambient.radial_unit(x[None, :])[0]
        gam = ambient.connection(x[None, :], v[None, :, None])[0, :, 0, 0]
        hess = d2 - float(u @ gam)
        dr_v = v @ G @ u
        bound = float(ambient.hessian_bound(r0)) * (1.0 - dr_v ** 2)
        out[i] = hess - bound
    return out
