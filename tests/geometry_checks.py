"""Checks that back the tests and feed no report.

The vector-calculus residuals on meshes compare two genuinely different
discrete routes (finite-volume fluxes against pointwise jets, sampled
products against reconstructed gradients), so they measure discretization
quality rather than restating algebra.  The comparison margins check the
radial Hessian bound of the model ambients.  Refinement studies run on
:func:`cknlab.search.refinements`, the sequence ``verify --levels`` and
``search --levels`` evaluate on.
"""

from dataclasses import fields

import numpy as np

from cknlab.errors import InvalidArgument, PreconditionViolated
from cknlab.geometry import Domain
from cknlab.geometry.domain import SiteBatch
from cknlab.inequalities import evaluate
from cknlab.search import refinements


def band_tables(domain: Domain, gamma: float, bound_field=None):
    """``domain.sites(gamma)`` without the pole's pair: the band's own
    tables."""
    tables = domain.sites(gamma, bound_field)
    if domain._gamma_band(gamma) and len(domain._pole_cells):
        return tables[:-2]
    return tables


def band_pair(domain: Domain, gamma: float, bound_field=None):
    """The band's own tables of ``domain.sites(gamma)`` as one ``(hi, lo)``
    pair.

    Above band 0 each rule's table is rebuilt as one: the rows of band 0's
    view that keep a density, then the graded pieces' rows.
    """
    tables = band_tables(domain, gamma, bound_field)
    if len(tables) == 2:
        return tables
    return tuple(
        SiteBatch(**{f.name: None if getattr(view, f.name) is None
                     else np.concatenate([
                         getattr(view, f.name)[view.density != 0.0],
                         getattr(graded, f.name)])
                     for f in fields(SiteBatch)})
        for view, graded in zip(tables[:2], tables[2:]))


def chart_column_lengths(domain: Domain, U):
    """The metric lengths of a chart's columns at chart points ``U``, from
    its jet."""
    F, dF, _ = domain.patch.jet(U)
    G = domain.ambient.metric_matrix(F)
    return np.sqrt(np.einsum("sai,sab,sbi->si", dF, G, dF))


def chart_clamp(meta: dict):
    """The boundary-vanishing factor of a patch in its chart coordinates:
    ``clamp(U)`` gives its value and its chart partials at chart points.

    The reference for the ambient clamps of ``cknlab.geometry.fields``.
    """
    gen = meta["generator"]
    if gen in ("flat_disk", "geodesic_disk", "ball"):
        R = meta["radius"]

        def clamp(U):
            rho = U[:, 0]
            grad = np.zeros_like(U)
            grad[:, 0] = -2.0 * rho / R ** 2
            return 1.0 - (rho / R) ** 2, grad

        return clamp
    if gen in ("plane_rect", "poly_graph"):
        L = meta["half_width"]
        cx, cy = meta["center_xy"]

        def clamp(U):
            x = (U[:, 0] - cx) / L
            y = (U[:, 1] - cy) / L
            grad = np.zeros_like(U)
            grad[:, 0] = -2.0 * x * (1.0 - y ** 2) / L
            grad[:, 1] = -2.0 * y * (1.0 - x ** 2) / L
            return (1.0 - x ** 2) * (1.0 - y ** 2), grad

        return clamp
    assert gen == "sphere_patch", gen
    t0, t1 = meta["theta_range"]
    span = t1 - t0

    def clamp(U):
        th = U[:, 0]
        val = (t1 - th) / span
        grad = np.zeros_like(U)
        grad[:, 0] = -1.0 / span
        if t0 > 0.0:
            lo = (th - t0) / span
            grad[:, 0] = grad[:, 0] * lo + val / span
            val = val * lo
        return val, grad

    return clamp


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
    frames = mesh.cell_frames()                       # (C, 2, n)
    vols = mesh.cell_volumes()
    verts, cells = mesh.vertices, mesh.cells
    centroids = verts[cells].mean(axis=1)
    yv, jac_v = vector_field(verts)

    # --- identity (a): finite-volume divergence of the tangential part.
    # Each corner v of a cell owns the two segments from the midpoints of
    # its edges to the centroid; their in-plane normals point away from v.
    corner = verts[cells][:, :, None]                 # (C, 3, 1, n)
    ends = verts[cells[:, [[1, 2], [0, 2], [0, 1]]]]  # (C, 3, 2, n)
    starts = 0.5 * (corner + ends)
    seg = centroids[:, None, None] - starts
    mid = 0.5 * (starts + centroids[:, None, None])
    seg_t = np.einsum("ckn,cjsn->cjsk", frames, seg)
    normal = np.einsum("ckn,cjsk->cjsn", frames,
                       np.stack([seg_t[..., 1], -seg_t[..., 0]], axis=-1))
    nlen = np.linalg.norm(normal, axis=-1, keepdims=True)
    normal = normal / np.where(nlen == 0, np.inf, nlen)
    normal *= np.where(np.sum(normal * (mid - corner), axis=-1,
                              keepdims=True) < 0, -1.0, 1.0)
    w_mid, _ = vector_field(mid.reshape(-1, mesh.n))
    w_tan = np.einsum("ckn,ckm,cjsm->cjsn", frames, frames,
                      w_mid.reshape(mid.shape))
    contrib = np.sum(np.sum(w_tan * normal, axis=-1)
                     * np.linalg.norm(seg, axis=-1), axis=-1)
    owner = cells.ravel()
    flux = np.bincount(owner, contrib.ravel(), len(verts))
    area = np.bincount(owner, np.repeat(vols / 3.0, 3), len(verts))
    # pointwise ambient divergence along the fitted tangent plane,
    # averaged over the incident cells
    div_pt = np.einsum("cka,cjab,ckb->cj", frames, jac_v[cells], frames)
    div_pt = (np.bincount(owner, div_pt.ravel(), len(verts))
              / np.maximum(np.bincount(owner, minlength=len(verts)), 1))
    interior = area > 0
    interior[np.unique(mesh.boundary_facets)] = False
    resid = (div_pt - (flux / np.where(interior, area, 1.0)
                       - np.sum(mesh.vertex_mean_curvature() * yv, axis=1)))
    res_a = float(np.sqrt(np.sum(resid[interior] ** 2 * area[interior])
                          / max(np.sum(area[interior]), 1e-300)))

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
    ym, jm = vector_field(centroids)
    div_prod = np.einsum("cka,can,ckn->c", frames, comp_grads, frames)
    div_y = np.einsum("cka,cab,ckb->c", frames, jm, frames)
    pairing = np.sum(grads_psi * ym, axis=1)
    resid = div_prod - (psi_v[cells].mean(axis=1) * div_y + pairing)
    res_b = float(np.sqrt(np.sum(resid ** 2 * vols) / vols.sum()))
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
    val, jac = vector_field(mesh.vertices[mesh.cells].mean(axis=1))
    h_mid = mesh.vertex_mean_curvature()[mesh.cells].mean(axis=1)
    div_tan = (np.einsum("cka,cab,ckb->c", frames, jac, frames)
               + np.sum(h_mid * val, axis=1))
    total = float(np.sum(div_tan * mesh.cell_volumes()))
    flux = 0.0
    if len(mesh.boundary_facets):
        corners = mesh.vertices[mesh.boundary_facets]
        val, _ = vector_field(corners.mean(axis=1))
        length = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
        flux = float(np.sum(np.sum(val * mesh.boundary_conormals(), axis=1)
                            * length))
    return abs(total - flux)


def hessian_comparison_margin(ambient, points, directions, step=1e-4):
    """FD radial Hessian minus the comparison bound, per (point, direction).

    Second differences of the distance function along straight coordinate
    lines, corrected by the connection; the bound is attained on the model
    ambients, so margins sit at the FD noise floor.
    """
    x = np.atleast_2d(points)
    G = ambient.metric_matrix(x)
    v = np.atleast_2d(directions)
    v = v / np.sqrt(np.einsum("ia,iab,ib->i", v, G, v))[:, None]
    r0 = ambient.radius(x)
    d2 = (ambient.radius(x + step * v) - 2.0 * r0
          + ambient.radius(x - step * v)) / step ** 2
    u = (x - ambient.pole) / r0[:, None]
    gam = ambient.connection(x, v[:, :, None])[:, :, 0, 0]
    dr_v = np.einsum("ia,iab,ib->i", v, G, u)
    h, hp = ambient.h_values(r0)
    return d2 - np.sum(u * gam, axis=1) - hp / h * (1.0 - dr_v ** 2)


def comparison_margin(domain: Domain, alpha: float, r0: float) -> np.ndarray:
    """Pointwise slack of the radial-field divergence lower bound.

    The divergence of ``h(r)^{1-alpha} * grad r`` along the submanifold is
    assembled from the discrete tangent frames and the ambient radial
    Hessian; the bound subtracts the closed-form right-hand side.  On the
    rotationally symmetric model ambients the bound is attained, so margins
    sit at roundoff level.

    Margins are reported on the ungraded site table: the extra sites graded
    into the pole singularity amplify frame roundoff by ``h(r)^-alpha``
    without adding information about the pointwise bound.
    """
    batch, _ = domain.sites(0.0)
    if np.any(batch.r > r0 * (1 + 1e-9)):
        raise PreconditionViolated("domain is not inside the ball of radius r0")
    if np.any(batch.r == 0.0):
        raise PreconditionViolated("margin undefined at the pole")
    div = batch.hp * batch.h ** (-alpha) * (domain.k - alpha * batch.tan_sq)
    rhs = batch.hp * ((domain.k - alpha) / batch.h ** alpha
                      + alpha * batch.perp ** 2 / batch.h ** alpha)
    return div - rhs


def refinement_study(inequality: str, domain: Domain, field, options: dict,
                     levels: int = 2):
    """Evaluate one configuration on nested refinements.

    Returns ``(rows, monotone)`` where rows are ``(level, ratio,
    quadrature_error)`` and ``monotone`` flags decreasing successive ratio
    increments.
    """
    if levels < 0:
        raise InvalidArgument("levels must be >= 0")
    rows = []
    for level, dom in refinements(domain, levels):
        rep = evaluate(inequality, dom, field, options)
        rows.append((level, rep.ratio, rep.quadrature_error))
    diffs = np.abs(np.diff([row[1] for row in rows]))
    return rows, bool(np.all(diffs[1:] <= diffs[:-1] + 1e-12))


def observed_order(errors) -> float:
    """Least-squares convergence order from per-level errors (halving h)."""
    errors = [max(abs(e), 1e-16) for e in errors]
    if len(errors) < 2:
        return 0.0
    return float(-np.polyfit(np.arange(len(errors)), np.log2(errors), 1)[0])
