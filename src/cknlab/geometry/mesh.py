"""Simplicial meshes immersed in Euclidean ambient space.

Meshes carry global vertex coordinates, k-simplex cells and (k-1)-simplex
boundary facets.  Mean curvature is recovered at vertices by fitting a
quadratic graph over the tangent plane of the two-ring neighbourhood, which
works in any codimension; per-cell data (orthonormal tangent frames, linear
reconstruction of sampled scalar fields) is exact on each flat cell.  The
boundary topology comes from sorted facet rows, and each boundary facet's
outward conormal is the normalized gradient of the owning cell's barycentric
coordinate opposite it, read off the kept barycentric gradients, for every
facet at once, for any k; domains take curves and triangle meshes (k = 1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from ..errors import DegenerateGeometry, InsufficientStencil, InvalidArgument

# vertices per stacked curvature fit: bounds the fit's scratch memory
_FIT_BLOCK = 512
# least eigenvalue the fit's equilibrated normal equations must provably
# have; stencils short of it are fitted by pseudo-inverse
_FIT_MIN_EIG = 1e-6


@dataclass
class SimplicialMesh:
    """Vertex/cell/boundary arrays plus generator metadata.

    ``metadata`` records how the mesh was built (generator name, radius,
    center, in-plane axes, ...) so scalar-field factories can evaluate
    chart-like coordinates and exact boundary-vanishing factors.
    """

    vertices: np.ndarray          # (V, n)
    cells: np.ndarray             # (C, k+1) int
    boundary_facets: np.ndarray   # (B, k) int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = np.asarray(self.cells, dtype=int)
        if self.boundary_facets is None or len(self.boundary_facets) == 0:
            self.boundary_facets = np.zeros((0, self.cells.shape[1] - 1), int)
        else:
            self.boundary_facets = np.asarray(self.boundary_facets, dtype=int)
        # what the domain and every field binding on this mesh derive from
        # its vertices and cells alone (edge Gram, frames, curvature fit,
        # barycentric gradients, vertex columns), filled by kept()
        self.kept = {}

    @property
    def k(self) -> int:
        return self.cells.shape[1] - 1

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    # -- per-cell geometry ----------------------------------------------------

    def edge_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, k, n) edges from each cell's first vertex, and their Gram.

        Computed once per mesh.
        """
        def build():
            v = self.vertices[self.cells]
            e = v[:, 1:, :] - v[:, :1, :]
            return e, np.einsum("cin,cjn->cij", e, e)

        return kept(self.kept, "edge_gram", build)

    def cell_volumes(self) -> np.ndarray:
        _, gram = self.edge_gram()
        det = np.linalg.det(gram)
        if np.any(det <= 0):
            raise DegenerateGeometry("cell with nonpositive induced volume")
        return np.sqrt(det) / math.factorial(self.k)

    def cell_frames(self) -> np.ndarray:
        """(C, k, n) orthonormal tangent frames (flat cells, Euclidean metric).

        Computed once per mesh.
        """
        def build():
            q, _ = np.linalg.qr(np.transpose(self.edge_gram()[0], (0, 2, 1)))
            return np.transpose(q, (0, 2, 1))

        return kept(self.kept, "cell_frames", build)

    def barycentric_gradients(self) -> np.ndarray:
        """(C, k, n) gradients ``gram^-1 e`` of each cell's barycentric
        coordinates of its vertices 1 to k; computed once per mesh."""
        return kept(self.kept, "barycentric_gradients",
                    lambda: np.linalg.solve(*self.edge_gram()[::-1]))

    def reconstruct_gradients(self, vertex_values: np.ndarray) -> np.ndarray:
        """(C, n) in-plane gradients of the per-cell linear interpolant."""
        dv = vertex_values[self.cells[:, 1:]] - vertex_values[self.cells[:, :1]]
        return np.einsum("ci,cin->cn", dv, self.barycentric_gradients())

    # -- boundary ---------------------------------------------------------------

    def boundary_owners(self) -> np.ndarray:
        """Cell index owning each boundary facet.

        Raises :class:`InvalidArgument` at the first facet that is a facet
        of no cell or of several.
        """
        subs = _sub_facets(self.cells)
        facets = np.sort(self.boundary_facets, axis=1)
        order, group = _row_groups(np.concatenate([subs, facets]))
        # per group of equal rows: its number of cell sub-facets and, when
        # that is one, the cell
        is_sub = order < len(subs)
        count = np.bincount(group[is_sub], minlength=group[-1] + 1)
        owner = np.zeros(len(count), dtype=int)
        owner[group[is_sub]] = order[is_sub] // (self.k + 1)
        at = np.empty(len(facets), dtype=int)
        at[order[~is_sub] - len(subs)] = group[~is_sub]
        bad = np.flatnonzero(count[at] != 1)
        if len(bad):
            i = bad[0]
            raise InvalidArgument(f"boundary facet {facets[i].tolist()} "
                                  f"owned by {count[at[i]]} cells")
        return owner[at]

    def boundary_conormals(self) -> np.ndarray:
        """(B, n) outward unit conormals in the owning cell's plane:
        ``-grad lambda / |grad lambda|`` for the owning cell's barycentric
        coordinate ``lambda`` of the vertex opposite the facet."""
        owners = self.boundary_owners()
        grad = self.barycentric_gradients()[owners]            # (B, k, n)
        grad = np.concatenate([-grad.sum(axis=1, keepdims=True), grad], 1)
        cells = self.cells[owners]
        opposite = np.all(cells[:, :, None] != self.boundary_facets[:, None],
                          axis=2).argmax(axis=1)
        nu = -grad[np.arange(len(owners)), opposite]
        return nu / np.linalg.norm(nu, axis=1)[:, None]

    # -- two-ring quadratic fit -------------------------------------------------

    def vertex_mean_curvature(self) -> np.ndarray:
        """(V, n) mean curvature vectors from local quadratic graph fits.

        A vertex's stencil is its two-ring, widened by up to three more
        rings while it holds fewer points than the fit has unknowns (corner
        vertices of structured grids).  Vertices of equal stencil size are
        fitted together, ``_FIT_BLOCK`` at a time.  Raises
        :class:`InsufficientStencil` when a stencil stays too small, or when
        the fit takes a normal direction of the incident cells for a tangent
        (a mesh too coarse for its curvature).  Computed once per mesh.
        """
        return kept(self.kept, "vertex_mean_curvature", self._fit_all)

    def _fit_all(self) -> np.ndarray:
        k, n, nv = self.k, self.n, len(self.vertices)
        if k == n:
            return np.zeros_like(self.vertices)
        ncols = 1 + k + k * (k + 1) // 2
        # CSR stencils: the one-ring from every ordered pair of cell corners
        a = np.repeat(self.cells, k + 1, axis=1).reshape(-1)
        b = np.tile(self.cells, k + 1).reshape(-1)
        one = _csr((a * nv + b)[a != b], nv)
        ring = _widen(one, one, np.arange(nv))
        for _ in range(3):
            short = np.flatnonzero(np.diff(ring[0]) < ncols)
            if not len(short):
                break
            ring = _widen(ring, one, short)
        sizes = np.diff(ring[0])
        if np.any(sizes < ncols):
            v = int(np.argmax(sizes < ncols))
            raise InsufficientStencil(
                f"{self._name()}: vertex {v} has {sizes[v]} stencil "
                f"neighbours, needs {ncols}")
        # the normal space of the cells at each vertex: the n - k smallest
        # eigenvectors of the sum of their tangent projectors
        frames = self.cell_frames()
        tangent = frames.swapaxes(1, 2) @ frames
        acc = np.zeros((nv, n, n))
        for j in range(k + 1):
            np.add.at(acc, self.cells[:, j], tangent)
        cell_normals = np.linalg.eigh(acc)[1][:, :, :n - k]
        out = np.empty((nv, n))
        for size in np.unique(sizes):
            ids = np.flatnonzero(sizes == size)
            for lo in range(0, len(ids), _FIT_BLOCK):
                block = ids[lo:lo + _FIT_BLOCK]
                nbrs = ring[1][ring[0][block][:, None] + np.arange(size)]
                out[block] = self._fit(block, nbrs, cell_normals[block])
        return out

    def _fit(self, block, nbrs, cell_normals):
        """Mean curvature vectors at the vertices ``block``, each fitted over
        its row of ``nbrs``."""
        k, n = self.k, self.n
        m = nbrs.shape[1]
        disp = self.vertices[nbrs] - self.vertices[block][:, None, :]
        # tangent estimate: principal directions of the displacement cloud,
        # the eigenvectors of its n x n scatter, largest first
        frame = np.linalg.eigh(disp.swapaxes(1, 2) @ disp)[1][..., ::-1]
        rows = frame.swapaxes(1, 2)
        tan, nor = rows[:, :k], rows[:, k:]
        # the fitted normal space must hold most of the cells' normal space
        agree = np.sum((nor @ cell_normals) ** 2, axis=(1, 2)) / (n - k)
        if np.any(agree < 0.5):
            v = int(block[np.argmax(agree < 0.5)])
            raise InsufficientStencil(
                f"{self._name()}: the curvature fit at vertex {v} takes a "
                "normal of its cells for a tangent; refine the mesh")
        coords = disp @ frame                         # (B, m, n)
        t, w = coords[..., :k], coords[..., k:]
        iu, ju = np.triu_indices(k)
        A = np.concatenate([np.ones((len(block), m, 1)), t,
                            t[..., iu] * t[..., ju]], axis=2)
        coef = _least_squares(A, w)
        grad = coef[:, 1:1 + k]                       # (B, k, n - k)
        # graph immersion t -> (t, f(t)): exact trace of the second
        # fundamental form of the fitted quadratic at the vertex, whose
        # x_i x_j column enters the Hessian at (i, j) and (j, i)
        ginv = np.linalg.inv(np.eye(k) + grad @ grad.swapaxes(1, 2))
        pair = np.where(iu == ju, 2.0 * ginv[:, iu, ju],
                        ginv[:, iu, ju] + ginv[:, ju, iu])    # (B, nq)
        hvec = (pair[:, None, :] @ coef[:, 1 + k:]) @ nor      # (B, 1, n)
        tangents = tan + grad @ nor                   # (B, k, n)
        along = (hvec @ tangents.swapaxes(1, 2)) @ ginv @ tangents
        return (hvec - along)[:, 0]

    def _name(self) -> str:
        return f"{self.metadata.get('generator', 'custom')} mesh"

    # -- refinement ---------------------------------------------------------------

    def refine(self) -> "SimplicialMesh":
        """Midpoint subdivision (k = 2); snaps to round metadata surfaces."""
        if self.k != 2:
            raise InvalidArgument("refine supports triangle meshes only")
        nv = len(self.vertices)
        # every cell's edges (a, b), (b, c), (c, a), then the boundary
        # facets; midpoints are numbered by first appearance along them
        edges = np.concatenate([self.cells[:, [0, 1, 1, 2, 2, 0]]
                                .reshape(-1, 2), self.boundary_facets])
        key = edges.min(axis=1) * nv + edges.max(axis=1)
        _, at, which = np.unique(key, return_index=True, return_inverse=True)
        rank = np.empty(len(at), dtype=int)
        rank[np.argsort(at)] = np.arange(len(at))
        mid = nv + rank[which]
        firsts = edges[np.sort(at)]
        vertices = np.concatenate([self.vertices, 0.5 * (
            self.vertices[firsts[:, 0]] + self.vertices[firsts[:, 1]])])
        a, b, c = self.cells.T
        ab, bc, ca = mid[:3 * len(self.cells)].reshape(-1, 3).T
        cells = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1)
        fa, fb = self.boundary_facets.T
        fm = mid[3 * len(self.cells):]
        mesh = SimplicialMesh(vertices, cells.reshape(-1, 3),
                              np.stack([fa, fm, fm, fb], 1).reshape(-1, 2),
                              metadata=dict(self.metadata))
        _snap_to_surface(mesh)
        return mesh


def kept(memo: dict, key, compute):
    """``memo[key]``, set to ``compute()`` on first use.

    Threads may compute the same entry at once; each publishes only a
    finished value, and since ``dict.setdefault`` is atomic every caller
    gets the first one published.
    """
    out = memo.get(key)
    if out is None:
        out = memo.setdefault(key, compute())
    return out


def _least_squares(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, c, r) least-squares solutions of the stacked ``A @ coef = w``.

    The normal equations on unit-norm columns: their Gram ``G`` has unit
    diagonal, so its other eigenvalues sum to at most ``c`` and
    ``lambda_min(G) >= det(G) ((c - 1) / c)^(c - 1)``.  Where that bound
    falls below ``_FIT_MIN_EIG`` the fit takes the pseudo-inverse with
    lstsq's default cutoff instead, with the constant term (column 0) fixed
    at 0, since the graph passes through the vertex: a one-ring on a circle,
    whose squared radii equal the constant column, leaves it undetermined.
    """
    c = A.shape[2]
    gram = A.swapaxes(1, 2) @ A
    scale = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))   # (B, c)
    gram *= scale[:, :, None] * scale[:, None, :]
    rhs = (A.swapaxes(1, 2) @ w) * scale[:, :, None]
    ok = np.linalg.det(gram) * ((c - 1) / c) ** (c - 1) >= _FIT_MIN_EIG
    if ok.all():
        return scale[:, :, None] * (np.linalg.inv(gram) @ rhs)
    coef = np.empty(rhs.shape)
    coef[ok] = scale[ok][:, :, None] * (np.linalg.inv(gram[ok]) @ rhs[ok])
    cutoff = max(A.shape[1:]) * np.finfo(float).eps
    coef[~ok, 0] = 0.0
    coef[~ok, 1:] = np.linalg.pinv(A[~ok, :, 1:], rcond=cutoff) @ w[~ok]
    return coef


def _csr(pairs: np.ndarray, nv: int):
    """Row pointers and members of the distinct ``row * nv + member``."""
    rows, members = np.divmod(_distinct(pairs), nv)
    return np.searchsorted(rows, np.arange(nv + 1)), members


def _distinct(pairs: np.ndarray) -> np.ndarray:
    """``np.unique`` of nonnegative ``pairs``: a sort and a neighbour mask."""
    pairs = np.sort(pairs)
    return pairs[np.diff(pairs, prepend=-1) != 0]


def _gather(csr, rows):
    """Every member of the given rows of ``csr``, with its row's position."""
    indptr, members = csr
    count = indptr[rows + 1] - indptr[rows]
    first = np.cumsum(count) - count
    at = np.repeat(indptr[rows] - first, count) + np.arange(count.sum())
    return np.repeat(np.arange(len(rows)), count), members[at]


def _widen(ring, one, rows):
    """``ring`` with the one-ring of every member added at ``rows``.

    Both are CSR stencils ``(indptr, members)`` over the same vertices; no
    vertex joins its own stencil.  The rows are widened ``_FIT_BLOCK`` at a
    time, which bounds the scratch memory of the repeated members.
    """
    nv = len(ring[0]) - 1
    pairs = [np.repeat(np.arange(nv), np.diff(ring[0])) * nv + ring[1]]
    for lo in range(0, len(rows), _FIT_BLOCK):
        block = rows[lo:lo + _FIT_BLOCK]
        at, w = _gather(ring, block)
        via, x = _gather(one, w)
        v = block[at[via]]
        pairs.append(_distinct((v * nv + x)[v != x]))
    return _csr(np.concatenate(pairs), nv)


def _snap_to_surface(mesh: SimplicialMesh):
    meta = mesh.metadata
    if meta.get("generator") == "sphere":
        center = np.asarray(meta["center"], dtype=float)
        radius = meta["radius"]
        d = mesh.vertices - center
        mesh.vertices = center + radius * d / np.linalg.norm(d, axis=1)[:, None]
    elif meta.get("generator") == "disk" and len(mesh.boundary_facets):
        center = np.asarray(meta["center"], dtype=float)
        axes = np.asarray(meta["axes"], dtype=float)
        radius = meta["radius"]
        bverts = np.unique(mesh.boundary_facets)
        d = mesh.vertices[bverts] - center
        plane = d @ axes.T
        rho = np.linalg.norm(plane, axis=1)
        plane = plane * (radius / rho)[:, None]
        mesh.vertices[bverts] = center + plane @ axes
    elif meta.get("generator") == "graph":
        fn = meta["height_fn"]
        mesh.vertices[:, 2] = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])


def detect_boundary(cells: np.ndarray) -> np.ndarray:
    """Facets appearing in exactly one cell, vertices sorted, in the order
    of their cells."""
    subs = _sub_facets(cells)
    order, group = _row_groups(subs)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    # the sort is stable: a group's first row is its first appearance
    once = order[starts][np.bincount(group) == 1]
    return subs[np.sort(once)]


def _sub_facets(cells: np.ndarray) -> np.ndarray:
    """(C * (k + 1), k) facets of every cell, vertices sorted, cell by cell
    in lexicographic order."""
    cells = np.asarray(cells, dtype=int)
    k = cells.shape[1] - 1
    return np.sort(cells, axis=1)[:, list(combinations(range(k + 1), k))
                                  ].reshape(-1, k)


def _row_groups(rows: np.ndarray):
    """The stable lexicographic order of ``rows`` and, along it, the index
    of each row's group of equal rows."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order, np.cumsum(new) - 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def disk_mesh(radius: float = 1.0, rings: int = 8, center=(0.0, 0.0, 0.0),
              axes=None) -> SimplicialMesh:
    """Flat triangulated disk with concentric vertex rings.

    The disk center is a vertex; ring ``j`` holds ``6 j`` vertices at radius
    ``j * radius / rings``, so boundary vertices sit exactly on the rim
    circle.  ``axes`` gives the two in-plane unit vectors (default x, y),
    orthonormal: the rim snap and the vanishing factor project with them.
    """
    if rings < 1:
        raise InvalidArgument("need at least one ring")
    center = np.asarray(center, dtype=float)
    if axes is None:
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    axes = np.asarray(axes, dtype=float)
    if axes.shape != (2, 3) or not np.allclose(axes @ axes.T, np.eye(2),
                                               rtol=0.0, atol=1e-9):
        raise InvalidArgument("disk axes must be two orthonormal 3-vectors")

    # ring j holds 6 j vertices numbered from 1 + 3 j (j - 1); i is each
    # vertex's place in its ring
    js = np.arange(1, rings + 1)
    j = np.repeat(js, 6 * js)
    i = np.arange(1, len(j) + 1) - (1 + 3 * j * (j - 1))
    th = 2.0 * math.pi * i / (6 * j)
    rr = radius * j / rings
    plane = np.zeros((1 + len(j), 2))
    plane[1:, 0] = rr * np.fromiter(map(math.cos, th), float, len(th))
    plane[1:, 1] = rr * np.fromiter(map(math.sin, th), float, len(th))

    # ring 1 fans out from the centre; each later ring j is stitched to
    # ring j - 1 by a circular merge of the angles at which the two rings
    # step to their next vertex, the outer ring first on ties: vertex i of
    # a ring of N steps at 2 pi (i + 1) / N, its last vertex at 2 pi
    fan = np.arange(6)
    cells = [np.stack([np.zeros(6, int), 1 + fan, 1 + (fan + 1) % 6], 1)]
    if rings > 1:
        outer = j >= 2                   # a vertex steps in its own ring's
        inner = j < rings                # merge and in the next one's
        ring = np.concatenate([j[outer], j[inner] + 1])
        size = 6 * np.concatenate([j[outer], j[inner]])
        step = 1 + np.concatenate([i[outer], i[inner]])
        angle = np.where(step < size, 2.0 * math.pi * step / size,
                         2.0 * math.pi)
        is_in = np.arange(len(ring)) >= outer.sum()
        order = np.lexsort((is_in, angle, ring))
        ring, is_in = ring[order], is_in[order]
        # the steps each ring has taken before this one in its merge: all
        # earlier steps of its side, less one per vertex of the rings that
        # side stitched in earlier merges (ring 1 is never the outer ring)
        at_in = 1 + 3 * (ring - 1) * (ring - 2)
        at_out = 1 + 3 * ring * (ring - 1)
        i1 = np.cumsum(is_in) - is_in - (at_in - 1)
        i2 = np.cumsum(~is_in) - ~is_in - (at_out - 1 - 6)
        ni, no = 6 * (ring - 1), 6 * ring
        cells.append(np.stack([
            at_in + i1 % ni, at_out + i2 % no,
            np.where(is_in, at_in + (i1 + 1) % ni,
                     at_out + (i2 + 1) % no)], 1))

    verts = center + plane @ axes
    cells = np.concatenate(cells)
    bfacets = detect_boundary(cells)
    meta = {"generator": "disk", "radius": radius, "center": center,
            "axes": axes}
    return SimplicialMesh(verts, cells, bfacets, metadata=meta)


def sphere_mesh(radius: float = 1.0, level: int = 3,
                center=(0.0, 0.0, 0.0)) -> SimplicialMesh:
    """Icosphere: subdivided icosahedron projected to the sphere."""
    if level < 0:
        raise InvalidArgument("sphere level must be nonnegative")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    cells = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]], int)
    center = np.asarray(center, dtype=float)
    meta = {"generator": "sphere", "radius": radius, "center": center}
    mesh = SimplicialMesh(center + radius * verts, cells, None, metadata=meta)
    for _ in range(level):
        mesh = mesh.refine()
    return mesh


def graph_mesh(height_fn, half_width: float = 1.0, divisions: int = 8,
               center_xy=(0.0, 0.0)) -> SimplicialMesh:
    """Triangulated graph z = f(x, y) over a square grid."""
    if divisions < 1:
        raise InvalidArgument("need at least one division")
    m = divisions
    cx, cy = center_xy
    xs = np.linspace(cx - half_width, cx + half_width, m + 1)
    ys = np.linspace(cy - half_width, cy + half_width, m + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = height_fn(xx, yy)
    verts = np.stack([xx.ravel(), yy.ravel(), np.asarray(zz).ravel()], axis=1)

    def vid(i, j):
        return i * (m + 1) + j

    cells = []
    for i in range(m):
        for j in range(m):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            cells.extend([[a, b, c], [a, c, d]])
    cells = np.array(cells, int)
    meta = {"generator": "graph", "height_fn": height_fn,
            "half_width": half_width, "center_xy": center_xy}
    return SimplicialMesh(verts, cells, detect_boundary(cells), metadata=meta)


# ---------------------------------------------------------------------------
# Text format: counts, coordinates, cells, boundary facets
# ---------------------------------------------------------------------------

def write_mesh(mesh: SimplicialMesh, path) -> None:
    lines = [f"{len(mesh.vertices)} {len(mesh.cells)} {len(mesh.boundary_facets)}"]
    for v in mesh.vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    for f in mesh.boundary_facets:
        lines.append(" ".join(str(int(i)) for i in f))
    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path) -> SimplicialMesh:
    """The mesh in a file written by :func:`write_mesh`.

    Raises :class:`InvalidArgument` when the file cannot be read, or when
    its rows do not match the counts in its header, its cells are not
    simplices of one dimension, or an index names no vertex.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read mesh file {path}: {exc}") from None
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())

    def table(rows, parse, width, what):
        try:
            out = np.array([[parse(x) for x in row] for row in rows])
        except ValueError:
            out = None   # a value that does not parse, or ragged rows
        if out is None or out.ndim != 2 or (width and out.shape[1] != width):
            raise InvalidArgument(f"mesh file {path}: malformed {what} rows")
        return out

    if not rows:
        raise InvalidArgument(f"mesh file {path} is empty")
    nv, nc, nb = table(rows[:1], int, 3, "header")[0]
    if nv < 1 or nc < 1 or nb < 0 or len(rows) != 1 + nv + nc + nb:
        raise InvalidArgument(
            f"mesh file {path}: header declares {nv} vertices, {nc} cells "
            f"and {nb} boundary facets, but {len(rows) - 1} rows follow")
    verts = table(rows[1:1 + nv], float, 0, "vertex")
    cells = table(rows[1 + nv:1 + nv + nc], int, 0, "cell")
    k = cells.shape[1] - 1
    if k < 1:
        raise InvalidArgument(f"mesh file {path}: cells need two or more "
                              "vertices")
    bfacets = (table(rows[1 + nv + nc:], int, k, "boundary facet") if nb
               else None)
    ids = cells if bfacets is None else np.concatenate([cells, bfacets], None)
    if ids.min() < 0 or ids.max() >= nv:
        raise InvalidArgument(f"mesh file {path}: a cell or facet names no "
                              "vertex")
    return SimplicialMesh(verts, cells, bfacets,
                          metadata={"generator": "file", "path": str(path)})
