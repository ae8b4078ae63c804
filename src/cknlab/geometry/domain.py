"""Unified integration domains over meshes and parametric patches.

A :class:`Domain` precomputes quadrature site tables carrying everything an
inequality evaluator consumes per site: position, radius, warp values,
tangential/normal split of the radial direction, mean curvature norm, and
(optionally bound) scalar-field values with tangential gradient norms.

Cells on which the radial weight varies strongly are subdivided until the
weight variation across each piece is mild, by one builder for meshes and
charts (``Domain._pieces``, ``Domain._build_sites``): the kinds differ only
in a piece's corners, its split (midpoint simplices, or a box's bisection
along its best axis) and a rule's sites on pieces.  The subdivision runs
level by level, one batched corner evaluation per depth, and lists the
pieces in the order a depth-first recursion would.  Every integral is
evaluated with a high- and a lower-order rule on the same decomposition,
and the difference feeds the quadrature error estimate.  On a mesh the low
rule's table keeps only its rows of the high rule's table and its weights.

The tables are kept per weight band, band ``ceil(|gamma|)``.  Band 0 keeps
every cell whole and is built first; cell ``c`` holds rows ``c * q`` to
``c * q + q - 1`` of a ``q``-point rule.  A higher band keeps, per rule, a
view of band 0's table, which shares all of its columns but the density,
zero on the rows of the cells the band grades or hands to the pole; and the
table of its graded pieces, the only sites it computes (no view if it keeps
no cell whole).  A field bound to the domain is evaluated on band 0's
tables, and the views read those values.

Above band 0 the cells at the pole leave those tables for one pair of pole
tables, on fixed nodes in the distance ``t`` to the pole times Gauss-Legendre
across: on a polar chart, whose face ``rho = 0`` maps to the pole, ``t`` is
``rho`` on the ring of cells on that face; every simplex with the pole at a
vertex (mesh cells, and the Kuhn triangles of chart boxes with a corner at
the pole) takes Duffy's collapse onto it, area element ``2 t``.  A field is
evaluated on the pair once.  Per ``gamma`` only the radial weights change,
fitted to ``t ** (k - 1 - gamma)``: each pole table carries its radial rule,
which its weighted densities apply.  The rest of the domain stays a cell
away from the pole and grades within a few levels.  A pole on a cell away
from every vertex and grid corner is refused when the domain is built.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, fields as dc_fields, replace
from types import MappingProxyType

import numpy as np

from ..errors import InvalidArgument, NonIntegrableWeight
from ..quadrature import (
    box_rule,
    nested_rows,
    product_rule,
    product_weights,
    simplex_rule,
    simplex_volume,
    split_simplex_bary,
)
from .ambient import AmbientSpace
from .mesh import SimplicialMesh, kept
from .patch import ParametricPatch

_VAR_TOL = 2.0       # admissible weight ratio across one quadrature piece
_TINY = 1e-300
_DEGENERATE = "degenerate chart cell at a quadrature node"
# chart points per batched corner evaluation while grading: bounds the jets'
# scratch memory far below the size of the site tables
_CORNER_CHUNK = 1 << 14
# the pole tables' radial nodes are Gauss-Jacobi's for t ** _POLE_ALPHA
_POLE_ALPHA = -0.8


@dataclass
class Qty:
    """Value with a propagated absolute error estimate."""

    value: float
    err: float = 0.0

    def __add__(self, other):
        if isinstance(other, Qty):
            return Qty(self.value + other.value, self.err + other.err)
        return Qty(self.value + other, self.err)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Qty):
            return Qty(self.value * other.value,
                       abs(self.value) * other.err + abs(other.value) * self.err)
        return Qty(self.value * other, abs(other) * self.err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Qty):
            v = self.value / other.value
            e = (self.err + abs(v) * other.err) / abs(other.value)
            return Qty(v, e)
        return Qty(self.value / other, self.err / abs(other))

    def powf(self, expo: float) -> "Qty":
        if self.value == 0.0:
            return Qty(0.0, self.err ** expo if expo < 1 else 0.0)
        v = self.value ** expo
        return Qty(v, abs(expo * v / self.value) * self.err)

    @property
    def rel_err(self) -> float:
        return self.err / max(abs(self.value), _TINY)


@dataclass
class SiteBatch:
    """Per-site geometry (and optional field) data ready for reductions.

    Every column a builder may set is declared here; a column a table does
    not carry stays ``None``.
    """

    points: np.ndarray        # (S, n)
    density: np.ndarray       # (S,) quadrature weight * measure
    r: np.ndarray             # (S,)
    h: np.ndarray             # (S,)
    hp: np.ndarray            # (S,)
    perp: np.ndarray = None   # (S,) |normal part of the radial direction|
    h_norm: np.ndarray = None  # (S,) |mean curvature vector|
    psi: np.ndarray = None    # (S,)
    grad_psi: np.ndarray = None  # (S,) tangential gradient norm
    conormal_dot: np.ndarray = None  # boundary batches only
    tan_sq: np.ndarray = None  # (S,) |tangential radial part|^2 (unclamped)
    cell_ids: np.ndarray = None  # (S,) mesh cell of each site
    dF: np.ndarray = None     # (S, n, k) chart basis, columns of unit length
    metric_ginv: np.ndarray = None  # (S, k, k) inverse metric in that basis
    # pole tables only: (k - 1, radial nodes t, their product_rule fit, the
    # node under each of one cell's sites)
    radial_rule: tuple = None
    nested: np.ndarray = None  # mesh lo tables: each site's hi table row

    def __post_init__(self):
        # what is derived from this table's columns alone, filled by
        # mesh.kept(): on a domain's table what every field binding shares,
        # on a binding's copy what its evaluation shares
        self.kept = {}
        # ((gamma, use_hprime), weighted densities), shared with the copies
        self.weight_slot = [(None, None)]

    def weight(self, gamma: float, use_hprime: bool):
        """Per-site ``h ** -gamma`` (``* h'``); 1.0 when that is all ones."""
        w = self.h ** (-gamma) if gamma != 0.0 else 1.0
        return w * self.hp if use_hprime else w

    def weighted_density(self, gamma: float, use_hprime: bool):
        """``density * weight(gamma, use_hprime)`` through the slot
        (threads racing on it at worst compute one twice).  A pole table's
        density first takes, per radial node ``t``, the weight fitted to
        ``t ** alpha``, ``alpha = k - 1 - gamma``, over that power; a few of
        these weights are negative (README, "Graded quadrature")."""
        if gamma == 0.0 and not use_hprime and self.radial_rule is None:
            return self.density
        key, w = self.weight_slot[0]
        if key != (gamma, use_hprime):
            w = self.density
            if self.radial_rule is not None:
                k1, t, fit, node = self.radial_rule
                alpha = k1 - gamma
                w = (w.reshape(-1, len(node)) * (product_weights(fit, alpha)
                     * t ** -alpha)[node]).reshape(-1)
            w = w * self.weight(gamma, use_hprime)
            self.weight_slot[0] = ((gamma, use_hprime), w)
        return w

    def with_field(self, psi, grad_psi=None, kept=None) -> "SiteBatch":
        """A shallow copy carrying a field's columns, and ``kept`` or a new
        ``kept`` of its own."""
        out = SiteBatch.__new__(SiteBatch)
        out.__dict__.update(self.__dict__, psi=psi, grad_psi=grad_psi,
                            kept={} if kept is None else kept)
        return out

    def abs_psi_pow(self, p: float) -> np.ndarray:
        """``|psi| ** p``, kept for the other integrals that read it."""
        return kept(self.kept, ("abs_psi", p), lambda: np.abs(self.psi) ** p)


@dataclass(frozen=True)
class GradingStats:
    """Size of the graded decomposition behind one weight band's tables."""

    pieces: int      # quadrature pieces: whole cells plus graded pieces
    max_depth: int   # deepest subdivision level


class Domain:
    """A discretized submanifold inside a model ambient space."""

    def __init__(self, geometry, ambient: AmbientSpace = None, order: int = 4):
        if isinstance(geometry, SimplicialMesh):
            if ambient is None:
                raise InvalidArgument("meshes need an explicit ambient space")
            if ambient.kind != "euclidean":
                raise InvalidArgument(
                    "simplicial meshes are supported in Euclidean ambients "
                    "only; use a parametric patch in warped ambients")
            if geometry.n != ambient.dim:
                raise InvalidArgument(
                    f"the mesh has {geometry.n}-d vertices in a "
                    f"{ambient.dim}-d ambient")
            if geometry.k >= 3:
                raise InvalidArgument(
                    f"simplicial meshes of dimension {geometry.k} are "
                    "unsupported; use a parametric patch")
            self.kind = "mesh"
            self.mesh = geometry
            self.patch = None
            self.ambient = ambient
        elif isinstance(geometry, ParametricPatch):
            self.kind = "patch"
            self.patch = geometry
            self.mesh = None
            self.ambient = geometry.ambient
        else:
            raise InvalidArgument(f"unsupported geometry {type(geometry)!r}")
        if order < 2:
            raise InvalidArgument("quadrature order must be >= 2")
        self.order = order
        self.metadata = dict(geometry.metadata)
        # site tables per band, "pole" and "b" (boundary): the keys of their
        # copies in a binding; and the "refined" domain
        self._tables = {}
        self._grading = {}
        # site tables are built lazily; the lock keeps threads sharing a
        # domain from building the same table twice
        self._build_lock = threading.Lock()
        self._prepare()

    # -- construction ---------------------------------------------------------

    def _prepare(self):
        amb = self.ambient
        self.n = amb.dim
        if self.kind == "mesh":
            mesh = self.mesh
            self.k = mesh.k
            self._volumes = mesh.cell_volumes()
            self._frames = mesh.cell_frames()
            self._vertex_H = mesh.vertex_mean_curvature()
            self.vertex_r = amb.radius(mesh.vertices)
            self.max_radius = float(np.max(self.vertex_r))
            self.boundary_vertices = np.unique(mesh.boundary_facets)
            if len(mesh.boundary_facets):
                self.min_boundary_radius = float(
                    np.min(self.vertex_r[self.boundary_vertices]))
            else:
                self.min_boundary_radius = math.inf
            self.coord_scale = float(np.max(np.abs(mesh.vertices)))
            radii, corners = self.vertex_r, mesh.cells
        else:
            patch = self.patch
            self.k = patch.k
            self._faces = [face for face, kind in patch.faces.items()
                           if kind == "boundary"]
            grid = patch.grid()
            points = patch.jet(_box_grid(grid))[0]
            radii = amb.radius(points)
            self.max_radius = float(np.max(radii))
            self.min_boundary_radius = min(
                (float(np.min(amb.radius(patch.jet(self._face_grid(*f))[0])))
                 for f in self._faces), default=math.inf)
            self.coord_scale = float(np.max(np.abs(points)))
            shape = [len(g) for g in grid]
            # corner c of a box takes the upper end of axis d if bit d is set
            corners = np.ravel_multi_index(tuple(
                np.indices(patch.cells_per_axis).reshape(self.k, -1, 1)
                + (np.arange(2 ** self.k) >> np.arange(self.k)[:, None] & 1)
                [:, None]), shape)
        self._ncells = len(corners)
        # the cells with a mesh vertex or grid corner at the pole, and which
        # of their corners it is
        tol = 1e-12 * max(1.0, self.coord_scale)
        at_pole = radii <= tol
        hits = at_pole[corners]
        self.through_pole = bool(hits.any())
        self._pole_cells = np.flatnonzero(hits.any(axis=1))
        self._pole_corner = hits[self._pole_cells].argmax(axis=1)
        # a polar chart maps a whole face of its grid to the pole
        self._pole_face = None if self.kind == "mesh" else next(
            (face for face in self.patch.faces if np.take(
                at_pole.reshape(shape), -face[1], axis=face[0]).all()), None)
        if not self.through_pole:
            self._check_pole_placement()
        if self.kind == "patch" and self._faces:
            # the face samples can miss the closest boundary point
            site_r = min(float(np.min(t.r)) for t in self.boundary_sites())
            if site_r < self.min_boundary_radius - tol:
                self.min_boundary_radius = site_r

    def _check_pole_placement(self):
        """Refuse a pole on a closed cell but at none of its corners.

        Gauss-Newton steps toward ``F(u) = pole``: one, exact, on the affine
        map of a mesh cell's barycentrics; a few through the chart's jet from
        each cell's centre, each kept in the closed cell.
        """
        pole = self.ambient.pole

        def step(u, F, dF):
            return u + (np.linalg.pinv(dF) @ (pole - F)[..., None])[..., 0]

        with np.errstate(all="ignore"):
            if self.kind == "mesh":
                first = self.mesh.vertices[self.mesh.cells[:, 0]]
                e = self.mesh.edge_gram()[0].swapaxes(1, 2)     # (C, n, k)
                lam = step(np.zeros((len(first), self.k)), first, e)
                F = first + (e @ lam[..., None])[..., 0]
                inside = ((lam.min(axis=1) >= -1e-9)
                          & (lam.sum(axis=1) <= 1 + 1e-9))
                message = ("the pole lies on the mesh but not at a vertex; "
                           "rebuild the mesh with a vertex at the pole")
            else:
                lo, hi = self.patch.cell_boxes()
                u = 0.5 * (lo + hi)
                for _ in range(8):
                    u = np.clip(step(u, *self.patch.jet(u)[:2]), lo, hi)
                F = self.patch.jet(u)[0]
                inside = True
                message = ("the pole falls inside a chart cell; choose the "
                           "cells so that it is a grid corner (an even count "
                           "for a chart centered on it)")
        dist = np.linalg.norm(F - pole, axis=1)
        if np.any(inside & (dist < 1e-9 * max(1.0, self.coord_scale))):
            raise InvalidArgument(message)

    def _face_grid(self, axis, side):
        """Five points per free axis across one chart face."""
        return _box_grid([np.array([b[side]]) if d == axis
                          else np.linspace(b[0], b[1], 5)
                          for d, b in enumerate(self.patch.bounds)])

    @property
    def has_boundary(self) -> bool:
        if self.kind == "mesh":
            return len(self.mesh.boundary_facets) > 0
        return bool(self._faces)

    def refined(self) -> "Domain":
        return self._cached("refined", lambda: Domain((
            self.mesh.refine() if self.kind == "mesh"
            else self.patch.refined()), self.ambient, self.order))

    def describe(self) -> dict:
        return {"kind": self.kind, "k": self.k, "n": self.n,
                "generator": self.metadata.get("generator", "custom"),
                "cells": self._ncells, "ambient": self.ambient.kind,
                "through_pole": self.through_pole,
                "quadrature_order": self.order}

    # -- field binding ----------------------------------------------------------

    def bind(self, field):
        """``field`` bound afresh (a binding to this domain passes as is)."""
        return field.bind(self)

    # -- interior sites ---------------------------------------------------------

    def _gamma_band(self, gamma: float) -> int:
        return max(0, int(math.ceil(abs(gamma))))

    @property
    def grading(self):
        """Read-only :class:`GradingStats` per weight band built so far."""
        return MappingProxyType(self._grading)

    def _cached(self, key, build):
        if key not in self._tables:
            with self._build_lock:
                if key not in self._tables:
                    self._tables[key] = build()
        return self._tables[key]

    def sites(self, gamma: float = 0.0, bound_field=None):
        """Every site batch an integral of ``h(r) ** -gamma`` reads, hi and
        lo rules alternating: band 0's pair ``(hi, lo)``, or above band 0
        the band's views of band 0's tables (none if it keeps no cell
        whole), its graded pieces and on the pole the domain's pole pair,
        which :meth:`SiteBatch.weighted_density` weighs for ``gamma``.  With
        the pole on the domain the exponent must stay below ``k``.
        """
        if self.through_pole and gamma >= self.k:
            raise NonIntegrableWeight(
                f"weight exponent {gamma} >= dimension {self.k} with the "
                "pole on the domain")
        band = self._gamma_band(gamma)
        # band 0 first: the other bands view its tables, reading the cache
        # directly, since the build lock is not reentrant
        base = self._with_field(self._cached(0, lambda: self._build_sites(0)),
                                0, bound_field)
        if not band:
            return base
        tables = self._cached(band, lambda: self._build_sites(band))
        tables = self._with_field(tables, band, bound_field,
                                  base[:len(tables) - 2])
        if len(self._pole_cells):
            tables += self._with_field(self._cached("pole", self._pole_tables),
                                       "pole", bound_field)
        return tables

    def _with_field(self, tables, key, bound_field, base=(), at=None):
        """``tables`` with the field's values by ``at`` (``at_sites``), kept
        in its binding.  The first ones view ``base``, the bound tables they
        were made from; a nested lo table passes as it is."""
        if bound_field is None:
            return tables
        return kept(bound_field.kept, key, lambda: tuple(
            t if t.nested is not None
            else t.with_field(b.psi, b.grad_psi, b.kept) if b is not None
            else t.with_field(*(at or bound_field.at_sites)(t))
            for t, b in zip(tables, base + (None,) * len(tables))))

    def _band0_view(self, rule, cells) -> SiteBatch:
        """Band 0's table of ``rule``, with density only at ``cells``."""
        base = self._tables[0][rule]
        keep = np.zeros(self._ncells, dtype=bool)
        keep[cells] = True
        return replace(base, density=np.where(
            keep.repeat(len(base.r) // self._ncells), base.density, 0.0))

    # ---- graded decomposition

    def _pieces(self, band):
        """The cells kept whole, the graded pieces with their owner cells,
        and the band's :class:`GradingStats`.

        Above band 0 the cells at the pole are left out (see
        :meth:`_pole_tables`).  The cells on which the weight varies mildly
        are kept whole, in cell order; the others' pieces follow in
        depth-first order: on a mesh the barycentrics of each piece's
        corners in its cell, on a chart the boxes ``(lo, hi)``.
        """
        cells = np.setdiff1d(np.arange(self._ncells),
                             self._pole_cells if band else [])
        if self.kind == "mesh":
            eye = np.eye(self.k + 1)
            start = (np.broadcast_to(eye, (len(cells),) + eye.shape),)
        else:
            start = tuple(a[cells] for a in self.patch.cell_boxes())
        var = self._corner_variation(start, cells, band)
        mild = var <= _VAR_TOL
        pieces, owner, stats = _grade(
            tuple(p[~mild] for p in start), cells[~mild], var[~mild],
            lambda pieces, owner: self._split(pieces, owner, band),
            2 ** self.k if self.kind == "mesh" else 2)
        whole = cells[mild]
        return (whole, pieces, owner,
                replace(stats, pieces=stats.pieces + len(whole)))

    def _corner_variation(self, pieces, owner, band):
        """Weight ratio ``(max h / min h) ** band`` over each piece's
        corners (``owner``: the mesh cell of each piece)."""
        count = len(pieces[0])
        if band == 0 or not count:
            return np.ones(count)
        if self.kind == "mesh":
            corners = pieces[0] @ self.mesh.vertices[self.mesh.cells[owner]]
            r = self.ambient.radius(corners.reshape(-1, self.n))
        else:
            # corner c of a box takes the upper end of axis d if bit d is set
            lo, hi = pieces
            k = self.k
            upper = (np.arange(2 ** k)[:, None] >> np.arange(k) & 1) > 0
            U = np.where(upper, hi[:, None, :], lo[:, None, :]).reshape(-1, k)
            r = np.concatenate([
                self.ambient.radius(self.patch.jet(U[i:i + _CORNER_CHUNK])[0])
                for i in range(0, len(U), _CORNER_CHUNK)])
        h = self.ambient.h_values(r)[0].reshape(count, -1)
        # one float power per row: numpy's ** takes fast paths (square,
        # SIMD pow) whose rounding need not match pow()
        try:
            return np.array([math.inf if lo <= 0.0 else (hi / lo) ** band
                             for lo, hi in zip(h.min(axis=1).tolist(),
                                               h.max(axis=1).tolist())])
        except OverflowError:
            raise InvalidArgument(f"at |gamma| near {band:.3g} the weight "
                                  "overflows a float across a cell") from None

    def _split(self, pieces, owner, band):
        """Every piece's children, grouped by piece, and their variations.

        A mesh piece splits into its ``2 ** k`` midpoint simplices.  A chart
        box is bisected on one axis, the one whose worse child varies least
        (the wider axis on a tie): splitting every axis would multiply the
        pieces along an edge near the pole at every level.
        """
        k = self.k
        if self.kind == "mesh":
            children = np.stack(split_simplex_bary(k))
            # dyadic barycentric entries: the products are exact
            mb = (children @ pieces[0][:, None]).reshape(-1, k + 1, k + 1)
            return (mb,), self._corner_variation(
                (mb,), owner.repeat(len(children)), band)
        lo, hi = pieces
        # children of a box on every axis, (axis, lower/upper child, coord)
        on_axis = np.eye(k, dtype=bool)[:, None, :]
        upper = np.array([[False], [True]])
        mid = 0.5 * (lo + hi)[:, None, None, :]
        clo = np.where(on_axis & upper, mid, lo[:, None, None, :])
        chi = np.where(on_axis & ~upper, mid, hi[:, None, None, :])
        cvar = self._corner_variation(
            (clo.reshape(-1, k), chi.reshape(-1, k)), None,
            band).reshape(len(lo), k, 2)
        # per box, the first axis of least (worse child, -width)
        best = np.lexsort((lo - hi, cvar.max(axis=2)), axis=1)[:, 0]
        rows = np.arange(len(lo))
        return ((clo[rows, best].reshape(-1, k),
                 chi[rows, best].reshape(-1, k)),
                cvar[rows, best].reshape(-1))

    # ---- site tables

    def _simplex_indices(self):
        """Grundmann-Moller indices of the high and low mesh rules."""
        return self.order // 2, self.order // 2 - 1

    def _build_sites(self, band):
        """The band's tables, hi rule first: above band 0 a view of band
        0's table per rule at the cells it keeps whole (if any), then per
        rule the sites of its graded pieces.  Band 0's are every cell's
        sites, on a mesh from its cell volumes and by ``einsum``: the graded
        formulas differ from these in the last bits."""
        whole, pieces, owner, stats = self._pieces(band)
        self._grading[band] = stats
        out = [self._band0_view(rule, whole) for rule in (0, 1)
               if band and len(whole)]
        if self.kind == "patch":
            lo, hi = pieces if band else self.patch.cell_boxes()
            return tuple(out + [self._box_sites(box_rule(self.k, npts), lo, hi)
                                for npts in (self.order, self.order - 1)])
        cells = owner if band else whole
        corners = self.mesh.vertices[self.mesh.cells[cells]]
        vols = (simplex_volume(pieces[0] @ corners) if band
                else self._volumes[cells])
        bary, wts = simplex_rule(self.k, self._simplex_indices()[0])
        return tuple(out) + self._nested_pair(self._simplex_sites(
            (bary @ pieces[0] if band else bary, wts), cells, corners, vols),
            vols, self.k)

    def _nested_pair(self, hi, vols, k):
        """``hi`` and the low rule's table: its rows of ``hi`` and weights."""
        s_hi, s_lo = self._simplex_indices()
        nested = (np.arange(len(vols))[:, None] * len(simplex_rule(k, s_hi)[1])
                  + nested_rows(k, s_hi)).reshape(-1)
        cols = {c: v[nested] for c in ("r", "h", "hp", "conormal_dot")
                if (v := getattr(hi, c)) is not None}
        return hi, SiteBatch(**cols, points=None, nested=nested, density=(
            vols[:, None] * simplex_rule(k, s_lo)[1]).reshape(-1))

    def _simplex_sites(self, rule, cells, corners, vols) -> SiteBatch:
        """The sites of ``rule`` on pieces of ``cells``: barycentrics in the
        cell, shared (q, k + 1) or per piece (P, q, k + 1), and weights;
        ``corners`` are the cells', ``vols`` the pieces' volumes."""
        bary, wts = rule
        if bary.ndim == 2:
            pts = np.einsum("qb,cbn->cqn", bary, corners)
            bary = np.broadcast_to(bary, (len(cells),) + bary.shape)
        else:
            pts = bary @ corners
        return self._mesh_batch(
            cells.repeat(len(wts)), bary.reshape(-1, self.k + 1),
            pts.reshape(-1, self.n), (vols[:, None] * wts).reshape(-1))

    def _box_sites(self, rule, lo, hi) -> SiteBatch:
        """The sites of ``rule``, nodes on the unit cube and weights, on
        each chart box ``(lo, hi)``."""
        nodes, wts = rule
        width = hi - lo
        U = lo[:, None] + nodes * width[:, None]               # (P, q, k)
        return self._patch_batch(U.reshape(-1, self.k), (
            wts * np.prod(width, axis=1)[:, None]).reshape(-1))[0]

    def _radial(self, pts):
        """r, h(r), h'(r) and the unit radial direction at ambient points."""
        amb = self.ambient
        r = amb.radius(pts)
        h, hp = amb.h_values(r)
        u = (pts - amb.pole) / np.where(r > 0, r, 1.0)[:, None]
        return r, h, hp, u

    def _mesh_batch(self, cell_ids, bary, pts, dens) -> SiteBatch:
        r, h, hp, u = self._radial(pts)
        frames = self._frames[cell_ids]
        dots = (frames @ u[..., None])[..., 0]
        tan_sq = np.einsum("sk,sk->s", dots, dots)
        # |u - its tangential part|, without the cancellation of 1 - tan_sq
        normal = (dots[:, None, :] @ frames)[:, 0]
        normal -= u
        perp = np.sqrt(np.einsum("sn,sn->s", normal, normal))
        del frames, normal   # before the curvature gather, the largest
        h_norm = np.linalg.norm(np.einsum(
            "sb,sbn->sn", bary, self._vertex_H[self.mesh.cells[cell_ids]]),
            axis=1)
        return SiteBatch(points=pts, density=dens, r=r, h=h, hp=hp, perp=perp,
                         h_norm=h_norm, tan_sq=tan_sq, cell_ids=cell_ids)

    def _pole_tables(self):
        """(hi, lo) tables of the cells at the pole, without radial weights:
        each carries its radial rule (:func:`product_rule`) and the node of
        that rule under each of one cell's (or triangle's) sites.

        Per rule ``2 * npts`` radial nodes, Gauss-Jacobi's for ``t **
        _POLE_ALPHA``, outer, times ``npts = order, order - 1`` per other
        axis, under one of the two maps of the module docstring.
        """
        k, cells = self.k, self._pole_cells
        if self._pole_face is None and k != 2:
            raise InvalidArgument(
                f"no pole rule for a {k}-dimensional domain with the pole at "
                "a vertex or grid corner; move the pole off the domain")
        if self.kind == "patch":
            lo, hi = (a[cells] for a in self.patch.cell_boxes())
            volume = np.prod(hi - lo, axis=1)
        out, radial = [], []
        for npts in (self.order, self.order - 1):
            t, fit = product_rule(2 * npts, _POLE_ALPHA)
            others, wo = box_rule(k - 1, npts)
            radial.append((k - 1, t, fit, np.arange(len(t)).repeat(len(wo))))
            if self._pole_face is not None:
                axis, side = self._pole_face
                nodes = np.empty((len(t), len(wo), k))
                nodes[..., axis] = (t if side == 0 else 1.0 - t)[:, None]
                nodes[..., np.arange(k) != axis] = others
                out.append(self._box_sites(
                    (nodes.reshape(-1, k), np.tile(wo, len(t))), lo, hi))
                continue
            # Duffy: (t, u) -> (1 - t, t (1 - u), t u), area element 2 t
            t_, u = t[:, None], others[:, 0]
            bary = np.stack(np.broadcast_arrays(
                1.0 - t_, t_ * (1.0 - u), t_ * u), 2).reshape(-1, 3)
            wts = (2.0 * t_ * wo).reshape(-1)
            if self.kind == "mesh":
                # rotate each cell's barycentric columns to put the pole first
                cols = (np.arange(3) - self._pole_corner[:, None]) % 3
                bary = bary[:, cols].swapaxes(0, 1)           # (C, q, 3)
                out.append(self._simplex_sites(
                    (bary, wts), cells,
                    self.mesh.vertices[self.mesh.cells[cells]],
                    self._volumes[cells]))
                continue
            # the box's corner p at the pole, its opposite corner q
            at_pole = (self._pole_corner[:, None] >> np.arange(k) & 1) > 0
            p, q = np.where(at_pole, hi, lo), np.where(at_pole, lo, hi)
            tri = np.stack([p, np.where([True, False], q, p), q,
                            p, np.where([False, True], q, p), q], axis=1)
            out.append(self._patch_batch(
                (bary @ tri.reshape(-1, 3, 2)).reshape(-1, k),
                (np.repeat(volume / 2.0, 2)[:, None] * wts).reshape(-1))[0])
        for table, rule in zip(out, radial):
            table.radial_rule = rule
        return tuple(out)

    def _patch_batch(self, U, rule_dens):
        """The site batch at chart points ``U``, and the (S, k) lengths of
        the chart columns, which only the boundary's measure reads."""
        patch, amb = self.patch, self.ambient
        F, dF, d2F = patch.jet(U)
        G = amb.metric_matrix(F)
        g = dF.swapaxes(1, 2) @ (G @ dF)
        colnorm_sq = np.diagonal(g, axis1=1, axis2=2)
        if np.any(colnorm_sq <= 0):
            raise InvalidArgument(_DEGENERATE)
        # normalize the chart basis columns: polar-type charts are severely
        # ill-conditioned near their axis, and the curvature projection
        # would cancel catastrophically in the raw basis
        colnorm = np.sqrt(colnorm_sq)
        dFn = dF / colnorm[:, None, :]
        ginv, det_n = _adjugate_and_det(
            g / (colnorm[:, :, None] * colnorm[:, None, :]))
        det = det_n * np.prod(colnorm_sq, axis=1)
        if np.any(det <= 0):
            raise InvalidArgument(_DEGENERATE)
        ginv /= det_n[:, None, None]
        dens = rule_dens * np.sqrt(det)
        r, h, hp, u = self._radial(F)
        dr = (u[:, None, :] @ dFn)[:, 0]
        # the radial direction's tangential part in the basis dFn
        along = (ginv @ dr[..., None])[..., 0]
        tan_sq = np.sum(dr * along, axis=1)
        k, n = patch.k, self.n
        if k == n:
            h_norm = np.zeros(len(U))
            perp = np.zeros(len(U))
            tan_sq = np.ones(len(U))
        else:
            perp = _metric_norm(G, u - (dFn @ along[..., None])[..., 0])
            S = (d2F + amb.connection(F, dF)) / (
                colnorm[:, None, :, None] * colnorm[:, None, None, :])
            # the trace, and its normal part taken twice: near a polar
            # chart's axis the trace grows like 1 / r, and one projection
            # leaves tangential roundoff of that size
            H = S.reshape(len(U), n, k * k) @ ginv.reshape(len(U), k * k, 1)
            to_tangent, inner = dFn @ ginv, (G @ dFn).swapaxes(1, 2)
            for _ in range(2):
                H = H - to_tangent @ (inner @ H)
            h_norm = _metric_norm(G, H[..., 0])
        return SiteBatch(points=F, density=dens, r=r, h=h, hp=hp, perp=perp,
                         h_norm=h_norm, tan_sq=tan_sq, dF=dFn,
                         metric_ginv=ginv), colnorm

    # -- boundary sites -----------------------------------------------------------

    def boundary_sites(self, bound_field=None):
        tables = self._cached("b", self._build_mesh_boundary
                              if self.kind == "mesh"
                              else self._build_patch_boundary)
        if tables[0] is None:
            return tables
        return self._with_field(tables, "b", bound_field, at=lambda t: (
            bound_field.at_boundary(t),))

    def _build_mesh_boundary(self):
        mesh = self.mesh
        if not len(mesh.boundary_facets):
            return None, None
        corners = mesh.vertices[mesh.boundary_facets]         # (B, k, n)
        vols = simplex_volume(corners)
        bary, wts = simplex_rule(self.k - 1, self._simplex_indices()[0])
        pts = np.einsum("qb,fbn->fqn", bary, corners).reshape(-1, self.n)
        r, h, hp, u = self._radial(pts)
        conorm = np.repeat(mesh.boundary_conormals(), len(wts), axis=0)
        return self._nested_pair(SiteBatch(
            points=pts, density=(vols[:, None] * wts[None, :]).reshape(-1),
            r=r, h=h, hp=hp, conormal_dot=np.einsum("sn,sn->s", u, conorm)),
            vols, self.k - 1)

    def _build_patch_boundary(self):
        """Sites on the boundary faces: face, then cell, then node order.

        On the face ``u_a = const`` the measure is ``sqrt(det g * g^aa)``
        and the conormal ``+-grad u_a / |grad u_a|`` (README, "Graded
        quadrature"), read off the sites' inverse metric.
        """
        patch = self.patch
        k = patch.k
        if not self._faces:
            return None, None
        if k == 1:
            raise InvalidArgument("curve boundaries unsupported")
        lo, hi = patch.cell_boxes()
        cell_index = np.indices(patch.cells_per_axis).reshape(k, -1)
        out = []
        for npts in (self.order, self.order - 1):
            nodes, wts = box_rule(k - 1, npts)
            parts = []
            for axis, side in self._faces:
                others = [d for d in range(k) if d != axis]
                on_face = (cell_index[axis]
                           == side * (patch.cells_per_axis[axis] - 1))
                lo_f = lo[on_face][:, others]
                width = hi[on_face][:, others] - lo_f
                U = np.full((len(lo_f), len(nodes), k),
                            patch.bounds[axis][side])
                U[:, :, others] = lo_f[:, None] + nodes * width[:, None]
                U = U.reshape(-1, k)
                b, colnorm = self._patch_batch(
                    U, (wts * np.prod(width, axis=1)[:, None]).reshape(-1))
                gaa = np.sqrt(b.metric_ginv[:, axis, axis])
                u = self._radial(b.points)[3]
                dr = (u[:, None, :] @ b.dF)[:, 0]
                sign = 1.0 if side == 1 else -1.0
                parts.append(SiteBatch(
                    points=b.points,
                    density=b.density * gaa / colnorm[:, axis],
                    r=b.r, h=b.h, hp=b.hp,
                    conormal_dot=sign * np.sum(
                        b.metric_ginv[:, axis] * dr, axis=1) / gaa))
            out.append(_concat_batches(parts))
        return tuple(out)


def _metric_norm(G, v):
    """Norms of the rows of ``v`` under the metrics ``G``."""
    Gv = (G @ v[..., None])[..., 0]
    return np.sqrt(np.maximum(np.sum(v * Gv, axis=1), 0.0))


def _adjugate_and_det(a):
    """Adjugates and determinants of a stack of k x k matrices, k <= 3.

    The inverse is ``adj / det``: closed forms, for the column-normalized
    chart metrics, which are well conditioned.
    """
    k = a.shape[-1]
    if k == 1:
        return np.ones_like(a), a[:, 0, 0]
    if k == 2:
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        return np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]],
                        axis=1).reshape(-1, 2, 2), det
    if k != 3:
        raise NotImplementedError(f"no closed-form inverse for k = {k}")
    # adj[i, j] is the cofactor of a[j, i]: products of cyclic index shifts
    i1, i2 = [1, 2, 0], [2, 0, 1]
    adj = (a[:, i1][:, :, i1] * a[:, i2][:, :, i2]
           - a[:, i1][:, :, i2] * a[:, i2][:, :, i1]).swapaxes(1, 2)
    return adj, np.sum(a[:, 0, :] * adj[:, :, 0], axis=1)


def _box_grid(axes):
    """Every point of the tensor grid over ``axes``, the last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _grade(pieces, owner, var, split, base):
    """Subdivide pieces level by level until the weight variation is mild.

    ``pieces`` is a tuple of arrays indexed by piece, ``owner`` the cell
    rank of each piece and ``var`` its weight variation.  ``split(pieces,
    owner)`` returns every piece's ``base`` children, grouped by parent,
    with their variations.  A piece is accepted once its variation is at
    most ``_VAR_TOL``.  The accepted pieces come back in depth-first order:
    by owner, then by child-index path, which is packed left-aligned into an
    int64 key; a grading that outgrows the key means a pole on the domain
    away from every vertex and grid corner.
    """
    key = np.zeros(len(owner), dtype=np.int64)
    done = []
    depth = 0
    while True:
        accept = var <= _VAR_TOL
        done.append((tuple(p[accept] for p in pieces), owner[accept],
                     key[accept], depth))
        if accept.all():
            break
        if base ** (depth + 1) > np.iinfo(np.int64).max:
            raise InvalidArgument("the pole lies on the domain but not at a "
                                  "vertex or grid corner")
        keep = ~accept
        pieces, var = split(tuple(p[keep] for p in pieces), owner[keep])
        owner = owner[keep].repeat(base)
        key = (key[keep][:, None] * base + np.arange(base)).reshape(-1)
        depth += 1
    owner = np.concatenate([d[1] for d in done])
    order = np.lexsort((np.concatenate([d[2] * base ** (depth - d[3])
                                        for d in done]), owner))
    pieces = tuple(np.concatenate([d[0][i] for d in done])[order]
                   for i in range(len(pieces)))
    return pieces, owner[order], GradingStats(len(order), depth)


def _concat_batches(batches) -> SiteBatch:
    return SiteBatch(**{
        f.name: None if getattr(batches[0], f.name) is None
        else np.concatenate([getattr(b, f.name) for b in batches])
        for f in dc_fields(SiteBatch)})


# ---------------------------------------------------------------------------
# Integral operators
# ---------------------------------------------------------------------------

def weighted_integral(domain: Domain, integrand, gamma: float,
                      weight_kind: str = "h_power",
                      field=None) -> Qty:
    """Integral of ``integrand * h'(r)^{0|1} / h(r)^gamma`` over the domain.

    ``integrand`` is a callable mapping a :class:`SiteBatch` to nonnegative
    per-site values (or a constant), the value at a site depending on that
    site's row alone (a nested lo table reads its hi table's values).  With
    the pole on the domain the weight exponent must stay below the dimension.
    """
    if weight_kind not in ("h_power", "h_power_times_hprime"):
        raise InvalidArgument(f"unknown weight kind {weight_kind!r}")
    bound = domain.bind(field) if field is not None else None
    tables = domain.sites(gamma, bound)
    hprime = weight_kind == "h_power_times_hprime"
    weights = [t.weighted_density(gamma, hprime) for t in tables]
    return _reduce(tables, weights, integrand, "integrand must be nonnegative")


def boundary_integral(domain: Domain, integrand, weight_exponent: float,
                      with_radial_conormal: bool = False,
                      field=None) -> Qty:
    """Boundary integral with weight ``1/h(r)^{weight_exponent}``.

    ``with_radial_conormal`` multiplies by the (signed) metric product of
    the radial gradient with the outward conormal.  A closed submanifold
    yields 0 with a warning.
    """
    bound = domain.bind(field) if field is not None else None
    tables = domain.boundary_sites(bound)
    if tables[0] is None:
        warnings.warn("boundary integral over a closed submanifold is 0",
                      stacklevel=2)
        return Qty(0.0, 0.0)
    weights = [t.weighted_density(weight_exponent, False) for t in tables]
    if with_radial_conormal:
        weights = [w * t.conormal_dot for w, t in zip(weights, tables)]
    return _reduce(tables, weights, integrand,
                   "boundary integrand must be nonnegative")


def _reduce(tables, weights, integrand, message) -> Qty:
    """Hi/lo sums of ``weights * integrand`` over ``tables``, hi and lo
    alternating (a nested lo table reads its hi table's values).  Each rule
    is checked, clipped of roundoff below zero and summed over all of its
    tables before the two rules are compared."""
    values = []
    for t in tables:
        f = integrand if not callable(integrand) else (
            integrand(t) if t.nested is None else values[-1][t.nested])
        values.append(np.asarray(f, dtype=float))
    sums = []
    for rule in (0, 1):
        # a constant takes no value on a table without sites
        fs = [f for f, t in zip(values[rule::2], tables[rule::2]) if len(t.r)]
        low = min((f.min() for f in fs), default=0.0)
        if low < 0.0:
            if low < -1e-12 * max([1.0] + [np.abs(f).max() for f in fs]):
                raise InvalidArgument(message)
            values[rule::2] = [np.maximum(f, 0.0) for f in values[rule::2]]
        # einsum sums in an order fixed by the data; BLAS's dot splits long
        # vectors by its thread count
        sums.append(sum(float(f * np.sum(w) if f.ndim == 0
                              else np.einsum("s,s->", w, f))
                        for f, w in zip(values[rule::2], weights[rule::2])))
    return Qty(sums[0], abs(sums[0] - sums[1]))
