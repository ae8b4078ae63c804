"""Parametric submanifold patches with analytic jets.

Each built-in supplies the immersion together with its first and second
chart derivatives, so induced metrics, tangential gradients and mean
curvature in curved ambients need no finite differencing.  Chart faces are
classified as boundary, degenerate (zero-measure image, e.g. a polar axis)
or periodic; only boundary faces contribute boundary integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgument
from .ambient import AmbientSpace


@dataclass
class ParametricPatch:
    """Immersion of a box chart with analytic first and second derivatives.

    ``jet(U)`` maps chart points (m, k) to ``(F, dF, d2F)`` with shapes
    (m, n), (m, n, k), (m, n, k, k).  ``faces`` maps (axis, side) to one of
    "boundary" | "degenerate" | "periodic".
    """

    ambient: AmbientSpace
    k: int
    bounds: tuple                 # ((lo, hi), ...) length k
    jet: callable
    faces: dict
    cells_per_axis: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.ambient.dim

    def grid(self):
        """Cell edges along each axis."""
        return [np.linspace(lo, hi, m + 1)
                for (lo, hi), m in zip(self.bounds, self.cells_per_axis)]

    def cell_boxes(self):
        """Corner arrays ``(lo, hi)`` of shape (cells, k), one row per cell."""
        edges = self.grid()
        idx = np.indices(self.cells_per_axis).reshape(self.k, -1)
        lo = np.stack([edges[d][i] for d, i in enumerate(idx)], axis=1)
        hi = np.stack([edges[d][i + 1] for d, i in enumerate(idx)], axis=1)
        return lo, hi

    def refined(self) -> "ParametricPatch":
        """The same chart with every cell halved along each axis."""
        return ParametricPatch(self.ambient, self.k, self.bounds, self.jet,
                               self.faces,
                               tuple(2 * m for m in self.cells_per_axis),
                               metadata=dict(self.metadata))


# ---------------------------------------------------------------------------
# Built-ins.  Jets are written out longhand; nothing clever.
# ---------------------------------------------------------------------------

def _zero_jet(m, n, k):
    return np.zeros((m, n, k)), np.zeros((m, n, k, k))


def _polar_plane_jet(height: float):
    """Jet of the polar chart (rho, theta) -> (rho cos, rho sin, height)."""

    def jet(U):
        rho, th = U[:, 0], U[:, 1]
        c, s = np.cos(th), np.sin(th)
        m = len(U)
        F = np.stack([rho * c, rho * s, np.full(m, height)], axis=1)
        dF, d2F = _zero_jet(m, 3, 2)
        dF[:, 0, 0], dF[:, 1, 0] = c, s
        dF[:, 0, 1], dF[:, 1, 1] = -rho * s, rho * c
        d2F[:, 0, 0, 1] = d2F[:, 0, 1, 0] = -s
        d2F[:, 1, 0, 1] = d2F[:, 1, 1, 0] = c
        d2F[:, 0, 1, 1] = -rho * c
        d2F[:, 1, 1, 1] = -rho * s
        return F, dF, d2F

    return jet


def plane_rect(ambient: AmbientSpace, half_width: float = 1.0,
               height: float = 0.0, cells: int = 8,
               center_xy=(0.0, 0.0)) -> ParametricPatch:
    """Flat rectangle (s, t) -> (s, t, height) in Euclidean 3-space: the
    graph of the constant ``height``."""
    return _graph_patch("plane_rect", ambient, {(0, 0): height}, half_width,
                        cells, center_xy, height=height)


def flat_disk_patch(ambient: AmbientSpace, radius: float = 1.0,
                    height: float = 0.0, cells=(8, 16)) -> ParametricPatch:
    """Flat disk in polar chart (rho, theta) -> (rho cos, rho sin, height)."""
    if ambient.kind != "euclidean" or ambient.dim != 3:
        raise InvalidArgument("flat_disk_patch needs Euclidean 3-space")
    bounds = ((0.0, radius), (0.0, 2.0 * math.pi))
    faces = {(0, 0): "degenerate", (0, 1): "boundary",
             (1, 0): "periodic", (1, 1): "periodic"}
    meta = {"generator": "flat_disk", "radius": radius, "height": height}
    return ParametricPatch(ambient, 2, bounds, _polar_plane_jet(height), faces,
                           tuple(cells), meta)


def sphere_patch(ambient: AmbientSpace, radius: float = 1.0,
                 center=(0.0, 0.0, 0.0), theta_range=(0.0, math.pi),
                 cells=(8, 16)) -> ParametricPatch:
    """Sphere zone (theta, phi); a cap when theta starts at 0.

    In a warped ambient with ``center`` at the coordinate origin this is the
    geodesic sphere of coordinate radius ``radius``.
    """
    if ambient.dim != 3:
        raise InvalidArgument("sphere_patch needs a 3-dimensional ambient")
    center = np.asarray(center, dtype=float)
    t0, t1 = theta_range
    if not 0.0 <= t0 < t1 <= math.pi:
        raise InvalidArgument("theta_range must be inside [0, pi]")

    def jet(U):
        th, ph = U[:, 0], U[:, 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        F = center + radius * np.stack([st * cp, st * sp, ct], axis=1)
        dF, d2F = _zero_jet(len(U), 3, 2)
        dF[:, 0, 0] = radius * ct * cp
        dF[:, 1, 0] = radius * ct * sp
        dF[:, 2, 0] = -radius * st
        dF[:, 0, 1] = -radius * st * sp
        dF[:, 1, 1] = radius * st * cp
        d2F[:, 0, 0, 0] = -radius * st * cp
        d2F[:, 1, 0, 0] = -radius * st * sp
        d2F[:, 2, 0, 0] = -radius * ct
        d2F[:, 0, 0, 1] = d2F[:, 0, 1, 0] = -radius * ct * sp
        d2F[:, 1, 0, 1] = d2F[:, 1, 1, 0] = radius * ct * cp
        d2F[:, 0, 1, 1] = -radius * st * cp
        d2F[:, 1, 1, 1] = -radius * st * sp
        return F, dF, d2F

    bounds = ((t0, t1), (0.0, 2.0 * math.pi))
    faces = {(0, 0): "degenerate" if t0 == 0.0 else "boundary",
             (0, 1): "degenerate" if t1 == math.pi else "boundary",
             (1, 0): "periodic", (1, 1): "periodic"}
    meta = {"generator": "sphere_patch", "radius": radius, "center": center,
            "theta_range": (t0, t1)}
    return ParametricPatch(ambient, 2, bounds, jet, faces, tuple(cells), meta)


def geodesic_disk(ambient: AmbientSpace, radius: float,
                  cells=(8, 16)) -> ParametricPatch:
    """Cone of radial geodesics from the origin spanning a coordinate plane.

    In a rotationally symmetric ambient this is a totally geodesic surface;
    its induced metric is the two-dimensional warped metric.
    """
    if ambient.kind != "warped" or ambient.dim != 3:
        raise InvalidArgument("geodesic_disk needs a warped 3-dim ambient")
    if radius >= ambient.warp.increasing_limit:
        raise InvalidArgument("disk must stay inside the increasing branch")
    bounds = ((0.0, radius), (0.0, 2.0 * math.pi))
    faces = {(0, 0): "degenerate", (0, 1): "boundary",
             (1, 0): "periodic", (1, 1): "periodic"}
    meta = {"generator": "geodesic_disk", "radius": radius}
    return ParametricPatch(ambient, 2, bounds, _polar_plane_jet(0.0), faces,
                           tuple(cells), meta)


def ball_domain(ambient: AmbientSpace, radius: float,
                cells=(6, 6, 12)) -> ParametricPatch:
    """Solid geodesic ball (k = n = 3) in spherical chart (rho, theta, phi)."""
    if ambient.dim != 3:
        raise InvalidArgument("ball_domain needs a 3-dimensional ambient")
    if ambient.kind == "warped" and radius >= ambient.warp.increasing_limit:
        raise InvalidArgument("ball must stay inside the increasing branch")

    def jet(U):
        rho, th, ph = U[:, 0], U[:, 1], U[:, 2]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        F = np.stack([rho * st * cp, rho * st * sp, rho * ct], axis=1)
        dF, d2F = _zero_jet(len(U), 3, 3)
        dF[:, 0, 0], dF[:, 1, 0], dF[:, 2, 0] = st * cp, st * sp, ct
        dF[:, 0, 1], dF[:, 1, 1], dF[:, 2, 1] = rho * ct * cp, rho * ct * sp, -rho * st
        dF[:, 0, 2], dF[:, 1, 2] = -rho * st * sp, rho * st * cp
        # mixed rho-theta
        d2F[:, 0, 0, 1] = d2F[:, 0, 1, 0] = ct * cp
        d2F[:, 1, 0, 1] = d2F[:, 1, 1, 0] = ct * sp
        d2F[:, 2, 0, 1] = d2F[:, 2, 1, 0] = -st
        # mixed rho-phi
        d2F[:, 0, 0, 2] = d2F[:, 0, 2, 0] = -st * sp
        d2F[:, 1, 0, 2] = d2F[:, 1, 2, 0] = st * cp
        # theta-theta
        d2F[:, 0, 1, 1] = -rho * st * cp
        d2F[:, 1, 1, 1] = -rho * st * sp
        d2F[:, 2, 1, 1] = -rho * ct
        # theta-phi
        d2F[:, 0, 1, 2] = d2F[:, 0, 2, 1] = -rho * ct * sp
        d2F[:, 1, 1, 2] = d2F[:, 1, 2, 1] = rho * ct * cp
        # phi-phi
        d2F[:, 0, 2, 2] = -rho * st * cp
        d2F[:, 1, 2, 2] = -rho * st * sp
        return F, dF, d2F

    bounds = ((0.0, radius), (0.0, math.pi), (0.0, 2.0 * math.pi))
    faces = {(0, 0): "degenerate", (0, 1): "boundary",
             (1, 0): "degenerate", (1, 1): "degenerate",
             (2, 0): "periodic", (2, 1): "periodic"}
    meta = {"generator": "ball", "radius": radius}
    return ParametricPatch(ambient, 3, bounds, jet, faces, tuple(cells), meta)


def poly_graph_patch(ambient: AmbientSpace, coeffs: dict,
                     half_width: float = 1.0, cells: int = 8,
                     center_xy=(0.0, 0.0)) -> ParametricPatch:
    """Graph z = sum coeffs[(i, j)] x^i y^j over a square chart."""
    return _graph_patch("poly_graph", ambient, coeffs, half_width, cells,
                        center_xy)


def _graph_patch(generator, ambient, coeffs, half_width, cells, center_xy,
                 **meta) -> ParametricPatch:
    """The polynomial graph behind ``plane_rect`` and ``poly_graph_patch``,
    ``meta`` joining its metadata.  Neither generator calls the other, so a
    wrapper around each one sees every patch once."""
    if ambient.kind != "euclidean" or ambient.dim != 3:
        raise InvalidArgument(f"{generator} needs Euclidean 3-space")
    cx, cy = center_xy
    terms = [(i, j, float(c)) for (i, j), c in coeffs.items()]

    def poly(x, y, dx=0, dy=0):
        out = np.zeros_like(x)
        for i, j, c in terms:
            if i < dx or j < dy:
                continue
            fac = c
            for step in range(dx):
                fac *= (i - step)
            for step in range(dy):
                fac *= (j - step)
            out = out + fac * x ** (i - dx) * y ** (j - dy)
        return out

    def jet(U):
        x, y = U[:, 0], U[:, 1]
        F = np.stack([x, y, poly(x, y)], axis=1)
        dF, d2F = _zero_jet(len(U), 3, 2)
        dF[:, 0, 0] = 1.0
        dF[:, 1, 1] = 1.0
        dF[:, 2, 0] = poly(x, y, dx=1)
        dF[:, 2, 1] = poly(x, y, dy=1)
        d2F[:, 2, 0, 0] = poly(x, y, dx=2)
        d2F[:, 2, 0, 1] = d2F[:, 2, 1, 0] = poly(x, y, dx=1, dy=1)
        d2F[:, 2, 1, 1] = poly(x, y, dy=2)
        return F, dF, d2F

    bounds = ((cx - half_width, cx + half_width),
              (cy - half_width, cy + half_width))
    faces = {(0, 0): "boundary", (0, 1): "boundary",
             (1, 0): "boundary", (1, 1): "boundary"}
    meta = {"generator": generator, "half_width": half_width, **meta,
            "center_xy": center_xy}
    return ParametricPatch(ambient, 2, bounds, jet, faces, (cells, cells), meta)
