"""Test-function families over domains.

Four families cover the corpus: radial powers ``(1 - r/R)^m`` clipped at
zero, smooth radial bumps with compact support, low-order polynomials, and
seeded random smooth mixtures.  The planar kinds are functions of the first
two ambient coordinates, so they restrict to a smooth function on any
submanifold (no chart seams).  A family member is geometry-agnostic until
bound to a domain.  Its value at every site, interior or boundary, is the
field itself.  Its tangential gradient on meshes is the per-cell linear
reconstruction of its vertex samples; on parametric patches it comes from
analytic partials chained through the chart jet.

Members that must vanish on the boundary either do so natively (radial
kinds, whose support radius is the smallest boundary radius) or are
multiplied by the domain's boundary-vanishing factor, the clamp: per
generator one function of ambient points with its ambient gradient
(:data:`CLAMPS`), resolved when the member is bound.

On meshes, what a planar member's value takes from the points alone (scaled
coordinates, the clamp's value, random_smooth basis) and the cell gradients'
columns are computed once per site table or mesh, so binding another member
pays only for its ``dof``-weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InvalidArgument, PreconditionViolated
from .domain import Domain, SiteBatch
from .mesh import kept


@dataclass(frozen=True)
class Field:
    """A scalar test-function prototype.

    ``kind`` is one of ``radial_power``, ``radial_bump``, ``polynomial``,
    ``random_smooth``.  ``dof`` is the family's parameter vector; see
    :func:`make_field` for the per-kind meaning.  ``amplitude`` scales the
    whole function (the inequalities are homogeneous, so reports must not
    depend on it).
    """

    kind: str
    dof: tuple
    boundary_vanishing: bool = True
    amplitude: float = 1.0

    def __post_init__(self):
        # the radial kinds' one dof must lie in the family's domain
        if self.kind == "radial_power" and not self.dof[0] >= 0.5:
            raise InvalidArgument("radial power exponent must be >= 0.5, "
                                  f"got {self.dof[0]}")
        if self.kind == "radial_bump" and not self.dof[0] > 0.0:
            raise InvalidArgument("bump steepness must be positive, "
                                  f"got {self.dof[0]}")

    def with_dof(self, dof) -> "Field":
        return Field(self.kind, tuple(float(x) for x in dof),
                     self.boundary_vanishing, self.amplitude)

    def scaled(self, amplitude: float) -> "Field":
        return Field(self.kind, self.dof, self.boundary_vanishing,
                     self.amplitude * float(amplitude))

    def bind(self, domain: Domain) -> "BoundField":
        return BoundField(self, domain)


class Family(NamedTuple):
    """One test-function family: its default member and its search box."""

    default: tuple   # dof of the default member; None: a seeded draw
    bounds: tuple    # (lo, hi) of each dof in the tightness search
    step: float      # initial simplex step of the tightness search


# the family kinds, in the order the corpus cycles through them
FAMILIES = {
    "radial_power": Family((1.0,), ((0.5, 8.0),), 0.35),
    "radial_bump": Family((1.0,), ((0.05, 10.0),), 0.5),
    "polynomial": Family((1.0, 0.3, -0.2, 0.1, 0.0, 0.05),
                         ((-3.0, 3.0),) * 6, 0.4),
    "random_smooth": Family(None, ((-3.0, 3.0),) * 6, 0.4),
}


def make_field(kind: str, dof=None, boundary_vanishing: bool = True,
               seed: int = 0) -> Field:
    """Construct a family member with its default parameters.

    - ``radial_power``: dof = (exponent m >= 0.5,), value (1 - r/R)_+^m
    - ``radial_bump``: dof = (steepness tau > 0,), smooth compact bump in r
    - ``polynomial``: dof = 6 quadratic coefficients in scaled coordinates
    - ``random_smooth``: dof = 6 seeded coefficients of a low-order
      Fourier/polynomial mixture in scaled coordinates
    """
    if kind not in FAMILIES:
        raise InvalidArgument(f"unknown field kind {kind!r}")
    family = FAMILIES[kind]
    size = len(family.bounds)
    if dof is None:
        dof = family.default
        if dof is None:
            dof = tuple(
                np.random.default_rng(seed).uniform(-1.0, 1.0, size=size))
    if len(dof) != size:
        raise InvalidArgument(f"{kind} takes {size} dof, got {len(dof)}")
    return Field(kind, tuple(float(x) for x in dof), boundary_vanishing)


# ---------------------------------------------------------------------------
# Scalar profiles
# ---------------------------------------------------------------------------

def _radial_profile(field: Field, support_r: float):
    """f(r) and f'(r) for the radial kinds."""
    if field.kind == "radial_power":
        m = field.dof[0]

        def f(r):
            base = np.maximum(1.0 - r / support_r, 0.0)
            return base ** m

        def fp(r):
            base = np.maximum(1.0 - r / support_r, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                grad = np.where(base > 0,
                                -m / support_r * base ** (m - 1.0), 0.0)
            return grad

        return f, fp

    tau = field.dof[0]

    def bump(r):
        """The support's sites, ``r / R`` there (0.5 elsewhere), the bump."""
        x = np.clip(np.asarray(r, dtype=float) / support_r, 0.0, None)
        inside = x < 1.0
        safe = np.where(inside, x, 0.5)
        return inside, safe, np.exp(tau * (1.0 - 1.0 / (1.0 - safe ** 2)))

    def f(r):
        inside, _, val = bump(r)
        return np.where(inside, val, 0.0)

    def fp(r):
        inside, safe, val = bump(r)
        grad = val * tau * (-2.0 * safe / (1.0 - safe ** 2) ** 2) / support_r
        return np.where(inside, grad, 0.0)

    return f, fp


def _scaled_xy(P, scale: float):
    """The first two ambient coordinates over ``scale`` (y = 0 on a line)."""
    x = P[:, 0] / scale
    y = P[:, 1] / scale if P.shape[1] > 1 else np.zeros_like(x)
    return x, y


def _mixture_columns(x, y):
    """sin(pi x), sin(pi y) and cos(pi y): the basis of a random_smooth value."""
    return np.sin(math.pi * x), np.sin(math.pi * y), np.cos(math.pi * y)


def _planar_value(c, x, y, mixture_columns=None):
    """Value of a planar member with coefficients ``c``.

    A polynomial, or with the :func:`_mixture_columns` of ``x``, ``y`` a
    random_smooth mixture.
    """
    if mixture_columns is None:
        return (c[0] + c[1] * x + c[2] * y + c[3] * x * x
                + c[4] * x * y + c[5] * y * y)
    sx, sy, cy_ = mixture_columns
    return c[0] + c[1] * sx + c[2] * cy_ + c[3] * sx * sy + c[4] * x + c[5] * y * y


def _planar_profile(field: Field, scale: float):
    """Value and ambient-coordinate gradient of the planar kinds.

    Functions of the first two ambient coordinates (scaled), hence smooth
    on every submanifold independently of its chart.
    """
    c = field.dof

    def poly(P):
        x, y = _scaled_xy(P, scale)
        val = _planar_value(c, x, y)
        grad = np.zeros_like(P)
        grad[:, 0] = (c[1] + 2 * c[3] * x + c[4] * y) / scale
        if P.shape[1] > 1:
            grad[:, 1] = (c[2] + c[4] * x + 2 * c[5] * y) / scale
        return val, grad

    def mixture(P):
        x, y = _scaled_xy(P, scale)
        sx, sy, cy_ = cols = _mixture_columns(x, y)
        cx_ = np.cos(math.pi * x)
        val = _planar_value(c, x, y, cols)
        grad = np.zeros_like(P)
        grad[:, 0] = (c[1] * math.pi * cx_ + c[3] * math.pi * cx_ * sy
                      + c[4]) / scale
        if P.shape[1] > 1:
            grad[:, 1] = (-c[2] * math.pi * sy + c[3] * math.pi * sx * cy_
                          + 2 * c[5] * y) / scale
        return val, grad

    return poly if field.kind == "polynomial" else mixture


# ---------------------------------------------------------------------------
# Boundary-vanishing factors per generator
# ---------------------------------------------------------------------------

def _subspace_clamp(center, axes, R):
    """1 - |axes (P - center)|^2 / R^2: a disk (two axes) or ball (three)."""
    center, axes = np.asarray(center, dtype=float), np.asarray(axes, float)

    def clamp(P):
        plane = (P - center) @ axes.T
        rho2 = np.einsum("vi,vi->v", plane, plane)
        val = np.maximum(1.0 - rho2 / R ** 2, 0.0)
        grad = plane @ axes
        grad *= -2.0 / R ** 2       # in place: no second array at the peak
        return val, grad

    return clamp


def _square_clamp(meta):
    """(1 - x^2)(1 - y^2), x and y the centred first two coordinates / L."""
    L = meta["half_width"]
    cx, cy = meta["center_xy"]

    def clamp(P):
        x = (P[:, 0] - cx) / L
        y = (P[:, 1] - cy) / L
        val = np.maximum((1.0 - x ** 2) * (1.0 - y ** 2), 0.0)
        grad = np.zeros_like(P)     # filled in place, for the peak memory
        grad[:, 0] = -2.0 * x * (1.0 - y ** 2) / L
        grad[:, 1] = -2.0 * y * (1.0 - x ** 2) / L
        return val, grad

    return clamp


def _polar_clamp(meta):
    """(t1 - theta) / span, times (theta - t0) / span on a zone (t0 > 0),
    theta the polar angle about the sphere's centre."""
    t0, t1 = meta["theta_range"]
    span = t1 - t0

    def clamp(P):
        d = P - meta["center"]
        rho = np.hypot(d[:, 0], d[:, 1])
        theta = np.arctan2(rho, d[:, 2])     # finite on the axis
        # grad theta = e_theta / |d|, taken as 0 on the axis
        dtheta = np.column_stack([
            d[:, :2] * (d[:, 2] / np.where(rho > 0, rho, 1.0))[:, None],
            -rho]) / np.einsum("vi,vi->v", d, d)[:, None]
        val, dval = (t1 - theta) / span, np.full_like(theta, -1.0 / span)
        if t0 > 0.0:
            lo = (theta - t0) / span
            val, dval = val * lo, dval * lo + val / span
        val = np.maximum(val, 0.0)
        return val, dval[:, None] * dtheta

    return clamp


_PLANE = np.eye(3)[:2]
# generator -> the clamp of a domain with that metadata: (value, ambient
# gradient) at ambient points, the value zero on the boundary; patch
# coordinates are ambient ones centred on the origin
CLAMPS = {
    "disk": lambda m: _subspace_clamp(m["center"], m["axes"], m["radius"]),
    "flat_disk": lambda m: _subspace_clamp(0.0, _PLANE, m["radius"]),
    "geodesic_disk": lambda m: _subspace_clamp(0.0, _PLANE, m["radius"]),
    "ball": lambda m: _subspace_clamp(0.0, np.eye(3), m["radius"]),
    "graph": _square_clamp, "plane_rect": _square_clamp,
    "poly_graph": _square_clamp, "sphere_patch": _polar_clamp,
}


def _clamp(domain: Domain):
    """The clamp of ``domain``'s generator (see :data:`CLAMPS`)."""
    gen = domain.metadata.get("generator")
    if gen not in CLAMPS:
        raise InvalidArgument(
            f"no boundary-vanishing factor for generator {gen!r}")
    return CLAMPS[gen](domain.metadata)


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

class BoundField:
    """A family member evaluated on one concrete domain."""

    def __init__(self, field: Field, domain: Domain):
        self.field = field
        self.domain = domain
        self.boundary_vanishing = field.boundary_vanishing
        self.radial = field.kind in ("radial_power", "radial_bump")
        if self.radial:
            if field.boundary_vanishing and domain.has_boundary:
                support = domain.min_boundary_radius
            else:
                support = 2.0 * domain.max_radius
            if support <= 0.0 or not math.isfinite(support):
                raise PreconditionViolated(
                    "radial support radius undefined for this domain")
            self.support_r = support
            self._f, self._fp = _radial_profile(field, support)
        else:
            self._scale = max(domain.coord_scale, 1e-12)
            if domain.kind == "patch":
                self._planar = _planar_profile(field, self._scale)
        self._clamp = (_clamp(domain) if not self.radial
                       and field.boundary_vanishing and domain.has_boundary
                       else None)
        if domain.kind == "mesh":
            self._setup_mesh_samples()
        # field values per site table, under the domain's table keys (band,
        # "pole" or "b"), for one evaluation
        self.kept = {}

    def bind(self, domain: Domain) -> "BoundField":
        """This binding on its own domain; the field bound afresh elsewhere."""
        return self if domain is self.domain else self.field.bind(domain)

    def _setup_mesh_samples(self):
        domain = self.domain
        mesh = domain.mesh
        vals = self._value_at(mesh.vertices, domain.vertex_r, mesh.kept)
        if self.field.boundary_vanishing and len(domain.boundary_vertices):
            vals = np.asarray(vals, dtype=float).copy()
            vals[domain.boundary_vertices] = 0.0
        self.vertex_values = vals
        # |grad| per cell: the products and sums, in order, of np.linalg.norm(
        # mesh.reconstruct_gradients(vals), axis=1), on columns kept per mesh
        cells, grads = kept(mesh.kept, "cell_columns", lambda: (
            np.ascontiguousarray(mesh.cells.T), np.ascontiguousarray(
                mesh.barycentric_gradients().transpose(2, 1, 0))))
        dv = vals[cells[1:]] - vals[cells[0]]                # (k, C)
        g = [sum(d * col for d, col in zip(dv, axis)) for axis in grads]
        self.cell_grad_norm = np.sqrt(sum(a * a for a in g))

    def _value_at(self, pts, r, memo):
        """Exact field value at ambient points (every boundary site, and on
        a mesh every site and vertex), without its gradient.

        The scaled coordinates, the clamp's value and the random_smooth
        basis do not depend on ``dof``: they are kept in ``memo``, on a mesh
        the ``kept`` of the site table or of the mesh that holds ``pts``.
        """
        if self.radial:
            return self._f(r)
        x, y = kept(memo, "xy", lambda: _scaled_xy(pts, self._scale))
        cols = None
        if self.field.kind == "random_smooth":
            cols = kept(memo, "mixture", lambda: _mixture_columns(x, y))
        vals = _planar_value(self.field.dof, x, y, cols)
        if self._clamp is not None:
            vals = vals * kept(memo, "clamp",
                               lambda: self._clamp(pts)[0])
        return vals

    # -- evaluation at site batches -----------------------------------------

    def at_sites(self, batch: SiteBatch):
        domain = self.domain
        amp = self.field.amplitude
        if domain.kind == "mesh":
            # exact values at the quadrature sites; tangential gradient from
            # the per-cell linear reconstruction of the vertex samples
            psi = self._value_at(batch.points, batch.r, batch.kept)
            return amp * psi, abs(amp) * self.cell_grad_norm[batch.cell_ids]
        if self.radial:
            psi = self._f(batch.r)
            grad = np.abs(self._fp(batch.r)) * np.sqrt(
                np.clip(batch.tan_sq, 0.0, None))
            return amp * psi, abs(amp) * grad
        psi, amb_grad = self._planar(batch.points)
        if self._clamp is not None:
            cval, cgrad = self._clamp(batch.points)
            amb_grad = amb_grad * cval[:, None] + psi[:, None] * cgrad
            psi = psi * cval
        dpsi = np.einsum("sa,sai->si", amb_grad, batch.dF)
        grad = np.sqrt(np.maximum(np.sum(
            (dpsi[:, None, :] @ batch.metric_ginv)[:, 0] * dpsi, axis=1), 0.0))
        return amp * psi, abs(amp) * grad

    def at_boundary(self, batch: SiteBatch):
        if self.boundary_vanishing:
            return np.zeros(len(batch.r))
        # the field itself, as at interior sites; boundary tables keep no
        # planar columns (README, "What is kept")
        return self.field.amplitude * self._value_at(batch.points, batch.r, {})
