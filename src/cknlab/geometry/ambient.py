"""Model ambient spaces with a pole.

Two kinds are supported: flat Euclidean space and rotationally symmetric
warped metrics written in polar normal coordinates, where a point ``x``
has radius ``r = |x|`` and the metric scales sphere directions by
``h(r)/r``.  In these coordinates radial lines are unit-speed geodesics,
so the coordinate norm equals the geodesic distance to the pole in both
kinds, and the coordinate unit radial vector is the metric gradient of
the distance function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgument, SingularPoint
from ..warp import WarpingFunction


@dataclass(frozen=True)
class AmbientSpace:
    """Euclidean space or a rotationally symmetric warped metric.

    The pole sits at ``pole`` (Euclidean) or at the coordinate origin
    (warped; polar normal coordinates are anchored there).
    """

    dim: int
    kind: str  # "euclidean" | "warped"
    warp: WarpingFunction | None = None
    pole: np.ndarray = field(default=None)

    @staticmethod
    def euclidean(dim: int, pole=None) -> "AmbientSpace":
        p = np.zeros(dim) if pole is None else np.asarray(pole, dtype=float)
        if p.shape != (dim,):
            raise InvalidArgument("pole has wrong dimension")
        return AmbientSpace(dim=dim, kind="euclidean", warp=None, pole=p)

    @staticmethod
    def warped(dim: int, warp: WarpingFunction) -> "AmbientSpace":
        if warp.h_prime(0.0) != 1.0 or warp.h(0.0) != 0.0:
            raise InvalidArgument("warping function must close smoothly at the pole")
        return AmbientSpace(dim=dim, kind="warped", warp=warp,
                            pole=np.zeros(dim))

    # -- radial quantities --------------------------------------------------

    def radius(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.atleast_2d(pts) - self.pole, axis=1)

    def radial_unit(self, pts: np.ndarray) -> np.ndarray:
        """Coordinate unit radial vector (the metric gradient of the radius)."""
        d = np.atleast_2d(pts) - self.pole
        r = np.linalg.norm(d, axis=1)
        if np.any(r == 0):
            raise SingularPoint("radial direction undefined at the pole")
        return d / r[:, None]

    def h_values(self, r: np.ndarray):
        """(h(r), h'(r)); the Euclidean kind behaves as h(r) = r."""
        r = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return r, np.ones_like(r)
        return self.warp.h(r), self.warp.h_prime(r)

    def hessian_bound(self, r) -> np.ndarray:
        """h'(r)/h(r), the radial Hessian comparison value."""
        h, hp = self.h_values(np.asarray(r, dtype=float))
        return hp / h

    # -- metric ---------------------------------------------------------------

    def scale_factor(self, r: np.ndarray) -> np.ndarray:
        """h(r)/r, the factor scaling sphere directions (1 for Euclidean)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return np.ones_like(r)
        with np.errstate(invalid="ignore"):
            phi = np.where(r > 0, self.warp.h(np.where(r > 0, r, 1.0)) /
                           np.where(r > 0, r, 1.0), 1.0)
        return phi

    def metric_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Dense metric tensors (m, n, n) in ambient coordinates."""
        m, n = np.atleast_2d(pts).shape
        if self.kind == "euclidean":
            return np.broadcast_to(np.eye(n), (m, n, n)).copy()
        d = np.atleast_2d(pts) - self.pole
        r = np.linalg.norm(d, axis=1)
        u = d / np.where(r > 0, r, 1.0)[:, None]
        phi2 = self.scale_factor(r) ** 2
        eye = np.eye(n)
        uu = np.einsum("ia,ib->iab", u, u)
        return phi2[:, None, None] * (eye - uu) + uu

    def connection(self, pts: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """(m, n, k, k) connection ``Gamma(X_i, X_j)`` of the columns of the
        (m, n, k) ``frame``, from the closed form in ``u``, ``a = phi phi'``
        and ``b = (1 - phi^2) / r`` (README, "Mean curvature")."""
        pts = np.atleast_2d(pts)
        m, n, k = frame.shape
        if self.kind == "euclidean":
            return np.zeros((m, n, k, k))
        d = pts - self.pole
        r = np.linalg.norm(d, axis=1)
        if np.any(r == 0):
            raise SingularPoint("connection coefficients singular at the pole")
        u = d / r[:, None]
        h = self.warp.h(r)
        hp = self.warp.h_prime(r)
        phi = h / r
        a = (phi * (hp * r - h) / r ** 2)[:, None, None]
        b = ((1.0 - phi ** 2) / r)[:, None, None]
        ux = (u[:, None, :] @ frame)[:, 0]                    # (m, k)
        xy = frame.swapaxes(1, 2) @ frame                     # (m, k, k)
        uxuy = ux[:, :, None] * ux[:, None, :]
        across = xy - uxuy
        low = (a[:, None] * (ux[:, None, :, None] * frame[:, :, None, :]
                             + ux[:, None, None, :] * frame[:, :, :, None])
               + (b * across - a * (xy + uxuy))[:, None]
               * u[:, :, None, None])
        inv = phi[:, None, None] ** -2
        return (inv[:, None] * low
                + ((1.0 - inv) * (b - a) * across)[:, None]
                * u[:, :, None, None])


def radial_data(ambient: AmbientSpace, x) -> tuple[float, np.ndarray, float]:
    """Distance to the pole, radial gradient and the comparison value h'/h."""
    x = np.asarray(x, dtype=float)[None, :]
    r = float(ambient.radius(x)[0])
    if r == 0.0:
        raise SingularPoint("radial data undefined at the pole")
    grad = ambient.radial_unit(x)[0]
    return r, grad, float(ambient.hessian_bound(r))
