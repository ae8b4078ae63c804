"""Warping functions of rotationally symmetric comparison metrics.

A nonnegative curvature profile determines a scale function through the
linear initial value problem

    h'' + profile(r) * h = 0,    h(0) = 0,  h'(0) = 1.

Constant profiles have closed forms (``h = r`` for zero curvature,
``h = sin(b r)/b`` for curvature ``b**2``); everything else is integrated
with a fixed-step classical Runge-Kutta scheme and evaluated between grid
nodes by cubic Hermite interpolation, which keeps ``h`` and ``h'``
consistent to C^1 as required by the weighted integrals downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DomainTooShort, InvalidArgument

_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class CurvatureProfile:
    """Nonnegative continuous curvature profile on [0, infinity).

    ``kind`` is either ``"constant"`` (with ``b_squared >= 0``) or
    ``"tabulated"`` (piecewise-linear through ``samples``).
    """

    kind: str
    b_squared: float = 0.0
    samples: tuple = ()

    @staticmethod
    def constant(b_squared: float) -> "CurvatureProfile":
        if b_squared < 0:
            raise InvalidArgument("curvature profile must be nonnegative")
        return CurvatureProfile(kind="constant", b_squared=float(b_squared))

    @staticmethod
    def tabulated(samples) -> "CurvatureProfile":
        pts = [(float(r), float(v)) for r, v in samples]
        if len(pts) < 2:
            raise InvalidArgument("tabulated profile needs at least two samples")
        radii = [r for r, _ in pts]
        if radii[0] != 0.0:
            raise InvalidArgument("tabulated profile must start at radius 0")
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise InvalidArgument("tabulated radii must be strictly increasing")
        if any(v < 0 for _, v in pts):
            raise InvalidArgument("curvature values must be nonnegative")
        return CurvatureProfile(kind="tabulated", samples=tuple(pts))

    @property
    def r_end(self) -> float:
        """Last radius covered (infinity for constant profiles)."""
        if self.kind == "constant":
            return math.inf
        return self.samples[-1][0]

    def max_b_squared(self, r_max: float) -> float:
        """The largest value on [0, r_max]: the constant, or the samples
        inside it and the value at ``r_max``.  It bounds every sectional
        curvature there on the increasing branch."""
        if self.kind == "constant":
            return self.b_squared
        return max([v for r, v in self.samples if r <= r_max]
                   + [float(self(r_max))])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full_like(r, self.b_squared)
        xs = np.array([s[0] for s in self.samples])
        ys = np.array([s[1] for s in self.samples])
        return np.interp(r, xs, ys)


def load_profile(path) -> CurvatureProfile:
    """Read a two-column ``radius value`` text file (``#`` comments allowed).

    Raises :class:`InvalidArgument` when it cannot be read or parsed.
    """
    try:
        rows = [line.split("#", 1)[0].split()
                for line in Path(path).read_text().splitlines()]
        samples = [(float(r), float(v)) for r, v in filter(None, rows)]
    except OSError as exc:
        raise InvalidArgument(f"cannot read profile file {path}: {exc}")
    except ValueError:
        raise InvalidArgument(f"profile file {path}: each row must be two "
                              "numbers") from None
    return CurvatureProfile.tabulated(samples)


@dataclass(frozen=True)
class WarpingFunction:
    """Solution of the scale-function initial value problem.

    Attributes
    ----------
    profile : CurvatureProfile
    representation : str
        "flat", "trig" (constant positive curvature) or "ode_table".
    increasing_limit : float
        Supremum radius up to which ``h`` is increasing (may be ``inf``).
    step : float
        Grid step of the table representation (0 for analytic).
    ode_error : float
        Richardson estimate of the global integration error (0 for analytic).
    """

    profile: CurvatureProfile
    representation: str
    increasing_limit: float
    step: float = 0.0
    ode_error: float = 0.0
    _b: float = 0.0
    _grid: np.ndarray = field(default=None, repr=False)
    _h: np.ndarray = field(default=None, repr=False)
    _hp: np.ndarray = field(default=None, repr=False)

    @property
    def max_b_squared(self) -> float:
        """The profile's largest value on the solved range."""
        return self.profile.max_b_squared(
            math.inf if self._grid is None else self._grid[-1])

    # -- evaluation ---------------------------------------------------------

    def h(self, r):
        """Scale factor at radius ``r`` (vectorized)."""
        r = np.asarray(r, dtype=float)
        if self.representation == "flat":
            return r.copy() if r.ndim else float(r)
        if self.representation == "trig":
            out = np.sin(self._b * r) / self._b
            return out if r.ndim else float(out)
        return self._table_eval(r, deriv=False)

    def h_prime(self, r):
        """Derivative of the scale factor at radius ``r`` (vectorized)."""
        r = np.asarray(r, dtype=float)
        if self.representation == "flat":
            out = np.ones_like(r)
            return out if r.ndim else 1.0
        if self.representation == "trig":
            out = np.cos(self._b * r)
            return out if r.ndim else float(out)
        return self._table_eval(r, deriv=True)

    def _table_eval(self, r, deriv: bool):
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        grid = self._grid
        if np.any(r < -1e-14) or np.any(r > grid[-1] + 1e-12):
            raise InvalidArgument(
                f"radius outside solved range [0, {grid[-1]:.6g}]")
        r = np.clip(r, 0.0, grid[-1])
        dt = grid[1] - grid[0]
        idx = np.clip((r / dt).astype(int), 0, len(grid) - 2)
        t = (r - grid[idx]) / dt
        h0, h1 = self._h[idx], self._h[idx + 1]
        p0, p1 = self._hp[idx], self._hp[idx + 1]
        if not deriv:
            # cubic Hermite on (h, h')
            v0, v1, m0, m1 = h0, h1, p0 * dt, p1 * dt
        else:
            # cubic Hermite on (h', h'') with h'' = -profile * h
            kk = self.profile(grid[idx]), self.profile(grid[idx + 1])
            v0, v1 = p0, p1
            m0, m1 = -kk[0] * h0 * dt, -kk[1] * h1 * dt
        t2, t3 = t * t, t * t * t
        out = ((2 * t3 - 3 * t2 + 1) * v0 + (t3 - 2 * t2 + t) * m0
               + (-2 * t3 + 3 * t2) * v1 + (t3 - t2) * m1)
        return float(out[0]) if scalar else out


def _rk4_path(profile: CurvatureProfile, r_max: float, n_intervals: int):
    n = n_intervals + 1
    grid = np.linspace(0.0, r_max, n)
    dt = grid[1] - grid[0]
    h = np.empty(n)
    hp = np.empty(n)
    h[0], hp[0] = 0.0, 1.0
    kmid = profile(grid[:-1] + 0.5 * dt)
    k0 = profile(grid[:-1])
    k1 = profile(grid[1:])
    y, yp = 0.0, 1.0
    for i in range(n - 1):
        a0, am, a1 = k0[i], kmid[i], k1[i]
        s1h, s1p = yp, -a0 * y
        s2h, s2p = yp + 0.5 * dt * s1p, -am * (y + 0.5 * dt * s1h)
        s3h, s3p = yp + 0.5 * dt * s2p, -am * (y + 0.5 * dt * s2h)
        s4h, s4p = yp + dt * s3p, -a1 * (y + dt * s3h)
        y = y + dt / 6.0 * (s1h + 2 * s2h + 2 * s3h + s4h)
        yp = yp + dt / 6.0 * (s1p + 2 * s2p + 2 * s3p + s4p)
        h[i + 1], hp[i + 1] = y, yp
    return grid, h, hp


def _first_sign_change(grid, hp):
    neg = np.flatnonzero(hp <= 0.0)
    if len(neg) == 0:
        return None
    j = max(1, neg[0])  # hp[0] = 1, so a crossing is never at the origin
    return grid[j - 1], grid[j]


def solve_warping(profile: CurvatureProfile, r_max: float,
                  step: float = 1e-3) -> WarpingFunction:
    """Build the warping function for ``profile`` on ``[0, r_max]``.

    Constant profiles use their closed forms; tabulated profiles are
    integrated with fixed-step RK4 at ``step`` and a step-halving Richardson
    error estimate.  The supremum radius of increase is located from the
    first sign change of ``h'`` on the grid, refined by bisection.
    """
    if r_max <= 0:
        raise InvalidArgument("r_max must be positive")
    if step <= 0:
        raise InvalidArgument("step must be positive")

    if profile.kind == "constant":
        b2 = profile.b_squared
        if b2 == 0.0:
            return WarpingFunction(profile, "flat", math.inf)
        b = math.sqrt(b2)
        return WarpingFunction(profile, "trig", math.pi / (2 * b), _b=b)

    if profile.kind == "tabulated" and profile.r_end < r_max - 1e-12:
        raise DomainTooShort(
            f"profile covers [0, {profile.r_end}], need [0, {r_max}]")

    n_int = max(1, int(math.ceil(r_max / step)))
    grid, h, hp = _rk4_path(profile, r_max, n_int)
    _, h2, hp2 = _rk4_path(profile, r_max, 2 * n_int)
    # classical 4th-order scheme: halving reduces the error by ~16
    ode_error = float(max(np.max(np.abs(h - h2[::2])),
                          np.max(np.abs(hp - hp2[::2]))) / 15.0)
    h, hp = h2[::2], hp2[::2]  # keep the finer solution values

    wf = WarpingFunction(profile, "ode_table", math.inf,
                         step=step, ode_error=ode_error,
                         _grid=grid, _h=h, _hp=hp)
    bracket = _first_sign_change(grid, hp)
    if bracket is None:
        return wf
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if wf.h_prime(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ROOT_TOL:
            break
    return replace(wf, increasing_limit=0.5 * (lo + hi))
