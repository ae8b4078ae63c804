"""Quadrature rules for simplices and boxes.

Simplex rules come from the Grundmann-Moller construction, which yields
fully symmetric rules of odd polynomial degree 2s+1 in any dimension; box
rules are tensor products of Gauss-Legendre.  Both are returned in a
normalized form: points in reference coordinates together with weights that
sum to one, so a physical integral is ``volume * sum(w_i * f(x_i))``.
Gauss-Jacobi rules on [0, 1] carry a weight ``t ** alpha`` that vanishes or
blows up at 0, for integrands with a power singularity there.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@cache
def simplex_rule(k: int, s: int):
    """Grundmann-Moller rule of index ``s`` (degree 2s+1) on the k-simplex.

    Returns ``(bary, weights)`` with ``bary`` of shape (m, k+1) barycentric
    coordinates and ``weights`` summing to 1 (some may be negative).  The
    rules nest (Grundmann & Moller, SIAM J. Numer. Anal. 15, 1978): term
    ``i`` of index ``s - 1`` has term ``i + 1``'s points (:func:`nested_rows`).
    """
    d = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + k - 2 * i
        w = ((-1.0) ** i * 2.0 ** (-2 * s) * denom ** d
             / (math.factorial(i) * math.factorial(d + k - i)))
        for beta in _compositions(s - i, k + 1):
            pts.append([(2 * b + 1) / denom for b in beta])
            wts.append(w)
    bary = np.array(pts)
    weights = np.array(wts) * math.factorial(k)  # normalize to sum 1
    return bary, weights


@cache
def nested_rows(k: int, s: int):
    """The rows of ``simplex_rule(k, s)`` holding index ``s - 1``'s points."""
    (hi, _), (lo, _) = simplex_rule(k, s), simplex_rule(k, s - 1)
    if not np.array_equal(hi[len(hi) - len(lo):], lo):
        raise ValueError(f"index {s - 1} does not nest in index {s}")
    return np.arange(len(hi) - len(lo), len(hi))


@cache
def gauss_rule(npts: int):
    """Gauss-Legendre nodes/weights on [0, 1], weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


@cache
def jacobi_rule(npts: int, alpha: float):
    """Gauss-Jacobi nodes/weights on [0, 1] for the weight ``t ** alpha``.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthogonal polynomials for ``(1 + x) ** alpha`` on [-1, 1], mapped to
    [0, 1]; the weights are the squared first eigenvector components times
    the weight's mass ``1 / (alpha + 1)``.  Needs ``alpha > -1``.
    """
    j = np.arange(1, npts, dtype=float)
    s = 2.0 * j + alpha
    diag = np.concatenate(([alpha / (alpha + 2.0)],
                           alpha ** 2 / (s * (s + 2.0))))
    off = np.sqrt(4.0 * j ** 2 * (j + alpha) ** 2
                  / (s ** 2 * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (x + 1.0) / 2.0, v[0] ** 2 / (alpha + 1.0)


@cache
def product_rule(npts: int, alpha0: float):
    """The ``npts`` Gauss-Jacobi nodes ``t`` of ``t ** alpha0`` and the
    inverse of their transposed shifted-Legendre Vandermonde matrix, which
    takes a weight's moments to its interpolatory weights at ``t``."""
    t = jacobi_rule(npts, alpha0)[0]
    legendre = np.polynomial.legendre.legvander(2.0 * t - 1.0, npts - 1)
    return t, np.linalg.inv(legendre.T)


def product_weights(fit, alpha: float):
    """Weights at the nodes of ``fit`` (:func:`product_rule`) exact on ``t
    ** alpha``, ``alpha > -1``, times every polynomial of degree below the
    node count (product integration): ``fit`` times the shifted Legendre
    polynomials' moments against ``t ** alpha``, ``m_0 = 1 / (alpha + 1)``,
    ``m_j = m_(j-1) (alpha - j + 1) / (alpha + j + 1)``."""
    j = np.arange(1.0, len(fit))
    return fit @ np.cumprod(np.concatenate((
        [1.0 / (alpha + 1.0)], (alpha - j + 1.0) / (alpha + j + 1.0))))


@cache
def box_rule(k: int, npts: int):
    """Tensor Gauss-Legendre rule on the unit k-cube (weights sum to 1)."""
    x1, w1 = gauss_rule(npts)
    idx = np.meshgrid(*([np.arange(npts)] * k), indexing="ij")
    idx = np.stack([g.ravel() for g in idx], axis=1)
    pts = x1[idx]
    wts = np.prod(w1[idx], axis=1)
    return pts, wts


def split_simplex_bary(k: int):
    """Midpoint subdivision of the reference k-simplex in barycentric form.

    Returns a list of (k+1, k+1) matrices whose rows are the barycentric
    coordinates of each child's corners with respect to the parent.
    Supported for k in {1, 2}; child 0 contains parent vertex 0.
    """
    eye = np.eye(k + 1)
    if k == 1:
        mid = np.array([0.5, 0.5])
        return [np.stack([eye[0], mid]), np.stack([mid, eye[1]])]
    if k == 2:
        m01 = (eye[0] + eye[1]) / 2
        m02 = (eye[0] + eye[2]) / 2
        m12 = (eye[1] + eye[2]) / 2
        return [np.stack([eye[0], m01, m02]),
                np.stack([eye[1], m12, m01]),
                np.stack([eye[2], m02, m12]),
                np.stack([m01, m12, m02])]
    raise NotImplementedError(f"simplex subdivision unsupported for k = {k}")


def simplex_volume(corners: np.ndarray):
    """Volume of each k-simplex, ``corners`` of shape (..., k+1, n)."""
    edges = corners[..., 1:, :] - corners[..., :1, :]
    gram = edges @ np.swapaxes(edges, -1, -2)
    det = np.linalg.det(gram)
    k = corners.shape[-2] - 1
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)
