"""Affine and simplicial primitives: hulls, subspaces, simplices, barycentrics.

Points are plain 1-D numpy arrays and point sets are (n, d) arrays; all
objects here are immutable value types and all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSimplexError

# A simplex counts as degenerate when the smallest singular value of its edge
# matrix drops below this fraction of its diameter.  Every degeneracy fallback
# in the package gates on this single constant.
DEGENERACY_RTOL = 1e-8

# Relative singular-value cutoff that decides the dimension of affine_hull.
HULL_RANK_RTOL = 1e-9


def as_point(x, dim=None):
    """Validate and return a finite 1-D float array.

    A point is finite when the Python sum of its coordinates is: a NaN or
    an infinity makes that sum NaN or infinite.  Only a sum that overflows
    is checked again coordinate by coordinate, so a finite point is never
    refused, and the sum, unlike numpy's, warns of no overflow.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if not (math.isfinite(sum(p.tolist())) or np.isfinite(p).all()):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {dim}")
    return p


def as_points(xs, dim=None):
    """Validate and return a finite (n, d) float array of points."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"need a nonempty (n, d) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point set has non-finite coordinates")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_point(self.normal)
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"hyperplane normal must be unit length, |n| = {norm}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self):
        return self.normal.shape[0]

    def side(self, p):
        """Signed distance of ``p``: positive on the side the normal points to."""
        return float(np.dot(self.normal, as_point(p, self.dim)) - self.offset)


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace given by a base point and an orthonormal basis.

    ``basis`` has shape (k, d) with orthonormal rows; k = 0 encodes a single
    point.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        base = as_point(self.base)
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(0, base.shape[0])
        if basis.ndim != 2 or basis.shape[1] != base.shape[0]:
            raise ValueError("basis must have shape (k, d) matching the base point")
        gram = basis @ basis.T
        if basis.shape[0] and not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-10):
            raise ValueError("basis rows must be orthonormal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        """Affine dimension (number of basis vectors)."""
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return self.base.shape[0]

    @property
    def complement(self):
        """Orthonormal rows spanning the directions normal to the subspace,
        shape (d - k, d): the eigenvectors of eigenvalue 1 of the projector
        I - basis^T basis."""
        eigval, eigvec = np.linalg.eigh(np.eye(self.ambient_dim)
                                        - self.basis.T @ self.basis)
        return eigvec[:, eigval > 0.5].T

    def project(self, p):
        """Orthogonal projection of ``p`` onto the subspace."""
        v = as_point(p, self.ambient_dim) - self.base
        return self.base + self.basis.T @ (self.basis @ v)

    def distance(self, p):
        return float(np.linalg.norm(as_point(p, self.ambient_dim) - self.project(p)))

    def coords(self, p):
        """Coordinates of ``p`` in the basis frame (p should lie on the subspace)."""
        return self.basis @ (as_point(p, self.ambient_dim) - self.base)

    def lift(self, t):
        """Map frame coordinates back to the ambient space."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.base + self.basis.T @ t


def affine_hull(points):
    """Affine hull of a point set.

    Parameters
    ----------
    points : array_like, shape (n, d)
        At least one point.  Singular values below
        ``HULL_RANK_RTOL * max(1, s_max)`` are treated as zero when
        determining the dimension.

    Returns
    -------
    AffineSubspace
        Base point is the first input point; basis rows are orthonormal and
        the hull contains every input point within 1e-9.
    """
    pts = as_points(points)
    base = pts[0]
    if pts.shape[0] == 1:
        return AffineSubspace(base, np.zeros((0, pts.shape[1])))
    diffs = pts[1:] - base
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    cutoff = HULL_RANK_RTOL * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    basis = vt[:rank]
    # Canonical sign: make the largest-magnitude entry of each row positive so
    # identical inputs always produce identical bases.
    for i in range(rank):
        j = int(np.argmax(np.abs(basis[i])))
        if basis[i, j] < 0:
            basis[i] = -basis[i]
    return AffineSubspace(base, basis)


@dataclass(frozen=True)
class Simplex:
    """A k-simplex in R^d given by k + 1 affinely independent vertices.

    Construction validates nondegeneracy: the smallest singular value of the
    edge matrix must be at least ``DEGENERACY_RTOL`` times the diameter.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = as_points(self.vertices)
        object.__setattr__(self, "vertices", v)
        k = v.shape[0] - 1
        if k > v.shape[1]:
            raise DegenerateSimplexError(
                f"{k}-simplex cannot embed in R^{v.shape[1]}"
            )
        if k >= 1:
            edges = v[1:] - v[0]
            s = np.linalg.svd(edges, compute_uv=False)
            diffs = v[:, None, :] - v[None, :, :]
            diameter = float(np.sqrt((diffs ** 2).sum(axis=2).max()))
            if s[-1] < DEGENERACY_RTOL * max(diameter, 1e-300):
                raise DegenerateSimplexError(
                    f"simplex is degenerate: smallest edge singular value {s[-1]:.3e} "
                    f"below gate {DEGENERACY_RTOL:.0e} x diameter {diameter:.3e}"
                )

    @property
    def dim(self):
        """Intrinsic dimension k."""
        return self.vertices.shape[0] - 1

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    @property
    def volume(self):
        """k-dimensional volume, 1.0 for a single vertex."""
        k = self.dim
        if k == 0:
            return 1.0
        edges = self.vertices[1:] - self.vertices[0]
        gram = edges @ edges.T
        det = float(np.linalg.det(gram))
        return float(np.sqrt(max(det, 0.0)) / np.prod([i for i in range(1, k + 1)]))

    @cached_property
    def form(self):
        """The affine barycentric form ``(lin, const)`` in the frame of
        vertex 0: the coordinates of x are ``lin @ (x - v0) + const``.
        With E the edge matrix, the coordinates of vertices 1..k are
        pinv(E^T) (x - v0), and coordinate 0 is one minus their sum, so a
        point off the affine hull (k < d) gets the coordinates of its
        orthogonal projection onto it."""
        v = self.vertices
        P = np.linalg.pinv((v[1:] - v[0]).T)
        return np.vstack([-P.sum(axis=0), P]), np.eye(1, v.shape[0])[0]

    def barycentrics(self, points):
        """Barycentric coordinates of each row of ``points``, shape
        (N, k + 1), from :attr:`form`.  Nothing is checked."""
        lin, const = self.form
        pts = as_points(points, self.ambient_dim)
        return (pts - self.vertices[0]) @ lin.T + const
