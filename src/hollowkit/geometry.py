"""Affine and simplicial primitives: hulls, Radon partitions, barycentrics.

Points are plain 1-D numpy arrays and point sets are (n, d) arrays; all
objects here are immutable value types and all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, DegenerateSimplexError

# A simplex counts as degenerate when the smallest singular value of its edge
# matrix drops below this fraction of its diameter.  Every degeneracy fallback
# in the package gates on this single constant.
DEGENERACY_RTOL = 1e-8

# Default absolute tolerance for exact-in-principle geometric identities.
ATOL = 1e-9

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
class RadonPartition:
    """Two disjoint index sets covering the input, plus a point in both hulls."""

    part1: frozenset
    part2: frozenset
    crossing_point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "part1", frozenset(int(i) for i in self.part1))
        object.__setattr__(self, "part2", frozenset(int(i) for i in self.part2))
        object.__setattr__(self, "crossing_point", as_point(self.crossing_point))

    def as_sets(self):
        """Unordered pair of parts, convenient for comparisons."""
        return {self.part1, self.part2}


def _best_null_vector(null_basis):
    """Pick a unit null-space vector maximizing the minimum |coefficient|.

    For a one-dimensional null space this is just the basis vector.  For
    degenerate inputs with a larger null space a deterministic seeded search
    over unit combinations is used.
    """
    k = null_basis.shape[0]
    if k == 1:
        return null_basis[0]
    rng = np.random.default_rng(0)
    best = None
    best_score = -1.0
    candidates = [np.eye(k)[i] for i in range(k)]
    candidates.extend(rng.standard_normal((512, k)))
    for c in candidates:
        norm = np.linalg.norm(c)
        if norm == 0:
            continue
        lam = (c / norm) @ null_basis
        score = float(np.min(np.abs(lam)))
        if score > best_score:
            best_score = score
            best = lam
    return best


def radon_partition(points):
    """Partition d + 2 points in R^d into two parts with intersecting hulls.

    The affine dependence is found as a null vector of the lifted coordinate
    matrix; indices split by coefficient sign, and the crossing point is the
    convex combination of the positive part.  The null vector is oriented so
    its last nonzero coefficient is negative, which makes the part assignment
    deterministic.  Points with zero coefficient go to part2 so the parts
    cover the input.

    Returns
    -------
    RadonPartition

    Raises
    ------
    ValueError
        If the input does not consist of exactly d + 2 points.
    DegenerateConfigurationError
        If no null vector yields a numerically consistent partition.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n != d + 2:
        raise ValueError(f"need exactly d + 2 = {d + 2} points in R^{d}, got {n}")
    lifted = np.vstack([pts.T, np.ones(n)])  # (d + 1, d + 2)
    u, s, vt = np.linalg.svd(lifted)
    scale = max(1.0, float(s[0]))
    null_rows = vt[d + 1:]  # guaranteed at least one row
    extra = vt[:d + 1][s < 1e-12 * scale] if s.size else np.zeros((0, n))
    null_basis = np.vstack([null_rows, extra]) if extra.size else null_rows
    lam = _best_null_vector(null_basis)

    nz = np.flatnonzero(np.abs(lam) > 1e-12 * np.max(np.abs(lam)))
    if nz.size == 0:
        raise DegenerateConfigurationError("no usable affine dependence found")
    if lam[nz[-1]] > 0:
        lam = -lam

    pos = lam > 1e-12 * np.max(np.abs(lam))
    neg = ~pos
    if not pos.any() or not neg.any():
        raise DegenerateConfigurationError("affine dependence has a single sign")
    part1 = frozenset(int(i) for i in np.flatnonzero(pos))
    part2 = frozenset(int(i) for i in np.flatnonzero(neg))

    wpos = lam[pos]
    q1 = (wpos @ pts[pos]) / wpos.sum()
    mask2 = np.zeros(n, dtype=bool)
    mask2[list(part2)] = True
    wneg = -lam[mask2]
    wneg_sum = wneg.sum()
    if wneg_sum <= 0:
        raise DegenerateConfigurationError("negative part has zero total weight")
    q2 = (wneg @ pts[mask2]) / wneg_sum
    span = max(1.0, float(np.max(np.abs(pts))))
    if np.linalg.norm(q1 - q2) > 1e-9 * span:
        raise DegenerateConfigurationError(
            f"crossing points from the two parts disagree by {np.linalg.norm(q1 - q2):.3e}"
        )
    return RadonPartition(part1, part2, q1)


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
            if s[-1] < DEGENERACY_RTOL * max(self.diameter, 1e-300):
                raise DegenerateSimplexError(
                    f"simplex is degenerate: smallest edge singular value {s[-1]:.3e} "
                    f"below gate {DEGENERACY_RTOL:.0e} x diameter {self.diameter:.3e}"
                )

    @property
    def dim(self):
        """Intrinsic dimension k."""
        return self.vertices.shape[0] - 1

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    @property
    def diameter(self):
        v = self.vertices
        if v.shape[0] == 1:
            return 0.0
        diffs = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=2).max()))

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

    def barycentrics(self, points):
        """Least-squares barycentric coordinates of each row of ``points``,
        shape (N, k + 1): one solve of [V^T; 1] w = [p; 1] for all rows.
        Rows off the affine hull get the coordinates of their nearest
        point of it; nothing is checked."""
        v = self.vertices
        pts = as_points(points, v.shape[1])
        system = np.vstack([v.T, np.ones(v.shape[0])])
        rhs = np.vstack([pts.T, np.ones(pts.shape[0])])
        w, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        return w.T

    def contains(self, p, tol=1e-9):
        """Convex containment via barycentric coordinates (all >= -tol)."""
        try:
            w = barycentric(self, p, tol=max(tol, 1e-9))
        except ValueError:
            return False
        return bool(np.all(w >= -tol))


def barycentric(simplex, p, tol=ATOL):
    """Barycentric coordinates of ``p`` with respect to ``simplex``.

    The coordinates sum to one and reconstruct ``p`` within 1e-9 whenever
    ``p`` lies in the simplex's affine hull; otherwise a ValueError is
    raised.  Coordinates may be negative for points outside the simplex but
    inside the hull.
    """
    v = simplex.vertices
    p = as_point(p, v.shape[1])
    k = v.shape[0] - 1
    if k == 0:
        if np.linalg.norm(p - v[0]) > max(tol, 1e-9):
            raise ValueError("point lies outside the affine hull of the simplex")
        return np.array([1.0])
    w = simplex.barycentrics(p[None])[0]
    recon = w @ v
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.linalg.norm(recon - p) > max(tol, 1e-9) * scale:
        raise ValueError("point lies outside the affine hull of the simplex")
    return w
