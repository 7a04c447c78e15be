"""Compact convex bodies behind a three-call oracle: contains, support, project.

Concrete types: :class:`HPolytope` (bounded intersection of halfspaces),
:class:`VPolytope` (convex hull of finitely many points), :class:`Ball`, and
:class:`IntersectionBody` (lazy intersection of other bodies).  Each
polytope kind builds its other description once, at construction: an
H-polytope lists its vertices by solving every nonsingular d-row subset
(C(m, d) solves for m rows, refused above ``MAX_VERTEX_CANDIDATES``), a
V-polytope gets the facet rows of its hull from Quickhull (Barber, Dobkin
& Huhdanpaa, ACM TOMS 1996).  So both answer distance and containment from
the same row slacks, and support and bounds from the same point list,
exact ties going to the lexicographically least point; no LP runs.
Each body kind has one contains rule, its ``contains_batch``; the scalar
``membership`` is that rule on one point, so the two cannot disagree at
the boundary (the weak-membership oracle of Grötschel, Lovász & Schrijver,
*Geometric Algorithms and Combinatorial Optimization*, 1988).
Projection onto an H-polytope is exact: one least-distance program solved
by a single nonnegative least-squares call (Lawson & Hanson, ch. 23); a
V-polytope projects by one NNLS over its generators' weights, exact on
thin hulls too.
Families run on one cutting-plane engine (Kelley, J. SIAM 1960): the
members' projections supply cuts.  :func:`project_intersection` projects
onto the cuts by the same least-distance solve until the iterate lies in
every member; :func:`feasibility_scan` decides emptiness by an LP lower
bound over the cuts.  Nothing in the package runs :func:`dykstra`.
"""
from __future__ import annotations

import abc
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

from .errors import (
    ConvergenceError,
    EmptyBodyError,
    PolytopeSizeError,
    ProjectionError,
    ToleranceAmbiguityError,
    UnboundedBodyError,
)
from .geometry import affine_hull, as_point, as_points

logger = logging.getLogger(__name__)

# Membership tolerance used wherever an operation does not take its own.
DEFAULT_TOL = 1e-7

# Dykstra stopping rule: successive full-cycle iterates must move less than
# this, with a hard round cap.
DYKSTRA_MOVE_TOL = 1e-10
DYKSTRA_MAX_ROUNDS = 100000

# Cutting planes: a pass cuts at each member the iterate misses by
# CUT_RTOL * (1 + |p|_inf) or more, p the start point, and a projection
# stops once it misses none; every loop gets CUT_MAX_PASSES passes.
CUT_RTOL = 1e-13
CUT_MAX_PASSES = 500

# H-polytope vertices: d unit rows are a vertex candidate when their |det|
# exceeds VERTEX_SINGULAR, and its solution a vertex when it satisfies every
# row within VERTEX_RTOL * (1 + |b|_inf).  A description with more than
# MAX_VERTEX_CANDIDATES d-row subsets is refused; subsets are solved
# _SUBSET_CHUNK at a time.
VERTEX_SINGULAR = 1e-12
VERTEX_RTOL = 1e-12
MAX_VERTEX_CANDIDATES = 100000
_SUBSET_CHUNK = 4096


def check_tol(tol):
    """``tol`` as a float; :class:`ValueError` unless it is positive and finite."""
    t = float(tol)
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"tolerance must be a positive finite number, got {t:g}")
    return t


def check_count(value, name, least=0):
    """``value`` as an int; :class:`ValueError` naming ``name`` unless it is
    decimal digits alone (no sign, point or boolean) and at least ``least``."""
    n = int(value) if str(value).isdecimal() else -1
    if n < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return n


@dataclass
class DykstraResult:
    point: np.ndarray
    rounds: int
    movement: float
    converged: bool


def dykstra(start, projectors):
    """Dykstra's cyclic projection with correction terms.

    Converges to the nearest point of the intersection of the projectors'
    sets whenever that intersection is nonempty.  ``projectors`` is a list
    of callables mapping a point to its nearest point in one set.  Stops
    when a round moves less than ``DYKSTRA_MOVE_TOL``, or after
    ``DYKSTRA_MAX_ROUNDS``.
    """
    x = np.array(start, dtype=float)
    incr = [np.zeros_like(x) for _ in projectors]
    movement = np.inf
    rounds = 0
    for rounds in range(1, DYKSTRA_MAX_ROUNDS + 1):
        x_prev, incr_prev = x, list(incr)
        for i, proj in enumerate(projectors):
            y = proj(x + incr[i])
            incr[i] = x + incr[i] - y
            x = y
        # The iterate can sit still for whole stretches while the
        # corrections keep growing toward a corner, so convergence must be
        # judged on both.
        movement = float(np.linalg.norm(x - x_prev)) + sum(
            float(np.linalg.norm(new - old)) for new, old in zip(incr, incr_prev))
        if movement < DYKSTRA_MOVE_TOL:
            return DykstraResult(x, rounds, movement, True)
    return DykstraResult(x, rounds, movement, False)


def _cut_pass(bodies, x, stop, normals, offsets):
    """Distances from ``x`` to the bodies.  Appends the cut
    {y : n.y <= n.P(x)} of each body missed by ``stop`` or more, with n the
    unit vector from its projection P(x) to x: it holds the whole body."""
    dists = np.empty(len(bodies))
    for i, body in enumerate(bodies):
        y = body.project(x)
        v = x - y
        dists[i] = np.linalg.norm(v)
        if dists[i] >= stop:
            n = v / dists[i]
            normals.append(n)
            offsets.append(float(n @ y))
    return dists


def project_intersection(bodies, p):
    """Nearest point to ``p`` of the nonempty intersection of ``bodies``.

    Each pass cuts at the members the iterate x misses, and the next x is
    the nearest point to p of all cuts kept so far, one least-distance
    solve.  Raises :class:`ProjectionError`, carrying the last iterate,
    when ``CUT_MAX_PASSES`` passes run out.
    """
    p = as_point(p, bodies[0].dim)
    stop = CUT_RTOL * (1.0 + float(np.abs(p).max()))
    normals, offsets = [], []
    x = p
    for _ in range(CUT_MAX_PASSES):
        residual = float(_cut_pass(bodies, x, stop, normals, offsets).max())
        if residual <= stop:
            return x.copy()
        x = _least_distance(np.array(normals), np.array(offsets), p)
    raise ProjectionError(
        f"intersection projection undecided after {CUT_MAX_PASSES} "
        f"passes (residual {residual:.3e})",
        last_iterate=x, residual=residual)


def feasibility_scan(bodies, tol=DEFAULT_TOL):
    """Decide whether ``bodies`` share a point, by Kelley's cutting planes.

    From p = :func:`support_centroid`, each pass measures the gap
    ``max_i dist(x, C_i)`` at the iterate x and cuts as
    :func:`project_intersection` does.  The cuts hold their bodies, so the
    optimum t* of the LP min t s.t. n_k.y - t <= h_k, t >= 0 is a certified
    lower bound on ``min_x max_i dist(x, C_i)``.  It returns

    - ``("witness", x, gap, dists, passes)`` once the gap is below ``tol / 10``;
    - ``("empty", ...)`` once t* > ``tol``;
    - ``("ambiguous", ...)`` once t* >= ``tol / 10`` and gap <= ``tol``;
    - ``("noconv", x, gap, None, passes)`` if ``CUT_MAX_PASSES`` passes run out.

    The next x is the cuts' nearest point to p if it lies within ``tol / 10``
    of every cut (so t* < ``tol / 10``; no LP is solved), else the LP
    minimizer.  The LP runs in y = x + gap z, t = gap tau, so that the
    solver's absolute tolerances are relative to the gap.
    """
    if len(bodies) == 0:
        raise ValueError("need at least one body")
    p = support_centroid(bodies)
    d = p.shape[0]
    # <= tol / 10, so an undecided pass (gap >= tol / 10) cuts its farthest body
    stop = min(CUT_RTOL * (1.0 + float(np.abs(p).max())), tol / 10.0)
    normals, offsets = [], []
    x = p
    for passes in range(1, CUT_MAX_PASSES + 1):
        dists = _cut_pass(bodies, x, stop, normals, offsets)
        gap = float(dists.max())
        if gap < tol / 10.0:
            return "witness", x, gap, dists, passes
        A, h = np.array(normals), np.array(offsets)
        try:
            y = _least_distance(A, h, p)
        except ProjectionError:
            y = x  # the cuts share no point; x misses its own by the gap
        if (A @ y - h).max() < tol / 10.0:
            x = y
            continue
        lp = linprog(np.eye(d + 1)[-1], A_ub=np.hstack([A, -np.ones((len(h), 1))]),
                     b_ub=(h - A @ x) / gap, bounds=[(None, None)] * d + [(0.0, None)],
                     method="highs")
        if lp.status != 0:
            raise ProjectionError(f"cut LP failed with status {lp.status}")
        bound = gap * lp.fun
        if bound > tol:
            return "empty", x, gap, dists, passes
        if bound >= tol / 10.0 and gap <= tol:
            return "ambiguous", x, gap, dists, passes
        x = x + gap * lp.x[:d]
    return "noconv", x, gap, None, passes


def decided_scan(bodies, tol=DEFAULT_TOL):
    """Run :func:`feasibility_scan` and return its 5-tuple once it decides.

    A decided scan has status ``"witness"`` or ``"empty"``.  An
    ``"ambiguous"`` one raises :class:`ToleranceAmbiguityError`, a
    ``"noconv"`` one :class:`ConvergenceError`.
    """
    scan = feasibility_scan(bodies, tol=tol)
    status, _, gap, _, passes = scan
    if status == "ambiguous":
        raise ToleranceAmbiguityError(
            f"feasibility gap {gap:.3e} falls in the indeterminate band "
            f"[{tol / 10:.1e}, {tol:.1e}]; adjust the tolerance", gap=gap, tol=tol)
    if status == "noconv":
        raise ConvergenceError(
            f"feasibility scan undecided after {passes} passes (gap {gap:.3e})")
    return scan


def support_centroid(bodies):
    """Average of every body's support points along the +-axis directions."""
    axes = [sign * u for u in np.eye(bodies[0].dim) for sign in (1.0, -1.0)]
    return np.mean([body.support(u) for body in bodies for u in axes], axis=0)


def _least_distance(A, b, p):
    """Nearest point to ``p`` of the nonempty polyhedron {x : A x <= b}.

    A feasible ``p`` comes back as a copy.  Otherwise the least-distance
    program for y = x - p, min |y| s.t. -A y >= s with s = A p - b
    (Lawson & Hanson, ch. 23), is solved through its dual: one NNLS on
    E = [-A^T; s^T / sigma], f = e_{d+1}, where sigma = max s.  Dividing
    by sigma makes the solve independent of how far p lies outside.  With
    r = E u - f, r[d] = -|r|^2 is nonzero when the polyhedron is nonempty;
    r = 0 raises :class:`ProjectionError`, carrying ``p``.
    """
    slacks = A @ p - b
    sigma = float(slacks.max())
    if sigma <= 0.0:
        return p.copy()
    E = np.vstack([-A.T, slacks / sigma])
    f = np.eye(p.shape[0] + 1)[-1]
    u, _ = nnls(E, f)
    r = E @ u - f
    if r[-1] >= 0.0:
        raise ProjectionError("the rows share no point", last_iterate=p)
    return p - (sigma / r[-1]) * r[:-1]


class ConvexBody(abc.ABC):
    """Oracle interface for a compact convex set in R^d.  Each kind states
    its projection, support, bounding box, one contains rule
    (``contains_batch``) and a member ``anchor``; the rest derive from them."""

    @property
    @abc.abstractmethod
    def dim(self):
        """Ambient dimension."""

    @abc.abstractmethod
    def project(self, p):
        """Nearest point of the body to ``p`` (identity for members)."""

    @abc.abstractmethod
    def support(self, direction):
        """A member maximizing the inner product with ``direction``."""

    @abc.abstractmethod
    def bounding_box(self):
        """Axis-aligned bounds as a (lo, hi) pair of arrays."""

    def distance(self, p):
        """Euclidean distance from ``p`` to the body."""
        p = as_point(p, self.dim)
        return float(np.linalg.norm(p - self.project(p)))

    def membership(self, p, tol=DEFAULT_TOL):
        """True when ``p`` lies within ``tol`` of the body: the body's one
        contains rule, :meth:`contains_batch`, on a single point."""
        return bool(self.contains_batch(as_point(p, self.dim)[None], tol)[0])

    @abc.abstractmethod
    def contains_batch(self, points, tol=DEFAULT_TOL):
        """Which rows of an (N, d) array lie within ``tol`` of the body: the
        body's one contains rule, stated by each kind."""

    def _grid_cover(self, axes):
        """``contains_batch(., tol=0)`` at the points of the grid whose
        coordinates along axis i are the 1-D array ``axes[i]``, shaped like
        that grid.  This default lifts the grid to its (N, d) point list."""
        return self.contains_batch(_grid_points(axes), tol=0.0).reshape(
            [a.size for a in axes])

    def diameter(self):
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    @property
    @abc.abstractmethod
    def anchor(self):
        """Some member point, used as a default start for iterations."""


class _FacetPolytope(ConvexBody):
    """Polytope held twice: as unit rows {x : A x <= b} and as a point list
    ``_V`` whose hull it is.  Subclasses set ``_A``, ``_b``, ``_V`` and
    ``_dim`` and supply ``project``, which returns a point that violates no
    row as a copy.  Containment reads the rows: only points within ``tol``
    of them need a projection, since the worst slack bounds the distance.
    Support and the bounding box read the points."""

    @property
    def dim(self):
        return self._dim

    @property
    def vertices(self):
        return self._V

    def bounding_box(self):
        return self._V.min(axis=0), self._V.max(axis=0)

    def support(self, direction):
        """The lexicographically least of the points maximizing ``u . x``."""
        u = as_point(direction, self._dim)
        if np.linalg.norm(u) == 0:
            raise ValueError("support direction must be nonzero")
        return _least_maximizer(self._V, u)

    def contains_batch(self, points, tol=DEFAULT_TOL):
        pts = as_points(points, self._dim)
        worst = (pts @ self._A.T - self._b).max(axis=1)
        out = worst <= 0.0
        # past tol a point is out: its distance dominates its worst slack
        for idx in np.flatnonzero(~out & (worst <= tol)):
            out[idx] = self.distance(pts[idx]) <= tol
        return out


def _grid_points(axes):
    """The (N, d) list of the points of the grid whose coordinates along
    axis i are the 1-D array ``axes[i]``, the last axis varying fastest."""
    d = len(axes)
    points = np.empty([a.size for a in axes] + [d])
    for i, a in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        points[..., i] = a
    return points.reshape(-1, d)


def _least_maximizer(V, u):
    """The lexicographically least row of V maximizing ``V @ u``: exact ties
    are broken by coordinates, not by position, so the answer does not
    depend on the order of the rows."""
    values = V @ u
    ties = V[values == values.max()]
    return ties[np.lexsort(ties.T[::-1])[0]].copy()


def _row_subsets(m, k):
    """Every k-subset of range(m), in lexicographic order, as index arrays
    of at most ``_SUBSET_CHUNK`` rows."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    total = math.comb(m, k)
    for start in range(0, total, _SUBSET_CHUNK):
        rows = min(_SUBSET_CHUNK, total - start)
        yield np.fromiter(combos, dtype=np.intp, count=rows * k).reshape(rows, k)


def _vertex_solutions(A, b, tol):
    """Solutions of the nonsingular d-row subsets of {A x <= b} that satisfy
    every row within ``tol``, sorted and without exact repeats; and whether
    any subset was nonsingular, i.e. whether the rows have rank d."""
    found, full_rank = [], False
    for idx in _row_subsets(*A.shape):
        M = A[idx]
        regular = np.abs(np.linalg.det(M)) > VERTEX_SINGULAR
        if not regular.any():
            continue
        full_rank = True
        # + 0.0 maps -0.0 to 0.0, so that no coordinate prints as -0.0
        X = np.linalg.solve(M[regular], b[idx[regular]][..., None])[..., 0] + 0.0
        found.append(X[(X @ A.T - b).max(axis=1) <= tol])
    if not found:
        return np.zeros((0, A.shape[1])), full_rank
    return np.unique(np.concatenate(found), axis=0), full_rank


def _recession_ray(A):
    """A unit y with A y <= VERTEX_RTOL, or None.  For rows of rank d the
    cone {A y <= 0} is pointed, so it is {0} unless one of its extreme
    rays, the null line of d - 1 independent rows, lies in it."""
    d = A.shape[1]
    for idx in _row_subsets(A.shape[0], d - 1):
        M = A[idx]
        # the null line of d - 1 rows: their cofactors (a cross product in 3-D)
        Y = np.stack([(-1) ** j * np.linalg.det(np.delete(M, j, axis=2))
                      for j in range(d)], axis=1)
        norms = np.linalg.norm(Y, axis=1)
        keep = norms > VERTEX_SINGULAR
        Y = Y[keep] / norms[keep, None]
        for ray in (Y, -Y):
            inside = np.flatnonzero((ray @ A.T).max(axis=1) <= VERTEX_RTOL)
            if inside.size:
                return ray[inside[0]]
    return None


class HPolytope(_FacetPolytope):
    """Bounded nonempty polytope {x : A x <= b}.

    Rows of ``A`` are normalized at construction, which also lists the
    vertices once: every nonsingular d-row subset is solved, in vectorized
    chunks, and a solution is kept when it satisfies every row within
    ``VERTEX_RTOL * (1 + |b|_inf)``.  That costs C(m, d) small solves for
    m rows in R^d, so a description with more than
    ``MAX_VERTEX_CANDIDATES`` subsets raises :class:`PolytopeSizeError`
    before any solve.  No vertex means :class:`EmptyBodyError`; rows of
    rank below d (whose trace on the row space has a vertex) or an extreme
    ray of {A y <= 0} mean :class:`UnboundedBodyError`.  ``support`` and
    ``bounding_box`` read the vertex list, with exact ties broken by the
    lexicographically least vertex; ``anchor`` is the mean of the supports
    along the +-axis directions.  ``project`` is exact and finite: a point
    outside is mapped to its nearest point by one least-distance solve.

    Parameters
    ----------
    A : array_like, shape (m, d)
    b : array_like, shape (m,)
    """

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float)).astype(float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent halfspace data: A {A.shape}, b {b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("halfspace data has non-finite entries")
        norms = np.linalg.norm(A, axis=1)
        keep = norms > 1e-12
        if not np.all(keep):
            if np.any(b[~keep] < -1e-12):
                raise EmptyBodyError("zero row with negative bound: empty polytope")
            A, b, norms = A[keep], b[keep], norms[keep]
        if A.shape[0] == 0:
            raise UnboundedBodyError("no constraints: whole space is unbounded")
        # rows already unit up to rounding are kept as given, so that a
        # polytope written out and read back has the same rows
        norms[np.abs(norms - 1.0) <= 1e-14] = 1.0
        self._A = A / norms[:, None]
        self._b = b / norms
        m, d = self._A.shape
        self._dim = d
        count = math.comb(m, d)
        if count > MAX_VERTEX_CANDIDATES:
            raise PolytopeSizeError(
                f"{m} rows in dimension {d} give {count} vertex candidates, "
                f"over the budget of {MAX_VERTEX_CANDIDATES}")
        # enumerate in a canonical row order, so that a permutation of the
        # rows gives the same vertices to the last bit
        order = np.lexsort(np.column_stack([self._A, self._b]).T[::-1])
        A, b = self._A[order], self._b[order]
        tol = VERTEX_RTOL * (1.0 + float(np.abs(b).max()))
        V, full_rank = _vertex_solutions(A, b, tol)
        if full_rank:
            ray = _recession_ray(A) if V.size else None
        else:
            # rows of rank r < d: the polytope is its trace on their row
            # space plus the complement, nonempty iff that trace has a vertex
            _, s, vt = np.linalg.svd(A)
            r = min(d - 1, int((s > VERTEX_SINGULAR).sum()))
            V, _ = _vertex_solutions(A @ vt[:r].T, b, tol)
            ray = vt[-1]
        if V.size == 0:
            raise EmptyBodyError("polytope has no feasible point")
        if ray is not None:
            i = int(np.argmax(np.abs(ray)))
            raise UnboundedBodyError(
                f"polytope is unbounded along axis {i} ({'+' if ray[i] > 0 else '-'})")
        self._V = V
        self._anchor = support_centroid([self])

    @classmethod
    def box(cls, lo, hi):
        """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""
        lo = as_point(lo)
        hi = as_point(hi, lo.shape[0])
        if np.any(hi < lo):
            raise EmptyBodyError("box has hi < lo on some axis")
        d = lo.shape[0]
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.concatenate([hi, -lo])
        return cls(A, b)

    @property
    def A(self):
        return self._A

    @property
    def b(self):
        return self._b

    @property
    def anchor(self):
        return self._anchor

    def project(self, p):
        return _least_distance(self._A, self._b, as_point(p, self._dim))


class VPolytope(_FacetPolytope):
    """Convex hull of a finite generator set, screened through its facets.

    The facet rows are built once, in the frame of the generators'
    :func:`~hollowkit.geometry.affine_hull`: Quickhull
    (``scipy.spatial.ConvexHull``) when the hull has dimension 2 or more,
    the two end rows of a segment, none for a point, plus both signs of
    the flat's orthonormal complement.  So ``distance`` and
    ``contains_batch`` are the H-polytope slack screens in every
    dimension, and ``support`` and ``bounding_box`` read the generators,
    which are its ``vertices``; a hull of its generators is nonempty and
    bounded, so nothing is screened.  A hull thinner than the rank cutoff
    of ``affine_hull`` is flat to the rows: a generator that far off the
    flat violates them by as much.

    Parameters
    ----------
    vertices : array_like, shape (k, d)
        Generators; duplicates and interior points are tolerated.
    """

    def __init__(self, vertices):
        self._V = as_points(vertices)
        self._dim = self._V.shape[1]
        flat = affine_hull(self._V)
        coords = (self._V - flat.base) @ flat.basis.T
        # rows [normal, -offset] in frame coordinates
        if flat.dim >= 2:
            facets = ConvexHull(coords).equations
        elif flat.dim == 1:
            facets = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
        else:
            facets = np.zeros((0, 1))
        eigval, eigvec = np.linalg.eigh(np.eye(self._dim) - flat.basis.T @ flat.basis)
        complement = eigvec[:, eigval > 0.5].T
        self._A = np.vstack([facets[:, :-1] @ flat.basis, complement, -complement])
        self._b = self._A @ flat.base - np.append(facets[:, -1],
                                                  np.zeros(2 * len(complement)))

    @property
    def anchor(self):
        return self._V.mean(axis=0)

    def project(self, p):
        """Nearest point of the hull; ``p`` itself if it violates no row.

        One NNLS picks the face: with the columns of W the generators minus
        p (scaled to max norm 1), min |W u|^2 + (sum u - 1)^2 over u >= 0
        has u / sum(u) = the simplex weights of the nearest point, since for
        fixed weights it is m / (1 + m), m their squared distance.  The
        generators with positive weight lie on the supporting hyperplane
        there, so the answer is p projected onto their affine hull, solved
        on edge vectors: exact at acute vertices of thin hulls, where rows
        lose about eps / angle, and with an error that does not grow with
        the distance of p.
        """
        p = as_point(p, self._dim)
        if (self._A @ p - self._b).max() <= 0.0:
            return p.copy()
        W = (self._V - p).T
        W /= np.sqrt((W * W).sum(axis=0).max())
        u, _ = nnls(np.vstack([W, np.ones(W.shape[1])]), np.eye(self._dim + 1)[-1])
        face = self._V[u > 0.0]
        edges = face[1:] - face[0]
        t = np.linalg.lstsq(edges.T, p - face[0], rcond=None)[0]
        return face[0] + t @ edges


class Ball(ConvexBody):
    """Closed Euclidean ball with positive radius."""

    def __init__(self, center, radius):
        self._c = as_point(center)
        self._r = float(radius)
        if not np.isfinite(self._r) or self._r <= 0:
            raise ValueError(f"ball radius must be positive, got {radius}")

    @property
    def dim(self):
        return self._c.shape[0]

    @property
    def center(self):
        return self._c

    @property
    def radius(self):
        return self._r

    @property
    def anchor(self):
        return self._c.copy()

    def bounding_box(self):
        return self._c - self._r, self._c + self._r

    def support(self, direction):
        u = as_point(direction, self.dim)
        norm = float(np.linalg.norm(u))
        if norm == 0:
            raise ValueError("support direction must be nonzero")
        return self._c + self._r * u / norm

    def project(self, p):
        p = as_point(p, self.dim)
        v = p - self._c
        norm = float(np.linalg.norm(v))
        if norm <= self._r:
            return p.copy()
        return self._c + v * (self._r / norm)

    def distance(self, p):
        p = as_point(p, self.dim)
        return max(0.0, float(np.linalg.norm(p - self._c)) - self._r)

    def _within(self, coords, tol):
        """The contains rule on per-axis coordinate arrays that broadcast:
        the squared offsets summed left to right, so that a row of a point
        list and a cell of a grid give the same bits."""
        squares = [(x - c) * (x - c) for x, c in zip(coords, self._c)]
        # sum(rest, first) adds ((first + s1) + s2) + ...
        return np.sqrt(sum(squares[1:], squares[0])) <= self._r + tol

    def contains_batch(self, points, tol=DEFAULT_TOL):
        return self._within(as_points(points, self.dim).T, tol)

    def _grid_cover(self, axes):
        """:meth:`_within` on each axis laid along its own dimension: the
        same sums as on the point list, without building it."""
        return self._within(np.meshgrid(*axes, indexing="ij", sparse=True), 0.0)


class IntersectionBody(ConvexBody):
    """Intersection of member bodies, kept as oracles.

    Nonemptiness is certified at construction: either a ``witness`` member
    point is supplied by the caller or a feasibility scan finds one.  An
    empty intersection raises :class:`EmptyBodyError`, and a scan that
    decides nothing raises as :func:`decided_scan` does.  ``project`` is
    an outer approximation by cuts from the members' projections, and
    ``support`` projects a far point in the requested direction.
    """

    # Far-point multiplier of ``support``: R = _SUPPORT_RADIUS (1 + diam).
    _SUPPORT_RADIUS = 1e4

    def __init__(self, bodies, witness=None, tol=DEFAULT_TOL):
        bodies = tuple(bodies)
        if not bodies:
            raise ValueError("need at least one body")
        d = bodies[0].dim
        if any(b.dim != d for b in bodies):
            raise ValueError("member bodies live in different dimensions")
        self._bodies = bodies
        self._dim = d
        if witness is None:
            status, witness, gap, _, _ = decided_scan(bodies, tol=tol)
            if status == "empty":
                raise EmptyBodyError(
                    f"intersection is empty (gap {gap:.3e} above tol {tol:.0e})",
                    gap=gap)
        else:
            witness = as_point(witness, d)
            for i, b in enumerate(bodies):
                if not b.membership(witness, tol):
                    raise ValueError(f"witness fails membership in member {i}")
        self._witness = witness

    @property
    def dim(self):
        return self._dim

    @property
    def bodies(self):
        return self._bodies

    @property
    def anchor(self):
        return self._witness.copy()

    def bounding_box(self):
        los, his = zip(*(b.bounding_box() for b in self._bodies))
        lo = np.max(los, axis=0)
        hi = np.min(his, axis=0)
        return lo, np.maximum(hi, lo)

    def project(self, p):
        """Nearest point of the intersection: :func:`project_intersection`."""
        return project_intersection(self._bodies, p)

    def support(self, direction):
        """Projection of a far point ``witness + R u / |u|``.

        With R = ``_SUPPORT_RADIUS * (1 + diam)`` the returned member's inner
        product with u falls short of the support value by at most
        diam^2 / (2 R).
        """
        u = as_point(direction, self._dim)
        norm = float(np.linalg.norm(u))
        if norm == 0:
            raise ValueError("support direction must be nonzero")
        radius = self._SUPPORT_RADIUS * (1.0 + self.diameter())
        return self.project(self._witness + (radius / norm) * u)

    def contains_batch(self, points, tol=DEFAULT_TOL):
        """In when every member holds the point exactly, out when some
        member misses it by more than ``tol``; the band between is decided
        by the distance to the intersection."""
        pts = as_points(points, self._dim)
        inner = np.ones(pts.shape[0], dtype=bool)
        outer = np.zeros(pts.shape[0], dtype=bool)
        for b in self._bodies:
            inner &= b.contains_batch(pts, tol=0.0)
            outer |= ~b.contains_batch(pts, tol=tol)
        out = inner.copy()
        for idx in np.flatnonzero(~inner & ~outer):
            out[idx] = self.distance(pts[idx]) <= tol
        return out

    def _grid_cover(self, axes):
        """The AND of the members' grid covers: at tol = 0 the band of
        :meth:`contains_batch` is empty, so this is that rule exactly."""
        cover = self._bodies[0]._grid_cover(axes)
        for b in self._bodies[1:]:
            cover &= b._grid_cover(axes)
        return cover
