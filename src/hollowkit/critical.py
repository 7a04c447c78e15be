"""Critical families, the hollow simplex they enclose, and convex cages.

A family of n + 1 compact convex sets in R^d is n-critical when every n of
them share a point but all n + 1 together do not.  For n = d such a family
encloses a hollow: a bounded component of the complement of the union.  The
closed convex hull of that hollow is a d-simplex whose vertex opposite body
j is the nearest point of the leave-one-out intersection to body j; this
module computes those vertices analytically from the body oracles.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bodies import (DEFAULT_TOL, IntersectionBody, VPolytope,
                     check_count, support_centroid)
from .errors import BorderlineCriticalError, EmptyBodyError, NoHollowError
from .geometry import Simplex, as_points, barycentric
from .solvers import SeparationCertificate, intersect_witness, min_distance

logger = logging.getLogger(__name__)

# Families whose emptiness margin falls below this multiple of the working
# tolerance are rejected as numerically borderline rather than certified.
BORDERLINE_FACTOR = 10.0

UNIQUENESS_THRESHOLD = 1e-5

# Membership tolerance of every cage check.
CAGE_TOL = 1e-6


@dataclass(frozen=True)
class HellyRejection:
    """Structured refusal: more than d + 1 sets in R^d cannot be critical."""

    n: int
    d: int

    @property
    def message(self):
        return (f"{self.n + 1} convex sets in R^{self.d} with nonempty "
                f"leave-one-out intersections always share a point (n = {self.n} > d)")


@dataclass(frozen=True)
class CriticalityFailure:
    """Why a family is not critical.

    ``reason`` is one of ``"helly"`` (n > d), ``"leave-one-out-empty"``
    (with ``index`` the failing j), ``"full-intersection-nonempty"`` (with
    ``witness`` a common point), or ``"borderline"`` (empty, but with margin
    below the certification floor).
    """

    reason: str
    index: int = None
    witness: np.ndarray = None
    detail: str = ""


@dataclass(frozen=True)
class CriticalFamily:
    """A certified n-critical family with its witnesses and certificate.

    ``witnesses[j]`` is a point of the leave-one-out intersection missing
    body j; ``certificate`` proves the full intersection empty.
    """

    bodies: tuple
    witnesses: np.ndarray
    certificate: SeparationCertificate
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        object.__setattr__(self, "witnesses", as_points(self.witnesses))

    @property
    def n(self):
        return len(self.bodies) - 1

    @property
    def d(self):
        return self.bodies[0].dim

    def leave_one_out(self, j):
        """Intersection of every body except j, anchored at ``witnesses[j]``."""
        rest = [b for i, b in enumerate(self.bodies) if i != j]
        if len(rest) == 1:
            return rest[0]
        return IntersectionBody(rest, witness=self.witnesses[j], tol=self.tol)


@dataclass(frozen=True)
class HollowSimplex:
    """Vertices of the hollow's closed convex hull, with their gaps.

    ``vertices[j]`` is the nearest point of the leave-one-out intersection
    to body j and ``gaps[j]`` the realized distance.
    """

    vertices: np.ndarray
    gaps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", as_points(self.vertices))
        object.__setattr__(self, "gaps", np.asarray(self.gaps, dtype=float))

    @property
    def simplex(self):
        return Simplex(self.vertices)


def helly_guard(bodies):
    """Return a :class:`HellyRejection` when n > d, else None.

    Called before any solving: a family that is too large for its ambient
    dimension can never be critical, so no feasibility work is done.
    """
    bodies = list(bodies)
    n = len(bodies) - 1
    d = bodies[0].dim
    if n > d:
        return HellyRejection(n, d)
    return None


def recentered_witness(bodies, tol=DEFAULT_TOL):
    """Witness of the intersection of ``bodies``, pulled toward its middle.

    The point is the projection onto the intersection of the average of
    its axis-direction support points, so repeated calls give a stable,
    well-centered witness that passes membership in every body.
    The :class:`IntersectionBody` constructor scans for a first member
    point and raises its errors when the scan finds none.
    """
    bodies = list(bodies)
    if len(bodies) == 1:
        lo, hi = bodies[0].bounding_box()
        return bodies[0].project((lo + hi) / 2.0)
    inter = IntersectionBody(bodies, tol=tol)
    return inter.project(support_centroid([inter]))


def check_critical(bodies, tol=DEFAULT_TOL):
    """Certify that a family of n + 1 bodies is n-critical.

    Verifies that every leave-one-out intersection has a point (collecting a
    recentered witness for each) and that the full intersection is empty
    with margin above ``10 * tol``.  A leave-one-out scan that decides
    nothing raises as :func:`~hollowkit.bodies.decided_scan` does.

    Returns
    -------
    CriticalFamily or CriticalityFailure
    """
    bodies = tuple(bodies)
    if len(bodies) < 2:
        raise ValueError("a critical family needs at least two bodies")
    d = bodies[0].dim
    if any(b.dim != d for b in bodies):
        raise ValueError("bodies live in different dimensions")
    rejection = helly_guard(bodies)
    if rejection is not None:
        return CriticalityFailure("helly", detail=rejection.message)

    n = len(bodies) - 1
    witnesses = np.empty((n + 1, d))

    for j in range(n + 1):
        rest = [b for i, b in enumerate(bodies) if i != j]
        try:
            witnesses[j] = recentered_witness(rest, tol=tol)
        except EmptyBodyError as exc:
            return CriticalityFailure(
                "leave-one-out-empty", index=j,
                detail=f"bodies other than {j} share no point (gap {exc.gap:.3e})")

    full = intersect_witness(bodies, tol=tol)
    if full.status == "witness":
        return CriticalityFailure("full-intersection-nonempty", witness=full.witness,
                                  detail="all bodies share a point")
    cert = full.certificate
    if cert.distance < BORDERLINE_FACTOR * tol:
        return CriticalityFailure(
            "borderline",
            detail=f"emptiness margin {cert.distance:.3e} below "
                   f"{BORDERLINE_FACTOR:.0f} x tol")
    return CriticalFamily(bodies, witnesses, cert, tol=tol)


def hollow_simplex(family, starts=None):
    """Vertices of the hollow enclosed by a d-critical family.

    For each j the vertex ``p_j`` is the nearest point of the intersection
    of the other bodies to body j, found by alternating projections; the
    gaps are the realized distances.  Raises :class:`NoHollowError` when
    n < d (the family encloses nothing in that dimension) and
    :class:`DegenerateSimplexError` when the vertices are numerically
    affinely dependent.
    """
    if family.n < family.d:
        raise NoHollowError(
            f"a {family.n}-critical family in R^{family.d} encloses no hollow")
    n = family.n
    vertices = np.empty((n + 1, family.d))
    gaps = np.empty(n + 1)
    for j in range(n + 1):
        start = family.witnesses[j] if starts is None else starts[j]
        res = min_distance(family.leave_one_out(j), family.bodies[j], start=start)
        vertices[j] = res.point_a
        gaps[j] = res.distance
    if np.any(gaps <= BORDERLINE_FACTOR * family.tol):
        raise BorderlineCriticalError(
            f"hollow gaps {gaps} not all above {BORDERLINE_FACTOR:.0f} x tol; "
            "family is numerically borderline")
    hs = HollowSimplex(vertices, gaps)
    hs.simplex  # construction validates nondegeneracy
    return hs


@dataclass(frozen=True)
class UniquenessReport:
    """Per-vertex spread of hollow-simplex solves across random restarts."""

    deviations: np.ndarray
    threshold: float
    restarts: int

    @property
    def ok(self):
        return bool(np.all(self.deviations <= self.threshold))


def uniqueness_probe(family, restarts=10, seed=0):
    """Re-solve the hollow simplex from random starts and measure spread.

    Returns a report whose ``deviations[j]`` is the diameter of the cloud of
    p_j solutions over ``restarts`` seeded random initial points.  A report
    with ``ok == False`` (a deviation above ``UNIQUENESS_THRESHOLD``) flags
    a (numerically) non-unique nearest point; the probe never silently
    discards a bad spread.  ``restarts`` and ``seed`` must pass
    :func:`check_count`; zero restarts give zero deviations.
    """
    restarts = check_count(restarts, "restarts")
    rng = np.random.default_rng(check_count(seed, "seed"))
    lo = family.witnesses.min(axis=0)
    hi = family.witnesses.max(axis=0)
    span = np.maximum(hi - lo, 1e-3)
    points = np.empty((restarts, family.n + 1, family.d))
    for r in range(restarts):
        start = lo - 0.5 * span + 2.0 * span * rng.random(family.d)
        starts = np.tile(start, (family.n + 1, 1))
        hs = hollow_simplex(family, starts=starts)
        points[r] = hs.vertices
    # pairwise spread over the restarts, per vertex
    diffs = points[:, None, :, :] - points[None, :, :, :]
    spread = (diffs ** 2).sum(axis=3)
    deviations = np.sqrt(spread.max(axis=(0, 1), initial=0.0))
    report = UniquenessReport(deviations, UNIQUENESS_THRESHOLD, restarts)
    if not report.ok:
        logger.warning("uniqueness probe flagged deviations %s above %.1e",
                       deviations, UNIQUENESS_THRESHOLD)
    return report


@dataclass(frozen=True)
class Cage:
    """d + 1 base points, one inside each leave-one-out intersection.

    The convex hull of any such base-point set contains the hollow, so it
    "cages" the enclosed region.  That hull is built once, as ``hull``.
    """

    base_points: np.ndarray
    hull: VPolytope = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_points(self.base_points)
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "hull", VPolytope(pts))

    def contains(self, p):
        """True when ``p`` lies within ``CAGE_TOL`` of the cage's hull."""
        return self.hull.membership(p, CAGE_TOL)


def make_cage(family, base_points):
    """Validate base points (b_j in every body except j) and build a cage."""
    pts = as_points(base_points, family.d)
    if pts.shape[0] != family.n + 1:
        raise ValueError(f"need {family.n + 1} base points, got {pts.shape[0]}")
    for j in range(family.n + 1):
        for i, b in enumerate(family.bodies):
            if i != j and not b.membership(pts[j], CAGE_TOL):
                raise ValueError(
                    f"base point {j} misses body {i} by more than {CAGE_TOL:.0e}")
    return Cage(pts)


def random_cage(family, rng=None):
    """A cage with random base points drawn from each leave-one-out region."""
    rng = np.random.default_rng(rng)
    los, his = zip(*(b.bounding_box() for b in family.bodies))
    lo, hi = np.min(los, axis=0), np.max(his, axis=0)
    pts = np.empty((family.n + 1, family.d))
    for j in range(family.n + 1):
        X = family.leave_one_out(j)
        raw = lo + (hi - lo) * rng.random(family.d)
        pts[j] = X.project(raw)
    return make_cage(family, pts)


def cage_contains_hull_vertices(family, cage, hs=None):
    """True when every hollow-simplex vertex lies in the cage's hull."""
    if hs is None:
        hs = hollow_simplex(family)
    return all(cage.contains(v) for v in hs.vertices)


def cage_intersection_is_cage(family, cage, region, hs=None):
    """Check that region-and-cage still cages the hollow.

    ``region`` is any object with a ``membership(p, tol)`` method covering
    the hollow (for instance the hull of a certified component).  It
    suffices that every hollow-simplex vertex lies in both sets; the
    intersection then contains base points for a cage of its own.
    """
    if hs is None:
        hs = hollow_simplex(family)
    return all(cage.contains(v) and region.membership(v, CAGE_TOL)
               for v in hs.vertices)


def witness_simplex(family):
    """Simplex spanned by the family's witnesses (validates nondegeneracy)."""
    return Simplex(family.witnesses)


def sandwich_check(family, hs=None):
    """Barycentric coordinates of each p_j inside the witness simplex.

    Returns the minimum coordinate over all vertices; nonnegative (up to
    tolerance) because the hollow's hull sits inside every witness simplex.
    """
    if hs is None:
        hs = hollow_simplex(family)
    S = witness_simplex(family)
    return min(float(barycentric(S, v, tol=1e-6).min()) for v in hs.vertices)
