"""Critical families, the hollow simplex they enclose, and the cages around it.

A family of n + 1 compact convex sets in R^d is n-critical when every n of
them share a point but all n + 1 together do not.  For n = d such a family
encloses a hollow: a bounded component of the complement of the union.  The
closed convex hull of that hollow is a d-simplex whose vertex opposite body
j is the nearest point of the leave-one-out intersection to body j; this
module computes those vertices analytically from the body oracles.  Any
simplex on one point of each leave-one-out intersection, a cage, holds
that hull.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bodies import (DEFAULT_TOL, IntersectionBody, check_count, check_tol,
                     decided_scan, support_centroid)
from .errors import BorderlineCriticalError, EmptyBodyError, NoHollowError
from .geometry import Simplex, as_points
from .solvers import SeparationCertificate, _empty_certificate, min_distance

logger = logging.getLogger(__name__)

# Families whose emptiness distance (the certificate's body-to-rest distance)
# or hollow gaps are not above this multiple of the working tolerance are
# rejected as borderline rather than certified.
BORDERLINE_FACTOR = 10.0

UNIQUENESS_THRESHOLD = 1e-5

# Membership tolerance of a cage's base points.
CAGE_TOL = 1e-6


@dataclass(frozen=True)
class CriticalityFailure:
    """Why a family is not critical.

    ``reason`` is one of ``"helly"`` (n > d), ``"leave-one-out-empty"``
    (with ``index`` the failing j), ``"full-intersection-nonempty"`` (with
    ``witness`` a common point), or ``"borderline"`` (empty, but with the
    certificate's distance not above the certification floor).
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
        """Intersection of every body except j, with ``witnesses[j]`` as its
        witness; of two or more bodies it is built anew, with no pooled
        cuts, on every call."""
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
    """Return a ``"helly"`` :class:`CriticalityFailure` when n > d, else None.

    Called before any solving: a family that is too large for its ambient
    dimension can never be critical, so no feasibility work is done.
    """
    bodies = list(bodies)
    n = len(bodies) - 1
    d = bodies[0].dim
    if n > d:
        return CriticalityFailure(
            "helly", detail=f"{n + 1} convex sets in R^{d} with nonempty leave-one-out "
                            f"intersections always share a point (n = {n} > d)")
    return None


def recentered_witness(bodies, tol=DEFAULT_TOL):
    """Witness of the intersection of ``bodies``, pulled toward its middle.

    The point is the projection onto the intersection of the average of
    its axis-direction support points, so repeated calls give a stable,
    well-centered witness that passes membership in every body.

    Raises
    ------
    EmptyBodyError, ToleranceAmbiguityError, ConvergenceError
        As the :class:`IntersectionBody` constructor's scan decides, or as
        that body's stall rule does, e.g. on the one point of tangent bodies.
    """
    bodies = list(bodies)
    if len(bodies) == 1:
        lo, hi = bodies[0].bounding_box()
        return bodies[0].project((lo + hi) / 2.0)
    inter = IntersectionBody(bodies, tol=tol)
    return inter.project(support_centroid([inter]))


def _borderline(distance, tol):
    """Whether a body-to-rest distance is not above the borderline floor."""
    return distance <= BORDERLINE_FACTOR * tol


def check_critical(bodies, tol=DEFAULT_TOL):
    """Certify that a family of n + 1 bodies is n-critical.

    Verifies that every leave-one-out intersection has a point (collecting a
    recentered witness for each) and that the full intersection is empty
    with the certificate's distance above ``10 * tol``.

    Returns
    -------
    CriticalFamily or CriticalityFailure

    Raises
    ------
    ToleranceAmbiguityError, ConvergenceError
        As :func:`recentered_witness` and :func:`intersect_witness` do, for
        a leave-one-out or the full family.
    """
    tol = check_tol(tol)
    bodies = tuple(bodies)
    if len(bodies) < 2:
        raise ValueError("a critical family needs at least two bodies")
    d = bodies[0].dim
    if any(b.dim != d for b in bodies):
        raise ValueError("bodies live in different dimensions")
    rejection = helly_guard(bodies)
    if rejection is not None:
        return rejection

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

    status, point, _, _, _ = decided_scan(bodies, tol=tol)
    if status == "witness":
        return CriticalityFailure("full-intersection-nonempty", witness=point,
                                  detail="all bodies share a point")
    # witnesses[0] lies in bodies 1..: the rest needs no second scan
    cert = _empty_certificate(bodies, tol, rest_witness=witnesses[0])
    if _borderline(cert.distance, tol):
        return CriticalityFailure(
            "borderline",
            detail=f"emptiness distance {cert.distance:.3e} not above "
                   f"{BORDERLINE_FACTOR:.0f} x tol")
    return CriticalFamily(bodies, witnesses, cert, tol=tol)


def hollow_simplex(family, starts=None):
    """Vertices of the hollow enclosed by a d-critical family.

    For each j the vertex ``p_j`` is the nearest point of the intersection
    of the other bodies to body j, found by :func:`min_distance`; the
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
    if np.any(_borderline(gaps, family.tol)):
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
    :func:`check_count`; zero restarts give zero deviations.  Where two
    boundaries of radius r nearly touch at gap g, a solved point b carries
    about ``CUT_RTOL (1 + |b|_inf) r / g`` of slack (1.4e-8 for unit disks
    at gap 1e-6), so the spread there is solver slack, below the threshold.
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


def cage_margin(family, hs, base_points=None):
    """Smallest barycentric coordinate of the hollow vertices in a cage.

    A cage is the simplex on base points ``b_j``, each in every body but
    body j (the witnesses by default).  Its facet opposite ``b_j`` lies in
    body j by convexity, so the cage holds the hollow and the margin is
    nonnegative up to rounding; it is zero when the base points are the
    hollow vertices themselves.  Raises ValueError for a wrong count or a
    base point farther than ``CAGE_TOL`` from one of its bodies, and
    :class:`DegenerateSimplexError` for affinely dependent base points.
    """
    pts = as_points(family.witnesses if base_points is None else base_points,
                    family.d)
    if pts.shape[0] != family.n + 1:
        raise ValueError(f"need {family.n + 1} base points, got {pts.shape[0]}")
    for j in range(family.n + 1):
        for i, b in enumerate(family.bodies):
            if i != j and not b.membership(pts[j], CAGE_TOL):
                raise ValueError(
                    f"base point {j} misses body {i} by more than {CAGE_TOL:.0e}")
    return float(Simplex(pts).barycentrics(hs.vertices).min())
