"""Distance, feasibility, and separation solvers over convex-body oracles.

``min_distance`` alternates nearest-point projections between two bodies and
polishes the pair with midpoint re-projections.  ``intersect_witness`` runs
the cutting-plane feasibility scan over the whole family and returns either
a common point or an emptiness certificate: a hyperplane strictly
separating one body from the intersection of the others.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bodies import DEFAULT_TOL, IntersectionBody, decided_scan
from .errors import (ConvergenceError, EmptyBodyError, NotSeparableError,
                     ToleranceAmbiguityError)
from .geometry import Hyperplane, as_point

logger = logging.getLogger(__name__)

# Alternating projections stop once the distance estimate changes by less
# than this between consecutive iterations, or than 8 ulps of the pair's
# largest coordinate, below which the change is rounding.  Between smooth
# bodies of radius r a gap g apart, each iteration shrinks the change only
# by a factor of about 1/(1 + g/r): a unit disk 1e-3 from a segment takes
# some 7000 iterations, so this budget is not the cut loops' CUT_MAX_PASSES.
DISTANCE_STOP = 1e-12
DISTANCE_MAX_ITER = 100000
POLISH_STEPS = 5


@dataclass(frozen=True)
class DistanceResult:
    """Minimum distance between two bodies and a realizing pair.

    ``point_a`` lies in the first body, ``point_b`` in the second, and
    ``distance == |point_a - point_b|``.
    """

    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class SeparationCertificate:
    """Hyperplane separating body ``separated_index`` from the rest.

    The hyperplane passes through the midpoint of the realizing pair with
    the normal pointing from the separated body toward the intersection of
    the remaining bodies; ``margin`` is half the realized distance.
    ``subfamily`` lists the body indices involved when the certificate had
    to fall back to a proper subfamily.
    """

    hyperplane: Hyperplane
    separated_index: int
    distance: float
    margin: float
    subfamily: tuple = None


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of an intersection feasibility scan.

    ``status`` is ``"witness"`` (with ``witness`` a common point) or
    ``"empty"`` (with ``certificate`` set).  ``gap`` is the maximum distance
    from the scan's last iterate to the bodies, ``rounds`` its passes.
    """

    status: str
    witness: np.ndarray = None
    certificate: SeparationCertificate = None
    gap: float = 0.0
    rounds: int = 0

    @property
    def feasible(self):
        return self.status == "witness"


def min_distance(body_a, body_b, start=None):
    """Minimum Euclidean distance between two compact convex bodies.

    Alternating nearest-point projections from ``start`` (default: midpoint
    of the bodies' anchor points) until the distance estimate changes by
    less than ``max(DISTANCE_STOP, 8 eps max(|a|_inf, |b|_inf))``, then
    ``POLISH_STEPS`` rounds of midpoint re-projection.

    Returns
    -------
    DistanceResult

    Raises
    ------
    ConvergenceError
        If ``DISTANCE_MAX_ITER`` iterations run out; carries the best pair.
    """
    if body_a.dim != body_b.dim:
        raise ValueError("bodies live in different dimensions")
    if start is None:
        start = 0.5 * (body_a.anchor + body_b.anchor)
    x = as_point(start, body_a.dim)
    a = body_a.project(x)
    b = body_b.project(a)
    m_prev = float(np.linalg.norm(a - b))
    converged = False
    for iterations in range(2, DISTANCE_MAX_ITER + 1):
        a = body_a.project(b)
        b = body_b.project(a)
        m = float(np.linalg.norm(a - b))
        residual = abs(m - m_prev)
        m_prev = m
        floor = 8.0 * np.finfo(float).eps * max(np.abs(a).max(), np.abs(b).max())
        if residual < max(DISTANCE_STOP, floor):
            converged = True
            break
    for _ in range(POLISH_STEPS):
        mid = 0.5 * (a + b)
        a = body_a.project(mid)
        b = body_b.project(mid)
    result = DistanceResult(float(np.linalg.norm(a - b)), a, b, iterations, residual)
    if not converged:
        raise ConvergenceError(
            f"alternating projections did not settle after {DISTANCE_MAX_ITER} "
            f"iterations (last change {residual:.3e})", best=result)
    return result


def separating_hyperplane(body_a, body_b, tol=DEFAULT_TOL):
    """Hyperplane strictly separating two disjoint bodies.

    The normal points from ``body_a`` toward ``body_b`` and the plane passes
    through the midpoint of the closest pair, so members of ``body_a`` have
    negative signed distance and members of ``body_b`` positive, each with
    margin about half the gap.

    Raises
    ------
    NotSeparableError
        If the measured gap is at most ``tol``.
    """
    return _plane_through_gap(min_distance(body_a, body_b), tol)


def _plane_through_gap(res, tol):
    """Bisecting hyperplane of a realizing pair, oriented from a to b."""
    if res.distance <= tol:
        raise NotSeparableError(
            f"bodies are within tolerance of touching (gap {res.distance:.3e})")
    normal = (res.point_b - res.point_a) / res.distance
    midpoint = 0.5 * (res.point_a + res.point_b)
    return Hyperplane(normal, float(normal @ midpoint))


def _empty_certificate(bodies, tol):
    """Build a separation certificate for a family with empty intersection.

    Tries, in index order, to separate one body from the intersection of
    the others; falls back to a proper subfamily when a leave-one-out
    intersection is itself empty or the gap is below ``tol``.
    """
    for j in range(len(bodies)):
        rest = [bodies[i] for i in range(len(bodies)) if i != j]
        try:
            rest_body = rest[0] if len(rest) == 1 else IntersectionBody(rest, tol=tol)
            res = min_distance(bodies[j], rest_body)
            plane = _plane_through_gap(res, tol)
        except (EmptyBodyError, ToleranceAmbiguityError, NotSeparableError,
                ConvergenceError):
            continue
        return SeparationCertificate(plane, j, res.distance, res.distance / 2.0)
    # Leave-one-out intersections are empty or the gaps are too thin: find a
    # proper subfamily that is still empty and certify that one instead.
    for j in range(len(bodies)):
        sub_idx = tuple(i for i in range(len(bodies)) if i != j)
        sub = [bodies[i] for i in sub_idx]
        if len(sub) < 2:
            continue
        report = intersect_witness(sub, tol=tol)
        if report.status == "empty":
            inner = report.certificate
            mapped = tuple(sub_idx[i] for i in (inner.subfamily or range(len(sub))))
            return SeparationCertificate(
                inner.hyperplane, sub_idx[inner.separated_index],
                inner.distance, inner.margin, subfamily=mapped)
    raise ToleranceAmbiguityError(
        "intersection is empty but no separation exceeds the tolerance",
        tol=tol)


def intersect_witness(bodies, tol=DEFAULT_TOL):
    """Decide whether a family of bodies has a common point.

    Runs :func:`~hollowkit.bodies.feasibility_scan`, Kelley's cutting
    planes from the centroid of the bodies' support points.  A witness is
    returned once the measured gap (maximum distance from the iterate to
    any body) falls below ``tol / 10``; an emptiness verdict with a
    separation certificate once the cuts' LP bound on the min-max distance
    exceeds ``tol``.

    Raises
    ------
    ToleranceAmbiguityError
        When the min-max distance lies inside ``[tol / 10, tol]``: the scene
        cannot be decided at this tolerance.
    ConvergenceError
        When the scan's pass budget runs out undecided.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("need at least one body")
    status, point, gap, _, rounds = decided_scan(bodies, tol=tol)
    if status == "witness":
        return FeasibilityReport("witness", witness=point, gap=gap, rounds=rounds)
    certificate = _empty_certificate(bodies, tol)
    return FeasibilityReport("empty", certificate=certificate, gap=gap, rounds=rounds)
