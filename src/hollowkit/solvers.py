"""Distance, feasibility, and separation solvers over convex-body oracles.

``min_distance`` finds a nearest pair of two bodies as a fixed point of the
composed projections, stepped by Anderson mixing.  ``intersect_witness`` runs
the cutting-plane feasibility scan over the whole family and returns either
a common point or an emptiness certificate: a hyperplane strictly
separating the first body whose later bodies share a point from their
intersection, body 0 unless bodies 1.. are themselves disjoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import (CUT_MAX_PASSES, CUT_RTOL, DEFAULT_TOL, IntersectionBody,
                     check_tol, decided_scan)
from .errors import ConvergenceError, EmptyBodyError, NotSeparableError
from .geometry import Hyperplane, as_point

# Anderson mixing combines the residuals of this many earlier iterates of
# min_distance with the current one (Walker & Ni, SIAM J. Numer. Anal. 2011).
ANDERSON_MEMORY = 3


@dataclass(frozen=True)
class DistanceResult:
    """Minimum distance between two bodies and a realizing pair.

    ``point_a`` lies in the first body, ``point_b`` in the second, and
    ``distance == |point_a - point_b|``.  ``residual`` is the fixed-point
    residual |T(b) - b| of :func:`min_distance` at the pair.
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
    the remaining bodies; ``margin`` is half the realized distance.  The
    separated body k is the first whose later bodies share a point, and
    the rest are bodies k+1, ..; for k > 0, ``subfamily`` is (k, .., n).
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

    Seeks a fixed point b of T = P_B o P_A, the nearest point of B to A,
    from b = T(start) (default start: midpoint of the centres of the
    bodies' bounding boxes).  Each step mixes the residuals T(b) - b of
    the current and the last ``ANDERSON_MEMORY`` iterates (Anderson
    mixing) and projects the result back onto B; when the residual did
    not fall it takes the plain step T(b) instead and drops the history.  It stops once
    ``|T(b) - b| <= CUT_RTOL * (1 + |b|_inf)``, the cut loops' scale, and
    returns the pair (P_A(b), T(b)) with that fixed-point residual.
    Given ``start``, A is asked only for ``dim`` and ``project``, so it
    may be any closed convex set with an exact projection, such as an
    affine flat: B compact still gives a nearest pair (Cheney &
    Goldstein, Proc. AMS 10, 1959).

    Returns
    -------
    DistanceResult

    Raises
    ------
    ConvergenceError
        If ``CUT_MAX_PASSES`` iterations run out; carries the pair of least
        residual.
    """
    if body_a.dim != body_b.dim:
        raise ValueError("bodies live in different dimensions")
    if start is None:
        (lo_a, hi_a), (lo_b, hi_b) = body_a.bounding_box(), body_b.bounding_box()
        start = 0.5 * ((lo_a + hi_a) / 2.0 + (lo_b + hi_b) / 2.0)
    b = body_b.project(body_a.project(as_point(start, body_a.dim)))
    fs, gs, last, best = [], [], math.inf, None
    for iterations in range(1, CUT_MAX_PASSES + 1):
        a = body_a.project(b)
        g = body_b.project(a)
        f, v = g - b, a - g
        res = DistanceResult(math.sqrt(v @ v), a, g, iterations, math.sqrt(f @ f))
        if res.residual <= CUT_RTOL * (1.0 + float(np.abs(b).max())):
            return res
        if res.residual >= last:
            fs, gs = [], []
        if best is None or res.residual < best.residual:
            best = res
        last = res.residual
        fs, gs = fs[-ANDERSON_MEMORY:] + [f], gs[-ANDERSON_MEMORY:] + [g]
        if len(fs) == 1:
            b = g
        else:
            gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, f, rcond=None)[0]
            b = body_b.project(g - gamma @ np.diff(gs, axis=0))
    raise ConvergenceError(
        f"composed projections did not settle after {CUT_MAX_PASSES} "
        f"iterations (residual {best.residual:.3e})",
        best=replace(best, iterations=CUT_MAX_PASSES))


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


def _empty_certificate(bodies, tol, rest_witness=None):
    """Separate body 0 from the intersection of the others.

    Called once the scan's LP bound t* exceeds ``tol``.  As t* <=
    max_i dist(x, C_i) for every x, the midpoint of a nearest pair of C_0
    and the rest, delta apart, gives delta >= 2 t* > 2 tol (> 1.8 tol if
    the rest's scan accepted it within tol / 10): ``_plane_through_gap``
    never refuses, so no other body need be tried.  The rest is scanned
    for a point unless ``rest_witness`` is one, checked by membership; an
    empty rest is certified in turn, and named as the ``subfamily``.
    """
    rest = bodies[1:]
    try:
        rest_body = rest[0] if len(rest) == 1 else IntersectionBody(
            rest, witness=rest_witness, tol=tol)
    except EmptyBodyError:
        inner = _empty_certificate(rest, tol)
        sub = tuple(i + 1 for i in (inner.subfamily or range(len(rest))))
        return replace(inner, separated_index=inner.separated_index + 1,
                       subfamily=sub)
    res = min_distance(bodies[0], rest_body)
    plane = _plane_through_gap(res, tol)
    return SeparationCertificate(plane, 0, res.distance, res.distance / 2.0)


def intersect_witness(bodies, tol=DEFAULT_TOL):
    """Decide whether a family of bodies has a common point.

    Runs :func:`~hollowkit.bodies.feasibility_scan`, Kelley's cutting
    planes from the centroid of the bodies' support points.  A witness is
    returned once the measured gap (maximum distance from the iterate to
    any body) falls below ``tol / 10``; an emptiness verdict with a
    separation certificate once the cuts' LP bound on the min-max distance
    exceeds ``tol``.  The certificate scans bodies 1.. once more and
    separates body 0 from their intersection by :func:`min_distance`.

    Raises
    ------
    ToleranceAmbiguityError
        When the min-max distance, of the family or of bodies 1.., lies
        inside ``[tol / 10, tol]``: it cannot be decided at this tolerance;
        or when the projection onto bodies 1.. stalls, under the stall rule
        of :class:`~hollowkit.bodies.IntersectionBody`.
    ConvergenceError
        When a scan's pass budget runs out undecided, or that of
        :func:`min_distance` while the certificate is built.
    """
    tol = check_tol(tol)
    bodies = list(bodies)
    if not bodies:
        raise ValueError("need at least one body")
    status, point, gap, _, rounds = decided_scan(bodies, tol=tol)
    if status == "witness":
        return FeasibilityReport("witness", witness=point, gap=gap, rounds=rounds)
    certificate = _empty_certificate(bodies, tol)
    return FeasibilityReport("empty", certificate=certificate, gap=gap, rounds=rounds)
