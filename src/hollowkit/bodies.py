"""Compact convex bodies behind a three-call oracle: contains, support, project.

Concrete types: :class:`HPolytope` (bounded intersection of halfspaces),
:class:`VPolytope` (convex hull of finitely many points), :class:`Ball`, and
:class:`IntersectionBody` (lazy intersection of other bodies).  Each
polytope kind builds its other description once, at construction: an
H-polytope lists its vertices by solving every nonsingular d-row subset
(C(m, d) solves for m rows, refused above ``MAX_VERTEX_CANDIDATES``), a
V-polytope gets the facet rows of its hull from Quickhull (Barber, Dobkin
& Huhdanpaa, ACM TOMS 1996).  So both kinds answer containment from the
same row slacks, and support, bounds and projection from the same point
list, exact ties going to the lexicographically least point; no LP runs.
Each body kind has one contains rule, its ``contains_batch``; the scalar
``membership`` is that rule on one point, so the two cannot disagree at
the boundary (the weak-membership oracle of Grötschel, Lovász & Schrijver,
*Geometric Algorithms and Combinatorial Optimization*, 1988).
A polytope projects by one rule, however it was written down: a point
that violates no row is its own projection, and any other goes to the
face that the least-distance dual over the point list picks (Lawson &
Hanson, *Solving Least Squares Problems*, 1974, ch. 23), exact at acute
vertices and on thin hulls, and a member at any finite distance.  Least
distance is solved by :class:`_LeastDistance`, Goldfarb & Idnani's dual
active-set method (Math. Programming 27, 1983) with the active rows kept
orthogonally factored; rows that share no point are decided by a
contradicting combination of them, not by a residual's sign.  The solver
is numpy and Python alone: scipy is imported only where Quickhull builds
a V-polytope's facets.
Families run on one cutting-plane engine (Kelley, J. SIAM 1960): the
members' projections supply cuts.  :func:`project_intersection` projects
onto the cuts by the same least-distance solver, resumed pass after pass
as cuts join, until the iterate lies in every member;
:func:`feasibility_scan` decides emptiness by an LP lower bound over the
cuts, solved by a dense-tableau primal simplex under Bland's rule
(Math. Oper. Res. 1977).  Every cut holds its body, so a cut stays valid
for any later query: an :class:`IntersectionBody` starts each projection
from the cuts tight at its last, so nearby queries, as in alternating
projections, mostly end in two passes instead of four to six.  It keeps
the ``tol`` it was certified at, and under its one stall rule cuts that
share no point, or passes spent within ``tol`` of every member, end in
:class:`ToleranceAmbiguityError`.  Nothing in the package runs
:func:`dykstra`.
"""
from __future__ import annotations

import abc
import itertools
import logging
import math
from dataclasses import dataclass
from operator import mul, sub

import numpy as np

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

# Least distance over unit rows: a solve ends when no row is violated by
# more than _LDP_RTOL * (1 + |x|_inf), a few rounding units of a slack at
# x; a violated row whose part off the active rows' span has norm at most
# _SPAN_RTOL counts as in that span, about a hundred times the
# Gram-Schmidt rounding floor.
_LDP_RTOL = 4e-15
_SPAN_RTOL = 1e-13

# A finite point whose offset from a body has squares that overflow is
# infinitely far from it: a Ball projects it along the offset, and the
# projection onto any other kind raises ProjectionError with this message.
_FAR = "point infinitely far: the squares of its offset overflow"

# The cut LP's simplex treats tableau entries up to this as zero when it
# picks the entering column and the rows of the ratio test; its rows are
# unit and its right-hand side is scaled by the gap, so entries are O(1).
_PIVOT_TOL = 1e-12

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
    unit vector from its projection P(x) to x: it holds the whole body.
    A distance whose square overflows raises :class:`ProjectionError`:
    ``x`` is infinitely far."""
    dists = np.empty(len(bodies))
    for i, body in enumerate(bodies):
        y = body.project(x)
        v = x - y
        dists[i] = _norm(v)
        if dists[i] == math.inf:
            raise ProjectionError(_FAR, last_iterate=x)
        if dists[i] >= stop:
            n = v / dists[i]
            normals.append(n)
            offsets.append(float(n @ y))
    return dists


# A pool of no cuts: rows of A and entries of h in {y : A y <= h}.
_NO_CUTS = ((), ())


def _pooled_projection(bodies, p, pool):
    """Nearest point to ``p`` of the nonempty intersection of ``bodies``,
    starting from the cuts ``pool``; returns it with the pool's cuts and
    this call's that are tight there, as a pair (A, h) of arrays.

    Each pass cuts at the members the iterate x misses, and the next x is
    the nearest point to p of all cuts kept so far, one least-distance
    solve.  The first pass is taken at p itself, whatever the pool holds:
    the pool's nearest point to p lies within stop of every member, but on
    a smooth arc that bounds its distance from the answer only by about
    sqrt(2 stop dist(p)), while the fresh cut at P_i(p) makes the answer
    exact.  The solves of one call share a :class:`_LeastDistance`, each
    resuming from the last.  A cut is tight when its slack at the answer is
    at most stop.  Raises :class:`ProjectionError`, carrying the last
    iterate and its residual, when ``CUT_MAX_PASSES`` passes run out, or,
    from the solver's error, when the cuts share no point (a stall).  A
    stall carries the smallest residual of its passes instead: the solve
    of nearly parallel contradicting cuts can throw the last iterate far
    from every member.
    """
    p = as_point(p, bodies[0].dim)
    if _norm(p) == math.inf:
        # the solver's own check would come after the first pass, as a stall
        raise ProjectionError(_FAR, last_iterate=p)
    stop = CUT_RTOL * (1.0 + float(np.abs(p).max()))
    normals, offsets = list(pool[0]), list(pool[1])
    solver = _LeastDistance(p)
    x = p
    best = math.inf
    for _ in range(CUT_MAX_PASSES):
        residual = float(_cut_pass(bodies, x, stop, normals, offsets).max())
        if residual <= stop:
            A = np.array(normals).reshape(-1, p.shape[0])
            h = np.array(offsets)
            tight = h - A @ x <= stop
            return x.copy(), (A[tight], h[tight])
        best = min(best, residual)
        try:
            x = solver.solve(np.array(normals), np.array(offsets))
        except ProjectionError as exc:
            # a stall, raised from the solver's error (see IntersectionBody)
            raise ProjectionError(
                f"intersection projection stalled: {exc} (residual "
                f"{best:.3e})", last_iterate=x, residual=best) from exc
    raise ProjectionError(
        f"intersection projection undecided after {CUT_MAX_PASSES} "
        f"passes (residual {residual:.3e})",
        last_iterate=x, residual=residual)


def project_intersection(bodies, p):
    """Nearest point to ``p`` of the nonempty intersection of ``bodies``:
    :func:`_pooled_projection` from no cuts, so it depends on them alone."""
    return _pooled_projection(bodies, p, _NO_CUTS)[0]


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
    minimizer.  The LP has d + 1 variables and one row per cut, so it is
    solved by :func:`_cut_lp`, a dense-tableau simplex under Bland's rule,
    in y = x + gap z, t = gap tau, so that its pivot tolerance is relative
    to the gap.  At DEBUG level the scan logs its pass count and the rule
    that decided it, and each LP its pivot count.
    """
    tol = check_tol(tol)
    if len(bodies) == 0:
        raise ValueError("need at least one body")
    p = support_centroid(bodies)
    # <= tol / 10, so an undecided pass (gap >= tol / 10) cuts its farthest body
    stop = min(CUT_RTOL * (1.0 + float(np.abs(p).max())), tol / 10.0)
    normals, offsets = [], []
    solver = _LeastDistance(p)
    x = p
    for passes in range(1, CUT_MAX_PASSES + 1):
        dists = _cut_pass(bodies, x, stop, normals, offsets)
        gap = float(dists.max())
        if gap < tol / 10.0:
            logger.debug("scan witness at pass %d: gap %.3e < tol/10, tol %.1e",
                         passes, gap, tol)
            return "witness", x, gap, dists, passes
        A, h = np.array(normals), np.array(offsets)
        try:
            y = solver.solve(A, h)
        except ProjectionError:
            y = x  # the cuts share no point; x misses its own by the gap
        if (A @ y - h).max() < tol / 10.0:
            x = y
            continue
        z, t, _ = _cut_lp(A, (h - A @ x) / gap)
        bound = gap * t
        if bound > tol:
            logger.debug("scan empty at pass %d: LP bound %.3e > tol %.1e",
                         passes, bound, tol)
            return "empty", x, gap, dists, passes
        if bound >= tol / 10.0 and gap <= tol:
            logger.debug("scan ambiguous at pass %d: LP bound %.3e and gap "
                         "%.3e in [tol/10, tol], tol %.1e", passes, bound, gap, tol)
            return "ambiguous", x, gap, dists, passes
        x = x + gap * z
    logger.debug("scan undecided after %d passes (gap %.3e)", passes, gap)
    return "noconv", x, gap, None, passes


def _cut_lp(A, b):
    """Solve min t s.t. A z - t <= b, t >= 0, z free; return (z, t*, lam).

    A dense-tableau primal simplex over [z+, z-, t, s], z = z+ - z- and s
    the row slacks.  Pivoting t into the row of the least b makes the first
    tableau feasible; then Bland's rule (Math. Oper. Res. 1977) picks the
    least improving column and, among rows tied in the ratio test, the one
    whose basic column is least, so no basis repeats.  While t is basic the
    reduced costs are minus its row, so the duals are lam_k = -T[t, s_k]:
    lam >= 0, A^T lam = 0, sum lam = 1 and -b . lam = t*.  Once t leaves
    the basis, t* = 0 and lam = 0.  Raises :class:`ProjectionError` if the
    pivot budget, the tableau's entry count, runs out.
    """
    m, d = A.shape
    lam = np.zeros(m)
    if b.min() >= 0.0:
        return np.zeros(d), 0.0, lam
    T = np.zeros((m, 2 * d + 2 + m))
    T[:, :d], T[:, d:2 * d], T[:, 2 * d] = A, -A, -1.0
    T[:, 2 * d + 1:-1] = np.eye(m)
    T[:, -1] = b
    basis = np.arange(2 * d + 1, 2 * d + 1 + m)
    # t stays in row tr until a pivot on that row takes it out
    tr = r = int(np.argmin(b))
    c = 2 * d
    for pivots in range(1, T.size + 1):
        T[r] /= T[r, c]
        col = T[:, c].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        basis[r] = c
        if basis[tr] != 2 * d:
            break  # t left at 0: the cuts share a point
        t_row = T[tr, :-1]
        entering = np.flatnonzero(t_row > _PIVOT_TOL)
        entering = entering[entering != 2 * d]
        if entering.size == 0:
            lam = np.maximum(-t_row[2 * d + 1:], 0.0)
            break
        c = int(entering[0])
        eligible = np.flatnonzero(T[:, c] > _PIVOT_TOL)
        ratios = T[eligible, -1] / T[eligible, c]
        ties = eligible[ratios == ratios.min()]
        r = int(ties[np.argmin(basis[ties])])
    else:
        raise ProjectionError(f"cut LP undecided after its pivot budget of {T.size}")
    logger.debug("cut LP: %d rows, %d pivots", m, pivots)
    x = np.zeros(2 * d + 1)
    held = basis < 2 * d + 1
    x[basis[held]] = T[held, -1]
    return x[:d] - x[d:2 * d], float(x[2 * d]), lam


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


class _LeastDistance:
    """Nearest points to one point p of a system of unit rows
    {x : A x <= b} that grows between solves: Goldfarb & Idnani's dual
    active-set method (Math. Programming 27, 1983) for min |x - p|^2 / 2.

    From x = p, a violated row is added to the active set: x moves along
    z, the part of its normal a off the active rows' span, while the
    active multipliers u move along -r, the coefficients of a over the
    active rows.  The step ends where the row is met, and it joins the
    set, or where a multiplier reaches 0, and that row leaves first.  So
    every iterate is the nearest point to p of the rows active at it, with
    u >= 0, and a solve ends when no row is violated by more than
    ``_LDP_RTOL * (1 + |x|_inf)``.  The active normals are kept as Q^T R,
    Q's rows orthonormal and R triangular: a row joins by Gram-Schmidt,
    with a second pass when the first leaves less than half of |a|^2
    (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976), and leaves by
    Givens rotations, so no k x k normal equations square the conditioning.

    A violated row with |z| at most ``_SPAN_RTOL`` (z is 0 once d rows
    are active) and r <= 0 is, to that relative precision, a nonpositive
    combination of active rows that it contradicts: a Farkas certificate
    that the rows share no point, if it is violated by more than the
    rounding of the active slacks that the combination adds up, the stop
    tolerance times 1 + sum |r|.  Within that margin the row holds, to
    rounding, wherever the active rows do (more than d rows through one
    vertex), and the solve sets it aside.  A certificate raises
    :class:`ProjectionError`, carrying p, and so do a NaN or infinity in
    p, in a row or among the slacks at p, a p whose squares overflow
    (infinitely far, ``_FAR``), and a spent budget of 10 (m + d) steps for
    m rows in R^d.  A solver that raised stays spent.

    Rows only ever join: each solve passes the rows of the last one first,
    unchanged.  The last answer is still optimal for them, so the next
    solve starts there and checks only the new rows; a cut loop, whose p
    stays fixed while cuts are appended, resumes each pass from the last.
    """

    __slots__ = ("_p", "_x", "_rows", "_active", "_u", "_Q", "_R", "_spent")

    def __init__(self, p):
        self._p = p
        self._x = p.tolist()
        self._rows = 0
        self._active = []   # row indices, in the order of Q's rows
        self._u = []        # their multipliers
        self._Q = []        # orthonormal rows spanning the active normals
        self._R = []        # upper triangular rows: normals = Q^T R
        self._spent = None

    @property
    def face(self):
        """Ascending indices of the active rows with positive multipliers."""
        return sorted(k for k, uk in zip(self._active, self._u) if uk > 0.0)

    def _fail(self, message):
        self._spent = message
        raise ProjectionError(message, last_iterate=self._p)

    def solve(self, A, b):
        """Nearest point to p of {x : A x <= b}; the first rows must be
        those of the last solve."""
        if self._spent is not None:
            raise ProjectionError(self._spent, last_iterate=self._p)
        m, d = A.shape
        first, self._rows = self._rows, m
        xl = self._x
        if first:
            # the last answer meets the old rows: check the new ones there
            rows = range(first, m)
        else:
            # every row at p, once; a resumed solve checks each new row as
            # it reads it
            if not math.isfinite(sum(map(mul, xl, xl))):
                self._fail(_FAR if all(map(math.isfinite, xl)) else
                           "least-distance rows or point not finite")
            slack = A.dot(self._p)
            slack -= b
            if not math.isfinite(slack.sum()):
                self._fail("least-distance rows or point not finite")
            k = int(slack.argmax())
            if slack.item(k) <= 0.0:
                return self._p.copy()
            rows = (k,)
        active, u, Q, R = self._active, self._u, self._Q, self._R
        aside = []  # rows set aside: the active ones hold them, to rounding
        steps = 10 * (m + d)
        # after every move, the most violated row of all
        while True:
            tol = _LDP_RTOL * (1.0 + max(map(abs, xl)))
            moved = False
            for k in rows:
                a = A[k].tolist()
                viol = sum(map(mul, a, xl)) - b.item(k)
                if not math.isfinite(viol):
                    self._fail("least-distance rows or point not finite")
                if viol <= tol or k in active or k in aside:
                    continue
                uk = 0.0
                c = [sum(map(mul, row, a)) for row in Q]
                if len(Q) == d:
                    z, zz = None, 0.0
                else:
                    z = a
                    for ci, row in zip(c, Q):
                        z = [zj - ci * qj for zj, qj in zip(z, row)]
                    zz = sum(map(mul, z, z))
                    if Q and zz < 0.5:
                        for i, row in enumerate(Q):
                            ci = sum(map(mul, row, z))
                            c[i] += ci
                            z = [zj - ci * qj for zj, qj in zip(z, row)]
                        zz = sum(map(mul, z, z))
                while True:
                    steps -= 1
                    if steps < 0:
                        self._fail(f"least-distance solve undecided after "
                                   f"{10 * (m + d)} steps")
                    # r = R^-1 c; the step that zeroes the first multiplier
                    q = len(c)
                    r = c[:]
                    t, leave = math.inf, -1
                    for i in range(q - 1, -1, -1):
                        Ri = R[i]
                        s = r[i]
                        for j in range(i + 1, q):
                            s -= Ri[j] * r[j]
                        ri = r[i] = s / Ri[i]
                        if ri > 0.0 and u[i] < t * ri:
                            t, leave = u[i] / ri, i
                    if zz <= _SPAN_RTOL * _SPAN_RTOL:
                        if leave < 0:
                            # a Farkas certificate, unless a met the active
                            # rows' combination within its rounding
                            if uk or viol > tol * (1.0 + sum(map(abs, r))):
                                self._fail("the rows share no point")
                            aside.append(k)
                            break
                        joins = False
                    else:
                        joins = viol <= t * zz
                        if joins:
                            t = viol / zz
                        xl = [xj - t * zj for xj, zj in zip(xl, z)]
                        viol -= t * zz
                    for i, ri in enumerate(r):
                        u[i] -= t * ri
                    uk += t
                    moved = True
                    if joins:
                        nz = math.sqrt(zz)
                        for Ri, ci in zip(R, c):
                            Ri.append(ci)
                        R.append([0.0] * q + [nz])
                        Q.append([zj / nz for zj in z])
                        active.append(k)
                        u.append(uk)
                        break
                    # the row leaves: rotate R back to triangular, with the
                    # same rotations on Q and c; Q's last row then leaves
                    # the span, and a's part along it joins z
                    del active[leave], u[leave]
                    for row in R:
                        del row[leave]
                    for i in range(leave, q - 1):
                        Ri, Rn = R[i], R[i + 1]
                        h = math.hypot(Ri[i], Rn[i])
                        cs, sn = Ri[i] / h, Rn[i] / h
                        for j in range(i, q - 1):
                            Ri[j], Rn[j] = cs * Ri[j] + sn * Rn[j], cs * Rn[j] - sn * Ri[j]
                        Qi, Qn = Q[i], Q[i + 1]
                        Q[i] = [cs * qa + sn * qb for qa, qb in zip(Qi, Qn)]
                        Q[i + 1] = [cs * qb - sn * qa for qa, qb in zip(Qi, Qn)]
                        c[i], c[i + 1] = cs * c[i] + sn * c[i + 1], cs * c[i + 1] - sn * c[i]
                    del R[-1]
                    cl, ql = c.pop(), Q.pop()
                    z = [cl * qj for qj in ql] if z is None else [
                        zj + cl * qj for zj, qj in zip(z, ql)]
                    zz += cl * cl
            if not moved:
                break
            slack = A.dot(xl)
            slack -= b
            k = int(slack.argmax())
            if k in active or k in aside:
                # they hold with equality, up to rounding
                slack[active + aside] = 0.0
                k = int(slack.argmax())
            if slack.item(k) <= tol:
                break
            rows = (k,)
        self._x = xl
        return np.array(xl)


class ConvexBody(abc.ABC):
    """Oracle interface for a compact convex set in R^d.  Each kind states
    its projection, support, bounding box and one contains rule
    (``contains_batch``); the rest derive from them."""

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
        return _norm(p - self.project(p))

    def membership(self, p, tol=DEFAULT_TOL):
        """True when ``p`` lies within ``tol`` of the body: the body's one
        contains rule, :meth:`contains_batch`, on a single point."""
        return bool(self.contains_batch(as_point(p, self.dim)[None], tol)[0])

    @abc.abstractmethod
    def contains_batch(self, points, tol=DEFAULT_TOL):
        """Which rows of an (N, d) array lie within ``tol`` of the body: the
        body's one contains rule, stated by each kind."""

    def _cover(self, columns):
        """``contains_batch(., tol=0)`` at the N points whose coordinates
        along axis i are ``columns[i]``, d 1-D arrays of length N.  This
        default stacks them into the (N, d) point list."""
        return self.contains_batch(np.stack(columns, axis=1), tol=0.0)


class _FacetPolytope(ConvexBody):
    """Polytope held twice: as unit rows {x : A x <= b} and as a point list
    ``_V`` whose hull it is.  Subclasses set ``_A``, ``_b``, ``_V`` and
    ``_dim``, and no oracle differs between them.  Containment reads the
    rows: only points within ``tol`` of them need a projection, since the
    worst slack bounds the distance.  Support, the bounding box and the
    projection read the points."""

    @property
    def dim(self):
        return self._dim

    @property
    def vertices(self):
        return self._V

    def bounding_box(self):
        return self._V.min(axis=0), self._V.max(axis=0)

    def project(self, p):
        """Nearest point: ``p`` itself if it violates no row, else
        :func:`_hull_projection` on the point list."""
        p = as_point(p, self._dim)
        if (self._A @ p - self._b).max() <= 0.0:
            return p.copy()
        return _hull_projection(self._V, p)

    def support(self, direction):
        """The lexicographically least of the points maximizing ``u . x``."""
        return _least_maximizer(self._V, _direction(direction, self._dim)[0])

    def contains_batch(self, points, tol=DEFAULT_TOL):
        pts = as_points(points, self._dim)
        worst = (pts @ self._A.T - self._b).max(axis=1)
        out = worst <= 0.0
        # past tol a point is out: its distance dominates its worst slack
        for idx in np.flatnonzero(~out & (worst <= tol)):
            out[idx] = self.distance(pts[idx]) <= tol
        return out


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
    ray of {A y <= 0} mean :class:`UnboundedBodyError`.  ``support``,
    ``bounding_box`` and ``project`` read the vertex list, as those of the
    :class:`VPolytope` of the vertices do: exact ties go to the
    lexicographically least vertex, and a point outside goes to its
    nearest point on the face that :func:`_hull_projection` picks.

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


class VPolytope(_FacetPolytope):
    """Convex hull of a finite generator set, screened through its facets.

    The facet rows are built once, in the frame of the generators'
    :func:`~hollowkit.geometry.affine_hull`: Quickhull
    (``scipy.spatial.ConvexHull``) when the hull has dimension 2 or more,
    the two end rows of a segment, none for a point, plus both signs of
    the flat's orthonormal complement.  So ``contains_batch`` is the
    H-polytope slack screen in every dimension, and ``support``,
    ``bounding_box`` and ``project`` read the generators, which are its
    ``vertices``; a hull of its generators is nonempty and bounded, so
    nothing is screened.  A hull thinner than the rank cutoff
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
            # scipy.spatial costs more than the rest of the package import,
            # and only hulls need it
            from scipy.spatial import ConvexHull

            facets = ConvexHull(coords).equations
        elif flat.dim == 1:
            facets = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
        else:
            facets = np.zeros((0, 1))
        complement = flat.complement
        self._A = np.vstack([facets[:, :-1] @ flat.basis, complement, -complement])
        self._b = self._A @ flat.base - np.append(facets[:, -1],
                                                  np.zeros(2 * len(complement)))


def _hull_projection(V, p):
    """Nearest point to ``p`` of the convex hull of the rows of ``V``: the
    projection of every polytope, from its point list.

    One least-distance solve picks the face: min |y| s.t. (v_i - p) . y >= 1
    over the generators v_i, its rows scaled to unit norm, is the
    least-distance dual of the projection (Lawson & Hanson, ch. 23).  y
    points from p to the nearest point, and the generators whose rows end
    active with positive multipliers lie on the supporting hyperplane
    there.  The answer is p projected onto their affine hull, solved on
    edge vectors (in closed form for a vertex or an edge): exact at acute
    vertices of thin hulls, where rows lose about eps / angle, and with an
    error that does not grow with the distance of p.  The right-hand sides
    are scaled by the nearest generator's distance, so the largest is 1 at
    any distance of p: unscaled, they fall below the solver's stop
    tolerance once p is about 1e15 away, and no row would join the face.
    Rows that share no point mean that no hyperplane separates p from the
    hull: p lies in it up to rounding and comes back as a copy, as it does
    when it is a generator.
    """
    W = p - V
    if np.vdot(W, W) == math.inf and any(np.vdot(w, w) == math.inf for w in W):
        raise ProjectionError(_FAR, last_iterate=p)
    norms = np.sqrt((W * W).sum(axis=1))
    nearest = norms.min()
    if nearest == 0.0:
        return p.copy()
    solver = _LeastDistance(np.zeros(p.size))
    try:
        solver.solve(W / norms[:, None], -nearest / norms)
    except ProjectionError:
        return p.copy()
    face = V[solver.face]
    if face.shape[0] == 1:
        return face[0] + 0.0  # + 0.0, as the sums below, leaves no -0.0
    edges = face[1:] - face[0]
    if edges.shape[0] == 1:
        e = edges[0]
        return face[0] + ((p - face[0]) @ e / (e @ e)) * e
    t = np.linalg.lstsq(edges.T, p - face[0], rcond=None)[0]
    return face[0] + t @ edges


def _norm(v):
    """``math.sqrt(v @ v)``, bit for bit, from ``np.vdot``, which, unlike
    ``@``, warns of no overflow: a finite ``v`` whose squares overflow gets
    norm inf."""
    return math.sqrt(np.vdot(v, v))


def _offset(p, c):
    """``p - c``, bit for bit, subtracted in Python floats, which overflow
    to inf with no warning."""
    return np.array(list(map(sub, p.tolist(), c.tolist())))


def _shrunk(v):
    """``v`` over its largest |coordinate|, and its norm: the direction of
    a vector whose squares overflow."""
    v = v / np.abs(v).max()
    return v, _norm(v)


def _direction(direction, dim):
    """A support ``direction`` and its norm, :class:`ValueError` if zero:
    shrunk if its squares overflow, else kept to the bit."""
    u = as_point(direction, dim)
    norm = _norm(u)
    if norm == 0:
        raise ValueError("support direction must be nonzero")
    if norm == math.inf:
        u, norm = _shrunk(u)
    return u, norm


class Ball(ConvexBody):
    """Closed Euclidean ball with positive radius.

    A point whose offset from the center, or its squares, overflows is
    infinitely far: outside the ball, and projected along its offset."""

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

    def bounding_box(self):
        return self._c - self._r, self._c + self._r

    def support(self, direction):
        u, norm = _direction(direction, self.dim)
        return self._c + self._r * u / norm

    def project(self, p):
        p = as_point(p, self.dim)
        v = _offset(p, self._c)
        norm = _norm(v)
        if norm <= self._r:
            return p.copy()
        if norm == math.inf:
            # half the offset has its direction and does not overflow
            v, norm = _shrunk(0.5 * p - 0.5 * self._c)
        return self._c + v * (self._r / norm)

    def distance(self, p):
        return max(0.0, _norm(_offset(as_point(p, self.dim), self._c)) - self._r)

    def _within(self, coords, tol):
        """The contains rule on per-axis coordinate arrays: the squared
        offsets summed left to right, so that a point list and its columns
        give the same bits."""
        with np.errstate(over="ignore"):
            squares = [(x - c) * (x - c) for x, c in zip(coords, self._c)]
            # sum(rest, first) adds ((first + s1) + s2) + ...
            return np.sqrt(sum(squares[1:], squares[0])) <= self._r + tol

    def contains_batch(self, points, tol=DEFAULT_TOL):
        return self._within(as_points(points, self.dim).T, tol)

    def _cover(self, columns):
        """:meth:`_within` on the columns: the same sums as on the point
        list, without building it."""
        return self._within(columns, 0.0)


class IntersectionBody(ConvexBody):
    """Intersection of member bodies, kept as oracles.

    Nonemptiness is certified at construction, at ``tol``, which the body
    keeps: either a member point is supplied by the caller or a
    feasibility scan finds one, and the body keeps it as its ``witness``.
    An empty intersection raises :class:`EmptyBodyError`, and a scan that
    decides nothing raises as :func:`decided_scan` does.  ``project`` is
    an outer approximation by cuts from the members' projections, and
    ``support`` projects a far point in the requested direction, both by
    :meth:`_projection`.

    Stall rule: cuts hold their members, so cuts that share no point mean
    members that meet in a single point or miss by less than ``tol``, and
    raise :class:`ToleranceAmbiguityError`, as does a pass budget spent
    within ``tol`` of every member; one spent farther out raises
    :class:`ProjectionError`.  ``distance``, ``membership`` and every
    solver built on them pass these on.

    ``project`` starts from the body's pool of cuts (see
    :func:`_pooled_projection`); on success it leaves there only the cuts
    tight at its answer, and a call that raises leaves the pool as it was.
    The answer moves with the pool, within the cut stop, so ``support``
    starts from no cuts and depends on the direction alone, as does each
    restart of :func:`~hollowkit.critical.uniqueness_probe`, which builds
    its own leave-one-out bodies.
    """

    # Far-point multiplier of ``support``: R = _SUPPORT_RADIUS (1 + diam),
    # with diam the diagonal of the bounding box.
    _SUPPORT_RADIUS = 1e4

    def __init__(self, bodies, witness=None, tol=DEFAULT_TOL):
        tol = check_tol(tol)
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
        self._tol = tol
        self._cuts = _NO_CUTS
        self._radius = None   # support's far-point distance, set on first use

    @property
    def dim(self):
        return self._dim

    @property
    def bodies(self):
        return self._bodies

    @property
    def witness(self):
        """The member point certified at construction."""
        return self._witness.copy()

    def bounding_box(self):
        los, his = zip(*(b.bounding_box() for b in self._bodies))
        lo = np.max(los, axis=0)
        hi = np.min(his, axis=0)
        return lo, np.maximum(hi, lo)

    def _projection(self, p, pool):
        """:func:`_pooled_projection` under the stall rule.  A stall has a
        cause, the solver's error; a member's error has no residual, and a
        cut that overflowed an infinite one: those propagate."""
        try:
            return _pooled_projection(self._bodies, p, pool)
        except ProjectionError as exc:
            r, tol = exc.residual, self._tol
            if r is None or (r > tol and (exc.__cause__ is None or r == math.inf)):
                raise
            raise ToleranceAmbiguityError(
                f"projection onto the intersection stalled {r:.3e} from its "
                f"members at tol {tol:.1e}: the intersection may be a single "
                "point; adjust the tolerance", gap=r, tol=tol) from exc

    def project(self, p):
        """Nearest point of the intersection, from the body's pool of cuts."""
        x, self._cuts = self._projection(p, self._cuts)
        return x

    def support(self, direction):
        """Projection of a far point ``witness + R u / |u|``, from no cuts.

        With R = ``_SUPPORT_RADIUS * (1 + diam)`` the returned member's inner
        product with u falls short of the support value by at most
        diam^2 / (2 R).  R is worked out at the first call and kept, since
        the members do not change.  Fresh cuts leave the pool free of cuts
        from R away.
        """
        u, norm = _direction(direction, self._dim)
        if self._radius is None:
            lo, hi = self.bounding_box()
            diam = float(np.linalg.norm(hi - lo))
            self._radius = self._SUPPORT_RADIUS * (1.0 + diam)
        return self._projection(self._witness + (self._radius / norm) * u,
                                _NO_CUTS)[0]

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

    def _cover(self, columns):
        """The AND of the members' covers: at tol = 0 the band of
        :meth:`contains_batch` is empty, so this is that rule exactly."""
        cover = self._bodies[0]._cover(columns)
        for b in self._bodies[1:]:
            cover &= b._cover(columns)
        return cover
