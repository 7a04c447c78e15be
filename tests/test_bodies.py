"""Oracle contracts shared by every body: project, support, contains."""
import sys

import numpy as np
import pytest
from scipy.optimize import linprog, nnls
from scipy.spatial import Delaunay

import hollowkit.bodies
from hollowkit import (Ball, EmptyBodyError, HPolytope, IntersectionBody,
                       PolytopeSizeError, ProjectionError, UnboundedBodyError,
                       VPolytope, dykstra, feasibility_scan, intersect_witness,
                       klee_solve)
from hollowkit.bodies import project_intersection
from conftest import side_rectangle

IDEMPOTENT_TOL = 1e-9
SUPPORT_TOL = 1e-7
# the far-point support of an intersection is dominance-accurate only up to
# diam^2 / (2 R), so it gets a looser gate
INTERSECTION_SUPPORT_TOL = 1e-3
PROJECTION_SAMPLES = 1000
SUPPORT_DIRECTIONS = 100
# KKT residuals of an H-polytope projection, relative to the coordinate
# magnitude of the query and its projection (the rounding floor).
KKT_RTOL = 1e-10
# Intersection projections stop within CUT_RTOL * (1 + |q|_inf) of every
# member, so their errors are measured on that scale: against closed forms
# (a lens corner amplifies the stop by up to about 1 / sin of its half-angle),
# member slack, and the variational inequality (relative to |q - x| diam).
LENS_RTOL = 1e-12
MEMBER_RTOL = 1e-10
VI_RTOL = 1e-9
# V-polytope projections against the test-side hull projection, relative to
# 1 + |q|_inf
HULL_RTOL = 1e-12
# H-polytope support values and bounds against scipy's LP, relative to
# 1 + |b|_inf
LP_RTOL = 1e-12


def thin_wedge(apex_angle=1e-3):
    """Wedge with its apex at the origin, opening along +x, capped by x <= 1."""
    h = 0.5 * apex_angle
    return HPolytope([[-np.sin(h), np.cos(h)], [-np.sin(h), -np.cos(h)], [1.0, 0.0]],
                     [0.0, 0.0, 1.0])


def off_line_generators(offset=1e-8):
    """Points along the line through (0, 0) and (3, 1.5), moved alternately
    ``offset`` to either side: a hull that thin has acute vertices at both
    ends, where its facet rows are nearly parallel."""
    t = np.linspace(0.0, 1.0, 5)
    normal = np.array([-1.5, 3.0]) / np.hypot(1.5, 3.0)
    side = offset * np.array([0.0, 1.0, -1.0, 1.0, 0.0])
    return np.outer(t, [3.0, 1.5]) + side[:, None] * normal


def sample_bodies():
    box_a = HPolytope.box([0.0, 0.0], [2.0, 1.0])
    box_b = HPolytope.box([1.0, 0.0], [3.0, 2.0])
    triangle = [[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]
    return [
        ("box", box_a),
        ("rotated-rect", side_rectangle([0.0, 0.0], [2.0, 1.5], 0.3)),
        ("triangle-hull", VPolytope(triangle)),
        ("segment-hull", VPolytope([[0.0, 0.0], [2.0, 1.0]])),
        ("ball", Ball([0.5, 0.5], 0.75)),
        ("box-intersection", IntersectionBody([box_a, box_b])),
        ("box-ball", IntersectionBody([box_a, Ball([1.0, 0.5], 0.8)])),
        ("thin-wedge", thin_wedge()),
        # degenerate generator sets; the V-polytopes' projections are also
        # checked against hull_projection below
        ("point-hull", VPolytope([[0.3, -0.7]])),
        ("duplicate-hull", VPolytope(triangle + triangle + [triangle[1]])),
        ("interior-hull", VPolytope(triangle + [[0.8, 0.5], [1.0, 0.1],
                                                [0.6, 1.2]])),
        ("collinear-hull-2d", VPolytope([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0],
                                         [-1.0, -0.5]])),
        ("collinear-hull-3d", VPolytope([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0],
                                         [0.5, 1.0, -0.5], [-1.0, -2.0, 1.0]])),
        ("coplanar-hull-3d", VPolytope([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0],
                                        [0.0, 1.0, 0.0], [1.0, 1.0, 1.0],
                                        [0.5, 0.2, 1.3]])),
        ("interval-1d", VPolytope([[0.5], [2.0], [-1.0], [0.0]])),
        ("off-line-hull", VPolytope(off_line_generators())),
    ]


def hull_projection(V, q):
    """Nearest point of conv(V) to q, by one NNLS over simplex weights.

    With W = (V - q)^T, min |W u|^2 + (sum u - 1)^2 over u >= 0 is attained
    at u = w / (1 + m), where w are the optimal simplex weights and m the
    squared distance; so the nearest point is q + W u / sum u.
    """
    W = (np.asarray(V, dtype=float) - q).T
    u, _ = nnls(np.vstack([W, np.ones(W.shape[1])]), np.eye(W.shape[0] + 1)[-1])
    return q + W @ u / u.sum()


@pytest.mark.parametrize("name,body", sample_bodies())
def test_projection_is_idempotent_and_member(name, body):
    rng = np.random.default_rng(101)
    lo, hi = body.bounding_box()
    span = float((hi - lo).max()) + 1.0
    for _ in range(PROJECTION_SAMPLES):
        p = rng.uniform(lo - span, hi + span)
        q = body.project(p)
        q2 = body.project(q)
        assert np.linalg.norm(q2 - q) <= IDEMPOTENT_TOL, name
        assert body.membership(q, 1e-7), name
        if isinstance(body, VPolytope):
            err = float(np.abs(q - hull_projection(body.vertices, p)).max())
            assert err <= HULL_RTOL * (1.0 + np.abs(p).max()), (name, p, err)


@pytest.mark.parametrize("name,body", sample_bodies())
def test_projection_no_closer_member_on_segment(name, body):
    """Walking from the projection toward random members never gets closer."""
    rng = np.random.default_rng(77)
    lo, hi = body.bounding_box()
    span = float((hi - lo).max()) + 1.0
    for _ in range(100):
        p = rng.uniform(lo - span, hi + span)
        q = body.project(p)
        other = body.project(rng.uniform(lo, hi))
        base = np.linalg.norm(p - q)
        for t in (0.25, 0.5, 1.0):
            cand = q + t * (other - q)
            assert np.linalg.norm(p - cand) >= base - 1e-7, name


@pytest.mark.parametrize("name,body", sample_bodies())
def test_support_dominates_members(name, body):
    rng = np.random.default_rng(33)
    tol = INTERSECTION_SUPPORT_TOL if name.startswith("box-") else SUPPORT_TOL
    lo, hi = body.bounding_box()
    members = [body.project(rng.uniform(lo, hi)) for _ in range(50)]
    for _ in range(SUPPORT_DIRECTIONS):
        u = rng.normal(size=body.dim)
        u /= np.linalg.norm(u)
        s = body.support(u)
        assert body.membership(s, 1e-6), name
        best = max(float(u @ m) for m in members)
        assert float(u @ s) >= best - tol, name


@pytest.mark.parametrize("name,body", sample_bodies())
def test_membership_convex_along_chords(name, body):
    rng = np.random.default_rng(55)
    lo, hi = body.bounding_box()
    for _ in range(200):
        a = body.project(rng.uniform(lo, hi))
        b = body.project(rng.uniform(lo, hi))
        t = rng.uniform()
        assert body.membership(t * a + (1 - t) * b, 1e-6), name


def boundary_band(body, tol, rng, directions=64):
    """Points ``support(u) + (tol + k spacing) u`` for k in -3..3, along
    random unit directions u: a few ulp either side of the tol band."""
    U = rng.normal(size=(directions, body.dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    pts = []
    for u in U:
        x = body.support(u)
        spacing = np.spacing(float(np.abs(x).max()) + tol)
        pts.extend(x + (tol + k * spacing) * u for k in range(-3, 4))
    return np.array(pts)


@pytest.mark.parametrize("name,body", sample_bodies())
def test_contains_batch_matches_membership(name, body):
    rng = np.random.default_rng(21)
    lo, hi = body.bounding_box()
    span = float((hi - lo).max())
    pts = np.vstack([
        rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(300, body.dim)),
        boundary_band(body, 1e-7, rng)])
    batch = body.contains_batch(pts, tol=1e-7)
    for p, flag in zip(pts, batch):
        assert flag == body.membership(p, 1e-7), name


def test_box_support_and_project_closed_form():
    box = HPolytope.box([0.0, 0.0], [2.0, 1.0])
    assert np.allclose(box.support([1.0, 1.0]), [2.0, 1.0])
    assert np.allclose(box.project([3.0, 2.0]), [2.0, 1.0], atol=1e-10)
    assert np.allclose(box.project([-1.0, 0.5]), [0.0, 0.5], atol=1e-10)
    assert box.distance([3.0, 1.0]) == pytest.approx(1.0, abs=1e-10)


def random_hpolytope(rng, shift, scale):
    """Bounded polytope from random rows around the origin, then scaled and
    moved: x is a member iff (x - shift) / scale is a member of the original."""
    d = int(rng.integers(1, 4))
    while True:
        m = int(rng.integers(d + 1, 10))
        A = rng.normal(size=(m, d))
        b = rng.uniform(0.1, 1.0, size=m)
        try:
            return HPolytope(A, scale * b + A @ (shift * rng.normal(size=d)))
        except UnboundedBodyError:
            continue


def test_hpolytope_projection_satisfies_kkt():
    """x = project(p) is feasible and p - x is a nonnegative combination of
    the rows active at x, far from the origin and at every scale."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        shift = 10.0 ** rng.uniform(0.0, 6.0)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        poly = random_hpolytope(rng, shift, scale)
        center = poly.anchor
        for _ in range(5):
            p = center + 3.0 * scale * rng.normal(size=poly.dim)
            x = poly.project(p)
            ref = float(np.abs(p).max() + np.abs(x).max())
            slacks = poly.A @ x - poly.b
            assert slacks.max() <= KKT_RTOL * ref
            if np.array_equal(x, p):
                continue
            active = slacks >= -KKT_RTOL * ref
            assert active.any()
            _, residual = nnls(poly.A[active].T, p - x)
            assert residual <= KKT_RTOL * ref
            checked += 1
    assert checked >= 500


def lp_max(poly, u):
    """max u . x over the polytope's rows, by scipy's LP."""
    lp = linprog(-u, A_ub=poly.A, b_ub=poly.b, bounds=(None, None), method="highs")
    assert lp.status == 0
    return -lp.fun


def test_hpolytope_support_and_bounds_match_lp():
    """support(u) . u and the bounding box are the LP optima, in every
    dimension, at every scale and far from the origin."""
    rng = np.random.default_rng(606)
    for _ in range(100):
        poly = random_hpolytope(rng, 10.0 ** rng.uniform(0.0, 6.0),
                                10.0 ** rng.uniform(-3.0, 3.0))
        d = poly.dim
        ref = LP_RTOL * (1.0 + np.abs(poly.b).max())
        lo, hi = poly.bounding_box()
        for i, e in enumerate(np.eye(d)):
            assert abs(hi[i] - lp_max(poly, e)) <= ref
            assert abs(lo[i] + lp_max(poly, -e)) <= ref
        for u in np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(4, d))]):
            s = poly.support(u)
            assert abs(s @ u - lp_max(poly, u)) <= ref
            assert (poly.A @ s - poly.b).max() <= ref


def test_box_support_breaks_ties_by_the_least_vertex():
    """Along +e_i the maximizers of a box form a face; the answer is its
    lexicographically least vertex, lo everywhere but hi_i."""
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        lo = rng.uniform(-5.0, 5.0, size=d)
        hi = lo + rng.uniform(0.5, 3.0, size=d)
        box = HPolytope.box(lo, hi)
        for i in range(d):
            expect = lo.copy()
            expect[i] = hi[i]
            assert np.array_equal(box.support(np.eye(d)[i]), expect)
            assert np.array_equal(box.support(-np.eye(d)[i]), lo)
        # each coordinate of the 2d supports is hi once, lo otherwise
        assert np.allclose(box.anchor, lo + (hi - lo) / (2 * d), rtol=1e-15, atol=0.0)
        assert all(np.array_equal(x, y) for x, y in zip(box.bounding_box(), (lo, hi)))


def test_supports_and_anchor_ignore_row_and_generator_order():
    """Integer data, so that exact ties are common: permuting the rows of an
    H-polytope or the generators of a V-polytope changes no support and no
    anchor, to the last bit."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        while True:
            A = rng.integers(-2, 3, size=(int(rng.integers(2 * d, 9)), d))
            b = rng.integers(1, 4, size=A.shape[0])
            try:
                poly = HPolytope(A, b)
                break
            except (EmptyBodyError, UnboundedBodyError):
                continue
        V = rng.integers(-3, 4, size=(int(rng.integers(d + 1, 9)), d)).astype(float)
        order = rng.permutation(A.shape[0])
        shuffled = [(poly, HPolytope(A[order], b[order])),
                    (VPolytope(V), VPolytope(V[rng.permutation(V.shape[0])]))]
        dirs = np.vstack([np.eye(d), -np.eye(d),
                          rng.integers(-2, 3, size=(6, d))])
        for one, other in shuffled:
            assert np.array_equal(one.anchor, other.anchor)
            for u in dirs[np.abs(dirs).sum(axis=1) > 0]:
                assert np.array_equal(one.support(u), other.support(u))


def test_hpolytope_oracles_run_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(hollowkit.bodies, "linprog", refuse)
    rng = np.random.default_rng(12)
    for poly in (HPolytope.box([0.0, 1.0, -2.0], [1.0, 3.0, 0.5]),
                 random_hpolytope(rng, 10.0, 1.0)):
        lo, hi = poly.bounding_box()
        assert poly.membership(poly.anchor)
        assert poly.membership(poly.support(np.ones(poly.dim)))
        far = hi + (hi - lo)
        x = poly.project(far)
        assert poly.membership(x) and not poly.membership(far)
        assert poly.contains_batch(np.vstack([x, far])).tolist() == [True, False]


def test_vertex_budget_is_refused_before_any_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("vertex candidates solved")

    monkeypatch.setattr(hollowkit.bodies, "MAX_VERTEX_CANDIDATES", 14)
    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    with pytest.raises(PolytopeSizeError) as info:
        HPolytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(6))
    assert str(info.value) == ("6 rows in dimension 2 give 15 vertex candidates, "
                               "over the budget of 14")


def test_vpolytope_interior_points_are_exact_members():
    """Hull points come back unchanged, so membership holds at tol = 0."""
    rng = np.random.default_rng(23)
    for d in (2, 3):
        for _ in range(10):
            V = rng.normal(size=(d + 3, d))
            poly = VPolytope(V)
            k = V.shape[0]
            # every generator carries weight >= 0.05: interior points
            w = 0.05 + (1.0 - 0.05 * k) * rng.dirichlet(np.ones(k), size=50)
            P = w @ V
            for p in P:
                assert np.array_equal(poly.project(p), p)
                assert poly.membership(p, tol=0.0)
            assert poly.contains_batch(P, tol=0.0).all()


def test_ball_closed_forms():
    ball = Ball([1.0, 1.0], 2.0)
    assert ball.distance([4.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ball.project([4.0, 1.0]), [3.0, 1.0], atol=1e-12)
    assert np.allclose(ball.support([0.0, 1.0]), [1.0, 3.0], atol=1e-12)
    lo, hi = ball.bounding_box()
    assert np.allclose(lo, [-1.0, -1.0]) and np.allclose(hi, [3.0, 3.0])


def test_intersection_of_boxes_projects_to_shared_corner():
    inter = IntersectionBody([HPolytope.box([0, 0], [2, 2]),
                              HPolytope.box([1, 1], [3, 3])])
    assert np.allclose(inter.project([0.0, 1.0]), [1.0, 1.0], atol=1e-8)
    assert inter.distance([0.0, 1.0]) == pytest.approx(1.0, abs=1e-8)


def test_intersection_vs_closed_form_box_overlap():
    rng = np.random.default_rng(8)
    for _ in range(25):
        lo1 = rng.uniform(-1, 0, size=2)
        hi1 = lo1 + rng.uniform(1, 2, size=2)
        lo2 = lo1 + rng.uniform(0.2, 0.8, size=2)
        hi2 = lo2 + rng.uniform(1, 2, size=2)
        inter = IntersectionBody([HPolytope.box(lo1, hi1),
                                  HPolytope.box(lo2, hi2)])
        exact = HPolytope.box(np.maximum(lo1, lo2), np.minimum(hi1, hi2))
        for _ in range(20):
            p = rng.uniform(lo1 - 1, hi2 + 1)
            assert abs(inter.distance(p) - exact.distance(p)) <= 1e-7


def test_intersection_with_containing_ball_is_the_box():
    box = HPolytope.box([0.0, 0.0], [1.0, 1.0])
    big = Ball([0.5, 0.5], 10.0)
    inter = IntersectionBody([box, big])
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = rng.uniform(-2, 3, size=2)
        assert abs(inter.distance(p) - box.distance(p)) <= 1e-8


def test_hpolytope_rejects_bad_descriptions():
    with pytest.raises(EmptyBodyError):
        HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    with pytest.raises(UnboundedBodyError):
        HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    # rows of rank 1 in the plane: empty is judged before unbounded
    with pytest.raises(EmptyBodyError):
        HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    with pytest.raises(UnboundedBodyError):
        HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
    # rank 2 with a recession ray along -y
    with pytest.raises(UnboundedBodyError):
        HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                  np.array([1.0, 0.0, 1.0]))
    with pytest.raises(EmptyBodyError):
        HPolytope.box([1.0], [0.0])
    # one offset per row: a column of offsets is refused, not solved with
    with pytest.raises(ValueError, match="inconsistent halfspace data"):
        HPolytope([[1.0], [-1.0]], [[1.0], [0.0]])


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -1.0)


def test_dykstra_projects_onto_box_intersection():
    a = HPolytope.box([-5, -5], [5, 1])
    b = HPolytope.box([-5, 0], [5, 5])
    res = dykstra(np.array([3.0, -4.0]), [a.project, b.project])
    assert res.converged
    assert a.membership(res.point, 1e-8) and b.membership(res.point, 1e-8)
    # Dykstra converges to the projection onto the intersection, not just
    # any feasible point: here that is (3, 0).
    assert np.allclose(res.point, [3.0, 0.0], atol=1e-6)


def test_feasibility_scan_reports_witness_and_empty():
    a = HPolytope.box([0.0], [1.0])
    b = HPolytope.box([0.5], [2.0])
    status, x, gap, dists, rounds = feasibility_scan([a, b], tol=1e-7)
    assert status == "witness"
    assert gap <= 1e-8
    assert a.membership(x, 1e-7) and b.membership(x, 1e-7)
    c = HPolytope.box([3.0], [4.0])
    status, x, gap, dists, rounds = feasibility_scan([a, c], tol=1e-7)
    assert status == "empty"
    assert gap >= 0.9


SCAN_TOL = 1e-7
# min-max distance of a family over tol, and the scan's verdict on it
SCAN_CASES = [(-1e3, "witness"), (0.02, "witness"), (0.4, "ambiguous"),
              (4.0, "empty"), (1e3, "empty")]


@pytest.mark.parametrize("ratio,verdict", SCAN_CASES)
@pytest.mark.parametrize("kind", ["intervals", "disks"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_feasibility_scan_verdicts_match_closed_forms(ratio, verdict, kind,
                                                      scale, shift):
    """Families whose min-max distance g = min_x max_i dist(x, C_i) is
    known: [0, 1] and [1 + 2g, 2], and unit disks on a triangle of side
    s, with g = s / sqrt(3) - 1.  The scene is moved by ``shift`` and then
    scaled with ``tol``; a negative g means the bodies overlap."""
    g = ratio * SCAN_TOL
    if kind == "intervals":
        bodies = [HPolytope.box([scale * (lo + shift)], [scale * (hi + shift)])
                  for lo, hi in ((0.0, 1.0), (1.0 + 2.0 * g, 2.0))]
    else:
        side = np.sqrt(3.0) * (1.0 + g)
        centers = np.array([[0.0, 0.0], [side, 0.0],
                            [side / 2.0, side * np.sqrt(3.0) / 2.0]])
        bodies = [Ball(scale * (c + shift), scale) for c in centers]
    status, _, gap, _, _ = feasibility_scan(bodies, tol=SCAN_TOL * scale)
    assert status == verdict
    if verdict == "witness":
        assert gap < SCAN_TOL * scale / 10.0


def test_support_between_two_interval_bodies(two_intervals):
    a, b = two_intervals
    assert np.allclose(a.support([1.0]), [1.0])
    assert np.allclose(b.support([-1.0]), [2.0])


LENS_PLACEMENTS = [(1.0, 0.0), (1.0, 1e4), (1e-3, 0.0), (1e3, 0.0)]


def lens_cases(D, scale, shift):
    """Two disks of radius ``scale`` whose centers lie D * scale apart, and
    queries with known nearest points on either arc or at either corner.

    A query is its nearest point x plus a step along a normal of the lens
    at x: the outer normal on the inner part of an arc, a positive mix of
    both disks' normals at a corner.
    """
    a = np.array([shift, shift])
    b = a + np.array([D * scale, 0.0])
    alpha = np.arccos(D / 2.0)
    cases = []
    for center, sign in ((a, 1.0), (b, -1.0)):
        for theta in np.linspace(-0.8 * alpha, 0.8 * alpha, 5):
            n = np.array([sign * np.cos(theta), np.sin(theta)])
            x = center + scale * n
            cases += [(x + t * scale * n, x) for t in (0.01, 0.1, 1.0, 10.0)]
    for up in (1.0, -1.0):
        corner = a + scale * np.array([D / 2.0, up * np.sqrt(1.0 - D * D / 4.0)])
        na, nb = (corner - a) / scale, (corner - b) / scale
        for w in (0.05, 0.5, 0.95):
            cases += [(corner + t * scale * (w * na + (1.0 - w) * nb), corner)
                      for t in (0.01, 0.1, 1.0, 10.0)]
    return a, b, cases


@pytest.mark.parametrize("D", [1.2, 1.865, 1.93])
@pytest.mark.parametrize("scale,shift", LENS_PLACEMENTS)
def test_lens_projection_and_support_match_closed_form(D, scale, shift):
    a, b, cases = lens_cases(D, scale, shift)
    half_height = scale * np.sqrt(1.0 - D * D / 4.0)
    # a witness off the line of centers, so that the far points of the
    # support along +-x project to where their distance R decides
    lens = IntersectionBody([Ball(a, scale), Ball(b, scale)],
                            witness=0.5 * (a + b) + [0.0, 0.5 * half_height])
    for q, x in cases:
        err = float(np.abs(lens.project(q) - x).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(q).max()), (q, err)
    # support(u) is the projection of the far point witness + R u / |u|:
    # along +-x it is the far point's projection onto the disk whose arc
    # faces it, along +-y the corner on that side
    radius = IntersectionBody._SUPPORT_RADIUS * (1.0 + lens.diameter())
    for u in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
        u = np.array(u)
        far = lens.anchor + radius * u
        if u[0] != 0.0:
            center = a if u[0] > 0 else b
            expect = center + scale * (far - center) / np.linalg.norm(far - center)
        else:
            expect = 0.5 * (a + b) + np.array([0.0, u[1] * half_height])
        err = float(np.abs(lens.support(u) - expect).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(far).max()), (u, err)


def random_part(rng, kind, center, scale):
    """A seeded body of the given kind that holds ``center`` in its interior."""
    d = center.size
    if kind == "ball":
        offset = 0.5 * scale * rng.normal(size=d)
        return Ball(center + offset,
                    float(np.linalg.norm(offset)) + scale * rng.uniform(0.3, 1.0))
    if kind == "box":
        return HPolytope.box(center - scale * rng.uniform(0.2, 1.0, size=d),
                             center + scale * rng.uniform(0.2, 1.0, size=d))
    if kind == "hpoly":
        while True:
            A = rng.normal(size=(int(rng.integers(d + 2, 9)), d))
            A /= np.linalg.norm(A, axis=1)[:, None]
            b = A @ center + scale * rng.uniform(0.3, 1.0, size=A.shape[0])
            try:
                return HPolytope(A, b)
            except UnboundedBodyError:
                continue
    # a rotated cross-polytope around the center plus a few random generators
    rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cross = 0.4 * np.vstack([rot, -rot])
    extra = rng.normal(size=(3, d))
    return VPolytope(center + scale * np.vstack([cross, extra]))


@pytest.mark.parametrize("d", [2, 3])
def test_intersection_projection_is_the_nearest_member(d):
    """Seeded intersections of balls, boxes, rotated H-polytopes and
    V-polytopes: the projection lies in every part and satisfies the
    variational inequality (q - x).(y - x) <= 0 against member points y."""
    rng = np.random.default_rng(400 + d)
    kinds = ("ball", "box", "hpoly", "vpoly")
    for trial in range(12):
        scale = 10.0 ** rng.choice([-3.0, 0.0, 3.0])
        center = scale * rng.uniform(-10.0, 10.0, size=d)
        parts = [random_part(rng, kinds[(trial + i) % 4], center, scale)
                 for i in range(2 + trial % 3)]
        inter = IntersectionBody(parts, witness=center)
        lo, hi = inter.bounding_box()
        diam = inter.diameter()

        def members(cloud):
            for part in parts:
                if isinstance(part, VPolytope):
                    inside = Delaunay(part.vertices).find_simplex(cloud) >= 0
                else:
                    inside = part.contains_batch(cloud, tol=0.0)
                cloud = cloud[inside]
            return cloud

        spread = np.vstack([members(rng.uniform(lo, hi, size=(1000, d))), center])
        for _ in range(5):
            q = center + 3.0 * scale * rng.normal(size=d)
            x = inter.project(q)
            ref = 1.0 + float(np.abs(q).max())
            for part in parts:
                assert part.distance(x) <= MEMBER_RTOL * ref
            # members ever closer to x expose a point moved along the boundary
            ys = np.vstack([spread] + [
                members(x + radius * diam * rng.uniform(-1.0, 1.0, size=(100, d)))
                for radius in (1e-2, 1e-5, 1e-8)])
            gap = float(np.linalg.norm(q - x))
            assert ((ys - x) @ (q - x)).max() <= VI_RTOL * gap * diam


def test_projection_onto_an_empty_intersection_is_a_projection_error():
    with pytest.raises(ProjectionError):
        project_intersection([Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)],
                             [1.5, 0.3])


def test_intersection_oracles_run_no_dykstra(monkeypatch, squares_union):
    """Projections, supports, scans and the Klee polish all run on cuts."""
    def refuse(*args, **kwargs):
        raise AssertionError("Dykstra called")

    # at every binding, so that a module importing it is caught too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hollowkit" and hasattr(module, "dykstra"):
            monkeypatch.setattr(module, "dykstra", refuse)
    lens = IntersectionBody([Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0)],
                            witness=[0.75, 0.0])
    assert lens.membership(lens.project([0.75, 3.0]), 1e-12)
    assert lens.membership(lens.support([1.0, 1.0]), 1e-8)
    scanned = IntersectionBody([Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0)])
    assert lens.membership(scanned.anchor, 1e-7)
    assert intersect_witness(squares_union).feasible
    x = klee_solve(squares_union, [[1.5, 2.5], [0.5, 1.5], [2.5, 0.5]])
    assert all(b.membership(x, 1e-6) for b in squares_union)
