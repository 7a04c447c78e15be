"""Oracle contracts shared by every body: project, support, contains."""
import logging
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, Delaunay

import hollowkit.bodies
from hollowkit import (AffineSubspace, Ball, EmptyBodyError, HPolytope,
                       IntersectionBody, KkmInstance, PolytopeSizeError,
                       ProjectionError, StabbingPair, ToleranceAmbiguityError,
                       UnboundedBodyError, VPolytope, check_critical, dykstra,
                       feasibility_scan, intersect_witness, kkm_verify,
                       klee_solve, min_distance, verify_stabbing)
from hollowkit.bodies import (ConvexBody, _cut_lp, _offset, project_intersection,
                             support_centroid)
from hollowkit.geometry import affine_hull, as_point
from conftest import disk_centers, side_rectangle
from helpers import grid_points

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


class UserBox(ConvexBody):
    """An axis-aligned box written against the oracle interface alone, as a
    user would: it keeps the base class's cover."""

    def __init__(self, lo, hi):
        self.lo, self.hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    dim = property(lambda self: self.lo.size)

    def project(self, p):
        return np.clip(p, self.lo, self.hi)

    def support(self, direction):
        return np.where(np.asarray(direction) >= 0.0, self.hi, self.lo)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def contains_batch(self, points, tol=1e-7):
        pts = np.asarray(points, dtype=float)
        return ((pts >= self.lo - tol) & (pts <= self.hi + tol)).all(axis=1)


def moved(body, scale, shift):
    """The image of ``body`` under x -> scale x + shift."""
    if isinstance(body, Ball):
        return Ball(scale * body.center + shift, scale * body.radius)
    if isinstance(body, HPolytope):
        return HPolytope(body.A, scale * body.b + body.A @ shift)
    if isinstance(body, VPolytope):
        return VPolytope(scale * body.vertices + shift)
    if isinstance(body, UserBox):
        return UserBox(scale * body.lo + shift, scale * body.hi + shift)
    return IntersectionBody([moved(b, scale, shift) for b in body.bodies],
                            witness=scale * body.witness + shift, tol=1e-6 * scale)


def grid_cover_bodies():
    ball3 = Ball([0.2, -0.1, 0.3], 0.9)
    return sample_bodies() + [
        ("ball-3d", ball3),
        ("ball-box-3d", IntersectionBody(
            [ball3, HPolytope.box([-0.5, -1.0, 0.0], [1.0, 0.4, 1.5])])),
        ("user-box", UserBox([-0.3, 0.2], [0.9, 0.7])),
        ("ball-user-box", IntersectionBody(
            [Ball([0.5, 0.5], 0.75), UserBox([-0.3, 0.2], [0.9, 0.7])]))]


@pytest.mark.parametrize("name,body", grid_cover_bodies())
def test_grid_cover_is_contains_batch_on_the_grid(name, body):
    """A body's cover of coordinate columns, as certification asks it,
    equals ``contains_batch`` at tol 0 on the same points, with no
    tolerance, at every scale and far from the origin.  The points are a
    grid whose axes also hold the body's bounds and box centre and their
    neighbouring floats, so that some lie on the boundary."""
    rng = np.random.default_rng(31)
    for scale in (1e-3, 0.37, 1.0, 1e3):
        for shift in (0.0, 1e3, 1e6):
            image = moved(body, scale, rng.uniform(-shift, shift, size=body.dim))
            lo, hi = image.bounding_box()
            span = float((hi - lo).max())
            marks = np.concatenate([lo, hi, 0.5 * (lo + hi)])
            marks = np.concatenate([np.nextafter(marks, -np.inf), marks,
                                    np.nextafter(marks, np.inf)]).reshape(3, 3, -1)
            points = grid_points([np.unique(np.concatenate([
                a - 0.2 * span + (np.arange(int(rng.integers(20, 30))) + 0.5)
                * (1.4 * span / 24), marks[..., i].ravel()]))
                for i, a in enumerate(lo)])
            cover = image._cover([points[:, i].copy() for i in range(body.dim)])
            lifted = image.contains_batch(points, tol=0.0)
            assert np.array_equal(cover, lifted), (name, scale, shift)


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
        center = poly.vertices.mean(axis=0)
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
        assert np.allclose(support_centroid([box]), lo + (hi - lo) / (2 * d),
                           rtol=1e-15, atol=0.0)
        assert all(np.array_equal(x, y) for x, y in zip(box.bounding_box(), (lo, hi)))


def test_building_an_h_polytope_asks_no_support(monkeypatch):
    """Construction lists the vertices from the rows alone: no support is
    asked for."""
    calls = []
    support = HPolytope.support
    monkeypatch.setattr(HPolytope, "support",
                        lambda self, u: calls.append(u) or support(self, u))
    poly = HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [1.0, 1.0],
                      [-1.0, 0.5]], [1.0, 1.0, 0.5, 1.5, 1.0])
    assert calls == []


def test_supports_ignore_row_and_generator_order():
    """Integer data, so that exact ties are common: permuting the rows of an
    H-polytope or the generators of a V-polytope changes no support, to the
    last bit."""
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
            for u in dirs[np.abs(dirs).sum(axis=1) > 0]:
                assert np.array_equal(one.support(u), other.support(u))


def test_hpolytope_oracles_run_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cut LP solved")

    monkeypatch.setattr(hollowkit.bodies, "_cut_lp", refuse)
    rng = np.random.default_rng(12)
    for poly in (HPolytope.box([0.0, 1.0, -2.0], [1.0, 3.0, 0.5]),
                 random_hpolytope(rng, 10.0, 1.0)):
        lo, hi = poly.bounding_box()
        assert poly.membership(poly.vertices.mean(axis=0))
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


def quickhull_rows(V):
    """``[A, b]`` of {x : A x <= b} for the hull of ``V``, as the
    V-polytope's constructor built it from ``ConvexHull.equations`` in the
    frame of the generators' affine hull: facet rows, then both signs of
    the frame's complement."""
    flat = affine_hull(V)
    eq = ConvexHull((V - flat.base) @ flat.basis.T).equations
    comp = flat.complement
    A = np.vstack([eq[:, :-1] @ flat.basis, comp, -comp])
    return np.column_stack([A, A @ flat.base - np.append(eq[:, -1],
                                                          np.zeros(2 * len(comp)))])


@pytest.mark.parametrize("seed", range(3))
def test_a_planar_v_polytope_has_quickhulls_halfspaces(seed):
    """A V-polytope whose hull is 2-D builds its rows from the edges of
    the planar hull, with Quickhull's halfspaces: every row lies within
    1e-12 of one of ``ConvexHull``'s and back, so only duplicates differ.
    A lattice rotated into the frame can keep a point on an edge within
    rounding, which gives such a duplicate.  The cases are the planar
    sample bodies (the coplanar hull in R^3 among them), random float
    sets, and small lattices in the plane and on a plane in R^3."""
    rng = np.random.default_rng(seed)
    sets = [body.vertices for _, body in sample_bodies()
            if isinstance(body, VPolytope)
            and affine_hull(body.vertices).dim == 2]
    for trial in range(60):
        k = int(rng.integers(3, 20))
        pts = (rng.normal(size=(k, 2)) if trial % 3 == 0
               else rng.integers(0, 2 + trial % 4, (k, 2)).astype(float))
        if trial % 3 == 2:
            frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:2]
            pts = pts @ frame + rng.normal(size=3)
        if affine_hull(pts).dim == 2:
            sets.append(pts)
    assert len(sets) > 40
    for V in sets:
        poly = VPolytope(V)
        ours = np.column_stack([poly._A, poly._b])
        ref = quickhull_rows(V)
        for R, S in ((ours, ref), (ref, ours)):
            gaps = np.abs(R[:, None, :] - S[None, :, :]).max(axis=2)
            assert gaps.min(axis=1).max() <= 1e-12


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


# The scan's cut LP, min t s.t. A z - t <= b, t >= 0, on unit rows: its
# optimum, feasibility and duals against scipy's HiGHS, absolutely.
CUT_LP_CASES = 600
CUT_LP_TOL = 1e-9


def random_cut_lp(rng, case):
    """A cut LP in R^1..R^4 with d + 1 to 60 unit rows: generic for case 0
    mod 3, half its rows through one point for 1 mod 3 (shifted off it on
    every other such case), half its rows repeated for 2 mod 3."""
    d = int(rng.integers(1, 5))
    m = int(rng.integers(d + 1, 61))
    A = rng.normal(size=(m, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = rng.normal(size=m)
    if case % 3 == 1:
        q = rng.normal(size=d)
        b = A @ q - rng.random() * (case % 2)
        b[:m // 2] = A[:m // 2] @ q
    elif case % 3 == 2:
        k = m // 2
        A[m - k:], b[m - k:] = A[:k], b[:k]
    return A, b


def test_cut_lp_matches_highs():
    rng = np.random.default_rng(31)
    decided = 0
    for case in range(CUT_LP_CASES):
        A, b = random_cut_lp(rng, case)
        m, d = A.shape
        ref = linprog(np.eye(d + 1)[-1], A_ub=np.hstack([A, -np.ones((m, 1))]),
                      b_ub=b, bounds=[(None, None)] * d + [(0.0, None)],
                      method="highs")
        assert ref.status == 0
        z, t, lam = _cut_lp(A, b)
        assert abs(t - ref.fun) <= CUT_LP_TOL
        assert t >= 0.0 and (A @ z - t - b).max() <= CUT_LP_TOL
        # the dual max -b.lam s.t. A^T lam = 0, sum lam <= 1, lam >= 0
        assert lam.min() >= 0.0 and np.abs(A.T @ lam).max() <= CUT_LP_TOL
        if t > 0.0:
            decided += 1
            assert abs(lam.sum() - 1.0) <= CUT_LP_TOL
            assert abs(-b @ lam - t) <= CUT_LP_TOL
    # both optimum kinds are drawn: rows with and without a common point
    assert 0 < decided < CUT_LP_CASES


def test_cut_lp_at_a_feasible_origin_pivots_nowhere():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    z, t, lam = _cut_lp(A, np.array([1.0, 0.0, 2.0]))
    assert z.tolist() == [0.0, 0.0] and t == 0.0 and lam.tolist() == [0.0] * 3


def test_feasibility_scan_explains_itself_at_debug_only(caplog):
    """At DEBUG the scan names its passes, its deciding rule and each LP's
    pivots; at the default level it is silent."""
    bodies = [HPolytope.box([0.0], [1.0]), HPolytope.box([3.0], [4.0])]
    feasibility_scan(bodies, tol=1e-7)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="hollowkit.bodies"):
        feasibility_scan(bodies, tol=1e-7)
    assert [r.getMessage() for r in caplog.records] == [
        "cut LP: 2 rows, 2 pivots",
        "scan empty at pass 1: LP bound 1.000e+00 > tol 1.0e-07"]


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


def lens_body(D, scale, shift):
    """The lens of :func:`lens_cases`, with a witness off the line of
    centers, so that the far points of the support along +-x project to
    where their distance R decides."""
    a, b, _ = lens_cases(D, scale, shift)
    half_height = scale * np.sqrt(1.0 - D * D / 4.0)
    return IntersectionBody([Ball(a, scale), Ball(b, scale)],
                            witness=0.5 * (a + b) + [0.0, 0.5 * half_height])


LENS_DISTANCES = [1.2, 1.865, 1.93]


@pytest.mark.parametrize("D", LENS_DISTANCES)
@pytest.mark.parametrize("scale,shift", LENS_PLACEMENTS)
def test_lens_projection_and_support_match_closed_form(D, scale, shift):
    a, b, cases = lens_cases(D, scale, shift)
    half_height = scale * np.sqrt(1.0 - D * D / 4.0)
    lens = lens_body(D, scale, shift)
    for q, x in cases:
        err = float(np.abs(lens.project(q) - x).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(q).max()), (q, err)
    # support(u) is the projection of the far point witness + R u / |u|:
    # along +-x it is the far point's projection onto the disk whose arc
    # faces it, along +-y the corner on that side
    lo, hi = lens.bounding_box()
    radius = IntersectionBody._SUPPORT_RADIUS * (1.0 + float(np.linalg.norm(hi - lo)))
    for u in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
        u = np.array(u)
        far = lens.witness + radius * u
        if u[0] != 0.0:
            center = a if u[0] > 0 else b
            expect = center + scale * (far - center) / np.linalg.norm(far - center)
        else:
            expect = 0.5 * (a + b) + np.array([0.0, u[1] * half_height])
        err = float(np.abs(lens.support(u) - expect).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(far).max()), (u, err)


@pytest.mark.parametrize("order", ["reversed", "shuffle-0", "shuffle-1"])
@pytest.mark.parametrize("D", LENS_DISTANCES)
@pytest.mark.parametrize("scale,shift", LENS_PLACEMENTS)
def test_pooled_lens_projection_does_not_depend_on_query_order(order, D,
                                                               scale, shift):
    """One lens body answers every closed-form query, whatever cuts the
    queries before it left in its pool."""
    _, _, cases = lens_cases(D, scale, shift)
    if order == "reversed":
        cases = cases[::-1]
    else:
        rng = np.random.default_rng(int(order[-1]))
        cases = [cases[i] for i in rng.permutation(len(cases))]
    lens = lens_body(D, scale, shift)
    for q, x in cases:
        err = float(np.abs(lens.project(q) - x).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(q).max()), (q, err)


def warm_lens(D, scale, shift, queries=200):
    """A lens body after ``queries`` seeded projections of points within a
    few radii of it."""
    lens = lens_body(D, scale, shift)
    rng = np.random.default_rng(7)
    for q in lens.witness + 3.0 * scale * rng.normal(size=(queries, 2)):
        lens.project(q)
    return lens


@pytest.mark.parametrize("D", LENS_DISTANCES)
@pytest.mark.parametrize("scale,shift", LENS_PLACEMENTS)
def test_warm_lens_agrees_with_fresh_lens(D, scale, shift):
    """A body warmed by 200 projections projects as fresh bodies do, and
    its supports, which neither read nor change the pool, are the same
    bits."""
    _, _, cases = lens_cases(D, scale, shift)
    warm = warm_lens(D, scale, shift)
    for q, _ in cases:
        fresh = lens_body(D, scale, shift).project(q)
        err = float(np.abs(warm.project(q) - fresh).max())
        assert err <= LENS_RTOL * (1.0 + np.abs(q).max()), (q, err)
    fresh = lens_body(D, scale, shift)
    rng = np.random.default_rng(8)
    cuts = warm._cuts
    for u in np.vstack([np.eye(2), -np.eye(2), rng.normal(size=(8, 2))]):
        assert warm.support(u).tobytes() == fresh.support(u).tobytes(), u
    assert warm._cuts is cuts and fresh._cuts is hollowkit.bodies._NO_CUTS


@pytest.mark.parametrize("D", LENS_DISTANCES)
def test_pool_keeps_only_cuts_tight_at_the_answer(D):
    """After each call the pool is not empty (every query lies outside),
    and every pooled cut n.y <= h has slack h - n.x at most the call's
    stop at the returned x and holds one of the disks."""
    _, _, cases = lens_cases(D, 1.0, 0.0)
    lens = warm_lens(D, 1.0, 0.0)
    for q, _ in cases:
        x = lens.project(q)
        A, h = lens._cuts
        stop = hollowkit.bodies.CUT_RTOL * (1.0 + np.abs(q).max())
        assert h.size and np.all(h - A @ x <= stop), (q, h - A @ x)
        for n, offset in zip(A, h):
            held = min(n @ disk.support(n) for disk in lens.bodies)
            assert held <= offset + LENS_RTOL, (q, n)


def test_raising_projection_leaves_the_pool_as_it_was(monkeypatch):
    lens = warm_lens(1.865, 1.0, 0.0)
    A, h = lens._cuts
    monkeypatch.setattr(hollowkit.bodies, "CUT_MAX_PASSES", 1)
    with pytest.raises(ProjectionError):
        lens.project([5.0, 3.0])
    assert lens._cuts[0] is A and lens._cuts[1] is h


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
        diam = float(np.linalg.norm(hi - lo))

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


# Unit disks 2 + g apart, accepted as an intersection at tol 1e-7 though
# they share no point: by a witness at g = 5e-8, by a scan at g = 1e-9.
NEAR_DISJOINT_WITNESS = {5e-8: [1.0 + 2.5e-8, 0.0], 1e-9: None}
NEAR_DISJOINT_CALLS = {
    "project": lambda body: body.project([1.0, 1.0]),
    "distance": lambda body: body.distance([1.0, 0.5]),
    "support": lambda body: body.support([1.0, 0.0]),
    "membership": lambda body: body.membership([1.0, 1e-9]),
    "min_distance": lambda body: min_distance(body, Ball([1.0, 3.0], 1.0)),
}


@pytest.mark.parametrize("gap, call", [
    (5e-8, "project"), (5e-8, "distance"), (5e-8, "support"),
    (5e-8, "membership"), (5e-8, "min_distance"), (1e-9, "project"),
    (1e-9, "distance"), (1e-9, "membership"), (1e-9, "min_distance")])
def test_near_disjoint_members_end_in_a_tolerance_ambiguity(gap, call):
    """The cuts of members that miss each other by less than the body's
    tol share no point, and every oracle, and a solver built on them,
    ends in the body's structured verdict, carrying its tol and the cut
    loop's smallest residual as the gap, not in a bare ProjectionError.
    That gap measures the members' gap: it is within tol."""
    body = IntersectionBody([Ball([0.0, 0.0], 1.0), Ball([2.0 + gap, 0.0], 1.0)],
                            witness=NEAR_DISJOINT_WITNESS[gap])
    with pytest.raises(ToleranceAmbiguityError) as info:
        NEAR_DISJOINT_CALLS[call](body)
    assert info.value.tol == 1e-7 and 0.0 < info.value.gap <= info.value.tol
    assert isinstance(info.value.__cause__, ProjectionError)


def test_a_spent_pass_budget_is_ambiguous_only_within_tol(monkeypatch):
    """Two passes leave the lens projection of (0.75, 3) 0.13 from a
    member: a ProjectionError for a body kept at tol 1e-7, the structured
    verdict for one kept at tol 0.5, where that residual is within tol."""
    monkeypatch.setattr(hollowkit.bodies, "CUT_MAX_PASSES", 2)

    def lens(tol):
        return IntersectionBody([Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0)],
                                witness=[0.75, 0.0], tol=tol)

    with pytest.raises(ProjectionError, match="undecided after 2 passes"):
        lens(1e-7).project([0.75, 3.0])
    with pytest.raises(ToleranceAmbiguityError) as info:
        lens(0.5).project([0.75, 3.0])
    assert info.value.tol == 0.5 and 0.1 < info.value.gap < 0.5


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
    assert lens.membership(scanned.witness, 1e-7)
    assert intersect_witness(squares_union).feasible
    x = klee_solve(squares_union, [[1.5, 2.5], [0.5, 1.5], [2.5, 0.5]])
    assert all(b.membership(x, 1e-6) for b in squares_union)


def _boxes():
    return [HPolytope.box([0.0, 0.0], [2.0, 2.0]),
            HPolytope.box([1.0, 0.0], [3.0, 2.0]),
            HPolytope.box([1.5, 1.0], [2.5, 3.0])]


def _stab_verify(tol):
    bodies = [HPolytope.box([0.0, 0.0], [1.0, 1.0]),
              HPolytope.box([2.0, 0.0], [3.0, 1.0])]
    pair = StabbingPair(AffineSubspace([0.0, 0.5], [[1.0, 0.0]]),
                        AffineSubspace([1.5, 0.0], [[0.0, 1.0]]), [1.5, 0.5])
    return verify_stabbing(pair, bodies, [[2.0, 0.5], [1.0, 0.5]], tol=tol)


# each library entry point that takes a numerical tolerance
TOL_ENTRY_POINTS = {
    "check_critical": lambda tol: check_critical(
        [Ball(c, 1.0) for c in disk_centers(1.9)], tol=tol),
    "intersect_witness": lambda tol: intersect_witness(_boxes(), tol=tol),
    "feasibility_scan": lambda tol: feasibility_scan(_boxes(), tol=tol),
    "IntersectionBody": lambda tol: IntersectionBody(_boxes(), tol=tol),
    "klee_solve": lambda tol: klee_solve(
        _boxes(), [[2.0, 1.5], [2.0, 1.5], [1.5, 1.0]], tol=tol),
    "kkm_verify": lambda tol: kkm_verify(
        KkmInstance([[0.0], [1.0]], (HPolytope.box([0.0], [0.6]),
                                     HPolytope.box([0.4], [1.0]))), tol=tol),
    "verify_stabbing": _stab_verify,
}


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(TOL_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_tolerance(name, tol):
    """A tolerance of 0, below 0, nan or inf is refused on entry: at nan,
    ``klee_solve``'s closing membership check could never fail, and
    ``check_critical`` ended deep in scipy or numpy."""
    with pytest.raises(ValueError,
                       match="tolerance must be a positive finite number"):
        TOL_ENTRY_POINTS[name](tol)


def boundary_bodies():
    """One 2-D body of each kind."""
    return {"ball": Ball([0.0, 0.0], 1.0),
            "hpoly": HPolytope.box([-1.0, -1.0], [1.0, 1.0]),
            "vpoly": VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            "intersection": IntersectionBody(
                [Ball([0.0, 0.0], 1.0), HPolytope.box([-1.0, -1.0], [0.5, 0.5])])}


ORACLES = {
    "project": lambda body, q: body.project(q),
    "support": lambda body, q: body.support(q),
    "distance": lambda body, q: body.distance(q),
    "membership": lambda body, q: body.membership(q),
    "contains_batch": lambda body, q: body.contains_batch([q]),
}


@pytest.mark.parametrize("query", [[np.nan, 0.0], [np.inf, 0.0],
                                   [np.inf, -np.inf], [0.0, 0.0, 0.0]],
                         ids=["nan", "inf", "mixed-inf", "wrong-length"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("kind", sorted(boundary_bodies()))
def test_public_oracles_refuse_a_bad_query(kind, oracle, query):
    """Every public oracle of every kind refuses a NaN, an infinity, both
    infinities at once or a point of the wrong length with ``ValueError``
    at its boundary."""
    with pytest.raises(ValueError):
        ORACLES[oracle](boundary_bodies()[kind], query)


def test_a_finite_point_whose_sum_overflows_is_accepted():
    """The finiteness check adds the coordinates, so it must not refuse a
    finite point whose sum overflows: [1e308, 1e308] is validated.  A ball
    takes it as infinitely far, with no overflow warning from any oracle:
    its distance is infinite, it is not a member, and it projects, as its
    direction supports, to the boundary point along the diagonal.  So is
    a point whose offset from the center itself overflows: seen from a
    unit ball centered at (-1e308, 0), (1e308, 0) is infinitely far and
    projects to the ball's right end."""
    far = [1e308, 1e308]
    ball = Ball([1.0, -2.0], 3.0)
    diagonal = [1.0 + 3.0 / np.sqrt(2.0), -2.0 + 3.0 / np.sqrt(2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_point(far, 2), far)
        assert ball.distance(far) == np.inf
        assert not ball.membership(far, 1e-7)
        assert ball.contains_batch([far, [1.0, -2.0]]).tolist() == [False, True]
        assert np.allclose(ball.project(far), diagonal, rtol=0.0, atol=1e-15)
        assert np.allclose(ball.support(far), diagonal, rtol=0.0, atol=1e-15)
        assert np.allclose(ball.support([-1e308, 0.0]), [-2.0, -2.0],
                           rtol=0.0, atol=0.0)
        left = Ball([-1e308, 0.0], 1.0)
        assert left.distance([1e308, 0.0]) == np.inf
        assert np.array_equal(left.project([1e308, 0.0]), [-1e308 + 1.0, 0.0])
        # the offset (2e308, 1e308) points along (2, 1) / sqrt 5
        assert np.allclose(left.project([1e308, 1e308]),
                           [-1e308, 1.0 / np.sqrt(5.0)], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("kind", ["hpoly", "vpoly", "intersection"])
def test_an_infinitely_far_point_is_one_projection_error(kind):
    """Every kind but a ball refuses to project a finite point whose
    squared offset overflows, and so to measure its distance, with one
    ProjectionError that names it infinitely far: no overflow warning, no
    IndexError from an empty face, no stall.  The contains rule still
    answers."""
    body = boundary_bodies()[kind]
    far = [1e308, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for oracle in (body.project, body.distance):
            with pytest.raises(ProjectionError, match="infinitely far"):
                oracle(far)
        assert not body.membership(far)


@pytest.mark.parametrize("kind, scale", [
    pytest.param(kind, scale, id=str(scale) if kind == "vpoly" else f"{kind}-{scale}")
    for kind in ("vpoly", "hpoly") for scale in (1e15, 1e16, 1e50, 1e150)])
def test_a_v_polytope_projects_a_distant_point_to_a_member(kind, scale):
    """The least-distance dual of a far point has right-hand sides of
    about 1 / distance; scaled by the nearest generator's distance they
    stay above the solver's stop tolerance, so a face is found and the
    answer is a member, where it once was an empty face and IndexError.
    The unit square written as rows projects by the same rule, onto its
    vertices: least distance on the rows took the point at 1e16 to
    (2, 1), off the square."""
    body = (VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
            if kind == "vpoly" else HPolytope.box([0.0, 0.0], [1.0, 1.0]))
    p = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = body.project(p)
        assert body.membership(x, 1e-12)
        assert body.distance(p) == pytest.approx(np.linalg.norm(p), rel=1e-12)


@pytest.mark.parametrize("far", [[1e16, 3e15], [1e100, 3e99]])
def test_an_intersection_refuses_a_point_beyond_its_reach(far):
    """The cut loop stops within CUT_RTOL (1 + |p|_inf) of every member, a
    stop that grows with p.  Once it outgrows the stop at the lens's
    witness by more than the lens's bounding-box diagonal, an answer that
    close to both disks can lie that far off the lens: (0, -1), 0.41 off,
    for the first point, and (-1.9e84, -4.9e83) for the second.  Such a
    point is refused with one ProjectionError that says so, and no cut
    joins the pool; a point at 1e13 still goes to the lens, and so does
    support's far point."""
    lens = IntersectionBody([Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])
    with pytest.raises(ProjectionError, match="point too far for the intersection"):
        lens.project(far)
    assert lens._cuts == ((), ())
    for p in ([1e13, 3e12], lens.support(far)):
        x = lens.project(p)
        assert max(b.distance(x) for b in lens.bodies) <= 1e-12


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e8])
def test_a_single_point_intersection_projects_wherever_it_lies(shift):
    """Two squares meeting at a corner have a point for their
    intersection, so its extent is only ``tol``.  Moved by up to 1e8, where
    the cut stop at the corner itself is 1e-5, nearby points and support
    still go to the corner, within a unit in its last place: the reach
    holds to the extent only the part of the stop that grows with the
    point's distance."""
    s = np.array([shift, shift])
    body = IntersectionBody([HPolytope.box(s, s + 1.0),
                             HPolytope.box(s + 1.0, s + 2.0)])
    for x in (body.project(s + [0.3, 5.0]), body.project(s + [10.0, -3.0]),
              body.support([1.0, 0.3])):
        assert np.abs(x - (s + 1.0)).max() <= np.spacing(1.0 + shift)
    with pytest.raises(ProjectionError, match="point too far for the intersection"):
        body.project(s + 1e8 * (1.0 + abs(s).max()))


@pytest.mark.parametrize("angle", [1e-2, 1e-4, 1e-6, 1e-8])
def test_a_thin_wedge_projects_onto_its_apex_exactly(angle):
    """(-1, 0.5) lies in the normal cone of the apex of every thin wedge,
    whose rows there are nearly parallel and lose about eps / angle; the
    projection picks the apex from the vertex list, to the bit."""
    assert thin_wedge(angle).project([-1.0, 0.5]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("kind", sorted(boundary_bodies()))
def test_an_overflowing_support_direction_is_shrunk(kind):
    """Every kind supports a direction whose squares overflow where it
    supports its multiple over its largest |coordinate|, bit for bit and
    with no overflow warning."""
    body = boundary_bodies()[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(body.support([1e308, 1e308]),
                              body.support([1.0, 1.0]))


def test_ball_offsets_match_numpy_bit_for_bit():
    """A ball's offset p - c, subtracted in Python floats so that it can
    overflow to inf with no warning, has numpy's bits on ordinary
    vectors, dimensions 1 to 5 and scales from 1e-200 to 1e150."""
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        p, c = (rng.normal(size=d) * 10.0 ** rng.uniform(-200.0, 150.0)
                for _ in range(2))
        assert _offset(p, c).tobytes() == (p - c).tobytes()
