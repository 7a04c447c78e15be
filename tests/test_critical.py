"""Criticality certification, hollow simplices, and the cages around them."""
import dataclasses
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DISK_SIDE_CRITICAL, TRIANGLE, disk_centers
from helpers import random_base_points
from hollowkit import (DEFAULT_TOL, Ball, BorderlineCriticalError, ConvexBody,
                       CriticalFamily, CriticalityFailure, HPolytope,
                       NoHollowError, Simplex, ToleranceAmbiguityError,
                       VPolytope, cage_margin, certify_hollow, check_critical,
                       helly_guard, hollow_simplex, intersect_witness,
                       recentered_witness, separating_hyperplane,
                       uniqueness_probe)
from hollowkit.scenes import load_scene

DATA = os.path.join(os.path.dirname(__file__), "data")

# inner corner height of two unit circles at distance 1.9, and its distance
# to the far vertex of the equilateral triangle of centers
LENS_HALF_HEIGHT = np.sqrt(0.0975)
CORNER_TO_FAR_CENTER = 0.95 * np.sqrt(3.0) - LENS_HALF_HEIGHT
DISK_GAP = CORNER_TO_FAR_CENTER - 1.0
SEGMENT_GAPS = np.array([3.0, 12.0 / np.sqrt(13.0), 12.0 / np.sqrt(13.0)])
HELLY_DETAIL = ("4 convex sets in R^2 with nonempty leave-one-out intersections "
                "always share a point (n = 3 > d)")


def test_pair_family_shape(pair_family):
    assert pair_family.n == 1
    assert pair_family.d == 1
    assert pair_family.certificate.distance == pytest.approx(1.0, abs=1e-8)


def test_pair_hollow_is_middle_gap(pair_family):
    hs = hollow_simplex(pair_family)
    assert np.allclose(hs.vertices, [[2.0], [1.0]], atol=1e-9)
    assert np.allclose(hs.gaps, [1.0, 1.0], atol=1e-9)


def test_disks_family_gaps_match_closed_form(disks_hollow):
    assert np.allclose(disks_hollow.gaps, DISK_GAP, atol=1e-7)


def test_disks_hollow_vertices_are_lens_corners(disks_hollow):
    centers = disk_centers(DISK_SIDE_CRITICAL)
    # p_2 is the inner corner of the bottom lens
    assert np.allclose(disks_hollow.vertices[2],
                       [0.95, LENS_HALF_HEIGHT], atol=1e-6)
    for j in range(3):
        p = disks_hollow.vertices[j]
        for i in range(3):
            r = np.linalg.norm(p - centers[i])
            if i == j:
                assert r == pytest.approx(CORNER_TO_FAR_CENTER, abs=1e-6)
            else:
                assert r == pytest.approx(1.0, abs=1e-6)


def test_segment_triangle_hollow_is_the_triangle(segments_family):
    hs = hollow_simplex(segments_family)
    assert np.allclose(hs.vertices, [TRIANGLE[2], TRIANGLE[0], TRIANGLE[1]],
                       atol=1e-6)
    assert np.allclose(hs.gaps, SEGMENT_GAPS, atol=1e-7)


def test_witnesses_live_in_all_bodies_but_their_own(disks_family,
                                                    segments_family,
                                                    balls_family):
    for fam in (disks_family, segments_family, balls_family):
        for j in range(fam.n + 1):
            w = fam.witnesses[j]
            for i, b in enumerate(fam.bodies):
                if i != j:
                    assert b.membership(w, 1e-6)
            assert not fam.bodies[j].membership(w, 1e-3)


def test_recentered_witness_is_deterministic(three_disks):
    rest = three_disks[:2]
    w1 = recentered_witness(rest)
    w2 = recentered_witness(rest)
    assert np.array_equal(w1, w2)
    for b in rest:
        assert b.membership(w1, 1e-7)


def assert_certificate_rechecks_with_support(fam):
    """The separating plane keeps body j and the rest apart by half the
    margin, the far side checked through ``IntersectionBody.support``."""
    cert = fam.certificate
    assert cert.subfamily is None
    j = cert.separated_index
    normal, offset = cert.hyperplane.normal, cert.hyperplane.offset
    slack = 0.5 * cert.margin
    assert normal @ fam.bodies[j].support(normal) <= offset - slack
    assert normal @ fam.leave_one_out(j).support(-normal) >= offset + slack


@pytest.mark.parametrize("fixture", ["triangle_rects", "triangle_segments"])
def test_loose_tolerance_certificate_rechecks_with_support(fixture, request):
    """At tol above the default the leave-one-out bodies are built at that tol."""
    bodies = request.getfixturevalue(fixture)
    fam = check_critical(bodies, tol=1e-5)
    assert isinstance(fam, CriticalFamily)
    assert_certificate_rechecks_with_support(fam)


def test_small_scale_certificate_rechecks_with_support():
    """The critical disks shrunk by 1e-3, with tol shrunk alike."""
    scale = 1e-3
    bodies = [Ball(scale * c, scale) for c in disk_centers(DISK_SIDE_CRITICAL)]
    fam = check_critical(bodies, tol=1e-7 * scale)
    assert isinstance(fam, CriticalFamily)
    assert_certificate_rechecks_with_support(fam)


def test_tangent_disks_end_in_a_structured_verdict():
    bodies = [Ball(c, 1.0) for c in disk_centers(2.0)]
    try:
        res = check_critical(bodies)
    except ToleranceAmbiguityError:
        return
    assert isinstance(res, CriticalityFailure)
    assert res.reason == "borderline"


def test_full_intersection_nonempty_failure(three_disks_overlapping):
    res = check_critical(three_disks_overlapping)
    assert isinstance(res, CriticalityFailure)
    assert res.reason == "full-intersection-nonempty"
    for b in three_disks_overlapping:
        assert b.membership(res.witness, 1e-6)


def test_leave_one_out_empty_failure():
    bodies = [
        HPolytope.box([0.0, 0.0], [1.0, 1.0]),
        HPolytope.box([2.0, 0.0], [3.0, 1.0]),
        HPolytope.box([5.0, 0.0], [6.0, 1.0]),
    ]
    res = check_critical(bodies)
    assert isinstance(res, CriticalityFailure)
    assert res.reason == "leave-one-out-empty"
    # leaving out body 0 leaves the two far boxes, which share nothing
    assert res.index == 0


def test_helly_guard_rejects_oversized_families():
    boxes = [HPolytope.box([float(i), 0.0], [i + 1.0, 1.0]) for i in range(4)]
    rej = helly_guard(boxes)
    assert isinstance(rej, CriticalityFailure)
    assert rej.reason == "helly"
    assert rej.detail == HELLY_DETAIL
    assert check_critical(boxes) == rej
    assert helly_guard(boxes[:3]) is None


def test_borderline_margin_failure():
    bodies = [HPolytope.box([0.0], [1.0]), HPolytope.box([1.0 + 5e-7], [2.0])]
    res = check_critical(bodies, tol=1e-7)
    assert isinstance(res, CriticalityFailure)
    assert res.reason == "borderline"


@pytest.mark.parametrize("ulps, certified", [(0, False), (1, True)])
def test_ten_tol_is_borderline_and_the_next_float_is_not(ulps, certified):
    """The emptiness distance and the hollow gaps, both distances from a body
    to the intersection of the others, certify only above 10 tol.  Two 1-D
    balls of radius 2^-18 at gap g give every projection exactly, so both
    distances are exactly g: 10 tol for tol = 2^-20, or the next float."""
    tol, r = 2.0 ** -20, 2.0 ** -18
    gap = np.nextafter(10.0 * tol, np.inf) if ulps else 10.0 * tol
    bodies = [Ball([-r], r), Ball([gap + r], r)]
    res = check_critical(bodies, tol=tol)
    assert isinstance(res, CriticalFamily) is certified
    cert = intersect_witness(bodies, tol=tol).certificate
    assert cert.distance == gap
    family = CriticalFamily(bodies, [[gap + r], [-r]], cert, tol=tol)
    if certified:
        assert np.all(hollow_simplex(family).gaps == gap)
    else:
        assert res.reason == "borderline"
        assert res.detail == (f"emptiness distance {gap:.3e} not above "
                              "10 x tol")
        with pytest.raises(BorderlineCriticalError):
            hollow_simplex(family)


def test_no_hollow_below_ambient_dimension():
    bodies = [
        HPolytope.box([0.0, 0.0], [1.0, 1.0]),
        HPolytope.box([2.0, 0.0], [3.0, 1.0]),
    ]
    fam = check_critical(bodies)
    assert isinstance(fam, CriticalFamily)
    with pytest.raises(NoHollowError):
        hollow_simplex(fam)


def test_borderline_hollow_gaps_error(disks_family):
    # inflating the working tolerance pushes the certification floor above
    # the actual gaps, which must be refused rather than returned
    loose = dataclasses.replace(disks_family, tol=0.05)
    with pytest.raises(BorderlineCriticalError):
        hollow_simplex(loose)


def test_witness_cage_margin_is_nonnegative(disks_family, segments_family,
                                            balls_family):
    """The witnesses are base points, so their simplex holds the hollow."""
    for fam in (disks_family, segments_family, balls_family):
        assert cage_margin(fam, hollow_simplex(fam)) >= -1e-6


def test_cage_margin_vanishes_on_the_hollow_vertices(disks_family, balls_family):
    """Equality case: the hollow simplex is itself the smallest cage."""
    for fam in (disks_family, balls_family):
        hs = hollow_simplex(fam)
        assert abs(cage_margin(fam, hs, hs.vertices)) <= 1e-12


def test_witness_simplex_has_positive_volume(disks_family):
    assert Simplex(disks_family.witnesses).volume > 1e-3


def test_hollow_vertices_permute_with_the_bodies():
    """The body-permutation case of the metamorphic suite: the bodies of
    disks, balls3 and vpoly in every order give the same witnesses, hollow
    vertices and gaps, permuted along, within 1e-12 (1.7e-15 at most when
    measured)."""
    for scene in ("disks.json", "balls3.json", "vpoly.json"):
        bodies = load_scene(os.path.join(DATA, scene)).bodies
        fam = check_critical(bodies)
        hs = hollow_simplex(fam)
        for perm in itertools.permutations(range(len(bodies))):
            permuted = check_critical([bodies[i] for i in perm])
            assert isinstance(permuted, CriticalFamily)
            phs = hollow_simplex(permuted)
            for got, want in ((permuted.witnesses, fam.witnesses),
                              (phs.vertices, hs.vertices), (phs.gaps, hs.gaps)):
                assert np.allclose(got, want[list(perm)], rtol=0.0, atol=1e-12)


def moved_body(body, Q, scale):
    """``body`` under the similarity x -> scale Q x, Q orthogonal."""
    if isinstance(body, Ball):
        return Ball(scale * (Q @ body.center), scale * body.radius)
    if isinstance(body, VPolytope):
        return VPolytope(scale * body.vertices @ Q.T)
    return HPolytope(body.A @ Q.T, scale * body.b)


def critical_outcome(bodies, tol):
    """The verdict of ``check_critical``, and for a critical family its
    hollow vertices, gaps and emptiness distance."""
    family = check_critical(bodies, tol=tol)
    if isinstance(family, CriticalityFailure):
        return family.reason, None
    hs = hollow_simplex(family)
    return "critical", (hs.vertices, hs.gaps, family.certificate.distance)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("scene", ["disks", "balls3", "vpoly", "pair",
                                   "noncrit", "squares"])
@settings(derandomize=True, database=None, deadline=None, max_examples=3)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rotated_and_scaled_families_keep_their_verdict(scene, scale, seed):
    """The rotation and scaling cases of the metamorphic suite: under a
    random orthogonal map and a uniform scaling, with tol scaled too, a
    family keeps its verdict, and its hollow vertices (mapped back), gaps
    and emptiness distance move by at most 1e-8 of the family's size, the
    diagonal of its bounding box (2.3e-11 at most when measured, on
    balls3 over ten maps per scale)."""
    loaded = load_scene(os.path.join(DATA, f"{scene}.json"))
    bodies = loaded.bodies
    tol = loaded.options.get("tol", DEFAULT_TOL)
    d = loaded.dimension
    Q, R = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    Q *= np.sign(np.diag(R))
    verdict, solved = critical_outcome(bodies, tol)
    moved_verdict, moved = critical_outcome(
        [moved_body(b, Q, scale) for b in bodies], scale * tol)
    assert moved_verdict == verdict
    if solved is None:
        return
    lo, hi = zip(*(b.bounding_box() for b in bodies))
    bound = 1e-8 * float(np.linalg.norm(np.max(hi, axis=0) - np.min(lo, axis=0)))
    vertices, gaps, distance = solved
    assert np.abs(moved[0] @ Q / scale - vertices).max() <= bound
    assert np.abs(moved[1] / scale - gaps).max() <= bound
    assert abs(moved[2] / scale - distance) <= bound


def test_uniqueness_probe_small_deviations(disks_family):
    report = uniqueness_probe(disks_family, restarts=10, seed=5)
    assert report.ok
    assert report.deviations.shape == (3,)
    assert np.all(report.deviations <= report.threshold)


def test_uniqueness_probe_refuses_bad_restarts_and_seeds(disks_family):
    for kwargs in ({"restarts": -1}, {"restarts": True}, {"restarts": 2.5},
                   {"seed": -1}, {"seed": True}):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError,
                           match=f"{name} must be a non-negative integer, "
                                 f"got {value}"):
            uniqueness_probe(disks_family, **kwargs)
    report = uniqueness_probe(disks_family, restarts=0)
    assert report.ok
    assert np.array_equal(report.deviations, np.zeros(3))


def test_random_cage_contains_hollow_vertices(disks_family, disks_hollow):
    rng = np.random.default_rng(11)
    for _ in range(5):
        pts = random_base_points(disks_family, rng)
        assert cage_margin(disks_family, disks_hollow, pts) >= -1e-6


def test_cage_margin_rejects_bad_base_points(disks_family, disks_hollow):
    pts = disks_family.witnesses.copy()
    pts[0] = [50.0, 50.0]
    with pytest.raises(ValueError,
                       match="base point 0 misses body 1 by more than 1e-06"):
        cage_margin(disks_family, disks_hollow, pts)
    with pytest.raises(ValueError, match="need 3 base points, got 2"):
        cage_margin(disks_family, disks_hollow, disks_family.witnesses[:2])


def test_cages_for_ball_tetrahedron(balls_family):
    rng = np.random.default_rng(7)
    hs = hollow_simplex(balls_family)
    assert np.all(hs.gaps > 1e-3)
    for _ in range(3):
        pts = random_base_points(balls_family, rng)
        assert cage_margin(balls_family, hs, pts) >= -1e-6


def test_leave_one_out_body_membership(disks_family):
    for j in range(3):
        X = disks_family.leave_one_out(j)
        assert X.membership(disks_family.witnesses[j], 1e-6)
        p = X.project(np.array([10.0, 10.0]))
        for i, b in enumerate(disks_family.bodies):
            if i != j:
                assert b.membership(p, 1e-6)


class UserDisk(ConvexBody):
    """A disk written as a user would, against the oracle interface alone:
    it states the five abstract methods, each by asking a ball, and no
    member point."""

    def __init__(self, center, radius):
        self._ball = Ball(center, radius)

    dim = property(lambda self: self._ball.dim)

    def project(self, p):
        return self._ball.project(p)

    def support(self, direction):
        return self._ball.support(direction)

    def bounding_box(self):
        return self._ball.bounding_box()

    def contains_batch(self, points, tol=1e-7):
        return self._ball.contains_batch(points, tol)


def test_a_body_stating_only_its_oracles_runs_the_pipeline():
    """Three user disks are certified critical, get their hollow simplex
    and their grid hollow, as the same three balls do; two of them are
    separated from the default start of ``min_distance``."""
    centers = disk_centers(DISK_SIDE_CRITICAL)
    family = check_critical([UserDisk(c, 1.0) for c in centers])
    balls = check_critical([Ball(c, 1.0) for c in centers])
    assert isinstance(family, CriticalFamily)
    assert family.certificate.distance == pytest.approx(
        balls.certificate.distance, rel=1e-9)
    hs = hollow_simplex(family)
    assert np.allclose(hs.vertices, hollow_simplex(balls).vertices, atol=1e-9)
    cert = certify_hollow(family)
    assert cert.bounded
    assert cert.cell_count == certify_hollow(balls).cell_count
    plane = separating_hyperplane(UserDisk([0.0, 0.0], 1.0),
                                  UserDisk([3.0, 1.0], 1.0))
    assert np.allclose(plane.normal, np.array([3.0, 1.0]) / np.sqrt(10.0))
    assert plane.offset == pytest.approx(np.sqrt(10.0) / 2.0)
    assert ConvexBody.__abstractmethods__ == {
        "dim", "project", "support", "bounding_box", "contains_batch"}
