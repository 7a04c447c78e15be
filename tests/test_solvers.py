"""Distances, separation certificates, and feasibility verdicts."""
import numpy as np
import pytest

from hollowkit import (Ball, ConvergenceError, CriticalFamily, HPolytope,
                       IntersectionBody, NotSeparableError,
                       ToleranceAmbiguityError, VPolytope, check_critical,
                       intersect_witness, min_distance, separating_hyperplane)
from hollowkit.bodies import CUT_MAX_PASSES
from helpers import (ball_ball_distance, box_box_distance,
                     segment_point_distance)

DIST_TOL = 1e-9
RESTART_TOL = 1e-8
DUAL_PROBE_DIRS = 200

# nearest point of the segment (4,0)-(2,3) to the origin, by hand: the
# parameter along (4,0)+t(-2,3) minimizing 13t^2-16t+16 is t=8/13, so the
# foot is (36/13, 24/13) and the distance is 12/sqrt(13)
PINNED_POINT = np.array([0.0, 0.0])
PINNED_SEGMENT = np.array([[4.0, 0.0], [2.0, 3.0]])
PINNED_DISTANCE = 12.0 / np.sqrt(13.0)
PINNED_FOOT = np.array([36.0 / 13.0, 24.0 / 13.0])


def test_point_segment_pinned_distance():
    point = VPolytope([PINNED_POINT])
    seg = VPolytope(PINNED_SEGMENT)
    res = min_distance(point, seg)
    assert res.distance == pytest.approx(PINNED_DISTANCE, abs=1e-9)
    assert np.allclose(res.point_a, PINNED_POINT, atol=1e-9)
    assert np.allclose(res.point_b, PINNED_FOOT, atol=1e-8)
    exact, foot = segment_point_distance(PINNED_POINT, *PINNED_SEGMENT)
    assert res.distance == pytest.approx(exact, abs=1e-12)


def test_min_distance_symmetry():
    a = Ball([0.0, 0.0], 1.0)
    b = HPolytope.box([2.0, 2.0], [4.0, 3.0])
    ab = min_distance(a, b)
    ba = min_distance(b, a)
    assert ab.distance == pytest.approx(ba.distance, abs=1e-10)
    assert np.allclose(ab.point_a, ba.point_b, atol=1e-7)
    assert np.allclose(ab.point_b, ba.point_a, atol=1e-7)


def test_min_distance_dual_support_bound():
    """Every direction certifies a lower bound; the best one is tight."""
    a = Ball([0.0, 0.0], 1.0)
    b = VPolytope([[3.0, 1.0], [4.0, -1.0], [5.0, 2.0]])
    res = min_distance(a, b)
    rng = np.random.default_rng(3)
    for _ in range(DUAL_PROBE_DIRS):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        lower = float(u @ b.support(-u)) - float(u @ a.support(u))
        assert lower <= res.distance + 1e-7
    u_star = (res.point_b - res.point_a) / res.distance
    tight = (float(u_star @ b.support(-u_star))
             - float(u_star @ a.support(u_star)))
    assert tight >= res.distance - 1e-6


def test_min_distance_restart_agreement():
    a = VPolytope([[0.0, 0.0], [1.0, 0.2], [0.4, 1.1]])
    b = Ball([3.0, 2.0], 0.5)
    rng = np.random.default_rng(17)
    base = min_distance(a, b)
    for _ in range(10):
        start = rng.uniform(-2, 5, size=2)
        res = min_distance(a, b, start=start)
        assert res.distance == pytest.approx(base.distance, abs=RESTART_TOL)


def test_min_distance_touching_bodies_is_zero():
    a = HPolytope.box([0.0], [1.0])
    b = HPolytope.box([1.0], [2.0])
    res = min_distance(a, b)
    assert res.distance <= 1e-10


def test_min_distance_matches_closed_forms():
    rng = np.random.default_rng(404)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        c1 = rng.uniform(-3, 3, size=d)
        c2 = rng.uniform(-3, 3, size=d)
        r1, r2 = rng.uniform(0.2, 1.0, size=2)
        res = min_distance(Ball(c1, r1), Ball(c2, r2))
        assert res.distance == pytest.approx(
            ball_ball_distance(c1, r1, c2, r2), abs=1e-8)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        lo1 = rng.uniform(-3, 0, size=d)
        hi1 = lo1 + rng.uniform(0.5, 2, size=d)
        lo2 = rng.uniform(0, 3, size=d)
        hi2 = lo2 + rng.uniform(0.5, 2, size=d)
        res = min_distance(HPolytope.box(lo1, hi1), HPolytope.box(lo2, hi2))
        assert res.distance == pytest.approx(
            box_box_distance(lo1, hi1, lo2, hi2), abs=1e-8)
    for _ in range(60):
        p = rng.uniform(-4, 4, size=2)
        a = rng.uniform(-4, 4, size=2)
        b = a + rng.uniform(-3, 3, size=2)
        if np.linalg.norm(b - a) < 1e-3:
            continue
        res = min_distance(VPolytope([p]), VPolytope([a, b]))
        exact, _ = segment_point_distance(p, a, b)
        assert res.distance == pytest.approx(exact, abs=1e-8)


def test_separating_hyperplane_between_intervals():
    a = HPolytope.box([0.0], [1.0])
    b = HPolytope.box([2.0], [3.0])
    cert = separating_hyperplane(a, b)
    assert np.allclose(cert.normal, [1.0])
    assert cert.offset == pytest.approx(1.5)
    hp = cert
    assert hp.side([1.0]) < 0 < hp.side([2.0])


def test_separating_hyperplane_rejects_overlap():
    a = Ball([0.0, 0.0], 1.0)
    b = Ball([1.0, 0.0], 1.0)
    with pytest.raises(NotSeparableError):
        separating_hyperplane(a, b)


def test_intersect_witness_on_overlapping_boxes():
    a = HPolytope.box([0.0, 0.0], [2.0, 1.0])
    b = HPolytope.box([1.0, 0.0], [3.0, 1.0])
    report = intersect_witness([a, b])
    assert report.status == "witness"
    assert report.feasible
    assert a.membership(report.witness, 1e-7)
    assert b.membership(report.witness, 1e-7)


def test_intersect_witness_empty_interval_certificate():
    a = HPolytope.box([0.0], [1.0])
    b = HPolytope.box([2.0], [3.0])
    report = intersect_witness([a, b])
    assert report.status == "empty"
    assert not report.feasible
    cert = report.certificate
    assert np.allclose(cert.hyperplane.normal, [1.0])
    assert cert.hyperplane.offset == pytest.approx(1.5)
    assert cert.separated_index == 0
    assert cert.distance == pytest.approx(1.0, abs=1e-9)
    assert cert.margin == pytest.approx(0.5, abs=1e-9)


def test_intersect_witness_empty_disks_certificate(three_disks):
    report = intersect_witness(three_disks)
    assert report.status == "empty"
    cert = report.certificate
    # the emptiness distance is the height of the lens corner over the third
    # disk: t - 1 for t = 0.95 sqrt(3) - sqrt(0.0975)
    expected = 0.95 * np.sqrt(3.0) - np.sqrt(0.0975) - 1.0
    assert cert.distance == pytest.approx(expected, abs=1e-7)
    assert cert.margin == pytest.approx(expected / 2.0, abs=1e-7)


def counted_intersection_builds(monkeypatch):
    """The member counts of the ``IntersectionBody`` objects the
    certificate builds, in order."""
    builds = []

    class Counted(IntersectionBody):
        def __init__(self, bodies, **kwargs):
            builds.append(len(bodies))
            super().__init__(bodies, **kwargs)

    monkeypatch.setattr("hollowkit.solvers.IntersectionBody", Counted)
    return builds


def test_intersect_witness_falls_back_to_a_subfamily(monkeypatch):
    """Pairwise disjoint disks: bodies 1 and 2 share no point, so the
    certificate is that of the family without body 0, found with one
    intersection build, that of bodies 1 and 2."""
    disks = [Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0), Ball([0.0, 5.0], 1.0)]
    builds = counted_intersection_builds(monkeypatch)
    report = intersect_witness(disks)
    assert builds == [2]
    assert report.status == "empty"
    cert = report.certificate
    assert cert.separated_index == 1
    assert cert.subfamily == (1, 2)
    assert cert.distance == pytest.approx(5.0 * np.sqrt(2.0) - 2.0, abs=1e-9)
    # re-checked by support calls: body 1 lies below the plane, body 2 above
    n, c = cert.hyperplane.normal, cert.hyperplane.offset
    assert n @ disks[1].support(n) < c - cert.margin / 2.0
    assert n @ disks[2].support(-n) > c + cert.margin / 2.0


def test_a_disjoint_pair_inside_body_0_is_certified_on_its_own(monkeypatch):
    """Body 0 holds two disjoint disks 1 apart: the certificate separates
    body 1 from body 2 and names them, never separating body 0."""
    balls = [Ball([0.0, 0.0], 3.0), Ball([-1.5, 0.0], 1.0), Ball([1.5, 0.0], 1.0)]
    builds = counted_intersection_builds(monkeypatch)
    cert = intersect_witness(balls).certificate
    assert builds == [2]
    assert (cert.separated_index, cert.subfamily) == (1, (1, 2))
    assert cert.distance == pytest.approx(1.0, abs=1e-9)
    n, c = cert.hyperplane.normal, cert.hyperplane.offset
    assert n @ balls[1].support(n) < c - cert.margin / 2.0
    assert n @ balls[2].support(-n) > c + cert.margin / 2.0


def test_certificate_distance_errors_propagate(three_disks, monkeypatch):
    """A distance solve that runs out separating body 0 ends the call: no
    other body and no subfamily is tried."""
    calls = []

    def out_of_iterations(body_a, body_b, start=None):
        calls.append(body_a)
        raise ConvergenceError("out of iterations")

    monkeypatch.setattr("hollowkit.solvers.min_distance", out_of_iterations)
    with pytest.raises(ConvergenceError, match="out of iterations"):
        intersect_witness(three_disks)
    assert calls == [three_disks[0]]


def test_intersect_witness_ambiguous_band_raises():
    a = HPolytope.box([0.0], [1.0])
    b = HPolytope.box([1.0 + 5e-8], [2.0])
    with pytest.raises(ToleranceAmbiguityError) as info:
        intersect_witness([a, b], tol=1e-7)
    assert info.value.gap == pytest.approx(5e-8, rel=0.5)


def test_scan_out_of_rounds_is_a_convergence_error(monkeypatch):
    """An undecided scan means the same on every path that runs one.

    A large disk overlaps a small one whose support centroid lies outside
    the small disk, so no scan decides in its first pass."""
    monkeypatch.setattr("hollowkit.bodies.CUT_MAX_PASSES", 1)
    balls = [Ball([0.0, 0.0], 10.0), Ball([10.5, 0.0], 1.0)]
    with pytest.raises(ConvergenceError):
        IntersectionBody(balls)
    with pytest.raises(ConvergenceError):
        intersect_witness(balls)
    with pytest.raises(ConvergenceError):
        check_critical(balls + [Ball([21.0, 0.0], 10.0)])


def test_min_distance_out_of_iterations_carries_its_best_pair(monkeypatch):
    """A disk and a skew segment take 9 iterations; with the shared budget
    cut to 5 the error carries the pair of least residual reached so far."""
    disk, seg = Ball([0.0, 0.0], 1.0), VPolytope([[1.5, -2.0], [1.6, 3.0]])
    exact = min_distance(disk, seg).distance
    monkeypatch.setattr("hollowkit.solvers.CUT_MAX_PASSES", 5)
    with pytest.raises(ConvergenceError, match="after 5 iterations") as info:
        min_distance(disk, seg)
    best = info.value.best
    assert best.iterations == 5
    assert best.distance == pytest.approx(
        np.linalg.norm(best.point_a - best.point_b))
    assert exact <= best.distance < exact + 1e-3
    assert best.residual > 0.0


@pytest.mark.parametrize("start", [[1.0, 3.0], [1.0, -3.0]])
def test_min_distance_points_at_a_smooth_contact(start):
    """Two unit disks 1e-4 apart: the composed projections contract the
    slide along the contact only by about 1/(1 + g/r) a step, yet the
    mixed steps put both points on the exact pair from either side."""
    gap = 1e-4
    res = min_distance(Ball([0.0, 0.0], 1.0), Ball([2.0 + gap, 0.0], 1.0),
                       start=start)
    assert np.abs(res.point_a - [1.0, 0.0]).max() <= 1e-12
    assert np.abs(res.point_b - [1.0 + gap, 0.0]).max() <= 1e-12
    assert res.distance == pytest.approx(gap, abs=1e-15)
    assert res.iterations <= 30


def test_min_distance_safeguard_lands_on_vertices():
    """A segment and a triangle whose nearest points are the vertices
    (0, -6) and (1, -5).  From (-3, 8) plain alternation takes 12 steps
    down the segment; a mixed step overshoots and raises the residual, so
    the plain step is taken and the history dropped: 4 iterations, where
    mixing through the overshoot takes 16."""
    seg = VPolytope([[-4.0, -2.0], [0.0, -6.0]])
    tri = VPolytope([[-2.0, 0.0], [2.0, -5.0], [1.0, -5.0]])
    res = min_distance(seg, tri, start=[-3.0, 8.0])
    assert np.abs(res.point_a - [0.0, -6.0]).max() <= 1e-12
    assert np.abs(res.point_b - [1.0, -5.0]).max() <= 1e-12
    assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert res.iterations <= 6


def test_near_tangent_smooth_pairs_settle():
    """Between smooth bodies a gap g apart plain alternating projections
    converge only linearly, at a rate of about 1/(1 + g/r), and took
    thousands of iterations at g = 1e-3; mixed steps settle well within
    the cut loops' budget, on the exact pair."""
    segment = HPolytope.box([1.001, -1.0], [1.001, 4.0])
    res = min_distance(Ball([0.0, 0.0], 1.0), segment)
    assert res.iterations <= CUT_MAX_PASSES
    assert np.abs(res.point_a - [1.0, 0.0]).max() <= 1e-10
    assert np.abs(res.point_b - [1.001, 0.0]).max() <= 1e-10
    plane = separating_hyperplane(Ball([0.0, 0.0], 1.0), segment)
    assert np.allclose(plane.normal, [1.0, 0.0], atol=1e-9)
    assert plane.offset == pytest.approx(1.0005, abs=1e-12)
    res = min_distance(Ball([0.0, 0.0], 1.0), Ball([2.001, 0.0], 1.0),
                       start=[1.0, 3.0])
    assert res.distance == pytest.approx(1e-3, abs=1e-15)
    assert np.abs(res.point_a - [1.0, 0.0]).max() <= 1e-12
    assert res.iterations <= CUT_MAX_PASSES


def test_critical_verdict_survives_a_far_translation():
    """Far from the origin the fixed-point residual of min_distance is
    rounding only, and its stop rule scales with |b|_inf, so it stops."""
    side = 1.9
    centers = np.array([[0.0, 0.0], [side, 0.0],
                        [side / 2.0, side * np.sqrt(3.0) / 2.0]])
    near = check_critical([Ball(c, 1.0) for c in centers])
    far = check_critical([Ball(c + 1e6, 1.0) for c in centers])
    assert isinstance(near, CriticalFamily) and isinstance(far, CriticalFamily)
    assert far.certificate.separated_index == near.certificate.separated_index
    assert far.certificate.distance == pytest.approx(near.certificate.distance,
                                                     abs=1e-6)


def test_certificate_orientation_separates_bodies():
    rng = np.random.default_rng(23)
    for _ in range(25):
        gap = rng.uniform(0.5, 2.0)
        lo = rng.uniform(-2, 0, size=2)
        a = HPolytope.box(lo, lo + 1.0)
        shift = np.array([1.0 + gap, 0.0])
        b = HPolytope.box(lo + shift, lo + shift + 1.0)
        report = intersect_witness([a, b])
        assert report.status == "empty"
        hp = report.certificate.hyperplane
        j = report.certificate.separated_index
        sep, other = (a, b) if j == 0 else (b, a)
        # separated body on the negative side, the rest on the positive
        assert hp.side(sep.support(hp.normal)) < 0
        assert hp.side(other.support(-hp.normal)) > 0
