"""End-to-end acceptance checks, one per headline capability.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (DISK_SIDE_CRITICAL, TRIANGLE, disk_centers,
                      side_rectangle)
from helpers import (ball_ball_distance, box_box_distance,
                     random_base_points, random_critical_rejection_family,
                     segment_point_distance, union_box_family)
from hollowkit import (AffineSubspace, Ball, CriticalFamily,
                       CriticalityFailure, HPolytope, KkmInstance, Simplex,
                       StabbingPair, VPolytope, cage_margin, certify_hollow,
                       check_critical, family_kkm_instance, helly_guard,
                       hollow_simplex, hull_vs_simplex, intersect_witness,
                       kkm_verify, klee_solve, min_distance, rainbow_cells,
                       random_legal_coloring, recentered_witness, subdivide,
                       uniqueness_probe, verify_stabbing)


@contextmanager
def criterion(number, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {text}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS {text} ({elapsed:.1f}s)", flush=True)


def test_criterion_01_line_pair():
    with criterion(1, "1-D pair certifies critical with hollow {1, 2}"):
        start = time.perf_counter()
        fam = check_critical([HPolytope.box([0.0], [1.0]),
                              HPolytope.box([2.0], [3.0])])
        assert isinstance(fam, CriticalFamily)
        hs = hollow_simplex(fam)
        elapsed = time.perf_counter() - start
        assert np.allclose(sorted(hs.vertices.ravel()), [1.0, 2.0], atol=1e-9)
        assert elapsed < 1.0


def test_criterion_02_thickened_triangle():
    with criterion(2, "thickened-triangle hollow matches its grid component"):
        v = TRIANGLE
        bodies = [side_rectangle(v[0], v[1]), side_rectangle(v[1], v[2]),
                  side_rectangle(v[2], v[0])]
        h = 0.01
        start = time.perf_counter()
        fam = check_critical(bodies)
        assert isinstance(fam, CriticalFamily)
        hs = hollow_simplex(fam)
        cert = certify_hollow(fam, h)
        dist = hull_vs_simplex(cert, hs)
        elapsed = time.perf_counter() - start
        assert cert.component_count == 1
        assert dist <= 0.05 + 2.0 * np.sqrt(2.0) * h
        assert elapsed < 30.0


def test_criterion_03_three_disks():
    with criterion(3, "three-disk hollow: tight Hausdorff and unique vertices"):
        bodies = [Ball(c, 1.0) for c in disk_centers(DISK_SIDE_CRITICAL)]
        h = 0.005
        start = time.perf_counter()
        fam = check_critical(bodies)
        assert isinstance(fam, CriticalFamily)
        hs = hollow_simplex(fam)
        cert = certify_hollow(fam, h)
        dist = hull_vs_simplex(cert, hs)
        probe = uniqueness_probe(fam, restarts=10, seed=0)
        elapsed = time.perf_counter() - start
        assert dist <= 2.0 * np.sqrt(2.0) * h + 1e-4
        assert probe.ok
        assert np.all(probe.deviations <= 1e-5)
        assert elapsed < 60.0


def test_criterion_04_convex_union_common_points():
    with criterion(4, "common point found on 50 box-union families"):
        rng = np.random.default_rng(41)
        for trial in range(50):
            dim = 1 + trial % 2
            bodies, _, _ = union_box_family(rng, dim)
            witnesses = np.array([
                recentered_witness([b for i, b in enumerate(bodies) if i != j])
                for j in range(len(bodies))
            ])
            x = klee_solve(bodies, witnesses, tol=1e-6)
            for b in bodies:
                assert b.membership(x, 1e-6)
            report = intersect_witness(bodies)
            assert report.feasible
            for b in bodies:
                assert b.membership(report.witness, 1e-6)


def test_criterion_05_rainbow_parity():
    with criterion(5, "every random legal coloring has odd rainbow count"):
        rng = np.random.default_rng(52)
        total = 0
        for k in (1, 2, 3):
            verts = np.vstack([np.zeros(k), np.eye(k)])
            for depth in (1, 2, 3):
                sub = subdivide(Simplex(verts), depth)
                for _ in range(23):
                    coloring = random_legal_coloring(sub, rng=rng)
                    assert rainbow_cells(sub, coloring).size % 2 == 1
                    total += 1
        assert total >= 200


def test_criterion_06_dimension_guard():
    with criterion(6, "oversized families always share a point, never certify"):
        rng = np.random.default_rng(63)
        for trial in range(100):
            dim = 1 + trial % 3
            bodies, core = random_critical_rejection_family(rng, dim)
            assert helly_guard(bodies) is not None
            res = check_critical(bodies)
            assert isinstance(res, CriticalityFailure)
            assert res.reason == "helly"
            report = intersect_witness(bodies)
            assert report.feasible
            for b in bodies:
                assert b.membership(report.witness, 1e-6)
                assert b.membership(core, 1e-9)


def test_criterion_07_random_cages(disks_family, balls_family):
    with criterion(7, "random cages contain the hollow-simplex vertices"):
        for fam, seed in ((disks_family, 70), (balls_family, 71)):
            hs = hollow_simplex(fam)
            rng = np.random.default_rng(seed)
            for _ in range(100):
                assert cage_margin(fam, hs, random_base_points(fam, rng)) >= -1e-6


def test_criterion_08_kkm_cover():
    with criterion(8, "witness covers verify; the gap example is refuted"):
        rng = np.random.default_rng(87)
        for trial in range(50):
            dim = 1 + trial % 2
            bodies, _, _ = union_box_family(rng, dim)
            witnesses = np.array([
                recentered_witness([b for i, b in enumerate(bodies) if i != j])
                for j in range(len(bodies))
            ])
            report = kkm_verify(family_kkm_instance(bodies, witnesses))
            assert report.kkm_holds
            assert not report.contradiction
            assert report.witness is not None
        gap = KkmInstance([[0.0], [1.0]],
                          (HPolytope.box([0.0], [0.4]),
                           HPolytope.box([0.5], [1.0])))
        refuted = kkm_verify(gap)
        assert not refuted.kkm_holds
        assert 0.4 < float(refuted.counterexample[0]) < 0.5


def test_criterion_09_stabbing_examples():
    with criterion(9, "stabbing verifier accepts the pair, rejects both fakes"):
        bodies = [HPolytope.box([0.0, 0.0], [1.0, 1.0]),
                  HPolytope.box([2.0, 0.0], [3.0, 1.0])]
        witnesses = [[2.0, 0.5], [1.0, 0.5]]
        w = AffineSubspace(np.array([0.0, 0.5]), np.array([[1.0, 0.0]]))
        v = AffineSubspace(np.array([1.5, 0.0]), np.array([[0.0, 1.0]]))
        start = time.perf_counter()
        good = verify_stabbing(StabbingPair(w, v, [1.5, 0.5]),
                               bodies, witnesses)
        v_bad = AffineSubspace(np.array([0.5, 0.0]), np.array([[0.0, 1.0]]))
        through = verify_stabbing(StabbingPair(w, v_bad, [0.5, 0.5]),
                                  bodies, witnesses)
        w_bad = AffineSubspace(np.array([0.0, 2.0]), np.array([[1.0, 0.0]]))
        off = verify_stabbing(StabbingPair(w_bad, v, [1.5, 2.0]),
                              bodies, witnesses)
        elapsed = time.perf_counter() - start
        assert good.witness_ok and good.surround_ok
        assert not through.witness_ok and through.surround_ok is None
        assert not off.witness_ok and off.surround_ok is None
        assert elapsed < 1.0


def test_criterion_10_oracle_equivalence():
    with criterion(10, "distances match closed-form oracles"):
        rng = np.random.default_rng(105)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            c1, c2 = rng.uniform(-3, 3, size=(2, d))
            r1, r2 = rng.uniform(0.2, 1.2, size=2)
            res = min_distance(Ball(c1, r1), Ball(c2, r2))
            assert abs(res.distance
                       - ball_ball_distance(c1, r1, c2, r2)) <= 1e-6
        for _ in range(150):
            d = int(rng.integers(1, 4))
            lo1 = rng.uniform(-3, 0, size=d)
            hi1 = lo1 + rng.uniform(0.4, 2, size=d)
            lo2 = rng.uniform(0, 3, size=d)
            hi2 = lo2 + rng.uniform(0.4, 2, size=d)
            res = min_distance(HPolytope.box(lo1, hi1),
                               HPolytope.box(lo2, hi2))
            assert abs(res.distance
                       - box_box_distance(lo1, hi1, lo2, hi2)) <= 1e-6
        done = 0
        while done < 150:
            p = rng.uniform(-4, 4, size=2)
            a = rng.uniform(-4, 4, size=2)
            b = a + rng.uniform(-3, 3, size=2)
            if np.linalg.norm(b - a) < 1e-3:
                continue
            res = min_distance(VPolytope([p]), VPolytope([a, b]))
            exact, _ = segment_point_distance(p, a, b)
            assert abs(res.distance - exact) <= 1e-6
            done += 1
