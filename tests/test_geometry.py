"""Exact-arithmetic-free geometry: partitions, hulls, simplices."""
import numpy as np
import pytest

from hollowkit import (AffineSubspace, DegenerateSimplexError, Hyperplane,
                       Simplex, VPolytope, affine_hull, barycentric,
                       radon_partition)
from helpers import is_intersecting_bipartition

MEMBER_TOL = 1e-7
CROSSING_BARY_TOL = 1e-9

# (points per instance, dimension, instance count): always d + 2 points,
# the smallest count that forces an intersecting bipartition.
RADON_SWEEP = [(3, 1, 400), (4, 2, 300), (5, 3, 200), (6, 4, 100)]


def test_radon_triangle_with_interior_point():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.5]])
    part = radon_partition(pts)
    assert part.part1 == frozenset({0, 1, 2})
    assert part.part2 == frozenset({3})
    assert np.allclose(part.crossing_point, [1.0, 0.5], atol=1e-9)


def test_radon_crossing_diagonals():
    pts = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    part = radon_partition(pts)
    assert part.as_sets() == {frozenset({0, 1}), frozenset({2, 3})}
    assert np.allclose(part.crossing_point, [1.0, 1.0], atol=1e-9)


def test_radon_three_points_on_line():
    pts = np.array([[0.0], [1.0], [2.0]])
    part = radon_partition(pts)
    assert part.as_sets() == {frozenset({1}), frozenset({0, 2})}
    assert np.allclose(part.crossing_point, [1.0], atol=1e-9)


def test_radon_four_collinear_points():
    """Four points on a line in the plane: the lifted matrix has rank 2, so
    the null space has dimension 2 and a null vector is searched for."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    part = radon_partition(pts)
    assert part.as_sets() == {frozenset({1, 2}), frozenset({0, 3})}
    for side in (part.part1, part.part2):
        hull = VPolytope(pts[sorted(side)])
        assert hull.distance(part.crossing_point) <= MEMBER_TOL


def test_radon_against_lp_bipartitions():
    rng = np.random.default_rng(20240817)
    for count, dim, instances in RADON_SWEEP:
        for _ in range(instances):
            pts = rng.normal(size=(count, dim)) * rng.uniform(0.5, 3.0)
            part = radon_partition(pts)
            assert is_intersecting_bipartition(pts, part.part1, part.part2), (
                pts, part.as_sets())
            # the crossing point is in both hulls
            for side in (part.part1, part.part2):
                hull = VPolytope(pts[sorted(side)])
                assert hull.distance(part.crossing_point) <= MEMBER_TOL


def test_radon_partition_is_a_partition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.normal(size=(4, 2))
        part = radon_partition(pts)
        assert part.part1 | part.part2 == frozenset(range(4))
        assert not part.part1 & part.part2
        assert part.part1 and part.part2


def test_affine_hull_dimensions():
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(0, d + 1))
        base = rng.normal(size=d)
        dirs = rng.normal(size=(k, d))
        coeffs = rng.normal(size=(12, k))
        pts = base + (coeffs @ dirs if k else np.zeros((12, d)))
        hull = affine_hull(pts)
        assert hull.dim == np.linalg.matrix_rank(dirs) if k else hull.dim == 0
        for p in pts:
            assert hull.distance(p) <= 1e-8 * (1.0 + np.abs(pts).max())


def test_affine_subspace_round_trip():
    rng = np.random.default_rng(2)
    base = np.array([1.0, -2.0, 0.5])
    basis = np.linalg.qr(rng.normal(size=(3, 2)))[0].T[:2]
    sub = AffineSubspace(base, basis)
    for _ in range(100):
        t = rng.normal(size=2)
        x = sub.lift(t)
        assert np.allclose(sub.coords(x), t, atol=1e-10)
        assert sub.distance(x) <= 1e-10
        y = x + rng.normal(size=3)
        proj = sub.project(y)
        assert sub.distance(proj) <= 1e-10
        # projection is orthogonal: residual is normal to every basis row
        assert np.abs(basis @ (y - proj)).max() <= 1e-9


def test_hyperplane_signed_side():
    hp = Hyperplane(np.array([0.0, 1.0]), 2.0)
    assert abs(hp.side([0.0, 2.0])) <= 1e-12
    assert hp.side([0.0, 3.0]) == pytest.approx(1.0)
    assert hp.side([5.0, 0.0]) == pytest.approx(-2.0)


def test_simplex_volume_and_membership():
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert tri.volume == pytest.approx(0.5)
    assert tri.contains([0.25, 0.25])
    assert not tri.contains([0.8, 0.8])
    tet = Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert tet.volume == pytest.approx(1.0 / 6.0)
    # a 2-simplex embedded in 3-space: area, not volume
    flat = Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert flat.volume == pytest.approx(0.5)


def test_simplex_rejects_degenerate_vertices():
    with pytest.raises(DegenerateSimplexError):
        Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSimplexError):
        Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-12]])
    # smallness alone is not degeneracy: the gate is relative to diameter
    tiny = Simplex([[0.0, 0.0], [1e-12, 0.0]])
    assert tiny.dim == 1


def test_barycentric_round_trip():
    rng = np.random.default_rng(9)
    verts = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.5]])
    tri = Simplex(verts)
    for _ in range(200):
        w = rng.dirichlet(np.ones(3))
        p = w @ verts
        back = barycentric(tri, p)
        assert np.allclose(back, w, atol=1e-9)
        assert tri.contains(p)


def test_barycentric_detects_outside_points():
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = barycentric(tri, [0.75, 0.75])
    assert w.min() < -1e-6
