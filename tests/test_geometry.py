"""Exact-arithmetic-free geometry: hulls, subspaces, simplices."""
import numpy as np
import pytest

from hollowkit import (AffineSubspace, DegenerateSimplexError, Hyperplane,
                       Simplex, affine_hull)


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
    inside, outside = tri.barycentrics([[0.25, 0.25], [0.8, 0.8]]).min(axis=1)
    assert inside >= 0.0 > outside
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
    w = rng.dirichlet(np.ones(3), size=200)
    back = Simplex(verts).barycentrics(w @ verts)
    assert back.shape == (200, 3)
    assert np.allclose(back, w, atol=1e-9)
    assert back.min() >= -1e-9


def test_barycentric_detects_outside_points():
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    (w,) = tri.barycentrics([[0.75, 0.75]])
    assert w.min() < -1e-6
    assert w.sum() == pytest.approx(1.0)


def test_barycentric_of_a_point_off_a_plane_through_the_origin():
    """A 2-simplex in R^3: a point off its plane gets the coordinates of
    its orthogonal projection onto it, summing to one, whether the plane
    holds the origin or, moved by 3 normal + plane[0], misses it."""
    rng = np.random.default_rng(4)
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    plane, normal = frame[:, :2].T, frame[:, 2]
    w = rng.dirichlet(np.ones(3), size=50)
    heights = rng.uniform(-3.0, 3.0, size=(50, 1))
    for move in (np.zeros(3), 3.0 * normal + plane[0]):
        verts = np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 1.5]]) @ plane + move
        bary = Simplex(verts).barycentrics(w @ verts + heights * normal)
        assert np.allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(bary, w, atol=1e-9)
