"""Grid certification of hollows and stabbing-pair verification."""
import itertools
import logging
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hollowkit import (AffineSubspace, Ball, CriticalFamily,
                       DegenerateSimplexError, GridResolutionError, HPolytope,
                       HollowNotFoundError, IntersectionBody, NoHollowError,
                       StabbingPair, VPolytope, boundary_attribution,
                       certify_hollow, check_critical, hausdorff_convex,
                       hollow_simplex, hull_vs_simplex, verify_stabbing)
from hollowkit import hollow
from hollowkit.geometry import Simplex
from hollowkit.hollow import (BOX_EXPAND, MAX_GRID_CELLS, MIN_CELLS_PER_AXIS,
                              Grid, _hollow_cells, _slabs)
from hollowkit.scenes import load_scene
from conftest import disk_centers, side_rectangle
from helpers import (bounded_component_cells, grid_hull_ratios, grid_mask,
                     whole_grid_cells, whole_mask_attribution)

DATA = os.path.join(os.path.dirname(__file__), "data")

DISK_RES = 0.005
RECT_RES = 0.01


@pytest.fixture(scope="module")
def disks_cert(disks_family):
    return certify_hollow(disks_family, DISK_RES)


@pytest.fixture(scope="module")
def rects_cert(rects_family):
    return certify_hollow(rects_family, RECT_RES)


@pytest.fixture(scope="module")
def gap_pair():
    """Two unit boxes separated along x, with the stabbing data around them."""
    bodies = [HPolytope.box([0.0, 0.0], [1.0, 1.0]),
              HPolytope.box([2.0, 0.0], [3.0, 1.0])]
    w = AffineSubspace(np.array([0.0, 0.5]), np.array([[1.0, 0.0]]))
    v = AffineSubspace(np.array([1.5, 0.0]), np.array([[0.0, 1.0]]))
    witnesses = np.array([[2.0, 0.5], [1.0, 0.5]])
    return bodies, w, v, witnesses


def test_disks_component(disks_cert):
    assert disks_cert.bounded
    assert disks_cert.component_count == 1
    assert disks_cert.resolution == DISK_RES
    assert 2100 <= disks_cert.cell_count <= 2300
    assert 0.05 < disks_cert.measure < 0.06
    assert disks_cert.hull_vertices.shape[0] >= 3


def test_disks_cells_are_uncovered(disks_cert):
    idx = tuple(disks_cert.cells.T)
    assert not grid_mask(disks_cert.grid)[idx].any()


def test_disks_hull_close_to_simplex(disks_cert, disks_hollow):
    assert hull_vs_simplex(disks_cert, disks_hollow) < 0.015


def test_disks_boundary_attribution(disks_cert):
    assert boundary_attribution(disks_cert) == frozenset({0, 1, 2})


def test_segments_cover_no_neighbour_of_the_hollow(segments_family):
    """Segments hold no cell center, so no face neighbour of the 2400
    hollow cells is covered and no body is attributed."""
    cert = certify_hollow(segments_family, 0.05)
    assert cert.cell_count == 2400
    assert not grid_mask(cert.grid).any()
    assert boundary_attribution(cert) == frozenset()


def test_disks_measure_stable_under_refinement(disks_family, disks_cert):
    coarse = certify_hollow(disks_family, 2.0 * DISK_RES)
    assert abs(coarse.measure - disks_cert.measure) < 0.01


def test_rects_component(rects_cert, rects_family):
    assert rects_cert.component_count == 1
    assert 5.0 <= rects_cert.measure <= 6.0
    hs = hollow_simplex(rects_family)
    assert hull_vs_simplex(rects_cert, hs) < 0.05
    assert boundary_attribution(rects_cert) == frozenset({0, 1, 2})


def test_ball_grid_builds_no_point_list(balls_family, monkeypatch):
    """A ball-only 3-D grid is rasterized on its axes: ``contains_batch``
    is handed no grid point."""
    counted = []
    contains_batch = Ball.contains_batch

    def counting(self, points, tol=1e-7):
        counted.append(len(points))
        return contains_batch(self, points, tol)

    monkeypatch.setattr(Ball, "contains_batch", counting)
    W = balls_family.witnesses
    span = float((W.max(axis=0) - W.min(axis=0)).max())
    cert = certify_hollow(balls_family, span / 40)
    assert cert.bounded and len(cert.grid.shape) == 3
    assert sum(counted) == 0


def slab_bodies(d):
    """A ball, a rotated H-polytope, a V-polytope and an intersection of a
    ball and a box, each covering part of the cube [-1.2, 1.2]^d."""
    turn = np.eye(d)
    turn[:2, :2] = [[0.8, -0.6], [0.6, 0.8]]
    rows = np.vstack([turn, -turn])
    ring = np.array([[np.cos(t), np.sin(t)] for t in np.arange(7) * 0.9])
    points = np.hstack([ring, np.resize([0.4, -0.4], (7, d - 2))])
    return [Ball(np.full(d, 0.3), 0.7),
            HPolytope(rows, np.full(2 * d, 0.5) + 0.1 * np.arange(2 * d)),
            VPolytope(0.6 * points - 0.2),
            IntersectionBody([Ball(np.full(d, -0.3), 0.8),
                              HPolytope.box(np.full(d, -0.9),
                                            np.full(d, 0.1))])]


def slab_cage(d):
    """A simplex reaching into every corner region of [-1.2, 1.2]^d."""
    return Simplex(np.vstack([np.eye(d), -np.ones(d)]) * 1.15)


@pytest.mark.parametrize("shape", [(23, 21), (22, 20, 21)])
def test_slabbed_cover_is_the_whole_grid_cover(shape, monkeypatch):
    """With slabs of 4 layers and a partial last slab, and with slabs
    smaller than a layer read in chunks of 37 cells that cut lines apart,
    the hollow cells read on the cage's rows for each body kind, alone and
    in the union, equal the uncovered cells inside the cage of one
    whole-grid cover bit for bit."""
    d = len(shape)
    lo = np.full(d, -1.2)
    resolution = 2.4 / min(shape)
    bodies = slab_bodies(d)
    cage = slab_cage(d)
    inside = whole_grid_cells(Grid(lo, resolution, shape, ()), cage)
    layer = math.prod(shape[1:])
    assert shape[0] % 4
    for slab_cells, step, chunk in ((4 * layer + 3, 4, hollow.CHUNK_CELLS),
                                    (layer - 1, 1, 37)):
        monkeypatch.setattr(hollow, "SLAB_CELLS", slab_cells)
        monkeypatch.setattr(hollow, "CHUNK_CELLS", chunk)
        assert _slabs(shape) == [slice(i, i + step)
                                 for i in range(0, shape[0], step)]
        for group in [[b] for b in bodies] + [bodies]:
            grid = Grid(lo, resolution, shape, tuple(group))
            reference = whole_grid_cells(grid, cage)
            assert 0 < reference.shape[0] < inside.shape[0]
            assert np.array_equal(_hollow_cells(grid, cage), reference)


def scene_family(scene):
    return check_critical(list(load_scene(os.path.join(DATA, scene)).bodies))


def test_certify_asks_the_bodies_only_about_the_cage_rows(monkeypatch):
    """The grid's work as a count: on balls3 the bodies are asked about
    547756 of the 2097152 cells (26.1%), and, each about the cells the
    ones before it left uncovered, 947640 times in all (45.2%), where a
    cover of the whole box asks each ball about every cell.  No filter
    of the cage's cells asks fewer than the cage's 24.8%: the witnesses
    are a regular tetrahedron, a third of the cube they span, and the box
    is that cube widened 1.1 times on each axis.  On disks body 0 is
    asked about 43% of the cells.  Moved 1e4 or 1e6 along the diagonal,
    each family keeps its cells and its shares: the rows are read
    relative to the cage's first vertex."""
    asked = []
    cover = Ball._cover

    def counting(self, columns):
        asked.append((self, len(columns[0])))
        return cover(self, columns)

    monkeypatch.setattr(Ball, "_cover", counting)
    for scene, count, share in (("disks.json", 822, 0.45),
                                ("balls3.json", 380, 0.27)):
        bodies = load_scene(os.path.join(DATA, scene)).bodies
        for shift in (0.0, 1e4, 1e6):
            family = check_critical([Ball(b.center + shift, b.radius)
                                     for b in bodies])
            asked.clear()
            cert = certify_hollow(family)
            cells = math.prod(cert.grid.shape)
            assert cert.cell_count == count
            assert sum(n for body, n in asked
                       if body is family.bodies[0]) <= share * cells
            if scene == "balls3.json":
                assert shift or cells == 128 ** 3
                assert sum(n for _, n in asked) <= 0.5 * cells


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.floats(0.0, 1e6), st.floats(0.0, 2.0 * math.pi))
def test_translated_disks_certify_the_same_cells(norm, angle):
    """A verdict does not move with the scene: the disks translated by any
    vector of norm up to 1e6 certify 822 cells, as they do in place."""
    move = norm * np.array([math.cos(angle), math.sin(angle)])
    bodies = load_scene(os.path.join(DATA, "disks.json")).bodies
    family = check_critical([Ball(b.center + move, b.radius) for b in bodies])
    assert certify_hollow(family).cell_count == 822


@pytest.mark.parametrize("scene", ["disks.json", "vpoly.json", "balls3.json"])
def test_boundary_attribution_matches_whole_grid_masks(scene):
    """The attribution asks each body about the covered neighbours only,
    and finds the bodies that one whole-grid mask per body gives: all of
    them."""
    cert = certify_hollow(scene_family(scene))
    bodies = whole_mask_attribution(cert)
    assert bodies == set(range(len(cert.grid.bodies)))
    assert boundary_attribution(cert) == bodies


def test_certify_hollow_peak_does_not_grow_with_the_grid():
    """The traced peak of certifying the 3-D balls scene stays under 1 MB,
    a bound that does not grow with the grid's 2.1M cells: one slab's
    cover is alive at a time, and no array spans the grid."""
    from scipy.spatial import ConvexHull  # noqa: F401 -- load before tracing

    family = scene_family("balls3.json")
    tracemalloc.start()
    try:
        cert = certify_hollow(family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.grid.shape == (128, 128, 128)
    assert peak < 2 ** 20


def test_hull_vs_simplex_builds_no_vpolytope(disks_cert, disks_hollow,
                                             monkeypatch):
    """The Hausdorff distance reads the two vertex lists: no hull's facet
    rows are built for it."""
    expected = hull_vs_simplex(disks_cert, disks_hollow)

    def refuse(self, vertices):
        raise AssertionError("VPolytope built")

    monkeypatch.setattr(VPolytope, "__init__", refuse)
    assert hull_vs_simplex(disks_cert, disks_hollow) == expected


def named_family(name, rects_family):
    """The critical family a test parameter names: a scene file, or one
    built below."""
    return {"rects": lambda: rects_family,
            "ball-box": lambda: check_critical(ball_box_bodies()),
            "tetra-slabs": tetra_slab_family,
            "tetra-hslabs": tetra_hslab_family,
            "mixed": mixed_family}.get(name, lambda: scene_family(name))()


@pytest.fixture(scope="module",
                params=["disks.json", "vpoly.json", "balls3.json", "rects",
                        "mixed"])
def certified(request, rects_family):
    """A critical family and its certificate at the default resolution."""
    family = named_family(request.param, rects_family)
    return family, certify_hollow(family)


def test_cage_cells_are_every_bounded_grid_component(certified):
    """The uncovered cells inside the witness simplex are exactly the cells
    of all the uncovered components that face adjacency keeps off the grid
    box's faces, not only the largest."""
    _, cert = certified
    assert cert.cell_count > 0
    assert cert.component_count == 1 and cert.bounded
    assert np.array_equal(cert.cells, bounded_component_cells(cert.grid))


def test_every_cell_rechecks_from_the_oracles(certified):
    """Each reported center misses every body at ``tol = 0`` and, solved on
    its own, has all barycentric coordinates positive in the witness
    simplex."""
    family, cert = certified
    centers = cert.centers
    for body in family.bodies:
        assert not body.contains_batch(centers, tol=0.0).any()
    W = family.witnesses
    system = np.vstack([W.T, np.ones(W.shape[0])])
    for c in centers:
        assert np.linalg.solve(system, np.append(c, 1.0)).min() > 0.0


@pytest.mark.parametrize("certified", [
    "disks.json", "vpoly.json", "balls3.json", "rects", "tetra-hslabs",
    "mixed"], indirect=True)
def test_hollow_cells_lie_inside_the_hollow_simplex(certified):
    """The "⊆" half of the theorem that the hollow's closed convex hull is
    the hollow simplex: every hollow cell center has all barycentric
    coordinates positive in it (the smallest are 0.0013 on the mixed
    family, 0.0015 on rects and 0.0041 on the tetrahedron's H-slabs, whose
    420k cells the other certificate tests would recheck one by one)."""
    family, cert = certified
    bary = hollow_simplex(family).simplex.barycentrics(cert.centers)
    assert bary.min() > 0.0


def ball_box_bodies():
    """Two unit disks and a unit disk clipped by a box, on the side-1.8
    triangle: the box cuts the first disk 0.8 from its center, on the side
    away from the centroid, so the clip never reaches the hollow."""
    c = disk_centers(1.8)
    u = (c[0] - c.mean(axis=0)) / np.linalg.norm(c[0] - c.mean(axis=0))
    w = np.array([-u[1], u[0]])
    clip = HPolytope(np.array([u, -u, w, -w]),
                     np.array([u @ c[0] + 0.8, -(u @ c[0]) + 1.5,
                               w @ c[0] + 1.5, -(w @ c[0]) + 1.5]))
    return ([IntersectionBody([Ball(c[0], 1.0), clip], witness=c[0])]
            + [Ball(x, 1.0) for x in c[1:]])


def mixed_family():
    """A body of each kind: :func:`ball_box_bodies` with the second disk
    replaced by the regular octagon inscribed in it, a V-polytope whose
    inradius 0.92 still overlaps each unit disk 1.8 away."""
    bodies = ball_box_bodies()
    angles = np.arange(8) * (np.pi / 4.0)
    bodies[1] = VPolytope(disk_centers(1.8)[1]
                          + np.column_stack([np.cos(angles), np.sin(angles)]))
    return check_critical(bodies)


def tetra_slabs():
    """The four facets of the regular tetrahedron on (1, 1, 1), (1, -1, -1),
    (-1, 1, -1) and (-1, -1, 1), each with its outward unit normal."""
    T = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    for j in range(4):
        face = np.delete(T, j, axis=0)
        normal = face.mean(axis=0) - T[j]
        yield face, normal / np.linalg.norm(normal)


def tetra_slab_family():
    """Each facet of :func:`tetra_slabs` thickened by 0.1 along its normal
    on either side into a 6-vertex V-polytope: any three share a corner of
    the tetrahedron, all four share no point, and the hollow is the
    tetrahedron's interior less the slabs."""
    return check_critical([VPolytope(np.vstack([face + 0.1 * normal,
                                                face - 0.1 * normal]))
                           for face, normal in tetra_slabs()])


def tetra_hslab_family():
    """The slabs of :func:`tetra_slab_family` as H-polytopes, their rows
    built here: the facet's plane shifted 0.1 either way, and, for each
    edge, the plane through it along the normal, away from the facet's
    third corner."""
    bodies = []
    for face, normal in tetra_slabs():
        rows = [normal, -normal]
        offsets = [normal @ face[0] + 0.1, 0.1 - normal @ face[0]]
        for k in range(3):
            a, b = np.delete(face, k, axis=0)
            out = np.cross(normal, b - a)
            out *= -np.sign(out @ (face[k] - a))
            rows.append(out)
            offsets.append(out @ a)
        bodies.append(HPolytope(rows, offsets))
    return check_critical(bodies)


@pytest.mark.parametrize(
    "scene", ["disks.json", "vpoly.json", "rects", "ball-box", "balls3.json",
              "tetra-slabs", "tetra-hslabs", "mixed"])
def test_grid_hull_approaches_the_hollow_simplex_at_first_order(
        scene, rects_family):
    """The "⊇" half: from certify_hollow's default cell size h down to h/8
    (h/2 for balls3, whose h/4 grid is over ``MAX_GRID_CELLS``; 4h to h
    for the tetrahedron's slabs, whose 420k cells at h take 0.4 s), the
    grid hull lies within 3 h of the hollow simplex, so it tends to it as
    h -> 0.  The largest measured ratios: 2.36 on disks, 1.66 on vpoly,
    1.51 on rects, 1.92 on the ball-box intersection, 1.36 on balls3, 1.53
    on the slabs, as V- and as H-polytopes (0.17 at 4h, 1.20 at 2h), and
    1.56 on the mixed family."""
    family = named_family(scene, rects_family)
    scales = {"balls3.json": (1.0, 0.5), "tetra-slabs": (4.0, 2.0, 1.0),
              "tetra-hslabs": (4.0, 2.0, 1.0)}.get(
                  scene, (1.0, 0.5, 0.25, 0.125))
    assert max(grid_hull_ratios(family, scales)) <= 3.0


@pytest.mark.parametrize("scene", ["disks.json", "balls3.json"])
def test_cells_do_not_depend_on_the_body_order(scene):
    """Bodies and witnesses permuted together, in every order, give the
    same cells; the certificate is passed along unread."""
    family = scene_family(scene)
    cells = certify_hollow(family).cells
    for perm in itertools.permutations(range(len(family.bodies))):
        permuted = CriticalFamily([family.bodies[i] for i in perm],
                                  family.witnesses[list(perm)],
                                  family.certificate, family.tol)
        assert np.array_equal(certify_hollow(permuted).cells, cells)


def test_grid_budget_is_refused_before_allocating(disks_family):
    """A cell size that would give more than ``MAX_GRID_CELLS`` cells (here
    about 9.5e9) is refused with the count and the budget, before any cell
    is tested."""
    tracemalloc.start()
    try:
        with pytest.raises(GridResolutionError,
                           match=f"cells; at most {MAX_GRID_CELLS} allowed"):
            certify_hollow(disks_family, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_no_hollow_when_conditions_below_dimension():
    fam = check_critical([HPolytope.box([0.0, 0.0], [1.0, 1.0]),
                          HPolytope.box([2.0, 0.0], [3.0, 1.0])])
    with pytest.raises(NoHollowError):
        certify_hollow(fam, 0.05)


def test_grid_rejects_line_families(pair_family):
    with pytest.raises(ValueError):
        certify_hollow(pair_family, 0.01)


def test_grid_resolution_floor(disks_family):
    with pytest.raises(GridResolutionError):
        certify_hollow(disks_family, 0.5)


@pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan, np.inf])
def test_grid_rejects_bad_resolution(disks_family, resolution):
    with pytest.raises(GridResolutionError, match="positive finite"):
        certify_hollow(disks_family, resolution)


def test_default_resolution_is_128_cells_across_the_grid_box(disks_family):
    W = disks_family.witnesses
    span = float((W.max(axis=0) - W.min(axis=0)).max())
    cert = certify_hollow(disks_family)
    assert cert.resolution == BOX_EXPAND * span / 128.0
    assert max(cert.grid.shape) == 128
    again = certify_hollow(disks_family, cert.resolution)
    assert np.array_equal(again.cells, cert.cells)


@pytest.mark.parametrize("apex, shape", [(0.5, (160, 20)), (0.3, (267, 20))])
def test_default_resolution_keeps_20_cells_across_a_flat_family(apex, shape):
    """The sides of a flat triangle, thickened by 0.005, are critical; 128
    cells across its width would leave 17 (apex 0.5) or 10 (apex 0.3)
    cells across its height, so the default cell size shrinks to give
    ``MIN_CELLS_PER_AXIS`` there."""
    corners = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, apex]])
    family = check_critical([side_rectangle(corners[i], corners[(i + 1) % 3],
                                            0.005) for i in range(3)])
    W = family.witnesses
    span = W.max(axis=0) - W.min(axis=0)
    cert = certify_hollow(family)
    assert cert.resolution == BOX_EXPAND * span.min() / MIN_CELLS_PER_AXIS
    assert cert.grid.shape == shape
    assert cert.bounded and cert.cell_count > 0


def test_default_resolution_names_collinear_witnesses(disks_family):
    """Witnesses on one line span no triangle.  The simplex is built before
    the default resolution, which would be zero across the line, so the
    error names the simplex, not the resolution."""
    W = disks_family.witnesses.copy()
    W[:, 1] = 0.0
    flat = CriticalFamily(disks_family.bodies, W, disks_family.certificate,
                          disks_family.tol)
    with pytest.raises(DegenerateSimplexError):
        certify_hollow(flat)


@pytest.mark.parametrize("side, found", [(1.74, True), (1.735, False)])
def test_grid_is_retried_once_at_half_the_cell_size(side, found, caplog):
    """Unit disks on a wide triangle leave a hollow a little over one cell
    across at 20.2 cells on the narrowest axis: the first grid finds no
    hollow cell, the one at half the cell size does at side 1.74 and does
    not at side 1.735, and the error names both cell sizes tried."""
    fam = check_critical([Ball(c, 1.0) for c in disk_centers(side)])
    W = fam.witnesses
    h = 1.1 * float((W.max(axis=0) - W.min(axis=0)).min()) / 20.2
    failed = [f"no hollow cell at resolution {h:g}"]
    with caplog.at_level(logging.INFO, logger="hollowkit.hollow"):
        if found:
            cert = certify_hollow(fam, h)
        else:
            with pytest.raises(HollowNotFoundError) as err:
                certify_hollow(fam, h)
            assert str(err.value) == (f"no hollow cell at resolution {h:g} "
                                      f"or at half of it, {h / 2.0:g}")
            failed.append(f"no hollow cell at resolution {h / 2.0:g}")
    assert [r.getMessage() for r in caplog.records] == failed
    if found:
        assert cert.resolution == h / 2.0
        assert cert.bounded and cert.cell_count >= 1


def test_hausdorff_convex_closed_forms():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert hausdorff_convex(tri, tri) == 0.0
    a = [[0.0], [1.0]]
    b = [[0.5], [1.5]]
    assert hausdorff_convex(a, b) == pytest.approx(0.5)
    assert hausdorff_convex(b, a) == pytest.approx(0.5)


def test_hausdorff_convex_on_degenerate_point_lists():
    """Points, segments and repeated vertices, whose hulls have no facets:
    the vertex projections meet them as any other list."""
    # a point against a segment off it: the far end decides
    point, segment = [[1.0, 2.0]], [[0.0, 0.0], [4.0, 0.0]]
    assert hausdorff_convex(point, segment) == pytest.approx(np.hypot(3.0, 2.0))
    assert hausdorff_convex(segment, point) == pytest.approx(np.hypot(3.0, 2.0))
    # collinear lists in 3-D, interior points included: the ends decide
    line = np.array([1.0, 2.0, 2.0]) / 3.0
    a = np.outer([0.0, 0.5, 2.0, 1.0], line)
    b = np.outer([-1.0, 0.3, 2.5], line)
    assert hausdorff_convex(a, b) == pytest.approx(1.0)
    # a collinear list against a parallel one 1 away, ends 0.5 past
    lifted = np.array([[0.5, 1.0], [2.0, 1.0], [3.5, 1.0]])
    assert hausdorff_convex([[0.0, 0.0], [4.0, 0.0]], lifted) == pytest.approx(
        np.hypot(0.5, 1.0))
    # duplicated vertices change no hull
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    doubled = np.vstack([tri, tri, tri[:1]])
    assert hausdorff_convex(doubled, tri + [0.0, 2.0]) == pytest.approx(2.0)
    assert hausdorff_convex(doubled, tri) == 0.0
    # a 3-D list against itself, interior points included, is exactly 0
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(12, 3))
    assert hausdorff_convex(cloud, cloud) == 0.0
    assert hausdorff_convex(cloud, cloud[::-1]) == 0.0


def test_stabbing_pair_validation(gap_pair):
    _, w, v, _ = gap_pair
    StabbingPair(w, v, [1.5, 0.5])
    with pytest.raises(ValueError):
        StabbingPair(w, v, [1.5, 0.75])
    with pytest.raises(ValueError):
        # parallel flats never span the plane
        StabbingPair(w, AffineSubspace(np.array([0.0, 2.0]),
                                       np.array([[1.0, 0.0]])), [1.0, 2.0])
    point_flat = AffineSubspace(np.array([1.5, 0.5]),
                                np.zeros((0, 2)))
    with pytest.raises(ValueError):
        StabbingPair(w, point_flat, [1.5, 0.5])


# the overflowing distance warns before it is refused
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stabbing_pair_refuses_an_overflowing_crossing_point(gap_pair):
    """At 1e308 on the first flat the point's distance to the second flat
    overflows, and the tolerance scaled by its norm would accept it."""
    _, w, v, _ = gap_pair
    with pytest.raises(ValueError, match="off the second flat"):
        StabbingPair(w, v, [1e308, 0.5])


def test_stabbing_verified_for_gap(gap_pair):
    bodies, w, v, witnesses = gap_pair
    pair = StabbingPair(w, v, [1.5, 0.5])
    report = verify_stabbing(pair, bodies, witnesses)
    assert report.witness_ok
    assert report.surround_ok
    assert report.ok
    assert report.reasons == ()
    assert np.all(report.witness_offsets <= 1e-9)
    assert np.all(report.clearances >= 0.5 - 1e-6)


def test_stabbing_rejects_transversal_through_body(gap_pair):
    bodies, w, _, witnesses = gap_pair
    v = AffineSubspace(np.array([0.5, 0.0]), np.array([[0.0, 1.0]]))
    pair = StabbingPair(w, v, [0.5, 0.5])
    report = verify_stabbing(pair, bodies, witnesses)
    assert not report.witness_ok
    assert report.surround_ok is None
    assert not report.ok
    assert any("meets body 0" in r for r in report.reasons)


def test_stabbing_rejects_witnesses_off_flat(gap_pair):
    bodies, _, v, witnesses = gap_pair
    w = AffineSubspace(np.array([0.0, 2.0]), np.array([[1.0, 0.0]]))
    pair = StabbingPair(w, v, [1.5, 2.0])
    report = verify_stabbing(pair, bodies, witnesses)
    assert not report.witness_ok
    assert report.surround_ok is None
    assert len(report.reasons) == 2
    assert np.allclose(report.witness_offsets, 1.5)


def test_stabbing_rejects_open_gap(gap_pair):
    bodies, w, v, _ = gap_pair
    pair = StabbingPair(w, v, [1.5, 0.5])
    report = verify_stabbing(pair, bodies[:1], [[1.0, 0.5]])
    assert report.witness_ok
    assert report.surround_ok is False
    assert report.reasons == ("a 1-dimensional stabbing flat needs 2 bodies "
                              "and 2 witnesses, got 1 and 1",)


def test_stabbing_rejects_a_witness_outside_another_body(gap_pair):
    """Witness j must lie in every body but j; the same point twice lies
    in body 1 only, so witness 1 misses body 0."""
    bodies, w, v, _ = gap_pair
    pair = StabbingPair(w, v, [1.5, 0.5])
    report = verify_stabbing(pair, bodies, [[2.0, 0.5], [2.0, 0.5]])
    assert not report.witness_ok
    assert report.surround_ok is None
    assert report.reasons == ("witness 1 misses body 0",)
    assert report.clearances is None


@pytest.mark.parametrize("keep, witnesses", [
    (2, [[2.0, 0.5]]), (1, [[2.0, 0.5], [1.0, 0.5]])])
def test_stabbing_rejects_a_wrong_count(gap_pair, keep, witnesses):
    """A 1-dimensional first flat needs 2 bodies and 2 witnesses."""
    bodies, w, v, _ = gap_pair
    pair = StabbingPair(w, v, [1.5, 0.5])
    report = verify_stabbing(pair, bodies[:keep], witnesses)
    assert report.witness_ok
    assert report.surround_ok is False
    assert report.reasons == (
        "a 1-dimensional stabbing flat needs 2 bodies and 2 witnesses, "
        f"got {keep} and {len(witnesses)}",)


def _boxes_on_a_line(x_ranges):
    return [HPolytope.box([lo, 0.0], [hi, 1.0]) for lo, hi in x_ranges]


def test_stabbing_degenerate_witnesses_are_a_reason():
    """Overlapping boxes share the point (1.5, 0.5), so it is a valid
    witness for both, and the two witnesses span no segment."""
    bodies = _boxes_on_a_line([(0.0, 2.0), (1.0, 3.0)])
    w = AffineSubspace([0.0, 0.5], [[1.0, 0.0]])
    pair = StabbingPair(w, AffineSubspace([4.0, 0.0], [[0.0, 1.0]]),
                        [4.0, 0.5])
    report = verify_stabbing(pair, bodies, [[1.5, 0.5], [1.5, 0.5]])
    assert report.witness_ok
    assert report.surround_ok is False
    assert len(report.reasons) == 1
    assert report.reasons[0].startswith(
        "witnesses span no 1-simplex on the stabbing flat: simplex is degenerate")


def test_stabbing_rejects_a_crossing_point_outside_the_witness_simplex():
    """The transversal x = 6 clears both boxes, but beyond the witness
    segment [0.5, 3.5] it crosses the unbounded part of the complement."""
    bodies = _boxes_on_a_line([(0.0, 2.0), (3.0, 5.0)])
    w = AffineSubspace([0.0, 0.5], [[1.0, 0.0]])
    pair = StabbingPair(w, AffineSubspace([6.0, 0.0], [[0.0, 1.0]]),
                        [6.0, 0.5])
    report = verify_stabbing(pair, bodies, [[3.5, 0.5], [0.5, 0.5]])
    assert report.witness_ok
    assert np.allclose(report.clearances, [4.0, 1.0])
    assert report.surround_ok is False
    assert report.reasons == ("crossing point lies outside the witness simplex",)
    inside = StabbingPair(w, AffineSubspace([2.5, 0.0], [[0.0, 1.0]]),
                          [2.5, 0.5])
    assert verify_stabbing(inside, bodies, [[3.5, 0.5], [0.5, 0.5]]).ok


def test_stabbing_thin_hollow_in_three_dimensions(disks_family):
    """n = 2 in R^3: three unit balls on the side-1.9 triangle in z = 0,
    the first flat that plane, the transversal its normal line through the
    centroid, and the disks' witnesses lifted to z = 0."""
    centers = np.hstack([disk_centers(1.9), np.zeros((3, 1))])
    balls = [Ball(c, 1.0) for c in centers]
    centroid = centers.mean(axis=0)
    w = AffineSubspace(np.zeros(3), np.eye(3)[:2])
    v = AffineSubspace(centroid, np.eye(3)[2:])
    witnesses = np.hstack([disks_family.witnesses, np.zeros((3, 1))])
    report = verify_stabbing(StabbingPair(w, v, centroid), balls, witnesses)
    assert report.ok
    assert report.reasons == ()
    assert np.allclose(report.clearances, 1.9 / np.sqrt(3.0) - 1.0, atol=1e-7)


def _simplex_balls(d, edge):
    """d + 1 unit balls on a regular d-simplex of the given edge, centered
    at the origin, and their critical family from ``check_critical``."""
    corners = np.eye(d + 1) * (edge / np.sqrt(2.0))
    corners -= corners.mean(axis=0)
    frame = np.linalg.svd(corners)[2][:d]
    centers = corners @ frame.T
    balls = [Ball(c, 1.0) for c in centers]
    family = check_critical(balls)
    assert family.n == family.d == d
    return centers, balls, family


def _point_transversal_report(d, edge):
    """The balls of ``_simplex_balls`` checked with the centroid as a point
    transversal and the family's witnesses."""
    centers, balls, family = _simplex_balls(d, edge)
    centroid = centers.mean(axis=0)
    pair = StabbingPair(AffineSubspace(centroid, np.eye(d)),
                        AffineSubspace(centroid, np.zeros((0, d))), centroid)
    return verify_stabbing(pair, balls, family.witnesses)


def test_stabbing_point_transversal_in_four_dimensions():
    """n = d = 4: five unit balls on a regular 4-simplex of edge 1.6 leave a
    hollow around the centroid, at clearance 1.6 sqrt(2/5) - 1 ~ 0.0119."""
    report = _point_transversal_report(4, 1.6)
    assert report.ok
    assert report.reasons == ()
    assert np.allclose(report.clearances, 1.6 * np.sqrt(0.4) - 1.0, atol=1e-7)


def test_stabbing_point_transversal_in_six_dimensions():
    """n = d = 6: seven unit balls on a regular 6-simplex of edge 1.54, at
    clearance 1.54 sqrt(3/7) - 1 ~ 0.00817.  A point transversal needs no
    clipping polytope."""
    report = _point_transversal_report(6, 1.54)
    assert report.ok
    assert report.reasons == ()
    assert np.allclose(report.clearances, 1.54 * np.sqrt(3.0 / 7.0) - 1.0,
                       atol=1e-7)


def test_stabbing_line_transversal_in_seven_dimensions():
    """n = 6 in R^7: the balls of the regular 6-simplex of edge 1.54 in
    x7 = 0, the transversal the x7 axis.  The line is clipped in its own
    frame, 14 rows on R^1; the box's 26 rows in R^7 would give 657800
    vertex candidates.  Each clearance is 1.54 sqrt(3/7) - 1 ~ 0.00817."""
    centers, _, family = _simplex_balls(6, 1.54)
    lift = np.zeros((7, 1))
    balls = [Ball(c, 1.0) for c in np.hstack([centers, lift])]
    origin = np.zeros(7)
    pair = StabbingPair(AffineSubspace(origin, np.eye(7)[:6]),
                        AffineSubspace(origin, np.eye(7)[6:]), origin)
    report = verify_stabbing(pair, balls, np.hstack([family.witnesses, lift]))
    assert report.ok
    assert report.reasons == ()
    assert np.allclose(report.clearances, 1.54 * np.sqrt(3.0 / 7.0) - 1.0,
                       atol=1e-7)


def test_stabbing_point_transversal_for_disks(three_disks, disks_family):
    """n = d: the transversal is the hollow's crossing point itself."""
    centroid = np.mean([b.center for b in three_disks], axis=0)
    w = AffineSubspace(centroid, np.eye(2))
    v = AffineSubspace(centroid, np.zeros((0, 2)))
    pair = StabbingPair(w, v, centroid)
    report = verify_stabbing(pair, three_disks, disks_family.witnesses)
    assert report.ok
    assert report.reasons == ()
    # circumradius of the side-1.9 triangle minus the unit radius, ~0.0970
    expected = 1.9 / np.sqrt(3.0) - 1.0
    assert np.allclose(report.clearances, expected, atol=1e-7)
