"""Grid certification of hollows and stabbing-pair verification."""
import numpy as np
import pytest

from hollowkit import (AffineSubspace, Ball, GridResolutionError, HPolytope,
                       HollowNotFoundError, NoHollowError, StabbingPair,
                       boundary_attribution, certify_hollow, check_critical,
                       enclosure_check,
                       hausdorff_convex, hollow_simplex, hull_vs_simplex,
                       nearest_boundary_distance, perimeter_estimate,
                       simplex_containment, verify_stabbing)
from hollowkit.hollow import BOX_EXPAND
from conftest import disk_centers

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
    assert not disks_cert.grid.covered[idx].any()


def test_disks_hull_close_to_simplex(disks_cert, disks_hollow):
    assert hull_vs_simplex(disks_cert, disks_hollow) < 0.015


def test_disks_boundary_attribution(disks_cert, disks_hollow):
    attr = boundary_attribution(disks_cert)
    assert attr.complete
    assert attr.bodies_present == frozenset({0, 1, 2})
    assert all(len(s) >= 1 for s in attr.bodies_by_cell)
    assert all(set(s) <= {0, 1, 2} for s in attr.bodies_by_cell)
    dists = nearest_boundary_distance(attr, disks_hollow.vertices)
    # each simplex vertex touches the boundary within about a cell diagonal
    assert np.all(dists < 2.0 * np.sqrt(2.0) * DISK_RES)


def test_disks_enclosure_and_containment(disks_cert, disks_hollow):
    assert enclosure_check(disks_cert) == 1.0
    assert simplex_containment(disks_cert, disks_hollow.simplex) \
        <= np.sqrt(2.0) * DISK_RES


def test_disks_perimeter_scale(disks_cert):
    per = perimeter_estimate(disks_cert)
    assert 0.9 < per < 1.3


def test_disks_measure_stable_under_refinement(disks_family, disks_cert):
    coarse = certify_hollow(disks_family, 2.0 * DISK_RES)
    assert abs(coarse.measure - disks_cert.measure) < 0.01


def test_rects_component(rects_cert, rects_family):
    assert rects_cert.component_count == 1
    assert 5.0 <= rects_cert.measure <= 6.0
    hs = hollow_simplex(rects_family)
    assert hull_vs_simplex(rects_cert, hs) < 0.05
    attr = boundary_attribution(rects_cert)
    assert attr.complete


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


def test_grid_index_roundtrip(disks_cert):
    grid = disks_cert.grid
    for cell in disks_cert.cells[::500]:
        assert np.array_equal(grid.index_of(grid.center(cell)), cell)


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


@pytest.mark.parametrize("side, found", [(1.74, True), (1.735, False)])
def test_grid_is_retried_once_at_half_the_cell_size(side, found):
    """Unit disks on a wide triangle leave a hollow a little over one cell
    across at 20.2 cells on the narrowest axis: the first grid finds no
    bounded component, the one at half the cell size does at side 1.74 and
    does not at side 1.735."""
    fam = check_critical([Ball(c, 1.0) for c in disk_centers(side)])
    W = fam.witnesses
    h = 1.1 * float((W.max(axis=0) - W.min(axis=0)).min()) / 20.2
    with pytest.raises(HollowNotFoundError):
        certify_hollow(fam, h, retry=False)
    if not found:
        with pytest.raises(HollowNotFoundError, match="or its refinement"):
            certify_hollow(fam, h)
        return
    cert = certify_hollow(fam, h)
    assert cert.resolution == h / 2.0
    assert cert.bounded and cert.cell_count >= 1


@pytest.mark.parametrize("resolution", [0.0, -0.01, np.nan])
def test_stabbing_rejects_bad_resolution(gap_pair, resolution):
    bodies, w, v, witnesses = gap_pair
    pair = StabbingPair(w, v, [1.5, 0.5])
    with pytest.raises(GridResolutionError, match="positive finite"):
        verify_stabbing(pair, bodies, witnesses, resolution=resolution)


def test_hausdorff_convex_closed_forms():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert hausdorff_convex(tri, tri) == 0.0
    a = [[0.0], [1.0]]
    b = [[0.5], [1.5]]
    assert hausdorff_convex(a, b) == pytest.approx(0.5)
    assert hausdorff_convex(b, a) == pytest.approx(0.5)


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
    assert any("border" in r for r in report.reasons)


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
