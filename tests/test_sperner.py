"""Subdivision complexes, Sperner colorings, and the cover machinery."""
import logging
import math
import os

import numpy as np
import pytest

import hollowkit.sperner as sperner
from hollowkit import (HPolytope, Ball, ConvergenceError, IntersectionBody,
                       KkmInstance, KleeSolveError, Simplex, SpernerColoring,
                       SpernerLegalityError, SubdivisionComplex,
                       SubdivisionSizeError, ToleranceAmbiguityError, VPolytope,
                       family_kkm_instance, find_rainbow, intersect_witness,
                       kkm_verify, klee_solve, load_scene, rainbow_cells,
                       random_legal_coloring, sperner_color, subdivide)

from helpers import fraction_subdivisions, unique_rows_step

DATA = os.path.join(os.path.dirname(__file__), "data")
UNIT_TRIANGLE = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SEGMENT = Simplex([[1.0], [0.0]])


def unit_simplex(k):
    verts = np.vstack([np.zeros(k), np.eye(k)])
    return Simplex(verts)


def test_subdivision_cell_counts():
    for k in (1, 2, 3):
        for depth in (0, 1, 2):
            cells = math.factorial(k + 1) ** depth
            if cells > 1000:
                continue
            sub = subdivide(unit_simplex(k), depth)
            assert sub.n_cells == cells
            assert sub.depth == depth


def test_subdivision_mesh_bound():
    for k in (1, 2, 3):
        S = unit_simplex(k)
        for depth in (1, 2):
            if math.factorial(k + 1) ** depth > 1000:
                continue
            sub = subdivide(S, depth)
            bound = (k / (k + 1.0)) ** depth * S.diameter
            assert sub.mesh <= bound + 1e-9


def test_subdivision_depth_zero_is_identity():
    sub = subdivide(UNIT_TRIANGLE, 0)
    assert sub.n_cells == 1
    assert sub.n_vertices == 3
    assert sub.mesh == pytest.approx(UNIT_TRIANGLE.diameter)


def test_subdivision_budget_refusal(monkeypatch):
    monkeypatch.setattr(sperner, "MAX_CELLS", 100)
    with pytest.raises(SubdivisionSizeError):
        subdivide(UNIT_TRIANGLE, 3)


def test_subdivision_matches_fraction_reference():
    """Vertex order, barycentrics bit for bit, cells and carriers agree with
    the one-Fraction-at-a-time construction at every depth up to ~15k cells."""
    for k in (1, 2, 3, 4):
        for depth, (vertices, cells) in enumerate(fraction_subdivisions(k)):
            sub = subdivide(unit_simplex(k), depth)
            bary = np.array([[float(f) for f in v] for v in vertices])
            assert sub.bary.shape == bary.shape
            assert sub.bary.tobytes() == bary.tobytes()
            assert np.array_equal(sub.cells, cells)
            assert sub.carriers == tuple(
                frozenset(i for i, f in enumerate(v) if f) for v in vertices)
            if len(cells) * math.factorial(k + 1) > 15000:
                break


def test_exact_step_matches_the_unique_rows_reference():
    """V, cells and D agree bit for bit with a full ``np.unique(axis=0)`` of
    every chain point, at depths past the Fraction reference's reach; every
    vertex sums to D and no two vertices coincide."""
    for k, depth in ((1, 16), (2, 6), (3, 4)):
        exact, ref = sperner._ExactComplex(k), sperner._ExactComplex(k)
        for _ in range(depth):
            exact.step()
            unique_rows_step(ref)
            assert exact.D == ref.D
            assert exact.V.dtype == ref.V.dtype
            assert exact.V.shape == ref.V.shape
            assert exact.V.tobytes() == ref.V.tobytes()
            assert exact.cells.dtype == ref.cells.dtype
            assert exact.cells.shape == ref.cells.shape
            assert exact.cells.tobytes() == ref.cells.tobytes()
            assert (exact.V.sum(axis=1) == exact.D).all()
            assert np.unique(exact.V, axis=0).shape == exact.V.shape


def test_a_point_subdivides_into_itself():
    sub = subdivide(Simplex([[0.5, -1.0]]), 3)
    assert sub.n_vertices == 1
    assert sub.n_cells == 1
    assert sub.coords.tolist() == [[0.5, -1.0]]


def test_subdivision_refuses_inexact_depths_up_front(monkeypatch):
    def no_build(k):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(sperner, "_ExactComplex", no_build)
    monkeypatch.setattr(sperner, "MAX_CELLS", 2 ** 62)
    with pytest.raises(SubdivisionSizeError, match="denominator"):
        subdivide(SEGMENT, 60)


def test_subdivision_vertex_invariants():
    sub = subdivide(UNIT_TRIANGLE, 2)
    assert np.allclose(sub.bary.sum(axis=1), 1.0, atol=1e-12)
    # the three ambient corners carry singleton faces
    singleton = sum(1 for c in sub.carriers if len(c) == 1)
    assert singleton == 3
    assert any(len(c) == 3 for c in sub.carriers)
    pts = sub.cell_points(sub.cells[0])
    assert pts.shape == (3, 2)


def test_build_rejects_partial_tilings():
    fan_coords = np.vstack([UNIT_TRIANGLE.vertices,
                            UNIT_TRIANGLE.vertices.mean(axis=0)])
    good = SubdivisionComplex.build(UNIT_TRIANGLE, fan_coords,
                                    [[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    assert good.n_cells == 3
    with pytest.raises(ValueError):
        SubdivisionComplex.build(UNIT_TRIANGLE, fan_coords,
                                 [[0, 1, 3], [1, 2, 3]])


def test_build_rejects_carrier_violations():
    fan_coords = np.vstack([UNIT_TRIANGLE.vertices,
                            UNIT_TRIANGLE.vertices.mean(axis=0)])
    with pytest.raises(ValueError):
        SubdivisionComplex.build(UNIT_TRIANGLE, fan_coords,
                                 [[0, 1, 3], [1, 2, 3], [2, 0, 3]],
                                 carriers=[{0}, {1}, {2}, {0}])


def test_build_rejects_carrier_indices_outside_the_simplex():
    fan_coords = np.vstack([UNIT_TRIANGLE.vertices,
                            UNIT_TRIANGLE.vertices.mean(axis=0)])
    fan = [[0, 1, 3], [1, 2, 3], [2, 0, 3]]
    for bad in (5, -1):
        with pytest.raises(ValueError,
                           match=rf"^vertex 0 has carrier index {bad} outside 0\.\.2$"):
            SubdivisionComplex.build(UNIT_TRIANGLE, fan_coords, fan,
                                     carriers=[{0, bad}, {1}, {2}, {0, 1, 2}])


def test_fan_coloring_has_one_rainbow():
    fan_coords = np.vstack([UNIT_TRIANGLE.vertices,
                            UNIT_TRIANGLE.vertices.mean(axis=0)])
    fan = SubdivisionComplex.build(UNIT_TRIANGLE, fan_coords,
                                   [[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    coloring = SpernerColoring([0, 1, 2, 0])
    hits = rainbow_cells(fan, coloring)
    assert list(hits) == [1]
    assert sorted(find_rainbow(fan, coloring)) == [1, 2, 3]


def test_coloring_on_touching_intervals():
    bodies = [HPolytope.box([0.0], [0.45]), HPolytope.box([0.45], [1.0])]
    sub = subdivide(SEGMENT, 1)
    outcome = sperner_color(sub, bodies)
    assert isinstance(outcome, SpernerColoring)
    hits = rainbow_cells(sub, outcome)
    assert hits.size == 1
    pts = sub.cell_points(sub.cells[int(hits[0])])
    assert sorted(float(p) for p in pts.ravel()) == pytest.approx([0.0, 0.5])


def test_coloring_short_circuits_on_shared_vertex():
    bodies = [HPolytope.box([0.0], [0.6]), HPolytope.box([0.4], [1.0])]
    outcome = sperner_color(subdivide(SEGMENT, 1), bodies)
    assert isinstance(outcome, np.ndarray)
    for b in bodies:
        assert b.membership(outcome, 1e-9)


def test_coloring_rejects_uncovered_vertices():
    bodies = [HPolytope.box([0.0], [0.3]), HPolytope.box([0.4], [1.0])]
    with pytest.raises(SpernerLegalityError):
        sperner_color(subdivide(SEGMENT, 3), bodies)


def test_coloring_rejects_colors_off_the_carrier_face():
    # the witnesses are swapped: ambient vertex 0 (x = 1) is colored 1
    bodies = [HPolytope.box([0.6], [1.0]), HPolytope.box([0.0], [0.6])]
    with pytest.raises(SpernerLegalityError,
                       match=r"^vertex 0 colored 1 outside its carrier face \[0\]$"):
        sperner_color(subdivide(SEGMENT, 2), bodies)


def test_random_legal_colorings_have_odd_rainbows():
    rng = np.random.default_rng(29)
    cases = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    for k, depth in cases:
        sub = subdivide(unit_simplex(k), depth)
        for _ in range(10):
            coloring = random_legal_coloring(sub, rng=rng)
            assert rainbow_cells(sub, coloring).size % 2 == 1


def test_klee_solve_three_squares(squares_union):
    witnesses = [[1.5, 2.5], [0.5, 1.5], [2.5, 0.5]]
    x = klee_solve(squares_union, witnesses)
    for b in squares_union:
        assert b.membership(x, 1e-6)


def test_klee_solve_thin_core():
    # the two intervals share exactly one point, so the sentinel never fires
    # and the rainbow cells must shrink onto it; the final projection polish
    # still lands on the corner itself
    bodies = [HPolytope.box([0.0], [1.0 / 3.0]),
              HPolytope.box([1.0 / 3.0], [1.0])]
    x = klee_solve(bodies, [[1.0], [0.0]], tol=1e-4)
    assert float(x[0]) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_klee_solve_single_body():
    ball = Ball([0.0, 0.0], 1.0)
    x = klee_solve([ball], [[2.0, 0.0]])
    assert ball.membership(x, 1e-6)


def test_klee_solve_degenerate_witnesses_fall_back(squares_union):
    collinear = [[1.5, 2.5], [1.5, 1.5], [1.5, 0.5]]
    x = klee_solve(squares_union, collinear)
    for b in squares_union:
        assert b.membership(x, 1e-6)


def test_klee_solve_degenerate_and_empty_raises():
    bodies = [HPolytope.box([0.0], [1.0]), HPolytope.box([2.0], [3.0])]
    with pytest.raises(KleeSolveError):
        klee_solve(bodies, [[1.5], [1.5]])


def test_klee_solve_budget_error_carries_best_cell(monkeypatch):
    monkeypatch.setattr(sperner, "MAX_CELLS", 4)
    bodies = [HPolytope.box([0.0], [0.35]), HPolytope.box([0.35], [1.0])]
    with pytest.raises(KleeSolveError) as info:
        klee_solve(bodies, [[1.0], [0.0]], tol=1e-12)
    cell = info.value.best_cell
    assert cell is not None
    assert cell.min() <= 0.35 <= cell.max()
    assert cell.max() - cell.min() == pytest.approx(0.25)


def test_klee_solve_stops_at_the_exact_denominator_limit(monkeypatch):
    # a segment's denominator doubles per level: 8 allows depth 3, not 4
    monkeypatch.setattr(sperner, "MAX_DENOMINATOR", 8)
    bodies = [HPolytope.box([0.0], [0.35]), HPolytope.box([0.35], [1.0])]
    with pytest.raises(KleeSolveError, match="exact-barycentric") as info:
        klee_solve(bodies, [[1.0], [0.0]], tol=1e-12)
    cell = info.value.best_cell
    assert cell.min() <= 0.35 <= cell.max()
    assert cell.max() - cell.min() == pytest.approx(0.125)


def test_klee_solve_reads_neither_mesh_nor_carriers(monkeypatch):
    # the coloring loop needs the carrier mask and the rainbow cells'
    # diameters only; the per-level complexes must not build the rest
    def unread(self):
        raise AssertionError("read in the coloring loop")

    monkeypatch.setattr(SubdivisionComplex, "mesh", property(unread))
    monkeypatch.setattr(SubdivisionComplex, "carriers", property(unread))
    scene = load_scene(os.path.join(DATA, "thincore.json"))
    x = klee_solve(scene.bodies, scene.kkm.points)
    for b in scene.bodies:
        assert b.membership(x, 1e-6)


def _solve_log(caplog, bodies, witnesses, **kw):
    with caplog.at_level(logging.DEBUG, logger="hollowkit.sperner"):
        try:
            klee_solve(bodies, witnesses, **kw)
        except KleeSolveError:
            pass
    records = [r for r in caplog.records if r.name == "hollowkit.sperner"]
    levels = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
    stops = [r.getMessage() for r in records if r.levelno == logging.INFO]
    return levels, stops


def test_klee_solve_logs_each_level_and_the_rule_that_stopped_it(
        caplog, capsys, squares_union, monkeypatch):
    thin = [HPolytope.box([0.0], [1.0 / 3.0]), HPolytope.box([1.0 / 3.0], [1.0])]
    levels, stops = _solve_log(caplog, thin, [[1.0], [0.0]], tol=1e-4)
    assert levels[0] == ("klee_solve depth 0: 1 cells, 2 vertices, "
                         "1 all-colors cells, best diameter 1.000e+00")
    assert [m.split(":")[0] for m in levels] == [
        f"klee_solve depth {d}" for d in range(12)]
    assert stops == ["klee_solve: a depth-12 vertex lies in every body"]
    caplog.clear()
    # the deep-core scene with its core turned into a hole of inradius
    # 0.9 tol: no vertex comes within tol of all three bodies before an
    # all-colors cell is smaller than tol / 2
    scene = load_scene(os.path.join(DATA, "thincore.json"))
    tol = 0.04
    hole = [HPolytope(b.A, b.b - np.eye(4)[3] * (0.0035 + 0.9 * tol))
            for b in scene.bodies]
    levels, stops = _solve_log(caplog, hole, scene.kkm.points, tol=tol)
    assert len(levels) == 5
    assert stops == ["klee_solve: an all-colors cell of diameter 1.464e-02 "
                     "is below tol/2 at depth 4"]
    caplog.clear()
    collinear = [[1.5, 2.5], [1.5, 1.5], [1.5, 0.5]]
    assert _solve_log(caplog, squares_union, collinear) == ([], [
        "klee_solve: degenerate witnesses, deciding by the feasibility scan"])
    caplog.clear()
    gap = [HPolytope.box([0.0], [0.35]), HPolytope.box([0.35], [1.0])]
    monkeypatch.setattr(sperner, "MAX_CELLS", 4)
    stops = _solve_log(caplog, gap, [[1.0], [0.0]], tol=1e-12)[1]
    assert stops == ["klee_solve: the 4-cell budget is spent at depth 2"]
    assert capsys.readouterr().out == ""


def test_kkm_gap_counterexample():
    instance = KkmInstance([[0.0], [1.0]],
                           (HPolytope.box([0.0], [0.4]),
                            HPolytope.box([0.5], [1.0])))
    report = kkm_verify(instance)
    assert not report.kkm_holds
    assert report.subset == (0, 1)
    assert 0.4 < float(report.counterexample[0]) < 0.5


def test_kkm_holds_for_square_cover(squares_union):
    witnesses = [[1.5, 2.5], [0.5, 1.5], [2.5, 0.5]]
    instance = family_kkm_instance(squares_union, witnesses)
    assert instance.images[0] is squares_union[2]
    assert instance.images[1] is squares_union[0]
    report = kkm_verify(instance)
    assert report.kkm_holds
    assert not report.contradiction
    assert report.subsets_checked == 7
    for g in instance.images:
        assert g.membership(report.witness, 1e-6)


class _BrokenProjectionBox(HPolytope):
    """Box whose membership works but whose projection oracle fails."""

    def project(self, p):
        raise RuntimeError("projection oracle failed")


def test_kkm_verify_propagates_foreign_oracle_errors():
    """Only hollowkit's own undecided outcomes count as a contradiction; an
    error from a broken oracle must reach the caller."""
    broken = _BrokenProjectionBox(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    instance = KkmInstance([[0.0], [1.0]], (broken, HPolytope.box([0.0], [1.0])))
    with pytest.raises(RuntimeError, match="projection oracle failed"):
        kkm_verify(instance)


def random_image(rng, center, size):
    """A ball, H-polytope, V-polytope or ball-and-box intersection that
    holds ``center``, about ``size`` across."""
    kind = int(rng.integers(4))
    if kind == 0:
        return Ball(center, size)
    if kind == 1:
        return HPolytope.box(center - size * rng.uniform(0.3, 1.0, 2),
                             center + size * rng.uniform(0.3, 1.0, 2))
    if kind == 2:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 5))
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        return VPolytope(np.vstack([center, center + size * ring]))
    return IntersectionBody([Ball(center, size),
                             HPolytope.box(center - 0.8 * size, center + 0.8 * size)],
                            witness=center)


def random_kkm_instance(seed):
    """Two to four points in the unit square, each with an image around it:
    small images leave hull samples uncovered, large ones cover the hull."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    pts = rng.uniform(0.0, 1.0, size=(m, 2))
    size = rng.uniform(0.15, 1.2)
    return KkmInstance(pts, tuple(random_image(rng, p, size * rng.uniform(0.8, 1.2))
                                  for p in pts))


def scalar_kkm_reference(instance, samples, tol):
    """The cover check written one sample and one image at a time."""
    pts = instance.points
    m = pts.shape[0]
    checked = 0
    for mask in range(1, 2 ** m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        for x in sperner._subset_samples(pts[list(subset)], samples):
            if not any(instance.images[i].membership(x, tol) for i in subset):
                return {"kkm_holds": False, "counterexample": x, "subset": subset,
                        "witness": None, "contradiction": False,
                        "subsets_checked": checked, "samples_per_subset": samples}
        checked += 1
    try:
        feas = intersect_witness(list(instance.images), tol=tol)
    except (ConvergenceError, ToleranceAmbiguityError):
        feas = None
    found = feas is not None and feas.feasible
    return {"kkm_holds": True, "counterexample": None, "subset": None,
            "witness": feas.witness if found else None, "contradiction": not found,
            "subsets_checked": checked, "samples_per_subset": samples}


def test_batched_cover_check_matches_the_scalar_reference():
    failed_late = held = 0
    for seed in range(40):
        instance = random_kkm_instance(seed)
        samples = (4, 16)[seed % 2]
        report = kkm_verify(instance, samples=samples)
        ref = scalar_kkm_reference(instance, samples, sperner.DEFAULT_TOL)
        for field, want in ref.items():
            got = getattr(report, field)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), (seed, field)
            else:
                assert got == want, (seed, field)
        if report.kkm_holds:
            held += 1
        else:
            X = sperner._subset_samples(instance.points[list(report.subset)], samples)
            first = int(np.flatnonzero((X == report.counterexample).all(axis=1))[0])
            failed_late += first > 0
    # both verdicts occur, and failures are found past the first sample
    assert held >= 5 and failed_late >= 5


@pytest.mark.parametrize("samples", [0, -5, 2.5, 3.0, True, "+5", "many", None])
def test_kkm_verify_refuses_bad_sample_counts(samples):
    instance = KkmInstance([[0.0], [1.0]], (HPolytope.box([0.0], [1.0]),) * 2)
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        kkm_verify(instance, samples=samples)


def test_sobol_weights_are_drawn_once_per_size_and_count():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    first = sperner._subset_samples(pts, 8)
    w, biased = sperner._sobol_weights(3, 8)
    assert sperner._sobol_weights(3, 8)[0] is w
    assert not w.flags.writeable and not biased.flags.writeable
    assert np.array_equal(first[-16:], np.vstack([w @ pts, biased @ pts]))
    assert np.array_equal(sperner._subset_samples(pts, 8), first)


def test_check_samples_accepts_positive_integers():
    assert [sperner.check_samples(v) for v in (1, "7", np.int64(64))] == [1, 7, 64]


def test_kkm_instance_validation():
    with pytest.raises(ValueError):
        KkmInstance([[0.0], [1.0]], (HPolytope.box([0.0], [1.0]),))
    with pytest.raises(ValueError):
        KkmInstance([[0.0], [1.0]],
                    (HPolytope.box([0.0, 0.0], [1.0, 1.0]),
                     HPolytope.box([0.0, 0.0], [1.0, 1.0])))


def test_kkm_point_budget_cap():
    pts = np.linspace(0.0, 1.0, 13)[:, None]
    images = tuple(HPolytope.box([0.0], [1.0]) for _ in range(13))
    with pytest.raises(ValueError):
        kkm_verify(KkmInstance(pts, images))
