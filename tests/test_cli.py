"""Scene files, the command line driver, and its deterministic outputs."""
import copy
import functools
import json
import operator
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from hollowkit import (AffineSubspace, Ball, HPolytope, IntersectionBody,
                       SceneError, Scene, StabbingPair, VPolytope,
                       body_from_json, body_to_json, dumps, parse_scene,
                       render_svg, serialize_scene)
from hollowkit.cli import main
from hollowkit.hollow import MAX_GRID_CELLS
from hollowkit.render import _body_elements, _Frame, _hull_ring, _polygon
from hollowkit.scenes import OPTIONS
from hollowkit.sperner import MAX_SAMPLES
from conftest import side_rectangle

DATA = os.path.join(os.path.dirname(__file__), "data")


def scene_path(name):
    return os.path.join(DATA, name)


def read(path, mode="r"):
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
        return fh.read()


def result_of(outdir):
    return json.loads(read(os.path.join(outdir, "result.json")))


def test_scene_round_trip():
    for name in ("disks.json", "squares.json", "gapkkm.json", "stab.json",
                 "vpoly.json"):
        scene = parse_scene(read(scene_path(name)), source=name)
        again = parse_scene(serialize_scene(scene), source=name)
        assert again == scene


def test_scene_programmatic_round_trip():
    scene = Scene(dimension=2,
                  bodies=(Ball([0.0, 0.0], 1.0),
                          HPolytope.box([0.0, 0.0], [2.0, 1.0])),
                  options={"tol": 1e-7, "seed": 3})
    again = parse_scene(serialize_scene(scene))
    assert again == scene
    assert again.options == {"tol": 1e-7, "seed": 3}


def test_body_json_round_trip_keeps_kind_and_data():
    V = [[0.0, 0.0], [2.0, 0.0], [0.5, 1.5], [0.6, 0.4]]
    A = [[1.0, 0.2], [-1.0, 0.0], [0.0, 1.0], [0.3, -1.0]]
    bodies = {
        "hpoly": HPolytope(A, [2.0, 0.0, 1.0, 0.5]),
        "vpoly": VPolytope(V),
        "ball": Ball([0.25, -0.5], 0.75),
        "intersection": IntersectionBody(
            [HPolytope.box([0.0, 0.0], [2.0, 1.0]), VPolytope(V),
             Ball([1.0, 0.5], 0.8)], witness=[0.7, 0.4]),
    }
    assert not isinstance(bodies["vpoly"], HPolytope)
    for kind, body in bodies.items():
        obj = body_to_json(body)
        assert obj["kind"] == kind
        again = body_from_json(json.loads(dumps(obj)), 2)
        assert type(again) is type(body)
        assert body_to_json(again) == obj
    assert np.array_equal(body_from_json(body_to_json(bodies["vpoly"]), 2).vertices, V)
    hpoly = body_from_json(body_to_json(bodies["hpoly"]), 2)
    assert np.array_equal(hpoly.A, bodies["hpoly"].A)
    assert np.array_equal(hpoly.b, bodies["hpoly"].b)
    inter = body_from_json(body_to_json(bodies["intersection"]), 2)
    assert np.array_equal(inter.witness, [0.7, 0.4])
    assert [type(b) for b in inter.bodies] == [HPolytope, VPolytope, Ball]
    assert np.array_equal(inter.bodies[1].vertices, V)


def test_rendered_vpoly_is_drawn_from_its_vertex_ring():
    vpoly = VPolytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5], [0.6, 0.4]])
    frame = _Frame(np.array([-1.0, -1.0]), np.array([3.0, 2.0]), 100.0)
    ring = _hull_ring(vpoly.vertices)
    assert ring.shape == (3, 2)
    expect = _polygon(frame, ring, "#fill", "#stroke")
    assert _body_elements(frame, vpoly, "#fill", "#stroke") == expect
    assert 'points="' in render_svg([vpoly])


def test_rendered_degenerate_bodies_are_lines_points_and_parts():
    """A segment is drawn as a line, a single point as a dot, and an
    intersection as each of its members at half the fill opacity."""
    frame = _Frame(np.array([-1.0, -1.0]), np.array([3.0, 2.0]), 100.0)
    segment = VPolytope([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
    (line,) = _body_elements(frame, segment, "#fill", "#stroke")
    assert line.startswith("<line ") and 'stroke="#stroke"' in line
    (dot,) = _body_elements(frame, VPolytope([[1.0, 1.0]]), "#fill", "#stroke")
    assert dot.startswith("<circle ") and 'r="2.0" fill="#stroke"' in dot
    parts = [Ball([0.0, 0.0], 1.0), HPolytope.box([0.0, -1.0], [2.0, 1.0])]
    inter = IntersectionBody(parts)
    drawn = _body_elements(frame, inter, "#fill", "#stroke")
    assert drawn == [e for b in parts
                     for e in _body_elements(frame, b, "#fill", "#stroke", "0.15")]
    svg = render_svg([segment, VPolytope([[1.0, 1.0]]), inter])
    assert svg.count("<line ") == 1 and svg.count('fill-opacity="0.15"') == 2


@pytest.mark.parametrize("seed", range(6))
def test_hull_ring_is_the_convex_hull(seed):
    """Against ``ConvexHull`` on random sets, and on small lattices, where
    points tie, repeat and lie on hull edges and on rays from the mean."""
    rng = np.random.default_rng(seed)
    for trial in range(150):
        k = rng.integers(3, 16)
        # six decimals, so the ring's rounding to twelve leaves them as they are
        pts = (np.round(rng.random((k, 2)), 6) if trial % 3 == 0
               else rng.integers(0, 2 + trial % 5, (k, 2)).astype(float))
        ring = _hull_ring(pts)
        unique = np.unique(pts, axis=0)
        try:
            hull = ConvexHull(pts)
        except QhullError:
            # a collinear set is drawn as the segment between its ends
            ends = unique[:1].tolist() + unique[1:][-1:].tolist()
            assert sorted(ring.tolist()) == ends
            continue
        assert sorted(map(tuple, ring)) == sorted(map(tuple, pts[hull.vertices]))
        x, y = ring[:, 0], ring[:, 1]
        assert (x * np.roll(y, -1) - np.roll(x, -1) * y).sum() > 0
        off = ring - unique.mean(axis=0)
        assert np.argmin(np.arctan2(off[:, 1], off[:, 0])) == 0


def test_scene_tol_reaches_intersection_witness():
    lens = {"kind": "intersection",
            "parts": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                      {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}],
            "witness": [1.00001, 0.0]}
    raw = {"schema": "hollowkit/1", "dimension": 2, "bodies": [lens],
           "options": {"tol": 1e-4}}
    scene = parse_scene(json.dumps(raw))
    assert np.array_equal(scene.bodies[0].witness, [1.00001, 0.0])
    # the witness misses the first disk by 1e-5, above the default tol
    del raw["options"]
    with pytest.raises(SceneError) as info:
        parse_scene(json.dumps(raw))
    assert "witness fails membership in member 0" in str(info.value.details)


def test_serialization_is_canonical():
    text = serialize_scene(parse_scene(read(scene_path("disks.json"))))
    assert text == serialize_scene(parse_scene(text))
    assert text.endswith("\n")


def test_parse_error_carries_location():
    with pytest.raises(SceneError) as info:
        parse_scene('{"schema": "hollowkit/1",\n  "bodies": [}]}')
    assert info.value.line == 2
    assert info.value.column is not None


def test_parse_rejects_unknown_option():
    text = ('{"schema": "hollowkit/1", "dimension": 1,'
            ' "bodies": [{"kind": "ball", "center": [0.0], "radius": 1.0}],'
            ' "options": {"depth": 3}}')
    with pytest.raises(SceneError, match="unknown option 'depth'"):
        parse_scene(text)


def test_parse_collects_body_errors():
    with pytest.raises(SceneError) as info:
        parse_scene(read(scene_path("mismatch.json")))
    assert len(info.value.details) == 2
    assert any("bodies[0]" in d for d in info.value.details)
    assert any("bodies[1]" in d for d in info.value.details)


def test_check_critical_scene(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["check", scene_path("disks.json"), "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "critical family" in stdout
    res = result_of(out)
    assert res["schema"] == "hollowkit/1"
    assert res["command"] == "check"
    assert res["critical"] is True
    assert res["certificate"]["distance"] == pytest.approx(0.33319836727,
                                                           abs=1e-7)
    assert len(res["witnesses"]) == 3


def test_check_prints_the_certificate_distance(tmp_path, capsys):
    """The printed number is the certificate's distance and is labelled so;
    the certificate's margin is half of it."""
    out = str(tmp_path)
    assert main(["check", scene_path("disks.json"), "--out", out]) == 0
    line = capsys.readouterr().out.strip()
    cert = result_of(out)["certificate"]
    assert line == f"critical family: n=2 d=2 distance={cert['distance']:.6g}"
    assert cert["margin"] == pytest.approx(cert["distance"] / 2.0)


def test_check_rejects_noncritical(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["check", scene_path("noncrit.json"), "--out", out])
    assert code == 2
    assert "not critical" in capsys.readouterr().out
    res = result_of(out)
    assert res["critical"] is False
    assert res["failure"]["reason"] == "full-intersection-nonempty"
    assert len(res["failure"]["witness"]) == 2

    boxes = tmp_path / "four_boxes.json"
    boxes.write_text(json.dumps({
        "schema": "hollowkit/1", "dimension": 2,
        "bodies": [body_to_json(HPolytope.box([i, 0.0], [i + 1.0, 1.0]))
                   for i in range(4)]}))
    helly_out = str(tmp_path / "helly")
    assert main(["check", str(boxes), "--out", helly_out]) == 2
    failure = result_of(helly_out)["failure"]
    assert failure["reason"] == "helly"
    assert failure["detail"] == ("4 convex sets in R^2 with nonempty leave-one-out "
                                 "intersections always share a point (n = 3 > d)")


def test_hollow_command(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["hollow", scene_path("pair.json"), "--out", out,
                 "--restarts", "3"])
    assert code == 0
    assert "gaps" in capsys.readouterr().out
    res = result_of(out)
    assert res["hollow_simplex"]["vertices"] == [[2.0], [1.0]]
    assert res["hollow_simplex"]["gaps"] == [1.0, 1.0]
    assert res["uniqueness"]["ok"] is True


def test_certify_command(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["certify", scene_path("disks.json"), "--out", out])
    assert code == 0
    assert "hollow certified" in capsys.readouterr().out
    res = result_of(out)
    grid = res["grid_certificate"]
    assert grid["resolution"] == 0.005
    assert 2100 <= grid["cell_count"] <= 2300
    assert grid["component_count"] == 1
    assert grid["boundary_bodies"] == [0, 1, 2]
    assert grid["boundary_complete"] is True
    assert res["hull_vs_simplex"] < 0.015


def test_certify_vpoly_scene(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["certify", scene_path("vpoly.json"), "--out", out])
    assert code == 0
    assert "hollow certified" in capsys.readouterr().out
    grid = result_of(out)["grid_certificate"]
    assert grid["bounded"] is True
    assert grid["component_count"] == 1
    assert grid["boundary_bodies"] == [0, 1, 2]


def write_scene(tmp_path, bodies):
    path = tmp_path / "scene.json"
    path.write_text(serialize_scene(Scene(dimension=2, bodies=tuple(bodies))),
                    encoding="utf-8")
    return str(path)


def test_certify_segments_scene_has_no_boundary_bodies(tmp_path):
    """The sides of a triangle as segments cover no cell center, so no body
    is found on the hollow's boundary and the attribution is incomplete."""
    corners = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]]
    scene = write_scene(tmp_path, [VPolytope([corners[i], corners[(i + 1) % 3]])
                                   for i in range(3)])
    out = str(tmp_path / "out")
    assert main(["certify", scene, "--out", out, "--resolution", "0.05"]) == 0
    grid = result_of(out)["grid_certificate"]
    assert grid["cell_count"] == 2400
    assert grid["boundary_bodies"] == []
    assert grid["boundary_complete"] is False


def test_certify_flat_triangle_at_the_default_resolution(tmp_path):
    """A critical family 4 wide and 0.5 high is certified without a
    resolution: the default keeps 20 cells across its height.  The bottom
    side, 0.01 thick, holds no center of those 0.027-wide cells, so the
    grid finds only the other two sides on the boundary."""
    corners = [[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]]
    rects = [side_rectangle(corners[i], corners[(i + 1) % 3], 0.005)
             for i in range(3)]
    out = str(tmp_path / "out")
    assert main(["certify", write_scene(tmp_path, rects), "--out", out]) == 0
    grid = result_of(out)["grid_certificate"]
    assert grid["bounded"] is True and grid["cell_count"] == 1296
    assert grid["boundary_bodies"] == [1, 2]


def test_solve_klee_command(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["solve-klee", scene_path("squares.json"), "--out", out])
    assert code == 0
    assert "common point" in capsys.readouterr().out
    res = result_of(out)
    assert res["max_distance"] <= 1e-6
    x, y = res["point"]
    assert 1.0 - 1e-6 <= x <= 2.0 + 1e-6
    assert 1.0 - 1e-6 <= y <= 2.0 + 1e-6


def test_kkm_gap_command(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["kkm", scene_path("gapkkm.json"), "--out", out])
    assert code == 2
    assert "fails on subset" in capsys.readouterr().out
    res = result_of(out)
    assert res["kkm_holds"] is False
    assert res["subset"] == [0, 1]
    assert 0.4 < res["counterexample"][0] < 0.5


def test_kkm_holds_command(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["kkm", scene_path("goodkkm.json"), "--out", out])
    assert code == 0
    assert "holds" in capsys.readouterr().out
    res = result_of(out)
    assert res["kkm_holds"] is True
    assert res["contradiction"] is False
    assert len(res["witness"]) == 2


def test_stab_verify_accepts(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["stab-verify", scene_path("stab.json"), "--out", out])
    assert code == 0
    assert "verified" in capsys.readouterr().out
    res = result_of(out)
    assert res["witness_ok"] is True
    assert res["surround_ok"] is True
    assert res["reasons"] == []



def test_stab_verify_accepts_a_transversal_near_tangent_to_a_disk(tmp_path, capsys):
    """The transversal x = 1.01 passes 0.01 from each of two unit disks;
    from the crossing point, which is each disk's nearest point on the
    line, each clearance takes two rounds of alternating projections."""
    out = str(tmp_path)
    code = main(["stab-verify", scene_path("stab_near_tangent.json"), "--out", out])
    assert code == 0
    assert "verified" in capsys.readouterr().out
    res = result_of(out)
    assert res["surround_ok"] is True
    assert res["clearances"] == pytest.approx([0.01, 0.01], abs=1e-6)

def test_stab_verify_rejects(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["stab-verify", scene_path("stab_bad.json"), "--out", out])
    assert code == 2
    assert "rejected" in capsys.readouterr().out
    res = result_of(out)
    assert res["witness_ok"] is False
    assert res["surround_ok"] is None


def test_results_are_byte_identical(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["check", scene_path("disks.json"), "--out", a]) == 0
    assert main(["check", scene_path("disks.json"), "--out", b]) == 0
    assert read(os.path.join(a, "result.json"), "rb") == \
        read(os.path.join(b, "result.json"), "rb")


def test_thincore_kkm_witness_lies_in_every_image(tmp_path):
    """Body 0's bottom edge ties along -y, so the scan's start depends on
    the support's tie rule; any point it stops at must be common."""
    assert main(["kkm", scene_path("thincore.json"), "--out", str(tmp_path)]) == 0
    res = result_of(str(tmp_path))
    scene = parse_scene(read(scene_path("thincore.json")))
    assert all(image.membership(res["witness"], res["tol"])
               for image in scene.kkm.images)


@pytest.mark.parametrize("scene, command, code", [
    pytest.param("thincore", "solve-klee", 0, id="solve-klee"),
    pytest.param("thincore", "kkm", 0, id="kkm"),
    ("squares", "solve-klee", 0), ("goodkkm", "solve-klee", 0),
    ("noncrit", "solve-klee", 0), ("goodkkm", "kkm", 0), ("gapkkm", "kkm", 2),
    ("disks", "certify", 0), ("vpoly", "certify", 0), ("balls3", "certify", 0),
    ("squares", "check", 2),
    ("stab", "stab-verify", 0), ("stab3", "stab-verify", 0),
    ("stab4", "stab-verify", 0)])
def test_deep_core_results_match_fixture(scene, command, code, tmp_path):
    """The Klee and cover results are pinned byte for byte; the coloring of
    the thin-core scene goes six levels deep.  The grid certificates, the
    full-intersection check and the stabbing checks pin the contains rules
    of balls, both polytope kinds and intersections; balls3 pins the 3-D
    grid, stab3 a stabbing pair whose first flat is a plane in 3-D, and
    stab4 one whose transversal is a 3-flat in 4-D."""
    assert main([command, scene_path(f"{scene}.json"), "--out", str(tmp_path)]) == code
    expected = scene_path(os.path.join("expected", f"{scene}.{command}.result.json"))
    assert read(os.path.join(tmp_path, "result.json"), "rb") == read(expected, "rb")


def test_render_matches_fixture(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["render", scene_path("disks.json"), "--out", a]) == 0
    assert main(["render", scene_path("disks.json"), "--out", b]) == 0
    fig_a = read(os.path.join(a, "figure.svg"), "rb")
    assert fig_a == read(os.path.join(b, "figure.svg"), "rb")
    assert fig_a == read(scene_path("disks_figure.svg"), "rb")
    assert read(os.path.join(a, "result.json"), "rb") == \
        read(os.path.join(b, "result.json"), "rb")


def test_render_draws_hpolys_from_their_vertices(tmp_path):
    """The squares' polygons, recorded when render still intersected the
    rows pairwise."""
    assert main(["render", scene_path("squares.json"), "--out", str(tmp_path)]) == 0
    svg = read(os.path.join(tmp_path, "figure.svg"))
    points = [part.split('"')[0] for part in svg.split('points="')[1:]]
    assert points == [
        "29.091,610.909 610.909,610.909 610.909,223.030 29.091,223.030",
        "223.030,610.909 610.909,610.909 610.909,29.091 223.030,29.091",
        "29.091,416.970 416.970,416.970 416.970,29.091 29.091,29.091"]


@pytest.mark.parametrize("scene, reason", [("hpoly_empty.json", "no feasible point"),
                                           ("hpoly_unbounded.json", "unbounded")])
def test_check_names_why_an_hpoly_is_refused(scene, reason, tmp_path, capsys):
    assert main(["check", scene_path(scene), "--out", str(tmp_path)]) == 1
    assert reason in capsys.readouterr().err


def test_scene_error_exit_code(tmp_path, capsys):
    code = main(["check", scene_path("bad.json"), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "scene error" in err
    assert "line 1" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["check", scene_path("nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_scene_fields_are_refused_with_one_scene_error_line(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(read(scene_path("disks.json"), "rb")
                       .replace(b'"hollowkit/1"', b'"hollowkit/1\xe9"'))
    deep = tmp_path / "deep.json"
    deep.write_text('{"bodies": ' + "[" * 100000 + "]" * 100000 + "}")
    cases = [(str(latin1), "latin1.json: 'utf-8' codec can't decode"),
             (str(deep), "deep.json: maximum recursion depth exceeded"),
             (scene_path("kkm_ragged.json"), "kkm_ragged.json: kkm: "),
             (scene_path("stab_baddim.json"),
              "stab_baddim.json: stabbing: point has dimension 3, expected 2")]
    for path, reason in cases:
        assert main(["check", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith("scene error: ")
        assert reason in errors[0]
        assert not (tmp_path / "result.json").exists()


def test_body_too_far_out_to_square_is_a_scene_error(tmp_path, capsys):
    """A center at 1e308 would overflow every distance and centroid; the
    reader refuses its body by name."""
    assert main(["check", scene_path("far_center.json"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"scene error: {scene_path('far_center.json')}: 1 bad bodies"]
    assert ("  bodies[0]: coordinates too large: their squares overflow"
            in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("name", ["stab_far_point.json", "stab_far_witness.json"])
def test_stabbing_too_far_out_to_square_is_a_scene_error(name, tmp_path, capsys):
    """A crossing point at 1e200 or a witness at 1e308 is refused by the rule
    that refuses a far body, before any distance is measured, with no
    overflow warning; at 1e150 the section still parses."""
    path = scene_path(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("check", "stab-verify"):
            assert main([command, path, "--out", str(tmp_path)]) == 1
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if not line.startswith("[time]")]
            assert errors == [f"scene error: {path}: stabbing: coordinates "
                              "too large: their squares overflow"]
        assert not (tmp_path / "result.json").exists()
        raw = json.loads(read(scene_path("stab.json")))
        raw["stabbing"]["witnesses"][0][0] = 1e150
        assert parse_scene(json.dumps(raw)).stabbing_witnesses[0, 0] == 1e150


def test_point_transversal_round_trips_and_verifies(tmp_path):
    """n = d: the transversal flat is a point, written ``"basis": []``."""
    scene = parse_scene(read(scene_path("disks.json")))
    centroid = np.array([0.95, 0.5485])
    scene.stabbing = StabbingPair(AffineSubspace(centroid, np.eye(2)),
                                  AffineSubspace(centroid, np.zeros((0, 2))),
                                  centroid)
    scene.stabbing_witnesses = np.array([[1.425, 0.8227], [0.475, 0.8227],
                                         [0.95, 0.0]])
    text = serialize_scene(scene)
    assert json.loads(text)["stabbing"]["transversal"]["basis"] == []
    assert parse_scene(text) == scene
    path = tmp_path / "point.json"
    path.write_text(text, encoding="utf-8")
    assert main(["stab-verify", str(path), "--out", str(tmp_path)]) == 0
    assert result_of(str(tmp_path))["surround_ok"] is True


# replacement values for any leaf of a scene, and for any nonempty list
# "one entry too long": its last entry repeated
BAD_VALUES = [None, "a", [], [[]], [1, [2]], {}, -1, 1e308]


def node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, val in items:
            yield from node_paths(val, path + (key,))


def bad_variants(raw):
    """``(path, value)`` pairs: each bad value at each leaf, and each
    nonempty list one entry too long."""
    for path in node_paths(raw):
        node = functools.reduce(operator.getitem, path, raw)
        if isinstance(node, list) and node:
            yield path, node + [node[-1]]
        elif path and not (isinstance(node, dict) and node):
            for bad in BAD_VALUES:
                yield path, bad


def with_value(raw, path, value):
    out = copy.deepcopy(raw)
    functools.reduce(operator.getitem, path[:-1], out)[path[-1]] = copy.deepcopy(value)
    return out


VALID_SCENES = ["balls3.json", "disks.json", "gapkkm.json", "goodkkm.json",
                "noncrit.json", "pair.json", "squares.json", "stab.json",
                "stab_bad.json", "thincore.json", "vpoly.json"]


# 1e308 overflows in norms and Gram matrices before it is refused
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", VALID_SCENES)
def test_every_bad_field_is_a_scene_or_a_scene_error(name):
    raw = json.loads(read(scene_path(name)))
    assert isinstance(parse_scene(json.dumps(raw)), Scene)
    sections = set()
    for path, value in bad_variants(raw):
        sections.add(path[0])
        try:
            result = parse_scene(json.dumps(with_value(raw, path, value)))
        except SceneError:
            continue
        assert isinstance(result, Scene), (path, value)
    assert sections == set(raw)


def test_missing_section_exit_code(tmp_path, capsys):
    code = main(["kkm", scene_path("disks.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "no kkm section" in capsys.readouterr().err


def test_certify_line_family_is_a_structured_error(tmp_path, capsys):
    code = main(["certify", scene_path("pair.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "error: grid certification supports dimension 2 or 3" in \
        capsys.readouterr().err


GRID_COMMANDS = [("certify", "disks.json"), ("render", "disks.json")]
BAD_RESOLUTIONS = ["0", "-1", "-0.01", "nan", "inf"]


@pytest.mark.parametrize("value", BAD_RESOLUTIONS)
@pytest.mark.parametrize("command,scene", GRID_COMMANDS)
def test_bad_resolution_option_is_a_one_line_error(command, scene, value,
                                                   tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, scene_path(scene), "--out", str(tmp_path),
              "--resolution", value])
    assert info.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [f"hollowkit {command}: error: argument --resolution: "
                      f"resolution must be a positive finite number, "
                      f"got {float(value):g}"]


@pytest.mark.parametrize("command,scene", GRID_COMMANDS)
def test_grid_over_budget_is_a_structured_error(command, scene, tmp_path,
                                                capsys):
    """A cell size whose grid would hold about 9.5e9 cells is refused with
    the count and the budget, not a failed allocation."""
    assert main([command, scene_path(scene), "--out", str(tmp_path),
                 "--resolution", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert ("error: resolution 1e-05 gives 9457250000 cells; at most "
            f"{MAX_GRID_CELLS} allowed") in err
    assert not os.listdir(tmp_path)


def test_stab_verify_has_no_resolution_flag(tmp_path, capsys):
    """The stabbing check uses no grid, so the flag is unknown to it.  The
    error names the flag alone, also when its value was taken for the
    scene and the scene's path is left over."""
    flag = ["--resolution", "0"]
    scene = [scene_path("stab3.json"), "--out", str(tmp_path)]
    for words in (scene + flag, flag + scene):
        with pytest.raises(SystemExit) as info:
            main(["stab-verify"] + words)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "hollowkit: error: unrecognized arguments: --resolution"]
        assert "Traceback" not in err


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("command,scene",
                         GRID_COMMANDS + [("stab-verify", "stab.json")])
def test_bad_resolution_scene_option_is_a_scene_error(command, scene, value,
                                                      tmp_path, capsys):
    raw = json.loads(read(scene_path(scene)))
    raw.setdefault("options", {})["resolution"] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "option 'resolution': resolution must be a positive finite number" in err
    assert not (tmp_path / "result.json").exists()


BAD_TOLS = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("value", BAD_TOLS)
def test_bad_tol_option_is_a_one_line_error(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", scene_path("disks.json"), "--out", str(tmp_path),
              "--tol", value])
    assert info.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == ["hollowkit check: error: argument --tol: tolerance "
                      f"must be a positive finite number, got {float(value):g}"]


@pytest.mark.parametrize("value", [float(v) for v in BAD_TOLS])
def test_bad_tol_scene_option_is_a_scene_error(value, tmp_path, capsys):
    raw = json.loads(read(scene_path("disks.json")))
    raw.setdefault("options", {})["tol"] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "option 'tol': tolerance must be a positive finite number" in err
    assert not (tmp_path / "result.json").exists()


BAD_SAMPLES = ["0", "-5", "-1", "2.5", "many"]


@pytest.mark.parametrize("value", BAD_SAMPLES)
def test_bad_samples_option_is_a_one_line_error(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["kkm", scene_path("goodkkm.json"), "--out", str(tmp_path),
              "--samples", value])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hollowkit kkm")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["hollowkit kkm: error: argument --samples: samples "
                      f"must be a positive integer, got {value}"]
    assert not (tmp_path / "result.json").exists()


def test_samples_over_budget_is_a_one_line_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["kkm", scene_path("goodkkm.json"), "--out", str(tmp_path),
              "--samples", "300000000"])
    assert info.value.code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == ["hollowkit kkm: error: argument --samples: samples "
                      f"must be at most {MAX_SAMPLES}, got 300000000"]
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("value", [0, -5])
def test_bad_samples_scene_option_is_a_scene_error(value, tmp_path, capsys):
    raw = json.loads(read(scene_path("goodkkm.json")))
    raw.setdefault("options", {})["samples"] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    assert main(["kkm", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"option 'samples': samples must be a positive integer, got {value}" in err
    assert not (tmp_path / "result.json").exists()


# a subcommand with each option's flag, and a scene it runs on
FLAG_COMMANDS = {"tol": ("check", "disks.json"),
                 "resolution": ("certify", "disks.json"),
                 "restarts": ("hollow", "pair.json"),
                 "seed": ("hollow", "pair.json"),
                 "samples": ("kkm", "goodkkm.json")}
INT_OPTIONS = {"restarts", "seed", "samples"}
BAD_OPTIONS = [(key, value) for key in OPTIONS
               for value in (["true", "-1", "2.5"] if key in INT_OPTIONS
                             else ["true", "-1", "0", "nan", "inf"])
               + (["0"] if key == "samples" else [])]


@pytest.mark.parametrize("key,value", BAD_OPTIONS)
def test_scene_reader_refuses_bad_option_values(key, value):
    raw = json.loads(read(scene_path("disks.json")))
    raw["options"] = {key: json.loads(value.replace("nan", "NaN")
                                      .replace("inf", "Infinity"))}
    with pytest.raises(SceneError) as info:
        parse_scene(json.dumps(raw), source="scene.json")
    assert str(info.value).startswith("scene.json: option")
    assert key in str(info.value)


@pytest.mark.parametrize("key,value", BAD_OPTIONS)
def test_bad_option_flags_are_one_usage_error(key, value, tmp_path, capsys):
    command, scene = FLAG_COMMANDS[key]
    with pytest.raises(SystemExit) as info:
        main([command, scene_path(scene), "--out", str(tmp_path),
              f"--{key}", value])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hollowkit {command}")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"hollowkit {command}: error: argument --{key}: ")
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("where", ["dimension", "radius", "center", "tol"])
def test_scene_reader_refuses_booleans(where):
    raw = json.loads(read(scene_path("disks.json")))
    ball = raw["bodies"][0]
    if where == "dimension":
        raw["dimension"] = True
    elif where == "center":
        ball["center"][1] = False
    elif where == "radius":
        ball["radius"] = True
    else:
        raw["options"]["tol"] = True
    with pytest.raises(SceneError, match="a boolean is not a number"):
        parse_scene(json.dumps(raw))


def test_integer_options_keep_their_values():
    scene = parse_scene(json.dumps({
        "schema": "hollowkit/1", "dimension": 1,
        "bodies": [{"kind": "ball", "center": [0.0], "radius": 1.0}],
        "options": {"seed": 0, "restarts": 0, "samples": 3, "tol": 1}}))
    assert scene.options == {"seed": 0, "restarts": 0, "samples": 3, "tol": 1.0}
    assert type(scene.options["tol"]) is float


def test_samples_option_reaches_the_report(tmp_path):
    assert main(["kkm", scene_path("goodkkm.json"), "--out", str(tmp_path),
                 "--samples", "5"]) == 0
    assert result_of(str(tmp_path))["samples_per_subset"] == 5


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    capsys.readouterr()


def test_timings_go_to_stderr_only(tmp_path, capsys):
    main(["check", scene_path("pair.json"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "[time]" in captured.err
    assert "[time]" not in captured.out


def test_cli_import_loads_no_scipy():
    """Projections run on the package's own solver and scipy's hulls in 3
    or more dimensions are imported where they are used, so importing the
    CLI loads numpy and no scipy module."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hollowkit.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


# Runs hollowkit.cli.main on its arguments in a fresh interpreter and prints,
# as the last line of stdout, the scipy modules loaded by then.
SCIPY_PROBE = """import json, sys, hollowkit.cli
try:
    code = hollowkit.cli.main(sys.argv[1:])
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def scipy_loaded_by(command, scene, outdir, code=0):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, command, scene_path(scene),
         "--out", str(outdir)], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command,scene", [
    ("check", "disks.json"), ("hollow", "pair.json"),
    ("stab-verify", "stab.json"), ("stab-verify", "stab4.json"),
    ("solve-klee", "squares.json"),
    ("kkm", "goodkkm.json"), ("kkm", "gapkkm.json"),
    ("render", "disks.json"), ("certify", "disks.json"),
    ("certify", "vpoly.json"), ("check", "vpoly.json"),
    ("render", "vpoly.json")])
def test_scenes_without_hulls_load_no_scipy(command, scene, tmp_path):
    """A hull in the plane, of the certified cells or of a V-polytope, is
    the package's own monotone chain, so a 2-D scene loads no scipy.  A
    stabbing check builds no hull, so stab4, whose transversal is a
    3-flat in 4-D, loads none either."""
    # gapkkm's cover check fails, a rejected claim (exit code 2)
    code = 2 if scene == "gapkkm.json" else 0
    assert scipy_loaded_by(command, scene, tmp_path, code) == []


def test_a_3d_hull_loads_scipy_spatial_alone(tmp_path):
    """A certified hull in 3-D needs Quickhull, and nothing else from
    scipy."""
    loaded = scipy_loaded_by("certify", "balls3.json", tmp_path)
    assert "scipy.spatial" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.stats"))]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hollowkit", "check", scene_path("pair.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "critical family" in proc.stdout
    assert "[time]" in proc.stderr


def test_dumps_floats_round_trip():
    values = [0.1, 1e-7, 0.33319836727051344, 1.0 / 3.0, 12.0 / np.sqrt(13.0)]
    text = dumps({"values": values})
    assert json.loads(text)["values"] == values


def test_dumps_normalizes_numpy_tuples_sets_and_negative_zero():
    obj = {"a": np.float64(-0.0), "b": np.int64(3),
           "c": np.array([[1.0, -0.0], [0.1, 2.5e-17]]),
           "d": (np.bool_(True), None, 'x"y'),
           "e": {"f": {"g": [1, (2.0, -0.0)], "h": {}}, "i": []},
           "j": np.float32(0.1), "k": {2, 1}, 7: np.array([1, 2])}
    assert dumps(obj) == (
        '{\n  "a": 0,\n  "b": 3,\n  "c": [\n    [1, 0],\n'
        '    [0.10000000000000001, 2.4999999999999999e-17]\n  ],\n'
        '  "d": [true, null, "x\\"y"],\n  "e": {\n    "f": {\n'
        '      "g": [\n        1,\n        [2, 0]\n      ],\n'
        '      "h": {}\n    },\n    "i": []\n  },\n'
        '  "j": 0.10000000149011612,\n  "k": [1, 2],\n  "7": [1, 2]\n}\n')
    with pytest.raises(SceneError, match="non-finite"):
        dumps({"x": np.array([np.nan])})


@pytest.mark.parametrize("command", ["check", "hollow", "certify", "render",
                                     "solve-klee"])
def test_a_one_body_scene_is_one_scene_error(command, tmp_path, capsys):
    """One body is no family: the scene is refused, naming the subcommand,
    before any certificate or witness is sought."""
    code = main([command, scene_path("one_body.json"), "--out", str(tmp_path)])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error" in line]
    assert errors == [f"scene error: {scene_path('one_body.json')}: {command} "
                      "needs at least two bodies, the scene has 1"]
    assert not (tmp_path / "result.json").exists()


def test_a_kkm_section_of_thirteen_points_is_one_scene_error(tmp_path, capsys):
    """A cover check enumerates every subset of the points, so the reader
    refuses more than 12, before the scene is accepted."""
    code = main(["kkm", scene_path("kkm_thirteen.json"), "--out", str(tmp_path)])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error" in line]
    assert errors == [f"scene error: {scene_path('kkm_thirteen.json')}: kkm: "
                      "subset enumeration capped at 12 points, got 13"]
    assert not (tmp_path / "result.json").exists()
