"""The least-distance solver behind every cut projection, every polytope
projection's choice of face and every emptiness verdict of a scan."""
import json
import os

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from hollowkit import HPolytope, ProjectionError, VPolytope, body_from_json
from hollowkit.bodies import _Infeasible, _LeastDistance

DATA = os.path.join(os.path.dirname(__file__), "data")

# Distances and row slacks against scipy's NNLS, relative to 1 + |p|_inf.
NNLS_RTOL = 1e-14
# Row slacks at vertices where more than d rows meet, relative to
# 1 + |p|_inf: the rounding of the active slacks, amplified by the
# combination that expresses an extra row.
DEGENERATE_RTOL = 1e-12
# Apex errors of the acute wedge, by half-angle: the rows lose about
# eps / angle there.
WEDGE_BOUNDS = [(1e-3, 1e-12), (1e-6, 1e-9), (1e-8, 1e-7)]


def nnls_nearest_point(A, b, p):
    """Nearest point to p of {A x <= b} by Lawson & Hanson's least-distance
    dual, one NNLS; None when its residual says the rows share no point."""
    slacks = A @ p - b
    sigma = float(slacks.max())
    if sigma <= 0.0:
        return p.copy()
    E = np.vstack([-A.T, slacks / sigma])
    u, _ = nnls(E, np.eye(p.size + 1)[-1])
    r = E @ u - np.eye(p.size + 1)[-1]
    if r[-1] >= 0.0:
        return None
    return p - (sigma / r[-1]) * r[:-1]


def unit_rows(rng, m, d):
    A = rng.normal(size=(m, d))
    return A / np.linalg.norm(A, axis=1)[:, None]


def cut_system(rng, d, m):
    """m unit rows around a center: some tangent to a ball about it, some
    farther out, so that vertices, edges and faces all get active."""
    center = rng.uniform(-5.0, 5.0, size=d)
    A = unit_rows(rng, m, d)
    radius = rng.uniform(0.1, 2.0)
    b = A @ center + radius * np.where(rng.random(m) < 0.5, 1.0, rng.uniform(1.0, 3.0, m))
    return A, b, center


def infeasible_system(rng, d):
    """Unit rows whose positive combination lam has A^T lam = 0 and
    b . lam < 0, a Farkas certificate that they share no point."""
    k = int(rng.integers(1, d + 1))
    A = unit_rows(rng, k, d)
    lam = rng.uniform(0.2, 1.0, size=k)
    last = -lam @ A
    scale = np.linalg.norm(last)
    A = np.vstack([A, last / scale])
    lam = np.append(lam, scale)
    b = rng.uniform(-1.0, 1.0, size=k)
    b = np.append(b, (-rng.uniform(0.01, 1.0) - lam[:-1] @ b) / lam[-1])
    extra = unit_rows(rng, int(rng.integers(0, 4)), d)
    A = np.vstack([A, extra])
    b = np.append(b, extra @ rng.normal(size=d) + 1.0)
    order = rng.permutation(A.shape[0])
    return A[order], b[order]


@pytest.mark.parametrize("p", [0.0, 5.0])
def test_contradicting_pair_raises(p):
    """{y >= 1, y <= -1} has no point, from either side; the spent solver
    refuses again, with the same type."""
    A, b = np.array([[-1.0], [1.0]]), np.array([-1.0, -1.0])
    solver = _LeastDistance(np.array([p]))
    for _ in range(2):
        with pytest.raises(_Infeasible, match="share no point"):
            solver.solve(A, b)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_seeded_infeasible_systems_raise(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(100):
        A, b = infeasible_system(rng, d)
        lp = linprog(np.zeros(d), A_ub=A, b_ub=b, bounds=(None, None), method="highs")
        assert lp.status == 2
        for _ in range(3):
            p = rng.uniform(-10.0, 10.0, size=d)
            with pytest.raises(_Infeasible, match="share no point"):
                _LeastDistance(p).solve(A, b)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_degenerate_feasible_systems_never_raise(d):
    """Rows that all pass through one point c, or repeat with other
    offsets: feasible, with vertices where more than d rows meet, whose
    rounding must not pass for a contradiction.  The answer holds the rows
    and is no farther from p than c is."""
    rng = np.random.default_rng(90 + d)
    for trial in range(300):
        m = int(rng.integers(d + 1, 25))
        A = unit_rows(rng, m, d)
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        c = scale * rng.uniform(-3.0, 3.0, size=d)
        if trial % 2:
            A = A[rng.integers(0, m, size=m)]
            b = A @ c + scale * rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.5)
        else:
            b = A @ c
        for _ in range(3):
            p = c + scale * rng.choice([0.1, 1.0, 10.0]) * rng.normal(size=d)
            x = _LeastDistance(p).solve(A, b)
            bound = DEGENERATE_RTOL * (1.0 + np.abs(p).max())
            assert (A @ x - b).max() <= bound
            assert np.linalg.norm(x - p) <= np.linalg.norm(c - p) + bound


@pytest.mark.parametrize("where", ["A", "b", "p"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_projection_error(where, value):
    A = np.vstack([np.eye(2), -np.eye(2)])
    b, p = np.ones(4), np.array([3.0, 0.5])
    {"A": A[1], "b": b[1:2], "p": p[1:]}[where][0] = value
    with pytest.raises(ProjectionError, match="not finite"):
        _LeastDistance(p).solve(A, b)


def test_non_finite_appended_row_is_a_projection_error():
    solver = _LeastDistance(np.array([3.0, 0.5]))
    A, b = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    assert np.allclose(solver.solve(A, b), [1.0, 0.5])
    with pytest.raises(ProjectionError, match="not finite"):
        solver.solve(np.vstack([A, [np.nan, 1.0]]), np.append(b, 0.0))
    # a raising solver is spent, and its failure is no refusal of the rows
    with pytest.raises(ProjectionError, match="not finite") as info:
        solver.solve(A, b)
    assert not isinstance(info.value, _Infeasible)


def wedge_rows(angle):
    """{y >= 0, y <= x tan(angle), x <= 1} as unit rows (A, b)."""
    A = np.array([[0.0, -1.0], [-np.sin(angle), np.cos(angle)], [1.0, 0.0]])
    return A, np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("angle,bound", WEDGE_BOUNDS)
def test_acute_wedge_apex_is_exact(angle, bound):
    """The rows of the wedge: (-1, 0.5) projects to the apex."""
    A, b = wedge_rows(angle)
    x = _LeastDistance(np.array([-1.0, 0.5])).solve(A, b)
    assert np.abs(x).max() <= bound


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_matches_nnls_call_for_call(d):
    """Seeded cut systems of 1-32 unit rows: the distance and the rows hold
    as scipy's NNLS has them, whether a solve starts fresh or resumes from
    the system's first rows, as a cut loop's passes do."""
    rng = np.random.default_rng(7 * d)
    for _ in range(60):
        A, b, center = cut_system(rng, d, int(rng.integers(1, 33)))
        for _ in range(4):
            p = center + rng.normal(size=d) * rng.choice([0.5, 5.0, 50.0])
            ref = nnls_nearest_point(A, b, p)
            bound = NNLS_RTOL * (1.0 + np.abs(p).max())
            resumed = _LeastDistance(p)
            for m in sorted({int(rng.integers(1, A.shape[0] + 1)), A.shape[0]}):
                x_resumed = resumed.solve(A[:m], b[:m])
            for x in (_LeastDistance(p).solve(A, b), x_resumed):
                assert (A @ x - b).max() <= bound
                assert (A @ ref - b).max() <= bound
                assert abs(np.linalg.norm(x - p) - np.linalg.norm(ref - p)) <= bound


def nnls_hull_projection(body, p):
    """A polytope's project with the face picked by NNLS over simplex
    weights on its vertices."""
    if (body._A @ p - body._b).max() <= 0.0:
        return p.copy()
    W = (body.vertices - p).T
    W /= np.sqrt((W * W).sum(axis=0).max())
    u, _ = nnls(np.vstack([W, np.ones(W.shape[1])]), np.eye(body.dim + 1)[-1])
    face = body.vertices[u > 0.0]
    edges = face[1:] - face[0]
    t = np.linalg.lstsq(edges.T, p - face[0], rcond=None)[0]
    return face[0] + t @ edges


def hull_cases():
    with open(os.path.join(DATA, "vpoly.json"), encoding="utf-8") as fh:
        scene = json.load(fh)
    for i, spec in enumerate(scene["bodies"]):
        yield f"vpoly.json-{i}", body_from_json(spec, scene["dimension"])
    rng = np.random.default_rng(40)
    yield "40-vertex-3d", VPolytope(rng.normal(size=(40, 3)))
    # rows project by the same rule, onto their vertices
    yield "box-3d", HPolytope.box([-1.0, 0.0, 2.0], [0.5, 3.0, 2.5])
    yield "12-row-3d", HPolytope(unit_rows(rng, 12, 3), rng.uniform(0.5, 2.0, 12))
    yield "wedge-1e-6", HPolytope(*wedge_rows(1e-6))


@pytest.mark.parametrize("name,body", list(hull_cases()))
def test_vpolytope_picks_the_nnls_face(name, body):
    """The same face, so the same projection onto its affine hull up to
    rounding, from far and near, whether the polytope was given by its
    vertices or by its rows."""
    rng = np.random.default_rng(11)
    lo, hi = body.bounding_box()
    span = float((hi - lo).max())
    for _ in range(200):
        p = rng.uniform(lo - span, hi + span)
        err = np.abs(body.project(p) - nnls_hull_projection(body, p)).max()
        assert err <= NNLS_RTOL * (1.0 + np.abs(p).max()), (name, p, err)
