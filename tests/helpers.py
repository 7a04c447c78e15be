"""Independent oracles and random instance builders used by the tests.

Everything here is deliberately written against different machinery than
the package itself (direct LP formulations, closed forms), so agreement
between the two is evidence rather than tautology.
"""
import itertools
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.optimize import linprog

from hollowkit import Ball, HPolytope, VPolytope


def hulls_intersect(P, Q):
    """LP feasibility: do the convex hulls of two point sets meet?

    Solves for mixture weights lam, mu >= 0 with sum 1 each and
    P^T lam = Q^T mu; feasibility is exactly hull intersection.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    p, q = P.shape[0], Q.shape[0]
    d = P.shape[1]
    A_eq = np.zeros((d + 2, p + q))
    b_eq = np.zeros(d + 2)
    A_eq[:d, :p] = P.T
    A_eq[:d, p:] = -Q.T
    A_eq[d, :p] = 1.0
    b_eq[d] = 1.0
    A_eq[d + 1, p:] = 1.0
    b_eq[d + 1] = 1.0
    res = linprog(np.zeros(p + q), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0.0, None), method="highs")
    return res.status == 0


def is_intersecting_bipartition(points, part1, part2):
    """Whether two index sets split ``points`` into two nonempty parts whose
    hulls meet: one LP, in place of listing every such bipartition."""
    part1, part2 = frozenset(part1), frozenset(part2)
    points = np.asarray(points, dtype=float)
    return (bool(part1) and bool(part2) and not part1 & part2
            and part1 | part2 == frozenset(range(points.shape[0]))
            and hulls_intersect(points[sorted(part1)], points[sorted(part2)]))


def segment_point_distance(p, a, b):
    """Closed-form distance from a point to a segment."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = b - a
    t = float(np.clip((p - a) @ u / (u @ u), 0.0, 1.0))
    return float(np.linalg.norm(a + t * u - p)), a + t * u


def box_box_distance(lo1, hi1, lo2, hi2):
    """Closed-form distance between axis-aligned boxes."""
    lo1, hi1 = np.asarray(lo1, float), np.asarray(hi1, float)
    lo2, hi2 = np.asarray(lo2, float), np.asarray(hi2, float)
    gaps = np.maximum(np.maximum(lo2 - hi1, lo1 - hi2), 0.0)
    return float(np.linalg.norm(gaps))


def ball_ball_distance(c1, r1, c2, r2):
    return max(float(np.linalg.norm(np.asarray(c2, float)
                                    - np.asarray(c1, float))) - r1 - r2, 0.0)


def circle_intersections(c1, c2, r=1.0):
    """Both intersection points of two unit circles (closed form)."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    dvec = c2 - c1
    dist = float(np.linalg.norm(dvec))
    a = dist / 2.0
    hh = np.sqrt(r * r - a * a)
    mid = (c1 + c2) / 2.0
    perp = np.array([-dvec[1], dvec[0]]) / dist
    return mid + hh * perp, mid - hh * perp


def union_box_family(rng, dim):
    """Family whose union is a box: the base box plus clipped half-boxes.

    Body 0 is the box itself; body j is the box cut down to x_j >= alpha_j
    with alpha_j strictly inside, so the union stays the box and the full
    intersection is a fat corner cell.
    """
    sides = rng.uniform(1.0, 3.0, size=dim)
    alphas = rng.uniform(0.2, 0.6, size=dim) * sides
    bodies = [HPolytope.box(np.zeros(dim), sides)]
    for j in range(dim):
        lo = np.zeros(dim)
        lo[j] = alphas[j]
        bodies.append(HPolytope.box(lo, sides))
    return bodies, sides, alphas


def random_critical_rejection_family(rng, dim):
    """n + 1 > d + 1 bodies all sharing a small central core.

    Such a family always trips the dimension guard, and the shared core
    point is an explicit witness that the full intersection is nonempty.
    """
    n_bodies = dim + 2 + int(rng.integers(0, 2))
    core = rng.uniform(-0.2, 0.2, size=dim)
    bodies = []
    for i in range(n_bodies):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            center = core + rng.uniform(-0.3, 0.3, size=dim)
            radius = float(np.linalg.norm(core - center)) + rng.uniform(0.2, 1.0)
            bodies.append(Ball(center, radius))
        elif kind == 1:
            lo = core - rng.uniform(0.1, 1.0, size=dim)
            hi = core + rng.uniform(0.1, 1.0, size=dim)
            bodies.append(HPolytope.box(lo, hi))
        else:
            spread = rng.uniform(0.2, 1.0)
            pts = core + rng.uniform(-spread, spread, size=(2 * dim + 2, dim))
            pts = np.vstack([pts, core + spread * np.eye(dim),
                             core - spread * np.eye(dim)])
            bodies.append(VPolytope(pts))
    return bodies, core


def random_base_points(family, rng):
    """One cage base point per leave-one-out intersection: a uniform point
    of the family's bounding box, projected onto that intersection."""
    los, his = zip(*(b.bounding_box() for b in family.bodies))
    lo, hi = np.min(los, axis=0), np.max(his, axis=0)
    return np.array([family.leave_one_out(j).project(
        lo + (hi - lo) * rng.random(family.d)) for j in range(family.n + 1)])


def random_points(rng, count, dim, spread=2.0):
    return rng.uniform(-spread, spread, size=(count, dim))


def fraction_subdivisions(k):
    """Iterated barycentric subdivisions of the standard k-simplex, one
    ``Fraction`` at a time: the reference for ``hollowkit.subdivide``.

    Yields ``(vertices, cells)`` at depth 0, 1, 2, ...: the vertices are
    tuples of exact barycentrics, numbered in order of first appearance, and
    the cells are tuples of vertex ids, cell-major and permutation-minor.
    """
    vertices = [tuple(Fraction(int(i == j)) for j in range(k + 1))
                for i in range(k + 1)]
    index = {v: i for i, v in enumerate(vertices)}
    cells = [tuple(range(k + 1))]
    while True:
        yield tuple(vertices), cells
        # each face's barycenter is computed once per level, and its id is
        # still found in ``index`` by its coordinates
        face_ids = {}
        new_cells = []
        for cell in cells:
            for perm in itertools.permutations(cell):
                chain = []
                for m in range(1, k + 2):
                    face = frozenset(perm[:m])
                    if face not in face_ids:
                        bary = tuple(sum(coords) / m for coords in
                                     zip(*(vertices[vid] for vid in face)))
                        if bary not in index:
                            index[bary] = len(vertices)
                            vertices.append(bary)
                        face_ids[face] = index[bary]
                    chain.append(face_ids[face])
                new_cells.append(tuple(chain))
        cells = new_cells


def unique_rows_step(exact):
    """One subdivision step of ``hollowkit.sperner._ExactComplex`` by a full
    ``np.unique(axis=0)`` of every chain point: the reference for its step."""
    k1 = exact.k + 1
    n_old = exact.V.shape[0]
    chains = exact.cells[:, exact.perms]
    scale = (exact.L // np.arange(1, k1 + 1))[:, None]
    points = np.cumsum(exact.V[chains], axis=2) * scale
    rows = np.concatenate([exact.V * exact.L, points.reshape(-1, k1)])
    unique, first, inverse = np.unique(rows, axis=0, return_index=True,
                                       return_inverse=True)
    # re-rank the sorted rows by first appearance: old vertices keep
    # their ids and new ones are numbered in traversal order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    exact.V = unique[order]
    exact.cells = rank[inverse.reshape(-1)[n_old:]].reshape(-1, k1)
    exact.D *= exact.L
    exact.depth += 1


def whole_grid_cover(bodies, lo, shape, resolution):
    """The union mask of a cell grid as the OR of each body's grid cover of
    the whole grid at once: the reference for the slabbed
    ``hollow._build_grid``."""
    axes = [lo[i] + (np.arange(n) + 0.5) * resolution
            for i, n in enumerate(shape)]
    covered = np.zeros(shape, dtype=bool)
    for body in bodies:
        covered |= body._grid_cover(axes)
    return covered


def whole_mask_attribution(certificate):
    """The bodies covering a face neighbour of some hollow cell, looked up
    cell by cell in one whole-grid cover per body: the reference for
    ``hollow.boundary_attribution``."""
    grid = certificate.grid
    masks = [whole_grid_cover([body], grid.lo, grid.shape, grid.resolution)
             for body in grid.bodies]
    found = set()
    for cell in certificate.cells:
        for axis in range(len(grid.shape)):
            for step in (-1, 1):
                nbr = cell.copy()
                nbr[axis] += step
                if 0 <= nbr[axis] < grid.shape[axis]:
                    found.update(i for i, mask in enumerate(masks)
                                 if mask[tuple(nbr)])
    return found


def bounded_component_cells(grid):
    """Cells, in C order, of every uncovered component of a grid that
    reaches no face of the grid box, labeled by face adjacency with
    ``scipy.ndimage``: the reference for the cage cells of
    ``hollow.certify_hollow``."""
    d = len(grid.shape)
    labels, _ = ndimage.label(
        ~grid.covered, structure=ndimage.generate_binary_structure(d, 1))
    border = {0}
    for axis in range(d):
        border.update(np.unique(np.take(labels, [0, -1], axis=axis)).tolist())
    return np.argwhere(~np.isin(labels, sorted(border)))
