"""Grid certification of the bounded complement component.

A critical family with as many overlap conditions as dimensions traps a
bounded piece of the complement of its union.  This module rasterizes the
union on a cell grid around the witness simplex, labels the uncovered
cells by face adjacency, and certifies the largest bounded component: its
measure, its convex hull, which bodies form its boundary, and whether a
given pair of affine flats stabs it the way the construction predicts.
The stabbing check rasterizes the union's trace on the first flat through
the same grid and labeling, with the grid laid out in the flat's
coordinates; a transversal that is a single point (n = d) is accepted.

A body's mask is its ``contains_batch`` at ``tol = 0`` on the cell centers,
read from the per-axis coordinates of the centers without listing the
grid's points (1.8M of them for a 128-cell 3-D grid).  A ball adds the
squared offsets along each axis as arrays that broadcast over the grid,
left to right, which is the same arithmetic as its ``contains_batch`` on a
point; an intersection ANDs its members' masks, since at ``tol = 0`` its
boundary band is empty.  So both masks are exact.  A polytope lifts the
centers to a point list: its row slacks come from a BLAS product, whose
sums agree with per-axis sums in only 70-85% of slacks on random points
in 2-D and 3-D, so a broadcast form would change which cells it holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.linalg import null_space
from scipy.spatial import ConvexHull, QhullError

from .bodies import HPolytope, VPolytope, _grid_points
from .errors import (GridDimensionError, GridResolutionError,
                     HollowNotFoundError, NoHollowError)
from .geometry import AffineSubspace, as_point, as_points
from .solvers import min_distance

MIN_CELLS_PER_AXIS = 20
BOX_EXPAND = 1.1


@dataclass
class Grid:
    """Axis-aligned cell grid with per-body coverage masks.

    ``covered[idx]`` is true when the cell center lies in at least one
    body; ``body_covers[i]`` is the mask for body i alone.  Coordinates
    are the bodies' own, or a flat's frame coordinates for a trace grid.
    """

    lo: np.ndarray
    resolution: float
    shape: tuple
    covered: np.ndarray = field(repr=False)
    body_covers: list = field(repr=False)

    def center(self, idx):
        return self.lo + (np.asarray(idx, dtype=float) + 0.5) * self.resolution

    def centers(self, cells):
        return self.lo + (np.asarray(cells, dtype=float) + 0.5) * self.resolution

    def index_of(self, point):
        idx = np.floor((as_point(point, self.lo.size) - self.lo)
                       / self.resolution).astype(int)
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.shape)):
            return None
        return tuple(int(i) for i in idx)


def check_resolution(resolution):
    """``resolution`` as a float cell size; :class:`GridResolutionError`
    unless it is a positive finite number."""
    h = float(resolution)
    if not (np.isfinite(h) and h > 0.0):
        raise GridResolutionError(
            f"resolution must be a positive finite number, got {h:g}")
    return h


def _box_corners(lo, hi):
    """The 2^d corners of the axis-aligned box [lo, hi], one per row."""
    bits = (np.arange(2 ** lo.size)[:, None] >> np.arange(lo.size)) & 1
    return np.where(bits == 0, lo, hi)


def _build_grid(bodies, lo, counts, resolution, flat=None):
    """Rasterize the union of ``bodies`` at the centers of a cell grid.

    The grid has ``counts[i]`` cells of side ``resolution`` along axis i,
    starting at ``lo``, and at least ``MIN_CELLS_PER_AXIS`` on every axis
    (else :class:`GridResolutionError`).  Each body's mask is its
    ``contains_batch`` at ``tol = 0`` on the cell centers.  Without ``flat``
    it is the body's grid cover, read from the centers' coordinates on
    each axis (see the module docstring for why that is exact).  With
    ``flat`` the grid lives in that affine subspace's coordinates, and its
    centers are lifted onto the flat for membership tests.
    """
    if counts.min() < MIN_CELLS_PER_AXIS:
        raise GridResolutionError(
            f"resolution {resolution:g} gives only {int(counts.min())} cells "
            f"on the narrowest axis; at least {MIN_CELLS_PER_AXIS} required")
    shape = tuple(int(c) for c in counts)
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * resolution
            for i in range(lo.size)]
    if flat is None:
        body_covers = [b._grid_cover(axes) for b in bodies]
    else:
        points = _grid_points(axes) @ flat.basis + flat.base
        body_covers = [b.contains_batch(points, tol=0.0).reshape(shape)
                       for b in bodies]
    covered = np.zeros(shape, dtype=bool)
    for mask in body_covers:
        covered |= mask
    return Grid(lo, float(resolution), shape, covered, body_covers)


def _uncovered_components(grid):
    """Face-adjacency labels of the uncovered cells, and the border labels.

    Label 0 marks covered cells; the returned set holds every label that
    reaches a face of the grid box, i.e. the unbounded components.
    """
    d = len(grid.shape)
    labels, _ = ndimage.label(
        ~grid.covered, structure=ndimage.generate_binary_structure(d, 1))
    border = set()
    for axis in range(d):
        for face in (0, -1):
            sl = [slice(None)] * d
            sl[axis] = face
            border.update(np.unique(labels[tuple(sl)]).tolist())
    border.discard(0)
    return labels, border


@dataclass
class HollowCertificate:
    """One bounded uncovered component, certified on a grid.

    ``cells`` are multi-indices into the grid, ``measure`` is the covered
    volume estimate (cell count times cell volume), ``hull_vertices`` the
    convex hull of the cell centers.  ``component_count`` reports how many
    bounded components the grid found in total; the certificate describes
    the largest.
    """

    grid: Grid
    cells: np.ndarray = field(repr=False)
    measure: float
    hull_vertices: np.ndarray
    bounded: bool
    component_count: int
    resolution: float

    @property
    def cell_count(self):
        return self.cells.shape[0]

    @property
    def centers(self):
        return self.grid.centers(self.cells)


def _component_hull(centers):
    pts = as_points(centers)
    try:
        hull = ConvexHull(pts)
        return pts[hull.vertices]
    except QhullError:
        return np.unique(pts, axis=0)


def certify_hollow(family, resolution=None, retry=True):
    """Locate and certify the bounded complement component of a family.

    The grid box is the witness bounding box scaled by ``BOX_EXPAND`` about
    its center; ``resolution`` is its cell size, by default 1/128 of the
    box's widest side.  Cell centers are classified by body membership,
    uncovered cells are labeled by face adjacency, and components touching
    the grid border are discarded as unbounded.  If no bounded component
    shows up the grid is retried once at half the cell size.

    Raises
    ------
    NoHollowError
        If the family has fewer overlap conditions than dimensions (the
        complement of the union is connected).
    GridDimensionError
        If the family does not live in dimension 2 or 3.
    GridResolutionError
        If the resolution is not a positive finite number, or gives fewer
        than 20 cells per axis.
    HollowNotFoundError
        If no bounded component exists even after the retry.
    """
    if family.n != family.d:
        raise NoHollowError(
            f"a {family.n}-condition family in dimension {family.d} leaves "
            "no bounded complement component")
    d = family.d
    if d not in (2, 3):
        raise GridDimensionError(
            "grid certification supports dimension 2 or 3")
    W = family.witnesses
    lo0, hi0 = W.min(axis=0), W.max(axis=0)
    if resolution is None:
        resolution = BOX_EXPAND * float((hi0 - lo0).max()) / 128.0
    resolution = check_resolution(resolution)
    center = 0.5 * (lo0 + hi0)
    half = 0.5 * BOX_EXPAND * (hi0 - lo0)
    lo, hi = center - half, center + half
    counts = np.ceil((hi - lo) / resolution - 1e-12)
    grid = _build_grid(family.bodies, lo, counts, resolution)
    labels, unbounded = _uncovered_components(grid)
    sizes = np.bincount(labels.ravel())
    bounded = [(int(sizes[l]), l) for l in range(1, sizes.size)
               if l not in unbounded]
    if not bounded:
        if retry:
            return certify_hollow(family, resolution / 2.0, retry=False)
        raise HollowNotFoundError(
            f"no bounded uncovered component at resolution {resolution:g} "
            "or its refinement")
    _, lab = max(bounded)
    cells = np.argwhere(labels == lab)
    centers = grid.centers(cells)
    return HollowCertificate(
        grid=grid,
        cells=cells,
        measure=float(cells.shape[0]) * resolution ** d,
        hull_vertices=_component_hull(centers),
        bounded=True,
        component_count=len(bounded),
        resolution=grid.resolution,
    )


@dataclass
class BoundaryAttribution:
    """Which bodies close off the component, cell by cell.

    ``cells`` are the component cells with at least one covered face
    neighbor; ``bodies_by_cell[k]`` lists the bodies covering those
    neighbors.  ``complete`` is true when every family member shows up
    somewhere on the boundary.
    """

    cells: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    bodies_by_cell: tuple
    bodies_present: frozenset
    complete: bool


def boundary_attribution(certificate):
    """Attribute each boundary cell of the component to covering bodies.

    The attribution is complete when every body of the grid shows up.
    """
    grid = certificate.grid
    d = grid.lo.size
    cells = certificate.cells
    shape = np.asarray(grid.shape)
    per_cell = [set() for _ in range(cells.shape[0])]
    for axis in range(d):
        for step in (-1, 1):
            nbr = cells.copy()
            nbr[:, axis] += step
            ok = (nbr[:, axis] >= 0) & (nbr[:, axis] < shape[axis])
            idx = tuple(nbr[ok].T)
            covered = grid.covered[idx]
            rows = np.flatnonzero(ok)[covered]
            if rows.size == 0:
                continue
            sub = tuple(nbr[rows].T)
            for i, mask in enumerate(grid.body_covers):
                hits = rows[mask[sub]]
                for r in hits:
                    per_cell[r].add(i)
    keep = [k for k, s in enumerate(per_cell) if s]
    bcells = cells[keep]
    by_cell = tuple(tuple(sorted(per_cell[k])) for k in keep)
    present = frozenset(i for s in by_cell for i in s)
    return BoundaryAttribution(
        cells=bcells,
        centers=grid.centers(bcells),
        bodies_by_cell=by_cell,
        bodies_present=present,
        complete=(len(present) == len(grid.body_covers)),
    )


def nearest_boundary_distance(attribution, points):
    """Distance from each query point to the closest boundary cell center."""
    pts = as_points(points)
    centers = attribution.centers
    diffs = pts[:, None, :] - centers[None, :, :]
    return np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)


def enclosure_check(certificate, n_points=100, n_dirs=64, seed=0):
    """Ray test: every sampled escape from the component crosses the union.

    From sampled component cell centers, rays in random directions are
    marched in half-cell steps; each must hit a covered cell before leaving
    the grid box.  Returns the fraction of rays that did.
    """
    grid = certificate.grid
    d = grid.lo.size
    rng = np.random.default_rng(seed)
    k = certificate.cells.shape[0]
    pick = rng.choice(k, size=min(n_points, k), replace=False)
    starts = certificate.centers[pick]
    h = grid.resolution
    hi = grid.lo + np.asarray(grid.shape) * h
    span = float(np.linalg.norm(hi - grid.lo))
    t = (np.arange(1, int(np.ceil(span / (h / 2))) + 2)) * (h / 2)
    shape = np.asarray(grid.shape)
    ok = 0
    total = 0
    for start in starts:
        dirs = rng.normal(size=(n_dirs, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = start[None, None, :] + t[None, :, None] * dirs[:, None, :]
        idx = np.floor((pts - grid.lo) / h).astype(int)
        inside = np.all((idx >= 0) & (idx < shape), axis=2)
        idx_c = np.clip(idx, 0, shape - 1)
        covered = grid.covered[tuple(np.moveaxis(idx_c, 2, 0))]
        hit = covered & inside
        total += n_dirs
        ok += int(np.any(hit, axis=1).sum())
    return ok / float(total)


def simplex_containment(certificate, simplex):
    """Worst distance from a component cell center to the simplex.

    Zero when every center lies inside; a sound certificate stays within
    one cell diagonal of zero.
    """
    centers = certificate.centers
    V = simplex.vertices
    system = np.vstack([V.T, np.ones(V.shape[0])])
    rhs = np.vstack([centers.T, np.ones(centers.shape[0])])
    bary, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    worst = 0.0
    hull = VPolytope(V)
    for j in np.flatnonzero(bary.min(axis=0) < -1e-12):
        worst = max(worst, float(hull.distance(centers[j])))
    return worst


def perimeter_estimate(certificate):
    """Boundary cell count times cell face area; a surface-measure proxy."""
    attribution = boundary_attribution(certificate)
    d = certificate.grid.lo.size
    return attribution.cells.shape[0] * certificate.resolution ** (d - 1)


def hausdorff_convex(vertices_a, vertices_b):
    """Hausdorff distance between convex hulls of two finite point sets.

    The supremum over a convex hull of the distance to another convex set
    is attained at a vertex, so both directed distances reduce to vertex
    projections.
    """
    A = as_points(vertices_a)
    B = as_points(vertices_b)
    hull_a = VPolytope(A)
    hull_b = VPolytope(B)
    d_ab = max(float(hull_b.distance(v)) for v in A)
    d_ba = max(float(hull_a.distance(v)) for v in B)
    return max(d_ab, d_ba)


def hull_vs_simplex(certificate, hollow):
    """Hausdorff distance between the grid hull and the hollow simplex."""
    return hausdorff_convex(certificate.hull_vertices, hollow.vertices)


@dataclass(frozen=True)
class StabbingPair:
    """Complementary affine flats crossing at a single point.

    ``w`` carries the hollow directions (dimension n), ``v`` the
    transversal directions (dimension d - n); they must meet only at
    ``point``.
    """

    w: AffineSubspace
    v: AffineSubspace
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point",
                           as_point(self.point, self.w.base.size))
        d = self.w.base.size
        if self.w.dim + self.v.dim != d:
            raise ValueError(
                f"flat dimensions {self.w.dim} + {self.v.dim} must sum to {d}")
        scale = 1.0 + float(np.linalg.norm(self.point))
        # refused too: a distance that overflows, when scale may be inf
        for flat, name in ((self.w, "first"), (self.v, "second")):
            off = flat.distance(self.point)
            if not np.isfinite(off) or off > 1e-7 * scale:
                raise ValueError(f"crossing point is off the {name} flat")
        stacked = np.vstack([self.w.basis, self.v.basis])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv.size and sv[-1] < 1e-9:
            raise ValueError("flats are not transversal: directions overlap")


@dataclass(frozen=True)
class StabbingReport:
    """Two-part verdict on a stabbing pair.

    ``witness_ok`` records that every witness lies on the first flat and
    that the second flat clears every body; ``surround_ok`` that the
    crossing point sits in a bounded uncovered component of the union's
    trace on the first flat.  ``surround_ok`` is None when the first stage
    already failed.
    """

    witness_ok: bool
    surround_ok: object
    reasons: tuple
    witness_offsets: np.ndarray = None
    clearances: np.ndarray = None

    @property
    def ok(self):
        return bool(self.witness_ok) and bool(self.surround_ok)


def _family_box(bodies, extra_points):
    """Bounding box of the bodies and points, padded by a tenth of its span."""
    los, his = map(list, zip(*(b.bounding_box() for b in bodies)))
    pts = as_points(extra_points)
    los.append(pts.min(axis=0))
    his.append(pts.max(axis=0))
    lo = np.min(los, axis=0)
    hi = np.max(his, axis=0)
    pad = 0.1 * max(float((hi - lo).max()), 1.0)
    return lo - pad, hi + pad


def verify_stabbing(pair, bodies, witnesses, tol=1e-6, resolution=None):
    """Check that a pair of flats stabs a family the way a hollow demands.

    Stage one: every witness must lie on ``pair.w`` (within ``tol``) and
    ``pair.v`` must keep a clearance above ``tol`` from every body.  The
    clearances are measured to the part of ``pair.v`` inside the family's
    padded bounding box, an H-polytope; ``pair.v`` may be a single point,
    as for n = d.  Stage two, only if stage one passes: the union's trace
    on ``pair.w`` is rasterized on the certificate's grid, laid out in the
    coordinates of ``pair.w`` (cell size ``resolution``, by default 1/256
    of the trace box's widest side), and the crossing point must fall in a
    bounded uncovered component of that trace.  A ``resolution`` that is
    not a positive finite number raises :class:`GridResolutionError`.
    """
    if resolution is not None:
        resolution = check_resolution(resolution)
    bodies = list(bodies)
    witnesses = as_points(witnesses)
    reasons = []
    offsets = np.array([pair.w.distance(a) for a in witnesses])
    bad = np.flatnonzero(offsets > tol)
    if bad.size:
        for j in bad:
            reasons.append(
                f"witness {j} is {offsets[j]:.3e} off the stabbing flat")
        return StabbingReport(False, None, tuple(reasons),
                              witness_offsets=offsets)
    lo, hi = _family_box(bodies, np.vstack([witnesses, pair.point[None, :]]))
    # The transversal inside the box: the box rows plus both signs of the
    # rows spanning the flat's normal space.
    d = lo.size
    normals = null_space(pair.v.basis).T
    v_offsets = normals @ pair.v.base
    transversal = HPolytope(
        np.vstack([np.eye(d), -np.eye(d), normals, -normals]),
        np.concatenate([hi, -lo, v_offsets, -v_offsets]))
    clearances = np.empty(len(bodies))
    for i, body in enumerate(bodies):
        clearances[i] = min_distance(transversal, body).distance
        if clearances[i] <= tol:
            reasons.append(
                f"transversal flat meets body {i} "
                f"(clearance {clearances[i]:.3e})")
    if reasons:
        return StabbingReport(False, None, tuple(reasons),
                              witness_offsets=offsets, clearances=clearances)
    # stage two: trace of the union on the flat w
    tcorners = np.array([pair.w.coords(c) for c in _box_corners(lo, hi)])
    tlo = tcorners.min(axis=0)
    thi = tcorners.max(axis=0)
    span = float((thi - tlo).max())
    h = resolution if resolution is not None else span / 256.0
    counts = np.ceil((thi - tlo + 4 * h) / h - 1e-12)
    grid = _build_grid(bodies, tlo - 2 * h, counts, h, flat=pair.w)
    pidx = grid.index_of(pair.w.coords(pair.point))
    if pidx is None:
        reason = "crossing point falls outside the trace grid"
    elif grid.covered[pidx]:
        reason = "crossing point lies inside the union's trace"
    else:
        labels, border = _uncovered_components(grid)
        if labels[pidx] not in border:
            return StabbingReport(True, True, (), witness_offsets=offsets,
                                  clearances=clearances)
        reason = "crossing point's uncovered trace component reaches the border"
    return StabbingReport(True, False, (reason,), witness_offsets=offsets,
                          clearances=clearances)
