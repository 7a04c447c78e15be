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

The grid stores no mask, and the bodies are asked only about the
cage's rows.  Along a line of cells along the last axis, each
barycentric in the cage is an affine function a + b k of the cell index
k, read from :attr:`Simplex.form`, which is relative to the cage's first
vertex and so as accurate far from the origin as near it.  One pass, in
slabs along axis 0 of at most ``SLAB_CELLS`` cells, takes each line's
range of cells where all of them can be positive, one cell wider at
each end.  Only those cells, ``CHUNK_CELLS`` at a time, are asked of
the bodies, each body about the cells the ones before it left uncovered,
so no array spans the grid (a 128-cell 3-D grid has 2.1M cells, 16.8M
at the retry's half cell size).  An uncovered cell counts when a + b k
is positive on every row: the range and the test read the same numbers.

A cell is covered when its center passes some body's ``contains_batch``
at ``tol = 0``, read from the coordinate columns of the centers.  A ball
adds the squared offsets along each axis left to right, the same
arithmetic as its ``contains_batch`` on a point; an intersection ANDs
its members' covers, since at ``tol = 0`` its boundary band is empty.  A
polytope stacks the columns into a point list: its row slacks come from
a BLAS product, whose sums agree with per-axis sums in only 70-85% of
slacks on random points in 2-D and 3-D, so a broadcast form would change
which cells it holds.  Neither the rows nor the chunks change a bit:
each cell's test reads only its own center and its line's terms, the
same numbers in whichever slab or chunk it falls (a polytope slack is
one point row times one body row, and a and b are summed term by term;
the tests compare these cells with a whole-grid cover bit for bit).
:func:`boundary_attribution` asks the bodies about the hollow's face
neighbours by the same rule.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .bodies import _hull_projection, check_tol
from .errors import (DegenerateSimplexError, GridDimensionError,
                     GridResolutionError, HollowNotFoundError, NoHollowError)
from .geometry import (AffineSubspace, Simplex, as_point, as_points,
                       planar_hull)
from .solvers import min_distance

logger = logging.getLogger(__name__)

MIN_CELLS_PER_AXIS = 20
# Most cells a grid may hold, above the 16.8M of the 3-D retry.  It
# counts the whole box, though the bodies are asked only about the cage's
# rows; no array spans the grid, so it bounds the run time of one pass,
# not memory.
MAX_GRID_CELLS = 2 ** 25
BOX_EXPAND = 1.1
# Most cells one slab of the grid holds; a slab is at least one layer.
SLAB_CELLS = 2 ** 15
# Most cells asked of the bodies at once.
CHUNK_CELLS = 2 ** 12


@dataclass
class Grid:
    """Axis-aligned cell lattice over which ``bodies`` were certified.

    Cell ``idx`` has its center at ``lo + (idx + 0.5) * resolution``; a
    cell is covered when its center lies in one of ``bodies`` by its
    ``contains_batch`` at ``tol = 0``.  The lattice stores no cell: ask a
    body about cells by that rule on :meth:`centers`.
    """

    lo: np.ndarray
    resolution: float
    shape: tuple
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


def _cage_rows(grid, cage):
    """For each slab of ``grid``: its lines of cells along the last axis,
    as (d - 1, L) multi-indices in C order; intercepts ``a``, (d + 1, L),
    and slopes ``b``, (d + 1,), so that barycentric j in ``cage`` of cell
    k of line l is ``a[j, l] + b[j] * k``, from the first cell's
    :meth:`Simplex.barycentrics` and the steps of :attr:`Simplex.form`;
    and the first k and the count of each line's cells where all can be
    positive.  Those are the k > -a / b where b > 0 and k < -a / b where
    b < 0, and one more at each end, far more than rounding moves a + b k
    across zero.
    """
    d, h, n = len(grid.shape), grid.resolution, grid.shape[-1]
    shift = cage.barycentrics([grid.lo + 0.5 * h])[0]
    slope = cage.form[0] * h
    b = slope[:, -1]
    up, down, flat = b > 0.0, b < 0.0, b == 0.0
    for rows in _slabs(grid.shape):
        layers = min(rows.stop, grid.shape[0]) - rows.start
        lines = np.indices((layers,) + grid.shape[1:-1]).reshape(d - 1, -1)
        lines[0] += rows.start
        # term by term, so a line's intercepts do not depend on its slab
        a = sum((slope[:, i, None] * lines[i] for i in range(d - 1)),
                shift[:, None])
        start = np.floor(np.max(-a[up] / b[up, None], axis=0, initial=-np.inf))
        stop = np.ceil(np.min(-a[down] / b[down, None], axis=0,
                              initial=np.inf)) + 1.0
        start, stop = np.clip(start, 0, n), np.clip(stop, 0, n)
        stop[(a[flat] <= 0.0).any(axis=0)] = 0.0
        yield (lines, a, b, start.astype(np.intp),
               np.maximum(stop - start, 0.0).astype(np.intp))


def _hollow_cells(grid, cage):
    """The multi-indices, in C order, of the cells of ``grid`` that no body
    covers and whose barycentrics in ``cage`` are all positive.

    One pass, slab by slab, over the ranges of :func:`_cage_rows`,
    ``CHUNK_CELLS`` at a time: each body is asked only about the cells
    that the bodies before it left uncovered, and an uncovered cell stays
    when ``a + b * k > 0`` on every row.
    """
    d, h = len(grid.shape), grid.resolution
    last = grid.lo[-1] + (np.arange(grid.shape[-1]) + 0.5) * h
    cells = [np.empty((0, d), dtype=np.intp)]
    for lines, a, b, start, length in _cage_rows(grid, cage):
        heads = grid.lo[:-1, None] + (lines + 0.5) * h
        line_of = np.repeat(np.arange(lines.shape[1]), length)
        k_of = np.arange(line_of.size) - np.repeat(
            np.cumsum(length) - length - start, length)
        for first in range(0, line_of.size, CHUNK_CELLS):
            line = line_of[first:first + CHUNK_CELLS]
            k = k_of[first:first + CHUNK_CELLS]
            columns = [x[line] for x in heads] + [last[k]]
            for body in grid.bodies:
                if not k.size:
                    break
                free = ~body._cover(columns)
                columns = [x[free] for x in columns]
                line, k = line[free], k[free]
            keep = (a[:, line] + b[:, None] * k > 0.0).all(axis=0)
            cells.append(np.column_stack([*lines[:, line[keep]], k[keep]]))
    return np.concatenate(cells)


@dataclass
class HollowCertificate:
    """The hollow's cells on a grid.

    ``cells`` are the multi-indices, in C order, of the grid cells whose
    centers are uncovered and strictly inside the witness simplex.
    ``resolution`` is the grid's cell size, ``measure`` the cells' count
    times the cell volume, ``hull_vertices`` the vertices of the convex
    hull of their centers, computed on first read.  The hollow is the one
    bounded complement component (see the module docstring), so
    ``component_count`` is 1 and ``bounded`` is true.  Both are constants,
    kept because ``certify`` writes them to ``result.json`` and the
    benchmark's graders read them.
    """

    grid: Grid
    cells: np.ndarray = field(repr=False)

    component_count = property(lambda self: 1)
    bounded = property(lambda self: True)

    @property
    def resolution(self):
        return self.grid.resolution

    @property
    def measure(self):
        d = len(self.grid.shape)
        return float(len(self.cells)) * self.grid.resolution ** d

    @property
    def cell_count(self):
        return self.cells.shape[0]

    @property
    def centers(self):
        return self.grid.centers(self.cells)

    @cached_property
    def hull_vertices(self):
        """Vertices of the convex hull of the cells' centers.

        In 2-D they run counterclockwise from the lexicographically least,
        by :func:`~hollowkit.geometry.planar_hull` on the integer indices of
        the two end cells of each grid line along the last axis, since a
        hull vertex ends its line: the turn test is exact on the lattice.
        In 3-D they are Quickhull's, in the cells' C order, or every
        distinct center when the centers are coplanar.
        """
        cells = self.cells
        if cells.shape[1] == 2:
            # cells are in C order, so a line's ends are its first and last
            new = cells[1:, 0] != cells[:-1, 0]
            ends = cells[np.append(True, new) | np.append(new, True)]
            return self.grid.centers(ends[planar_hull(ends)])
        # scipy.spatial is imported here, so that only a 3-D hull pays for it
        from scipy.spatial import ConvexHull, QhullError

        pts = as_points(self.centers)
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
    inside the witness simplex, by :attr:`Simplex.form`; the
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
    for size in (resolution, resolution / 2.0):
        counts = np.ceil((hi - lo) / size - 1e-12)
        if counts.min() < MIN_CELLS_PER_AXIS:
            raise GridResolutionError(
                f"resolution {size:g} gives only {int(counts.min())} cells "
                f"on the narrowest axis; at least {MIN_CELLS_PER_AXIS} required")
        if counts.prod() > MAX_GRID_CELLS:
            raise GridResolutionError(
                f"resolution {size:g} gives {counts.prod():.0f} cells; "
                f"at most {MAX_GRID_CELLS} allowed")
        grid = Grid(lo, float(size), tuple(int(c) for c in counts),
                    tuple(family.bodies))
        cells = _hollow_cells(grid, cage)
        if cells.size:
            break
        logger.info("no hollow cell at resolution %g", size)
    else:
        raise HollowNotFoundError(
            f"no hollow cell at resolution {resolution:g} "
            f"or at half of it, {resolution / 2.0:g}")
    return HollowCertificate(grid, cells)


def boundary_attribution(certificate):
    """The indices of the bodies covering a face neighbour of a hollow cell.

    Every face neighbour inside the grid is asked of every body by the
    grid's rule, ``contains_batch`` at ``tol = 0`` on its center; an
    uncovered neighbour is held by no body, so asking about all of them
    finds the bodies that cover one.  With no neighbour covered, as for
    bodies too thin to hold a cell center, the set is empty.
    """
    grid = certificate.grid
    nbrs = []
    for axis, step in itertools.product(range(len(grid.shape)), (-1, 1)):
        nbr = certificate.cells.copy()
        nbr[:, axis] += step
        nbrs.append(nbr[(nbr[:, axis] >= 0) & (nbr[:, axis] < grid.shape[axis])])
    centers = grid.centers(np.concatenate(nbrs))
    return frozenset(i for i, body in enumerate(grid.bodies)
                     if body.contains_batch(centers, tol=0.0).any())


def hausdorff_convex(vertices_a, vertices_b):
    """Hausdorff distance between convex hulls of two finite point sets.

    The supremum over a convex hull of the distance to another convex set
    is attained at a vertex, so both directed distances reduce to vertex
    projections, each onto the hull of the other point list.
    """
    A, B = as_points(vertices_a), as_points(vertices_b)
    gaps = [p - _hull_projection(V, p) for P, V in ((A, B), (B, A)) for p in P]
    return max(math.sqrt(g @ g) for g in gaps)


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


def verify_stabbing(pair, bodies, witnesses, tol=1e-6):
    """Check that a pair of flats stabs a family the way a hollow demands.

    Stage one: every witness must lie on ``pair.w`` (within ``tol``),
    witness j must pass ``membership(., tol)`` in every body but j, and
    ``pair.v`` must keep a clearance above ``tol`` from every body.  A
    clearance is the distance from the whole flat ``pair.v``, a point when
    n = d, to the body: :func:`~hollowkit.solvers.min_distance` from
    ``pair.point``, with the flat's exact projection as its first body,
    so the flat needs no clipping.  Stage two, only if stage one passes:
    with n the dimension of ``pair.w``, the n + 1 witnesses of n + 1
    bodies must span an n-simplex on ``pair.w``, and the crossing point
    must have positive barycentric coordinates in it.  That is exact in
    any n: the facet opposite witness j lies in body j, so the union
    covers the simplex's boundary, and the crossing point, on ``pair.v``
    and so clear of every body, lies in a bounded component of the
    complement on ``pair.w``.  A wrong count or a degenerate simplex is a
    stage-two reason.  A ``tol`` that is not a positive finite number
    raises ``ValueError``.
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
    flat = SimpleNamespace(dim=pair.v.ambient_dim, project=pair.v.project)
    clearances = np.array([min_distance(flat, body, start=pair.point).distance
                           for body in bodies])
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
