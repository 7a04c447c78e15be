"""Simplicial subdivision, boundary-legal colorings, and cover checks.

The combinatorial route to a common point of a family whose union is
convex: color subdivision vertices by the first body they fall out of, find
an all-colors cell (one always exists, in odd number), and shrink it by
refining.  A vertex that cannot be colored lies in every body and is
returned immediately.  ``kkm_verify`` is the companion sampled check for
set-valued covers of finite point sets.

Subdivisions are built in exact integer barycentrics: one int64 array over
a common denominator that each barycentric step multiplies by
``lcm(1..k+1)``, refined with array operations.  The denominator is kept at
most 2**53, so the float barycentrics are the correctly rounded exact ones.
Deduplication is exact too.  Each new vertex is the barycenter of a face of
the current subdivision, and distinct faces of a triangulation have disjoint
relative interiors, so two barycenters are equal exactly when their faces
are.  A cell's own barycenter is therefore always new, and only the
barycenters of proper faces of dimension 1..k-1, which neighbouring cells
share, need one lexicographic sort of their integer rows.  Carrier faces are
read as a boolean mask (the support of the integer barycentrics); the
frozenset ``carriers`` and the ``mesh`` are computed on first read, so the
coloring loop pays for neither.  A complex is valid by construction, so
nothing re-checks its tiling or carriers in floating point at run time; the
tests named in :class:`SubdivisionComplex` check them instead.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bodies import (DEFAULT_TOL, check_count, check_tol, decided_scan,
                     feasibility_scan, project_intersection)
from .errors import (
    DegenerateSimplexError,
    KleeSolveError,
    ProjectionError,
    SpernerLegalityError,
    SubdivisionSizeError,
)
from .geometry import Simplex, as_points

logger = logging.getLogger(__name__)

# Most cells of one subdivision; read at call time, so it can be patched.
MAX_CELLS = 10_000_000
# Largest common denominator of exact barycentrics: float64 holds every
# integer up to it, and int64 cannot overflow below it.
MAX_DENOMINATOR = 2 ** 53
# Most hull samples per subset of a cover check: at 12 points the Sobol
# weights then take 12.6 MB, and drawing them peaks at 13.2 MB.
MAX_SAMPLES = 2 ** 16


@dataclass
class SubdivisionComplex:
    """An iterated barycentric subdivision of an ambient simplex, as
    :func:`subdivide` returns it.

    Row v of the int64 array ``V`` holds the barycentrics of vertex v with
    respect to the ambient vertices times one common denominator ``D``, so
    every row sums to ``D``; ``cells`` indexes the rows of ``V``.
    ``bary`` (``V / D``), ``coords`` (``bary @ ambient.vertices``),
    ``carrier_mask`` (``carrier_mask[v, i]``: ambient vertex i spans the
    minimal ambient face containing v), ``carriers`` (those faces as
    frozensets of ambient vertex indices) and ``mesh`` are computed on
    first read.  The complex is valid by construction and nothing re-checks
    it at run time: it is made only by :meth:`refine` from the ambient
    simplex, so its cells tile the ambient simplex and every vertex lies on
    its carrier face.  The tests
    ``test_subdivision_tiles_the_simplex_on_carrier_faces`` and
    ``test_subdivision_matches_fraction_reference`` check this.
    """

    ambient: Simplex
    V: np.ndarray
    D: int
    cells: np.ndarray
    depth: int

    @cached_property
    def bary(self):
        # both operands are integers below 2**53, so the one rounding of the
        # division is the correctly rounded value of the exact barycentric
        return self.V / self.D

    @cached_property
    def coords(self):
        return self.bary @ self.ambient.vertices

    @cached_property
    def carrier_mask(self):
        return self.V != 0

    @cached_property
    def carriers(self):
        """``carriers[v]``: v's carrier face as a frozenset of ambient indices."""
        return tuple(frozenset(np.flatnonzero(row).tolist())
                     for row in self.carrier_mask)

    def cell_diameters(self, idx):
        """Diameter of each cell in ``cells[idx]``: the largest vertex distance."""
        cells = self.cells[idx]
        diam = np.empty(cells.shape[0])
        for chunk in range(0, cells.shape[0], 100000):
            pts = self.coords[cells[chunk:chunk + 100000]]
            diffs = pts[:, :, None, :] - pts[:, None, :, :]
            diam[chunk:chunk + 100000] = np.sqrt(
                (diffs ** 2).sum(axis=3).max(axis=(1, 2)))
        return diam

    @cached_property
    def mesh(self):
        """Largest cell diameter."""
        return float(self.cell_diameters(slice(None)).max())

    @property
    def n_vertices(self):
        return self.V.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def refine(self):
        """The next barycentric subdivision: cells become vertex-chain cells.

        The denominator is multiplied by ``L = lcm(1..k+1)``: the m-th point
        of the vertex chain of cell c under permutation sigma is the chain's
        partial sum times ``L // m``, an integer again, and the barycenter
        of the face spanned by the first m vertices.  Point 1 is the old
        vertex ``cells[c, sigma(0)]`` and keeps its id.  Point k + 1 is the
        cell's barycenter, one new vertex per cell.  Points 2..k are
        barycenters of proper faces, the only new points that neighbouring
        cells share; exact rows are equal exactly when their faces are, so
        one stable lexicographic sort of these rows alone finds every
        repeat.  Deduplication and carrier faces are thus exact, and
        coloring legality never depends on floating-point luck.  Vertices
        are numbered in order of first appearance and cells run cell-major,
        permutation-minor.  Entries are at most the new denominator, and
        callers refine only while it is at most ``MAX_DENOMINATOR``.
        """
        k = self.ambient.dim
        k1 = k + 1
        if k == 0:
            # a point subdivides into itself, and L == 1
            return SubdivisionComplex(self.ambient, self.V, self.D,
                                      self.cells, self.depth + 1)
        L = math.lcm(*range(1, k1 + 1))
        perms = np.array(list(itertools.permutations(range(k1))))
        chains = self.cells[:, perms]
        n_cells, n_perms = chains.shape[:2]
        # chain point m of (c, sigma) for m = 2..k: the barycenter of a proper
        # face, shared with the neighbouring cells, so only these can repeat
        faces = np.empty((n_cells, n_perms, k - 1, k1), dtype=np.int64)
        acc = self.V[chains[:, :, 0]]
        for m in range(2, k1):
            acc = acc + self.V[chains[:, :, m - 1]]
            faces[:, :, m - 2] = acc * (L // m)
        faces = faces.reshape(-1, k1)
        # point k + 1: the cell's barycenter, new and first seen at (c, 0, k)
        centers = (acc[:, 0] + self.V[chains[:, 0, k]]) * (L // k1)
        # every row sums to D * L, so its first k entries fix it; a stable
        # sort puts the first occurrence of each face first
        keys = faces[:, :k]
        order = np.lexsort(keys.T)
        ordered = keys[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        group = np.empty_like(order)
        group[order] = np.cumsum(head) - 1
        first = order[head]
        # number new vertices by first position in (c, sigma, m) order: face
        # row f is chain point f % (k - 1) + 2 of chain f // (k - 1)
        seen = np.concatenate([first // (k - 1) * k1 + first % (k - 1) + 1,
                               np.arange(n_cells) * (n_perms * k1) + k])
        rank = np.argsort(seen)
        n_old = self.V.shape[0]
        ids = np.empty_like(rank)
        ids[rank] = np.arange(n_old, n_old + rank.size)
        cells = np.empty_like(chains)
        cells[:, :, 0] = chains[:, :, 0]
        cells[:, :, 1:k] = ids[group].reshape(n_cells, n_perms, k - 1)
        cells[:, :, k] = ids[first.size:, None]
        V = np.concatenate([self.V * L,
                            np.concatenate([faces[first], centers])[rank]])
        return SubdivisionComplex(self.ambient, V, self.D * L,
                                  cells.reshape(-1, k1), self.depth + 1)


def _depth_limit(k, depth):
    """The limit that a depth-``depth`` subdivision of a k-simplex exceeds
    (the ``MAX_CELLS`` budget first, then the exact denominator), or None."""
    if math.factorial(k + 1) ** depth > MAX_CELLS:
        return f"the {MAX_CELLS}-cell budget"
    if math.lcm(*range(1, k + 2)) ** depth > MAX_DENOMINATOR:
        return f"the exact-barycentric denominator limit {MAX_DENOMINATOR}"
    return None


def subdivide(simplex, depth):
    """Iterated barycentric subdivision of a simplex.

    Produces ``((k+1)!)**depth`` cells with mesh at most
    ``(k/(k+1))**depth`` times the diameter.  Barycentrics are computed
    exactly as integers over the common denominator ``lcm(1..k+1)**depth``
    and rounded once to float.  Depths that would exceed ``MAX_CELLS``
    cells, or whose denominator exceeds ``MAX_DENOMINATOR`` (2**53, beyond
    which float64 no longer holds every integer), are refused before any
    array is built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    limit = _depth_limit(simplex.dim, depth)
    if limit:
        raise SubdivisionSizeError(f"depth {depth} exceeds {limit}")
    k = simplex.dim
    complex_ = SubdivisionComplex(simplex, np.eye(k + 1, dtype=np.int64), 1,
                                  np.arange(k + 1).reshape(1, k + 1), 0)
    for _ in range(depth):
        complex_ = complex_.refine()
    return complex_


@dataclass(frozen=True)
class SpernerColoring:
    """A color in 0..n per subdivision vertex, legal w.r.t. carrier faces."""

    colors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "colors",
                           np.asarray(self.colors, dtype=int))


def sperner_color(complex_, bodies, tol=DEFAULT_TOL):
    """Color subdivision vertices by first-exit membership.

    Vertex v gets the smallest j such that v lies in body j-1 (cyclically)
    but not in body j.  A vertex admitting no such j lies in every body and
    is returned immediately as a common point.  Every assigned color is
    machine-checked against the vertex's carrier face.

    Returns
    -------
    SpernerColoring or ndarray
        The coloring, or a single common point (short-circuit).
    """
    bodies = list(bodies)
    n = len(bodies) - 1
    if complex_.ambient.dim != n:
        raise ValueError(
            f"need {complex_.ambient.dim + 1} bodies for a "
            f"{complex_.ambient.dim}-dimensional ambient simplex, got {n + 1}")
    inside = np.column_stack(
        [b.contains_batch(complex_.coords, tol) for b in bodies])
    shared = np.flatnonzero(inside.all(axis=1))
    if shared.size:
        return complex_.coords[int(shared[0])].copy()
    # eligible[v, j]: vertex v is in body j - 1 (cyclically) but not body j
    eligible = np.roll(inside, 1, axis=1) & ~inside
    colorless = np.flatnonzero(~eligible.any(axis=1))
    if colorless.size:
        x = complex_.coords[int(colorless[0])]
        raise SpernerLegalityError(
            f"vertex at {x} lies outside every consecutive difference and "
            "outside some body; the union is not convex there")
    colors = eligible.argmax(axis=1)
    legal = complex_.carrier_mask[np.arange(colors.size), colors]
    illegal = np.flatnonzero(~legal)
    if illegal.size:
        v = int(illegal[0])
        raise SpernerLegalityError(
            f"vertex {v} colored {int(colors[v])} outside its carrier face "
            f"{np.flatnonzero(complex_.carrier_mask[v]).tolist()}")
    return SpernerColoring(colors)


def rainbow_cells(complex_, coloring):
    """Indices of cells whose vertices carry all n + 1 colors."""
    cell_colors = coloring.colors[complex_.cells]
    sorted_colors = np.sort(cell_colors, axis=1)
    target = np.arange(complex_.cells.shape[1])
    return np.flatnonzero((sorted_colors == target).all(axis=1))


def random_legal_coloring(complex_, rng=None):
    """Uniform random color from each vertex's carrier face (always legal)."""
    rng = np.random.default_rng(rng)
    colors = np.empty(complex_.n_vertices, dtype=int)
    for v, face in enumerate(complex_.carrier_mask):
        choices = np.flatnonzero(face)
        colors[v] = choices[int(rng.integers(choices.size))]
    return SpernerColoring(colors)


def _polish_common_point(x, bodies, tol):
    """``x`` or its projection onto the intersection, whichever misses the
    bodies by less; :class:`KleeSolveError` if that is more than ``tol``."""
    try:
        cand = project_intersection(bodies, x)
    except ProjectionError as exc:
        cand = exc.last_iterate
    x = min((cand, x), key=lambda q: max(b.distance(q) for b in bodies))
    worst = max(b.distance(x) for b in bodies)
    if worst > tol:
        raise KleeSolveError(
            f"candidate common point misses a body by {worst:.3e} (tol {tol:.0e})")
    return x


def klee_solve(bodies, witnesses, tol=1e-6):
    """Common point of bodies whose union is convex, via subdivision coloring.

    ``witnesses[j]`` must be a point shared by every body except possibly j.
    The witness simplex is subdivided until either some vertex lies in all
    bodies (short-circuit) or an all-colors cell has diameter below
    ``tol / 2``; the candidate is polished by projection onto the
    intersection and must pass membership in every body at ``tol``.

    Witnesses that :class:`Simplex` refuses as degenerate fall back to the
    direct feasibility scan, which succeeds whenever fewer than d + 1 sets
    are involved or the union hypothesis holds.

    Each level is logged at DEBUG (depth, cells, vertices, all-colors cells,
    best diameter), and the rule that ended the search at INFO.

    Raises
    ------
    KleeSolveError
        If the ``MAX_CELLS`` budget, or the ``MAX_DENOMINATOR`` limit of exact
        barycentrics, is exhausted first; carries the vertex array of the
        smallest all-colors cell seen.
    """
    tol = check_tol(tol)
    bodies = list(bodies)
    n = len(bodies) - 1
    witnesses = as_points(witnesses)
    if witnesses.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} witnesses, got {witnesses.shape[0]}")
    if n == 0:
        logger.info("klee_solve: one body, its witness is the candidate")
        return _polish_common_point(witnesses[0], bodies, tol)
    try:
        ambient = Simplex(witnesses)
    except DegenerateSimplexError:
        logger.info("klee_solve: degenerate witnesses, deciding by the "
                    "feasibility scan")
        status, witness, *_ = decided_scan(bodies, tol=min(tol, DEFAULT_TOL))
        if status == "witness":
            return _polish_common_point(witness, bodies, tol)
        raise KleeSolveError(
            "degenerate witnesses and no common point: union cannot be convex")
    complex_ = subdivide(ambient, 0)
    best_cell = None
    best_diam = np.inf
    while True:
        outcome = sperner_color(complex_, bodies, tol=tol)
        if isinstance(outcome, np.ndarray):
            logger.info("klee_solve: a depth-%d vertex lies in every body",
                        complex_.depth)
            return _polish_common_point(outcome, bodies, tol)
        hits = rainbow_cells(complex_, outcome)
        if hits.size == 0:
            raise SpernerLegalityError(
                "no all-colors cell in a legally colored complex")
        diams = complex_.cell_diameters(hits)
        first = int(np.argmin(diams))
        if diams[first] < best_diam:
            best_diam = float(diams[first])
            best_cell = complex_.coords[complex_.cells[hits[first]]]
        logger.debug("klee_solve depth %d: %d cells, %d vertices, %d "
                     "all-colors cells, best diameter %.3e", complex_.depth,
                     complex_.n_cells, complex_.n_vertices, hits.size, best_diam)
        if best_diam < tol / 2.0:
            logger.info("klee_solve: an all-colors cell of diameter %.3e is "
                        "below tol/2 at depth %d", best_diam, complex_.depth)
            return _polish_common_point(best_cell.mean(axis=0), bodies, tol)
        spent = _depth_limit(n, complex_.depth + 1)
        if spent:
            logger.info("klee_solve: %s is spent at depth %d", spent, complex_.depth)
            raise KleeSolveError(
                f"no common point within {spent}: the smallest all-colors "
                f"cell has diameter {best_diam:.3e}, not below tol/2 = "
                f"{tol / 2.0:.3e}", best_cell=best_cell)
        complex_ = complex_.refine()


@dataclass(frozen=True)
class KkmInstance:
    """Finite point set with one closed convex image set per point.  At most
    12 points, since a cover check enumerates every subset of them."""

    points: np.ndarray
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", as_points(self.points))
        object.__setattr__(self, "images", tuple(self.images))
        m = self.points.shape[0]
        if m > 12:
            raise ValueError(f"subset enumeration capped at 12 points, got {m}")
        if len(self.images) != m:
            raise ValueError("need exactly one image body per point")
        for g in self.images:
            if g.dim != self.points.shape[1]:
                raise ValueError("image bodies must match the point dimension")


@dataclass(frozen=True)
class KkmReport:
    """Outcome of a sampled cover check.

    ``kkm_holds`` means no sampled hull point escaped its subset's images.
    When it holds, ``witness`` is a common point of all images;
    ``contradiction`` is set if no witness could be produced even though the
    sampled check passed, flagging a tolerance breakdown.
    """

    kkm_holds: bool
    counterexample: np.ndarray = None
    subset: tuple = None
    witness: np.ndarray = None
    contradiction: bool = False
    subsets_checked: int = 0
    samples_per_subset: int = 0


def check_samples(samples):
    """``samples`` as an int; :class:`ValueError` unless it is a positive
    integer of at most ``MAX_SAMPLES``."""
    n = check_count(samples, "samples", least=1)
    if n > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    return n


# Dimensions 2..12 of Joe & Kuo's new-joe-kuo-6.21201 table (S. Joe and
# F. Y. Kuo, "Constructing Sobol sequences with better two-dimensional
# projections", SIAM J. Sci. Comput. 30 (2008) 2635-2654): the degree s of
# the primitive polynomial, its inner coefficients a (a_1 the highest bit)
# and the initial direction numbers m_1..m_s.  Dimension 1 has every m_i = 1.
_JOE_KUO = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
)
# Bits of each Sobol coordinate; 30 is scipy's default, so its unscrambled
# sampler draws the same points.
_SOBOL_BITS = 30


@lru_cache(maxsize=1)
def _sobol_directions():
    """Direction numbers of every tabled dimension by Bratley & Fox's
    recurrence (ACM TOMS 14 (1988) 88-100, Algorithm 659): row i, column
    j holds m_(i+1) / 2**(i + 1) of dimension j + 1 as a _SOBOL_BITS-bit
    fixed-point fraction.  Read-only, since callers share it."""
    columns = [[1] * _SOBOL_BITS]
    for s, a, init in _JOE_KUO:
        mi = list(init)
        for i in range(s, _SOBOL_BITS):
            new = mi[i - s] ^ (mi[i - s] << s)
            for k in range(1, s):
                if a >> (s - 1 - k) & 1:
                    new ^= mi[i - k] << k
            mi.append(new)
        columns.append(mi)
    v = np.array(columns, dtype=np.uint32).T
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)[:, None]
    v.flags.writeable = False
    return v


def _sobol_points(m, count):
    """The first ``count`` points of the unscrambled m-dimensional Sobol
    sequence, starting at the origin, by Gray-code XOR accumulation: bit
    for bit the points of scipy's unscrambled Sobol sampler at its default
    30 bits; m is at most 12, the tabled dimensions."""
    # point n is point n - 1 XOR the direction number of n's lowest set bit
    n = np.arange(1, count)
    x = np.zeros((count, m), dtype=np.uint32)
    x[1:] = _sobol_directions()[np.frexp(n & -n)[1] - 1, :m]
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    return x * 2.0 ** -_SOBOL_BITS


@lru_cache(maxsize=32)
def _sobol_weights(m, count):
    """Barycentric weights for ``count`` hull samples of m points, and their
    vertex-biased squares: unscrambled Sobol draws, so every subset of size m
    gets the same ones.  Both arrays are read-only, since callers share them."""
    # w = -log1p(-u) of the clipped draws u, in place: the largest table
    # then peaks at about its two outputs
    w = _sobol_points(m, count)
    np.clip(w, 1e-9, 1.0 - 1e-9, out=w)
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.negative(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    biased = w ** 2
    biased /= biased.sum(axis=1, keepdims=True)
    w.flags.writeable = biased.flags.writeable = False
    return w, biased


def _subset_samples(pts, samples):
    """Hull samples for one subset: vertices, midpoints, centroid, and a
    low-discrepancy spread with a vertex-biased half."""
    m = pts.shape[0]
    out = [pts[i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            out.append(0.5 * (pts[i] + pts[j]))
    out.append(pts.mean(axis=0))
    if m >= 2:
        count = 2 ** int(math.ceil(math.log2(max(samples, 2))))
        w, biased = _sobol_weights(m, count)
        out.extend(w @ pts)
        out.extend(biased @ pts)
    return np.asarray(out)


def kkm_verify(instance, samples=64, tol=DEFAULT_TOL):
    """Sampled check that hulls of subsets stay inside their image unions.

    Every nonempty subset N of the instance's points is sampled (vertices,
    midpoints, centroid, plus a deterministic low-discrepancy mixture with a
    vertex-biased half); each sample must land in some image of a point of
    N.  On success a common point of all images is computed; failure to
    produce one despite the sampled check passing is flagged as a
    contradiction (tolerance breakdown).  That reads the status of one
    :func:`~hollowkit.bodies.feasibility_scan` over the images: any status
    but ``"witness"`` (empty, ambiguous, or undecided when its pass budget
    runs out) is the contradiction; an error from the image oracles
    propagates.

    Each image is tested in one ``contains_batch`` call, over the subset's
    samples that no earlier image holds; the counterexample is the first
    sample, in sampling order, that none holds.  :class:`KkmInstance` caps
    the points at 12 (4095 subsets); ``samples`` must pass
    :func:`check_samples`.
    """
    samples = check_samples(samples)
    tol = check_tol(tol)
    pts = instance.points
    m = pts.shape[0]
    checked = 0
    for mask in range(1, 2 ** m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        X = _subset_samples(pts[list(subset)], samples)
        held = np.zeros(X.shape[0], dtype=bool)
        for i in subset:
            todo = np.flatnonzero(~held)
            if todo.size == 0:
                break
            held[todo] = instance.images[i].contains_batch(X[todo], tol)
        if not held.all():
            return KkmReport(False, counterexample=X[np.argmin(held)], subset=subset,
                             subsets_checked=checked, samples_per_subset=samples)
        checked += 1
    status, witness, *_ = feasibility_scan(instance.images, tol=tol)
    if status == "witness":
        return KkmReport(True, witness=witness, subsets_checked=checked,
                         samples_per_subset=samples)
    return KkmReport(True, witness=None, contradiction=True,
                     subsets_checked=checked, samples_per_subset=samples)


def family_kkm_instance(bodies, witnesses):
    """Cover instance from a family: witness j maps to body j - 1 cyclically.

    When the family's union is convex the cover property holds and the
    images share a common point.
    """
    bodies = list(bodies)
    witnesses = as_points(witnesses)
    n = len(bodies) - 1
    if witnesses.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} witnesses, got {witnesses.shape[0]}")
    images = tuple(bodies[(j - 1) % (n + 1)] for j in range(n + 1))
    return KkmInstance(witnesses, images)
