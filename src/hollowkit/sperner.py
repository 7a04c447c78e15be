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
kept as a boolean mask (the support of the integer barycentrics); the
frozenset ``carriers`` and the ``mesh`` are computed on first read, so the
coloring loop pays for neither.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bodies import (DEFAULT_TOL, check_count, decided_scan, feasibility_scan,
                     project_intersection)
from .errors import (
    KleeSolveError,
    ProjectionError,
    SpernerLegalityError,
    SubdivisionSizeError,
)
from .geometry import Simplex, affine_hull, as_points

logger = logging.getLogger(__name__)

# Most cells of one subdivision; read at call time, so it can be patched.
MAX_CELLS = 10_000_000
# Largest common denominator of exact barycentrics: float64 holds every
# integer up to it, and int64 cannot overflow below it.
MAX_DENOMINATOR = 2 ** 53


class _ExactComplex:
    """Iterated barycentric subdivision in exact integer barycentrics.

    Row v of the int64 array ``V`` holds the barycentrics of vertex v times
    one common denominator ``D``, so every row sums to ``D``.  A step
    multiplies ``D`` by ``L = lcm(1..k+1)``: the m-th point of the vertex
    chain of cell c under permutation sigma is the chain's partial sum times
    ``L // m``, an integer again, and the barycenter of the face spanned by
    the first m vertices.  Point 1 is the old vertex ``cells[c, sigma(0)]``
    and keeps its id.  Point k + 1 is the cell's barycenter, one new vertex
    per cell.  Points 2..k are barycenters of proper faces, the only new
    points that neighbouring cells share; exact rows are equal exactly when
    their faces are, so one stable lexicographic sort of these rows alone
    finds every repeat.  Deduplication and carrier faces are thus exact, and
    coloring legality never depends on floating-point luck.  Vertices are
    numbered in order of first appearance and cells run cell-major,
    permutation-minor.  Entries are at most ``D``, and callers step only
    while ``D <= MAX_DENOMINATOR``.
    """

    def __init__(self, k):
        self.k = k
        self.V = np.eye(k + 1, dtype=np.int64)
        self.D = 1
        self.L = math.lcm(*range(1, k + 2))
        self.perms = np.array(list(itertools.permutations(range(k + 1))))
        self.cells = np.arange(k + 1).reshape(1, k + 1)
        self.depth = 0

    def step(self):
        """One barycentric subdivision pass: cells become vertex-chain cells."""
        k, k1, L = self.k, self.k + 1, self.L
        self.depth += 1
        if k == 0:
            # a point subdivides into itself, and L == 1
            return
        n_old = self.V.shape[0]
        chains = self.cells[:, self.perms]
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
        # number new vertices by first position in (c, sigma, m) order
        pos = np.arange(n_cells * n_perms * k1).reshape(n_cells, n_perms, k1)
        seen = np.concatenate([pos[:, :, 1:k].reshape(-1)[first], pos[:, 0, k]])
        rank = np.argsort(seen)
        ids = np.empty_like(rank)
        ids[rank] = np.arange(n_old, n_old + rank.size)
        cells = np.empty_like(chains)
        cells[:, :, 0] = chains[:, :, 0]
        cells[:, :, 1:k] = ids[group].reshape(n_cells, n_perms, k - 1)
        cells[:, :, k] = ids[first.size:, None]
        self.V = np.concatenate([self.V * L,
                                 np.concatenate([faces[first], centers])[rank]])
        self.cells = cells.reshape(-1, k1)
        self.D *= L


@dataclass
class SubdivisionComplex:
    """A simplicial subdivision of an ambient simplex.

    ``bary[v]`` are barycentric coordinates of vertex v with respect to the
    ambient vertices, ``carrier_mask[v, i]`` says that ambient vertex i spans
    the minimal ambient face containing v, and ``cells`` indexes ``coords``
    row-wise.  Construction validates that the cells tile the ambient
    simplex and that every vertex lies on its carrier face.  ``carriers``
    (the faces as frozensets of ambient vertex indices) and ``mesh`` are
    computed on first read.
    """

    ambient: Simplex
    coords: np.ndarray
    bary: np.ndarray
    carrier_mask: np.ndarray
    cells: np.ndarray
    depth: int = None

    def __post_init__(self):
        self.coords = as_points(self.coords)
        self.bary = np.asarray(self.bary, dtype=float)
        self.carrier_mask = np.asarray(self.carrier_mask, dtype=bool)
        self.cells = np.asarray(self.cells, dtype=int)
        self._validate()

    @classmethod
    def build(cls, ambient, coords, cells, carriers=None, depth=None):
        """Construct from explicit vertex coordinates and cells.

        Barycentrics are recovered by a least-squares solve against the
        ambient vertices; carriers default to the support of the
        barycentrics, and given carriers must be faces of ambient vertex
        indices 0..k.
        """
        coords = as_points(coords, ambient.ambient_dim)
        k = ambient.dim
        bary = ambient.barycentrics(coords)
        if carriers is None:
            mask = bary > 1e-9
        else:
            mask = np.zeros((len(carriers), k + 1), dtype=bool)
            for v, face in enumerate(carriers):
                for i in face:
                    if not 0 <= i <= k:
                        raise ValueError(
                            f"vertex {v} has carrier index {i} outside 0..{k}")
                    mask[v, i] = True
        return cls(ambient, coords, bary, mask, cells, depth=depth)

    def _validate(self):
        k = self.ambient.dim
        if self.bary.shape != (self.coords.shape[0], k + 1):
            raise ValueError("barycentric array shape mismatch")
        if self.cells.ndim != 2 or self.cells.shape[1] != k + 1:
            raise ValueError(f"cells must be (C, {k + 1}) vertex-index rows")
        if self.carrier_mask.shape != self.bary.shape:
            raise ValueError("one carrier face required per vertex")
        # vertices sit on their carrier faces
        recon = self.bary @ self.ambient.vertices
        err = np.linalg.norm(recon - self.coords, axis=1)
        scale = max(1.0, self.ambient.diameter)
        if err.max() > 1e-9 * scale:
            raise ValueError("vertex coordinates disagree with barycentrics")
        off_face = np.where(self.carrier_mask, 0.0, np.abs(self.bary)).sum(axis=1)
        bad = np.flatnonzero(off_face > 1e-9)
        if bad.size:
            v = int(bad[0])
            raise ValueError(
                f"vertex {v} has weight {off_face[v]:.2e} outside its carrier face")
        # cells tile the ambient simplex (relative volume sums to one)
        rel = 0.0
        for chunk in range(0, self.cells.shape[0], 100000):
            cell_bary = self.bary[self.cells[chunk:chunk + 100000]]
            rel += np.abs(np.linalg.det(cell_bary)).sum()
        if abs(rel - 1.0) > 1e-6:
            raise ValueError(f"cells cover relative volume {rel:.8f}, expected 1")

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
        return self.coords.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def cell_points(self, cell):
        return self.coords[np.asarray(cell, dtype=int)]


def _freeze(exact, ambient):
    # both operands are integers below 2**53, so the one rounding of the
    # division is the correctly rounded value of the exact barycentric
    bary = exact.V / exact.D
    return SubdivisionComplex(ambient, bary @ ambient.vertices, bary,
                              exact.V != 0, exact.cells, depth=exact.depth)


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
    exact = _ExactComplex(simplex.dim)
    for _ in range(depth):
        exact.step()
    return _freeze(exact, simplex)


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


def find_rainbow(complex_, coloring):
    """First cell carrying all colors; its existence is guaranteed.

    Raises :class:`SpernerLegalityError` if none exists, which would mean
    the coloring was not legal after all.
    """
    hits = rainbow_cells(complex_, coloring)
    if hits.size == 0:
        raise SpernerLegalityError(
            "no all-colors cell in a legally colored complex")
    return complex_.cells[int(hits[0])]


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

    Degenerate witness configurations fall back to the direct feasibility
    scan, which succeeds whenever fewer than d + 1 sets are involved or the
    union hypothesis holds.

    Each level is logged at DEBUG (depth, cells, vertices, all-colors cells,
    best diameter), and the rule that ended the search at INFO.

    Raises
    ------
    KleeSolveError
        If the ``MAX_CELLS`` budget, or the ``MAX_DENOMINATOR`` limit of exact
        barycentrics, is exhausted first; carries the vertex array of the
        smallest all-colors cell seen.
    """
    bodies = list(bodies)
    n = len(bodies) - 1
    witnesses = as_points(witnesses)
    if witnesses.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} witnesses, got {witnesses.shape[0]}")
    if n == 0:
        logger.info("klee_solve: one body, its witness is the candidate")
        return _polish_common_point(witnesses[0], bodies, tol)
    if affine_hull(witnesses).dim < n:
        logger.info("klee_solve: degenerate witnesses, deciding by the "
                    "feasibility scan")
        status, witness, *_ = decided_scan(bodies, tol=min(tol, DEFAULT_TOL))
        if status == "witness":
            return _polish_common_point(witness, bodies, tol)
        raise KleeSolveError(
            "degenerate witnesses and no common point: union cannot be convex")
    ambient = Simplex(witnesses)
    exact = _ExactComplex(n)
    best_cell = None
    best_diam = np.inf
    while True:
        complex_ = _freeze(exact, ambient)
        outcome = sperner_color(complex_, bodies, tol=tol)
        if isinstance(outcome, np.ndarray):
            logger.info("klee_solve: a depth-%d vertex lies in every body",
                        exact.depth)
            return _polish_common_point(outcome, bodies, tol)
        hits = rainbow_cells(complex_, outcome)
        if hits.size == 0:
            raise SpernerLegalityError(
                "no all-colors cell in a legally colored complex")
        diams = complex_.cell_diameters(hits)
        first = int(np.argmin(diams))
        if diams[first] < best_diam:
            best_diam = float(diams[first])
            best_cell = complex_.cell_points(complex_.cells[hits[first]])
        logger.debug("klee_solve depth %d: %d cells, %d vertices, %d "
                     "all-colors cells, best diameter %.3e", exact.depth,
                     complex_.n_cells, complex_.n_vertices, hits.size, best_diam)
        if best_diam < tol / 2.0:
            logger.info("klee_solve: an all-colors cell of diameter %.3e is "
                        "below tol/2 at depth %d", best_diam, exact.depth)
            return _polish_common_point(best_cell.mean(axis=0), bodies, tol)
        spent = _depth_limit(n, exact.depth + 1)
        if spent:
            logger.info("klee_solve: %s is spent at depth %d", spent, exact.depth)
            raise KleeSolveError(
                f"no common point within {spent}; the union may not be convex",
                best_cell=best_cell)
        exact.step()


@dataclass(frozen=True)
class KkmInstance:
    """Finite point set with one closed convex image set per point."""

    points: np.ndarray
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", as_points(self.points))
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.points.shape[0]:
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
    """``samples`` as an int; :class:`ValueError` unless it is a positive integer."""
    return check_count(samples, "samples", least=1)


@lru_cache(maxsize=32)
def _sobol_weights(m, count):
    """Barycentric weights for ``count`` hull samples of m points, and their
    vertex-biased squares: unscrambled Sobol draws, so every subset of size m
    gets the same ones.  Both arrays are read-only, since callers share them."""
    # scipy.stats costs a noticeable share of the package import, and only
    # this sampler needs it.
    from scipy.stats import qmc

    u = qmc.Sobol(d=m, scramble=False).random(count)
    u = np.clip(u, 1e-9, 1.0 - 1e-9)
    w = -np.log1p(-u)
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
    sample, in sampling order, that none holds.  The point budget is capped
    at 12 points (4095 subsets); ``samples`` must pass :func:`check_samples`.
    """
    samples = check_samples(samples)
    pts = instance.points
    m = pts.shape[0]
    if m > 12:
        raise ValueError(f"subset enumeration capped at 12 points, got {m}")
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
