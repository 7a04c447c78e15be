"""Seeded inputs for the benchmark workloads, as plain arrays.

Nothing here imports hollowkit: every generator returns dictionaries of
numpy arrays and numbers, and the library only sees those.  Each workload
is a fixed *cycle* of slots.  The seed moves every slot's shape inside a
narrow stratum and applies a random rotation, scale and translation, so
two seeds exercise the same mix of code paths at similar cost while no two
seeds share an input.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

SQRT3 = math.sqrt(3.0)
BASE_TOL = 1e-7
KLEE_TOL = 1e-6


def rotation(rng, d):
    """Uniformly random rotation (determinant +1) of R^d, d >= 2."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def small_rotation(rng, d, angle):
    """Rotation by ``angle`` radians about a random axis (d = 2 or 3)."""
    if d == 2:
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K


class Placement:
    """The map x -> scale * Q x + shift applied to a generated family.

    Rotation and scale are stratified by the family's slot in the cycle:
    slot k gets its own base orientation and base scale (spread over the
    slots by a golden-ratio sequence), and the seed turns the family by up
    to ROTATION_JITTER radians and rescales it by up to 2% from there
    (neither with ``turn=False``); the translation is always drawn.
    Cost depends on orientation (the support sweeps run along the axes),
    so this keeps the cost of a slot alike across seeds while every seed
    still gets its own rotation, scale and translation.
    """

    def __init__(self, rng, d, slot, scale_range=(1.0, 2.0), shift=10.0, turn=True):
        u = (slot * GOLDEN) % 1.0
        jitter_angle = ROTATION_JITTER if turn else 0.0
        jitter_scale = 0.02 if turn else 0.0
        if d == 1:
            self.q = np.array([[1.0 if slot % 2 == 0 else -1.0]])
        elif d == 2:
            self.q = small_rotation(rng, 2, 2.0 * math.pi * u
                                    + jitter_angle * (rng.random() - 0.5))
        else:
            base = rotation(np.random.default_rng(slot), 3)
            self.q = small_rotation(rng, 3, jitter_angle * rng.random()) @ base
        lo, hi = scale_range
        self.scale = float(lo * (hi / lo) ** u * (1.0 + jitter_scale * (rng.random() - 0.5)))
        self.shift = rng.uniform(-shift, shift, size=d) * self.scale

    def points(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.scale * x @ self.q.T + self.shift

    def point(self, x):
        return self.points(x)[0]

    def hpoly(self, A, b):
        """Image of {x : A x <= b}: rows rotate, offsets scale and shift."""
        A2 = np.asarray(A, dtype=float) @ self.q.T
        return {"kind": "hpoly", "A": A2,
                "b": self.scale * np.asarray(b, dtype=float) + A2 @ self.shift}

    def ball(self, c, r):
        return {"kind": "ball", "center": self.point(c), "radius": self.scale * r}

    def vpoly(self, V):
        return {"kind": "vpoly", "vertices": self.points(V)}


ROTATION_JITTER = 0.1


def jitter(rng, center, width):
    """A value uniform in [center - width/2, center + width/2]."""
    return float(center + width * (rng.random() - 0.5))


def disk_centers(side):
    return np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * SQRT3 / 2.0]])


def tetrahedron_centers(side):
    raw = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    return raw * (side / (2.0 * math.sqrt(2.0)))


def segment_rectangle(a, b, half_width):
    """Halfspace data of segment ab widened by half_width on every side."""
    u = (b - a) / np.linalg.norm(b - a)
    n = np.array([-u[1], u[0]])
    A = np.vstack([n, -n, u, -u])
    off = np.array([n @ a + half_width, -(n @ a) + half_width,
                    u @ b + half_width, -(u @ a) + half_width])
    return A, off


def segment_quad(a, b, half_width):
    """Vertices of the same widened segment."""
    u = (b - a) / np.linalg.norm(b - a)
    n = np.array([-u[1], u[0]])
    h = half_width
    return np.array([a - h * u - h * n, a - h * u + h * n,
                     b + h * u + h * n, b + h * u - h * n])


TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])


def lens_corners(centers, radius):
    """Closed-form hollow vertices of three equal disks.

    The vertex opposite disk j is the corner of the lens of the other two
    disks that lies nearer to disk j's center.
    """
    out = np.empty((3, 2))
    for j in range(3):
        a, b = (centers[i] for i in range(3) if i != j)
        mid = 0.5 * (a + b)
        half = 0.5 * np.linalg.norm(b - a)
        h = math.sqrt(radius * radius - half * half)
        perp = np.array([-(b - a)[1], (b - a)[0]]) / (2.0 * half)
        p, q = mid + h * perp, mid - h * perp
        out[j] = p if np.linalg.norm(p - centers[j]) < np.linalg.norm(q - centers[j]) else q
    return out


# ---------------------------------------------------------------- families

# Equal-radius disks are critical iff sqrt(3) < side / r < 2.  Inside these
# bands around the two boundaries a structured verdict is also correct.
DISK_BAND = 0.01


def disk_verdict(side):
    if abs(side - SQRT3) < DISK_BAND or abs(side - 2.0) < DISK_BAND:
        return "band"
    if side <= SQRT3:
        return "full-intersection-nonempty"
    if side >= 2.0:
        return "leave-one-out-empty"
    return "critical"


def _disks(rng, k, side):
    pl = Placement(rng, 2, k)
    c = disk_centers(side)
    fam = {"d": 2, "bodies": [pl.ball(x, 1.0) for x in c], "tol": BASE_TOL * pl.scale,
           "expect": disk_verdict(side), "scale": pl.scale,
           "lens": pl.points(lens_corners(c, 1.0)) if disk_verdict(side) == "critical" else None}
    return fam


def fam_interval(rng, k):
    pl = Placement(rng, 1, k)
    gap = jitter(rng, 0.5, 0.2)
    bodies = [pl.hpoly([[1.0], [-1.0]], [1.0, 0.0]),
              pl.hpoly([[1.0], [-1.0]], [2.0 + gap, -(1.0 + gap)])]
    return {"d": 1, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "critical", "scale": pl.scale}


def fam_disks(rng, k, i):
    """Critical disks; the i-th of DISK_SIDES sets the stratum of the side.

    The disks of side TAIL_SIDE all take the base orientation and scale of
    slot TAIL_PLACE, so they are draws of one op.
    """
    side = DISK_SIDES[i % len(DISK_SIDES)]
    return _disks(rng, TAIL_PLACE if side == TAIL_SIDE else k, jitter(rng, side, 0.01))


# Twelve critical disks whose sides cover 1.745-1.935 of the critical range
# (sqrt(3), 2); tests/data/disks.json has 1.9.  The range stops there
# because recentering cost climbs steeply towards tangency: one op takes
# 0.6 s at 1.76, 1.8 s at 1.9, 3.5 s at 1.94, 11 s at 1.97 and 23 s at
# 1.985.  The near-tangent end is the edge tier's.  Seven sides are spread
# over the range; five share the stratum TAIL_SIDE (about 1.25 s an op) and
# one orientation.  Above them the cycle has eight heavier ops (the three
# disks of side 1.9 and up, the two rectangle triangles, vpoly, balls3 and
# intersection), so the 75th percentile of the 40 ops is the middle one of
# those five, not one op whose cost moves with its seed's turn (up to a
# fifth across orientations).  They sit apart in the cycle.
TAIL_SIDE = 1.865
TAIL_PLACE = 1
DISK_SIDES = (1.75, TAIL_SIDE, 1.9, TAIL_SIDE, 1.78, 1.93,
              TAIL_SIDE, 1.81, 1.915, TAIL_SIDE, 1.835, TAIL_SIDE)


def fam_rects(rng, k):
    pl = Placement(rng, 2, k)
    hw = jitter(rng, 0.2, 0.02)
    v = TRIANGLE
    bodies = [pl.hpoly(*segment_rectangle(v[i], v[(i + 1) % 3], hw)) for i in range(3)]
    return {"d": 2, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "critical", "scale": pl.scale}


def fam_vpoly(rng, k):
    pl = Placement(rng, 2, k)
    hw = jitter(rng, 0.2, 0.02)
    v = TRIANGLE
    bodies = [pl.vpoly(segment_quad(v[i], v[(i + 1) % 3], hw)) for i in range(3)]
    return {"d": 2, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "critical", "scale": pl.scale}


def fam_balls3(rng, k):
    pl = Placement(rng, 3, k)
    side = jitter(rng, 1.65, 0.01)
    bodies = [pl.ball(c, 1.0) for c in tetrahedron_centers(side)]
    return {"d": 3, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "critical", "scale": pl.scale}


def fam_balls3_overlap(rng, k):
    """Four balls in R^3 that all share a point (edge below the bound 4/sqrt(6))."""
    pl = Placement(rng, 3, k)
    side = jitter(rng, 1.45, 0.02)
    bodies = [pl.ball(c, 1.0) for c in tetrahedron_centers(side)]
    return {"d": 3, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "full-intersection-nonempty", "scale": pl.scale}


def fam_intersection(rng, k):
    """Two disks and a disk clipped by a box: a ball-and-polytope body.

    The box cuts the first disk on the side facing away from the family's
    centroid, 0.8 from its center, so the clipped part never reaches the
    hollow and the family stays critical.
    """
    # Shape, turn and scale are fixed by the slot and the seed only moves the
    # family: turning it by 0.05 rad swings its cost between 1.4 and 13 s
    # (the support re-aim loop), which would drown every other op.
    pl = Placement(rng, 2, k, turn=False)
    c = disk_centers(1.8)
    x = c[0]
    u = (x - c.mean(axis=0)) / np.linalg.norm(x - c.mean(axis=0))
    w = np.array([-u[1], u[0]])
    clip = pl.hpoly([u, -u, w, -w], [u @ x + 0.8, -(u @ x) + 1.5,
                                     w @ x + 1.5, -(w @ x) + 1.5])
    bodies = [{"kind": "intersection", "parts": [pl.ball(x, 1.0), clip],
               "witness": pl.point(x)}] + [pl.ball(y, 1.0) for y in c[1:]]
    return {"d": 2, "bodies": bodies, "tol": BASE_TOL * pl.scale,
            "expect": "critical", "scale": pl.scale}


def fam_overlap(rng, k):
    return _disks(rng, k, jitter(rng, 1.5, 0.1))


def fam_loo_empty(rng, k):
    return _disks(rng, k, jitter(rng, 2.2, 0.1))


def fam_helly(rng, k):
    pl = Placement(rng, 2, k)
    c = np.vstack([disk_centers(1.5), [[0.75, 0.4]]])
    return {"d": 2, "bodies": [pl.ball(x, 1.0) for x in c],
            "tol": BASE_TOL * pl.scale, "expect": "helly", "scale": pl.scale}


_FAMILY_KINDS = {
    "interval": fam_interval, "overlap": fam_overlap, "loo-empty": fam_loo_empty,
    "helly": fam_helly, "rects": fam_rects, "vpoly": fam_vpoly,
    "balls3": fam_balls3, "intersection": fam_intersection,
}
# 40 slots: 23 quick ones (d=1 pairs and the three negative kinds), 12
# disks (see DISK_SIDES), 2 rectangle triangles and one each of the
# heavy kinds.  With 40 ops a cycle has ten beyond its 75th percentile.
# The weights are set by cost, not by measured use: each heavy kind takes
# 5-9 s, so one of each is what a run of about 50 s can hold.  At the
# commit that introduced the benchmark the median op is a d=1 pair or an
# overlapping-disk op and the 75th percentile a disk op of side
# TAIL_SIDE; run.py reports the kinds at both ranks and each kind's op times.
_FAMILY_ORDER = """
interval disks overlap rects loo-empty interval helly disks vpoly interval
overlap disks loo-empty interval disks helly balls3 interval disks overlap
loo-empty disks interval interval helly disks intersection overlap disks interval
loo-empty disks helly disks overlap rects interval disks loo-empty disks
""".split()


def _family_slot(kind, i):
    if kind == "disks":
        return ("disks", lambda rng, k: fam_disks(rng, k, i))
    return (kind, _FAMILY_KINDS[kind])


FAMILY_CYCLE = tuple(_family_slot(kind, _FAMILY_ORDER[:i].count("disks"))
                     for i, kind in enumerate(_FAMILY_ORDER))


def edge_cases():
    """The edge tier: degenerate placements the scan's stopping rules face.

    These are fixed, not seeded, and each is run once; at the time the
    benchmark was written several of them end in ConvergenceError or
    ProjectionError after tens of seconds, and those count as failed ops.
    """
    out = []
    for label, side, scale, shift in (
            ("tangent", 2.0, 1.0, 0.0),
            ("near-tangent", 2.0 - 1e-9, 1.0, 0.0),
            ("shift-1e6", 1.9, 1.0, 1e6),
            ("shift-1e4", 1.9, 1.0, 1e4),
            ("scale-1e-3", 1.9, 1e-3, 0.0),
            ("scale-1e3", 1.9, 1e3, 0.0)):
        c = disk_centers(side) * scale + shift
        verdict = disk_verdict(side)
        out.append((label, {"d": 2, "scale": scale, "tol": BASE_TOL * scale,
                            "bodies": [{"kind": "ball", "center": x, "radius": scale}
                                       for x in c],
                            "expect": verdict,
                            "lens": lens_corners(c, scale) if verdict == "critical" else None}))
    rng = np.random.default_rng(0)
    pl = Placement(rng, 2, 0, scale_range=(1e3, 1e3), shift=0.0)
    v = TRIANGLE
    out.append(("rects-scale-1e3", {
        "d": 2, "scale": pl.scale, "tol": BASE_TOL * pl.scale, "expect": "critical",
        "bodies": [pl.hpoly(*segment_rectangle(v[i], v[(i + 1) % 3], 0.2))
                   for i in range(3)]}))
    out.append(("vpoly-grid", fam_vpoly(rng, 0)))
    return out


# ------------------------------------------------------------ convex union

def union_boxes(rng, k, d):
    """A box plus d clipped copies; the union is the box.

    Body 0 is the box, body j the box cut to x_j >= alpha_j.  Witness j is
    a point every body but j contains, known from the construction.
    """
    pl = Placement(rng, d, k)
    sides = np.array([jitter(rng, 2.0, 0.2) for _ in range(d)])
    alphas = np.array([jitter(rng, 0.4, 0.05) for _ in range(d)]) * sides
    eye = np.eye(d)
    A = np.vstack([eye, -eye])

    def box(lo, hi):
        return pl.hpoly(A, np.concatenate([hi, -lo]))

    bodies = [box(np.zeros(d), sides)]
    for j in range(d):
        lo = np.zeros(d)
        lo[j] = alphas[j]
        bodies.append(box(lo, sides))
    upper = 0.5 * (alphas + sides)
    wit = [upper]
    for j in range(d):
        w = upper.copy()
        w[j] = 0.5 * alphas[j]
        wit.append(w)
    return {"d": d, "bodies": bodies, "witnesses": pl.points(wit),
            "tol": KLEE_TOL * pl.scale, "scale": pl.scale}


# How far along -n_j, as a share of the way to the triangle's edge, witness
# j sits.  Unequal reaches keep the subdivision's barycenters off the core,
# so the coloring has to refine several levels before a vertex lands in it.
WITNESS_REACH = (0.9, 0.35, 0.6)
# The core's place and the halfplanes' turn are fixed in the family's own
# frame.  The subdivision lives in barycentric coordinates of the
# witnesses, so the seeded placement moves the family without changing how
# deep the coloring has to go: the depth is set by the core width alone.
CORE_OFFSET = np.array([0.06, 0.04])
CORE_TURN = 0.3


def thin_core(rng, k, width):
    """Triangle cut by three halfplanes at 120 degrees around an off-centre point.

    Body j keeps the part of the triangle with n_j . (x - c) >= -width.
    Since the n_j sum to zero every point has some n_j . (x - c) >= 0, so
    the union is the whole triangle; the common part is a small triangle
    of inradius ``width`` around c.
    """
    pl = Placement(rng, 2, k)
    T = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    centroid = T.mean(axis=0)
    c = centroid + CORE_OFFSET
    t0 = CORE_TURN
    normals = np.array([[math.cos(t0 + k * 2 * math.pi / 3),
                         math.sin(t0 + k * 2 * math.pi / 3)] for k in range(3)])
    # outward triangle halfspaces
    tri_A, tri_b = [], []
    for i in range(3):
        a, b = T[i], T[(i + 1) % 3]
        e = b - a
        n = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        if n @ (centroid - a) > 0:
            n = -n
        tri_A.append(n)
        tri_b.append(n @ a)
    tri_A, tri_b = np.array(tri_A), np.array(tri_b)
    bodies, wit = [], []
    for j in range(3):
        A = np.vstack([tri_A, -normals[j]])
        b = np.concatenate([tri_b, [width - normals[j] @ c]])
        bodies.append(pl.hpoly(A, b))
        # witness j lies along -n_j from c, halfway to the triangle edge
        step = min((tri_b[i] - tri_A[i] @ c) / (tri_A[i] @ -normals[j])
                   for i in range(3) if tri_A[i] @ -normals[j] > 1e-12)
        wit.append(c - WITNESS_REACH[j] * step * normals[j])
    return {"d": 2, "bodies": bodies, "witnesses": pl.points(wit),
            "tol": KLEE_TOL * pl.scale, "scale": pl.scale, "width": width}


# Core widths sit in the middle of the plateaus where the coloring stops at
# 3, 5 and 6 levels, so the jitter never changes the depth.  Of the eleven
# slots, four 2-D box unions hold the median and two 6-level cores the
# 90th percentile, each well inside its group.
UNION_CYCLE = (
    ("boxes-1d", lambda rng, k: union_boxes(rng, k, 1)),
    ("boxes-2d", lambda rng, k: union_boxes(rng, k, 2)),
    ("core-l3", lambda rng, k: thin_core(rng, k, jitter(rng, 0.03, 0.002))),
    ("core-l6", lambda rng, k: thin_core(rng, k, jitter(rng, 0.0035, 0.0002))),
    ("boxes-2d", lambda rng, k: union_boxes(rng, k, 2)),
    ("core-l5", lambda rng, k: thin_core(rng, k, jitter(rng, 0.0072, 0.0004))),
    ("boxes-1d", lambda rng, k: union_boxes(rng, k, 1)),
    ("boxes-2d", lambda rng, k: union_boxes(rng, k, 2)),
    ("core-l6", lambda rng, k: thin_core(rng, k, jitter(rng, 0.0045, 0.0002))),
    ("boxes-2d", lambda rng, k: union_boxes(rng, k, 2)),
    ("core-l3", lambda rng, k: thin_core(rng, k, jitter(rng, 0.015, 0.001))),
)

# The tail percentile of each workload is fixed, so that it means the same
# on every run, and a run keeps going until it has at least ten ops beyond
# it: convex-union runs ten cycles, the fewest that leave ten ops above its
# 90th percentile.  cli runs one cycle of 20 ops, so its tail is its median
# (the 10th op): a second cycle would double a cli run to about 90 s, more
# than the runs of all three workloads can afford together.
TAIL_SHARE = {"families": 0.75, "convex-union": 0.9, "cli": 0.5, "edge": 0.5}
MIN_OPS = {"families": 40, "convex-union": 110, "cli": 20}


def min_ops(workload):
    return max(MIN_OPS.get(workload, 0),
               math.ceil(10.0 / (1.0 - TAIL_SHARE[workload]) - 1e-9))


# --------------------------------------------------------------------- cli

def body_json(spec):
    kind = spec["kind"]
    if kind == "ball":
        return {"kind": "ball", "center": spec["center"].tolist(),
                "radius": float(spec["radius"])}
    if kind == "hpoly":
        return {"kind": "hpoly", "normals": spec["A"].tolist(),
                "offsets": spec["b"].tolist()}
    if kind == "vpoly":
        return {"kind": "vpoly", "vertices": spec["vertices"].tolist()}
    return {"kind": "intersection", "parts": [body_json(p) for p in spec["parts"]],
            "witness": spec["witness"].tolist()}


def scene_json(fam):
    return json.dumps({"schema": "hollowkit/1", "dimension": fam["d"],
                       "bodies": [body_json(b) for b in fam["bodies"]],
                       "options": {"tol": fam["tol"]}})


# (name, argv after "python -m hollowkit", expected exit code, check key)
# Scene names starting with "gen:" are written by the benchmark; the rest
# are the repository's own scenes under tests/data.
CLI_CYCLE = (
    ("check-disks", ["check", "tests/data/disks.json"], 0, "data"),
    ("kkm-good", ["kkm", "tests/data/goodkkm.json"], 0, "data"),
    ("check-gen-rects", ["check", "gen:rects.json"], 0, "gen-critical"),
    ("stab-ok", ["stab-verify", "tests/data/stab.json"], 0, "data"),
    ("bad-scene", ["check", "tests/data/bad.json"], 1, "data"),
    ("hollow-pair", ["hollow", "tests/data/pair.json"], 0, "data"),
    ("check-gen-vpoly", ["check", "gen:vpoly.json"], 0, "gen-critical"),
    ("check-noncrit", ["check", "tests/data/noncrit.json"], 2, "data"),
    ("solve-klee-squares", ["solve-klee", "tests/data/squares.json"], 0, "data"),
    ("check-pair", ["check", "tests/data/pair.json"], 0, "data"),
    ("kkm-gap", ["kkm", "tests/data/gapkkm.json"], 2, "data"),
    ("check-gen-balls3", ["check", "gen:balls3.json"], 2, "gen-overlap"),
    ("mismatch-scene", ["check", "tests/data/mismatch.json"], 1, "data"),
    ("certify-disks", ["certify", "tests/data/disks.json"], 0, "data"),
    ("stab-bad", ["stab-verify", "tests/data/stab_bad.json"], 2, "data"),
    ("hollow-noncrit", ["hollow", "tests/data/noncrit.json"], 2, "data"),
    ("certify-gen-rects", ["certify", "gen:rects.json"], 0, "gen-critical"),
    ("render-disks", ["render", "tests/data/disks.json"], 0, "data"),
    ("kkm-missing", ["kkm", "tests/data/disks.json"], 1, "data"),
    ("certify-pair", ["certify", "tests/data/pair.json"], 1, "data"),
)


def cli_scenes(rng):
    """Generated (scene text, family) pairs for the cli workload, by file name."""
    out = {}
    for k, (fname, gen) in enumerate((("rects.json", fam_rects), ("vpoly.json", fam_vpoly),
                                      ("balls3.json", fam_balls3_overlap))):
        fam = gen(rng, k)
        out[fname] = (scene_json(fam), fam)
    return out


def _polygon(spec):
    """Vertices of a bounded polygon, in order, from its halfspace data."""
    A, b = spec["A"], spec["b"]
    pts = []
    for i in range(len(b)):
        for k in range(i + 1, len(b)):
            M = np.array([A[i], A[k]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            x = np.linalg.solve(M, [b[i], b[k]])
            if np.all(A @ x <= b + 1e-9 * (1.0 + np.abs(b))):
                pts.append(x)
    pts = np.array(pts)
    g = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - g[1], pts[:, 0] - g[0]))]


def support_value(spec, n):
    """max n . x over a generated body, in closed form."""
    if spec["kind"] == "ball":
        return float(n @ spec["center"] + spec["radius"] * np.linalg.norm(n))
    V = spec["vertices"] if spec["kind"] == "vpoly" else _polygon(spec)
    return float((V @ n).max())


def outside(spec, x):
    """How far x is outside a generated body (<= 0 inside), in closed form.

    Exact for balls; for the convex polygons it is the worst edge slack,
    which is at most the distance.
    """
    if spec["kind"] == "ball":
        return float(np.linalg.norm(x - spec["center"]) - spec["radius"])
    if spec["kind"] == "hpoly":
        A, b = spec["A"], spec["b"]
        return float(((A @ x - b) / np.linalg.norm(A, axis=1)).max())
    V = spec["vertices"]
    g = V.mean(axis=0)
    worst = -np.inf
    for i in range(len(V)):
        e = V[(i + 1) % len(V)] - V[i]
        nrm = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        if nrm @ (g - V[i]) > 0:
            nrm = -nrm
        worst = max(worst, float(nrm @ (x - V[i])))
    return worst


def data_path(root, rel):
    return os.path.join(root, *rel.split("/"))
