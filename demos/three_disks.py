#!/usr/bin/env python3
"""Three unit disks on an equilateral triangle, slightly too far apart.

With centers a distance 1.9 apart, any two disks overlap in a lens but
the three share nothing: a 2-critical family in the plane.  The hollow
simplex has a closed form here, so every number the solver produces can
be checked by hand:

  the far lens corner sits at height sqrt(1 - (s/2)^2) above the
  opposite side's midpoint, and the gap is the distance from that corner
  to the far center minus the radius.
"""
import numpy as np

from hollowkit import (cage_margin, check_critical, hollow_simplex,
                       render_svg, uniqueness_probe)
from hollowkit.bodies import Ball

SIDE = 1.9

centers = np.array([
    [0.0, 0.0],
    [SIDE, 0.0],
    [SIDE / 2.0, SIDE * np.sqrt(3.0) / 2.0],
])
disks = [Ball(c, 1.0) for c in centers]

family = check_critical(disks)
print("criticality:", type(family).__name__,
      " margin:", family.certificate.distance)

hs = hollow_simplex(family)
print("hollow vertices:")
print(hs.vertices)
print("gaps:", hs.gaps)

# Closed form: vertex j is the lens corner of disks i, k nearest disk j.
half = SIDE / 2.0
lens_height = np.sqrt(1.0 - half * half)
corner_gap = np.sqrt(half * half * 3.0) - lens_height - 1.0
print("closed-form gap:", corner_gap,
      " max error:", np.abs(hs.gaps - corner_gap).max())
p2 = np.array([half, lens_height])  # corner of the bottom lens
print("bottom vertex error:", np.linalg.norm(hs.vertices[2] - p2))

# The witnesses span a cage, so each vertex has nonnegative barycentric
# coordinates in their triangle (sandwich), and the solve must land on the
# same simplex from any starting point.
print("sandwich margin:", cage_margin(family, hs))
rep = uniqueness_probe(family, restarts=10)
print("uniqueness over", rep.restarts, "restarts: ok =", rep.ok,
      " max spread:", rep.deviations.max())

# Cages: any choice of base points, one per leave-one-out lens, spans a
# triangle that contains the hollow, because the side opposite base point j
# lies in disk j.  Draw each one by projecting a random point of the
# bounding box onto its lens.
rng = np.random.default_rng(7)
lo, hi = centers.min(axis=0) - 1.0, centers.max(axis=0) + 1.0
for trial in range(3):
    base = [family.leave_one_out(j).project(lo + (hi - lo) * rng.random(2))
            for j in range(3)]
    assert cage_margin(family, hs, base) >= -1e-6
print("3 random cages all contain the hollow vertices")

with open("three_disks.svg", "w") as fh:
    fh.write(render_svg(disks, witnesses=family.witnesses, hollow=hs))
print("wrote three_disks.svg")
