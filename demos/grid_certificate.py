"""Certify a hollow on a pixel grid and name the bodies around it.

The three sides of a triangle, thickened into thin rectangles, leave the
triangle's interior uncovered: a bounded component of the complement.
A membership grid over the witness box finds it as the uncovered cells
inside the witness simplex, measures it, compares its hull with the
hollow simplex and lists the bodies that cover a neighbour of a hollow
cell.
"""
import numpy as np

from hollowkit import (boundary_attribution, certify_hollow, check_critical,
                       hollow_simplex, hull_vs_simplex)
from hollowkit.bodies import HPolytope

TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
HALF_WIDTH = 0.025


def side_rectangle(a, b):
    # rectangle around segment ab, widened by HALF_WIDTH on every side
    u = (b - a) / np.linalg.norm(b - a)
    n = np.array([-u[1], u[0]])
    A = np.vstack([n, -n, u, -u])
    offsets = np.array([n @ a + HALF_WIDTH, -(n @ a) + HALF_WIDTH,
                        u @ b + HALF_WIDTH, -(u @ a) + HALF_WIDTH])
    return HPolytope(A, offsets)


rects = [side_rectangle(TRIANGLE[i], TRIANGLE[(i + 1) % 3])
         for i in range(3)]
family = check_critical(rects)
hs = hollow_simplex(family)

h = 0.02
cert = certify_hollow(family, resolution=h)
print(f"grid {cert.grid.shape} at h = {cert.resolution}")
# the witness simplex cages the hollow: each facet lies in the body whose
# witness it leaves out, and a critical family leaves exactly one bounded
# complement component, so the uncovered cells inside it are the hollow
print("bounded components (always 1):", cert.component_count)
print("cells in the hollow:", cert.cell_count)
print("measure estimate:", cert.measure)
# the uncovered interior is the triangle shrunk by the half width, so the
# area should be a bit under 4 * 3 / 2 = 6
print("hull vs simplex (Hausdorff):", hull_vs_simplex(cert, hs))
# every hollow cell lies inside the hollow simplex, the paper's closed
# convex hull of the hollow
print("smallest barycentric in the hollow simplex:",
      hs.simplex.barycentrics(cert.centers).min())

boundary = boundary_attribution(cert)
print("bodies on the boundary:", sorted(boundary),
      " complete:", len(boundary) == len(rects))

# Refining the grid should barely move the measure.
fine = certify_hollow(family, resolution=h / 2.0)
print("measure at h/2:", fine.measure,
      " drift:", abs(fine.measure - cert.measure))
