"""Distance solvers and the scene file format.

The low-level toolbox behind the certificates: nearest pairs between
bodies, separating hyperplanes with margins, and the JSON scene format
the command line speaks.
"""
import numpy as np

from hollowkit import (Ball, HPolytope, Scene, VPolytope, min_distance,
                       parse_scene, separating_hyperplane, serialize_scene)

# Nearest pair between a point and a segment, closed form 12 / sqrt(13).
point = VPolytope([[0.0, 0.0]])
segment = VPolytope([[4.0, 0.0], [2.0, 3.0]])
res = min_distance(point, segment)
print("point-segment distance:", res.distance,
      " exact:", 12.0 / np.sqrt(13.0))
print("  realizing pair:", res.point_a, "->", res.point_b)

# Distance between disjoint balls is center distance minus the radii.
a = Ball([0.0, 0.0], 1.0)
b = Ball([4.0, 3.0], 1.5)
print("ball-ball distance:", min_distance(a, b).distance, " exact:", 2.5)

# A positive gap yields a strict separator with a certified margin.
hp = separating_hyperplane(a, b)
print("separator normal:", hp.normal, " offset:", hp.offset)
print("  sides:", hp.side(a.center), hp.side(b.center))

# Scenes round-trip through a canonical text form: parse(serialize(s))
# is the identity and serialization is byte-stable.
scene = Scene(dimension=2, bodies=(a, b, HPolytope.box([0, 0], [1, 1])),
              options={"tol": 1e-7})
text = serialize_scene(scene)
again = parse_scene(text)
assert again == scene and serialize_scene(again) == text
print("scene round-trip ok,", len(text), "bytes; try:")
print("  python3 -m hollowkit check tests/data/disks.json")
