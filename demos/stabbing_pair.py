#!/usr/bin/env python3
"""Crossing-flats certificate for a hollow that is thinner than the space.

Two unit squares, side by side with a gap, form a 1-critical pair in the
plane.  Their hollow is one-dimensional: the segment between them.  The
certificate for such a flat hollow is a pair of complementary affine
flats through a common point:

  W carries the hollow direction and holds every witness, and witness j
  lies in every body but j;
  V is transversal, clears every body, and its crossing point must sit
  inside the simplex the witnesses span on W (here the segment between
  them), whose facet opposite witness j lies in body j.

The verifier checks both halves and reports exactly which one failed.
"""
import numpy as np

from hollowkit import AffineSubspace, HPolytope, StabbingPair, verify_stabbing

left = HPolytope.box([0.0, 0.0], [1.0, 1.0])
right = HPolytope.box([2.0, 0.0], [3.0, 1.0])
bodies = [left, right]
# witness j lies in the body other than j
witnesses = np.array([[2.0, 0.5], [1.0, 0.5]])

w_flat = AffineSubspace(base=[0.0, 0.5], basis=[[1.0, 0.0]])   # horizontal
v_flat = AffineSubspace(base=[1.5, 0.0], basis=[[0.0, 1.0]])   # vertical
pair = StabbingPair(w=w_flat, v=v_flat, point=[1.5, 0.5])

report = verify_stabbing(pair, bodies, witnesses)
print("verdict:", report.ok)
print("  witness offsets from W:", report.witness_offsets)
print("  clearances of V from the bodies:", report.clearances)
print("  crossing point surrounded on W:", report.surround_ok)

# Shift the transversal into the left square: stage one fails and names
# the offending body.
bad_v = AffineSubspace(base=[0.5, 0.0], basis=[[0.0, 1.0]])
bad = StabbingPair(w=w_flat, v=bad_v, point=[0.5, 0.5])
rejected = verify_stabbing(bad, bodies, witnesses)
print("transversal through a body:", rejected.ok,
      "-", "; ".join(rejected.reasons))

# Drop the right square and its witness: one witness spans no segment
# around the crossing point on W, so stage two fails even though stage one
# is clean.
open_report = verify_stabbing(pair, bodies[:1], witnesses[1:])
print("one body only:", open_report.ok,
      "-", "; ".join(open_report.reasons))

# Flats that fail the basic sanity checks never reach the verifier.
try:
    StabbingPair(w=w_flat, v=v_flat, point=[0.0, 0.0])
except ValueError as exc:
    print("rejected at construction:", exc)
