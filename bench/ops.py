"""One op per generated family, and the checks that grade its outputs.

An op runs the library from plain arrays; its check runs afterwards,
outside the timed region, and re-derives the verdict from closed forms
and from the bodies' own oracles.  A check returns None when the op's
outputs are correct and a one-line reason when they are not.
"""
from __future__ import annotations

import numpy as np

import hollowkit as hk

STRUCTURED = (hk.ToleranceAmbiguityError, hk.BorderlineCriticalError)


def make_body(spec, tol):
    kind = spec["kind"]
    if kind == "ball":
        return hk.Ball(spec["center"], spec["radius"])
    if kind == "hpoly":
        return hk.HPolytope(spec["A"], spec["b"])
    if kind == "vpoly":
        return hk.VPolytope(spec["vertices"])
    parts = [make_body(p, tol) for p in spec["parts"]]
    return hk.IntersectionBody(parts, witness=spec["witness"], tol=tol)


def auto_resolution(family):
    """The resolution ``hollowkit certify`` picks when none is given."""
    W = family.witnesses
    return 1.1 * float((W.max(axis=0) - W.min(axis=0)).max()) / 128.0


# ---------------------------------------------------------------- families

def run_family(fam):
    """Construction -> check_critical -> hollow_simplex -> certify -> hull_vs_simplex."""
    tol = fam["tol"]
    bodies = [make_body(b, tol) for b in fam["bodies"]]
    out = {"bodies": bodies}
    outcome = hk.check_critical(bodies, tol=tol)
    out["outcome"] = outcome
    if isinstance(outcome, hk.CriticalFamily) and outcome.n == outcome.d:
        hs = hk.hollow_simplex(outcome)
        out["hollow"] = hs
        if outcome.d in (2, 3):
            cert = hk.certify_hollow(outcome, auto_resolution(outcome))
            out["cert"] = cert
            out["hull_vs_simplex"] = hk.hull_vs_simplex(cert, hs)
    return out


def _members(bodies, point, tol):
    return all(b.membership(point, tol) for b in bodies)


def _check_separation(bodies, cert, witnesses, tol):
    """Re-check the emptiness certificate with support calls.

    The separated body must lie below the plane and the intersection of
    the remaining bodies (of the certificate's subfamily) above it, each
    by at least half the stated margin.
    """
    j = cert.separated_index
    idx = cert.subfamily if cert.subfamily is not None else range(len(bodies))
    rest = [bodies[i] for i in idx if i != j]
    n = np.asarray(cert.hyperplane.normal, dtype=float)
    off = float(cert.hyperplane.offset)
    slack = 0.5 * cert.margin
    if float(n @ bodies[j].support(n)) > off - slack:
        return f"separated body {j} reaches the plane"
    if len(rest) == 1:
        low = rest[0].support(-n)
    else:
        # any point of the remaining intersection anchors its oracle
        anchor = witnesses[j] if cert.subfamily is None else hk.intersect_witness(rest, tol=tol).witness
        low = hk.IntersectionBody(rest, witness=anchor, tol=tol).support(-n)
    if float(n @ low) < off + slack:
        return "remaining bodies reach the plane"
    return None


def check_family(fam, out):
    expect = fam["expect"]
    tol = fam["tol"]
    bodies = out["bodies"]
    outcome = out["outcome"]
    if isinstance(outcome, hk.CriticalityFailure):
        if expect == "band" and outcome.reason != "helly":
            return None
        if outcome.reason != expect:
            return f"verdict {outcome.reason}, expected {expect}"
        if expect == "full-intersection-nonempty" and not _members(bodies, outcome.witness, 10 * tol):
            return "common-point witness misses a body"
        return None
    if expect not in ("critical", "band"):
        return f"certified critical, expected {expect}"
    W = outcome.witnesses
    for j in range(len(bodies)):
        if not _members([b for i, b in enumerate(bodies) if i != j], W[j], 10 * tol):
            return f"witness {j} misses a leave-one-out body"
    bad = _check_separation(bodies, outcome.certificate, W, tol)
    if bad:
        return bad
    hs = out.get("hollow")
    if hs is not None:
        for j, v in enumerate(hs.vertices):
            if not _members([b for i, b in enumerate(bodies) if i != j], v, 10 * tol):
                return f"hollow vertex {j} misses a leave-one-out body"
            if abs(bodies[j].distance(v) - hs.gaps[j]) > 1e-6 * fam["scale"]:
                return f"hollow gap {j} disagrees with the body's distance"
        if fam.get("lens") is not None:
            err = float(np.abs(hs.vertices - fam["lens"]).max())
            if err > 1e-5 * fam["scale"]:
                return f"hollow vertices miss the lens corners by {err:.3e}"
    cert = out.get("cert")
    if cert is not None:
        if not cert.bounded or cert.cell_count == 0:
            return "no bounded grid component"
        # the grid hull is within a few cells of the hollow simplex
        if out["hull_vs_simplex"] > 4.0 * np.sqrt(fam["d"]) * cert.resolution:
            return f"grid hull is {out['hull_vs_simplex']:.3e} from the simplex"
    return None


# ------------------------------------------------------------ convex union

def run_union(fam):
    """klee_solve -> kkm_verify(family_kkm_instance) -> intersect_witness."""
    tol = fam["tol"]
    bodies = [make_body(b, tol) for b in fam["bodies"]]
    W = fam["witnesses"]
    point = hk.klee_solve(bodies, W, tol=tol)
    report = hk.kkm_verify(hk.family_kkm_instance(bodies, W), tol=tol)
    feas = hk.intersect_witness(bodies, tol=tol)
    return {"bodies": bodies, "point": point, "kkm": report, "feas": feas}


def check_union(fam, out):
    tol = fam["tol"]
    bodies = out["bodies"]
    if not _members(bodies, out["point"], tol):
        return "klee point misses a body"
    rep = out["kkm"]
    if not rep.kkm_holds or rep.contradiction or rep.witness is None:
        return "cover check did not hold with a common point"
    if not _members(bodies, rep.witness, tol):
        return "cover witness misses an image"
    if not out["feas"].feasible or not _members(bodies, out["feas"].witness, tol):
        return "feasibility scan found no common point"
    return None
