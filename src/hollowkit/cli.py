"""Command line driver: scene files in, result files and exit codes out.

Exit codes: 0 when the requested check succeeds, 2 when the scene parses
but the verdict is negative (family not critical, cover check fails,
stabbing rejected), 1 for errors of any other kind.  Results are written
as canonical JSON so repeated runs produce byte-identical files; timings
go to stderr only.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .bodies import DEFAULT_TOL, check_tol
from .critical import (CriticalFamily, check_critical, hollow_simplex,
                       recentered_witness, uniqueness_probe)
from .errors import GridResolutionError, HollowkitError, SceneError
from .hollow import (BOX_EXPAND, boundary_attribution, certify_hollow,
                     check_resolution, hull_vs_simplex, verify_stabbing)
from .render import render_svg
from .scenes import SCHEMA, dumps, load_scene
from .sperner import check_samples, klee_solve, kkm_verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are plain errors, not negative verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _checked_arg(check):
    """Argument type from a check that raises on a bad value."""
    def parse(text):
        try:
            return check(text)
        except (GridResolutionError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _opt(args, scene, name, default):
    val = getattr(args, name, None)
    if val is not None:
        return val
    if name in scene.options:
        return scene.options[name]
    return default


def _write_result(args, payload):
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "result.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(payload))
    return path


def _result_header(command, scene, tol):
    return {
        "schema": SCHEMA,
        "command": command,
        "dimension": scene.dimension,
        "bodies": len(scene.bodies),
        "tol": tol,
    }


def _certificate_json(cert):
    out = {
        "normal": cert.hyperplane.normal,
        "offset": cert.hyperplane.offset,
        "separated_index": cert.separated_index,
        "distance": cert.distance,
        "margin": cert.margin,
    }
    if cert.subfamily is not None:
        out["subfamily"] = sorted(cert.subfamily)
    return out


def _run_check(scene, tol):
    outcome = check_critical(list(scene.bodies), tol=tol)
    if isinstance(outcome, CriticalFamily):
        payload = {
            "critical": True,
            "n": outcome.n,
            "d": outcome.d,
            "witnesses": outcome.witnesses,
            "certificate": _certificate_json(outcome.certificate),
        }
        return outcome, payload
    payload = {"critical": False,
               "failure": {"reason": outcome.reason, "detail": outcome.detail}}
    if outcome.index is not None:
        payload["failure"]["index"] = outcome.index
    if outcome.witness is not None:
        payload["failure"]["witness"] = outcome.witness
    return outcome, payload


def cmd_check(args):
    scene = load_scene(args.scene)
    tol = _opt(args, scene, "tol", DEFAULT_TOL)
    outcome, body = _run_check(scene, tol)
    payload = {**_result_header("check", scene, tol), **body}
    _write_result(args, payload)
    if isinstance(outcome, CriticalFamily):
        print(f"critical family: n={outcome.n} d={outcome.d} "
              f"margin={outcome.certificate.distance:.6g}")
        return EXIT_OK
    print(f"not critical ({outcome.reason}): {outcome.detail}")
    return EXIT_REJECTED


def cmd_hollow(args):
    scene = load_scene(args.scene)
    tol = _opt(args, scene, "tol", DEFAULT_TOL)
    restarts = int(_opt(args, scene, "restarts", 10))
    seed = int(_opt(args, scene, "seed", 0))
    outcome, body = _run_check(scene, tol)
    payload = {**_result_header("hollow", scene, tol), **body}
    if not isinstance(outcome, CriticalFamily):
        _write_result(args, payload)
        print(f"not critical ({outcome.reason}): {outcome.detail}")
        return EXIT_REJECTED
    hs = hollow_simplex(outcome)
    payload["hollow_simplex"] = {"vertices": hs.vertices, "gaps": hs.gaps}
    if restarts > 0:
        probe = uniqueness_probe(outcome, restarts=restarts, seed=seed)
        payload["uniqueness"] = {
            "deviations": probe.deviations,
            "threshold": probe.threshold,
            "ok": probe.ok,
        }
    _write_result(args, payload)
    gaps = " ".join(f"{g:.6g}" for g in hs.gaps)
    print(f"hollow simplex with gaps: {gaps}")
    return EXIT_OK


def _grid_resolution(args, scene, family):
    """The ``resolution`` option, else 128 cells across the widest side of
    the certificate's grid box."""
    resolution = _opt(args, scene, "resolution", None)
    if resolution is not None:
        return float(resolution)
    W = family.witnesses
    span = float((W.max(axis=0) - W.min(axis=0)).max())
    return BOX_EXPAND * span / 128.0


def cmd_certify(args):
    scene = load_scene(args.scene)
    tol = _opt(args, scene, "tol", DEFAULT_TOL)
    outcome, body = _run_check(scene, tol)
    payload = {**_result_header("certify", scene, tol), **body}
    if not isinstance(outcome, CriticalFamily):
        _write_result(args, payload)
        print(f"not critical ({outcome.reason}): {outcome.detail}")
        return EXIT_REJECTED
    hs = hollow_simplex(outcome)
    payload["hollow_simplex"] = {"vertices": hs.vertices, "gaps": hs.gaps}
    cert = certify_hollow(outcome, _grid_resolution(args, scene, outcome))
    attribution = boundary_attribution(cert)
    distance = hull_vs_simplex(cert, hs)
    payload["grid_certificate"] = {
        "resolution": cert.resolution,
        "cell_count": cert.cell_count,
        "measure": cert.measure,
        "component_count": cert.component_count,
        "bounded": cert.bounded,
        "hull_vertices": cert.hull_vertices,
        "boundary_bodies": sorted(attribution.bodies_present),
        "boundary_complete": attribution.complete,
    }
    payload["hull_vs_simplex"] = distance
    _write_result(args, payload)
    print(f"hollow certified: cells={cert.cell_count} "
          f"measure={cert.measure:.6g} hull-vs-simplex={distance:.6g}")
    return EXIT_OK


def cmd_solve_klee(args):
    scene = load_scene(args.scene)
    tol = _opt(args, scene, "tol", 1e-6)
    bodies = list(scene.bodies)
    witnesses = np.array([
        recentered_witness([b for i, b in enumerate(bodies) if i != j],
                           tol=min(tol, DEFAULT_TOL))
        for j in range(len(bodies))
    ])
    point = klee_solve(bodies, witnesses, tol=tol)
    dists = np.array([b.distance(point) for b in bodies])
    payload = {
        **_result_header("solve-klee", scene, tol),
        "witnesses": witnesses,
        "point": point,
        "distances": dists,
        "max_distance": float(dists.max()),
    }
    _write_result(args, payload)
    coords = " ".join(f"{x:.10g}" for x in point)
    print(f"common point: [{coords}] max distance {dists.max():.3g}")
    return EXIT_OK


def cmd_kkm(args):
    scene = load_scene(args.scene)
    if scene.kkm is None:
        raise SceneError("scene has no kkm section")
    tol = _opt(args, scene, "tol", DEFAULT_TOL)
    samples = _opt(args, scene, "samples", 64)
    report = kkm_verify(scene.kkm, samples=samples, tol=tol)
    payload = {
        **_result_header("kkm", scene, tol),
        "points": scene.kkm.points,
        "kkm_holds": report.kkm_holds,
        "contradiction": report.contradiction,
        "subsets_checked": report.subsets_checked,
        "samples_per_subset": report.samples_per_subset,
    }
    if report.counterexample is not None:
        payload["counterexample"] = report.counterexample
        payload["subset"] = list(report.subset)
    if report.witness is not None:
        payload["witness"] = report.witness
    _write_result(args, payload)
    if report.kkm_holds and not report.contradiction:
        print("cover check holds; images share a point")
        return EXIT_OK
    if report.kkm_holds:
        print("cover check holds but no common point was found (contradiction)")
        return EXIT_REJECTED
    print(f"cover check fails on subset {list(report.subset)}")
    return EXIT_REJECTED


def cmd_stab_verify(args):
    scene = load_scene(args.scene)
    if scene.stabbing is None:
        raise SceneError("scene has no stabbing section")
    tol = _opt(args, scene, "tol", 1e-6)
    resolution = _opt(args, scene, "resolution", None)
    report = verify_stabbing(scene.stabbing, list(scene.bodies),
                             scene.stabbing_witnesses, tol=tol,
                             resolution=resolution)
    payload = {
        **_result_header("stab-verify", scene, tol),
        "witness_ok": report.witness_ok,
        "surround_ok": report.surround_ok,
        "reasons": list(report.reasons),
    }
    if report.witness_offsets is not None:
        payload["witness_offsets"] = report.witness_offsets
    if report.clearances is not None:
        payload["clearances"] = report.clearances
    _write_result(args, payload)
    if report.ok:
        print("stabbing pair verified")
        return EXIT_OK
    for reason in report.reasons:
        print(f"rejected: {reason}")
    return EXIT_REJECTED


def cmd_render(args):
    scene = load_scene(args.scene)
    if scene.dimension != 2:
        raise SceneError("rendering supports two-dimensional scenes only")
    tol = _opt(args, scene, "tol", DEFAULT_TOL)
    outcome, body = _run_check(scene, tol)
    payload = {**_result_header("render", scene, tol), **body}
    witnesses = None
    hollow = None
    cert = None
    if isinstance(outcome, CriticalFamily):
        witnesses = outcome.witnesses
        if outcome.n == outcome.d:
            hollow = hollow_simplex(outcome)
            cert = certify_hollow(outcome,
                                  _grid_resolution(args, scene, outcome))
    svg = render_svg(list(scene.bodies), witnesses=witnesses, hollow=hollow,
                     certificate=cert)
    os.makedirs(args.out, exist_ok=True)
    figure = os.path.join(args.out, "figure.svg")
    with open(figure, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    payload["figure"] = "figure.svg"
    _write_result(args, payload)
    print(f"wrote {figure}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="hollowkit",
                     description="certify critical families and their hollows")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, resolution=False, restarts=False,
            samples=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("scene", help="scene JSON file")
        p.add_argument("--tol", type=_checked_arg(check_tol), default=None,
                       help="numerical tolerance")
        p.add_argument("--out", default=".",
                       help="directory for result files (default: .)")
        if resolution:
            p.add_argument("--resolution", type=_checked_arg(check_resolution),
                           default=None, help="grid cell size")
        if restarts:
            p.add_argument("--restarts", type=int, default=None,
                           help="random restarts for the uniqueness probe")
            p.add_argument("--seed", type=int, default=None,
                           help="seed for the uniqueness probe")
        if samples:
            p.add_argument("--samples", type=_checked_arg(check_samples),
                           default=None,
                           help="hull samples per subset")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "certify that a family is critical")
    add("hollow", cmd_hollow, "compute the hollow simplex and gaps",
        restarts=True)
    add("certify", cmd_certify, "grid-certify the bounded hollow",
        resolution=True)
    add("solve-klee", cmd_solve_klee,
        "find a common point when the union is convex")
    add("kkm", cmd_kkm, "sampled cover check for a kkm section",
        samples=True)
    add("stab-verify", cmd_stab_verify,
        "verify a stabbing pair against the family", resolution=True)
    add("render", cmd_render, "draw the scene as a deterministic SVG",
        resolution=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except SceneError as exc:
        where = ""
        if exc.line is not None:
            where = f" (line {exc.line}, column {exc.column})"
        sys.stderr.write(f"scene error{where}: {exc}\n")
        for detail in getattr(exc, "details", None) or ():
            sys.stderr.write(f"  {detail}\n")
        return EXIT_ERROR
    except HollowkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_ERROR
    finally:
        elapsed = time.perf_counter() - start
        sys.stderr.write(f"[time] {elapsed:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
