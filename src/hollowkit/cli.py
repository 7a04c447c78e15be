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

from .bodies import DEFAULT_TOL
from .critical import (CriticalFamily, check_critical, hollow_simplex,
                       recentered_witness, uniqueness_probe)
from .errors import GridResolutionError, HollowkitError, SceneError
from .hollow import (boundary_attribution, certify_hollow, hull_vs_simplex,
                     verify_stabbing)
from .render import render_svg
from .scenes import OPTIONS, SCHEMA, dumps, load_scene
from .sperner import klee_solve, kkm_verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are plain errors, not negative verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)

    def parse_args(self, args=None, namespace=None):
        """As argparse, but when the leftover words hold an unknown option,
        only the unknown options are named: the word after one may have
        been taken for the scene, leaving the scene's path among them."""
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            unknown = [word for word in extras if word.startswith("-")]
            self.error("unrecognized arguments: "
                       + " ".join(unknown or extras))
        return args


def _checked_arg(check):
    """Argument type from a check that raises on a bad value."""
    def parse(text):
        try:
            return check(text)
        except (GridResolutionError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _opt(args, scene, name):
    """An option's flag, else the scene's value, else the subcommand's default."""
    val = getattr(args, name)
    if val is None:
        val = scene.options.get(name, args.option_defaults[name])
    return val


def _write(args, name, text):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _write_result(args, payload):
    _write(args, "result.json", dumps(payload))


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


def _family(args, command, scene):
    """The scene's bodies as a family; a single body is no family, and is
    refused as a scene error."""
    if len(scene.bodies) < 2:
        raise SceneError(f"{args.scene}: {command} needs at least two bodies, "
                         f"the scene has {len(scene.bodies)}")
    return list(scene.bodies)


def _run_check(args, command, scene):
    """``check_critical`` at the subcommand's tolerance: the outcome, and the
    result so far, which holds the family or the reason it is refused."""
    bodies = _family(args, command, scene)
    tol = _opt(args, scene, "tol")
    outcome = check_critical(bodies, tol=tol)
    payload = _result_header(command, scene, tol)
    if isinstance(outcome, CriticalFamily):
        payload.update(critical=True, n=outcome.n, d=outcome.d,
                       witnesses=outcome.witnesses,
                       certificate=_certificate_json(outcome.certificate))
        return outcome, payload
    failure = {"reason": outcome.reason, "detail": outcome.detail}
    if outcome.index is not None:
        failure["index"] = outcome.index
    if outcome.witness is not None:
        failure["witness"] = outcome.witness
    payload.update(critical=False, failure=failure)
    return outcome, payload


def _critical_or_reject(args, command):
    """Load the scene and check it.  A family that is not critical has its
    result written and its reason printed, and comes back as None."""
    scene = load_scene(args.scene)
    outcome, payload = _run_check(args, command, scene)
    if isinstance(outcome, CriticalFamily):
        return scene, outcome, payload
    _write_result(args, payload)
    print(f"not critical ({outcome.reason}): {outcome.detail}")
    return scene, None, payload


def cmd_check(args):
    _, family, payload = _critical_or_reject(args, "check")
    if family is None:
        return EXIT_REJECTED
    _write_result(args, payload)
    print(f"critical family: n={family.n} d={family.d} "
          f"distance={family.certificate.distance:.6g}")
    return EXIT_OK


def cmd_hollow(args):
    scene, family, payload = _critical_or_reject(args, "hollow")
    if family is None:
        return EXIT_REJECTED
    hs = hollow_simplex(family)
    payload["hollow_simplex"] = {"vertices": hs.vertices, "gaps": hs.gaps}
    restarts = _opt(args, scene, "restarts")
    if restarts > 0:
        probe = uniqueness_probe(family, restarts=restarts,
                                 seed=_opt(args, scene, "seed"))
        payload["uniqueness"] = {
            "deviations": probe.deviations,
            "threshold": probe.threshold,
            "ok": probe.ok,
        }
    _write_result(args, payload)
    gaps = " ".join(f"{g:.6g}" for g in hs.gaps)
    print(f"hollow simplex with gaps: {gaps}")
    return EXIT_OK


def cmd_certify(args):
    scene, family, payload = _critical_or_reject(args, "certify")
    if family is None:
        return EXIT_REJECTED
    hs = hollow_simplex(family)
    payload["hollow_simplex"] = {"vertices": hs.vertices, "gaps": hs.gaps}
    cert = certify_hollow(family, _opt(args, scene, "resolution"))
    boundary = boundary_attribution(cert)
    distance = hull_vs_simplex(cert, hs)
    payload["grid_certificate"] = {
        "resolution": cert.resolution,
        "cell_count": cert.cell_count,
        "measure": cert.measure,
        "component_count": cert.component_count,
        "bounded": cert.bounded,
        "hull_vertices": cert.hull_vertices,
        "boundary_bodies": sorted(boundary),
        "boundary_complete": len(boundary) == len(family.bodies),
    }
    payload["hull_vs_simplex"] = distance
    _write_result(args, payload)
    print(f"hollow certified: cells={cert.cell_count} "
          f"measure={cert.measure:.6g} hull-vs-simplex={distance:.6g}")
    return EXIT_OK


def cmd_solve_klee(args):
    scene = load_scene(args.scene)
    bodies = _family(args, "solve-klee", scene)
    tol = _opt(args, scene, "tol")
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
    tol = _opt(args, scene, "tol")
    report = kkm_verify(scene.kkm, samples=_opt(args, scene, "samples"),
                        tol=tol)
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
    tol = _opt(args, scene, "tol")
    report = verify_stabbing(scene.stabbing, list(scene.bodies),
                             scene.stabbing_witnesses, tol=tol)
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
    outcome, payload = _run_check(args, "render", scene)
    witnesses = None
    hollow = None
    cert = None
    if isinstance(outcome, CriticalFamily):
        witnesses = outcome.witnesses
        if outcome.n == outcome.d:
            hollow = hollow_simplex(outcome)
            cert = certify_hollow(outcome, _opt(args, scene, "resolution"))
    svg = render_svg(list(scene.bodies), witnesses=witnesses, hollow=hollow,
                     certificate=cert)
    figure = _write(args, "figure.svg", svg)
    payload["figure"] = "figure.svg"
    _write_result(args, payload)
    print(f"wrote {figure}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="hollowkit",
                     description="certify critical families and their hollows")
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(p, key):
        check, text = OPTIONS[key]
        p.add_argument(f"--{key}", type=_checked_arg(check), help=text)

    def add(name, func, help_, tol=DEFAULT_TOL, **defaults):
        """A subcommand with a flag, and a default, for each option it reads."""
        p = sub.add_parser(name, help=help_)
        p.add_argument("scene", help="scene JSON file")
        flag(p, "tol")
        p.add_argument("--out", default=".",
                       help="directory for result files (default: .)")
        for key in defaults:
            flag(p, key)
        p.set_defaults(func=func, option_defaults={"tol": tol, **defaults})

    add("check", cmd_check, "certify that a family is critical")
    add("hollow", cmd_hollow, "compute the hollow simplex and gaps",
        restarts=10, seed=0)
    add("certify", cmd_certify, "grid-certify the bounded hollow",
        resolution=None)
    add("solve-klee", cmd_solve_klee,
        "find a common point when the union is convex", tol=1e-6)
    add("kkm", cmd_kkm, "sampled cover check for a kkm section", samples=64)
    add("stab-verify", cmd_stab_verify,
        "verify a stabbing pair against the family", tol=1e-6)
    add("render", cmd_render, "draw the scene as a deterministic SVG",
        resolution=None)
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
