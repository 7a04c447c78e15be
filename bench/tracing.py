"""In-memory tracer that wraps hollowkit's layers from outside the package.

``install(tracer)`` replaces every public function of interest, at *every* name
it is bound to inside the package (``feasibility_scan`` is imported into
``solvers`` and ``critical``, ``dykstra`` into ``sperner`` and so on), and
the oracle methods of the four body classes.  Calls to most functions
become spans (name, start, end, parent, trace id); the hot oracle calls and
``dykstra`` are aggregated into per-parent count and time instead, because
one certification can make a million of them.  Self time is a call's
duration minus the time its traced children cover.  Nothing is written
until ``dump`` is called.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

KINDS = {"Ball": "ball", "HPolytope": "hpoly", "VPolytope": "vpoly",
         "IntersectionBody": "intersection"}
SCAN_STATUSES = ("witness", "empty", "ambiguous", "noconv")

# module -> functions traced as spans
SPAN_FUNCS = {
    "bodies": ("feasibility_scan",),
    "solvers": ("min_distance", "separating_hyperplane", "intersect_witness"),
    "critical": ("check_critical", "recentered_witness", "hollow_simplex",
                 "uniqueness_probe"),
    "hollow": ("certify_hollow", "boundary_attribution", "verify_stabbing",
               "hull_vs_simplex"),
    "sperner": ("klee_solve", "sperner_color", "rainbow_cells", "kkm_verify",
                "family_kkm_instance"),
    "scenes": ("load_scene", "parse_scene", "dumps"),
    "render": ("render_svg",),
    "cli": ("cmd_check", "cmd_hollow", "cmd_certify", "cmd_solve_klee",
            "cmd_kkm", "cmd_stab_verify", "cmd_render"),
}
HOT_FUNCS = {"bodies": ("dykstra",)}
HOT_METHODS = ("project", "support", "contains_batch")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.trace_id = 0
        self.stack = []          # frames: [name, start, child_s, span_id]
        self.spans = []          # (trace, id, parent, name, start, end, self_s)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)   # outermost calls of each name
        self.self_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._open = defaultdict(int)
        self._next_id = 1

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn, name, hot=False, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = 0
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            tracer._open[name] += 1
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                dur = end - frame[1]
                own = dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                if tracer._open[name] == 0:
                    tracer.total_s[name] += dur
                if hot:
                    agg = tracer.by_parent[(parent[0] if parent else "", name)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
                else:
                    tracer.spans.append((tracer.trace_id, span_id,
                                         parent[3] if parent else 0, name,
                                         frame[1], end, own))
                if post is not None:
                    post(tracer, args, kwargs, result, error)
            return result

        return traced

    # -- results -------------------------------------------------------
    def dump(self):
        return {
            "spans": [list(s) for s in self.spans],
            "hot_by_parent": [[p, n, v[0], v[1], v[2]]
                              for (p, n), v in sorted(self.by_parent.items())],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------- post hooks

def _post_dykstra(tr, args, kwargs, res, exc):
    if res is not None:
        tr.counts["dykstra.rounds"] += int(res.rounds)
        tr.counts["dykstra.converged"] += int(bool(res.converged))


def _post_scan(tr, args, kwargs, res, exc):
    if res is not None:
        tr.counts[f"scan.calls.{res[0]}"] += 1
        tr.counts[f"scan.rounds.{res[0]}"] += int(res[4])


def _post_min_distance(tr, args, kwargs, res, exc):
    if res is not None:
        tr.counts["min_distance.iterations"] += int(res.iterations)
    elif exc is not None and getattr(exc, "best", None) is not None:
        tr.counts["min_distance.iterations"] += int(exc.best.iterations)


def _post_separation(tr, args, kwargs, res, exc):
    tr.counts["separation.attempts"] += 1
    if res is not None:
        tr.counts["separation.successes"] += 1


def _post_certify(tr, args, kwargs, res, exc):
    retry = kwargs.get("retry", args[3] if len(args) > 3 else True)
    if retry:
        tr.counts["certify.calls"] += 1
    else:
        tr.counts["certify.retries"] += 1
    if res is not None:
        size = 1
        for n in res.grid.shape:
            size *= int(n)
        tr.counts["grid_cells"] += size


def _post_color(tr, args, kwargs, res, exc):
    tr.counts["sperner.levels"] += 1
    tr.counts["sperner.vertices_colored"] += int(args[0].coords.shape[0])


def _post_rainbow(tr, args, kwargs, res, exc):
    tr.counts["sperner.cells_scanned"] += int(args[0].cells.shape[0])


def _post_kkm(tr, args, kwargs, res, exc):
    if res is not None:
        tr.counts["kkm.subsets_checked"] += int(res.subsets_checked)


def _contains_post(kind):
    def post(tr, args, kwargs, res, exc):
        pts = args[1] if len(args) > 1 else kwargs.get("points")
        tr.counts[f"contains_batch.points.{kind}"] += int(len(pts))
    return post


POST = {
    "dykstra": _post_dykstra,
    "feasibility_scan": _post_scan,
    "min_distance": _post_min_distance,
    "separating_hyperplane": _post_separation,
    "certify_hollow": _post_certify,
    "sperner_color": _post_color,
    "rainbow_cells": _post_rainbow,
    "kkm_verify": _post_kkm,
}


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if (name == "hollowkit" or name.startswith("hollowkit.")) and mod is not None}


def install(tracer):
    """Wrap functions at every binding and the body classes' oracles."""
    import importlib

    for sub in ("bodies", "solvers", "critical", "hollow", "sperner",
                "scenes", "render", "cli"):
        importlib.import_module(f"hollowkit.{sub}")
    mods = _modules()
    replaced = {}
    for table, hot in ((SPAN_FUNCS, False), (HOT_FUNCS, True)):
        for modname, names in table.items():
            mod = mods[f"hollowkit.{modname}"]
            for fname in names:
                orig = getattr(mod, fname)
                replaced[id(orig)] = (orig, tracer.wrap(
                    orig, f"{modname}.{fname}", hot=hot, post=POST.get(fname)))
    rebound = 0
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                rebound += 1
    bodies = mods["hollowkit.bodies"]
    for cls_name, kind in KINDS.items():
        cls = getattr(bodies, cls_name)
        for meth in HOT_METHODS:
            orig = getattr(cls, meth)
            post = _contains_post(kind) if meth == "contains_batch" else None
            setattr(cls, meth, tracer.wrap(orig, f"bodies.{meth}.{kind}",
                                           hot=True, post=post))
    hp = bodies.HPolytope
    hp.__init__ = tracer.wrap(hp.__init__, "bodies.construct.hpoly")
    return rebound


# ------------------------------------------------------------ layer metrics

S = "s"
C = "count"
R = "ratio"


def layer_metrics(calls, total_s, self_s, counts):
    """The per-layer metrics from merged trace aggregates."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for kind in KINDS.values():
        for meth in ("project", "support"):
            key = f"bodies.{meth}.{kind}"
            put(f"bodies.{meth}.calls.{kind}", calls.get(key, 0), C)
            put(f"bodies.{meth}.self_s.{kind}", self_s.get(key, 0.0), S)
        put(f"bodies.contains_batch.points.{kind}",
            counts.get(f"contains_batch.points.{kind}", 0), C)
        put(f"bodies.contains_batch.s.{kind}",
            total_s.get(f"bodies.contains_batch.{kind}", 0.0), S)
    put("bodies.construct_s.hpoly", total_s.get("bodies.construct.hpoly", 0.0), S)
    dcalls = calls.get("bodies.dykstra", 0)
    put("bodies.dykstra.calls", dcalls, C)
    put("bodies.dykstra.rounds", counts.get("dykstra.rounds", 0), C)
    put("bodies.dykstra.converged_share",
        counts.get("dykstra.converged", 0) / max(dcalls, 1), R)
    for st in SCAN_STATUSES:
        put(f"bodies.scan.calls.{st}", counts.get(f"scan.calls.{st}", 0), C)
        put(f"bodies.scan.rounds.{st}", counts.get(f"scan.rounds.{st}", 0), C)
    put("solvers.min_distance.calls", calls.get("solvers.min_distance", 0), C)
    put("solvers.min_distance.iterations", counts.get("min_distance.iterations", 0), C)
    put("solvers.min_distance.self_s", self_s.get("solvers.min_distance", 0.0), S)
    put("solvers.intersect_witness.self_s",
        self_s.get("solvers.intersect_witness", 0.0), S)
    put("solvers.separation.success_share",
        counts.get("separation.successes", 0)
        / max(counts.get("separation.attempts", 0), 1), R)
    put("critical.check_critical.s", total_s.get("critical.check_critical", 0.0), S)
    put("critical.recentered_witness.calls",
        calls.get("critical.recentered_witness", 0), C)
    put("critical.recentered_witness.s",
        total_s.get("critical.recentered_witness", 0.0), S)
    put("critical.hollow_simplex.s", total_s.get("critical.hollow_simplex", 0.0), S)
    put("critical.uniqueness_probe.s", total_s.get("critical.uniqueness_probe", 0.0), S)
    put("hollow.certify_hollow.s", total_s.get("hollow.certify_hollow", 0.0), S)
    put("hollow.grid_cells", counts.get("grid_cells", 0), C)
    put("hollow.certify_hollow.retry_share",
        counts.get("certify.retries", 0) / max(counts.get("certify.calls", 0), 1), R)
    put("hollow.boundary_attribution.s",
        total_s.get("hollow.boundary_attribution", 0.0), S)
    put("hollow.verify_stabbing.s", total_s.get("hollow.verify_stabbing", 0.0), S)
    put("sperner.klee_solve.s", total_s.get("sperner.klee_solve", 0.0), S)
    put("sperner.levels", counts.get("sperner.levels", 0), C)
    put("sperner.vertices_colored", counts.get("sperner.vertices_colored", 0), C)
    put("sperner.cells_scanned", counts.get("sperner.cells_scanned", 0), C)
    put("sperner.kkm_verify.s", total_s.get("sperner.kkm_verify", 0.0), S)
    put("sperner.kkm.subsets_checked", counts.get("kkm.subsets_checked", 0), C)
    put("cli.import_s", counts.get("cli.import_us", 0) / 1e6, S)
    put("cli.compute_s", counts.get("cli.compute_us", 0) / 1e6, S)
    put("scenes.load_scene.s", total_s.get("scenes.load_scene", 0.0), S)
    put("scenes.dumps.s", total_s.get("scenes.dumps", 0.0), S)
    put("render.render_svg.s", total_s.get("render.render_svg", 0.0), S)
    put("cli.result_bytes_changed", counts.get("cli.result_bytes_changed", 0), C)
    return out


def merge(into, part):
    """Add one trace dump's aggregates into ``into`` (a dict of dicts)."""
    for key in ("calls", "total_s", "self_s", "counts"):
        dst = into.setdefault(key, {})
        for k, v in part.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    return into
