"""One benchmark process: set up, run whole cycles of ops, report.

Started by ``run.py`` with the environment already pinned.  Prints
``READY`` once set-up is done (the parent times process start to that
line), then runs the workload and prints one JSON line with every op's
wall time, check outcome and, in run mode, speed factor.

Modes:
  setup   stop after READY (a set-up sample);
  run     one library op untimed as a warm-up, then untraced cycles
          until ``--seconds`` have passed, each op bracketed by speed
          probes (see speed.py);
  traced  exactly one cycle untraced, then the same cycle traced, so the
          counts are a function of the seed and the overhead is measured.

``--budget`` is how many seconds the process may take in all.  An op
still running when it is spent is stopped and counted as failed; ops not
started by then are reported as ``skipped``.  This keeps a much slower
program reporting its numbers instead of being killed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def import_library(root):
    """Import hollowkit from the checkout's src/, and nothing else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hollowkit
    where = os.path.realpath(os.path.dirname(hollowkit.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hollowkit imported from {where}, not from {src}")
    return hollowkit


def rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


class OpTimeout(BaseException):
    """Raised into a library op when the process budget is spent.

    A BaseException, so that no ``except Exception`` inside the library
    can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout


class Budget:
    def __init__(self, seconds):
        self.deadline = time.perf_counter() + seconds
        signal.signal(signal.SIGALRM, _alarm)

    def left(self):
        return self.deadline - time.perf_counter()

    def arm(self):
        signal.setitimer(signal.ITIMER_REAL, max(self.left(), 1e-3))

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


# ------------------------------------------------------------ library ops

# The vpoly slot's grid hull, at the commit that introduced this benchmark,
# lay 81-116 grid cells (hull_vs_simplex / resolution) from the hollow
# simplex over seeds 1-30; see "vpoly_grid" in baseline.json.  A run that
# lands it farther fails its op.
VPOLY_GRID_CELLS = 130.0


class LibraryWorkload:
    def __init__(self, name, seed, budget):
        import ops
        self.ops = ops
        self.budget = budget
        self.name = name
        self.rng = np.random.default_rng(seed)
        union = name == "convex-union"
        self.table = workloads.UNION_CYCLE if union else workloads.FAMILY_CYCLE
        self.run_op = ops.run_union if union else ops.run_family
        self.check = ops.check_union if union else ops.check_family
        self.known = {}

    def cycle(self):
        if self.name == "edge":
            return workloads.edge_cases()
        return [(slot, gen(self.rng, k)) for k, (slot, gen) in enumerate(self.table)]

    def execute(self, slot, fam, tracer=None):
        """Run one op; returns (seconds, failure reason or None)."""
        if tracer is not None:
            tracer.enabled = True
        self.budget.arm()
        t0 = time.perf_counter()
        try:
            out = self.run_op(fam)
        except Exception as exc:  # the op's outcome; graded below
            out = exc
        except OpTimeout:
            out = None
        finally:
            self.budget.disarm()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        if out is None:
            return dt, f"{slot}: stopped after {dt:.1f} s, the time budget was spent"
        if isinstance(out, Exception):
            # a structured verdict is correct only inside a tolerance band
            if isinstance(out, self.ops.STRUCTURED) and fam.get("expect") == "band":
                return dt, None
            return dt, f"{slot}: {type(out).__name__}: {out}"
        bad = self.check(fam, out)
        if bad and slot == "vpoly" and bad.startswith("grid hull") and self.name != "edge":
            # Known defect at the commit that introduced this benchmark:
            # VPolytope.contains_batch at tol 0 leaves interior cells
            # uncovered, and the bounded component found is a stray one far
            # from the hollow.  It passes only as far as it was off then.
            cells = out["hull_vs_simplex"] / out["cert"].resolution
            if cells > VPOLY_GRID_CELLS:
                return dt, f"{slot}: {bad}, {cells:.0f} cells, worse than the known defect"
            self.known["vpoly-grid"] = self.known.get("vpoly-grid", 0) + 1
            return dt, None
        return dt, (f"{slot}: {bad}" if bad else None)


# ---------------------------------------------------------------- cli ops

NUMERIC_RTOL = 1e-6


def _close(a, b, path=""):
    """Structural comparison with a relative tolerance on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return f"{path}: keys {sorted(set(a) ^ set(b))} differ"
        for k in a:
            bad = _close(a[k], b[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            bad = _close(x, y, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return None if a == b else f"{path}: {a!r} != {b!r}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if abs(a - b) <= NUMERIC_RTOL * max(1.0, abs(a), abs(b)):
            return None
        return f"{path}: {a!r} != {b!r}"
    return None if a == b else f"{path}: {a!r} != {b!r}"


class CliWorkload:
    """Fresh ``python -m hollowkit`` processes, one at a time."""

    def __init__(self, root, seed, out_dir, budget):
        self.root = root
        self.budget = budget
        self.out_dir = out_dir
        self.expected_dir = os.path.join(HERE, "expected")
        rng = np.random.default_rng(seed)
        self.gen = {}
        os.makedirs(out_dir, exist_ok=True)
        for fname, (text, fam) in workloads.cli_scenes(rng).items():
            path = os.path.join(out_dir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.gen[fname] = (path, fam)
        self.bytes_changed = 0
        self.known = {}

    def cycle(self):
        return [(name, (argv, code, kind)) for name, argv, code, kind in workloads.CLI_CYCLE]

    def argv(self, argv, outdir):
        command, scene = argv
        if scene.startswith("gen:"):
            scene = self.gen[scene[4:]][0]
        else:
            scene = workloads.data_path(self.root, scene)
        return [command, scene, "--out", outdir]

    def execute(self, name, spec, tracer_out=None):
        argv, want_code, kind = spec
        outdir = os.path.join(self.out_dir, name)
        result = os.path.join(outdir, "result.json")
        if os.path.exists(result):
            os.remove(result)
        if tracer_out is None:
            cmd = [sys.executable, "-m", "hollowkit"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), tracer_out]
        cmd += self.argv(argv, outdir)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(self.budget.left(), 1e-3))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            dt = time.perf_counter() - t0
            return dt, f"{name}: stopped after {dt:.1f} s, the time budget was spent"
        dt = time.perf_counter() - t0
        if proc.returncode != want_code:
            return dt, f"{name}: exit {proc.returncode}, expected {want_code}: {proc.stderr.strip()[-200:]}"
        if want_code == 1:
            return dt, None
        with open(result, "rb") as fh:
            raw = fh.read()
        got = json.loads(raw)
        if kind == "data":
            with open(os.path.join(self.expected_dir, f"{name}.json"), "rb") as fh:
                ref = fh.read()
            if raw != ref:
                self.bytes_changed += 1
            bad = _close(got, json.loads(ref))
        else:
            bad = self.check_generated(argv, got)
        return dt, (f"{name}: {bad}" if bad else None)

    def check_generated(self, argv, got):
        """Closed-form checks for a generated critical scene."""
        fam = self.gen[argv[1][4:]][1]
        tol = 10.0 * fam["tol"]
        if fam["expect"] == "full-intersection-nonempty":
            failure = got.get("failure") or {}
            if got.get("critical") is not False or failure.get("reason") != fam["expect"]:
                return f"verdict {failure.get('reason')}, expected {fam['expect']}"
            w = np.asarray(failure["witness"], dtype=float)
            if max(workloads.outside(b, w) for b in fam["bodies"]) > tol:
                return "common-point witness misses a body"
            return None
        if got.get("critical") is not True:
            return f"verdict {got.get('critical')}, expected critical"
        W = np.asarray(got["witnesses"], dtype=float)
        for j in range(W.shape[0]):
            for i, body in enumerate(fam["bodies"]):
                if i != j and workloads.outside(body, W[j]) > tol:
                    return f"witness {j} misses body {i}"
        cert = got["certificate"]
        n = np.asarray(cert["normal"], dtype=float)
        j = cert["separated_index"]
        if workloads.support_value(fam["bodies"][j], n) > cert["offset"] - 0.5 * cert["margin"]:
            return f"separated body {j} reaches the plane"
        if argv[0] == "certify":
            grid = got["grid_certificate"]
            if not grid["bounded"] or grid["cell_count"] < 1:
                return "no bounded grid component"
            if len(got["hollow_simplex"]["vertices"]) != fam["d"] + 1:
                return "hollow simplex has the wrong vertex count"
            if got["hull_vs_simplex"] > 4 * grid["resolution"] * np.sqrt(fam["d"]):
                return f"grid hull is {got['hull_vs_simplex']:.3e} from the simplex"
        return None


# --------------------------------------------------------------- the loop

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, required=True)
    args = ap.parse_args()

    budget = Budget(args.budget)
    if args.workload == "cli":
        work = CliWorkload(args.root, args.seed,
                           os.path.join(args.out, f"cli-{args.seed}-{args.mode}"), budget)
    else:
        import_library(args.root)
        work = LibraryWorkload(args.workload, args.seed, budget)
    first = work.cycle()
    print("READY", flush=True)
    if args.mode == "setup":
        return

    ops = []
    report = {"ops": ops}
    if args.mode == "run":
        # closes the set-up sample run.py opened with a probe before the start
        report["ready_probe_s"] = speed.probe()
        if args.workload in ("families", "convex-union"):
            work.execute(*first[0])  # warm-up: first-call costs stay out of the timing
        start = time.perf_counter()
        cycle, cycles = first, 0
        while True:
            skipped = len(run_ops(work, cycle, ops, probe=True))
            cycles += 1
            if skipped or args.workload == "edge" or (
                    time.perf_counter() - start >= args.seconds
                    and len(ops) >= workloads.min_ops(args.workload)):
                break
            cycle = work.cycle()
        report["cycles"] = cycles
        report["ops_per_cycle"] = len(first)
        report["skipped"] = skipped
    else:
        report.update(traced_cycle(args, work, first, ops))
    report["known_defects"] = work.known
    if args.workload == "cli":
        report["peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
        report["result_bytes_changed"] = work.bytes_changed
    else:
        report["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    print(json.dumps(report), flush=True)


def run_ops(work, cycle, ops, before=None, after=None, probe=False, **kw):
    """Run a cycle's ops in order; returns the slots the budget left unstarted.

    With ``probe`` each op is bracketed by speed probes and its record
    gains the factor that scales its time to the reference speed.
    """
    last = speed.probe() if probe else None
    for k, (slot, spec) in enumerate(cycle):
        if work.budget.left() <= 0:
            return [s for s, _ in cycle[k:]]
        if before is not None:
            before(k)
        dt, bad = work.execute(slot, spec, **kw)
        op = [slot, dt, bad]
        if probe:
            now = speed.probe()
            op.append(speed.scale(last, now))
            last = now
        ops.append(op)
        if after is not None:
            after(k)
    return []


def traced_cycle(args, work, cycle, ops):
    """The cycle once untraced, then again traced; returns trace aggregates."""
    import tracing as tr

    work.execute(*cycle[0])  # warm-up: first-call costs stay out of both passes
    t0 = time.perf_counter()
    unrun = run_ops(work, cycle, ops)
    untraced = time.perf_counter() - t0
    merged = {}
    spans = []
    if args.workload == "cli":
        work.bytes_changed = 0
        part = os.path.join(work.out_dir, "trace-part.json")

        def collect(k):
            if os.path.exists(part):
                with open(part, encoding="utf-8") as fh:
                    dump = json.load(fh)
                os.remove(part)
                tr.merge(merged, dump)
                spans.extend([k] + s[1:] for s in dump["spans"])

        t0 = time.perf_counter()
        unrun += run_ops(work, cycle, ops, after=collect, tracer_out=part)
        traced = time.perf_counter() - t0
        merged.setdefault("counts", {})["cli.result_bytes_changed"] = work.bytes_changed
    else:
        tracer = tr.Tracer()
        tr.install(tracer)

        def trace_id(k):
            tracer.trace_id = k

        t0 = time.perf_counter()
        unrun += run_ops(work, cycle, ops, before=trace_id, tracer=tracer)
        traced = time.perf_counter() - t0
        dump = tracer.dump()
        tr.merge(merged, dump)
        spans = dump["spans"]
    # the counts of a cut-short pass mean nothing, so its unstarted ops fail
    ops.extend([slot, 0.0, f"{slot}: not run, the time budget was spent"] for slot in unrun)
    metrics = tr.layer_metrics(merged.get("calls", {}), merged.get("total_s", {}),
                               merged.get("self_s", {}), merged.get("counts", {}))
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": (traced - untraced) / untraced, "unit": "ratio"}
    path = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "aggregates": merged,
                   "span_fields": ["trace", "id", "parent", "name", "start", "end", "self_s"]}, fh)
    return {"layer_metrics": metrics, "trace_file": os.path.relpath(path, args.root),
            "skipped": len(unrun)}


if __name__ == "__main__":
    main()
