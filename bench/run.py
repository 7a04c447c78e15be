"""hollowkit benchmark: one command for every workload and metric.

    python3 bench/run.py --workload families --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json):

  families      certification pipeline on seeded critical and non-critical
                families (check_critical, hollow_simplex, certify_hollow,
                hull_vs_simplex)
  convex-union  klee_solve, kkm_verify and intersect_witness on families
                whose union is convex, with the witnesses supplied
  cli           one fresh ``python -m hollowkit`` process per op

Extra workloads, not run by default because ops fail or take tens of
seconds at the commit that introduced the benchmark:

  edge          tangent, far-translated and rescaled families; each runs
                once and every failure is reported with its exception

With ``--trace 0`` the last stdout line holds the end-to-end metrics of an
untraced run; with ``--trace 1`` it holds the per-layer metrics of one
cycle run traced (see tracing.py).  ``--check-counts`` runs the traced
cycle twice and fails unless every count repeats exactly.

Set-up is timed from process start to the worker's READY line, several
times, and the median is reported.  The environment is pinned: one CPU
for this process and all it starts, one BLAS and OpenMP thread, no
HOLLOWKIT_THREADS, one worker process at a time.

Every end-to-end time is scaled to one reference machine speed by the
probes of speed.py, taken around each op and each set-up; the info line
gives the same metrics unscaled (``unscaled``) and the probe times.
Per-layer times (``--trace 1``) are not scaled.

A run ends within RUN_LIMIT seconds of its start.  Each worker gets what
is left of that as its budget; when it is spent the worker stops the op
in progress, counts it as failed, and reports the ops it has, so a much
slower program still prints its numbers (see ``skipped`` in the info line).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

START = time.perf_counter()

WORKLOADS = ("families", "convex-union", "cli", "edge")
SETUP_SAMPLES = 3
RUN_LIMIT = 170.0
# time a worker keeps after its budget to write its report
REPORT_MARGIN = 5.0


def pinned_env(root):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("HOLLOWKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, mode, root, out, env, deadline):
    """Start a worker; returns (seconds to READY, parsed report or None)."""
    t0 = time.perf_counter()
    budget = deadline - t0 - REPORT_MARGIN
    if budget <= 0:
        raise SystemExit(f"no time left for the {mode} worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--budget", f"{budget:.3f}",
           "--mode", mode, "--root", root, "--out", out]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if first.strip() != "READY":
            proc.kill()
            proc.wait()
            raise SystemExit(f"worker failed during set-up ({mode})")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker ran past the {RUN_LIMIT:.0f} s limit ({mode})")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode} ({mode})")
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return ready, (json.loads(lines[-1]) if lines else None)


def quantile(sorted_vals, q):
    """Nearest-rank quantile of an ascending list, 0 < q <= 1."""
    k = math.ceil(q * len(sorted_vals) - 1e-9)
    return sorted_vals[min(max(k, 1), len(sorted_vals)) - 1]


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def by_kind(ops, share):
    """Each kind's op count and median time, and the kinds at the p50 and tail ranks."""
    kinds = {}
    for slot, dt in ops:
        kinds.setdefault(slot, []).append(dt)
    ranked = sorted(ops, key=lambda op: op[1])
    n = len(ranked)
    mid = {ranked[(n - 1) // 2][0], ranked[n // 2][0]}
    tail = ranked[min(max(math.ceil(share * n - 1e-9), 1), n) - 1][0]
    return {"op_s_by_kind": {k: {"ops": len(v), "p50": statistics.median(v)}
                             for k, v in sorted(kinds.items())},
            "p50_kinds": sorted(mid), "tail_kind": tail}


def time_metrics(setups, times, share):
    times = sorted(times)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "op_s.tail": {"value": quantile(times, share), "unit": "s"},
    }


def end_to_end(workload, setups, report):
    """Metrics from scaled times; the same unscaled go to the info line.

    ``setups`` holds (seconds, scale factor) pairs; each op record ends
    with its scale factor.
    """
    ops = report["ops"]
    share = workloads.TAIL_SHARE[workload]
    metrics = time_metrics([t * f for t, f in setups], [op[1] * op[3] for op in ops], share)
    metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
    unscaled = time_metrics([t for t, _ in setups], [op[1] for op in ops], share)
    factors = [op[3] for op in ops]
    info = {"tail_percentile": round(100.0 * share, 2), "ops": len(ops),
            "cycles": report["cycles"], "ops_per_cycle": report["ops_per_cycle"],
            "fail_share": sum(1 for op in ops if op[2]) / len(ops),
            "setup_samples_s": [t * f for t, f in setups],
            "skipped": report.get("skipped", 0),
            "known_defects": report.get("known_defects", {}),
            "unscaled": {k: v["value"] for k, v in unscaled.items()},
            "probe_s": {"reference": speed.REFERENCE_S,
                        "median": speed.REFERENCE_S / statistics.median(factors),
                        "fastest": speed.REFERENCE_S / max(factors),
                        "slowest": speed.REFERENCE_S / min(factors)}}
    info.update(by_kind([(op[0], op[1] * op[3]) for op in ops], share))
    if "result_bytes_changed" in report:
        info["result_bytes_changed"] = report["result_bytes_changed"]
    return metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-counts", action="store_true",
                    help="run the traced cycle twice and compare every count")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hollowkit", "__init__.py")):
        sys.stderr.write("no hollowkit sources under ./src: run from a checkout root\n")
        return 2
    speed.pin()
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    env = pinned_env(root)
    deadline = START + RUN_LIMIT

    if args.check_counts:
        return check_counts(args, root, out, env)

    if args.trace:
        _, report = spawn(args, "traced", root, out, env, deadline)
        ops = report["ops"]
        failed = [op for op in ops if op[2]]
        for op in failed:
            sys.stderr.write(f"failed: {op[2]}\n")
        print(json.dumps({"environment": environment(),
                          "trace_file": report["trace_file"],
                          "skipped": report["skipped"],
                          "known_defects": report.get("known_defects", {})}))
        print(json.dumps({"correct": not failed, "attempted": len(ops),
                          "failed": len(failed),
                          "metrics": report["layer_metrics"]}))
        return 0

    setups = []
    before = speed.probe()
    for _ in range(SETUP_SAMPLES - 1):
        ready, _ = spawn(args, "setup", root, out, env, deadline)
        after = speed.probe()
        setups.append((ready, speed.scale(before, after)))
        before = after
    ready, report = spawn(args, "run", root, out, env, deadline)
    setups.append((ready, speed.scale(before, report["ready_probe_s"])))
    ops = report["ops"]
    if not ops:
        raise SystemExit("no op finished within the time limit")
    failed = [op for op in ops if op[2]]
    for op in failed:
        sys.stderr.write(f"failed: {op[2]}\n")
    metrics, info = end_to_end(args.workload, setups, report)
    info["environment"] = environment()
    if args.workload == "edge":
        info["op_s"] = {op[0]: op[1] * op[3] for op in ops}
        info["failures"] = {op[0]: op[2] for op in failed}
    with open(os.path.join(out, f"result-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "info": info, "ops": ops}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def check_counts(args, root, out, env):
    """Two traced runs at one seed must give identical counts."""
    runs = []
    for _ in range(2):
        # a tool run by hand: each traced run gets the limit of its own
        _, report = spawn(args, "traced", root, out, env, time.perf_counter() + RUN_LIMIT)
        runs.append({k: v["value"] for k, v in report["layer_metrics"].items()
                     if v["unit"] == "count"})
    diff = {k: (runs[0][k], runs[1].get(k)) for k in runs[0] if runs[0][k] != runs[1].get(k)}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counts": len(runs[0]), "identical": not diff, "differences": diff}))
    return 0 if not diff else 1


if __name__ == "__main__":
    sys.exit(main())
