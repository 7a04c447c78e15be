"""Re-measure the three hand-taken numbers of the ROADMAP baseline.

    python3 bench/roadmap.py        (from the root of a checkout)

Prints one JSON object: the median import time of hollowkit over three
fresh interpreters, the ``[time]`` compute line of
``hollowkit check tests/data/disks.json``, and the wall time of
``check_critical`` on four unit balls centered on a regular tetrahedron of
edge 1.7 (the test suite's ``balls_family``).  The environment is pinned as
in run.py.  Takes about half a minute at the commit that introduced it.
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import environment, pinned_env  # noqa: E402


def main():
    root = os.getcwd()
    env = pinned_env(root)
    imports = []
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import hollowkit; "
             "print(time.perf_counter() - t)"],
            cwd=root, env=env, capture_output=True, text=True, check=True)
        imports.append(float(out.stdout))
    proc = subprocess.run(
        [sys.executable, "-m", "hollowkit", "check", "tests/data/disks.json",
         "--out", os.path.join(root, ".bench_out", "roadmap")],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    compute = float(re.search(r"\[time\] ([0-9.]+)s", proc.stderr).group(1))
    four_balls = subprocess.run(
        [sys.executable, "-c",
         "import time, numpy as np\n"
         "from hollowkit import Ball, check_critical\n"
         "raw = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)\n"
         "c = raw * (1.7 / (2 * np.sqrt(2)))\n"
         "t = time.perf_counter()\n"
         "fam = check_critical([Ball(x, 1.0) for x in c])\n"
         "print(time.perf_counter() - t, type(fam).__name__)"],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    secs, verdict = four_balls.stdout.split()
    print(json.dumps({
        "import_s": statistics.median(imports),
        "check_disks_compute_s": compute,
        "four_ball_check_s": float(secs),
        "four_ball_verdict": verdict,
        "environment": environment(),
    }))


if __name__ == "__main__":
    main()
