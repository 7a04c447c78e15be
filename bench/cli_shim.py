"""``python -m hollowkit`` with the benchmark's tracer installed.

Usage: python cli_shim.py TRACE_OUT <hollowkit arguments...>

Used only by traced cli runs.  It times the import of hollowkit, installs
the tracer, runs the command line driver exactly as ``__main__`` would,
and writes the trace aggregates to TRACE_OUT before exiting with the
driver's code.  The driver's own ``[time]`` line is its compute time.
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import hollowkit.cli  # noqa: E402

import_s = time.perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing as tr  # noqa: E402


def main():
    out = sys.argv[1]
    tracer = tr.Tracer()
    tr.install(tracer)
    tracer.enabled = True
    t1 = time.perf_counter()
    try:
        code = hollowkit.cli.main(sys.argv[2:])
    finally:
        compute = time.perf_counter() - t1
        tracer.enabled = False
        dump = tracer.dump()
        dump["counts"]["cli.import_us"] = int(round(import_s * 1e6))
        dump["counts"]["cli.compute_us"] = int(round(compute * 1e6))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
