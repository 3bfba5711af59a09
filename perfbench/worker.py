"""One benchmark worker: set up one workload, run timed passes, check every op.

Started by ``run.py`` as a fresh process per workload; prints one JSON line.
With ``--setup-only`` it stops once the inputs are ready and reports only the
set-up time.  With ``--trace 1`` it runs one plain pass and one traced pass,
whatever ``--seconds`` says, and writes the spans of the traced pass out.
BLAS is pinned to one thread before numpy loads, as ``cli.py`` does, so that
timings do not depend on how many cores happen to be free.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback


def run_pass(workload, ops) -> dict:
    """Time each op of one pass, then check each result (outside the timing)."""
    results = []
    start = time.perf_counter()
    for label, op in ops:
        t0 = time.perf_counter()
        try:
            value, error = op(), None
        except Exception:  # an op that raises is a failed op, not a crash
            value, error = None, traceback.format_exc(limit=3)
        results.append((label, time.perf_counter() - t0, value, error))
    wall = time.perf_counter() - start
    ops_out = []
    for label, seconds, value, error in results:
        if error is None:
            try:
                failures = workload.check(label, value)
            except Exception:
                failures = ["gate raised: " + traceback.format_exc(limit=3)]
        else:
            failures = ["raised: " + error]
        ops_out.append({"label": label, "seconds": seconds, "failures": failures})
    return {"seconds": wall, "ops": ops_out}


def pass_count(workload, seconds: float) -> int:
    """How many whole passes fit in ``seconds`` at the workload's nominal pass time.

    The count depends only on ``--seconds``, not on how fast this commit
    runs, so every commit reports medians and tail percentiles over the
    same number of samples.
    """
    return max(workload.min_passes, int(seconds // workload.nominal_pass_s))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--outdir", required=True, help="directory for scratch files and spans")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import kacgalois
    import numpy as np
    import workloads

    workdir = tempfile.mkdtemp(prefix="worker-", dir=args.outdir)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        ops = workload.ops()
        setup_s = time.time() - args.spawned_at
        out = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        out["environment"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "kacgalois": kacgalois.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        }
        if not args.trace:
            out["passes"] = [run_pass(workload, ops) for _ in range(pass_count(workload, args.seconds))]
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            import tracer as tr
            from layers import layer_metrics

            plain = run_pass(workload, ops)
            t = tr.Tracer()
            uninstall = tr.install(t, kacgalois)
            try:
                traced = run_pass(workload, ops)
            finally:
                uninstall()
            summary = t.summary()
            out["passes"] = [plain, traced]
            out["per_layer"] = layer_metrics(summary, traced["seconds"] / plain["seconds"] - 1.0)
            for key in ("self_s", "total_s"):
                top = sorted(summary[key].items(), key=lambda kv: -kv[1])[:8]
                out[f"top_{key}"] = [[name, seconds] for name, seconds in top]
            spans_path = os.path.join(args.outdir, f"{args.workload}-seed{args.seed}.spans.json")
            with open(spans_path, "w") as fh:
                json.dump(t.dump(), fh)
            out["spans_file"] = os.path.relpath(spans_path)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
