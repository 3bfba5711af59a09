"""Benchmark of kacgalois: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 33 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (set-up time, pass time,
per-op latency, peak memory); with ``--trace 1`` the per-layer metrics of one
traced pass.  Every op is checked; failures are counted, never skipped.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full result with the environment
block, which is also written under ``.perfbench-out/``.

The work runs in fresh worker processes (``worker.py``), which pin BLAS to
one thread before numpy loads.  ``setup_s`` is the median over
``SETUP_REPEATS`` fresh workers of the time from process start to inputs
ready, import included.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from layers import BENCHMARK, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_REPEATS = 5  # the measuring worker plus four set-up-only workers
WORKER_TIMEOUT_S = 170


def spawn_worker(args, extra: list[str]) -> dict:
    """Run one fresh worker to completion and return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", OUT_DIR, "--spawned-at", repr(time.time()),
    ] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no percentile qualifies, and the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def read_stripped(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    """Cores, CPU model and cache sizes (read-only), and the checkout's commit."""
    cpu_model = None
    for line in (read_stripped("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_stripped(os.path.join(index, "level"))
        kind = read_stripped(os.path.join(index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_stripped(os.path.join(index, "size"))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout, or git is missing
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit,
    }


def predictions(workload: str, m: dict, top_self: list) -> dict:
    """The README's predictions for this workload, evaluated on the traced pass."""
    layer_total = sum(v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 1)
    if workload == "dual_ladder":
        return {
            "pentagon_residual_has_largest_self_time": top_self[0][0] == "duality.pentagon_residual",
            "largest_self_time": top_self[0][0],
        }
    if workload == "jones_family":
        return {
            "duality_idle": all(v == 0 for k, v in m.items() if k.startswith("duality.")),
            "jones_plus_algebra_self_share": (m["jones.self_s"] + m["algebra.self_s"]) / layer_total,
            "linalg_self_share": m["linalg.self_s"] / layer_total,
        }
    if workload == "selftest":
        return {"dual_kac_rebuilt": m["duality.dual_kac.unique_ratio"] < 1}
    return {}


def summarise(args, runs: dict) -> dict:
    """The result document: metrics, op counts, failures and environment."""
    main = runs["main"]
    passes = main["passes"]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failures"]]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "failures": [{"label": op["label"], "failures": op["failures"]} for op in failed][:20],
        "passes": len(passes),
        "environment": dict(main["environment"], **machine(), seed=args.seed),
    }
    if args.trace:
        doc["metrics"] = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in main["per_layer"].items()
        }
        doc["spans_file"] = main["spans_file"]
        doc["top_self_s"] = main["top_self_s"]
        doc["top_inclusive_s"] = main["top_total_s"]
        doc["predictions"] = predictions(args.workload, main["per_layer"], main["top_self_s"])
        return doc
    latencies = [op["seconds"] for op in ops]
    tail, percentile = tail_latency(latencies)
    op_seconds = {}
    for op in ops:
        op_seconds.setdefault(op["label"], []).append(op["seconds"])
    # The host flips between a fast and a slow speed every few seconds, so
    # one sample of an op reads either; the median of all samples jumps
    # between the two.  Each op's mean over the passes moves smoothly.
    op_means = [statistics.fmean(v) for v in op_seconds.values()]
    setups = [main["setup_s"]] + [r["setup_s"] for r in runs["setup"]]
    doc["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(p["seconds"] for p in passes), "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_means), "unit": "s"},
        "op_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    doc["op_samples"] = len(latencies)
    doc["op_tail_percentile"] = percentile
    doc["setup_samples_s"] = setups
    doc["pass_seconds"] = [p["seconds"] for p in passes]
    doc["op_seconds"] = op_seconds
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark one kacgalois workload.")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "kacgalois", "__init__.py")):
        print("error: run from the repository root; src/kacgalois is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    runs = {"setup": []}
    if not args.trace:
        runs["setup"] = [spawn_worker(args, ["--setup-only"]) for _ in range(SETUP_REPEATS - 1)]
    runs["main"] = spawn_worker(args, [])
    doc = summarise(args, runs)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps(doc, sort_keys=True))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
