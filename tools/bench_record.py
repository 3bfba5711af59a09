"""Fold interleaved perfbench runs of a parent and a change into one BENCH file.

Each input file is the standard output of one

    python3 perfbench/run.py --workload W --seed S --seconds 33 --trace 0

run.  Its last line holds the end-to-end metrics and the op counts; the line
before it holds the full result with the workload, the seed and the
environment block.  Runs of the two sides with the same workload and seed
form a pair.  For every workload the output records the seeds, the pair
count, the ops attempted and failed on each side and, for each end-to-end
metric that ``BENCHMARK.json`` lists, each side's median and quartiles, the
number of pairs in which the change read better, parent → change, and the
median and quartiles of the per-pair ratio change / parent.  A pair shares
its seed and so its draw, so the ratio cancels the draw's cost, which the
spread across seeds mixes with noise.  So each metric's ``gain_rule`` reads
the pairs alone: it is met when the change reads better in at least nine
tenths of the pairs and the pair ratio's upper quartile is below 1 (its lower
quartile above 1 for a metric where higher is better).  Each workload also
lists every run's ``pass_seconds``, and ``first_pass`` and ``later_passes``
compare the first pass of a run, and the median of its later passes, the
same way, so that a gain that only warm passes see shows.

Run from the repository root, for example:

    python3 tools/bench_record.py --out BENCH_9.json \\
        --parent-rev dcb2b01 --change-rev HEAD \\
        --parent runs/parent-*.out --change runs/change-*.out
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

SIDES = ("parent", "change")


def read_run(path: str) -> dict:
    """The full result of one run, with its last-line summary under ``summary``."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise SystemExit(f"error: {path} does not end in perfbench's two JSON lines")
    full, summary = json.loads(lines[-2]), json.loads(lines[-1])
    if full.get("trace"):
        raise SystemExit(f"error: {path} is a traced run; fold only --trace 0 runs")
    full["summary"] = summary
    return full


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain_rule(better: int, pairs: int, ratio: dict | None, lower: bool) -> bool:
    """Better in at least nine tenths of the pairs, and the pair ratio's quartile
    on the far side of 1 below 1 (above 1 when higher is better)."""
    if ratio is None:
        return False
    return 10 * better >= 9 * pairs and (ratio["q3"] < 1 if lower else ratio["q1"] > 1)


def pass_pairs(both: list[tuple[dict, dict]], pick) -> dict:
    """Pairs in which the change's ``pick`` of its pass seconds is lower, and
    the spread of the ratio change / parent, over the pairs where both sides
    have one (``pick`` returns None for a run without it)."""
    values = [(pick(p["pass_seconds"]), pick(c["pass_seconds"])) for p, c in both]
    values = [(p, c) for p, c in values if p and c is not None]
    ratios = [c / p for p, c in values]
    return {
        "pairs": len(values),
        "change_better_pairs": sum(c < p for p, c in values),
        "pair_ratio": spread(ratios) if ratios else None,
    }


def fold(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per-workload pair statistics from each side's runs."""
    keyed = {side: {(r["workload"], r["seed"]): r for r in runs[side]} for side in SIDES}
    pairs = sorted(keyed["parent"].keys() & keyed["change"].keys())
    unpaired = sorted(keyed["parent"].keys() ^ keyed["change"].keys())
    if unpaired:
        raise SystemExit(f"error: runs without a partner (workload, seed): {unpaired}")
    workloads = {}
    for name in sorted({w for w, _ in pairs}):
        both = [(keyed["parent"][p], keyed["change"][p]) for p in pairs if p[0] == name]
        entry = {
            "seeds": [parent["seed"] for parent, _ in both],
            "pairs": len(both),
            "attempted": {s: sum(pair[i]["attempted"] for pair in both) for i, s in enumerate(SIDES)},
            "failed": {s: sum(pair[i]["failed"] for pair in both) for i, s in enumerate(SIDES)},
            "pass_seconds": {s: [pair[i]["pass_seconds"] for pair in both] for i, s in enumerate(SIDES)},
            "first_pass": pass_pairs(both, lambda sec: sec[0]),
            "later_passes": pass_pairs(both, lambda sec: statistics.median(sec[1:]) if len(sec) > 1 else None),
            "metrics": {},
        }
        for metric in metrics:
            key, lower = metric["name"], metric["better"] == "lower"
            values = [[pair[i]["summary"]["metrics"][key]["value"] for pair in both] for i in range(2)]
            better = sum((c < p) if lower else (c > p) for p, c in zip(*values))
            ties = sum(p == c for p, c in zip(*values))
            ratios = [c / p for p, c in zip(*values) if p != 0]
            ratio = spread(ratios) if ratios else None
            entry["metrics"][key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(values[0]),
                "change": spread(values[1]),
                "change_better_pairs": better,
                "ties": ties,
                "pair_ratio": ratio,
                "gain_rule": gain_rule(better, len(both), ratio, lower),
            }
        workloads[name] = entry
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="run outputs of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run outputs of the change")
    parser.add_argument("--parent-rev", default=None, help="the parent's commit")
    parser.add_argument("--change-rev", default=None, help="the change's commit")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = {"parent": [read_run(p) for p in args.parent], "change": [read_run(p) for p in args.change]}
    first = runs["parent"][0]
    environment = {k: v for k, v in first["environment"].items() if k not in ("seed", "git_commit")}
    commits = {
        side: rev if rev is not None else runs[side][0]["environment"].get("git_commit")
        for side, rev in zip(SIDES, (args.parent_rev, args.change_rev))
    }
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 33 --trace 0",
        "order": "interleaved pairs, parent → change; which side ran first alternates",
        "commits": commits,
        "environment": environment,
        "workloads": fold(runs, metrics),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
