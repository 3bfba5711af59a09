"""tools/bench_record.py: folding perfbench parent/change runs into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

METRICS = ("setup_s", "run_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def write_run(path, workload, seed, run_s, failed=0, passes=None):
    """Two lines shaped like ``perfbench/run.py --trace 0`` output."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
    metrics["run_s"]["value"] = run_s
    full = {
        "workload": workload, "seed": seed, "trace": 0, "attempted": 4, "failed": failed,
        "environment": {"python": "3.11", "numpy": "2.4", "seed": seed, "git_commit": None},
        "metrics": metrics, "pass_seconds": passes or [run_s],
    }
    last = {"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": metrics}
    path.write_text("progress\n" + json.dumps(full) + "\n" + json.dumps(last) + "\n")
    return str(path)


def test_pairs_fold_into_medians_quartiles_and_wins(tmp_path):
    parent = [write_run(tmp_path / f"p{s}", "jones_family", s, t) for s, t in zip(range(5), (4, 5, 6, 7, 8))]
    change = [write_run(tmp_path / f"c{s}", "jones_family", s, t) for s, t in zip(range(5), (3, 4, 5, 7, 9))]
    change.append(write_run(tmp_path / "cx", "selftest", 9, 2.0, failed=1))
    parent.append(write_run(tmp_path / "px", "selftest", 9, 2.5))
    out = tmp_path / "BENCH.json"
    bench_record.main([
        "--parent", *parent, "--change", *change, "--parent-rev", "abc",
        "--benchmark", str(ROOT / "BENCHMARK.json"), "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    assert doc["commits"] == {"parent": "abc", "change": None}
    assert "seed" not in doc["environment"]
    jf = doc["workloads"]["jones_family"]
    assert jf["pairs"] == 5 and jf["seeds"] == [0, 1, 2, 3, 4]
    run = jf["metrics"]["run_s"]
    assert run["parent"] == {"median": 6.0, "q1": 5.0, "q3": 7.0}
    assert run["change"] == {"median": 5.0, "q1": 4.0, "q3": 7.0}
    assert (run["change_better_pairs"], run["ties"]) == (3, 1)
    # Per pair: 3/4, 4/5, 5/6, 7/7, 9/8; their median and inclusive quartiles.
    assert run["pair_ratio"] == pytest.approx({"median": 5 / 6, "q1": 0.8, "q3": 1.0})
    assert run["gain_rule"] is False
    assert jf["metrics"]["peak_rss_mb"]["ties"] == 5
    assert jf["metrics"]["peak_rss_mb"]["pair_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert doc["workloads"]["selftest"]["failed"] == {"parent": 0, "change": 1}


def test_pair_ratios_skip_a_zero_parent(tmp_path):
    parent = [write_run(tmp_path / f"p{s}", "selftest", s, t) for s, t in zip(range(3), (0.0, 2.0, 4.0))]
    change = [write_run(tmp_path / f"c{s}", "selftest", s, t) for s, t in zip(range(3), (1.0, 1.0, 3.0))]
    out = tmp_path / "BENCH.json"
    bench_record.main([
        "--parent", *parent, "--change", *change,
        "--benchmark", str(ROOT / "BENCHMARK.json"), "--out", str(out),
    ])
    run = json.loads(out.read_text())["workloads"]["selftest"]["metrics"]["run_s"]
    assert run["pair_ratio"] == pytest.approx({"median": 0.625, "q1": 0.5625, "q3": 0.6875})
    assert run["parent"]["median"] == 2.0 and run["change_better_pairs"] == 2


def test_a_run_without_its_partner_is_refused(tmp_path):
    parent = [write_run(tmp_path / "p", "selftest", 1, 2.0)]
    change = [write_run(tmp_path / "c", "selftest", 2, 2.0)]
    with pytest.raises(SystemExit, match="without a partner"):
        bench_record.main([
            "--parent", *parent, "--change", *change,
            "--benchmark", str(ROOT / "BENCHMARK.json"), "--out", str(tmp_path / "o.json"),
        ])


def fold_pairs(tmp_path, parent_values, change_values, better="lower"):
    """``run_s`` of one BENCH file folded from the given pairs, under a one-metric benchmark."""
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [{"name": "run_s", "unit": "s", "better": better}]}))
    parent = [write_run(tmp_path / f"p{s}", "jones_family", s, t) for s, t in enumerate(parent_values)]
    change = [write_run(tmp_path / f"c{s}", "jones_family", s, t) for s, t in enumerate(change_values)]
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", *parent, "--change", *change, "--benchmark", str(bench), "--out", str(out)])
    return json.loads(out.read_text())["workloads"]["jones_family"]["metrics"]["run_s"]


def test_gain_rule_reads_pair_ratios_not_the_spread_across_seeds(tmp_path):
    # The parent's seeds spread from 1 to 10, wider than any gap, but every pair
    # but one reads 10 % faster: nine tenths of pairs and the ratio's q3 below 1.
    parent = [float(s) for s in range(1, 11)]
    faster = [0.9 * t for t in parent[:9]] + [parent[9] * 1.2]
    run = fold_pairs(tmp_path, parent, faster)
    assert run["change_better_pairs"] == 9 and run["pair_ratio"]["q3"] < 1
    assert run["gain_rule"] is True
    # Eight of ten pairs better is short of nine tenths, whatever the ratios.
    run = fold_pairs(tmp_path, parent, faster[:8] + [parent[8], parent[9] * 1.2])
    assert run["change_better_pairs"] == 8 and run["gain_rule"] is False


def test_gain_rule_turns_with_the_metric_direction(tmp_path):
    # Higher is better: ten pairs 10 % higher meet it (q1 above 1); the same
    # values for a lower-is-better metric are worse in every pair.
    parent = [1.0] * 10
    run = fold_pairs(tmp_path, parent, [1.1] * 10, better="higher")
    assert run["change_better_pairs"] == 10 and run["pair_ratio"]["q1"] > 1
    assert run["gain_rule"] is True
    run = fold_pairs(tmp_path, parent, [1.1] * 10)
    assert run["change_better_pairs"] == 0 and run["gain_rule"] is False


def test_first_and_later_passes_are_compared_apart(tmp_path):
    # The change gains only on warm passes: its first pass reads as the parent's.
    parent = [write_run(tmp_path / f"p{s}", "jones_family", s, 4.0, passes=[5.0, 4.0, 4.0]) for s in range(3)]
    change = [write_run(tmp_path / f"c{s}", "jones_family", s, 3.0, passes=[5.0, 3.0, 2.0]) for s in range(3)]
    change.append(write_run(tmp_path / "c9", "jones_family", 9, 3.0, passes=[3.0]))
    parent.append(write_run(tmp_path / "p9", "jones_family", 9, 4.0, passes=[4.0]))
    out = tmp_path / "BENCH.json"
    bench_record.main([
        "--parent", *parent, "--change", *change,
        "--benchmark", str(ROOT / "BENCHMARK.json"), "--out", str(out),
    ])
    jf = json.loads(out.read_text())["workloads"]["jones_family"]
    assert jf["pass_seconds"]["change"] == [[5.0, 3.0, 2.0]] * 3 + [[3.0]]
    assert jf["first_pass"]["pairs"] == 4 and jf["first_pass"]["change_better_pairs"] == 1
    assert jf["first_pass"]["pair_ratio"]["median"] == 1.0
    # One-pass runs have no later passes.
    assert jf["later_passes"]["pairs"] == 3 and jf["later_passes"]["change_better_pairs"] == 3
    assert jf["later_passes"]["pair_ratio"]["median"] == pytest.approx(2.5 / 4.0)
