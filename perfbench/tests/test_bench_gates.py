"""Each workload's gate passes a real op and trips on a wrong expected answer.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import workloads as wl  # noqa: E402


def wrong(path, value):
    """A copy of the expected answers with one entry replaced."""
    expected = copy.deepcopy(wl.EXPECTED)
    node = expected
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return expected


def run_op(workload, label):
    op = dict(workload.ops())[label]
    return op()


def test_dual_ladder_gate(tmp_path):
    w = wl.DualLadder()
    w.setup(3, str(tmp_path))
    row = run_op(w, "kp8")
    assert w.check("kp8", row) == []
    assert w.check("kp8", row, wrong(["corep_dims", "kp8"], [1, 1, 2])) != []
    # The known answer also catches a wrong dimension count from the program.
    assert w.check("kp8", dict(row, sum_of_squares=9)) != []
    assert w.check("kp8", dict(row, orthogonality=2e-10)) != []


def test_jones_family_gate(tmp_path):
    w = wl.JonesFamily()
    w.QUOTA = {"4/2": 1}
    w.setup(3, str(tmp_path))
    (label, op), = w.ops()
    row = op()
    assert w.check(label, row) == []
    assert w.check(label.replace(":4/2", ":9/5"), row) != []
    assert w.check(label, dict(row, push_down=1e-9)) != []
    assert w.check(label, dict(row, criteria_agree=False)) != []


def test_selftest_gate(tmp_path):
    w = wl.Selftest()
    w.setup(3, str(tmp_path))
    (label, op), = w.ops()
    rc = op()
    assert w.check(label, rc) == []
    assert w.check(label, rc) == []  # same bytes as the first pass
    assert w.check(label, rc, wrong(["corep_dims", "kp8"], [1, 1, 2])) != []
    assert w.check(label, rc, wrong(["coideal_dims", "q8_group"], [1, 2, 4, 8])) != []
    w.draw_shapes = ["16/10", "16/10"]
    assert w.check(label, rc) != []
    with open(w.output, "ab") as fh:
        fh.write(b" ")
    assert any("bytes differ" in f for f in w.check(label, rc))
