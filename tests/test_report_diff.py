"""tools/report_diff.py: the comparison of two parsed CLI reports."""

import copy
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_diff)

DOC = {
    "passed": True,
    "report": {
        "dims": [1, 2, 3],
        "rows": [{"residual": 1.5e-15, "label": "a"}, {"residual": 0.25, "label": "b"}],
        "max": 0.25,
    },
}


def changed(path, value):
    """A deep copy of ``DOC`` with the value at ``path`` replaced."""
    doc = copy.deepcopy(DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_identical_documents_have_no_differences():
    assert report_diff.compare(DOC, changed(("passed",), True)) == []


def test_a_float_within_the_tolerance_is_not_reported():
    doc = changed(("report", "rows", 0, "residual"), 1.5e-15 + 0.9 * report_diff.FLOAT_TOL)
    assert report_diff.compare(DOC, doc) == []


def test_a_float_beyond_the_tolerance_is_reported_with_its_path():
    doc = changed(("report", "rows", 1, "residual"), 0.25 + 2 * report_diff.FLOAT_TOL)
    (diff,) = report_diff.compare(DOC, doc)
    assert diff.startswith("/report/rows[1]/residual: float 0.25 ->")


def test_non_float_and_type_changes_are_reported_exactly():
    assert report_diff.compare(DOC, changed(("passed",), False)) == ["/passed: True -> False"]
    assert report_diff.compare(DOC, changed(("report", "dims", 2), 4)) == ["/report/dims[2]: 3 -> 4"]
    assert report_diff.compare(DOC, changed(("report", "max"), 1)) == ["/report/max: 0.25 -> 1"]
    assert report_diff.compare(DOC, changed(("report", "rows", 0, "label"), "c")) == [
        "/report/rows[0]/label: 'a' -> 'c'"
    ]


def test_key_and_length_changes_are_reported():
    doc = changed(("report", "extra"), 0.0)
    del doc["report"]["max"]
    assert report_diff.compare(DOC, doc) == ["/report/max: key removed", "/report/extra: key added"]
    doc = changed(("report", "dims"), [1, 2])
    assert report_diff.compare(DOC, doc) == ["/report/dims: list of 3 -> 2 items"]


def test_nan_equals_nan_and_infinities_are_compared_exactly():
    nan, inf = float("nan"), float("inf")
    assert report_diff.compare({"x": nan}, {"x": nan}) == []
    assert report_diff.compare({"x": inf}, {"x": inf}) == []
    assert report_diff.compare({"x": inf}, {"x": 1.0}) == ["/x: float inf -> 1.0"]
    assert report_diff.compare({"x": nan}, {"x": 1.0}) == ["/x: float nan -> 1.0"]


def test_extra_kac_inputs_add_the_four_kac_commands_last(tmp_path):
    jobs = report_diff.outputs(ROOT, tmp_path)
    assert jobs[57:] == [
        (f"{cmd} {name}", [cmd, str(tmp_path / name)])
        for name in report_diff.GENERAL_BASIS
        for cmd in report_diff.KAC_COMMANDS
    ]
    assert jobs[53:56] == [
        (f"jones draw{seed}.json", ["jones", str(tmp_path / f"draw{seed}.json")])
        for seed in report_diff.JONES_DRAWS
    ]


def test_the_outputs_are_the_labels_in_a_fixed_order(tmp_path):
    fixtures = sorted(p.name for p in (ROOT / report_diff.FIXTURES).glob("*.json"))
    kac_inputs = [name for name in fixtures if name != "scaled_pair_third.json"]
    assert len(kac_inputs) == 13
    cmds = ("validate", "dual", "coreps", "galois")
    labels = [label for label, _ in report_diff.outputs(ROOT, tmp_path)]
    assert labels == [
        *(f"{cmd} {name}" for name in kac_inputs for cmd in cmds),
        "jones scaled_pair_third.json",
        "jones draw6.json",
        "jones draw91.json",
        "jones draw31.json",
        "selftest --seed 7",
        *(f"{cmd} {name}" for name in ("rotated_kp8.json", "cond30_kp8.json", "rotated_n24.json", "twist.json")
          for cmd in cmds),
    ]
    assert len(labels) == len(set(labels)) == 73


def test_fewer_than_two_roots_is_a_usage_error(capsys):
    assert report_diff.main([str(ROOT)]) == 2
    assert "usage: report_diff.py PARENT_ROOT CHANGE_ROOT" in capsys.readouterr().err


def test_text_outputs_compare_as_strings():
    assert report_diff.compare("Traceback", "Traceback") == []
    assert report_diff.compare("Traceback", {"passed": True}) != []
