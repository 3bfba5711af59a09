"""Command-line interface: reports, exit codes, determinism, error documents."""

import builtins
import collections
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacgalois import algebra as ag
from kacgalois import cli
from kacgalois import duality as du
from kacgalois import jones as jn
from kacgalois import kac as kc
from kacgalois.algebra import NoExpectationError, ShapeError, SubalgebraError
from kacgalois.jones import InclusionError
from kacgalois.kac import AxiomError

from conftest import (
    KAC_NAMES,
    basis_change,
    drop_system,
    rebased,
    rebased_tensors,
    rotation,
    twisted_z3_squared_by_z2,
)

FIXTURES = resources.files("kacgalois") / "fixtures"


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "kacgalois", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_validate_bundled_algebra_exits_zero():
    out = run_cli("validate", str(FIXTURES / "s3_function.json"))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["passed"] is True
    assert doc["command"] == "validate"
    assert "input_sha256" in doc


def test_galois_lists_all_six_coideals_of_the_six_point_function_algebra():
    out = run_cli("galois", str(FIXTURES / "s3_function.json"))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    dims = sorted(c["dim"] for c in doc["report"]["coideals"])
    assert dims == [1, 2, 3, 3, 3, 6]
    fingerprints = {c["projector_fingerprint"] for c in doc["report"]["coideals"]}
    assert len(fingerprints) == 6
    pairs = sorted((p["dim"], p["tilde_dim"]) for p in doc["report"]["tilde_pairs"])
    assert pairs == [(1, 6), (2, 3), (3, 2), (3, 2), (3, 2), (6, 1)]
    assert doc["passed"] is True


def test_coideals_alias_matches_galois_command():
    a = run_cli("coideals", str(FIXTURES / "z4_group.json"))
    assert a.returncode == 0
    doc = json.loads(a.stdout)
    assert sorted(c["dim"] for c in doc["report"]["coideals"]) == [1, 2, 4]


def test_jones_witness_values_through_file_input():
    out = run_cli("jones", str(FIXTURES / "scaled_pair_third.json"))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    report = doc["report"]
    assert report["extremal"] is False
    assert doc["passed"] is True
    spectra = [
        sorted(s["generator_squared_spectrum"])
        for s in report["relative_commutant"]["summands"]
    ]
    assert len(spectra) == 1
    assert [round(v, 9) for v in spectra[0]] == [0.5, 2.0]
    eigs = sorted(report["dual_weight"]["index_eigenvalues"])
    assert [round(v, 9) for v in eigs] == [1.5, 3.0]
    assert report["extremality"]["criteria_agree"] is True


def test_dual_and_duality_alias():
    a = run_cli("dual", str(FIXTURES / "z3_group.json"))
    b = run_cli("check-duality", str(FIXTURES / "z3_group.json"))
    assert a.returncode == 0 and b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    assert da["passed"] and db["passed"]
    assert da["report"] == db["report"]


def test_coreps_reports_dimensions():
    out = run_cli("coreps", str(FIXTURES / "s3_function.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert sorted(doc["report"]["corep_dims"]) == [1, 1, 2]


def test_text_format_renders_same_report():
    js = run_cli("validate", str(FIXTURES / "z2_group.json"))
    txt = run_cli("validate", str(FIXTURES / "z2_group.json"), "--format", "text")
    assert txt.returncode == 0
    assert "passed" in txt.stdout
    assert json.loads(js.stdout)["passed"] is True


def test_output_flag_writes_the_document(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("validate", str(FIXTURES / "z2_group.json"), "--output", str(target))
    assert out.returncode == 0
    doc = json.loads(target.read_text())
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "argv, run",
    [
        (["validate", "nosuch.json"], "run_validate"),
        (["jones", str(FIXTURES / "scaled_pair_third.json")], "run_jones"),
        (["selftest"], "run_selftest"),
    ],
    ids=["validate", "jones", "selftest"],
)
def test_an_unwritable_output_is_refused_before_any_work(monkeypatch, tmp_path, argv, run):
    # The run raises if it starts; the input is never opened either, so a
    # missing input does not hide the output error.
    def ran(*args, **kwargs):
        raise AssertionError(f"{run} ran")

    monkeypatch.setattr(cli, run, ran)
    target = tmp_path / "no" / "dir" / "out.json"
    code, out, err = run_in_process([*argv, "--output", str(target)])
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is False and "report" not in doc
    assert doc["command"] == argv[0]
    assert doc["error"]["type"] == "FileNotFoundError"
    assert str(target) in doc["error"]["message"]
    assert "input_sha256" not in doc
    assert not target.parent.exists()


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_an_output_that_is_the_input_is_refused_and_the_input_kept(tmp_path, link):
    # Opening --output for writing first would truncate the input before it is read.
    source = tmp_path / "in.json"
    source.write_bytes((FIXTURES / "z2_group.json").read_bytes())
    before = source.read_bytes()
    target = source
    if link:
        target = tmp_path / "link.json"
        target.symlink_to(source)
    code, out, err = run_in_process(["validate", str(source), "--output", str(target)])
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is False and "report" not in doc and "input_sha256" not in doc
    assert doc["error"]["type"] == "ValueError"
    assert str(target) in doc["error"]["message"]
    assert source.read_bytes() == before


@pytest.mark.parametrize("command, name", [("validate", "z2_group.json"), ("jones", "scaled_pair_third.json")])
def test_the_input_is_opened_once_and_its_hash_is_of_the_bytes_parsed(monkeypatch, command, name):
    # Hashing the file and then parsing it again could read two different
    # versions of it; one read feeds both.
    path = str(FIXTURES / name)
    opened = []
    real = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    code, out, _ = run_in_process([command, path])
    assert code == 0
    assert opened.count(path) == 1
    data = (FIXTURES / name).read_bytes()
    assert json.loads(out)["input_sha256"] == hashlib.sha256(data).hexdigest()


def test_missing_file_is_an_input_error():
    out = run_cli("validate", "/nonexistent/file.json")
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert doc["passed"] is False
    assert "error" in doc and doc["error"]["type"]


def test_malformed_document_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2}))
    out = run_cli("validate", str(bad))
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert "error" in doc


def test_non_object_document_is_an_input_error(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2, 3]))
    out = run_cli("validate", str(bad))
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert doc["error"]["message"] == "the input document must be a JSON object, not list"


MALFORMED_GROUPS = {
    "entry_above_order": {"order": 2, "mult": [[0, 1], [1, 5]]},
    "negative_entry": {"order": 2, "mult": [[0, 1], [1, -7]]},
    "fractional_entry": {"order": 2, "mult": [[0, 1], [1, 0.5]]},
    "order_not_dim": {"order": 3, "mult": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    "fractional_order": {"order": 2.5, "mult": [[0, 1], [1, 0]]},
}


@pytest.mark.parametrize("command", ["validate", "galois"])
@pytest.mark.parametrize("case", sorted(MALFORMED_GROUPS))
def test_malformed_group_table_is_an_axiom_error(tmp_path, command, case):
    doc = json.loads((FIXTURES / "z2_group.json").read_text())
    doc["group"] = MALFORMED_GROUPS[case]
    bad = tmp_path / "bad_group.json"
    bad.write_text(json.dumps(doc))
    out = run_cli(command, str(bad))
    assert out.returncode == 2, out.stderr
    error = json.loads(out.stdout)["error"]
    assert error["type"] == "AxiomError"
    assert "'group'" in error["message"]


MALFORMED_FIELDS = {
    "kp8_dim_list": ("validate", "kp8", "dim", [8], "AxiomError"),
    "kp8_labels_int": ("validate", "kp8", "basis_labels", 5, "AxiomError"),
    "kp8_mult_object": ("validate", "kp8", "mult", {"a": 1}, "AxiomError"),
    "s3_group_list": ("validate", "s3_group", "group", [1, 2], "AxiomError"),
    "scaled_pair_m_basis_int": ("jones", "scaled_pair_third", "M_basis", 3, "InclusionError"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_a_field_of_the_wrong_type_is_a_parse_error(tmp_path, capsys, case):
    # Each of these once reached exit 2 only as a TypeError caught around the
    # whole command; the parse step now names the field.
    command, fixture, field, value, error_type = MALFORMED_FIELDS[case]
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main([command, str(bad)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == error_type
    assert f"'{field}'" in error["message"]


@pytest.mark.parametrize("exc", [TypeError, KeyError])
def test_a_program_defect_is_not_an_input_error(monkeypatch, exc):
    def broken(kac):
        raise exc("a defect in the program")

    monkeypatch.setattr(du, "dual_kac", broken)
    with pytest.raises(exc, match="a defect in the program"):
        cli.main(["dual", str(FIXTURES / "s3_function.json")])


@pytest.mark.parametrize("command", ["validate", "galois"])
@pytest.mark.parametrize("labels", [["e"], ["e", "g", "h"], "eg"])
def test_group_labels_not_one_per_element_are_an_axiom_error(
    tmp_path, capsys, command, labels
):
    doc = json.loads((FIXTURES / "z2_group.json").read_text())
    doc["group"]["labels"] = labels
    bad = tmp_path / "bad_labels.json"
    bad.write_text(json.dumps(doc))
    assert cli.main([command, str(bad)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "AxiomError"
    assert "'group.labels'" in error["message"]


def test_jones_document_missing_a_field_is_an_input_error():
    out = run_cli("jones", str(FIXTURES / "z2_group.json"))
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert doc["error"]["message"] == "missing required field 'ambient_dim'"


def test_galois_lists_the_eight_coideals_of_kp8(capsys):
    # Neither commutative nor cocommutative, and tagged with no group.
    assert cli.main(["galois", str(FIXTURES / "kp8.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [c["dim"] for c in doc["report"]["coideals"]] == [1, 2, 2, 2, 4, 4, 4, 8]
    assert [p["tilde_dim"] for p in doc["report"]["tilde_pairs"]] == [8, 4, 4, 4, 2, 2, 2, 1]


def test_galois_refuses_a_corepresentation_of_dim_three_by_its_dims(tmp_path, capsys):
    path = tmp_path / "twist.json"
    kc.save_kac(twisted_z3_squared_by_z2(), str(path))
    assert cli.main(["galois", str(path)]) == 2
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert re.search(r"dim ≤ 2; this algebra's have dims \[1, (1, ){8}3\]", message)


def test_impossible_tolerance_is_a_check_failure():
    out = run_cli("jones", str(FIXTURES / "scaled_pair_third.json"), "--tolerance", "1e-16")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["passed"] is False
    assert "error" not in doc


def test_nonpositive_tolerance_is_rejected():
    # Each one exits 2 with the error document every input error carries.
    for value in ("-1", "0", "nan", "inf"):
        out = run_cli("validate", str(FIXTURES / "z2_group.json"), "--tolerance", value)
        assert out.returncode == 2, value
        doc = json.loads(out.stdout)
        assert doc["passed"] is False and "report" not in doc
        assert doc["error"] == {
            "type": "ValueError",
            "message": f"--tolerance must be positive and finite, got {float(value)}",
        }
        assert doc["tolerance"] == (float(value) if value in ("-1", "0") else value)


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert out.stdout.strip()


def run_in_process(argv):
    """``cli.main(argv)`` with its exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, command, seed, message",
    [
        (["validate", "Z2", "--seed", "x"], "validate", None, "argument --seed: invalid int"),
        (["validate", "Z2", "--tolerance", "-inf"], "validate", None, "argument --tolerance"),
        (["validate", "Z2", "--format", "text", "--seed", "x"], "validate", None, "argument --seed"),
        (["validate", "Z2", "--seed", "3", "--bogus"], "validate", 3, "unrecognized arguments"),
        (["validate"], "validate", None, "the following arguments are required: input"),
        (["frob", "Z2"], None, None, "argument command: invalid choice: 'frob'"),
        ([], None, None, "the following arguments are required: command"),
    ],
)
def test_a_refused_command_line_exits_2_with_a_json_error(argv, command, seed, message):
    # Flags argparse had not read when it refused the line read null.
    argv = [str(FIXTURES / "z2_group.json") if a == "Z2" else a for a in argv]
    code, out, err = run_in_process(argv)
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is False and "report" not in doc
    assert (doc["command"], doc["seed"], doc["format"]) == (command, seed, "json")
    assert doc["error"]["type"] == "ArgumentError"
    assert doc["error"]["message"].startswith(message)


# Options of a subcommand, so that a fuzzed flag is no abbreviation of one.
KNOWN_FLAGS = ("--tolerance", "--seed", "--format", "--output", "--help", "--version")


def unknown_flags():
    flag = st.from_regex(r"--[a-z][a-z0-9-]{0,8}", fullmatch=True).filter(
        lambda f: not any(known.startswith(f) for known in KNOWN_FLAGS)
    )
    return st.lists(st.one_of(flag, st.tuples(flag, st.text()).map("=".join)), max_size=2)


def fuzzed(flag, values):
    """An optional ``[flag, value]`` pair of a fuzzed command line."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@pytest.mark.usefixtures("unicode_charmap")
@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=fuzzed("--seed", st.one_of(st.integers().map(str), st.text())),
    tolerance=fuzzed("--tolerance", st.one_of(st.floats().map(repr), st.text())),
    fmt=fuzzed("--format", st.one_of(st.just("json"), st.text().filter(lambda v: v != "text"))),
    extra=unknown_flags(),
)
def test_fuzzed_flags_give_one_json_document(seed, tolerance, fmt, extra):
    argv = ["validate", str(FIXTURES / "z2_group.json"), *seed, *tolerance, *fmt, *extra]
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2) and err == ""
    doc = json.loads(out)  # exactly one document: trailing data fails to parse
    assert doc["passed"] is (code == 0)
    assert ("error" in doc) is (code == 2)


def test_seed_changes_nothing_structural_for_validate():
    a = run_cli("validate", str(FIXTURES / "q8_group.json"), "--seed", "3")
    b = run_cli("validate", str(FIXTURES / "q8_group.json"), "--seed", "4")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    assert da["report"] == db["report"]


@pytest.mark.parametrize(
    "run, counts",
    [
        (lambda kac: cli.run_dual(kac, None), (2, 2, 4, 3, 1, 5, 6, 2)),
        (lambda kac: cli._selftest_algebra(kac, None, 7), (2, 2, 2, 0, 1, 3, 4, 0)),
        (lambda kac: cli.run_coreps(kac, None, 7, trials=5), (1, 0, 1, 1, 0, 2, 2, 0)),
    ],
    ids=["run_dual", "selftest_algebra", "run_coreps"],
)
def test_each_duality_object_is_built_once(monkeypatch, groups, run, counts):
    # One dual of A, plus one of its dual where the bidual is checked, each
    # with its own V; coreps builds V, Â and the integrals, not the dual.  A
    # certificate runs only where the report reads it: `dual` reads V's, Â's
    # and the dual's axioms and certifies V̂ and Ṽ, `selftest` reads V's and
    # the dual's axioms, and `coreps` reads V's and Â's; `dual` and `selftest`
    # certify the bidual through its V's pentagon and its realizations, which
    # read its split and its two legs.  The memberships (`leg_distance` in
    # duality) of V, V̂ and Ṽ need no commutant for V, so only V̂ and Ṽ build
    # the commutants A′ and Â′.  Each split defect (of V, the bidual's V, V̂, Ṽ
    # and the corepresentations' expansion of V) and each leg's closure (onb,
    # the Bₐ, U·onb·U, U·B·U and the bidual's onb and Bₐ) is computed once,
    # where it is read.
    assert not hasattr(du, "_product_fit") and not hasattr(du.HatAlgebra, "counit_on_omega")
    calls = collections.Counter()
    names = ("multiplicative_unitary", "dual_kac", "pentagon_residual",
             "leg_distance", "validate_kac", "split_defect", "product_leg")
    for module, name in [*((du, name) for name in names), (ag, "commutant")]:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    run(kc.group_algebra(groups["s3"]))  # fresh, so no certificate is cached on it
    assert tuple(calls[name] for name in (*names, "commutant")) == counts


def test_coreps_gates_the_pentagon(monkeypatch, capsys):
    parts = {"factored": 1.0, "closure": 0.0, "reconstruction": 0.0}
    monkeypatch.setattr(du, "pentagon_residual", lambda split, n, unitary: (1.0, parts))
    assert cli.main(["coreps", str(FIXTURES / "s3_function.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    checks = doc["report"]["checks"]
    assert [name for name, c in checks.items() if not c["ok"]] == ["pentagon"]
    assert checks["pentagon"] == cli.check(1.0, cli.TOLERANCES["tight"])


@pytest.mark.parametrize("tensor", ["mult", "coproduct"])
@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group", "rotated_kp8"])
def test_coreps_gates_the_pentagon_on_the_hat_tensors(
    monkeypatch, tmp_path, capsys, name, tensor
):
    # Â's product, or the coproduct that is the Bₐ's product, moved by 1e-6:
    # V's pentagon reads both tensors, and the only other `coreps` check that
    # reads either is Â's `product_closure`, onb's closure under the product.
    path = FIXTURES / f"{name}.json"
    if name == "rotated_kp8":
        path = write_rebased_kp8(tmp_path, rotation(8, seed=0))
    real = du._hat_algebra

    def moved(kac, v):
        hat = real(kac, v)
        t = getattr(hat, tensor)
        rng = np.random.default_rng(kac.dim)
        return dataclasses.replace(hat, **{tensor: t + 1e-6 * rng.standard_normal(t.shape)})

    monkeypatch.setattr(du, "_hat_algebra", moved)
    assert cli.main(["coreps", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    failed = ["hat_algebra", "pentagon"] if tensor == "mult" else ["pentagon"]
    assert [key for key, c in checks.items() if not c["ok"]] == failed
    assert checks["pentagon"]["value"] > cli.TOLERANCES["tight"]


def test_coreps_gates_the_integrals(monkeypatch, capsys):
    real = du.Integrals.residuals.func
    spy = property(lambda ints: {**real(ints), "e_hat_absorbing": 1.0})
    monkeypatch.setattr(du.Integrals, "residuals", spy)
    assert cli.main(["coreps", str(FIXTURES / "s3_function.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    checks = doc["report"]["checks"]
    assert [name for name, c in checks.items() if not c["ok"]] == ["integrals"]
    assert checks["integrals"] == cli.check(1.0, cli.TOLERANCES["tight"])


@pytest.mark.parametrize("key, phase", [("star_realization", 1j), ("haar_realization", 1.0)])
def test_dual_gates_the_star_and_haar_realizations(monkeypatch, capsys, key, phase):
    # Mutant: where A's dual certifies its realizations, each ŷᵢ is moved by
    # 1e-6·phase·ε̂(ŷᵢ)·(1 − ΩΩ†).  The move kills Ω, and it is κ̂-invariant, so
    # the counit and antipode still hold; with a real phase it is self-adjoint
    # and only the trace (Haar) sees it, times i the star sees it too.
    real = du.DualKac.residuals.func

    def moved(dd):
        kac, hat = dd.v.kac, dd.hat
        if kac.origin == "dual":  # the bidual's certificate, read as built
            return real(dd)
        q = np.eye(kac.dim) - np.outer(kac.omega, np.conj(kac.omega))
        y = hat.dual_basis + 1e-6 * phase * np.multiply.outer(dd.kac.counit, q)
        return real(dataclasses.replace(dd, hat=dataclasses.replace(hat, dual_basis=y)))

    monkeypatch.setattr(du.DualKac, "residuals", property(moved))
    assert cli.main(["dual", str(FIXTURES / "s3_function.json")]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert [name for name, c in report["checks"].items() if not c["ok"]] == ["dual_reconstruction"]
    values = report["dual_reconstruction"]
    assert values[key] > 1e-7
    tripped = {"star_realization", "haar_realization"} if phase == 1j else {key}
    assert {name for name, v in values.items() if v > cli.TOLERANCES["tight"]} == tripped


@pytest.mark.parametrize(
    "run, builds",
    [
        (lambda kac: cli.run_dual(kac, None), 2),
        (lambda kac: cli._selftest_algebra(kac, None, 7), 2),
        (lambda kac: cli.run_coreps(kac, None, 7, trials=5), 1),
    ],
    ids=["run_dual", "selftest_algebra", "run_coreps"],
)
def test_each_integral_is_built_once(monkeypatch, groups, run, builds):
    # One Â of A, plus one of its dual where the bidual is checked; each
    # `integrals` call builds the integrals of its Â, once.
    calls, built = [], []
    for name, seen in (("integrals", calls), ("_integrals", built)):
        def spy(kac, hat, _real=getattr(du, name), _seen=seen):
            _seen.append(hat)
            return _real(kac, hat)

        monkeypatch.setattr(du, name, spy)
    run(kc.group_algebra(groups["s3"]))
    assert len(calls) == len(built) == builds
    assert len({id(hat) for hat in built}) == builds


@pytest.mark.parametrize("name", KAC_NAMES)
def test_a_rotated_fixture_passes_validate_dual_and_coreps(algebras, kp8, name):
    kac = dict(algebras, kp8=kp8)[name]
    rotated = rebased(kac, rotation(kac.dim, seed=kac.dim))
    assert np.count_nonzero(du.multiplicative_unitary(rotated).matrix) > kac.dim**4 // 2
    assert cli.run_validate(rotated, None)["passed"]
    assert cli.run_dual(rotated, None)["passed"]
    report = cli.run_coreps(rotated, None, 7, trials=5)
    assert report["passed"]
    assert report["corep_dims"] == cli.run_coreps(kac, None, 7, trials=5)["corep_dims"]


def write_rebased_kp8(tmp_path, c):
    """The input document of kp8 in the basis change ``c``, written under ``tmp_path``."""
    kp8 = kc.load_kac(str(FIXTURES / "kp8.json"))
    labels, *tensors = rebased_tensors(kp8, c)
    doc = {"dim": kp8.dim, "basis_labels": list(labels)}
    for name, t in zip(("mult", "delta", "counit", "antipode", "star", "haar"), tensors):
        doc[name] = np.stack([t.real, t.imag], axis=-1).tolist()
    path = tmp_path / "kp8_rebased.json"
    path.write_text(json.dumps(doc))
    return path


def run_rebased_kp8(tmp_path, capsys, command, cond):
    path = write_rebased_kp8(tmp_path, basis_change(8, seed=4, cond=cond))
    code = cli.main([command, str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, cond",
    [pytest.param(c, 10.0, id=c) for c in ("validate", "dual", "coreps")]
    # At cond 30 the pentagons certified on A's basis operators read 6.6e-10;
    # on Â's orthonormal basis and its partner Bₐ they read 2.8e-11.
    + [pytest.param(c, 30.0, id=f"{c}-cond30") for c in ("validate", "dual", "coreps")],
)
def test_a_well_conditioned_change_of_basis_passes(tmp_path, capsys, command, cond):
    code, doc = run_rebased_kp8(tmp_path, capsys, command, cond=cond)
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize("command", ["dual", "coreps", "validate"])
@pytest.mark.parametrize(
    "cond, message",
    [
        (1e13, "no two-sided unit"),
        (1e3, "L\\(b_i\\) has condition number 1.000e\\+06, above the bound 1e\\+05"),
    ],
    ids=["cond1e13", "cond1e3"],
)
def test_an_ill_conditioned_change_of_basis_exits_2(tmp_path, capsys, command, cond, message):
    # At 1e13 the unit solve of the structure tensors already fails; at 1e3
    # the Gram matrix of the basis operators, of condition 1e6, is refused.
    code, doc = run_rebased_kp8(tmp_path, capsys, command, cond)
    assert code == 2
    assert re.search(message, doc["error"]["message"])


def test_selftest_gates_the_completeness_audit(monkeypatch, groups, coreps_of):
    # Without the centre ⟨-1⟩ of Q₈ in the enumeration, the audit's closure of
    # b_e + b_{-1} is ℂ[⟨-1⟩], which matches no listed coideal: the slice fails
    # on the completeness check alone, at ‖e_B − e_ℂ‖ = 1.
    kac = kc.group_algebra(groups["q8"])
    drop_system(monkeypatch, kac, coreps_of(kac), (0, 1))
    doc = cli._selftest_algebra(kac, None, 7)
    assert doc["passed"] is False
    assert [name for name, c in doc["checks"].items() if not c["ok"]] == ["galois_completeness"]
    assert abs(doc["checks"]["galois_completeness"]["value"] - 1.0) <= 1e-12
    assert doc["checks"]["galois_completeness"]["limit"] == cli.TOLERANCES["loose"]


def test_dual_builds_each_commutant_cell_once(monkeypatch, groups):
    # A′ and Â′ are read by the V̂ and Ṽ memberships alone.
    calls = []
    real = ag.commutant

    def counted(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(ag, "commutant", counted)
    kac = kc.group_algebra(groups["s3"])
    report = cli.run_dual(kac, None)
    assert report["passed"]
    dd = du.dual_kac(kac)
    assert len(calls) == 2
    assert calls[0] is kac.as_mm() and calls[1] is dd.hat.mm


@pytest.mark.parametrize("name", ["s3_function", "kp8"])
def test_dual_gates_the_slice_algebra_and_the_pairing(algebras, kp8, name):
    kac = kp8 if name == "kp8" else algebras[name]
    report = cli.run_dual(kac, None)
    dd = du.dual_kac(kac)
    assert report["passed"]
    assert report["hat_algebra"] == dd.hat.residuals
    assert report["pairing"] == dd.pairing_form.residuals
    checks = report["checks"]
    assert checks["hat_algebra"] == cli.check(cli._max_float(dd.hat.residuals), 1e-10)
    assert checks["pairing"] == cli.check(cli._max_float(dd.pairing_form.residuals), 1e-9)
    assert checks["hat_algebra"]["ok"] and checks["pairing"]["ok"]


@pytest.mark.parametrize(
    "make",
    [lambda: jn.fixture_scaled_pair(1.0 / 3.0), lambda: jn.random_inclusion(14)],
    ids=["scaled_pair_third", "draw_14"],
)
def test_jones_gates_the_gns_residuals(make):
    report = cli.run_jones(make(), None)
    residuals = jn.jones_chain(make()).extension.gns.residuals
    assert report["passed"]
    assert report["gns"] == residuals and "j_polar" in residuals
    assert report["checks"]["gns"] == cli.check(cli._max_float(residuals), 1e-9)
    assert report["checks"]["gns"]["ok"]


JONES_CERTIFICATES = (
    (ag.GnsData, "residuals"),
    (jn.BasicExtension, "residuals"),
    (jn.DualWeight, "residuals"),
    (jn.DualWeight, "index_element"),
    (jn.StateFreeExtension, "mirror_pairing"),
)


def count_first_reads(monkeypatch, calls):
    """Count each computation of the Jones chain's cached certificates."""
    for cls, name in JONES_CERTIFICATES:
        real = vars(cls)[name].func

        def counted(self, _real=real, _key=f"{cls.__name__}.{name}"):
            calls[_key] += 1
            return _real(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize(
    "run",
    [
        lambda: cli.run_jones(jn.random_inclusion(14), None),
        lambda: cli._selftest_random_inclusion(14, None),
    ],
    ids=["run_jones", "selftest_random_inclusion"],
)
def test_each_jones_certificate_is_computed_once(monkeypatch, run):
    # The report reads the GNS, extension and weight certificates of its
    # draw, each once; the ω-variation of `selftest` is read for its flow
    # alone, so it computes none of its own, shares the draw's mirror
    # pairing and runs no extremality.  The count starts from an empty
    # state-free cache, so no pairing is read from an earlier build.
    jn._state_free.cache_clear()
    calls = collections.Counter()
    count_first_reads(monkeypatch, calls)
    extremality = jn.extremality

    def counted(*args):
        calls["extremality"] += 1
        return extremality(*args)

    monkeypatch.setattr(jn, "extremality", counted)
    assert run()["passed"]
    want = {f"{cls.__name__}.{name}": 1 for cls, name in JONES_CERTIFICATES}
    assert calls == {**want, "extremality": 1}


def test_a_draw_and_its_variation_share_one_mirror_pairing():
    inc = jn.random_inclusion(14)
    reports = []
    for case in (inc, jn.omega_variation(inc, 15)):
        bc = jn.basic_extension(case)
        reports.append(jn.relcomm_report(bc, jn.dual_weight(bc)))
    rep, rep2 = reports
    assert rep.mirror_pairs is rep2.mirror_pairs
    # Each report owns its residuals; the shared dict keeps J's five alone.
    shared = bc.shared.mirror_pairing[1]
    assert rep.residuals is not rep2.residuals
    assert shared is not rep.residuals and shared is not rep2.residuals
    assert len(shared) == 5 and rep.residuals.items() >= shared.items()
    assert rep.residuals["flow_match"] < 1e-8 and rep2.residuals["flow_match"] < 1e-8


def test_a_weight_copy_reads_its_own_certificates():
    bc = jn.basic_extension(jn.random_inclusion(14))
    dw = jn.dual_weight(bc)
    assert dw.residuals is dw.residuals and bc.residuals is bc.residuals
    assert bc.gns.residuals is bc.gns.residuals
    twice = dataclasses.replace(dw, coords=2.0 * dw.coords)
    assert np.abs(twice.index_element - 2.0 * dw.index_element).max() < 1e-12
    assert dw.residuals["unit_from_e"] < 1e-10
    # 2·Ê(e) − 1 = 1 on the GNS space.
    k = bc.gns.space_dim
    assert twice.residuals["unit_from_e"] == pytest.approx(k**0.5, abs=1e-10)
    assert twice.residuals.keys() == dw.residuals.keys()


def square_pair() -> jn.Inclusion:
    """ℂ² ⊆ M₂ ⊕ M₂, each point of ℂ² once in each block, with the trace expectation.

    M₁∩N′ is four copies of M₂: two self-mated summands and one mirror-paired
    pair, so a density on one summand of the pair can be non-scalar.
    """
    rows = ((1, 1), (1, 1))
    big, small = jn._embedded_pair([1, 1], np.array(rows))
    expectation = jn.trace_expectation(big, small)
    omega = np.eye(4, dtype=complex) / 4.0
    return jn.make_inclusion(big, small, expectation, omega, label="square_pair", bratteli=rows)


def failing_checks(report: dict) -> list[str]:
    return sorted(name for name, c in report["checks"].items() if not c["ok"])


def test_generator_trace_balance_trips_on_a_weight_bent_on_one_summand_of_a_pair(monkeypatch):
    # On a self-mated summand, and on a pair whose Tr R·Tr R⁻¹ agree, the
    # transport vanishes by algebra.  Ê'(x) = Ê(x) + ⟨a, x⟩/2·1, for a a
    # minimal projection of one summand of a pair, adds a multiple of a to
    # that summand's density and so changes its Tr R·Tr R⁻¹ alone.  The copy
    # reads its own certificates, and Ê' is no M-bimodule map, since
    # ⟨a, x·z·y⟩ ≠ ⟨a, z⟩·x·y, so `weight_bimodule` trips with it.
    inc = square_pair()
    honest = cli.run_jones(inc, None)
    assert honest["passed"]
    pairs = honest["relative_commutant"]["mirror_pairs"]
    bent_summand = next(i for i, mate in enumerate(pairs) if mate != i)
    dual_weight = jn.dual_weight

    def bent(bc):
        dw = dual_weight(bc)
        a = ag.matrix_units(bc.shared.relcomm)[bent_summand].units[0, 0]
        shift = np.outer(np.conj(dw.m1.coeffs(a)), dw.big.coeffs(np.eye(len(a)))) / 2.0
        return dataclasses.replace(dw, coords=dw.coords + shift)

    monkeypatch.setattr(jn, "dual_weight", bent)
    report = cli.run_jones(inc, None)
    assert failing_checks(report) == ["generator_trace_balance", "weight_bimodule"]
    assert report["checks"]["generator_trace_balance"]["value"] > 0.1


@pytest.mark.parametrize(
    "step,trips",
    [
        (1.0, ["mirror_involutive", "mirror_pairing_involutive"]),
        (0.4, ["mirror_involutive", "mirror_pairing"]),
    ],
    ids=["full_cycle", "partway"],
)
def test_mirror_pairing_trips_on_a_mirror_that_cycles_three_summands(monkeypatch, step, trips):
    # The fake mirror adds Σⱼ ⟨zⱼ, x⟩/Tr zⱼ · step·(z_τ(j) − J zⱼ J) to J x* J
    # for τ the 3-cycle 0 → 1 → 2 → 0 of the central projections zⱼ, so it
    # sends zⱼ to (1 − step)·J zⱼ J + step·z_τ(j) and stays inside M₁∩N′.  The
    # full cycle gives mates that are not an involution; partway, the
    # self-mated z₀ goes to 0.6·z₀ + 0.4·z₁, 0.4·‖z₁ − z₀‖ from the nearest
    # central projection, while the mates stay an involution.
    inc = square_pair()
    assert cli.run_jones(inc, None)["passed"]
    mirror = jn.StateFreeExtension.mirror

    def cycled(self, x):
        units = np.stack([block.projection for block in ag.matrix_units(self.relcomm)])
        target = units[[1, 2, 0, *range(3, len(units))]]
        coeffs = np.tensordot(x, units.conj(), axes=([-2, -1], [1, 2]))
        coeffs = coeffs / np.trace(units, axis1=1, axis2=2).real
        return mirror(self, x) + np.tensordot(coeffs, step * (target - mirror(self, units)), axes=1)

    monkeypatch.setattr(jn.StateFreeExtension, "mirror", cycled)
    # The honest run cached the pairing of this (M, N); the mutant builds its own.
    jn._state_free.cache_clear()
    report = cli.run_jones(inc, None)
    assert failing_checks(report) == trips
    assert report["j_action"]["preserves_relative_commutant"] < 1e-12


@pytest.mark.parametrize(
    "exc",
    [
        NoExpectationError(1.5e-3),
        AxiomError("coproduct is not coassociative", {"coassociativity": 0.5}),
        SubalgebraError("claimed subalgebra is not contained in the algebra"),
        InclusionError("missing required field 'E_matrix'"),
        ShapeError("generator has shape (2, 3), expected (2,2)"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_errors_survive_pickling(exc):
    # A selftest slice's error crosses the worker boundary by pickle.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_selftest_on_one_cpu_is_the_same_bytes():
    def run(preexec_fn=None):
        return subprocess.run(
            [sys.executable, "-m", "kacgalois", "selftest", "--seed", "7"],
            capture_output=True,
            timeout=300,
            preexec_fn=preexec_fn,
        )

    one_cpu = min(os.sched_getaffinity(0))
    pinned = run(lambda: os.sched_setaffinity(0, {one_cpu}))
    free = run()
    assert pinned.returncode == free.returncode == 0, free.stderr
    assert pinned.stdout == free.stdout


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    """Run selftest slices in process (one CPU) or on two forked workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    return request.param


def test_selftest_workers_are_gone_when_it_returns(monkeypatch, tmp_path, cpus):
    # Stub the per-algebra slices so each reports the process it ran in.
    monkeypatch.setattr(cli, "_selftest_algebra", lambda kac, tol, seed: {"pid": os.getpid(), "passed": True})
    out = tmp_path / "report.json"
    assert cli.main(["selftest", "--output", str(out)]) == 0
    assert multiprocessing.active_children() == []
    groups = json.loads(out.read_text())["report"]["groups"]
    pids = {doc["pid"] for pair in groups.values() for doc in pair.values()}
    assert (os.getpid() in pids) == (cpus == 1)


def test_a_slice_error_reaches_main_as_in_process(monkeypatch, capsys, cpus):
    # Every group algebra's slice fails with a message of its dimension.  The
    # first of them in the slice table (Q8's group algebra, dim 8) fails last,
    # after the other worker has failed on S3's and the rest, and its error is
    # the one reported.  The function algebras' slices pass, so no other slice
    # of dim 8 fails with the same message.
    def fail(kac, tol, seed):
        if kac.origin != "group_algebra":
            return {"passed": True}
        if kac.dim == 8:
            time.sleep(0.3)
        raise NoExpectationError(kac.dim * 1e-3)

    monkeypatch.setattr(cli, "_selftest_algebra", fail)
    assert cli.main(["selftest"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {
        "type": "NoExpectationError",
        "message": str(NoExpectationError(8e-3)),
    }
    assert multiprocessing.active_children() == []
