"""Every numerical threshold of the package is named once, in linalg's table."""

import ast
import inspect
import io
import re
import tokenize
from dataclasses import fields
from pathlib import Path

import pytest

from kacgalois import algebra as ag
from kacgalois import cli
from kacgalois import duality as du
from kacgalois import jones as jn
from kacgalois import kac as kc
from kacgalois import linalg as la

SRC = Path(la.__file__).resolve().parent
SCIENTIFIC = re.compile(r"(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE][+-]?\d[\d_]*[jJ]?")
# Names that hold a threshold; only the table may bind them.
THRESHOLD_NAME = re.compile(r"_(TOL|RTOL|FLOOR|CUT)$")

TABLE = {
    "TIGHT_TOL": 1e-10,
    "MID_TOL": 1e-9,
    "LOOSE_TOL": 1e-8,
    "RANK_RTOL": 1e-8,
    "ZERO_FLOOR": 1e-12,
    "DEFAULT_TOL": 1e-9,
    "COMMUTE_RTOL": 1e-10,
    "SPAN_TOL": 1e-8,
    "PIN_TOL": 1e-7,
    "EXTREMAL_TOL": 1e-8,
    "PROJ_CUT": 0.5,
    "TRACE_FLOOR": 1e-14,
    "POWER_TOL": 1e-10,
    "POWER_MAX_ITER": 10000,
}


def table_end() -> int:
    """The last line of linalg's table: the line before its first definition."""
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    return min(n.lineno for n in tree.body if isinstance(n, ast.FunctionDef)) - 1


def scientific_literals(source: str, first_line: int = 1) -> list[tuple[int, str]]:
    """(line, token) of each scientific-notation number in code from ``first_line`` on."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER
        and tok.start[0] >= first_line
        and SCIENTIFIC.fullmatch(tok.string)
    ]


def test_the_scan_skips_strings_and_comments():
    source = 'x = 1e-8  # 1e-9\ns = "1e-7"\n"""2.5E3 in a docstring"""\ny = 0x1e5 + 3E+2j\n'
    assert scientific_literals(source) == [(1, "1e-8"), (4, "3E+2j")]
    assert scientific_literals(source, first_line=2) == [(4, "3E+2j")]


def test_no_threshold_literal_outside_the_table():
    found = []
    for path in sorted(SRC.glob("*.py")):
        first = table_end() + 1 if path.name == "linalg.py" else 1
        found += [
            f"{path.name}:{line}: {tok}"
            for line, tok in scientific_literals(path.read_text(encoding="utf-8"), first)
        ]
    assert found == []
    assert len(scientific_literals((SRC / "linalg.py").read_text(encoding="utf-8"))) > 0


def test_only_linalg_binds_a_threshold_name():
    bound = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            bound += [
                (path.name, t.id)
                for t in targets
                if isinstance(t, ast.Name) and THRESHOLD_NAME.search(t.id)
            ]
    assert sorted(name for _, name in bound) == sorted(
        name for name in TABLE if THRESHOLD_NAME.search(name)
    )
    assert {module for module, _ in bound} == {"linalg.py"}


def test_table_values_are_pinned():
    assert {name: getattr(la, name) for name in TABLE} == TABLE
    assert cli.TOLERANCES == {"tight": 1e-10, "mid": 1e-9, "loose": 1e-8}
    assert cli.limits(None) == cli.TOLERANCES
    assert cli.limits(1e-3) == {"tight": 1e-3, "mid": 1e-3, "loose": 1e-3}


@pytest.mark.parametrize(
    "func, name",
    [
        (la.orthonormalize, "rtol"),
        (la.orthonormalize, "atol"),
        (la.null_space, "rtol"),
        (la.intersect_spans, "cut"),
        (ag.MMAlgebra.validate, "tol"),
        (ag._certified_split, "tol"),
        (ag.gns, "tol"),
        (ag.conditional_expectation, "tol"),
        (ag.CondExpectation.validate, "tol"),
        (ag.CondExpectation.validate, "rng"),
        (jn.Inclusion.validate, "tol"),
        (jn.make_inclusion, "seed"),
        (jn.make_inclusion, "tol"),
        (jn.random_inclusion, "skewed"),
        (jn.bratteli_norm_sq, "tol"),
        (jn.bratteli_norm_sq, "max_iter"),
        (kc.kac_from_structure, "tol"),
        (kc.load_kac, "tol"),
        (du.pentagon_residual, "seed"),
    ],
)
def test_no_single_valued_threshold_parameter(func, name):
    assert name not in inspect.signature(func).parameters


def test_no_single_valued_field():
    assert "faithful" not in {f.name for f in fields(ag.StateData)}
    assert "seed" not in {f.name for f in fields(jn.Inclusion)}
    assert not hasattr(ag.StateData, "validate")


def test_kept_parameters():
    assert "tol" in inspect.signature(kc.validate_kac).parameters
    assert "atol" in inspect.signature(la.null_space).parameters
    assert list(inspect.signature(du.pentagon_residual).parameters) == ["split", "n", "unitary"]
