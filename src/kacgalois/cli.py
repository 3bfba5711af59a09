"""Command-line interface: load, validate, compute, and report.

Every command reads a JSON input (except ``selftest``), hashes and parses
the same bytes, runs the corresponding computations, and emits a report
document.  Each command handler returns that report, and its ``passed`` sets
the exit code.  ``selftest`` states its independent slices once, as a table
of (report path, work), the slowest first (:func:`_selftest_slices`); it
runs them in that order on forked worker processes, up to one per available
CPU, and assembles the same report bytes as a run on one CPU.  JSON is the
canonical format (deterministic: sorted keys, fixed indentation);
``--format text`` renders the same document for human reading.

Exit codes: 0 when every check in the report passed, 1 when some check
failed, 2 on parse or validation errors (with a machine-readable error
document on standard output).
"""

from __future__ import annotations

import os

# Pin BLAS threading before numpy loads anywhere in this process: report
# bytes must be identical across identical invocations, and threaded
# reductions are the one source of run-to-run float jitter.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from . import algebra as ag
from . import coideals as ci
from . import coreps as cr
from . import duality as du
from . import jones as jn
from . import kac as kc
from .algebra import SubalgebraError
from .jones import InclusionError
from .kac import AxiomError
from .linalg import LOOSE_TOL, MID_TOL, TIGHT_TOL

GROUP_BUILDERS = (
    ("Z2", lambda: kc.cyclic_group(2)),
    ("Z3", lambda: kc.cyclic_group(3)),
    ("Z4", lambda: kc.cyclic_group(4)),
    ("Z2xZ2", kc.klein_group),
    ("S3", kc.symmetric_group_3),
    ("Q8", kc.quaternion_group),
)

INPUT_ERRORS = (
    argparse.ArgumentError,
    AxiomError,
    InclusionError,
    SubalgebraError,
    ValueError,
    RuntimeError,
    json.JSONDecodeError,
    OSError,
)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _jsonify(obj):
    """Recursively convert report values into canonical JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not np.isfinite(f):
            return repr(f)
        return f
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [_jsonify(z.real), _jsonify(z.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def canonical_json(doc: dict) -> str:
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_text(obj, indent: int = 0) -> list[str]:
    """Human-readable rendering of the canonical JSON document."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(pad + "[" + ", ".join(_scalar_text(v) for v in obj) + "]")
        else:
            for v in obj:
                lines.append(f"{pad}-")
                lines.extend(render_text(v, indent + 1))
    else:
        lines.append(pad + _scalar_text(obj))
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, list):
        return "[]" if not v else json.dumps(v)
    if isinstance(v, dict):
        return "{}"
    return str(v)


def check(value: float, limit: float) -> dict:
    value = float(value)
    return {"value": value, "limit": float(limit), "ok": bool(value < limit)}


def check_true(flag: bool) -> dict:
    return {"value": bool(flag), "ok": bool(flag)}


# The limit tiers of every check: exact structural identities (axioms,
# pentagon) are held to "tight", composed pipelines to "mid" or "loose".
TOLERANCES = {"tight": TIGHT_TOL, "mid": MID_TOL, "loose": LOOSE_TOL}


def limits(tol: float | None) -> dict:
    """The limit of each tier; ``--tolerance`` replaces every one of them."""
    return {tier: tol if tol is not None else lim for tier, lim in TOLERANCES.items()}


def _all_ok(checks: dict) -> bool:
    return all(c["ok"] for c in checks.values())


def _max_float(d: dict) -> float:
    worst = 0.0
    for v in d.values():
        if isinstance(v, (float, int)) and not isinstance(v, bool):
            worst = max(worst, abs(float(v)))
        elif isinstance(v, dict):
            worst = max(worst, _max_float(v))
    return worst


# ---------------------------------------------------------------------------
# Input parsing (matrices are lists of rows of [re, im] pairs)
# ---------------------------------------------------------------------------


def parse_complex_matrix(doc, name: str) -> np.ndarray:
    arr = np.asarray(doc, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InclusionError(
            f"field '{name}' must be a square matrix of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_list(doc, name: str, d: int) -> list[np.ndarray]:
    mats = [parse_complex_matrix(m, name) for m in doc]
    if any(m.shape != (d, d) for m in mats):
        raise InclusionError(f"'{name}' entries must be {d}x{d}")
    return mats


def _e_matrix(doc, d: int) -> np.ndarray:
    e_arr = np.asarray(doc, dtype=float)
    if e_arr.shape == (d * d, d * d):
        return e_arr.astype(complex)
    if e_arr.shape == (d * d, d * d, 2):
        return e_arr[..., 0] + 1j * e_arr[..., 1]
    raise InclusionError(
        f"'E_matrix' must be {d * d}x{d * d} (real or [re, im]), got {e_arr.shape}"
    )


def parse_inclusion(doc: dict) -> jn.Inclusion:
    """Build and validate an inclusion from its JSON document; a field that is
    missing or cannot be read raises :class:`InclusionError` naming it
    (:func:`~kacgalois.kac.read_field`)."""

    def field(name: str, parse):
        return kc.read_field(doc, name, parse, InclusionError)

    d = field("ambient_dim", int)
    m_mats = field("M_basis", lambda x: _matrix_list(x, "M_basis", d))
    n_mats = field("N_basis", lambda x: _matrix_list(x, "N_basis", d))
    e_mat = field("E_matrix", lambda x: _e_matrix(x, d))
    omega = field("omega_density", lambda x: parse_complex_matrix(x, "omega_density"))
    big = ag.from_span(m_mats, d)
    small = ag.from_span(n_mats, d)
    return jn.make_inclusion(big, small, e_mat, omega, label="cli_input")


# ---------------------------------------------------------------------------
# Command handlers: each returns its report, whose "passed" is the exit status
# ---------------------------------------------------------------------------


def run_validate(kac: kc.KacAlgebra, tol: float | None) -> dict:
    lim = limits(tol)["tight"]
    rep = kc.validate_kac(kac, tol=lim)
    residuals = {
        k: v for k, v in rep.items() if isinstance(v, float) and k != "max_residual"
    }
    checks = {k: check(v, lim) for k, v in residuals.items()}
    report = {
        "dim": kac.dim,
        "origin": kac.origin,
        "residuals": residuals,
        "max_residual": rep["max_residual"],
        "checks": checks,
        "passed": _all_ok(checks),
    }
    return report


def run_dual(kac: kc.KacAlgebra, tol: float | None) -> dict:
    lim = limits(tol)
    dd = du.dual_kac(kac)
    hu = du.hat_unitaries(kac, dd.v, dd.hat)
    bid = du.bidual_check(dd)
    heis = du.heisenberg_identities(dd, cr.irreducible_coreps(kac, dd.v, dd.hat))

    checks = {
        "pentagon": check(_max_float(dd.v.residuals), lim["tight"]),
        "hat_algebra": check(_max_float(dd.hat.residuals), lim["tight"]),
        "integrals": check(_max_float(dd.ints.residuals), lim["tight"]),
        "pairing": check(_max_float(dd.pairing_form.residuals), lim["mid"]),
        "hat_unitaries": check(_max_float(hu.residuals), lim["tight"]),
        "dual_reconstruction": check(_max_float(dd.residuals), lim["tight"]),
        "dual_axioms": check(dd.axiom_report["max_residual"], lim["tight"]),
        "biduality": check(bid["max_residual"], lim["loose"]),
        "dual_pairing_identities": check(
            heis["compressed_product"], lim["tight"]
        ),
        "dual_pairing_contracted": check(
            heis["coproduct_contracted"], lim["tight"]
        ),
    }
    report = {
        "dim": kac.dim,
        "pentagon": dd.v.residuals,
        "hat_algebra": dd.hat.residuals,
        "integrals": dd.ints.residuals,
        "pairing": dd.pairing_form.residuals,
        "hat_unitaries": hu.residuals,
        "dual_reconstruction": dd.residuals,
        "dual_axioms_max": dd.axiom_report["max_residual"],
        "biduality": bid,
        "commutation_cells": heis,
    }
    if kac.origin == "group_algebra" and kac.group is not None:
        gd = du.group_dual_check(dd)
        report["group_dual"] = gd
        checks["group_dual_is_function_algebra"] = check(
            gd["max_residual"], lim["tight"]
        )
    report["checks"] = checks
    report["passed"] = _all_ok(checks)
    return report


def run_coreps(kac: kc.KacAlgebra, tol: float | None, seed: int, trials: int = 100) -> dict:
    lim = limits(tol)
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    ints = du.integrals(kac, hat)
    coreps = cr.irreducible_coreps(kac, v, hat)
    dims = cr.dimension_count(kac, coreps)
    orth = cr.orthogonality_check(kac, coreps)
    four = cr.fourier_round_trip(kac, coreps, count=trials, seed=seed)
    pw = cr.peter_weyl_resolution(kac, coreps, ints.e_hat)

    checks = {
        "pentagon": check(_max_float(v.residuals), lim["tight"]),
        "hat_algebra": check(_max_float(hat.residuals), lim["tight"]),
        "integrals": check(_max_float(ints.residuals), lim["tight"]),
        "corep_certificates": check(
            max(_max_float(c.residuals) for c in coreps), lim["tight"]
        ),
        "dimension_sum_exact": check_true(dims["exact"]),
        "orthogonality": check(orth["orthogonality"], lim["tight"]),
        "fourier_round_trip": check(four["round_trip"], lim["mid"]),
        "fourier_basis_cardinality": check_true(four["basis_cardinality_exact"]),
        "peter_weyl": check(pw["residual"], lim["mid"]),
    }
    report = {
        "dim": kac.dim,
        "corep_dims": [c.dim for c in coreps],
        "dimension_count": dims,
        "orthogonality": orth,
        "fourier": four,
        "peter_weyl": {k: v for k, v in pw.items() if k != "constant"},
        "checks": checks,
        "passed": _all_ok(checks),
    }
    return report


def run_galois(kac: kc.KacAlgebra, tol: float | None, seed: int) -> dict:
    lim = limits(tol)["loose"]
    rep = ci.galois_lattice_report(du.dual_kac(kac), seed=seed)
    coideal_docs = [
        {"dim": row["dim"], "projector_fingerprint": row["fingerprint"]}
        for row in rep["rows"]
    ]
    tilde_pairs = [
        {"dim": row["dim"], "tilde_dim": row["tilde_dim"]} for row in rep["rows"]
    ]
    checks = {
        "lattice_residual": check(rep["max_residual"], lim),
        "completeness": check(rep["completeness_residual"], lim),
        "order_reversal": check_true(rep["order_reversal_ok"]),
        "tilde_injective": check_true(rep["tilde_injective"]),
        "dim_products_exact": check_true(rep["dim_products_exact"]),
    }
    report = {
        "coideals": coideal_docs,
        "tilde_pairs": tilde_pairs,
        "checks": checks,
        "details": {
            "dims": rep["dims"],
            "tilde_dims": rep["tilde_dims"],
            "order_reversal_residual": rep["order_reversal_residual"],
            "max_residual": rep["max_residual"],
            "per_coideal": [
                {
                    k: row[k]
                    for k in (
                        "dim",
                        "tilde_dim",
                        "fingerprint",
                        "tilde_route_distance",
                        "tilde_involution",
                        "bicommutant",
                        "jones_max",
                    )
                }
                for row in rep["rows"]
            ],
        },
        "passed": _all_ok(checks),
    }
    return report


def run_jones(inc: jn.Inclusion, tol: float | None) -> dict:
    lim = limits(tol)
    bc, dw, rep, ext = jn.jones_chain(inc)

    index_eigs = np.sort(np.linalg.eigvalsh(dw.index_element))
    index_trace = float(np.trace(dw.index_element).real)
    r = rep.residuals
    checks = {
        "three_way_extension": check(bc.residuals["three_way_max"], lim["loose"]),
        "e_implements_expectation": check(bc.residuals["e_vector"], lim["mid"]),
        "e_compression": check(bc.residuals["e_compress"], lim["mid"]),
        "e_commutes_with_small": check(bc.residuals["e_commutes_small"], lim["mid"]),
        "conjugation_fixes_e": check(bc.residuals["j_fixes_e"], lim["mid"]),
        "weight_pin_consistent": check(dw.residuals["pin_consistency"], lim["mid"]),
        "weight_unit_from_e": check(dw.residuals["unit_from_e"], lim["mid"]),
        "index_in_big": check(dw.residuals["index_in_big"], lim["mid"]),
        "index_central": check(dw.residuals["index_central"], lim["mid"]),
        "push_down": check(dw.residuals["push_down"], lim["mid"]),
        "weight_range_in_big": check(dw.residuals["range_in_big"], lim["mid"]),
        "weight_adjoint_compatible": check(
            dw.residuals["adjoint_compatible"], lim["mid"]
        ),
        "weight_bimodule": check(dw.residuals["bimodule"], lim["mid"]),
        "weight_positive": check(-dw.residuals["min_positivity_eig"], lim["mid"]),
        "mirror_preserves_relcomm": check(r["mirror_preserves"], lim["loose"]),
        "mirror_involutive": check(r["mirror_involution"], lim["loose"]),
        "mirror_antimultiplicative": check(r["mirror_antimultiplicative"], lim["loose"]),
        "mirror_pairing": check(r["mirror_pair_match"], lim["loose"]),
        "mirror_pairing_involutive": check(r["mirror_pairing_involutive"], lim["loose"]),
        "generator_trace_balance": check(r["trace_transport"], lim["loose"]),
        "generator_positive": check(-r["generator_min_eig"], lim["mid"]),
        "extremality_criteria_agree": check_true(ext["criteria_agree"]),
        "gns": check(_max_float(bc.gns.residuals), lim["mid"]),
    }
    report = {
        "inclusion": {
            "dim_big": inc.big.dim,
            "dim_small": inc.small.dim,
            "ambient_dim": inc.big.ambient_dim,
            "label": inc.label,
        },
        "extension": {
            "gns_dim": bc.gns.space_dim,
            "m1_dim": bc.shared.m1.dim,
            "residuals": bc.residuals,
        },
        "gns": bc.gns.residuals,
        "dual_weight": {
            "index_trace": index_trace,
            "index_eigenvalues": [float(x) for x in index_eigs],
            "residuals": dw.residuals,
        },
        "relative_commutant": {
            "dim": rep.algebra.dim,
            "summands": [
                {
                    "block": list(s["block"]),
                    "rank": s["rank"],
                    "generator_spectrum": s["spectrum"],
                    "generator_squared_spectrum": s["squared_spectrum"],
                    "mirror_mate": s["mate"],
                }
                for s in rep.summands
            ],
            "mirror_pairs": list(rep.mirror_pairs),
            # The taxonomy slots: at finite dimension the weight is finite
            # everywhere, so every singular slot is empty.
            "four_part": {
                "regular_dim": rep.algebra.dim,
                "left_singular_dim": 0,
                "right_singular_dim": 0,
                "bi_singular_dim": 0,
                "weight_finite_on_unit": index_trace,
            },
        },
        "j_action": {
            "preserves_relative_commutant": r["mirror_preserves"],
            "involution": r["mirror_involution"],
            "antimultiplicative": r["mirror_antimultiplicative"],
            "pairing": list(rep.mirror_pairs),
        },
        "flow_generators": {
            "times": list(jn.FLOW_TIMES),
            "assembled_spectrum": [
                float(x) for x in jn.flow_spectrum(rep)
            ],
            "flow_match": r["flow_match"],
            "flow_identity_defect": r["flow_identity_defect"],
            "mirror_commutes_with_flow": r["mirror_commutes_with_flow"],
            "state_density_min_eig": r["flow_density_min_eig"],
        },
        "extremal": ext["extremal"],
        "extremality": ext,
        "checks": checks,
        "passed": _all_ok(checks),
    }
    return report


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def _selftest_algebra(kac: kc.KacAlgebra, tol: float | None, seed: int) -> dict:
    """The per-algebra slice of the built-in suite (duality + coreps + galois)."""
    lim = limits(tol)
    vrep = kc.validate_kac(kac, tol=lim["tight"])
    dd = du.dual_kac(kac)
    bid = du.bidual_check(dd)
    coreps = cr.irreducible_coreps(kac, dd.v, dd.hat)
    dims = cr.dimension_count(kac, coreps)
    orth = cr.orthogonality_check(kac, coreps)
    four = cr.fourier_round_trip(kac, coreps, count=10, seed=seed)
    pw = cr.peter_weyl_resolution(kac, coreps, dd.ints.e_hat)
    gal = ci.galois_lattice_report(dd, seed=seed)

    checks = {
        "axioms": check(vrep["max_residual"], lim["tight"]),
        "pentagon": check(_max_float(dd.v.residuals), lim["tight"]),
        "dual_axioms": check(dd.axiom_report["max_residual"], lim["tight"]),
        "biduality": check(bid["max_residual"], lim["loose"]),
        "corep_dims_exact": check_true(dims["exact"]),
        "orthogonality": check(orth["orthogonality"], lim["tight"]),
        "fourier_round_trip": check(four["round_trip"], lim["mid"]),
        "peter_weyl": check(pw["residual"], lim["mid"]),
        "galois_lattice": check(gal["max_residual"], lim["loose"]),
        "galois_completeness": check(gal["completeness_residual"], lim["loose"]),
        "galois_structure": check_true(
            gal["order_reversal_ok"]
            and gal["tilde_injective"]
            and gal["dim_products_exact"]
        ),
    }
    if kac.origin == "group_algebra" and kac.group is not None:
        gd = du.group_dual_check(dd)
        checks["group_dual_is_function_algebra"] = check(
            gd["max_residual"], lim["tight"]
        )
    doc = {
        "dim": kac.dim,
        "corep_dims": [c.dim for c in coreps],
        "coideal_dims": gal["dims"],
        "checks": checks,
        "passed": _all_ok(checks),
    }
    return doc


def _selftest_group(name: str, build, tol: float | None, seed: int) -> dict:
    """The slice of the group or function algebra (``build``) of ``GROUP_BUILDERS``' ``name``."""
    return _selftest_algebra(build(dict(GROUP_BUILDERS)[name]()), tol, seed)


def _selftest_fixture_inclusion(name: str, tol: float | None) -> dict:
    """One of ``SELFTEST_FIXTURES`` through the pipeline, against its expected values."""
    make, expect = SELFTEST_FIXTURES[name]
    inc = make()
    doc = run_jones(inc, tol)
    lim = limits(tol)
    checks = doc["checks"]
    if "index_trace" in expect:
        checks["index_trace_expected"] = check(
            abs(doc["dual_weight"]["index_trace"] - expect["index_trace"]), lim["mid"]
        )
    if "index_eigenvalues" in expect:
        got = np.asarray(doc["dual_weight"]["index_eigenvalues"])
        want = np.asarray(expect["index_eigenvalues"], dtype=float)
        checks["index_eigenvalues_expected"] = check(
            float(np.abs(got - want).max()) if got.shape == want.shape else 1.0,
            lim["mid"],
        )
    if "squared_spectrum" in expect:
        got = np.sort(
            np.concatenate(
                [
                    s["generator_squared_spectrum"]
                    for s in doc["relative_commutant"]["summands"]
                ]
            )
        )
        want = np.sort(np.asarray(expect["squared_spectrum"], dtype=float))
        checks["generator_squared_spectrum_expected"] = check(
            float(np.abs(got - want).max()) if got.shape == want.shape else 1.0,
            lim["mid"],
        )
    if "extremal" in expect:
        checks["extremal_expected"] = check_true(
            doc["extremal"] == expect["extremal"]
        )
    if "markov_index" in expect and inc.bratteli is not None:
        oracle = jn.bratteli_norm_sq(inc.bratteli)
        eigs = np.asarray(doc["dual_weight"]["index_eigenvalues"])
        checks["markov_index_oracle"] = check(
            float(np.abs(eigs - oracle).max()), lim["loose"]
        )
    doc["checks"] = checks
    doc["passed"] = _all_ok(checks)
    return doc


def _selftest_kp8(tol: float | None) -> dict:
    """The Kac–Paljutkin slice: axioms, pentagon and corepresentation dims."""
    kp_doc = json.loads(
        resources.files("kacgalois").joinpath("fixtures/kp8.json").read_text()
    )
    kp = kc.load_kac(kp_doc, validate=False)
    lim = limits(tol)
    kp_val = kc.validate_kac(kp, tol=lim["tight"])
    v = du.multiplicative_unitary(kp)
    coreps = cr.irreducible_coreps(kp, v, du.hat_algebra(kp, v))
    kp_checks = {
        "axioms": check(kp_val["max_residual"], lim["tight"]),
        "pentagon": check(_max_float(v.residuals), lim["tight"]),
        "corep_dims_exact": check_true(
            sorted(c.dim for c in coreps) == [1, 1, 1, 1, 2]
        ),
    }
    doc = {
        "dim": kp.dim,
        "corep_dims": sorted(c.dim for c in coreps),
        "checks": kp_checks,
        "passed": _all_ok(kp_checks),
    }
    return doc


def _selftest_random_inclusion(draw: int, tol: float | None) -> dict:
    """One random draw through the pipeline; its ω-variation is read for its flow alone."""
    lim = limits(tol)
    inc = jn.random_inclusion(draw)
    doc = run_jones(inc, tol)
    doc["checks"]["flow_matches_generator_orbit"] = check(
        doc["flow_generators"]["flow_match"], lim["loose"]
    )
    bc2 = jn.basic_extension(jn.omega_variation(inc, draw + 1))
    rep2 = jn.relcomm_report(bc2, jn.dual_weight(bc2))
    spectrum = np.asarray(doc["flow_generators"]["assembled_spectrum"])
    spec_dist = float(np.abs(jn.flow_spectrum(rep2) - spectrum).max())
    doc["checks"]["state_independent_spectrum"] = check(spec_dist, lim["loose"])
    doc["checks"]["state_independent_flow"] = check(
        rep2.residuals["flow_match"], lim["loose"]
    )
    doc["passed"] = _all_ok(doc["checks"])
    return doc


SELFTEST_FIXTURES = {
    "scaled_pair_third": (
        lambda: jn.fixture_scaled_pair(1.0 / 3.0),
        {
            "index_trace": 4.5,
            "index_eigenvalues": [1.5, 3.0],
            "squared_spectrum": [0.5, 2.0],
            "extremal": False,
        },
    ),
    "scaled_pair_half": (
        lambda: jn.fixture_scaled_pair(0.5),
        {"index_trace": 4.0, "extremal": True},
    ),
    "point_in_full": (
        jn.fixture_point_in_full,
        {"extremal": True, "markov_index": True},
    ),
    "pinch": (jn.fixture_pinch, {"extremal": True, "markov_index": True}),
    "markov_chain": (
        jn.fixture_markov_chain,
        {"extremal": True, "markov_index": True},
    ),
}


def _selftest_slices(tol: float | None, seed: int) -> list[tuple[tuple[str, ...], functools.partial]]:
    """The selftest's independent slices as (report path, work), the slowest first.

    The two random draws lead, then the groups from Q₈ down, so that on two
    workers no slow slice starts last; the report is keyed by path, so the
    order leaves its bytes alone.  A work is a call of a module-level
    function with its arguments bound, so that it pickles for the workers of
    :func:`_map_tasks`.
    """
    sides = (("group_algebra", kc.group_algebra), ("function_algebra", kc.function_algebra))
    return [
        *((("random_inclusions", f"seed_{draw}"), functools.partial(_selftest_random_inclusion, draw, tol))
          for draw in (2 * seed, 2 * seed + 1)),
        *((("groups", name, side), functools.partial(_selftest_group, name, build, tol, seed))
          for name, _ in reversed(GROUP_BUILDERS) for side, build in sides),
        (("kac_paljutkin",), functools.partial(_selftest_kp8, tol)),
        *((("inclusion_fixtures", name), functools.partial(_selftest_fixture_inclusion, name, tol))
          for name in SELFTEST_FIXTURES),
    ]


def _call(work):
    return work()


def _map_tasks(works: list) -> list:
    """The result of each of ``works``, in order, run on up to one worker per CPU.

    Workers are forked: the slices are Python-bound calls on small matrices,
    so threads would serialize on the interpreter lock, and spawned workers
    would each re-import numpy and the package.  The process holds no thread
    that fork could break (BLAS is pinned to one), every slice seeds its own
    generators, and the BLAS pin is inherited, so the results are the same
    bytes as in one process.  ``pool.map`` starts the works in the order
    given and reads their results in that order, so an exception reaches the
    caller as it would from a sequential run.
    """
    # Imported here: the pool's modules take about 30 ms to import, which
    # every other command would pay at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(works))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [work() for work in works]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_call, works))


def run_selftest(tol: float | None, seed: int) -> dict:
    paths, works = zip(*_selftest_slices(tol, seed))
    docs = _map_tasks(works)
    report: dict = {}
    for (*parents, leaf), doc in zip(paths, docs):
        functools.reduce(lambda node, key: node.setdefault(key, {}), parents, report)[leaf] = doc
    report["passed"] = all(doc["passed"] for doc in docs)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises :class:`argparse.ArgumentError` where argparse would print its usage and exit 2."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kacgalois",
        description=(
            "Finite-dimensional Kac algebra duality, coideal Galois lattices, "
            "and Jones basic constructions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_input: bool, help_text: str):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="path to the input JSON document")
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="override every check limit with this value (positive, finite)",
        )
        p.add_argument(
            "--seed", type=int, default=7,
            help="seed of the Fourier probes, the coideal audit pairs and selftest's draws",
        )
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="output format (JSON is canonical)",
        )
        p.add_argument(
            "--output", default=None, help="write the report here instead of stdout"
        )
        return p

    add("validate", True, "check every Kac axiom of a KacAlgebra JSON file")
    add("dual", True, "multiplicative unitary, dual algebra, biduality")
    add("check-duality", True, "alias of 'dual'")
    add("coreps", True, "irreducible corepresentations, Fourier, Peter-Weyl")
    add("coideals", True, "coideal lattice and Galois report (alias of 'galois')")
    add("galois", True, "coideal lattice and Galois anti-isomorphism report")
    add("jones", True, "basic construction and dual weight of an inclusion JSON")
    add("selftest", False, "run the full built-in suite on bundled fixtures")
    return parser


def _sha256(data: bytes) -> str:
    import hashlib  # loads OpenSSL, so only for a command that reads a file

    return hashlib.sha256(data).hexdigest()


def _bundled_hash() -> str:
    import hashlib

    root = resources.files("kacgalois").joinpath("fixtures")
    digest = hashlib.sha256()
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            digest.update(entry.name.encode())
            digest.update(entry.read_bytes())
    return digest.hexdigest()


def _emit(envelope: dict, args: argparse.Namespace, out) -> None:
    """Write ``envelope`` with the command line's fields to ``out``, in the format asked."""
    doc = dict(
        envelope, command=args.command, seed=args.seed, tolerance=args.tolerance, format=args.format
    )
    if args.format == "json":
        payload = canonical_json(doc)
    else:
        payload = "\n".join(render_text(_jsonify(doc))) + "\n"
    out.write(payload)


def main(argv: list[str] | None = None) -> int:
    # argparse sets ``command`` as soon as it reaches the subcommand, and that
    # subcommand's flags only once they all parse: a command line refused
    # before then reports them as null, in JSON on standard output.
    args = argparse.Namespace(command=None, seed=None, tolerance=None, format="json", output=None)
    envelope = {"tool": "kacgalois", "version": __version__}
    out = sys.stdout

    try:
        build_parser().parse_args(argv, args)
        command = args.command
        if args.tolerance is not None and not 0 < args.tolerance < np.inf:
            raise ValueError(f"--tolerance must be positive and finite, got {args.tolerance}")
        if args.output:  # before any work, so that an unwritable path exits 2 at once
            source = getattr(args, "input", None)
            if source and os.path.exists(source) and os.path.exists(args.output):
                if os.path.samefile(source, args.output):
                    raise ValueError(f"--output {args.output} is the input file; it would be truncated")
            out = open(args.output, "w")
        if command == "selftest":
            envelope["input_sha256"] = _bundled_hash()
            report = run_selftest(args.tolerance, args.seed)
        else:
            with open(args.input, "rb") as fh:  # read once: the hash is of the bytes parsed
                data = fh.read()
            envelope["input_sha256"] = _sha256(data)
            doc = json.loads(data.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError(
                    f"the input document must be a JSON object, not {type(doc).__name__}"
                )
            if command == "jones":
                report = run_jones(parse_inclusion(doc), args.tolerance)
            else:
                kac = kc.load_kac(doc, validate=False)
                if command == "validate":
                    report = run_validate(kac, args.tolerance)
                elif command in ("dual", "check-duality"):
                    report = run_dual(kac, args.tolerance)
                elif command == "coreps":
                    report = run_coreps(kac, args.tolerance, args.seed)
                else:  # coideals / galois
                    report = run_galois(kac, args.tolerance, args.seed)
    except INPUT_ERRORS as exc:
        envelope["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        envelope["passed"] = False
        _emit(envelope, args, out)
        return 2
    else:
        envelope["report"] = report
        envelope["passed"] = report["passed"]
        _emit(envelope, args, out)
        return 0 if report["passed"] else 1
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
