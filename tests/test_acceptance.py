"""Acceptance gate: the eleven shipping criteria, one pass/fail line each.

Each test prints exactly one ``[criterion NN] PASS — ...`` line when it
succeeds (run with ``pytest -s`` to see the lines live; under ``pytest -v``
the per-test PASSED/FAILED status carries the same information).  Tolerances
are pinned here and never loosened; shared heavy objects (duals, lattices,
the 50-inclusion family) are computed once per session/module.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from kacgalois import coideals as ci
from kacgalois import coreps as cr
from kacgalois import duality as du
from kacgalois import jones as jn
from kacgalois import kac as kc
from kacgalois import linalg as la

from conftest import ALGEBRA_NAMES, GROUP_NAMES
from test_coideals import brute_force_s3_subgroup_orders
from test_jones import derive_two_point_witness, power_iteration_norm_sq

FAMILY_SEEDS = range(50)


def report_line(number, description):
    print(f"\n[criterion {number:02d}] PASS — {description}")


@pytest.fixture(scope="module")
def family():
    """The 50-seed random-inclusion scan shared by criteria 8, 9, and 10."""
    rows = []
    for seed in FAMILY_SEEDS:
        inc = jn.random_inclusion(seed)
        bc, dw, rep, ext = jn.jones_chain(inc)
        rep_v = jn.jones_chain(jn.omega_variation(inc, seed + 1000)).report

        spectrum = np.sort(jn.flow_spectrum(rep))
        spectrum_v = np.sort(jn.flow_spectrum(rep_v))
        rows.append(
            {
                "seed": seed,
                "three_way": bc.residuals["three_way_max"],
                "push_down": dw.residuals["push_down"],
                "unit_from_e": dw.residuals["unit_from_e"],
                "index_central": dw.residuals["index_central"],
                "criteria_agree": ext["criteria_agree"],
                "flow_match": rep.residuals["flow_match"],
                "flow_match_varied": rep_v.residuals["flow_match"],
                "spectrum_shift": float(np.abs(spectrum - spectrum_v).max())
                if spectrum.shape == spectrum_v.shape
                else float("inf"),
            }
        )
    return rows


def test_criterion_01_kac_axioms(algebras, tensor_algebras):
    for name in ALGEBRA_NAMES:
        rep = kc.validate_kac(algebras[name])
        assert rep["passed"] and rep["max_residual"] < 1e-10, (name, rep["max_residual"])
    for name, prod in tensor_algebras.items():
        rep = kc.validate_kac(prod)
        assert rep["passed"] and rep["max_residual"] < 1e-10, (name, rep["max_residual"])
    report_line(1, "axioms < 1e-10 on 12 group-derived algebras and 4 tensor products")


def test_criterion_02_duality(algebras, dual_of):
    for name in ALGEBRA_NAMES:
        kac = algebras[name]
        dd = dual_of(kac)
        assert dd.v.residuals["pentagon"] < 1e-10, name
        hu = du.hat_unitaries(kac, dd.v, dd.hat)
        assert hu.residuals["v_hat_pentagon"] < 1e-10, name
        assert hu.residuals["v_tilde_pentagon"] < 1e-10, name
        assert hu.residuals["v_hat_defining_action"] < 1e-10, name
        assert hu.residuals["v_tilde_implements_dual_coproduct"] < 1e-10, name
        assert du.bidual_check(dd)["max_residual"] < 1e-8, name
    for gname in GROUP_NAMES:
        out = du.group_dual_check(dual_of(algebras[f"{gname}_group"]))
        assert out["dual_commutative"] < 1e-9, gname
        assert out["max_residual"] < 1e-9, gname
    report_line(
        2,
        "pentagons and hat-unitary actions < 1e-10, group duals are the "
        "function algebras, biduality < 1e-8",
    )


def test_criterion_03_orthogonality(algebras, tensor_algebras, kp8, coreps_of):
    pool = dict(algebras)
    pool.update(tensor_algebras)
    pool["kp8"] = kp8
    for name, kac in pool.items():
        coreps = coreps_of(kac)
        orth = cr.orthogonality_check(kac, coreps)
        assert orth["orthogonality"] < 1e-10, (name, orth)
        count = cr.dimension_count(kac, coreps)
        assert count["exact"] and count["sum_of_squares"] == kac.dim, name
    report_line(
        3, "entry orthogonality < 1e-10 and exact squared-dimension counts "
        f"on {len(pool)} algebras"
    )


def test_criterion_04_fourier(algebras, tensor_algebras, kp8, coreps_of, dual_of):
    pool = dict(algebras)
    pool.update(tensor_algebras)
    pool["kp8"] = kp8
    for name, kac in pool.items():
        coreps = coreps_of(kac)
        four = cr.fourier_round_trip(kac, coreps, count=100, seed=5)
        assert four["round_trip"] < 1e-9, (name, four)
        assert four["basis_cardinality_exact"], name
        pw = cr.peter_weyl_resolution(kac, coreps, dual_of(kac).ints.e_hat)
        assert pw["residual"] < 1e-9, (name, pw)
    report_line(
        4, "Fourier round trip < 1e-9 on 100 random elements per algebra and "
        "Peter-Weyl resolution < 1e-9"
    )


def test_criterion_05_subspace_system_round_trip(algebras, coreps_of, fusion_of, coideals_of):
    total = 0
    for name in ALGEBRA_NAMES:
        kac = algebras[name]
        coreps = coreps_of(kac)
        for coid in coideals_of(kac):
            sys_ = ci.subspace_system_from_coideal(kac, coid, coreps)
            back = ci.coideal_from_subspace_system(kac, fusion_of(kac), sys_)
            assert la.span_distance(coid.mm.onb(), back.mm.onb()) < 1e-9, name
            total += 1
    report_line(5, f"coideal <-> subspace-system round trip < 1e-9 on {total} coideals")


def test_criterion_06_galois_correspondence(algebras, lattice_of):
    for name in ALGEBRA_NAMES:
        report = lattice_of(name)
        n = algebras[name].dim
        for row in report["rows"]:
            assert row["dim"] * row["tilde_dim"] == n, name
            assert row["tilde_involution"] < 1e-9, name
            assert row["tilde_route_distance"] < 1e-9, name
            assert row["bicommutant"] < 1e-9, name
        assert report["order_reversal_ok"], name
        assert report["tilde_injective"], name

    oracle_orders = brute_force_s3_subgroup_orders()
    assert oracle_orders == [1, 2, 2, 2, 3, 6]
    s3 = lattice_of("s3_function")
    assert sorted(s3["dims"]) == sorted(6 // o for o in oracle_orders)
    assert len(s3["dims"]) == 6
    report_line(
        6, "Galois anti-isomorphism identities < 1e-9 with exact dimension "
        "products; six-point function algebra has exactly the 6 oracle coideals"
    )


def test_criterion_07_jones_projection_identities(lattice_of):
    total = 0
    for name in ALGEBRA_NAMES:
        for row in lattice_of(name)["rows"]:
            jp = row["jones_projection"]
            assert jp["dual_haar_value"] < 1e-9, name
            assert jp["counit_of_projected_integral"] < 1e-9, name
            assert jp["scaled_dual_expectation"] < 1e-9, name
            total += 1
    report_line(
        7, f"dual-Haar value, counit of projected integral, and scaled dual "
        f"expectation identities < 1e-9 on {total} coideals"
    )


def test_criterion_08_basic_construction(family):
    for row in family:
        assert row["three_way"] < 1e-8, row
        assert row["push_down"] < 1e-9, row
        assert row["unit_from_e"] < 1e-9, row
        assert row["index_central"] < 1e-9, row

    markov_fixtures = [
        jn.fixture_scaled_pair(0.5),
        jn.fixture_point_in_full(),
        jn.fixture_pinch(),
        jn.fixture_markov_chain(),
    ]
    for inc in markov_fixtures:
        oracle = power_iteration_norm_sq(inc.bratteli)
        dw = jn.dual_weight(jn.basic_extension(inc))
        eigs = np.linalg.eigvalsh(dw.index_element)
        assert np.abs(eigs - oracle).max() < 1e-8, inc.label
    report_line(
        8, "extension identities on 50 seeded inclusions and Markov indices "
        "matching the power-iteration oracle"
    )


def test_criterion_09_witness_and_extremality(family):
    oracle = derive_two_point_witness(1.0 / 3.0)
    np.testing.assert_allclose(oracle["a_squared_eigs"], [0.5, 2.0], atol=1e-12)

    inc = jn.fixture_scaled_pair(1.0 / 3.0)
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    rep = jn.relcomm_report(bc, dw)
    squared = np.sort(np.concatenate([s["squared_spectrum"] for s in rep.summands]))
    assert np.abs(squared - oracle["a_squared_eigs"]).max() < 1e-9
    np.testing.assert_allclose(squared, [0.5, 2.0], atol=1e-9)

    ext = jn.extremality(bc, dw, rep)
    assert ext["extremal"] is False
    assert all(row["criteria_agree"] for row in family)
    report_line(
        9, "witness generator squared spectrum {0.5, 2} against the 2x2 "
        "oracle, extremal flag false, both criteria agree on all 50 seeds"
    )


def test_criterion_10_modular_flow(family):
    assert jn.FLOW_TIMES[0] == 0.3 and jn.FLOW_TIMES[1] == 1.0
    assert abs(jn.FLOW_TIMES[2] - np.sqrt(2.0)) < 1e-15
    for row in family:
        assert row["flow_match"] < 1e-8, row
        assert row["flow_match_varied"] < 1e-8, row
        assert row["spectrum_shift"] < 1e-8, row
    report_line(
        10, "canonical-weight flow matches the generator orbit at t in "
        "{0.3, 1, sqrt 2} and is state-change invariant on all 50 seeds"
    )


def test_criterion_11_cli_determinism():
    def run_selftest():
        return subprocess.run(
            [sys.executable, "-m", "kacgalois", "selftest", "--seed", "7"],
            capture_output=True,
            timeout=300,
        )

    first = run_selftest()
    second = run_selftest()
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["passed"] is True
    report_line(11, "selftest --seed 7 exits 0 twice with byte-identical reports")
