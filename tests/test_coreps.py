"""Irreducible corepresentations: dimensions, orthogonality, Fourier, fusion."""

import numpy as np
import pytest

from kacgalois import coreps as cr

from conftest import ALGEBRA_NAMES

EXPECTED_DIMS = {
    "z2_group": [1, 1],
    "z3_group": [1, 1, 1],
    "z4_group": [1, 1, 1, 1],
    "z2xz2_group": [1, 1, 1, 1],
    "s3_group": [1] * 6,
    "q8_group": [1] * 8,
    "z2_function": [1, 1],
    "z3_function": [1, 1, 1],
    "z4_function": [1, 1, 1, 1],
    "z2xz2_function": [1, 1, 1, 1],
    "s3_function": [1, 1, 2],
    "q8_function": [1, 1, 1, 1, 2],
}


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_irreducible_dimensions(algebras, coreps_of, name):
    kac = algebras[name]
    coreps = coreps_of(kac)
    assert sorted(c.dim for c in coreps) == EXPECTED_DIMS[name]
    count = cr.dimension_count(kac, coreps)
    assert count["exact"]
    assert count["sum_of_squares"] == kac.dim
    assert count["trivial_count"] == 1
    for c in coreps:
        assert max(c.residuals.values()) < 1e-9


def test_bundled_algebra_has_one_two_dimensional_corep(kp8, coreps_of):
    coreps = coreps_of(kp8)
    assert sorted(c.dim for c in coreps) == [1, 1, 1, 1, 2]
    assert cr.dimension_count(kp8, coreps)["exact"]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_entry_orthogonality(algebras, coreps_of, name):
    kac = algebras[name]
    report = cr.orthogonality_check(kac, coreps_of(kac))
    assert report["orthogonality"] < 1e-10


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_fourier_round_trip_on_random_elements(algebras, coreps_of, name):
    kac = algebras[name]
    report = cr.fourier_round_trip(kac, coreps_of(kac), count=100, seed=5)
    assert report["round_trip"] < 1e-9
    assert report["basis_cardinality_exact"]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_entries_resolve_the_identity(algebras, coreps_of, dual_of, name):
    kac = algebras[name]
    dd = dual_of(kac)
    report = cr.peter_weyl_resolution(kac, coreps_of(kac), dd.ints.e_hat)
    assert report["residual"] < 1e-9


@pytest.mark.parametrize("name", ["z3_function", "s3_function", "q8_function", "s3_group"])
def test_conjugation_is_an_involution(algebras, coreps_of, name):
    kac = algebras[name]
    report = cr.conjugation_involution(kac, coreps_of(kac))
    assert report["involution_exact"]
    assert report["central_projection_transport"] < 1e-9
    assert report["schur_dimension_defect"] == 0.0
    assert report["intertwiner_residual"] < 1e-8


def test_conjugation_swaps_nontrivial_characters_of_cyclic_three(algebras, coreps_of):
    kac = algebras["z3_function"]
    report = cr.conjugation_involution(kac, coreps_of(kac))
    fixed = [i for i, p in enumerate(report["pairs"]) if p == i]
    swapped = [i for i, p in enumerate(report["pairs"]) if p != i]
    assert len(fixed) == 1 and len(swapped) == 2


def fusion_multiset(kac, coreps, a, b):
    out = cr.decompose_tensor_product(kac, coreps, a, b)
    assert out["residuals"]["intertwining"] < 1e-8
    assert out["residuals"]["isometry"] < 1e-9
    assert out["residuals"]["completeness"] < 1e-8
    assert out["residuals"]["dimension_count_exact"]
    table = []
    for s in out["summands"]:
        table.extend([coreps[s["index"]].dim] * s["multiplicity"])
    return sorted(table)


def test_fusion_of_the_two_dimensional_corep(algebras, coreps_of):
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    two = next(c.index for c in coreps if c.dim == 2)
    # 2 ⊗ 2 = 1 ⊕ 1' ⊕ 2 in the six-element symmetric case
    assert fusion_multiset(kac, coreps, two, two) == [1, 1, 2]

    kac8 = algebras["q8_function"]
    coreps8 = coreps_of(kac8)
    two8 = next(c.index for c in coreps8 if c.dim == 2)
    # 2 ⊗ 2 decomposes into all four characters for the eight-element case
    assert fusion_multiset(kac8, coreps8, two8, two8) == [1, 1, 1, 1]


def test_fusion_with_trivial_corep_is_identity(algebras, coreps_of):
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    trivial = next(c.index for c in coreps if c.is_trivial)
    for c in coreps:
        assert fusion_multiset(kac, coreps, trivial, c.index) == [c.dim]


def test_fourier_coefficients_of_character_elements(algebras, coreps_of):
    # On a function algebra the coefficient matrix of a corep entry element is
    # the corresponding matrix unit (orthogonality in coefficient form).
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    for c in coreps:
        mats = cr.fourier_coefficients(kac, coreps, c.entries[0][0])
        for other, m in zip(coreps, mats):
            if other.index == c.index:
                expect = np.zeros((other.dim, other.dim), dtype=complex)
                expect[0, 0] = 1.0
                np.testing.assert_allclose(m, expect, atol=1e-9)
            else:
                np.testing.assert_allclose(m, 0.0 * m, atol=1e-9)


def test_mismatched_unitary_or_dual_is_rejected(algebras, dual_of):
    # S3's group algebra is not self-dual: its dual is the function algebra,
    # so pairing the dual with A's unitary must not pass as corepresentations.
    dd = dual_of(algebras["s3_group"])
    with pytest.raises(ValueError, match="different Kac algebra"):
        cr.irreducible_coreps(dd.kac, dd.v, dd.hat)
    z2, z3 = algebras["z2_group"], algebras["z3_group"]
    with pytest.raises(ValueError, match="dual algebra acts on dimension 3"):
        cr.irreducible_coreps(z2, dual_of(z2).v, dual_of(z3).hat)
