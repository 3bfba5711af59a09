"""Regular multiplicative unitaries, integrals, pairing, and biduality."""

import numpy as np
import pytest

from kacgalois import duality as du
from kacgalois import kac as kc
from kacgalois import linalg as la

from conftest import ALGEBRA_NAMES, GROUP_NAMES


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_fundamental_unitary_pentagon_and_action(algebras, name):
    v = du.multiplicative_unitary(algebras[name])
    assert v.residuals["unitary"] < 1e-10
    assert v.residuals["pentagon"] < 1e-10
    assert v.residuals["defining_action"] < 1e-10


def test_fundamental_unitary_pentagon_on_bundled_algebra(kp8):
    v = du.multiplicative_unitary(kp8)
    assert v.residuals["pentagon"] < 1e-10
    assert v.residuals["unitary"] < 1e-10


def dense_pentagon_opnorm(v, n):
    """Reference ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖₂ from explicit n³×n³ Kronecker operators."""
    eye = np.eye(n, dtype=complex)
    v12 = np.kron(v, eye)
    v23 = np.kron(eye, v)
    swap23 = np.kron(eye, la.flip_operator(n))
    v13 = swap23 @ v12 @ swap23
    return la.opnorm(v12 @ v13 @ v23 - v23 @ v12)


def test_pentagon_residual_bounds_the_operator_norm_from_above(kp8):
    n = kp8.dim
    v = du.multiplicative_unitary(kp8).matrix
    rng = np.random.default_rng(0)
    w = v + 1e-3 * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
    dense = dense_pentagon_opnorm(w, n)
    assert dense > 1e-4
    assert dense <= du.pentagon_residual(w, n) <= np.sqrt(n**3) * dense


def test_pentagon_residual_trips_on_one_corrupted_entry(kp8):
    v = du.multiplicative_unitary(kp8).matrix
    v[3, 5] += 1e-6
    assert du.pentagon_residual(v, kp8.dim) > 1e-10


def test_sampled_pentagon_on_cyclic_group_of_order_13():
    kac = kc.group_algebra(kc.cyclic_group(13))
    assert kac.dim**3 > 2048  # beyond the exact Frobenius branch
    v = du.multiplicative_unitary(kac)
    assert v.residuals["pentagon"] < 1e-10
    corrupted = v.matrix.copy()
    corrupted[3, 5] += 1e-6
    assert du.pentagon_residual(corrupted, kac.dim) > 1e-10


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_slice_algebra_and_integrals(algebras, dual_of, name):
    dd = dual_of(algebras[name])
    hat = dd.hat
    assert hat.residuals["dimension"] == 0.0
    assert max(hat.residuals.values()) < 1e-10
    ints = dd.ints
    assert max(ints.residuals.values()) < 1e-10
    # both integrals are projections of rank matching their Haar value
    kac = algebras[name]
    assert abs(np.trace(ints.e_op) - 1.0) < 1e-9  # h(e)=1/n on an n-dim image? no: e has rank 1 per block
    assert la.frob(ints.e_op @ ints.e_op - ints.e_op) < 1e-10
    assert la.frob(ints.e_hat @ ints.e_hat - ints.e_hat) < 1e-10


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_antipode_unitaries_and_their_pentagons(algebras, dual_of, name):
    kac = algebras[name]
    dd = dual_of(kac)
    hu = du.hat_unitaries(kac, dd.v, dd.hat)
    res = hu.residuals
    assert res["u_unitary"] < 1e-10 and res["u_involutive"] < 1e-10
    assert res["v_hat_pentagon"] < 1e-10
    assert res["v_tilde_pentagon"] < 1e-10
    assert res["v_hat_in_a_tensor_hatcomm"] < 1e-10
    assert res["v_tilde_in_acomm_tensor_hat"] < 1e-10
    assert res["v_hat_defining_action"] < 1e-10
    assert res["v_tilde_implements_dual_coproduct"] < 1e-10


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_dual_is_a_kac_algebra(algebras, dual_of, name):
    dd = dual_of(algebras[name])
    assert dd.axiom_report["passed"]
    assert dd.axiom_report["max_residual"] < 1e-10
    assert max(dd.residuals.values()) < 1e-9


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_pairing_intertwines_both_structures(algebras, dual_of, name):
    dd = dual_of(algebras[name])
    res = dd.pairing_form.residuals
    assert res["nondegenerate"] == 0.0
    assert res["unit_pairs_to_dual_counit"] < 1e-9
    assert res["dual_unit_pairs_to_counit"] < 1e-9
    assert res["pairing_product_vs_dual_coproduct"] < 1e-9
    assert res["pairing_coproduct_vs_dual_product"] < 1e-9


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_dual_of_group_algebra_is_the_function_algebra(algebras, dual_of, name):
    report = du.group_dual_check(dual_of(algebras[f"{name}_group"]))
    assert report["dual_commutative"] < 1e-9
    assert report["coproduct_is_group_convolution"] < 1e-9
    assert report["antipode_is_inversion"] < 1e-9
    assert report["haar_is_uniform"] < 1e-9
    assert report["counit_is_evaluation_at_identity"] < 1e-9
    assert report["max_residual"] < 1e-9


def test_group_dual_check_requires_group_origin(kp8, dual_of):
    with pytest.raises(ValueError):
        du.group_dual_check(dual_of(kp8))


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_bidual_recovers_the_algebra(algebras, dual_of, name):
    report = du.bidual_check(dual_of(algebras[name]))
    assert report["max_residual"] < 1e-8


def test_bidual_on_bundled_algebra(kp8, dual_of):
    report = du.bidual_check(dual_of(kp8))
    assert report["max_residual"] < 1e-8


@pytest.mark.parametrize("name", ["z3_group", "s3_function", "q8_group"])
def test_algebra_and_dual_satisfy_compression_identities(
    algebras, dual_of, coreps_of, name
):
    kac = algebras[name]
    report = du.heisenberg_identities(dual_of(kac), coreps_of(kac))
    assert report["compressed_product"] < 1e-9
    assert report["coproduct_contracted"] < 1e-9
    assert report["v_expansion"] < 1e-9


def test_dual_of_commutative_is_cocommutative(algebras, dual_of):
    dd = dual_of(algebras["s3_function"])
    d = dd.kac.delta
    assert np.abs(d - d.transpose(0, 2, 1)).max() < 1e-9


def test_dual_dimension_matches(algebras, dual_of):
    for name in ("z4_group", "q8_function"):
        assert dual_of(algebras[name]).kac.dim == algebras[name].dim
