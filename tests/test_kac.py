"""Kac algebra constructors, the axiom validator, and JSON round trips."""

import dataclasses

import numpy as np
import pytest

from kacgalois import kac as kc

from conftest import ALGEBRA_NAMES


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_axioms_hold_on_group_derived_algebras(algebras, name):
    report = kc.validate_kac(algebras[name])
    assert report["passed"]
    assert report["max_residual"] < 1e-10


def test_axioms_hold_on_tensor_products(algebras, tensor_algebras):
    for name, prod in tensor_algebras.items():
        left, right = name.split("*")
        assert prod.dim == algebras[left].dim * algebras[right].dim
        report = kc.validate_kac(prod)
        assert report["passed"], (name, report["max_residual"])
        assert report["max_residual"] < 1e-10


def test_bundled_eight_dimensional_algebra_validates(kp8):
    assert kp8.dim == 8
    report = kc.validate_kac(kp8)
    assert report["passed"]
    assert report["max_residual"] < 1e-10


def test_function_algebra_is_commutative_group_algebra_matches_group(groups):
    for name, g in groups.items():
        fn = kc.function_algebra(g)
        assert np.abs(fn.mult - fn.mult.transpose(1, 0, 2)).max() < 1e-12
        ga = kc.group_algebra(g)
        commutative = np.abs(ga.mult - ga.mult.transpose(1, 0, 2)).max() < 1e-12
        assert commutative == np.array_equal(g.table, g.table.T)


def test_group_algebra_antipode_is_inversion(groups):
    g = groups["s3"]
    ga = kc.group_algebra(g)
    for x in range(g.order):
        e_x = np.zeros(g.order)
        e_x[x] = 1.0
        image = ga.antipode.T @ e_x
        expect = np.zeros(g.order)
        expect[g.inverse[x]] = 1.0
        np.testing.assert_allclose(image, expect, atol=1e-12)


def test_haar_is_uniform_on_function_algebra(groups):
    fn = kc.function_algebra(groups["z4"])
    np.testing.assert_allclose(fn.haar, np.full(4, 0.25), atol=1e-12)


@pytest.mark.parametrize("name", ["s3_function", "q8_group"])
def test_save_load_round_trip(tmp_path, algebras, name):
    kac = algebras[name]
    path = tmp_path / f"{name}.json"
    kc.save_kac(kac, str(path))
    back = kc.load_kac(str(path))
    np.testing.assert_allclose(back.mult, kac.mult, atol=1e-12)
    np.testing.assert_allclose(back.delta, kac.delta, atol=1e-12)
    np.testing.assert_allclose(back.antipode, kac.antipode, atol=1e-12)
    np.testing.assert_allclose(back.star, kac.star, atol=1e-12)
    np.testing.assert_allclose(back.counit, kac.counit, atol=1e-12)
    np.testing.assert_allclose(back.haar, kac.haar, atol=1e-12)
    assert back.labels == kac.labels
    assert back.origin == kac.origin
    assert back.group is not None
    np.testing.assert_array_equal(back.group.table, kac.group.table)


def test_load_accepts_parsed_document(algebras):
    doc = algebras["z3_group"].to_json()
    back = kc.load_kac(doc)
    assert back.dim == 3


@pytest.mark.parametrize(
    "field,index",
    [("mult", (0, 0, 0)), ("delta", (0, 0, 0)), ("antipode", (0, 0)), ("star", (1, 0))],
)
def test_loader_rejects_corrupted_structure(algebras, field, index):
    doc = algebras["z3_group"].to_json()
    cell = doc[field]
    for i in index[:-1]:
        cell = cell[i]
    cell[index[-1]] = [cell[index[-1]][0] + 0.3, cell[index[-1]][1]]
    with pytest.raises(kc.AxiomError):
        kc.load_kac(doc)


def test_loader_rejects_missing_field_and_bad_shape(algebras):
    doc = algebras["z2_group"].to_json()
    del doc["antipode"]
    with pytest.raises(kc.AxiomError):
        kc.load_kac(doc)
    doc2 = algebras["z2_group"].to_json()
    doc2["haar"] = doc2["haar"][:1]
    with pytest.raises(kc.AxiomError):
        kc.load_kac(doc2)


def test_loader_rejects_non_group_table(algebras):
    doc = algebras["z4_group"].to_json()
    doc["group"]["mult"][0][0] = 3  # identity row broken
    with pytest.raises(kc.AxiomError):
        kc.load_kac(doc)


def test_validator_flags_broken_coassociativity(algebras):
    kac = algebras["z3_group"]
    delta = kac.delta.copy()
    delta[0, 0, 0] += 0.05
    report_ok = kc.validate_kac(kac)
    assert report_ok["coproduct_coassociative"] < 1e-12
    try:
        broken = kc.kac_from_structure(
            list(kac.labels), kac.mult, delta, kac.counit,
            kac.antipode, kac.star, kac.haar,
        )
    except kc.AxiomError:
        return  # rejected at construction: acceptable
    report = kc.validate_kac(broken)
    assert not report["passed"]


def test_representation_star_checks_every_basis_element(algebras):
    # n = 24: a star row past the first eight is checked too.
    kac = kc.tensor_kac(algebras["s3_function"], algebras["z4_group"])
    assert kc.validate_kac(kac)["representation_star"] < 1e-12
    star = kac.star.copy()
    star[20] *= 1.5
    report = kc.validate_kac(dataclasses.replace(kac, star=star))
    assert report["representation_star"] == pytest.approx(1.0, abs=1e-12)


def loop_coproduct_multiplicative(kac):
    """Reference: max |Δ(bᵢbⱼ) − Δ(bᵢ)Δ(bⱼ)| contracted one index i at a time."""
    m, d = kac.mult, kac.delta
    hom = 0.0
    for i in range(kac.dim):
        lhs = np.einsum("jk,kef->jef", m[i], d)
        t1 = np.einsum("ab,ace->bce", d[i], m)
        mid = np.einsum("bce,jcq->bejq", t1, d)
        rhs = np.einsum("bejq,bqf->jef", mid, m)
        hom = max(hom, float(np.abs(lhs - rhs).max()))
    return hom


def perturbed_structure(kac, seed, size):
    """``kac`` with seeded complex noise of scale ``size`` on mult and delta."""
    rng = np.random.default_rng(seed)

    def noise(shape):
        return size * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return dataclasses.replace(
        kac, mult=kac.mult + noise(kac.mult.shape), delta=kac.delta + noise(kac.delta.shape)
    )


@pytest.mark.parametrize("which", ["kp8", "s3_function*z2_group"])
def test_coproduct_multiplicative_matches_the_per_index_loop(kp8, tensor_algebras, which):
    kac = kp8 if which == "kp8" else tensor_algebras[which]
    assert kc.validate_kac(kac)["coproduct_multiplicative"] < 1e-12
    broken = perturbed_structure(kac, seed=5, size=1e-3)
    got = kc.validate_kac(broken)
    assert got["coproduct_multiplicative"] == pytest.approx(
        loop_coproduct_multiplicative(broken), rel=1e-12
    )
    assert got["coproduct_multiplicative"] > 1e-4


def unoptimised_three_operand_residuals(kac):
    """Reference: ``validate_kac``'s three-operand residuals as plain einsums."""
    m, d, s, st = kac.mult, kac.delta, kac.antipode, kac.star
    eps_u = np.outer(kac.counit, kac.unit_coeffs)
    return {
        "coproduct_star": np.abs(
            np.einsum("ip,pab->iab", st, d)
            - np.einsum("iab,ap,bq->ipq", np.conj(d), st, st)
        ).max(),
        "antipode_left": np.abs(np.einsum("kab,ap,pbr->kr", d, s, m) - eps_u).max(),
        "antipode_right": np.abs(np.einsum("kab,bp,apr->kr", d, s, m) - eps_u).max(),
        "antipode_antimultiplicative": np.abs(
            np.einsum("ijk,kr->ijr", m, s) - np.einsum("ja,ib,abr->ijr", s, s, m)
        ).max(),
        "star_antimultiplicative": np.abs(
            np.einsum("ijk,kr->ijr", np.conj(m), st)
            - np.einsum("jq,ip,qpr->ijr", st, st, m)
        ).max(),
    }


@pytest.mark.parametrize("which", ["kp8", "s3_function*z2_group"])
def test_three_operand_residuals_match_the_unoptimised_einsums(kp8, tensor_algebras, which):
    kac = kp8 if which == "kp8" else tensor_algebras[which]
    broken = perturbed_structure(kac, seed=5, size=1e-3)
    got = kc.validate_kac(broken)
    for name, want in unoptimised_three_operand_residuals(broken).items():
        assert want > 1e-5, name
        assert got[name] == pytest.approx(want, rel=1e-12), name


def test_group_table_validation(groups):
    for g in groups.values():
        rep = g.validate()
        assert rep["passed"]
    bad = kc.GroupTable(order=3, table=np.zeros((3, 3), dtype=int), labels=("a", "b", "c"))
    assert not bad.validate()["passed"]


@pytest.mark.parametrize(
    "name,orders",
    [
        ("z4", [1, 2, 4]),
        ("s3", [1, 2, 2, 2, 3, 6]),
        ("q8", [1, 2, 4, 4, 4, 8]),
        ("z2xz2", [1, 2, 2, 2, 4]),
    ],
)
def test_subgroup_enumeration_orders(groups, name, orders):
    subs = groups[name].subgroups()
    assert sorted(len(s) for s in subs) == orders


def test_direct_product_group_structure():
    z6 = kc.direct_product_group(kc.cyclic_group(2), kc.cyclic_group(3))
    assert z6.order == 6
    assert z6.validate()["passed"]
    assert np.array_equal(z6.table, z6.table.T)


def test_coefficient_operator_round_trip(algebras):
    kac = algebras["q8_function"]
    rng = np.random.default_rng(3)
    c = rng.standard_normal(kac.dim) + 1j * rng.standard_normal(kac.dim)
    np.testing.assert_allclose(kac.coeffs_of(kac.op(c)), c, atol=1e-9)


def einsum_validate_kac(kac):
    """Reference: every tensor-level residual of ``validate_kac`` in its einsum form."""
    m, d = kac.mult, kac.delta
    eps, s, st, h, u = kac.counit, kac.antipode, kac.star, kac.haar, kac.unit_coeffs
    n = kac.dim
    eps_u = np.outer(eps, u)
    hm = np.einsum("ijk,k->ij", m, h)
    gram = np.einsum("ip,pjk,k->ij", st, m, h, optimize=True)
    gram = (gram + gram.conj().T) / 2.0

    def top(x):
        return float(np.abs(x).max())

    return {
        "product_associative": top(
            np.einsum("ijk,klr->ijlr", m, m) - np.einsum("jlk,ikr->ijlr", m, m)
        ),
        "coproduct_coassociative": top(
            np.einsum("kac,aef->kefc", d, d) - np.einsum("kea,afc->kefc", d, d)
        ),
        "counit_left": top(np.einsum("kij,i->kj", d, eps) - np.eye(n)),
        "counit_right": top(np.einsum("kij,j->ki", d, eps) - np.eye(n)),
        "coproduct_multiplicative": top(
            np.einsum("ijk,kef->ijef", m, d)
            - np.einsum("iab,ace,jcq,bqf->ijef", d, m, d, m, optimize=True)
        ),
        "coproduct_unital": top(np.einsum("k,kij->ij", u, d) - np.outer(u, u)),
        "coproduct_star": top(
            np.einsum("ip,pab->iab", st, d)
            - np.einsum("iab,ap,bq->ipq", np.conj(d), st, st, optimize=True)
        ),
        "counit_multiplicative": top(np.einsum("ijk,k->ij", m, eps) - np.outer(eps, eps)),
        "antipode_left": top(np.einsum("kab,ap,pbr->kr", d, s, m, optimize=True) - eps_u),
        "antipode_right": top(np.einsum("kab,bp,apr->kr", d, s, m, optimize=True) - eps_u),
        "antipode_antimultiplicative": top(
            np.einsum("ijk,kr->ijr", m, s) - np.einsum("ja,ib,abr->ijr", s, s, m, optimize=True)
        ),
        "haar_tracial": top(hm - hm.T),
        "haar_left_invariant": top(np.einsum("kab,a->kb", d, h) - np.outer(h, u)),
        "haar_right_invariant": top(np.einsum("kab,b->ka", d, h) - np.outer(h, u)),
        "haar_positive_faithful": max(0.0, 1e-10 - float(np.linalg.eigvalsh(gram).min())),
        "star_antimultiplicative": top(
            np.einsum("ijk,kr->ijr", np.conj(m), st)
            - np.einsum("jq,ip,qpr->ijr", st, st, m, optimize=True)
        ),
    }


def perturbed_tensors(kac, seed, size):
    """``kac`` with seeded complex noise of scale ``size`` on all six structure tensors."""
    rng = np.random.default_rng(seed)
    fields = ("mult", "delta", "counit", "antipode", "star", "haar")
    return dataclasses.replace(kac, **{
        f: getattr(kac, f) + size * (
            rng.standard_normal(getattr(kac, f).shape)
            + 1j * rng.standard_normal(getattr(kac, f).shape)
        )
        for f in fields
    })


@pytest.mark.parametrize("name", ALGEBRA_NAMES + ("kp8",))
def test_validator_contractions_match_the_einsum_oracle(algebras, kp8, name):
    """Only the order of the sums differs.  Perturbed by 1e-6, the residuals
    cancel to about 1e-6 from terms of size 1, so they agree to 1e-12 of
    the tensors' scale (about 1e-10 of the residuals themselves)."""
    kac = kp8 if name == "kp8" else algebras[name]
    broken = perturbed_tensors(kac, seed=kac.dim, size=1e-6)
    for case in (kac, broken):
        got = kc.validate_kac(case)
        for key, want in einsum_validate_kac(case).items():
            assert abs(got[key] - want) <= 1e-12, (key, got[key], want)
    assert min(kc.validate_kac(broken)[key] for key in einsum_validate_kac(kac)
               if key != "haar_positive_faithful") > 1e-7
