"""Irreducible corepresentations: dimensions, orthogonality, Fourier, fusion."""

import dataclasses

import numpy as np
import pytest

from kacgalois import coreps as cr
from kacgalois import duality as du
from kacgalois import linalg as la
from kacgalois.algebra import matrix_units
from kacgalois.linalg import dagger, frob

from conftest import ALGEBRA_NAMES, POOL_NAMES, STACK_NAMES, delta_op

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
    with pytest.raises(ValueError, match="different multiplicative unitary"):
        cr.irreducible_coreps(z2, dual_of(z2).v, dual_of(z3).hat)


# ---------------------------------------------------------------------------
# The stacked contractions against their per-entry loop forms
# ---------------------------------------------------------------------------


@pytest.fixture
def pool_algebra(algebras, tensor_algebras, kp8):
    def get(name):
        return kp8 if name == "kp8" else {**algebras, **tensor_algebras}[name]

    return get


def loop_orthogonality(kac, coreps):
    worst = 0.0
    for a in coreps:
        for b in coreps:
            for i in range(a.dim):
                for j in range(a.dim):
                    x = dagger(a.entries[i][j])
                    for k in range(b.dim):
                        for l_ in range(b.dim):
                            val = kac.haar_of(x @ b.entries[k][l_])
                            want = (
                                1.0 / a.dim
                                if (a.index == b.index and i == k and j == l_)
                                else 0.0
                            )
                            worst = max(worst, abs(val - want))
    return worst


def loop_intertwiner_system(left, right, n):
    dl, dr = len(left), len(right)
    cols = []
    for k in range(dl):
        for l_ in range(dr):
            block = np.zeros((dl * dr, n * n), dtype=complex)
            for i in range(dl):
                for j in range(dr):
                    acc = np.zeros((n, n), dtype=complex)
                    if l_ == j:
                        acc += left[i][k]
                    if i == k:
                        acc -= right[l_][j]
                    block[i * dr + j] = acc.reshape(-1)
            cols.append(block.reshape(-1))
    return np.stack(cols, axis=1)


def loop_intertwining(left, t, right):
    worst = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            lhs = sum(left[i][k] * t[k, j] for k in range(t.shape[0]))
            rhs = sum(t[i, k] * right[k][j] for k in range(t.shape[1]))
            worst = max(worst, frob(lhs - rhs))
    return worst


@pytest.mark.parametrize("name", POOL_NAMES)
def test_orthogonality_gram_matches_the_six_loops(pool_algebra, coreps_of, name):
    kac = pool_algebra(name)
    coreps = coreps_of(kac)
    got = cr.orthogonality_check(kac, coreps)["orthogonality"]
    assert abs(got - loop_orthogonality(kac, coreps)) <= 1e-13


@pytest.mark.parametrize("name", POOL_NAMES)
def test_intertwiner_system_is_the_loop_built_matrix(
    pool_algebra, coreps_of, monkeypatch, name
):
    kac = pool_algebra(name)
    coreps = coreps_of(kac)
    seen = []
    real = cr.la.null_space
    monkeypatch.setattr(cr.la, "null_space", lambda a: seen.append(a) or real(a))
    for c in coreps:
        for other in coreps:
            cr._intertwiner_space(dagger(c.entries), other.entries)
            want = loop_intertwiner_system(
                [[dagger(c.entries[i][j]) for j in range(c.dim)] for i in range(c.dim)],
                other.entries,
                kac.dim,
            )
            got = seen.pop()
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", POOL_NAMES)
def test_fourier_contractions_match_per_entry_sums(pool_algebra, coreps_of, monkeypatch, name):
    kac = pool_algebra(name)
    coreps = coreps_of(kac)
    n = kac.dim
    xs = kac.lmats[:3] + 0.5j * kac.lmats[-3:]
    stacked = cr.fourier_coefficients(kac, coreps, xs)
    for c, mats in zip(coreps, stacked):
        assert mats.shape == (len(xs), c.dim, c.dim)
        for x, mat in zip(xs, mats):
            for i in range(c.dim):
                for j in range(c.dim):
                    want = c.dim * kac.haar_of(dagger(c.entries[i][j]) @ x)
                    assert abs(mat[i, j] - want) <= 1e-13
    back = cr.fourier_inverse(kac, coreps, stacked)
    for x, b in zip(xs, back):
        want = sum(
            m[i, j] * c.entries[i][j]
            for c, m in zip(coreps, cr.fourier_coefficients(kac, coreps, x))
            for i in range(c.dim)
            for j in range(c.dim)
        )
        assert frob(b - want) <= 1e-13

    # The round trip draws its elements in one call, in the per-element order.
    drawn = []
    real = cr.fourier_coefficients
    monkeypatch.setattr(
        cr, "fourier_coefficients", lambda k, cs, x: drawn.append(x) or real(k, cs, x)
    )
    cr.fourier_round_trip(kac, coreps, count=4, seed=5)
    for x, u in zip(drawn[0], la.probe_draws(5, (4, 2, n)), strict=True):
        assert frob(x - kac.op(u[0] + 1j * u[1])) <= 1e-13


@pytest.mark.parametrize("name", POOL_NAMES)
def test_fusion_and_conjugation_residuals_match_the_intertwining_sums(
    pool_algebra, coreps_of, name
):
    kac = pool_algebra(name)
    coreps = coreps_of(kac)
    big = max(coreps, key=lambda c: c.dim)
    for a, b in {(big.index, big.index), (big.index, 0), (0, len(coreps) - 1)}:
        ca, cb = coreps[a], coreps[b]
        prod = [
            [ca.entries[i][j] @ cb.entries[k][l_] for j in range(ca.dim) for l_ in range(cb.dim)]
            for i in range(ca.dim)
            for k in range(cb.dim)
        ]
        out = cr.decompose_tensor_product(kac, coreps, a, b)
        worst = max(
            loop_intertwining(prod, t, coreps[s["index"]].entries)
            for s in out["summands"]
            for t in s["isometries"]
        )
        assert abs(out["residuals"]["intertwining"] - worst) <= 1e-13
    conj = cr.conjugation_involution(kac, coreps)
    worst = 0.0
    for c, t in zip(coreps, conj["intertwiners"]):
        left = [[dagger(c.entries[i][j]) for j in range(c.dim)] for i in range(c.dim)]
        bar = coreps[conj["pairs"][c.index]].entries
        worst = max(worst, loop_intertwining(left, t, bar) / max(1.0, float(np.abs(t).max())))
    assert abs(conj["intertwiner_residual"] - worst) <= 1e-13


@pytest.mark.parametrize("name", POOL_NAMES)
def test_entry_certificates_match_the_kronecker_forms(pool_algebra, coreps_of, dual_of, name):
    kac = pool_algebra(name)
    coreps = coreps_of(kac)
    n = kac.dim
    v = dual_of(kac).v
    expansion = np.zeros_like(v.matrix)
    for c in coreps:
        d = c.dim
        cop = 0.0
        for i in range(d):
            for j in range(d):
                target = sum(np.kron(c.entries[i][k], c.entries[k][j]) for k in range(d))
                cop = max(cop, frob(delta_op(kac, c.entries[i][j]) - target))
                expansion += np.kron(c.units[i][j], c.entries[i][j])
                want = np.einsum(
                    "pa,abpq->bq", c.units[j][i], v.matrix.reshape(n, n, n, n)
                ) / d
                assert frob(c.entries[i][j] - want) <= 1e-13
        assert abs(c.residuals["coproduct_matricial"] - cop) <= 1e-13
    assert abs(coreps[0].residuals["v_expansion"] - frob(expansion - v.matrix)) <= 1e-13


@pytest.mark.parametrize("name", POOL_NAMES)
def test_heisenberg_cells_match_the_operator_sums(pool_algebra, coreps_of, dual_of, name):
    kac = pool_algebra(name)
    dd = dual_of(kac)
    coreps = coreps_of(kac)
    n = kac.dim
    eye = np.eye(n, dtype=complex)
    comp = cont = 0.0
    for c in coreps:
        d = c.dim
        dops = [[delta_op(kac, c.entries[k][i]) for i in range(d)] for k in range(d)]
        for i in range(d):
            for j in range(d):
                rhs = du.kappa_hat(kac, c.units[j][i])
                acc = sum(
                    dagger(c.entries[k][i]) @ dd.ints.e_hat @ c.entries[k][j]
                    for k in range(d)
                )
                acc2 = sum(
                    dagger(dops[k][i]) @ np.kron(eye, dd.ints.e_hat) @ dops[k][j]
                    for k in range(d)
                )
                comp = max(comp, frob(d * acc - rhs))
                cont = max(cont, frob(d * acc2 - np.kron(eye, rhs)))
    report = du.heisenberg_identities(dd, coreps)
    assert abs(report["compressed_product"] - comp) <= 1e-13
    assert abs(report["coproduct_contracted"] - cont) <= 1e-13


def test_corepresentation_arrays_are_read_only(algebras, coreps_of):
    c = max(coreps_of(algebras["s3_function"]), key=lambda c: c.dim)
    assert c.entries.shape == c.units.shape == (2, 2, 6, 6)
    for arr in (c.entries, c.units):
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# The per-dimension stacks against the per-block certificates
# ---------------------------------------------------------------------------


def block_coproduct_residual(kac, entries, coeffs):
    """The coproduct certificate of one (d, d, n, n) corepresentation, alone."""
    d, n = entries.shape[0], kac.dim
    lt = np.broadcast_to(kac.lmats.reshape(n, n * n).T, (d, n * n, n))
    vecs = entries.reshape(d, d, n * n)
    r_rows = np.linalg.qr(np.concatenate([lt, vecs.transpose(0, 2, 1)], axis=2), mode="r")
    r_cols = np.linalg.qr(np.concatenate([lt, vecs.transpose(1, 2, 0)], axis=2), mode="r")
    core = np.zeros((d, d, n + d, n + d), dtype=complex)
    core[..., :n, :n] = np.tensordot(coeffs, kac.delta, axes=(-1, 0))
    core[..., n:, n:] = -np.eye(d)
    return la.frob_max(r_rows[:, None] @ core @ r_cols[None].swapaxes(-1, -2))


def block_entry_residuals(kac, entries):
    """The certificates of one corepresentation's (d, d, n, n) entries, alone."""
    d, n = entries.shape[0], kac.dim
    coeffs = (entries @ kac.omega) @ kac.coord_inv.T
    big = entries.transpose(0, 2, 1, 3).reshape(d * n, d * n)
    return {
        "entries_in_algebra": la.frob_max(
            np.tensordot(coeffs, kac.lmats, axes=(-1, 0)) - entries
        ),
        "block_matrix_unitary": frob(dagger(big) @ big - np.eye(d * n)),
        "coproduct_matricial": block_coproduct_residual(kac, entries, coeffs),
        "counit_is_kronecker": float(np.abs(coeffs @ kac.counit - np.eye(d)).max()),
        "antipode_flips_adjoint": la.frob_max(
            np.tensordot(coeffs @ kac.antipode, kac.lmats, axes=(-1, 0))
            - dagger(entries).swapaxes(0, 1)
        ),
    }


@pytest.mark.parametrize("name", STACK_NAMES)
def test_dimension_stacks_match_the_per_block_certificates(
    named_algebra, dual_of, coreps_of, name
):
    kac = named_algebra(name)
    hat = dual_of(kac).hat
    n = kac.dim
    v_slices = hat.v.matrix.reshape(n, n, n, n).transpose(2, 0, 1, 3).reshape(n * n, n * n)
    coreps = coreps_of(kac)
    blocks = matrix_units(hat.mm)
    assert [c.index for c in coreps] == list(range(len(blocks)))
    for c, block in zip(coreps, blocks):
        d = block.size
        units = block.units.swapaxes(0, 1).reshape(d * d, n * n)
        entries = (units @ v_slices / d).reshape(d, d, n, n)
        assert c.dim == d and c.units is block.units
        assert np.abs(c.entries - entries).max() <= 1e-13
        want = block_entry_residuals(kac, entries)
        assert set(c.residuals) == set(want) | {"square_block", "v_expansion"}
        for key, value in want.items():
            assert abs(c.residuals[key] - value) <= 1e-13, key
        # The Frobenius certificate bounds the operator norm it replaced.
        big = c.entries.transpose(0, 2, 1, 3).reshape(d * n, d * n)
        assert la.opnorm(dagger(big) @ big - np.eye(d * n)) <= want["block_matrix_unitary"]


def test_a_perturbed_corepresentation_raises_only_its_own_residuals(
    ladder_algebras, dual_of, coreps_of, monkeypatch
):
    kac = ladder_algebras["z3_group*z3_function"]
    stack = np.stack([c.entries for c in coreps_of(kac)])
    assert stack.shape == (9, 1, 1, 9, 9)
    rng = np.random.default_rng(0)
    bump = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    bump *= 1e-6 / frob(bump)
    stack[2, 0, 0] += bump
    res = cr._entry_residuals(kac, stack)
    for key in ("entries_in_algebra", "coproduct_matricial"):
        values = [r[key] for r in res]
        assert values[2] > 1e-7, key
        assert max(values[:2] + values[3:]) <= 1e-13, key
    # Through irreducible_coreps, each residual dict reaches its own block:
    # move block 2's matrix unit, and only corepresentation 2 reads it.
    hat = dual_of(kac).hat
    blocks = matrix_units(hat.mm)
    moved = dataclasses.replace(blocks[2], units=blocks[2].units + bump)
    monkeypatch.setattr(cr, "matrix_units", lambda mm: blocks[:2] + [moved] + blocks[3:])
    for key in ("block_matrix_unitary", "coproduct_matricial"):
        values = [c.residuals[key] for c in cr.irreducible_coreps(kac, hat.v, hat)]
        assert values[2] > 1e-7, key
        assert max(values[:2] + values[3:]) <= 1e-13, key


@pytest.mark.parametrize(
    ("name", "shapes"),
    [
        ("kp8", [(4, 1, 1, 8, 8), (1, 2, 2, 8, 8)]),
        ("z3_group*z3_function", [(9, 1, 1, 9, 9)]),
    ],
)
def test_one_certificate_per_dimension_and_no_svd(
    named_algebra, dual_of, svd_calls, monkeypatch, name, shapes
):
    kac = named_algebra(name)
    hat = dual_of(kac).hat
    matrix_units(hat.mm)  # cached on Â's algebra: only the corepresentations are counted
    stacks = []
    real = cr._entry_residuals
    monkeypatch.setattr(
        cr, "_entry_residuals", lambda kac, entries: stacks.append(entries.shape) or real(kac, entries)
    )
    svd_calls.clear()
    cr.irreducible_coreps(kac, hat.v, hat)
    assert stacks == shapes
    assert svd_calls == []
    # The spy sees an SVD.
    la.opnorm(hat.onb[0])
    assert svd_calls == [(kac.dim, kac.dim)]
