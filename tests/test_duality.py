"""Regular multiplicative unitaries, integrals, pairing, and biduality."""

import collections
import functools
import inspect
import itertools
from importlib import resources

import numpy as np
import pytest

from kacgalois import algebra as ag
from kacgalois import coreps as cr
from kacgalois import duality as du
from kacgalois import kac as kc
from kacgalois import linalg as la

from conftest import (
    ALGEBRA_NAMES,
    GROUP_NAMES,
    KAC_NAMES,
    LADDER_NAMES,
    STACK_NAMES,
    basis_change,
    delta_hat,
    fitted_split,
    kronecker_sandwich,
    rebased,
    rotation,
    span_residual,
    twisted_z3_squared_by_z2,
)


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


@pytest.mark.parametrize("name", [*ALGEBRA_NAMES, "kp8"])
def test_leg_matmul_unitary_is_the_kronecker_one(algebras, kp8, dual_of, name):
    # V = T·(coord⁻¹⊗1) and the defining-action matrix V·(coord⊗1) − T, as
    # the Kronecker products define them, on the bundled algebra and its dual.
    base = kp8 if name == "kp8" else algebras[name]
    for kac in (base, dual_of(base).kac):
        n = kac.dim
        t4 = (kac.coord @ kac.delta).reshape(n * n, n) @ kac.lmats.reshape(n, n * n)
        t = t4.reshape((n,) * 4).transpose(1, 2, 0, 3).reshape(n * n, n * n)
        eye = np.eye(n, dtype=complex)
        v = du.multiplicative_unitary(kac).matrix
        assert np.array_equal(v, t @ np.kron(kac.coord_inv, eye))
        assert np.array_equal(
            du._times_first_leg(v, kac.coord) - t, v @ np.kron(kac.coord, eye) - t
        )


def dense_pentagon_defect(v, n):
    """Reference V₁₂V₁₃V₂₃ − V₂₃V₁₂ as an explicit n³×n³ Kronecker operator."""
    eye = np.eye(n, dtype=complex)
    v12 = np.kron(v, eye)
    v23 = np.kron(eye, v)
    flip = np.eye(n * n, dtype=complex).reshape(n, n, -1).swapaxes(0, 1).reshape(n * n, -1)
    swap23 = np.kron(eye, flip)
    v13 = swap23 @ v12 @ swap23
    return v12 @ v13 @ v23 - v23 @ v12


def dense_pentagon_opnorm(v, n):
    """Reference ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖₂."""
    return la.opnorm(dense_pentagon_defect(v, n))


def dense_pentagon_frobenius(v, n):
    """Reference ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖_F."""
    return la.frob(dense_pentagon_defect(v, n))


def blocked_pentagon_frobenius(v, n):
    """Reference ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖_F summed over n column blocks, n⁸ multiply-adds.

    Block a″ holds the columns e_{a″}⊗e_{b″}⊗e_{c″}, on which the leg
    structure of V gives

        V₁₃V₂₃ e = X[a,b,c; b″,c″] = Σₖ V[(a,c),(a″,k)]·V[(b,k),(b″,c″)],
        V₂₃V₁₂ e = Y[a,b,c; b″,c″] = Σₖ V[(b,c),(k,c″)]·V[(a,k),(a″,b″)],

    so the block's defect is V₁₂X − Y with one n²×n² by n²×n³ matmul.
    """
    v4 = v.reshape(n, n, n, n)
    rows = v.reshape(n, n, n * n)  # rows[b, k] = V[(b, k), :]
    total = 0.0
    for i in range(n):
        w = v4[:, :, i, :]  # w[a, s, k] = V[(a, s), (a″, k)]
        x = np.matmul(w[:, None], rows[None])
        y = np.matmul(w.transpose(0, 2, 1)[:, None, None], v4[None])
        defect = v @ x.reshape(n * n, -1)
        defect -= y.reshape(n * n, -1)
        total += la.frob(defect) ** 2
    return np.sqrt(total)


def sparse_leg_sweep_pentagon_frobenius(v, n):
    """Reference ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖_F for a V with few nonzeros: the three leg
    actions on every basis vector e_a⊗e_b⊗e_c, each vector a dict over its nonzeros."""
    cols = [[(divmod(r, n), v[r, c]) for r in np.flatnonzero(v[:, c])] for c in range(n * n)]

    def leg(psi, i, j):
        out = collections.defaultdict(complex)
        for idx, x in psi.items():
            for (p, q), w in cols[idx[i] * n + idx[j]]:
                new = list(idx)
                new[i], new[j] = p, q
                out[tuple(new)] += w * x
        return out

    total = 0.0
    for abc in itertools.product(range(n), repeat=3):
        lhs = leg(leg(leg({abc: 1.0}, 1, 2), 0, 2), 0, 1)
        rhs = leg(leg({abc: 1.0}, 0, 1), 1, 2)
        total += sum(abs(lhs.get(k, 0) - rhs.get(k, 0)) ** 2 for k in lhs.keys() | rhs.keys())
    return np.sqrt(total)


def perturbed(v, seed=0, size=1e-3):
    rng = np.random.default_rng(seed)
    return v + size * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))


def perturbed_nonzeros(v, seed=0, size=1e-4):
    """``v`` with each exact nonzero moved by a seeded amount; the zero pattern is kept."""
    rng = np.random.default_rng(seed)
    w = v.copy()
    nz = w != 0
    w[nz] += size * (rng.standard_normal(nz.sum()) + 1j * rng.standard_normal(nz.sum()))
    return w


def rotated(v, n, seed=0):
    """(Q⊗Q)V(Q⊗Q)† for a seeded random unitary Q: dense, with the same pentagon defect norm."""
    qq = np.kron(rotation(n, seed), rotation(n, seed))
    return qq @ v @ la.dagger(qq)


def turned(ops, n, seed=0):
    """Q·x·Q† for each x of a stack, with the Q of :func:`rotated`: the factors of the
    rotated V."""
    q = rotation(n, seed)
    return q @ ops @ la.dagger(q)


def unitary_factors(kac):
    """V, V̂ and Ṽ of ``kac``, each with two stacks A, B, W = Σᵢ Aᵢ⊗Bᵢ, and the stack
    (0 for A, 1 for B) that carries Â's dual basis ŷ."""
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    hu = du.hat_unitaries(kac, v, hat)
    y, lm, u = hat.dual_basis, kac.lmats, hu.u
    return (
        (v.matrix, y, lm, 0),
        (hu.v_hat, lm, u @ y @ u, 1),
        (hu.v_tilde, u @ lm @ u, y, 1),
    )


def certificate(w, n, left, right):
    """:func:`~kacgalois.duality.pentagon_residual` of W = Σ leftᵢ⊗rightᵢ, each leg
    with its least-squares product tensor, and the unitarity residual of W itself."""
    unitary = la.frob(la.dagger(w) @ w - np.eye(n * n))
    return du.pentagon_residual(fitted_split(w, left, right), n, unitary)


def off_span_mutant(w, left, right, side, seed=0, size=1e-6):
    """W and its factors with the slice 1 of the stack ``side`` moved by ``size``
    times a seeded random matrix: the span is no longer an algebra, so the closure
    part carries the defect that the fit leaves out."""
    left, right = left.copy(), right.copy()
    move = size * random_square(len(left), seed=seed)
    if side == 0:
        left[1] += move
        return w + np.kron(move, right[1]), left, right
    right[1] += move
    return w + np.kron(left[1], move), left, right


def slice_mutant(w, left, right, side, size=1e-4):
    """W and its factors with the slice ŷ₁ moved by ``size``·ŷ₀ on the stack ``side``:
    the spans, and so the closure, are unchanged.

    At ``size`` = 1e-6 the defect of kp8's V̂ (1.7e-5) is a difference of order-one
    terms, and the dense and blocked oracles and the certificate all read 5–7e-12
    relative off a clongdouble evaluation of the blocked sum; at 1e-4 they agree
    to 1e-13."""
    left, right = left.copy(), right.copy()
    if side == 0:
        left[1] += size * left[0]
        return w + size * np.kron(left[0], right[1]), left, right
    right[1] += size * right[0]
    return w + size * np.kron(left[1], right[0]), left, right


def mixed_slices(kac, seed, size=1e-3):
    """V′ = Σ ŷ′ᵢ⊗L(bᵢ) with ŷ′ = (1 + ``size``·R)·ŷ, R seeded: every slice moves,
    but inside Â, so the factored part reads V′'s defect exactly."""
    n = kac.dim
    y = du.hat_algebra(kac, du.multiplicative_unitary(kac)).dual_basis
    rng = np.random.default_rng(seed)
    mix = np.eye(n) + size * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    y = np.tensordot(mix, y, axes=1)
    w = du._slice_matrix(y.reshape(n, -1).T @ kac.lmats.reshape(n, -1), n)
    return w, y, kac.lmats


def test_pentagon_residual_bounds_the_operator_norm_from_above(kp8):
    n = kp8.dim
    y = du.hat_algebra(kp8, du.multiplicative_unitary(kp8)).dual_basis
    w = perturbed(du.multiplicative_unitary(kp8).matrix)
    dense = dense_pentagon_opnorm(w, n)
    assert dense > 1e-4
    assert dense <= certificate(w, n, y, kp8.lmats)[0]
    w, left, right = mixed_slices(kp8, seed=0)
    dense = dense_pentagon_opnorm(w, n)
    assert dense > 1e-4
    assert dense <= certificate(w, n, left, right)[0] <= np.sqrt(n**3) * dense


@pytest.mark.parametrize("which", ["kp8", "z3_group*z3_function"])
def test_pentagon_residual_is_the_dense_frobenius_norm(kp8, algebras, which):
    if which == "kp8":
        kac = kp8
    else:
        kac = kc.tensor_kac(algebras["z3_group"], algebras["z3_function"])
    n = kac.dim
    y = du.hat_algebra(kac, du.multiplicative_unitary(kac)).dual_basis
    w = perturbed(du.multiplicative_unitary(kac).matrix, seed=n)
    dense = dense_pentagon_frobenius(w, n)
    assert dense > 1e-4
    assert certificate(w, n, y, kac.lmats)[0] >= dense
    w, left, right = mixed_slices(kac, seed=n)
    dense = dense_pentagon_frobenius(w, n)
    parts = certificate(w, n, left, right)[1]
    assert dense > 1e-4
    assert abs(parts["factored"] - dense) <= 1e-12 * dense
    assert parts["closure"] <= 1e-13 and parts["reconstruction"] <= 1e-13


def test_pentagon_residual_trips_on_one_corrupted_entry(kp8):
    v = du.multiplicative_unitary(kp8).matrix.copy()
    v[3, 5] += 1e-6
    y = du.hat_algebra(kp8, du.multiplicative_unitary(kp8)).dual_basis
    assert certificate(v, kp8.dim, y, kp8.lmats)[0] > 1e-10


@pytest.mark.parametrize("name", ["z2_group", "s3_function", "q8_group"])
def test_sparse_leg_sweep_oracle_is_the_dense_one(algebras, name):
    kac = algebras[name]
    n = kac.dim
    w = du.multiplicative_unitary(kac).matrix.copy()
    w[3, 1] += 1e-6
    dense = dense_pentagon_frobenius(w, n)
    assert dense > 1e-7
    assert abs(sparse_leg_sweep_pentagon_frobenius(w, n) - dense) <= 1e-12 * dense


@functools.cache
def corrupted_cyclic_pentagon(order):
    """ℤ_order's V with one entry moved by 1e-6, V's factors ŷ and L(b), the
    pentagon residual of V as built, and the exact defect norm of the corrupted V
    (computed once per order: the rotation keeps it)."""
    kac = kc.group_algebra(kc.cyclic_group(order))
    v = du.multiplicative_unitary(kac)
    corrupted = v.matrix.copy()
    corrupted[3, 5] += 1e-6
    corrupted.flags.writeable = False  # shared by the cached callers
    factors = (du.hat_algebra(kac, v).dual_basis, kac.lmats)
    exact = sparse_leg_sweep_pentagon_frobenius(corrupted, order)
    return v.residuals["pentagon"], corrupted, factors, exact


@pytest.mark.parametrize(
    "order, rotate",
    [(13, False), (15, False), (15, True), (19, True)],
    ids=["z13_sparse", "z15_sparse", "z15_rotated_blocked", "z19_rotated_blocked"],
)
def test_pentagon_on_cyclic_groups_either_side_of_the_exact_branch(order, rotate):
    """ℤ_order's V, one entry moved by 1e-6, as built (a permutation matrix and one
    entry) and rotated to a dense matrix with its factors rotated alongside: the
    certificate trips and bounds the exact defect norm either way."""
    built, corrupted, (left, right), exact = corrupted_cyclic_pentagon(order)
    assert built < 1e-10
    if rotate:
        corrupted = rotated(corrupted, order, seed=order)
        left, right = turned(left, order, seed=order), turned(right, order, seed=order)
    assert exact > 1e-7
    assert certificate(corrupted, order, left, right)[0] >= exact


def test_twisted_group_algebra_pentagon_is_exact_and_blocked():
    """The n = 18 Drinfeld twist: its V has 26 244 nonzeros of 104 976; the
    certificate holds and bounds the exact norm of the blocked sum, and its
    corepresentations come out."""
    kac = twisted_z3_squared_by_z2()
    v = du.multiplicative_unitary(kac)
    assert v.residuals["pentagon"] < 1e-11
    assert v.residuals["pentagon"] >= blocked_pentagon_frobenius(v.matrix, kac.dim)
    coreps = cr.irreducible_coreps(kac, v, du.hat_algebra(kac, v))
    assert [c.dim for c in coreps] == [1] * 9 + [3]


@pytest.mark.parametrize("which", ["kp8", "s3_function*z2_group"])
def test_rotation_carries_the_sparse_pentagon_onto_the_blocked_one(kp8, tensor_algebras, which):
    """V with its nonzeros moved, as built and rotated with its factors: the same
    reconstruction part, and both values above the exact defect norm, which the
    rotation keeps."""
    kac = kp8 if which == "kp8" else tensor_algebras[which]
    n = kac.dim
    v = perturbed_nonzeros(du.multiplicative_unitary(kac).matrix, seed=n)
    left = du.hat_algebra(kac, du.multiplicative_unitary(kac)).dual_basis
    sparse, parts = certificate(v, n, left, kac.lmats)
    dense, turned_parts = certificate(
        rotated(v, n, seed=n), n, turned(left, n, seed=n), turned(kac.lmats, n, seed=n)
    )
    # The value is the reconstruction part; the other two are rounding, which
    # the rotation raises to about 5e-13 (the closure defects scale with Σ‖Bᵢ‖²).
    want = parts["reconstruction"]
    assert want > 1e-6
    assert abs(turned_parts["reconstruction"] - want) <= 1e-12 * want
    for part in ("factored", "closure"):
        assert max(parts[part], turned_parts[part]) <= 1e-11
    assert min(sparse, dense) >= blocked_pentagon_frobenius(v, n)


PENTAGON_NAMES = ALGEBRA_NAMES + ("kp8",) + LADDER_NAMES


@pytest.fixture(scope="module")
def three_unitaries(algebras, kp8, ladder_algebras):
    """V, V̂ and Ṽ of the 12 group fixtures, kp8 and the three dual_ladder products,
    each with the orthonormal bases of the two legs X, Y of the cell X⊗Y it
    lies in, and those of their commutants X′, Y′."""
    named = dict(algebras, kp8=kp8, **ladder_algebras)
    out = {}
    for name, kac in named.items():
        v = du.multiplicative_unitary(kac)
        hat = du.hat_algebra(kac, v)
        hu = du.hat_unitaries(kac, v, hat)
        a = kac.as_mm().onb()
        a_comm, hat_comm = hat.commutant_cells
        out[name] = (kac.dim, (
            (v.matrix, (hat.onb, a), (hat_comm, a_comm)),
            (hu.v_hat, (a, hat_comm), (a_comm, hat.onb)),
            (hu.v_tilde, (a_comm, hat.onb), (a, hat_comm)),
        ))
    return out


@pytest.fixture(scope="module")
def pentagon_factors(algebras, kp8, ladder_algebras):
    """:func:`unitary_factors` of the 12 group fixtures, kp8 and the three
    dual_ladder products, with each dimension."""
    named = dict(algebras, kp8=kp8, **ladder_algebras)
    return {name: (kac.dim, unitary_factors(kac)) for name, kac in named.items()}


@pytest.mark.parametrize("name", PENTAGON_NAMES)
def test_sparse_pentagon_is_the_blocked_one(pentagon_factors, name):
    """V, V̂ and Ṽ hold their pentagons to 1e-11; with their nonzeros moved, the
    certificate bounds the blocked sum."""
    n, unitaries = pentagon_factors[name]
    for v, left, right, _ in unitaries:
        assert certificate(v, n, left, right)[0] <= 1e-11
        w = perturbed_nonzeros(v, seed=n)
        assert certificate(w, n, left, right)[0] >= blocked_pentagon_frobenius(w, n)


@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group"])
def test_certificate_is_sound_on_entry_mutants_and_tight_on_slice_mutants(
    pentagon_factors, name
):
    """One entry of V, V̂ or Ṽ moved, or one slice moved off its span: the
    certificate bounds the exact norm.  One slice moved inside its span: the
    factored part is the exact norm, and the closure and reconstruction parts are
    rounding."""
    n, unitaries = pentagon_factors[name]
    for w, left, right, side in unitaries:
        entry = w.copy()
        entry[3, 5] += 1e-6
        exact = blocked_pentagon_frobenius(entry, n)
        assert exact > 1e-7
        assert certificate(entry, n, left, right)[0] >= exact * (1 - 1e-12)
        mutant, moved_left, moved_right = off_span_mutant(w, left, right, side, seed=n)
        exact = blocked_pentagon_frobenius(mutant, n)
        value, parts = certificate(mutant, n, moved_left, moved_right)
        assert exact > 1e-7 and parts["closure"] > 1e-7
        assert value >= exact * (1 - 1e-12)
        mutant, left, right = slice_mutant(w, left, right, side)
        exact = blocked_pentagon_frobenius(mutant, n)
        parts = certificate(mutant, n, left, right)[1]
        assert exact > 1e-7
        assert abs(parts["factored"] - exact) <= 1e-12 * exact
        assert parts["closure"] <= 1e-13 and parts["reconstruction"] <= 1e-13


def leg_commutator_max(w, first, second):
    """Oracle: the largest ‖[W, x⊗1]‖_F over the stack ``first`` and ‖[W, 1⊗y]‖_F
    over ``second``, by leg einsums on W regrouped as W[p, q, r, s]."""
    n = first.shape[-1]
    w4 = w.reshape(n, n, n, n)
    c1 = np.einsum("pqts,ktr->kpqrs", w4, first, optimize=True)
    c1 -= np.einsum("kpt,tqrs->kpqrs", first, w4, optimize=True)
    c2 = np.einsum("pqrt,kts->kpqrs", w4, second, optimize=True)
    c2 -= np.einsum("kqt,ptrs->kpqrs", second, w4, optimize=True)
    return max(
        la.frob_max(c1.reshape(-1, n * n, n * n)), la.frob_max(c2.reshape(-1, n * n, n * n))
    )


def test_leg_commutator_oracle_matches_the_kronecker_one():
    rng = np.random.default_rng(3)
    n = 3
    w = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    first = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    second = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    eye = np.eye(n)
    want1 = max(la.frob(w @ np.kron(x, eye) - np.kron(x, eye) @ w) for x in first)
    want2 = max(la.frob(w @ np.kron(eye, y) - np.kron(eye, y) @ w) for y in second)
    assert abs(leg_commutator_max(w, first, second[:0]) - want1) <= 1e-12 * want1
    assert abs(leg_commutator_max(w, first[:0], second) - want2) <= 1e-12 * want2


@pytest.mark.parametrize("name", PENTAGON_NAMES)
def test_leg_distance_brackets_the_commutator_oracle(three_unitaries, name):
    # W₀ ∈ X⊗Y commutes with X′⊗1 and 1⊗Y′, so for x there with ‖x‖ ≤ 1
    # (each basis element has ‖x‖ ≤ ‖x‖_F = 1), ‖[W, x⊗1]‖_F ≤ 2·dist(W, X⊗Y).
    n, unitaries = three_unitaries[name]
    for v, cell, comms in unitaries:
        dist = float(la.leg_distance(v, *cell, "left"))
        assert dist <= 1e-12 * la.frob(v)
        assert leg_commutator_max(v, *comms) <= 1e-12 * la.frob(v)
        w = perturbed_nonzeros(v, seed=n, size=1e-3)
        dist = float(la.leg_distance(w, *cell, "left"))
        assert dist > 1e-5
        assert dist >= 0.5 * leg_commutator_max(w, *comms)


@pytest.mark.parametrize("name", PENTAGON_NAMES)
def test_leg_distance_is_invariant_under_a_rotation(three_unitaries, name):
    # (Q⊗Q)W(Q⊗Q)† is as far from QXQ†⊗QYQ† as W is from X⊗Y, and is dense.
    n, unitaries = three_unitaries[name]
    q = rotation(n, seed=n)
    for v, cell, _ in unitaries:
        w = perturbed_nonzeros(v, seed=n, size=1e-3)
        want = float(la.leg_distance(w, *cell, "left"))
        turned = [q @ leg @ la.dagger(q) for leg in cell]
        got = float(la.leg_distance(rotated(w, n, seed=n), *turned, "left"))
        assert want > 1e-5
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("name", ["kp8", "s3_function"])
def test_v_hat_against_the_wrong_cell_reads_far(monkeypatch, name):
    # Mutant: V̂ measured against A⊗Â instead of A⊗Â′.  These duals are not
    # commutative, so Â′ ≠ Â and the distance is of the order of ‖V̂‖_F.
    kac = fresh_kp8() if name == "kp8" else kc.function_algebra(kc.symmetric_group_3())
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    assert du.hat_unitaries(kac, v, hat).residuals["v_hat_in_a_tensor_hatcomm"] < 1e-12
    wrong = property(lambda h: (ag.commutant(h.kac.as_mm()).onb(), h.onb))
    monkeypatch.setattr(du.HatAlgebra, "commutant_cells", wrong)
    res = du.hat_unitaries(kac, v, hat).residuals
    assert res["v_hat_in_a_tensor_hatcomm"] >= 1
    assert res["v_tilde_in_acomm_tensor_hat"] < 1e-12


def test_the_biduals_dense_v_lies_in_hat_tensor_a(rotated_kp8, dual_of):
    dual = dual_of(rotated_kp8).kac
    v = du.multiplicative_unitary(dual)
    hat = du.hat_algebra(dual, v)
    assert np.count_nonzero(v.matrix) > rotated_kp8.dim**4 // 2
    value = hat.residuals["v_in_hat_tensor_a"]
    assert value == float(la.leg_distance(v.matrix, hat.onb, dual.as_mm().onb(), "left"))
    assert value <= 1e-12 * la.frob(v.matrix)
    a_comm, hat_comm = hat.commutant_cells
    assert leg_commutator_max(v.matrix, hat_comm, a_comm) <= 1e-12 * la.frob(v.matrix)


def random_square(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture(scope="module")
def cond10_kp8(kp8):
    """kp8 in a non-unitary change of basis of condition 10: L·L† and G_ŷ are
    not scaled identities, so the Löwdin step mixes the ŷᵢ."""
    return rebased(kp8, basis_change(kp8.dim, seed=4, cond=10.0))


@pytest.fixture(scope="module")
def coproduct_algebras(algebras, kp8, rotated_kp8, cond10_kp8, ladder_algebras):
    """The 12 group fixtures, kp8, the three dual_ladder products, rotated kp8
    and cond-10 kp8, looked up by name."""
    named = dict(algebras, kp8=kp8, rotated_kp8=rotated_kp8, cond10_kp8=cond10_kp8)
    return dict(named, **ladder_algebras)


COPRODUCT_NAMES = PENTAGON_NAMES + ("rotated_kp8", "cond10_kp8")


@pytest.mark.parametrize("name", COPRODUCT_NAMES)
def test_dual_coproduct_coefficients_match_the_einsum_oracle(
    coproduct_algebras, dual_of, name
):
    """Â's coproduct tensor over ``onb``, read off A's product, holds the coefficients
    of the sandwich V†(1⊗y)V, and their expansion (the oracle ``delta_hat``) its
    operator, on every basis element."""
    dd = dual_of(coproduct_algebras[name])
    n, ys = dd.kac.dim, dd.hat.onb
    for c in range(n):
        dh = kronecker_sandwich(dd.v.matrix, ys[c])
        want = np.einsum(
            "apr,bqs,pqrs->ab", np.conj(ys), np.conj(ys), dh.reshape(n, n, n, n), optimize=True
        )
        assert np.abs(dd.hat.coproduct[c] - want).max() <= 1e-13
        assert np.abs(delta_hat(dd.hat, ys[c]) - dh).max() <= 1e-13


@pytest.mark.parametrize("name", PENTAGON_NAMES)
def test_sparse_dual_coproduct_is_the_kronecker_one(coproduct_algebras, name):
    """Whatever V's zero pattern, Â's ``coproduct`` expanded at a random element of Â
    (the oracle ``delta_hat``), and at a stack of them, is the Kronecker sandwich V†(1⊗y)V."""
    kac = coproduct_algebras[name]
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    coeffs = random_square(n, seed=n)[:3]
    ys = np.tensordot(coeffs, hat.onb, axes=(1, 0))
    got = delta_hat(hat, ys)
    for y, g in zip(ys, got):
        assert np.abs(g - kronecker_sandwich(v.matrix, y)).max() <= 1e-13 * la.frob(y)
    assert np.abs(delta_hat(hat, ys[0]) - got[0]).max() <= 1e-13 * la.frob(ys[0])


def flip_tilde(v, u):
    """Ṽ = F(1⊗U)V(1⊗U)F with explicit Kronecker and flip operators."""
    n = len(u)
    flip = np.eye(n * n)[(np.arange(n * n) % n) * n + np.arange(n * n) // n]
    one_u = np.kron(np.eye(n), u)
    return flip @ one_u @ v @ one_u @ flip


def tensor_coproduct(delta, onb):
    """Σ delta[e,a,b]·onbₐ⊗onb_b for every e, by an einsum."""
    n = len(onb)
    return np.einsum("eab,apr,bqs->epqrs", delta, onb, onb).reshape(n, n * n, n * n)


def coproduct_oracle(w, onb, delta):
    """(Σₑ‖W†(1⊗onbₑ)W − Σ delta[e,a,b]·onbₐ⊗onb_b‖²_F)^{1/2} by Kronecker operators."""
    return la.frob(kronecker_sandwich(w, onb) - tensor_coproduct(delta, onb))


def v_tilde_oracle(w, v, onb):
    """The largest ‖W(y⊗1)W† − V†(1⊗y)V‖_F over y in ``onb``, by Kronecker operators."""
    n = len(onb)
    lhs = w @ np.kron(onb, np.eye(n)) @ la.dagger(w)
    return la.frob_max(lhs - kronecker_sandwich(v, onb))


def coproduct_bounds(kac, w, second):
    """:func:`du.coproduct_residual` and :func:`du.v_tilde_coproduct_residual` of
    W = Σ onbₐ⊗``second``ₐ, each with its oracle: the unitarity and pentagon
    residuals are W's own, the pentagon's and Ṽ's legs carry least-squares
    product tensors, and Â's basis and coproduct tensor are ``kac``'s."""
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    u = du.hat_unitaries(kac, v, hat).u
    onb, delta = hat.onb, hat.coproduct
    unitary = la.frob(la.dagger(w) @ w - np.eye(n * n))
    split = fitted_split(w, onb, second)
    pentagon = du.pentagon_residual(split, n, unitary)[0]
    split = (*split[:2], du.product_leg(second, delta.transpose(1, 2, 0)))
    cop = du.coproduct_residual(split, unitary, pentagon)
    tilde = flip_tilde(w, u)
    tilde_unitary = la.frob(la.dagger(tilde) @ tilde - np.eye(n * n))
    split = fitted_split(tilde, u @ second @ u, onb)
    bound = du.v_tilde_coproduct_residual(split, delta, tilde_unitary, cop)
    return (cop, coproduct_oracle(w, onb, delta)), (bound, v_tilde_oracle(tilde, w, onb))


@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group", "rotated_kp8", "cond10_kp8"])
def test_coproduct_bounds_are_sound_on_entry_and_slice_mutants(coproduct_algebras, name):
    """One entry of V moved by 1e-6, or the slice B₁ moved by 1e-5·B₀: the
    coproduct certificate and the Ṽ bound each lie above the dense Kronecker
    oracle of the mutant, and within 25 times it (the certificate reads
    3.5–6.7 times, the Ṽ bound, which adds the certificate, 10–21 times)."""
    kac = coproduct_algebras[name]
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    onb, second = hat.onb, hat.second_leg
    entry = v.matrix.copy()
    entry[3, 5] += 1e-6
    moved = second.copy()
    moved[1] += 1e-5 * second[0]
    mutants = ((entry, second), (v.matrix + 1e-5 * np.kron(onb[1], second[0]), moved))
    for w, legs in mutants:
        for value, oracle in coproduct_bounds(kac, w, legs):
            assert oracle > 1e-8
            assert oracle * (1 - 1e-12) <= value <= 25 * oracle


@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group", "rotated_kp8", "cond10_kp8"])
def test_coproduct_bounds_trip_on_a_wrong_tensor(coproduct_algebras, name):
    """Â's coproduct tensor moved by 1e-6 with V as built: the certificate, where
    only ‖E‖ sees the move, and the Ṽ bound without the certificate added, where
    only the factored part sees it, each lie above their Kronecker oracles."""
    kac = coproduct_algebras[name]
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    hu = du.hat_unitaries(kac, v, hat)
    onb, res = hat.onb, v.residuals
    wrong = hat.coproduct + 1e-6 * random_square(n * n, seed=n)[:n].reshape(n, n, n)
    moved = du.product_leg(hat.second_leg, wrong.transpose(1, 2, 0))
    value = du.coproduct_residual((*hat.split[:2], moved), res["unitary"], res["pentagon"])
    oracle = coproduct_oracle(v.matrix, onb, wrong)
    assert oracle > 1e-7
    assert oracle * (1 - 1e-12) <= value <= 25 * oracle
    turned = du.product_leg(hu.u @ hat.second_leg @ hu.u, moved[1])
    split = (du.split_defect(hu.v_tilde, turned[0], onb), turned, hat.split[1])
    own = du.v_tilde_coproduct_residual(split, wrong, hu.residuals["v_tilde_unitary"], 0.0)
    lhs = hu.v_tilde @ np.kron(onb, np.eye(n)) @ la.dagger(hu.v_tilde)
    oracle = la.frob_max(lhs - tensor_coproduct(wrong, onb))
    assert oracle > 1e-7
    assert oracle * (1 - 1e-12) <= own <= 25 * oracle


@pytest.mark.parametrize("name", COPRODUCT_NAMES[:-2])
def test_coproduct_bounds_hold_on_every_fixture(coproduct_algebras, dual_of, name):
    kac = coproduct_algebras[name]
    dd = dual_of(kac)
    hu = du.hat_unitaries(kac, dd.v, dd.hat)
    assert dd.residuals["coproduct_membership"] <= 1e-11
    assert hu.residuals["v_tilde_implements_dual_coproduct"] <= 1e-11


@pytest.mark.parametrize("leg", [1, 2], ids=["mult", "coproduct"])
@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group", "rotated_kp8"])
def test_v_pentagon_certifies_the_hat_tensors(coproduct_algebras, name, leg):
    """V as built, with Â's product (the first leg's tensor) or the Bₐ's product
    M (the second's) moved by 1e-6 times a seeded random tensor: the pentagon,
    which measures each leg against the tensor it carries, trips the tight tier."""
    kac = coproduct_algebras[name]
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    split = list(du.hat_algebra(kac, v).split)
    ops, tensor, _ = split[leg]
    moved = tensor + 1e-6 * random_square(n * n, seed=n)[:n].reshape(n, n, n)
    split[leg] = du.product_leg(ops, moved)
    assert v.residuals["pentagon"] <= 1e-11
    assert du.pentagon_residual(tuple(split), n, v.residuals["unitary"])[0] > la.TIGHT_TOL


@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_group", "rotated_kp8"])
def test_v_pentagon_on_the_hat_tensors_is_sound_on_an_entry_mutant(coproduct_algebras, name):
    """One entry of V moved by 1e-6, its legs and their tensors Â's own: the
    certificate bounds the blocked oracle."""
    kac = coproduct_algebras[name]
    n = kac.dim
    hat = du.hat_algebra(kac, du.multiplicative_unitary(kac))
    entry = hat.v.matrix.copy()
    entry[3, 5] += 1e-6
    unitary = la.frob(la.dagger(entry) @ entry - np.eye(n * n))
    split = (du.split_defect(entry, hat.onb, hat.second_leg), *hat.split[1:])
    exact = blocked_pentagon_frobenius(entry, n)
    assert exact > 1e-7
    assert du.pentagon_residual(split, n, unitary)[0] >= exact * (1 - 1e-12)


def test_the_certificates_fit_no_product(monkeypatch):
    """Once the dual is built, reading V's, Â's, the dual's and the auxiliary
    unitaries' certificates runs no linear solve: every leg carries Â's tensor."""
    kac = fresh_kp8()
    dd = du.dual_kac(kac)
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or real(*args))
    assert max(dd.v.residuals["pentagon"], dd.hat.coproduct_certificate) < 1e-10
    assert max(dd.residuals.values()) < 1e-10
    du.hat_unitaries(kac, dd.v, dd.hat)
    assert solves == []


def test_hat_unitaries_certify_their_own_splits(rotated_kp8):
    """V̂'s and Ṽ's pentagons and the Ṽ coproduct bound, rebuilt from splits formed
    here, read the same bits: each unitary is measured against its own stacks,
    with Â's product on onb and U·onb·U and the Bₐ's on Bₐ and U·Bₐ·U."""
    kac = rotated_kp8
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    hu = du.hat_unitaries(kac, v, hat)
    u, res = hu.u, hu.residuals
    m = hat.coproduct.transpose(1, 2, 0)
    onb = du.product_leg(hat.onb, hat.mult)
    second = du.product_leg(hat.second_leg, m)
    right = du.product_leg(u @ hat.onb @ u, hat.mult)
    left = du.product_leg(u @ hat.second_leg @ u, m)
    hat_split = (du.split_defect(hu.v_hat, second[0], right[0]), second, right)
    tilde_split = (du.split_defect(hu.v_tilde, left[0], onb[0]), left, onb)
    assert hat_split[0] != tilde_split[0] != hat.split[0]
    assert du.pentagon_residual(hat_split, n, res["v_hat_unitary"])[0] == res["v_hat_pentagon"]
    tilde = du.pentagon_residual(tilde_split, n, res["v_tilde_unitary"])[0]
    assert tilde == res["v_tilde_pentagon"]
    bound = du.v_tilde_coproduct_residual(
        tilde_split, hat.coproduct, res["v_tilde_unitary"], hat.coproduct_certificate
    )
    assert bound == res["v_tilde_implements_dual_coproduct"]


def test_the_dual_forms_no_sandwich(monkeypatch):
    """Once V's certificates are read, building the dual and reading all of its
    certificates takes no adjoint of an n²×n² matrix; no δ̂ operator is left to form."""
    kac = fresh_kp8()
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    assert v.residuals["pentagon"] < 1e-10
    shapes = []
    real = du.dagger
    monkeypatch.setattr(du, "dagger", lambda a: shapes.append(np.shape(a)) or real(a))
    assert not hasattr(du, "delta_hat") and not hasattr(la, "pair_sum")
    dd = du.dual_kac(kac)
    assert max(dd.residuals.values()) < 1e-10
    assert max(dd.ints.residuals.values()) < 1e-10
    assert max(dd.pairing_form.residuals.values()) < 1e-10
    assert shapes and (n * n, n * n) not in shapes


@pytest.fixture
def einsum_plans(monkeypatch):
    """The subscripts of every einsum planned (``optimize`` set), in call order."""
    plans = []
    # np.einsum looks the planner up in its own module's globals.
    namespace = inspect.unwrap(np.einsum).__globals__
    real = namespace["einsum_path"]

    def spy(*args, **kwargs):
        plans.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setitem(namespace, "einsum_path", spy)
    return plans


def test_the_einsum_plan_spy_sees_a_plan(einsum_plans):
    np.einsum("ij,jk,kl->il", *np.ones((3, 2, 2)), optimize=True)
    assert einsum_plans == ["ij,jk,kl->il"]


def test_validation_and_the_dual_plan_no_einsum(einsum_plans):
    kac = fresh_kp8()
    kc.validate_kac(kac)
    du.dual_kac(kac)
    assert einsum_plans == []


def fresh_kp8():
    """kp8 loaded anew, so nothing built on the session's copy is reused."""
    return kc.load_kac(str(resources.files("kacgalois").joinpath("fixtures/kp8.json")))


def test_v_and_hat_are_built_once_per_algebra():
    kac = fresh_kp8()
    v = du.multiplicative_unitary(kac)
    assert du.multiplicative_unitary(kac) is v
    hat = du.hat_algebra(kac, v)
    assert du.hat_algebra(kac, v) is hat
    dd = du.dual_kac(kac)
    assert dd.v is v and dd.hat is hat
    with pytest.raises(ValueError):
        v.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        hat.onb[0, 0, 0] = 0.0


def test_a_mismatched_pair_is_refused():
    kac, other = fresh_kp8(), fresh_kp8()
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    with pytest.raises(ValueError, match="different Kac algebra"):
        du.hat_algebra(other, v)
    assert du.multiplicative_unitary(other) is not v
    assert du.hat_algebra(kac, v) is hat


def test_the_dual_chain_certifies_v_once(monkeypatch):
    # The sequence of the benchmark's dual chain: V, Â, the corepresentations
    # and then the dual, which reuses the V and Â built before it.  No step
    # reads V's residuals, so the pentagon runs only when they are read.
    kac = fresh_kp8()
    seen = []
    real = du.pentagon_residual

    def spy(split, n, unitary):
        seen.append(split)
        return real(split, n, unitary)

    monkeypatch.setattr(du, "pentagon_residual", spy)
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    cr.irreducible_coreps(kac, v, hat)
    du.dual_kac(kac)
    assert seen == []
    assert v.residuals is v.residuals
    assert len(seen) == 1 and seen[0] is hat.split


def test_bidual_check_certifies_the_bidual_through_its_own_operators(monkeypatch):
    # Once the dual's own certificates are read, the bidual is certified through
    # its V (one pentagon, no membership), its realization residuals (one
    # coproduct certificate) and its pairing, and nothing else: not its axioms,
    # its Â's residuals or its integrals'.
    dd = du.dual_kac(fresh_kp8())
    assert dd.v.residuals["pentagon"] < 1e-10
    assert dd.v.residuals["unitary"] < 1e-10
    assert max(dd.hat.residuals.values()) < 1e-10
    assert max(dd.residuals.values()) < 1e-10
    assert dd.axiom_report["passed"]
    calls, built = [], []
    names = ("pentagon_residual", "coproduct_residual", "leg_distance", "validate_kac")
    for name in names:
        def spy(*args, _real=getattr(du, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(du, name, spy)
    real = du.dual_kac
    monkeypatch.setattr(du, "dual_kac", lambda kac: built.append(real(kac)) or built[-1])
    report = du.bidual_check(dd)
    assert report["max_residual"] < 1e-9
    assert calls == ["pentagon_residual", "coproduct_residual"]
    (d2,) = built
    for obj, name in ((d2, "residuals"), (d2.pairing_form, "residuals"), (d2.v, "residuals")):
        assert name in vars(obj)
    for obj, name in ((d2.ints, "residuals"), (d2.hat, "residuals"), (d2, "axiom_report")):
        assert name not in vars(obj)
    assert report == {
        **{f"v_{key}": d2.v.residuals[key] for key in ("unitary", "pentagon", "defining_action")},
        **d2.residuals,
        "pairing_identity": d2.pairing_form.residuals["dual_basis_pairs_to_identity"],
        "max_residual": report["max_residual"],
    }


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


def v_hat_action_by_vectors(kac, v_hat):
    """The largest ‖V̂†(e_q⊗bᵢΩ) − δ(bᵢ)(e_q⊗Ω)‖, one basis vector at a time."""
    n = kac.dim
    eye = np.eye(n)
    vh_dag = la.dagger(v_hat)
    act = 0.0
    for i in range(n):
        d_i = np.einsum("jk,jac,kbd->abcd", kac.delta[i], kac.lmats, kac.lmats)
        d_i = d_i.reshape(n * n, n * n)
        for q in range(n):
            lhs = vh_dag @ np.kron(eye[:, q], kac.coord[:, i])
            rhs = d_i @ np.kron(eye[:, q], kac.omega)
            act = max(act, float(np.linalg.norm(lhs - rhs)))
    return act


@pytest.mark.parametrize("name", [*ALGEBRA_NAMES, "kp8"])
def test_v_hat_defining_action_matches_the_per_vector_loop(algebras, kp8, name):
    kac = kp8 if name == "kp8" else algebras[name]
    v = du.multiplicative_unitary(kac)
    hu = du.hat_unitaries(kac, v, du.hat_algebra(kac, v))
    act = hu.residuals["v_hat_defining_action"]
    assert act == pytest.approx(v_hat_action_by_vectors(kac, hu.v_hat), abs=1e-14)
    assert act < 1e-12


@pytest.mark.parametrize("name", ["kp8", "s3_function", "q8_function"])
def test_v_hat_defining_action_needs_the_opposite_coproduct(algebras, kp8, monkeypatch, name):
    # Mutant: V̂ checked against V's own coproduct instead of its swap.
    kac = kp8 if name == "kp8" else algebras[name]
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    real = du._coproduct_action
    monkeypatch.setattr(du, "_coproduct_action", lambda kac_, delta: real(kac_, kac_.delta))
    assert du.hat_unitaries(kac, v, hat).residuals["v_hat_defining_action"] > 0.1


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
    assert res["dual_basis_pairs_to_identity"] <= 1e-14
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


# ---------------------------------------------------------------------------
# Â in the pairing-dual basis
# ---------------------------------------------------------------------------


def slice_span_oracle(v, n):
    """The span of all n² first-leg slices V[(·,p),(·,q)], by one n²×n² SVD."""
    v4 = v.reshape(n, n, n, n)
    return la.orthonormalize([v4[:, p, :, q] for p in range(n) for q in range(n)])


@pytest.mark.parametrize("name", PENTAGON_NAMES + ("rotated_kp8", "cond10_kp8"))
def test_hat_spans_every_slice_of_v(algebras, kp8, rotated_kp8, ladder_algebras, name):
    # cond10_kp8: a non-unitary change of basis, so L·L† and G_ŷ are not
    # scaled identities and the Löwdin step mixes the ŷᵢ.
    kac = (
        rebased(kp8, basis_change(kp8.dim, seed=4, cond=10.0))
        if name == "cond10_kp8"
        else dict(algebras, kp8=kp8, rotated_kp8=rotated_kp8, **ladder_algebras)[name]
    )
    n = kac.dim
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    assert la.span_distance(slice_span_oracle(v.matrix, n), hat.onb) <= 1e-12
    # V = Σᵢ ŷᵢ⊗L(bᵢ), entry by entry.
    want = np.einsum("iac,ibd->abcd", hat.dual_basis, kac.lmats).reshape(n * n, n * n)
    assert np.abs(v.matrix - want).max() <= 1e-13
    assert hat.residuals["slice_reconstruction"] <= 1e-12
    # Löwdin's basis is orthonormal up to κ(G_ŷ)·ε.
    y = hat.dual_basis.reshape(n, n * n)
    kappa = np.linalg.cond(y @ la.dagger(y))
    assert hat.residuals["basis_orthonormality"] <= 10 * kappa * np.finfo(float).eps


@pytest.mark.parametrize("name", KAC_NAMES)
def test_the_pairing_dual_basis_keeps_the_biduals_v_sparse(algebras, kp8, dual_of, name):
    kac = dict(algebras, kp8=kp8)[name]
    dd = dual_of(kac)
    p = dd.pairing_form.matrix
    assert np.abs(p - np.diag(np.diag(p))).max() <= 1e-14
    # On these fixtures G_ŷ is a scaled identity: the basis is ŷᵢ/‖ŷᵢ‖.
    norms = np.linalg.norm(dd.hat.dual_basis, axis=(1, 2))
    assert np.abs(dd.hat.onb - dd.hat.dual_basis / norms[:, None, None]).max() <= 1e-15
    bidual_v = du.multiplicative_unitary(dd.kac).matrix
    assert np.count_nonzero(bidual_v) == np.count_nonzero(dd.v.matrix)


def test_building_hat_at_twelve_runs_no_svd(svd_calls):
    kac = kc.tensor_kac(
        kc.function_algebra(kc.symmetric_group_3()), kc.group_algebra(kc.cyclic_group(2))
    )
    v = du.multiplicative_unitary(kac)
    hat = du.hat_algebra(kac, v)
    assert kac.dim == 12 and len(hat.onb) == 12
    assert svd_calls == []
    # The spy sees both routes to an SVD.
    la.orthonormalize(hat.onb)
    la.opnorm(hat.onb[0])
    assert svd_calls == [(12, 144), (12, 12)]


def test_an_ill_conditioned_dual_basis_is_refused(kp8):
    # V′ = Σᵢ sᵢ·ŷᵢ⊗L(bᵢ): A's basis stays orthogonal, and G_ŷ gets condition 1e12.
    n = kp8.dim
    hat = du.hat_algebra(kp8, du.multiplicative_unitary(kp8))
    scaled = hat.dual_basis * np.geomspace(1e-3, 1e3, n)[:, None, None]
    v = np.einsum("iac,ibd->abcd", scaled, kp8.lmats).reshape(n * n, n * n)
    with pytest.raises(ValueError, match="dual basis of A-hat has condition number 1.000e\\+12"):
        du.hat_algebra(kp8, du.MultiplicativeUnitary(matrix=v, kac=kp8))


def test_the_integrals_are_built_once_per_hat(monkeypatch):
    # The benchmark's dual chain asks for the integrals, then builds the dual,
    # which asks again: one solve.
    built = []
    real = du._integrals
    monkeypatch.setattr(du, "_integrals", lambda kac, hat: built.append(hat) or real(kac, hat))
    kac = fresh_kp8()
    hat = du.hat_algebra(kac, du.multiplicative_unitary(kac))
    ints = du.integrals(kac, hat)
    assert du.dual_kac(kac).ints is ints and du.integrals(kac, hat) is ints
    assert built == [hat]
    with pytest.raises(ValueError, match="different Kac algebra"):
        du.integrals(fresh_kp8(), hat)


def group_dual_loops(dd):
    """The per-element loop form of six ``group_dual_check`` residuals, the point
    indicators the ŷ, δ̂ as the Kronecker sandwich plus Â's coproduct certificate
    times the largest coefficient norm."""
    kac, hat = dd.v.kac, dd.hat
    n, g = kac.dim, kac.group
    comm = max(la.frob(a @ b - b @ a) for a in hat.onb for b in hat.onb)
    wg = hat.dual_basis
    idem = max(
        la.frob(wg[x] @ wg[y] - (wg[x] if x == y else 0)) for x in range(n) for y in range(n)
    )
    cop = 0.0
    for x in range(n):
        target = np.zeros((n * n, n * n), dtype=complex)
        for s in range(n):
            for t in range(n):
                if g.table[s, t] == x:
                    target += np.kron(wg[s], wg[t])
        cop = max(cop, la.frob(kronecker_sandwich(dd.v.matrix, wg[x]) - target))
    reach = max(float(np.linalg.norm(hat.mm.coeffs(w))) for w in wg)
    cop += dd.hat.coproduct_certificate * reach
    return {
        "dual_commutative": comm,
        "point_indicators_orthogonal_idempotent": idem,
        "coproduct_is_group_convolution": cop,
        "antipode_is_inversion": max(
            la.frob(du.kappa_hat(kac, wg[x]) - wg[g.inverse[x]]) for x in range(n)
        ),
        "haar_is_uniform": max(float(abs(np.trace(wg[x]) / n - 1.0 / n)) for x in range(n)),
        "counit_is_evaluation_at_identity": max(
            float(abs(np.vdot(kac.omega, wg[x] @ kac.omega) - (x == 0))) for x in range(n)
        ),
    }


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_dual_check_matches_its_loops(algebras, dual_of, name):
    dd = dual_of(algebras[f"{name}_group"])
    got = du.group_dual_check(dd)
    for key, want in group_dual_loops(dd).items():
        assert abs(got[key] - want) <= 1e-14


# ---------------------------------------------------------------------------
# The stacked certificates of the dual chain against their per-element loops
# ---------------------------------------------------------------------------


def loop_integrals(kac, hat):
    """The integral of A and every integral residual, one basis element at a time."""
    n = kac.dim
    eps = kac.counit
    rows = []
    for i in range(n):
        rows.append(kac.mult[i].T - eps[i] * np.eye(n))
        rows.append(kac.mult[:, i, :].T - eps[i] * np.eye(n))
    ns = la.null_space(np.vstack(rows))
    res = {"integral_space_dim_defect": float(abs(ns.shape[1] - 1))}
    c = ns[:, 0] / (eps @ ns[:, 0])
    e_op = kac.op(c)
    omega_hat = np.sqrt(n) * (e_op @ kac.omega)
    res["idempotent"] = la.frob(e_op @ e_op - e_op)
    res["self_adjoint"] = la.frob(e_op - la.dagger(e_op))
    res["haar_value"] = float(abs(kac.haar @ c - 1.0 / n))
    res["absorbing"] = max(la.frob(lm @ e_op - eps[i] * e_op) for i, lm in enumerate(kac.lmats))
    e_hat = np.outer(kac.omega, np.conj(kac.omega))
    res["e_hat_membership"] = span_residual(e_hat, hat.onb)
    fix = absorb_hat = tr_vs_vector = 0.0
    for y in hat.onb:
        w = y @ kac.omega
        eps_y = np.vdot(kac.omega, w)
        fix = max(fix, float(np.linalg.norm(w - eps_y * kac.omega)))
        absorb_hat = max(absorb_hat, la.frob(e_hat @ y - eps_y * e_hat))
        tr_vs_vector = max(
            tr_vs_vector, float(abs(np.trace(y) / n - np.vdot(omega_hat, y @ omega_hat)))
        )
    res["hat_fixes_omega_line"] = fix
    res["e_hat_absorbing"] = absorb_hat
    res["omega_hat_unit"] = float(abs(np.linalg.norm(omega_hat) - 1.0))
    res["omega_from_omega_hat"] = float(
        np.linalg.norm(np.sqrt(n) * (e_hat @ omega_hat) - kac.omega)
    )
    res["dual_haar_is_normalized_trace"] = tr_vs_vector
    return e_op, omega_hat, res


@pytest.mark.parametrize("name", STACK_NAMES)
def test_stacked_integrals_match_their_loops(named_algebra, dual_of, name):
    kac = named_algebra(name)
    ints = dual_of(kac).ints
    e_op, omega_hat, want = loop_integrals(kac, dual_of(kac).hat)
    assert list(ints.residuals) == list(want)
    for key, value in want.items():
        assert abs(ints.residuals[key] - value) <= 1e-13, key
    assert np.abs(ints.e_op - e_op).max() <= 1e-13
    assert np.abs(ints.omega_hat - omega_hat).max() <= 1e-13


REALIZATIONS = ("counit_action", "antipode_realization", "star_realization", "haar_realization")


def loop_dual_maps(kac, dual, hat):
    """The counit, antipode, star and Haar realization residuals of ``DualKac``, one
    ŷᵢ at a time, each sum over ŷ a Python loop."""
    n, y = kac.dim, hat.dual_basis

    def span(row):
        return sum(row[j] * y[j] for j in range(n))

    res = dict.fromkeys(REALIZATIONS, 0.0)
    for i in range(n):
        values = (
            float(np.linalg.norm(y[i] @ kac.omega - dual.counit[i] * kac.omega)),
            la.frob(du.kappa_hat(kac, y[i]) - span(dual.antipode[i])),
            la.frob(la.dagger(y[i]) - span(dual.star[i])),
            float(abs(np.trace(y[i]) / n - dual.haar[i])),
        )
        for key, value in zip(REALIZATIONS, values):
            res[key] = max(res[key], value)
    return res


@pytest.mark.parametrize("name", STACK_NAMES)
def test_stacked_dual_maps_match_their_loops(named_algebra, dual_of, name):
    dd = dual_of(named_algebra(name))
    want = loop_dual_maps(dd.v.kac, dd.kac, dd.hat)
    for key in REALIZATIONS:
        assert abs(dd.residuals[key] - want[key]) <= 1e-13, key
        assert dd.residuals[key] <= 1e-12, key


@pytest.mark.parametrize("name", STACK_NAMES)
def test_representation_star_matches_its_loop(named_algebra, dual_of, name):
    kac = named_algebra(name)
    dd = dual_of(kac)
    for k, report in ((kac, kc.validate_kac(kac)), (dd.kac, dd.axiom_report)):
        want = max(la.frob(la.dagger(lm) - k.op(row)) for lm, row in zip(k.lmats, k.star))
        assert abs(report["representation_star"] - want) <= 1e-13


# ---------------------------------------------------------------------------
# dual_kac's tensors are A's transposed; its certificates as row contractions
# ---------------------------------------------------------------------------


def dual_maps_by_rows(kac, dual, hat):
    """``DualKac.residuals``' product closure (a Frobenius norm over all pairs) and its
    antipode and star realizations, as one matmul each against the rows vec(ŷᵢ)."""
    n = kac.dim
    y, onb = hat.dual_basis, hat.onb
    flat = y.reshape(n, n * n)
    prods = (onb[:, None] @ onb[None]).reshape(n * n, n * n)
    product = la.frob(prods - hat.mult.reshape(n * n, n) @ onb.reshape(n, n * n))
    ky = du.kappa_hat(kac, y).reshape(n, n * n)
    antipode = float(np.linalg.norm(ky - dual.antipode @ flat, axis=1).max())
    star = np.conj(y).swapaxes(1, 2).reshape(n, n * n)
    return product, antipode, float(np.linalg.norm(star - dual.star @ flat, axis=1).max())


@pytest.mark.parametrize("name", ALGEBRA_NAMES + ("kp8",) + LADDER_NAMES + ("rotated_kp8",))
def test_dual_maps_match_their_row_contractions_bit_for_bit(named_algebra, dual_of, name):
    dd = dual_of(named_algebra(name))
    product, antipode, star = dual_maps_by_rows(dd.v.kac, dd.kac, dd.hat)
    assert dd.residuals["product_membership"] == product
    assert dd.residuals["antipode_realization"] == antipode
    assert dd.residuals["star_realization"] == star


@pytest.fixture(scope="module")
def transposed_algebras(kp8, algebras, rotated_kp8):
    """The 13 bundled Kac fixtures, rotated kp8 and the n = 18 twist, by name."""
    return dict(algebras, kp8=kp8, rotated_kp8=rotated_kp8, twist=twisted_z3_squared_by_z2())


@pytest.mark.parametrize("name", KAC_NAMES + ("rotated_kp8", "twist"))
def test_the_dual_and_bidual_tensors_are_the_algebras_transposed_bit_for_bit(
    transposed_algebras, dual_of, name
):
    kac = transposed_algebras[name]
    dual = dual_of(kac).kac
    assert np.array_equal(dual.mult, kac.delta.transpose(1, 2, 0))
    assert np.array_equal(dual.delta, kac.mult.transpose(2, 0, 1))
    assert np.array_equal(dual.antipode, kac.antipode.T)
    assert np.array_equal(dual.counit, kac.unit_coeffs)
    bidual = du.dual_kac(dual).kac
    for key in ("mult", "delta", "antipode"):
        assert np.array_equal(getattr(bidual, key), getattr(kac, key)), key
