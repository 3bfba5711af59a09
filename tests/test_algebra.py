"""Multimatrix algebras: commutants, central structure, states, expectations."""

import dataclasses
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kacgalois import algebra as ag
from kacgalois import jones as jn
from kacgalois import kac as kc
from kacgalois import linalg as la

from conftest import ALGEBRA_NAMES, LADDER_NAMES, pool_shapes, project_span, span_residual


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def matrix_unit_basis(d):
    out = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            out.append(m)
    return out


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


@pytest.fixture
def sample_multimatrix():
    """M₂⊗1₂ ⊕ ℂ·1₃ inside M₇: blocks (2, mult 2) and (1, mult 3)."""
    basis = []
    for u in matrix_unit_basis(2):
        basis.append(block_diag(np.kron(u, np.eye(2)), np.zeros((3, 3))))
    basis.append(block_diag(np.zeros((4, 4)), np.eye(3, dtype=complex)))
    return ag.from_span(basis, 7)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_commutant_of_full_matrix_algebra_is_scalars(d):
    alg = ag.from_span(matrix_unit_basis(d), d)
    comm = ag.commutant(alg)
    assert comm.dim == 1
    assert span_residual(np.eye(d, dtype=complex), comm.onb()) < 1e-10


def test_commutant_of_diagonal_is_diagonal():
    diag = ag.from_span([np.diag(r).astype(complex) for r in np.eye(4)], 4)
    comm = ag.commutant(diag)
    assert comm.dim == 4
    for b in comm.onb():
        np.testing.assert_allclose(b, np.diag(np.diag(b)), atol=1e-10)


def test_double_commutant_is_identity_on_multimatrix(sample_multimatrix):
    alg = sample_multimatrix
    bicomm = ag.commutant(ag.commutant(alg))
    assert bicomm.dim == alg.dim
    assert la.span_distance(alg.onb(), bicomm.onb()) < 1e-9


def test_commutant_always_contains_unit(sample_multimatrix):
    comm = ag.commutant(sample_multimatrix)
    assert comm.residual(np.eye(7)) < 1e-9
    assert comm.dim == 2 * 2 + 3 * 3  # M₂(ℂ)′ ∩ ... = 1₂⊗M₂ ⊕ M₃


def null_space_commutant(mats):
    """Dense oracle: the matrices x with [x, b] = 0 for every b in ``mats``.

    The SVD null space of the stacked system of the maps x ↦ xb − bx on
    row-major vec(x).
    """
    d = mats.shape[-1]
    eye = np.eye(d, dtype=complex)
    rows = np.einsum("ik,bjl->bijkl", eye, mats.swapaxes(1, 2)) - np.einsum(
        "bik,jl->bijkl", mats, eye
    )
    return la.null_space(rows.reshape(-1, d * d)).T.reshape(-1, d, d)


def commutes_by_loop(mats, others):
    """Reference for ``ag._commute``: one commutator norm per pair."""
    return len(mats) > 0 and all(
        np.linalg.norm(x @ b - b @ x) < 1e-10 * max(1.0, np.linalg.norm(x))
        for x in mats
        for b in others
    )


@pytest.mark.parametrize("seed", pool_shapes())
def test_commutant_matches_the_null_space_oracle(seed):
    small = jn.basic_extension(jn.random_inclusion(seed)).shared.small_rep
    comm = ag.commutant(small)
    # Two generic elements of a *-algebra generate it, so the oracle solves
    # against them; it is the commutant once it commutes with the whole basis.
    rng = np.random.default_rng(seed)
    pair = np.tensordot(
        rng.standard_normal((2, small.dim)) + 1j * rng.standard_normal((2, small.dim)),
        small.onb(),
        axes=1,
    )
    oracle = null_space_commutant(pair)
    assert commutes_by_loop(oracle, small.onb())
    assert comm.dim == len(oracle)
    assert comm.dim == sum(mult * mult for _, mult in small.block_dims)
    assert la.span_distance(comm.onb(), oracle) < 1e-12
    flat = comm.onb().reshape(comm.dim, -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(comm.dim)).max() < 1e-12


@st.composite
def bratteli_pairs(draw):
    """Block sizes of N and an inclusion matrix into M, ambient dimension ≤ 8."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    na = draw(st.integers(1, 3))
    mult = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)),
                min_size=na,
                max_size=na,
            )
        )
    )
    per_big = mult @ np.array(sizes)
    assume(mult.sum(axis=0).min() > 0 and per_big.min() > 0 and per_big.sum() <= 8)
    return sizes, mult, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(bratteli_pairs())
def test_commutant_of_a_rotated_bratteli_pair(data):
    sizes, mult, seed = data
    _, small = jn._embedded_pair(sizes, mult)
    d = small.ambient_dim
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    small = ag.from_span(u @ small.onb() @ la.dagger(u), d)
    comm = ag.commutant(small)
    # N-block β sits in the ambient space with multiplicity Σ_α mult[α, β].
    assert comm.dim == int((mult.sum(axis=0) ** 2).sum())
    assert commutes_by_loop(comm.onb(), small.onb())
    bicomm = ag.commutant(comm)
    assert la.span_distance(bicomm.onb(), small.onb()) < 1e-9


def test_commutant_refuses_a_span_without_the_unit():
    corner = np.zeros((3, 3), dtype=complex)
    corner[0, 0] = 1.0
    with pytest.raises(ag.SubalgebraError, match="unit .* is not in the span"):
        ag.commutant(ag.from_span([corner], 3))


def test_commutant_certifies_the_reported_multiplicities(sample_multimatrix, monkeypatch):
    real = ag.matrix_units

    def miscounted(alg):
        first, *rest = real(alg)
        return [dataclasses.replace(first, multiplicity=first.multiplicity + 1), *rest]

    monkeypatch.setattr(ag, "matrix_units", miscounted)
    with pytest.raises(ag.SubalgebraError, match="Σ m·μ = 8 .* ambient dimension 7"):
        ag.commutant(sample_multimatrix)


def diagonal_pair_with_a_last_defect():
    """Diagonal units of M₇ against E₁₁, …, E₅₅, E₆₆ + E₇₇, E₇₇, and a copy whose
    last element E₇₇ + E₆₇ fails to commute with the last of them alone."""
    units = np.stack([np.diag(row) for row in np.eye(7, dtype=complex)])
    others = np.concatenate([units[:5], [units[5] + units[6], units[6]]])
    bad = units.copy()
    bad[-1, 5, 6] = 1.0
    return units, others, bad


@pytest.mark.parametrize(
    "budget", [ag._COMMUTE_BLOCK, 49, 3 * 49], ids=["default_block", "one_pair", "three_pairs"]
)
def test_stacked_commute_check_agrees_with_the_loop(sample_multimatrix, monkeypatch, budget):
    # Both algebras sit in M₇, so a budget of 49 entries is one commutator per block.
    monkeypatch.setattr(ag, "_COMMUTE_BLOCK", budget)
    alg = sample_multimatrix
    comm = ag.commutant(alg).onb()
    rng = np.random.default_rng(3)
    noise = random_complex(rng, *comm.shape)
    units, ys, bad = diagonal_pair_with_a_last_defect()
    cases = [
        (comm, alg.onb()),
        (comm + 1e-13 * noise, alg.onb()),
        (comm + 1e-8 * noise, alg.onb()),
        (10.0 * comm + 1e-12 * noise, alg.onb()),
        (alg.onb(), alg.onb()),
        (comm[:0], alg.onb()),
        (units, ys),
        (bad, ys),
    ]
    want = [True, True, False, True, False, False, True, False]
    for (mats, others), expected in zip(cases, want):
        assert ag._commute(mats, others) == commutes_by_loop(mats, others) == expected
    # The defect is in the last pair, so the last block alone finds it.
    assert commutes_by_loop(bad, ys[:-1]) and commutes_by_loop(bad[:-1], ys)


def test_commute_holds_its_scratch_within_the_block_budget():
    # The size of Q₈'s top element: N = span{P_i ⊗ 1₈} in M₆₄ (dim 8) and its
    # commutant N′ = ⊕ᵢ P_i ⊗ M₈ (dim 512), 32 MB of input.
    eye = np.eye(8, dtype=complex)
    projections = [np.diag(row) for row in eye]
    cells = np.einsum("ap,bq->abpq", eye, eye).reshape(64, 8, 8)  # the matrix units of M₈
    small = np.stack([np.kron(p, eye) for p in projections])
    comm = np.stack([np.kron(p, e) for p in projections for e in cells])
    assert comm.shape == (512, 64, 64) and small.shape == (8, 64, 64)
    tracemalloc.start()
    try:
        assert ag._commute(comm, small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A pair of GEMM products of at most 2¹⁴ complex entries each is 512 KB.
    # The stacked y-block (half a pair) and the previous pair, alive until its
    # names are rebound, bring the peak to 2.5 pairs; the whole stack in one
    # block would be 16 MB per product.
    pair = 2 * (1 << 14) * 16
    assert peak <= 3 * pair


def test_blocked_commute_check_reads_every_block(sample_multimatrix, monkeypatch):
    alg = sample_multimatrix
    comm, others = ag.commutant(alg).onb(), alg.onb()
    # Four elements of ``comm`` per block: 13 elements run in 4 blocks.
    monkeypatch.setattr(ag, "_COMMUTE_BLOCK", 4 * others.size)
    assert len(comm) > 2 * 4
    assert ag._commute(comm, others)
    bad = comm.copy()
    bad[-1] = random_complex(np.random.default_rng(4), *comm.shape[1:])
    assert not ag._commute(bad, others)
    assert not ag._commute(comm[:0], others)


def test_central_decomposition_block_structure(sample_multimatrix):
    units = ag.matrix_units(sample_multimatrix)
    assert sorted((b.size, b.multiplicity) for b in units) == [(1, 3), (2, 2)]
    projs = [b.projection for b in units]
    total = sum(p for p in projs)
    np.testing.assert_allclose(total, sample_multimatrix.unit, atol=1e-9)
    for p in projs:
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        np.testing.assert_allclose(p, la.dagger(p), atol=1e-9)


def noisy_diagonal_algebra(blocks, noise, seed=0, rank=2):
    """ℂ^blocks as rank-2 projections summing to 1, in a random unitary frame.

    Each spanning projection carries complex noise of the given size, so the
    span is an algebra only up to float noise; that is what closed subspace
    systems of a larger Kac algebra look like.
    """
    d = blocks * rank
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(random_complex(rng, d, d))
    mats = []
    for b in range(blocks):
        p = np.zeros((d, d), dtype=complex)
        p[b * rank : (b + 1) * rank, b * rank : (b + 1) * rank] = np.eye(rank)
        mats.append(u @ p @ la.dagger(u) + noise * random_complex(rng, d, d))
    return ag.from_span(mats, d)


@pytest.mark.parametrize("blocks,noise", [(8, 1e-13), (4, 3e-13)])
def test_center_survives_float_noise(blocks, noise):
    # The commutator system of a commutative algebra is noise; with an
    # absolute rank floor of 1e-12 its singular values (about 2e-12 here)
    # counted as rank, and the center came out empty.
    alg = noisy_diagonal_algebra(blocks, noise)
    onb = alg.onb()
    assert 1e-13 < alg.residual(onb[:, None] @ onb[None]) < 5e-12
    report = alg.validate()
    assert report["passed"], report
    assert alg.block_dims == [(1, 2)] * blocks


def test_validate_is_a_closure_certificate_alone(sample_multimatrix, monkeypatch):
    def refused(alg):
        raise AssertionError("validate formed matrix units")

    monkeypatch.setattr(ag, "_central_decomposition", refused)
    report = sample_multimatrix.validate()
    assert set(report) == {"product_closure", "adjoint_closure", "unit_membership", "passed"}
    assert report["passed"]


def test_central_decomposition_rejects_non_unital_span():
    # span{e01, e00-e11} has no commuting element at all, so no center exists
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    sz = np.diag([1.0, -1.0]).astype(complex)
    bad = ag.MMAlgebra(ambient_dim=2, basis=(e01, sz))
    with pytest.raises(ag.SubalgebraError):
        ag.matrix_units(bad)


def test_mm_from_generators_closes_to_full_algebra():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    gen = ag.mm_from_generators([e01], 2)
    assert gen.dim == 4


def test_matrix_units_satisfy_relations(sample_multimatrix):
    for block in ag.matrix_units(sample_multimatrix):
        m = len(block.units)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        prod = block.units[i][j] @ block.units[k][l]
                        expect = block.units[i][l] if j == k else 0.0 * prod
                        np.testing.assert_allclose(prod, expect, atol=1e-9)
        diag_sum = sum(block.units[i][i] for i in range(m))
        np.testing.assert_allclose(diag_sum, block.projection, atol=1e-9)


def test_gns_representation_is_star_homomorphism(sample_multimatrix):
    alg = sample_multimatrix
    rng = np.random.default_rng(0)
    rho = la.herm_power(random_complex(rng, 7, 7), 1.0) + np.eye(7)
    rho = alg.project(rho)
    rho = (rho + la.dagger(rho)) / 2.0
    phi = ag.StateData(density=rho / np.trace(rho).real)
    g = ag.gns(alg, phi)
    assert all(v < 1e-9 for v in g.residuals.values())
    x, y = alg.element(random_complex(rng, alg.dim)), alg.element(random_complex(rng, alg.dim))
    np.testing.assert_allclose(g.rep(x @ y), g.rep(x) @ g.rep(y), atol=1e-8)
    np.testing.assert_allclose(g.rep(la.dagger(x)), la.dagger(g.rep(x)), atol=1e-8)
    # cyclicity: {rep(x)Ω} spans the space
    cols = np.stack([g.rep(b) @ g.cyclic for b in alg.onb()], axis=1)
    assert np.linalg.matrix_rank(cols) == g.space_dim
    # J is an antiunitary involution
    v = random_complex(rng, g.space_dim)
    jv = g.mj @ np.conj(v)
    np.testing.assert_allclose(g.mj @ np.conj(jv), v, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(jv), np.linalg.norm(v), atol=1e-9)


def modular_flow(phi: ag.StateData, alg: ag.MMAlgebra, t: float):
    """The automorphism x ↦ ρ^{it} x ρ^{-it}, ρ the density of φ in alg."""
    rho = ag.density_in(alg, phi)
    u = la.herm_power(rho, 1j * t)
    u_inv = la.herm_power(rho, -1j * t)
    return lambda x: u @ x @ u_inv


def test_modular_flow_is_state_preserving_automorphism(sample_multimatrix):
    alg = sample_multimatrix
    rng = np.random.default_rng(1)
    rho = alg.project(np.diag(np.linspace(1.0, 2.0, 7)).astype(complex))
    rho = (rho + la.dagger(rho)) / 2.0
    phi = ag.StateData(density=rho / np.trace(rho).real)
    flow = modular_flow(phi, alg, 0.7)
    x = alg.element(random_complex(rng, alg.dim))
    y = alg.element(random_complex(rng, alg.dim))
    np.testing.assert_allclose(flow(x @ y), flow(x) @ flow(y), atol=1e-8)
    assert alg.residual(flow(x)) < 1e-8
    assert abs(np.trace(phi.density @ (flow(x) - x))) < 1e-8


def test_conditional_expectation_properties(sample_multimatrix):
    big = sample_multimatrix
    center = ag.from_span(
        [b.projection.astype(complex) for b in ag.matrix_units(big)], 7
    )
    phi = ag.StateData(density=np.eye(7, dtype=complex) / 7.0)
    exp = ag.conditional_expectation(big, center, phi)
    rep = exp.validate()
    assert rep["idempotent"] < 1e-9
    assert rep["unital"] < 1e-9
    assert rep["bimodule"] < 1e-9
    assert rep["min_positivity_eig"] > -1e-10
    assert rep.get("state_preserving", 0.0) < 1e-9


def bimodule_by_triples(exp):
    """Oracle: max over bases a, b of N and x of M of ‖E(a·x·b) − a·E(x)·b‖."""
    m_onb, n_onb = exp.domain.onb(), exp.target.onb()
    e_m = exp.apply(m_onb)
    return max(
        la.frob_max(exp.apply(a @ m_onb[:, None] @ n_onb) - a @ e_m[:, None] @ n_onb)
        for a in n_onb
    )


def generic_unitary(alg, rng):
    """exp(i·h) for a generic hermitian h of a unital algebra (unit 1)."""
    g = alg.project(rng.standard_normal(alg.unit.shape) + 1j * rng.standard_normal(alg.unit.shape))
    w, v = np.linalg.eigh(g + la.dagger(g))
    return (v * np.exp(1j * w)) @ la.dagger(v)


@pytest.mark.parametrize("seed", pool_shapes())
def test_one_sided_bimodularity_matches_the_triple_oracle(seed):
    gate = 10 * la.DEFAULT_TOL
    exp = jn.random_inclusion(seed).expectation
    assert exp.validate()["bimodule"] < gate and bimodule_by_triples(exp) < gate
    # Mutant: x ↦ u·E(x)·u†, u a unitary that does not commute with N — one of
    # N when N is not commutative (u is then not central in N), else one of M.
    small = exp.target
    noncommutative = any(size > 1 for size, _ in small.block_dims)
    home = small if noncommutative else exp.domain
    u = generic_unitary(home, np.random.default_rng(seed))
    assert home.residual(u) < 1e-12 and la.frob(u @ la.dagger(u) - small.unit) < 1e-12
    assert la.frob_max(u @ small.onb() - small.onb() @ u) > 1e-3
    mutant = dataclasses.replace(exp, matrix=np.kron(u, u.conj()) @ exp.matrix)
    assert np.allclose(mutant.apply(small.unit), small.unit)
    assert mutant.validate()["bimodule"] > 1e-3 and bimodule_by_triples(mutant) > 1e-3


def test_intersect_of_algebras():
    diag = ag.from_span([np.diag(r).astype(complex) for r in np.eye(3)], 3)
    full = ag.from_span(matrix_unit_basis(3), 3)
    meet = ag.intersect(full, diag)
    assert meet.dim == 3
    scalars = ag.from_span([np.eye(3, dtype=complex)], 3)
    assert ag.intersect(diag, scalars).dim == 1


def test_stored_basis_is_read_only(sample_multimatrix):
    alg = sample_multimatrix
    before = alg.project(np.eye(7, dtype=complex))
    with pytest.raises(ValueError):
        alg.onb()[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        alg.onb()[1] *= 2.0
    np.testing.assert_array_equal(alg.project(np.eye(7, dtype=complex)), before)
    # The normalized-HS view is a fresh array, so writing into it is harmless.
    alg.basis[0][0, 0] = 5.0
    np.testing.assert_array_equal(alg.project(np.eye(7, dtype=complex)), before)


def _rep_multiplicative_by_loop(g: ag.GnsData) -> float:
    """The spot check written out entry by entry over the first 6×6 pairs."""
    onb = list(g.algebra.onb())
    spot = range(min(len(onb), 6))
    worst = 0.0
    for i in spot:
        for j in spot:
            prod_cols = np.stack(
                [np.array([complex(np.vdot(a, onb[i] @ onb[j] @ b)) for a in onb]) for b in onb],
                axis=1,
            )
            lhs = g.rep_basis[i] @ g.rep_basis[j]
            worst = max(worst, la.frob(lhs - g.coord @ prod_cols @ g.coord_inv))
    return worst


def test_rep_multiplicative_matches_entrywise_loop(kp8):
    from kacgalois import jones as jn

    inc = jn.random_inclusion(11)
    for g in (
        ag.gns(kp8.as_mm(), ag.trace_state(kp8.dim)),
        ag.gns(inc.big, inc.phi),
    ):
        assert g.space_dim > 6
        value = g.residuals["rep_multiplicative"]
        assert abs(value - _rep_multiplicative_by_loop(g)) < 1e-13
        assert value < 1e-10


def einsum_gns_parts(alg: ag.MMAlgebra, phi: ag.StateData) -> dict:
    """Reference: the Gram matrix and the three coefficient contractions of ``gns``
    in their einsum form."""
    s = alg.onb()
    c = np.conj(s)
    rho = ag.density_in(alg, phi)
    rho_inv = np.linalg.pinv(rho, rcond=la.RANK_RTOL, hermitian=True)
    gram = np.einsum("ij,akj,bki->ab", phi.density, c, s, optimize=True)
    return {
        "gram": (gram + la.dagger(gram)) / 2.0,
        "left": np.einsum("aqp,iqr,brp->iab", c, s, s, optimize=True),
        "modular": np.einsum("aqp,qr,brs,sp->ab", c, rho, s, rho_inv, optimize=True),
        "star": np.einsum("aqp,bpq->ab", c, c, optimize=True),
    }


def test_gns_contractions_match_the_einsum_oracle(kp8):
    inc = jn.random_inclusion(11)
    for alg, phi in ((kp8.as_mm(), ag.trace_state(kp8.dim)), (inc.big, inc.phi)):
        want = einsum_gns_parts(alg, phi)
        g = ag.gns(alg, phi)
        c, ci = g.coord, g.coord_inv
        modular = c @ want["modular"] @ ci
        got = {
            "gram": phi.gram(alg.onb()),
            "left": g.rep_basis,
            "modular": g.modular,
            "star": g.mj @ np.conj(la.herm_power(g.modular, 0.5)),
        }
        want["left"] = c @ want["left"] @ ci
        want["modular"] = (modular + la.dagger(modular)) / 2.0
        want["star"] = c @ want["star"] @ np.conj(ci)
        for key, value in got.items():
            assert np.abs(value - want[key]).max() <= 1e-12 * max(1.0, np.abs(want[key]).max()), key


# ---------------------------------------------------------------------------
# The structure pass: matrix units from one generic split
# ---------------------------------------------------------------------------


def assert_matrix_units(alg: ag.MMAlgebra, tol: float = 1e-10) -> float:
    """Every relation the matrix units of ``alg`` claim, entry by entry.

    eᵢⱼ·e_kl = δⱼₖ·e_il and eᵢⱼ† = eⱼᵢ in each summand, every unit in the
    span, Σᵢ eᵢᵢ the summand's projection, the projections summing to the
    unit, Σ m² = dim and Σ m·μ = rank of the unit; the corner bases are
    Frobenius-orthonormal.  Returns the largest distance of a unit from the
    span.
    """
    blocks = ag.matrix_units(alg)
    d = alg.ambient_dim
    assert sum(b.size**2 for b in blocks) == alg.dim
    assert sum(b.size * b.multiplicity for b in blocks) == round(np.trace(alg.unit).real)
    membership = alg.residual(np.concatenate([b.units.reshape(-1, d, d) for b in blocks]))
    assert membership < tol
    for b in blocks:
        u, m = b.units, b.size
        for i in range(m):
            for j in range(m):
                prods = u[i, j] @ u  # prods[k, l] = eᵢⱼ·e_kl
                want = np.zeros_like(prods)
                want[j] = u[i]
                assert np.abs(prods - want).max() < tol
                assert np.abs(la.dagger(u[i, j]) - u[j, i]).max() < tol
        assert np.abs(u[range(m), range(m)].sum(axis=0) - b.projection).max() < tol
        flat = b.corner().reshape(m * m, -1)
        assert np.abs(flat.conj() @ flat.T - np.eye(m * m)).max() < tol
    assert la.frob(sum(b.projection for b in blocks) - alg.unit) < tol
    return membership


@pytest.mark.parametrize("name", ALGEBRA_NAMES + ("kp8",))
def test_matrix_units_of_every_bundled_algebra_and_its_dual(algebras, kp8, dual_of, name):
    kac = kp8 if name == "kp8" else algebras[name]
    # Projecting e₁ⱼ onto the algebra keeps the units in it to float precision;
    # unprojected, an eigenvalue gap of 0.007·‖h‖ left Â of C(ℤ₄) at 1.5e-13.
    assert assert_matrix_units(kac.as_mm()) < 1e-14
    assert assert_matrix_units(dual_of(kac).hat.mm) < 1e-14


@pytest.mark.parametrize("seed", pool_shapes())
def test_matrix_units_of_the_relative_commutants_of_pool_draws(seed):
    bc = jn.basic_extension(jn.random_inclusion(seed))
    assert_matrix_units(bc.shared.small_commutant)
    assert_matrix_units(ag.intersect(bc.shared.m1, bc.shared.small_commutant))


def test_matrix_units_of_a_rotated_corner():
    # A rank-5 corner of M₆ and its rank-one complement, in a random frame.
    d = 6
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(random_complex(rng, d, d))
    mats = [block_diag(np.kron(e, np.eye(2)), np.zeros((2, 2))) for e in matrix_unit_basis(2)]
    mats.append(block_diag(np.zeros((4, 4)), np.eye(1), np.zeros((1, 1))))
    mats.append(block_diag(np.zeros((5, 5)), np.eye(1)))
    alg = ag.from_span([u @ m @ la.dagger(u) for m in mats], d)
    assert alg.block_dims == [(1, 1), (1, 1), (2, 2)]
    assert_matrix_units(alg)


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_one_structure_pass_solves_one_null_space_and_nothing_else(kp8, monkeypatch):
    alg = ag.from_onb(kp8.as_mm().onb(), kp8.dim)  # a fresh algebra, nothing cached
    calls = {"null_space": 0, "orthonormalize": 0, "_commute": 0}
    for module, name in ((la, "null_space"), (la, "orthonormalize"), (ag, "_commute")):
        monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    ag.matrix_units(alg)
    alg.block_dims
    ag.matrix_units(alg)
    assert calls == {"null_space": 1, "orthonormalize": 0, "_commute": 0}


def test_a_degenerate_draw_is_replaced_by_the_next_seed(sample_multimatrix, monkeypatch):
    real = ag._generic_draw
    attempts = []

    def scalar_first(onb, attempt):
        attempts.append(attempt)
        g, h = real(onb, attempt)
        # h = 1 commutes with everything and has one eigenvalue, so no split is read off it.
        return g, (np.eye(7, dtype=complex) if attempt == 0 else h)

    monkeypatch.setattr(ag, "_generic_draw", scalar_first)
    assert sorted(sample_multimatrix.block_dims) == [(1, 3), (2, 2)]
    assert attempts == [0, 1]
    assert_matrix_units(sample_multimatrix)


def test_a_span_no_draw_splits_is_refused(sample_multimatrix, monkeypatch):
    attempts = []

    def scalar(onb, attempt):
        attempts.append(attempt)
        return np.eye(7, dtype=complex), np.eye(7, dtype=complex)

    monkeypatch.setattr(ag, "_generic_draw", scalar)
    with pytest.raises(ag.SubalgebraError, match="could not split a projection into 5"):
        ag.matrix_units(sample_multimatrix)
    assert attempts == list(range(12))


BUNDLED_KAC = ("kp8", *ALGEBRA_NAMES)


def fresh_generator_draw(onb, attempt):
    """The structure pass's draw with a new generator on every call, as an oracle."""
    u = la.probe_draws(100 + attempt, (2, 2, len(onb)))
    g, g2 = np.tensordot(u[0] + 1j * u[1], onb, axes=1)
    return g, g2 + la.dagger(g2)


@pytest.mark.parametrize("name", BUNDLED_KAC)
def test_cached_draws_give_bit_identical_matrix_units(monkeypatch, name):
    path = resources.files("kacgalois").joinpath(f"fixtures/{name}.json")
    onb = kc.load_kac(str(path)).as_mm().onb()
    cached = ag.matrix_units(ag.from_onb(onb, onb.shape[-1]))
    monkeypatch.setattr(ag, "_generic_draw", fresh_generator_draw)
    fresh = ag.matrix_units(ag.from_onb(onb, onb.shape[-1]))
    assert len(cached) == len(fresh) > 0
    for got, want in zip(cached, fresh):
        assert np.array_equal(got.units, want.units)
        assert np.array_equal(got.projection, want.projection)


def test_draw_coefficients_are_built_once_and_read_only():
    first = ag._draw_coefficients(3, 5)
    assert first is ag._draw_coefficients(3, 5)
    assert first.shape == (2, 5) and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0


# ---------------------------------------------------------------------------
# MMAlgebra's coefficient maps: the reference span maps and the former gns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_and_residual_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    alg = ag.from_span(list(random_complex(rng, 4, 5, 5)), 5)
    for x in random_complex(rng, 3, 5, 5):
        np.testing.assert_allclose(alg.project(x), project_span(x, alg.onb()), atol=1e-13)
        assert abs(alg.residual(x) - span_residual(x, alg.onb())) <= 1e-13
    assert alg.residual(alg.onb()) < 1e-13


@pytest.mark.parametrize("rows", [1, 3, 4, 5, 40])
def test_coeffs_conjugates_either_operand_with_the_same_bits(rows):
    # Four basis rows: one of the two branches conjugates x, the other the basis.
    rng = np.random.default_rng(rows)
    alg = ag.from_span(list(random_complex(rng, 4, 3, 3)), 3)
    x = random_complex(rng, rows, 3, 3)
    flat, basis = x.reshape(rows, 9), alg.onb().reshape(4, 9)
    got = alg.coeffs(x)
    assert np.array_equal(got, flat @ basis.conj().T)
    assert np.array_equal(got, np.conj(np.conj(flat) @ basis.T))


def gns_by_rows(alg, phi):
    """``gns`` in standard form with its coefficients taken by hand, one matmul
    against the conjugated basis rows ⟨a, X_b⟩ = Σ conj(a)·X_b per stack X:
    the basis operators, the modular operator, J's linear part and the residuals."""
    stack = alg.onb()
    k = len(stack)
    rows = np.conj(stack).reshape(k, -1)

    def cols(x):
        """Column j: the coefficients of x[j]."""
        return (x.reshape(len(x), -1) @ rows.T).T

    rho = ag.density_in(alg, phi)
    w, u = np.linalg.eigh(rho)
    keep = w > la.RANK_RTOL * w.max()
    u, w = u[:, keep], w[keep]
    half, half_inv, rho_inv = ((u * w**p) @ la.dagger(u) for p in (0.5, -0.5, -1.0))
    coord, coord_inv = cols(stack @ half), cols(stack @ half_inv)
    left = ((stack[:, None] @ stack[None]).reshape(k * k, -1) @ rows.T).reshape(k, k, k)
    rep_basis = left.swapaxes(1, 2)
    cyclic = coord @ alg.coeffs(alg.unit)
    modular = cols(rho @ stack @ rho_inv)
    modular = (modular + la.dagger(modular)) / 2.0
    star_cols = cols(np.conj(stack).swapaxes(1, 2))
    mj = star_cols
    spot = stack[: min(k, 6)]
    prods = (spot[:, None] @ spot[None])[:, :, None] @ stack
    prod_cols = (prods.reshape(len(spot), len(spot), k, -1) @ rows.T).swapaxes(2, 3)
    rep_spot = rep_basis[: len(spot)]
    ms = coord @ star_cols @ np.conj(coord_inv)
    s_cols = ms @ np.conj(coord @ cols(stack)) - coord @ star_cols
    polar = ms - mj @ np.conj(la.herm_power(modular, 0.5))
    res = {
        "rep_multiplicative": la.frob_max(rep_spot[:, None] @ rep_spot[None] - prod_cols),
        "rep_star": la.frob_max(
            la.dagger(rep_basis) - np.tensordot(star_cols.T, rep_basis, axes=1)
        ),
        "j_cyclic": float(np.linalg.norm(mj @ np.conj(cyclic) - cyclic)),
        "j_involution": la.frob_max(mj @ np.conj(mj) - np.eye(k)),
        "modular_cyclic": float(np.linalg.norm(modular @ cyclic - cyclic)),
        "j_modular_j": la.frob_max(
            mj @ np.conj(modular) @ np.conj(mj) - np.linalg.inv(modular)
        ),
        "s_star": float(np.linalg.norm(s_cols, axis=0).max()),
        "j_polar": float(np.linalg.norm(polar, axis=0).max()),
    }
    return rep_basis, modular, mj, res


def assert_gns_matches_rows(alg, phi):
    g = ag.gns(alg, phi)
    rep_basis, modular, mj, res = gns_by_rows(alg, phi)
    assert np.array_equal(g.rep_basis, rep_basis)
    assert np.array_equal(g.modular, modular)
    assert np.array_equal(g.mj, mj)
    assert g.residuals == res


@pytest.mark.parametrize("seed", pool_shapes())
def test_gns_matches_its_row_contractions_bit_for_bit_on_pool_draws(seed):
    inc = jn.random_inclusion(seed)
    assert_gns_matches_rows(inc.big, inc.phi)


@pytest.mark.parametrize("name", ALGEBRA_NAMES + ("kp8",) + LADDER_NAMES + ("rotated_kp8",))
def test_gns_matches_its_row_contractions_bit_for_bit_on_kac_algebras(named_algebra, name):
    kac = named_algebra(name)
    assert_gns_matches_rows(kac.as_mm(), ag.trace_state(kac.dim))


def test_j_polar_trips_on_an_involution_that_is_not_the_polar_part_of_s():
    # i·J is an antiunitary involution too, but i·J·Δ^{1/2} = i·S.
    inc = jn.random_inclusion(11)
    g = ag.gns(inc.big, inc.phi)
    assert max(g.residuals.values()) < 1e-12
    bent = dataclasses.replace(g, mj=1j * g.mj).residuals
    assert bent["j_involution"] < 1e-12
    assert bent["j_polar"] > 1e-3
