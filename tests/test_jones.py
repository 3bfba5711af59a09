"""Basic construction, dual operator-valued weights, extremality, and flow.

The two-point inclusion oracle below re-derives every number the pipeline
reports for the scalars-in-diagonals witness using nothing but 2x2 numpy
arithmetic, so the library values are checked against an independent source.
"""

import gc
import weakref

import numpy as np
import pytest

from kacgalois import algebra as ag
from kacgalois import jones as jn
from kacgalois import linalg as la

from conftest import gns_by_gram, pool_shapes

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)


def power_iteration_norm_sq(rows, steps=200):
    """Independent oracle: squared spectral norm of a multiplicity matrix."""
    lam = np.array(rows, dtype=float)
    g = lam.T @ lam
    v = np.ones(g.shape[0])
    for _ in range(steps):
        w = g @ v
        v = w / np.linalg.norm(w)
    return float(v @ g @ v)


def derive_two_point_witness(first_weight=1.0 / 3.0):
    """First-principles data for scalars inside the diagonals of M2.

    Builds the weighted cyclic vector, the Jones projection, the weight
    pinned by x e y -> x y (solved as a dense linear system), and the
    balanced generator — using nothing beyond 2x2 numpy arithmetic.
    """
    weights = np.array([first_weight, 1.0 - first_weight])
    cyclic = np.sqrt(weights)
    e = np.outer(cyclic, cyclic)

    diag_units = [E00, E11]
    src = np.stack(
        [(x @ e @ y).reshape(-1) for x in diag_units for y in diag_units], axis=1
    )
    tgt = np.stack(
        [(x @ y).reshape(-1) for x in diag_units for y in diag_units], axis=1
    )
    w = tgt @ np.linalg.inv(src)

    def weight_map(z):
        return (w @ z.reshape(-1)).reshape(2, 2)

    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    index = weight_map(np.eye(2))

    r = np.diag([np.trace(weight_map(E00)).real, np.trace(weight_map(E11)).real])
    scale = np.sqrt(np.trace(np.linalg.inv(r)) / np.trace(r)).real
    gen = scale * r
    return {
        "weights": weights,
        "jones_projection": e,
        "weight_map": weight_map,
        "off_diagonal_unit": off,
        "index_eigs": np.sort(np.linalg.eigvalsh(index)),
        "index_trace": float(np.trace(index).real),
        "generator": gen,
        "a_squared_eigs": np.sort(np.linalg.eigvalsh(gen @ gen)),
        "trace_defect": abs(
            np.trace(weight_map(off @ off.conj().T)).real
            - np.trace(weight_map(off.conj().T @ off)).real
        ),
    }


def test_c_in_c2_oracle():
    oracle = derive_two_point_witness(1.0 / 3.0)
    weight_map = oracle["weight_map"]
    e, off = oracle["jones_projection"], oracle["off_diagonal_unit"]

    # the weight sends each matrix unit to its diagonal part over the state weight
    np.testing.assert_allclose(weight_map(E00), 3.0 * E00, atol=1e-12)
    np.testing.assert_allclose(weight_map(E11), 1.5 * E11, atol=1e-12)
    np.testing.assert_allclose(weight_map(off), 0.0 * off, atol=1e-12)
    np.testing.assert_allclose(weight_map(e), np.eye(2), atol=1e-12)

    np.testing.assert_allclose(oracle["index_eigs"], [1.5, 3.0], atol=1e-12)
    assert abs(oracle["index_trace"] - 4.5) < 1e-12

    # push-down property on the full extension algebra
    for z in (E00, E11, off, off.T):
        np.testing.assert_allclose(e @ weight_map(e @ z), e @ z, atol=1e-12)

    # the generator is balanced: trace(a) = trace(1/a)
    gen = oracle["generator"]
    assert abs(np.trace(gen) - np.trace(np.linalg.inv(gen))) < 1e-12
    np.testing.assert_allclose(oracle["a_squared_eigs"], [0.5, 2.0], atol=1e-12)

    # not extremal: the trace of the weight is not a trace on the commutant
    assert abs(oracle["trace_defect"] - 1.5) < 1e-12  # |3.0 - 1.5|
    # and the generator criterion agrees
    assert la.opnorm(gen - np.eye(2)) > 0.4

    # the balanced expectation weight (1/2) is the extremal member of the family
    balanced = derive_two_point_witness(0.5)
    np.testing.assert_allclose(balanced["a_squared_eigs"], [1.0, 1.0], atol=1e-12)
    assert balanced["trace_defect"] < 1e-12
    np.testing.assert_allclose(balanced["index_eigs"], [2.0, 2.0], atol=1e-12)


def test_witness_pipeline_matches_oracle():
    inc = jn.fixture_scaled_pair(1.0 / 3.0)
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)

    eigs = np.sort(np.linalg.eigvalsh(dw.index_element))
    np.testing.assert_allclose(eigs, [1.5, 3.0], atol=1e-9)

    # the weight acts on represented matrix units exactly as the oracle says
    op0 = bc.gns.rep(E00)
    op1 = bc.gns.rep(E11)
    np.testing.assert_allclose(dw.apply(op0), 3.0 * op0, atol=1e-9)
    np.testing.assert_allclose(dw.apply(op1), 1.5 * op1, atol=1e-9)
    np.testing.assert_allclose(dw.apply(bc.e_n), np.eye(bc.gns.space_dim), atol=1e-9)

    report = jn.relcomm_report(bc, dw)
    squared = np.sort(np.concatenate([s["squared_spectrum"] for s in report.summands]))
    np.testing.assert_allclose(squared, [0.5, 2.0], atol=1e-9)

    ext = jn.extremality(bc, dw, report)
    assert not ext["extremal"]
    assert not ext["extremal_by_direct"]
    assert ext["criteria_agree"]
    assert abs(ext["direct_residual"] - 1.5) < 1e-9

    # the canonical-weight flow genuinely differs from the generator orbit
    # on this witness (the reported defect is large, not a rounding artifact)
    assert report.residuals["flow_match"] > 0.5


FIXTURE_CASES = [
    ("scaled_third", lambda: jn.fixture_scaled_pair(1.0 / 3.0), [1.5, 3.0], False),
    ("scaled_half", lambda: jn.fixture_scaled_pair(0.5), [2.0, 2.0], True),
    ("point_in_full", jn.fixture_point_in_full, [4.0] * 4, True),
    ("pinch", jn.fixture_pinch, [2.0] * 4, True),
    ("markov_chain", jn.fixture_markov_chain, [5.0] * 5, True),
]


@pytest.mark.parametrize("label,build,index_eigs,extremal", FIXTURE_CASES, ids=[c[0] for c in FIXTURE_CASES])
def test_fixture_inclusions(label, build, index_eigs, extremal):
    inc = build()
    bc = jn.basic_extension(inc)
    assert bc.residuals["three_way_max"] < 1e-8
    dw = jn.dual_weight(bc)
    assert dw.residuals["pin_consistency"] < 1e-9
    assert dw.residuals["unit_from_e"] < 1e-9
    assert dw.residuals["push_down"] < 1e-9
    assert dw.residuals["index_central"] < 1e-9
    eigs = np.sort(np.linalg.eigvalsh(dw.index_element))
    np.testing.assert_allclose(eigs, index_eigs, atol=1e-8)

    report = jn.relcomm_report(bc, dw)
    ext = jn.extremality(bc, dw, report)
    assert ext["extremal"] == extremal
    assert ext["criteria_agree"]


def e_range(bc: jn.BasicExtension) -> np.ndarray:
    """Columns: an orthonormal basis of the range of e, by QR of N's GNS vectors,
    as ``basic_extension`` forms it."""
    q, _ = np.linalg.qr(bc.gns.lam(bc.inclusion.small.onb()).T)
    return q


def pinv_weight(bc: jn.BasicExtension) -> np.ndarray:
    """Reference: W = pinv(C)·T with numpy's pinv, C and T formed afresh.

    C holds the coordinates of every x·e·y in M₁'s basis and T those of every
    x·y in M's, x-major over the represented basis of M.
    """
    ops = bc.gns.rep(bc.inclusion.big.onb())
    coords, _ = jn._sandwich_coordinates(ops, e_range(bc), bc.shared.m1.onb())
    t = bc.shared.big_rep.coeffs(ops[:, None] @ ops[None]).reshape(-1, len(ops))
    return np.linalg.pinv(coords.reshape(-1, bc.shared.m1.dim), rcond=la.RANK_RTOL) @ t


@pytest.mark.parametrize("seed", [11, 14, 33])
def test_dual_weight_is_the_pinv_of_the_sandwich_coordinates(seed):
    bc = jn.basic_extension(jn.random_inclusion(seed))
    dw = jn.dual_weight(bc)
    want = pinv_weight(bc)
    assert np.abs(dw.coords - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "label,build",
    [(c[0], c[1]) for c in FIXTURE_CASES if c[0] in ("scaled_half", "point_in_full", "pinch", "markov_chain")],
    ids=["scaled_half", "point_in_full", "pinch", "markov_chain"],
)
def test_markov_fixtures_match_multiplicity_norm(label, build):
    inc = build()
    oracle = power_iteration_norm_sq(inc.bratteli)
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    eigs = np.linalg.eigvalsh(dw.index_element)
    assert np.abs(eigs - oracle).max() < 1e-8
    assert abs(jn.bratteli_norm_sq(inc.bratteli) - oracle) < 1e-10


def matrix_unit(d, i, j):
    out = np.zeros((d, d), dtype=complex)
    out[i, j] = 1.0
    return out


# M and N of each fixture written out one matrix unit at a time, independent
# of the Bratteli data the library builds them from.
FULL_M2 = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]
HAND_WRITTEN_PAIRS = {
    "scaled_third": ([E00, E11], [np.eye(2)]),
    "point_in_full": (FULL_M2, [np.eye(2)]),
    "pinch": (FULL_M2, [E00, E11]),
    "markov_chain": (
        [matrix_unit(3, 0, 0)] + [matrix_unit(3, i, j) for i in (1, 2) for j in (1, 2)],
        [np.eye(3)],
    ),
}


@pytest.mark.parametrize("label", sorted(HAND_WRITTEN_PAIRS))
def test_fixture_pairs_match_hand_written_matrix_units(label):
    inc = {c[0]: c[1] for c in FIXTURE_CASES}[label]()
    big, small = HAND_WRITTEN_PAIRS[label]
    assert la.span_distance(inc.big.onb(), la.orthonormalize(big)) < 1e-12
    assert la.span_distance(inc.small.onb(), la.orthonormalize(small)) < 1e-12


def test_bratteli_norm_matches_power_oracle():
    rows_cases = [((1,), (1,)), ((2,),), ((1, 1),), ((1,), (2,)), ((1, 2), (2, 1)), ((1, 0, 2), (0, 1, 1))]
    for rows in rows_cases:
        assert abs(jn.bratteli_norm_sq(rows) - power_iteration_norm_sq(rows)) < 1e-9


@pytest.mark.parametrize("seed", [1, 5, 12, 33, 40, 47])
def test_random_family_spot_checks(seed):
    inc = jn.random_inclusion(seed)
    bc = jn.basic_extension(inc)
    assert bc.residuals["three_way_max"] < 1e-8
    assert bc.residuals["e_compress"] < 1e-9
    # regression: kernel undercount
    assert bc.shared.small_commutant.residual(np.eye(bc.gns.space_dim)) < 1e-9
    dw = jn.dual_weight(bc)
    assert dw.residuals["unit_from_e"] < 1e-9
    assert dw.residuals["push_down"] < 1e-9
    assert dw.residuals["index_central"] < 1e-9
    assert dw.residuals["min_positivity_eig"] > -1e-10
    report = jn.relcomm_report(bc, dw)
    assert report.residuals["flow_match"] < 1e-8
    assert report.residuals["mirror_pair_match"] < 1e-8
    ext = jn.extremality(bc, dw, report)
    assert ext["criteria_agree"]


def test_flow_is_state_independent():
    inc = jn.random_inclusion(9)
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    rep1 = jn.relcomm_report(bc, dw)
    var = jn.omega_variation(inc, 123)
    bc2 = jn.basic_extension(var)
    dw2 = jn.dual_weight(bc2)
    rep2 = jn.relcomm_report(bc2, dw2)
    s1 = np.sort(jn.flow_spectrum(rep1))
    s2 = np.sort(jn.flow_spectrum(rep2))
    assert np.abs(s1 - s2).max() < 1e-8
    assert rep2.residuals["flow_match"] < 1e-8


def test_skewed_expectation_is_valid_and_state_preserving():
    inc = jn.random_inclusion(3)
    rep = inc.validate()
    assert rep["passed"]
    assert rep["expectation_state_preserving"] < 1e-9


@pytest.mark.parametrize("seed", [1, 3, 5, 15, 33, 47])
def test_a_skewed_draw_forms_no_generic_split(monkeypatch, seed):
    # k is drawn in N′∩M read as one null space over M's basis, so a seed's
    # expectation does not move with the matrix units of any algebra.
    def split(alg):
        raise AssertionError("random_inclusion formed a generic split")

    monkeypatch.setattr(ag, "_central_decomposition", split)
    inc = jn.random_inclusion(seed)
    relcomm, comm = ag.relative_commutant(inc.small.onb(), inc.big.onb())
    monkeypatch.undo()
    assert "skewed=True" in inc.label and comm <= 1e-13
    want = ag.intersect(ag.commutant(inc.small), inc.big).onb()
    assert len(relcomm) == len(want) and la.span_distance(relcomm, want) <= 1e-12


def test_inclusion_rejections():
    with pytest.raises(jn.InclusionError):
        jn.fixture_scaled_pair(0.0)
    with pytest.raises(jn.InclusionError):
        jn.fixture_scaled_pair(1.5)

    units = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    full = ag.from_span(units, 2)
    diag = ag.from_span([E00, E11], 2)
    with pytest.raises(jn.InclusionError):
        jn.make_inclusion(diag, full, np.eye(4), np.eye(2) / 2.0)

    half = ag.CondExpectation(matrix=0.5 * np.eye(4, dtype=complex), domain=diag, target=diag)
    with pytest.raises(jn.InclusionError):
        jn.make_inclusion(diag, diag, half, np.eye(2) / 2.0)


def test_an_inclusion_in_a_corner_of_the_ambient_is_refused():
    # M₂ ⊕ 0 ⊆ M₃ with N = ℂ·p, p the corner's unit, and E(x) = Tr(p·x)/2·p + x₃₃·e₃₃:
    # E(1) = 1 and E's laws hold, but 1 ∉ N, so the density of φ in M is singular.
    import ast

    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    big = ag.from_span([np.outer(eye[i], eye[j]) for i in range(2) for j in range(2)], 3)
    small = ag.from_span([p], 3)
    e = np.zeros((9, 9), dtype=complex)
    e[np.ix_([0, 4], [0, 4])] = 0.5
    e[8, 8] = 1.0
    with pytest.raises(jn.InclusionError) as info:
        jn.make_inclusion(big, small, e, p / 2.0)
    rep = ast.literal_eval(str(info.value).split(": ", 1)[1])
    assert rep.pop("unit_in_small") == pytest.approx(1.0)
    assert rep.pop("phi_min_gram_eig") > 0.1
    assert max(rep.values()) < 1e-12


# Library-level checks that only these tests use: the canonical unitary
# between two GNS spaces, and the recognition of an abstract model of the
# basic extension (the uniqueness of the basic construction).


def gns_intertwiner(g1: ag.GnsData, g2: ag.GnsData) -> tuple[np.ndarray, dict]:
    """Canonical unitary between two GNS spaces of the same algebra.

    The coefficient-identity map Λ₁(x) ↦ Λ₂(x) intertwines the left
    actions; its polar part is the canonical unitary.  Its defect from
    the identity measures how far the two states are apart, while the
    intertwining residual certifies equivalence of the representations.
    """
    v0 = g2.coord @ np.linalg.inv(g1.coord)
    w, s, vt = np.linalg.svd(v0)
    u = w @ vt
    onb = g1.algebra.onb()
    inter = la.opnorm(u @ g1.rep(onb) - g2.rep(onb) @ u)
    return u, {"intertwining": inter, "unitary": la.opnorm(la.dagger(u) @ u - np.eye(u.shape[0]))}


def _functional_coords(
    onb: list[np.ndarray], value, tol: float = la.DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate maps of the inner product value(a†b) on a spanning basis."""
    gram = np.array([[value(la.dagger(a) @ b) for b in onb] for a in onb])
    gram = (gram + la.dagger(gram)) / 2.0
    w, u = np.linalg.eigh(gram)
    if w.min() < tol:
        raise ValueError(
            f"functional is not faithful on the algebra (Gram eigenvalue {w.min():.3e})"
        )
    coord = (u * np.sqrt(w)) @ la.dagger(u)
    coord_inv = (u / np.sqrt(w)) @ la.dagger(u)
    return coord, coord_inv


def verify_extension_model(
    bc: jn.BasicExtension,
    dw: jn.DualWeight,
    model: ag.MMAlgebra,
    e_model: np.ndarray,
    weight_model,
    tol: float = la.DEFAULT_TOL,
) -> dict:
    """Recognize an abstract model (R, e, T) of the basic extension.

    Hypotheses checked: e compresses M through E, R is generated by M and
    e, T(e) = 1 with T bimodular and positive, and e is invariant under
    the modular flow of φ∘T.  The intertwining unitary is built column by
    column from x·e·y ↦ x·e_N·y in the two weighted GNS coordinate systems,
    and conjugation by it is verified to fix M pointwise, send e_N to e,
    and carry M₁ onto R.
    """
    inc = bc.inclusion
    g = bc.gns
    k = g.space_dim
    big_ops = g.rep(inc.big.onb())

    hyp = {}
    hyp["compression"] = la.opnorm(
        e_model @ big_ops @ e_model
        - g.rep(inc.expectation.apply(inc.big.onb())) @ e_model
    )
    generated = ag.from_span(
        np.concatenate([big_ops, sandwich(big_ops, e_model)]), k
    )
    hyp["generated"] = la.span_distance(generated.onb(), model.onb())
    tm = weight_model
    hyp["unit_from_e"] = la.frob(tm(e_model) - np.eye(k, dtype=complex))
    rng = np.random.default_rng(5)
    bimod = 0.0
    pos_min = 0.0
    model_onb = model.onb()
    for _ in range(5):
        coeffs = rng.standard_normal(len(model_onb)) + 1j * rng.standard_normal(
            len(model_onb)
        )
        z = model.element(coeffs)
        a = big_ops[int(rng.integers(len(big_ops)))]
        b = big_ops[int(rng.integers(len(big_ops)))]
        bimod = max(bimod, la.frob(tm(a @ z @ b) - a @ tm(z) @ b))
        y = tm(la.dagger(z) @ z)
        pos_min = min(pos_min, float(np.linalg.eigvalsh((y + la.dagger(y)) / 2.0).min()))
    hyp["bimodule"] = bimod
    hyp["min_positivity_eig"] = pos_min

    omega_vec = g.cyclic

    def phi_weight(z: np.ndarray) -> complex:
        return complex(np.vdot(omega_vec, dw.apply(z) @ omega_vec))

    def psi_weight(z: np.ndarray) -> complex:
        return complex(np.vdot(omega_vec, tm(z) @ omega_vec))

    d_model = jn._riesz_density(model_onb, [psi_weight(m) for m in model_onb])
    hyp["e_flow_invariant"] = la.opnorm(d_model @ e_model - e_model @ d_model)

    m1_onb = bc.shared.m1.onb()
    if len(m1_onb) != len(model_onb):
        raise RuntimeError(
            f"model dimension {len(model_onb)} differs from the extension "
            f"dimension {len(m1_onb)}; hypotheses cannot hold"
        )

    coord1, _ = _functional_coords(m1_onb, phi_weight)
    coord2, _ = _functional_coords(model_onb, psi_weight)

    src = coord1 @ bc.shared.m1.coeffs(sandwich(big_ops, bc.e_n)).T
    tgt = coord2 @ model.coeffs(sandwich(big_ops, e_model)).T
    u = tgt @ np.linalg.pinv(src, rcond=la.RANK_RTOL)
    well_defined = float(
        np.linalg.norm(u @ src - tgt) / max(1.0, np.linalg.norm(tgt))
    )
    unitary = la.opnorm(la.dagger(u) @ u - np.eye(u.shape[0]))

    # Recover the isomorphism through coefficient transport.
    inv2 = np.linalg.inv(coord2)
    rep2_basis = np.stack(
        [coord2 @ model.coeffs(z @ model_onb).T @ inv2 for z in model_onb]
    )
    rep2_mat = rep2_basis.reshape(len(model_onb), -1).T

    def transport(z: np.ndarray) -> tuple[np.ndarray, float]:
        r1 = coord1 @ bc.shared.m1.coeffs(z @ m1_onb).T @ np.linalg.inv(coord1)
        moved = u @ r1 @ la.dagger(u)
        coeffs, *_ = np.linalg.lstsq(rep2_mat, moved.reshape(-1), rcond=None)
        out = model.element(coeffs)
        residual = float(np.linalg.norm(rep2_mat @ coeffs - moved.reshape(-1)))
        return out, residual

    fixes_big = 0.0
    membership = 0.0
    for x in big_ops:
        img, mem = transport(x)
        membership = max(membership, mem)
        fixes_big = max(fixes_big, la.frob(img - x))
    img_e, mem_e = transport(bc.e_n)
    membership = max(membership, mem_e)
    maps_projection = la.frob(img_e - e_model)

    report = {
        **{f"hypothesis_{n}": v for n, v in hyp.items()},
        "well_defined": well_defined,
        "unitary": unitary,
        "fixes_big": fixes_big,
        "maps_projection": maps_projection,
        "image_membership": membership,
    }
    report["passed"] = (
        max(
            v
            for n, v in report.items()
            if n not in ("passed", "hypothesis_min_positivity_eig")
        )
        < max(tol * 100, 1e-7)
        and hyp["min_positivity_eig"] > -1e-9
    )
    return {"unitary_matrix": u, "report": report}


def test_gns_intertwiner_between_two_states():
    diag = ag.from_span([E00, E11], 2)
    g1 = ag.gns(diag, ag.StateData(density=np.diag([0.5, 0.5]).astype(complex)))
    g2 = ag.gns(diag, ag.StateData(density=np.diag([0.25, 0.75]).astype(complex)))
    u, res = gns_intertwiner(g1, g2)
    assert res["unitary"] < 1e-10
    assert res["intertwining"] < 1e-9


@pytest.mark.parametrize("seed", pool_shapes())
def test_the_standard_form_is_the_gram_coordinate_gns_up_to_a_unitary(seed):
    # Right multiplication by ρ^{1/2} is positive, so the canonical unitary
    # is 1 up to rounding; it carries Ω, Δ and J (J₂ = U·J₁·Uᵀ, J antilinear).
    inc = jn.random_inclusion(seed)
    old, new = gns_by_gram(inc.big, inc.phi), ag.gns(inc.big, inc.phi)
    u, res = gns_intertwiner(old, new)
    assert res["unitary"] < 1e-10 and res["intertwining"] < 1e-10
    assert la.frob(u @ old.cyclic - new.cyclic) < 1e-10
    assert la.opnorm(u @ old.modular @ la.dagger(u) - new.modular) < 1e-10
    assert la.opnorm(u @ old.mj @ u.T - new.mj) < 1e-10


def chain_bits(chain: jn.JonesChain) -> list:
    """Every number a Jones chain reports, as residual dicts and arrays."""
    bc, dw, rep, ext = chain
    return [
        bc.gns.residuals, bc.residuals, dw.coords, dw.index_element, dw.residuals,
        rep.residuals, rep.flow_generator, [s["spectrum"] for s in rep.summands], ext,
    ]


def assert_same_bits(a: list, b: list) -> None:
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@pytest.mark.parametrize("seed", [1, 4, 11, 14, 33, 40])
def test_a_variation_reads_the_same_bits_shared_or_built_alone(seed):
    inc = jn.random_inclusion(seed)
    var = jn.omega_variation(inc, seed + 1000)
    jn._state_free.cache_clear()
    alone = chain_bits(jn.jones_chain(var))
    jn._state_free.cache_clear()
    jn.jones_chain(inc)
    assert_same_bits(chain_bits(jn.jones_chain(var)), alone)


def test_a_draw_and_its_variation_share_the_state_free_half():
    inc = jn.random_inclusion(9)
    bc = jn.basic_extension(inc)
    bc_var = jn.basic_extension(jn.omega_variation(inc, 123))
    assert bc_var.shared is bc.shared
    assert bc_var.shared.m1 is bc.shared.m1
    assert bc_var.shared.small_commutant is bc.shared.small_commutant
    assert not np.array_equal(bc_var.e_n, bc.e_n)


def test_the_cache_lets_go_of_a_pair_it_no_longer_holds():
    first = jn.jones_chain(jn.random_inclusion(4))
    held = weakref.ref(first.extension.shared.big_rep)
    del first
    gc.collect()
    assert held() is not None  # the cache keeps the last pair
    jn.jones_chain(jn.random_inclusion(11))
    gc.collect()
    assert held() is None


def test_extension_model_recognition_identity_and_rotated():
    inc = jn.fixture_point_in_full()
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    out = verify_extension_model(bc, dw, bc.shared.m1, bc.e_n, dw.apply)
    assert out["report"]["passed"], out["report"]

    # rotate the model by a unitary that commutes with the represented M,
    # so the carried copy still extends the same inclusion
    rng = np.random.default_rng(9)
    k = bc.gns.space_dim
    comm = ag.commutant(bc.shared.big_rep)
    x = comm.project(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    h = (x + la.dagger(x)) / 2.0
    w, v = np.linalg.eigh(h)
    u_rot = v @ np.diag(np.exp(1j * w)) @ la.dagger(v)
    model = ag.from_span([u_rot @ m @ la.dagger(u_rot) for m in bc.shared.m1.onb()], k)
    e_rot = u_rot @ bc.e_n @ la.dagger(u_rot)
    out2 = verify_extension_model(
        bc, dw, model, e_rot, lambda z: dw.apply(la.dagger(u_rot) @ z @ u_rot)
    )
    assert out2["report"]["passed"], out2["report"]


def test_extension_model_rejects_wrong_dimension():
    inc = jn.fixture_pinch()
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    small_model = ag.from_span([np.eye(bc.gns.space_dim, dtype=complex)], bc.gns.space_dim)
    with pytest.raises(RuntimeError):
        verify_extension_model(bc, dw, small_model, bc.e_n, dw.apply)


def test_dual_integral_generates_full_extension_with_algebra():
    # For scalars inside a Kac algebra with its Haar expectation, the dual
    # integral plays the Jones projection: it compresses to the Haar state
    # and together with the algebra generates everything on its Hilbert space.
    from kacgalois import duality as du
    from kacgalois import kac as kc

    kac = kc.group_algebra(kc.cyclic_group(3))
    dd = du.dual_kac(kac)
    e_hat = dd.ints.e_hat
    mm = kac.as_mm()
    for b in mm.onb():
        np.testing.assert_allclose(
            e_hat @ b @ e_hat, kac.haar_of(b) * e_hat, atol=1e-10
        )
    generated = ag.mm_from_generators(list(mm.basis) + [e_hat], kac.dim)
    assert generated.dim == kac.dim**2


def sandwich(ops, e):
    """The stack of all x·e·y over x, y in ``ops``, x-major."""
    return ((ops @ e)[:, None] @ ops[None]).reshape(-1, *e.shape)


class DenseDualWeight:
    """The oracle: Ê as the dense k²×k² matrix tgt·pinv(r̄·src)·r̄.

    The columns of src and tgt are every x·e·y and x·y over the represented
    basis of M, and r̄ holds the conjugated orthonormal rows of M₁.  It offers
    the readers' interface through the dense ``apply`` alone, so the
    relative-commutant report and extremality can be run through it.
    """

    def __init__(self, bc):
        k = bc.gns.space_dim
        ops = bc.gns.rep(bc.inclusion.big.onb())
        self.src = sandwich(ops, bc.e_n).reshape(-1, k * k).T
        self.tgt = (ops[:, None] @ ops[None]).reshape(-1, k * k).T
        r_conj = bc.shared.m1.onb().reshape(bc.shared.m1.dim, -1).conj()
        self.matrix = (self.tgt @ np.linalg.pinv(r_conj @ self.src, rcond=la.RANK_RTOL)) @ r_conj
        self.big = bc.shared.big_rep
        index_el = self.apply(np.eye(k, dtype=complex))
        self.index_element = (index_el + la.dagger(index_el)) / 2.0

    def apply(self, x):
        flat = np.reshape(x, (*np.shape(x)[:-2], -1))
        return (flat @ self.matrix.T).reshape(np.shape(x))

    def coeffs(self, x):
        return self.big.coeffs(self.apply(x))

    def composite(self, f, x):
        return f(self.apply(x))


def dense_dual_weight(bc):
    """The dense oracle with the residuals computed as from the dense matrix."""
    dw = DenseDualWeight(bc)
    k = bc.gns.space_dim
    eye = np.eye(k, dtype=complex)
    big_ops = bc.gns.rep(bc.inclusion.big.onb())
    index_el = dw.index_element
    res = {
        "pin_consistency": float(
            np.linalg.norm(dw.matrix @ dw.src - dw.tgt) / max(1.0, np.linalg.norm(dw.tgt))
        )
    }
    res["unit_from_e"] = la.frob(dw.apply(bc.e_n) - eye)
    res["index_in_big"] = bc.shared.big_rep.residual(index_el)
    res["index_central"] = la.frob_max(index_el @ big_ops - big_ops @ index_el)
    m1_onb = bc.shared.m1.onb()
    ez = bc.e_n @ m1_onb
    res["push_down"] = la.frob_max(bc.e_n @ dw.apply(ez) - ez)
    images = dw.apply(m1_onb)
    res["range_in_big"] = bc.shared.big_rep.residual(images)
    res["adjoint_compatible"] = la.frob_max(dw.apply(la.dagger(m1_onb)) - la.dagger(images))
    rng = np.random.default_rng(2)
    pos_min = bimod = 0.0
    for _ in range(6):
        coeffs = rng.standard_normal(len(m1_onb)) + 1j * rng.standard_normal(len(m1_onb))
        z = bc.shared.m1.element(coeffs)
        y = dw.apply(la.dagger(z) @ z)
        pos_min = min(pos_min, float(np.linalg.eigvalsh((y + la.dagger(y)) / 2.0).min()))
        a = big_ops[int(rng.integers(len(big_ops)))]
        b = big_ops[int(rng.integers(len(big_ops)))]
        bimod = max(bimod, la.frob(dw.apply(a @ z @ b) - a @ dw.apply(z) @ b))
    res["min_positivity_eig"] = pos_min
    res["bimodule"] = bimod
    dw.residuals = res
    return dw


@pytest.mark.parametrize("make", [jn.fixture_pinch, lambda: jn.random_inclusion(4)])
def test_dual_weight_matches_full_pseudo_inverse(make):
    bc = jn.basic_extension(make())
    dw = jn.dual_weight(bc)
    ops = [bc.gns.rep(b) for b in bc.inclusion.big.onb()]
    src = np.stack([(x @ bc.e_n @ y).reshape(-1) for x in ops for y in ops], axis=1)
    tgt = np.stack([(x @ y).reshape(-1) for x in ops for y in ops], axis=1)
    full = tgt @ np.linalg.pinv(src, rcond=la.RANK_RTOL)
    m1 = bc.shared.m1.onb()
    expected = (m1.reshape(len(m1), -1) @ full.T).reshape(m1.shape)
    assert np.abs(dw.apply(m1) - expected).max() < 1e-12


def assert_close_values(got, want, bound=1e-12):
    """Equal keys; equal flags and integers; floats within ``bound``."""
    assert got.keys() == want.keys()
    for key, value in got.items():
        if isinstance(value, (bool, np.bool_)):
            assert value == want[key], key
        else:
            assert abs(value - want[key]) <= bound, (key, value, want[key])


@pytest.mark.parametrize("seed", pool_shapes())
def test_coordinate_weight_matches_the_dense_oracle(seed):
    inc = jn.random_inclusion(seed)
    for case in (inc, jn.omega_variation(inc, seed + 1000)):
        bc = jn.basic_extension(case)
        dw, dense = jn.dual_weight(bc), dense_dual_weight(bc)
        assert dw.coords.shape == (bc.shared.m1.dim, case.big.dim)
        assert_close_values(dw.residuals, dense.residuals)
        assert np.abs(dw.index_element - dense.index_element).max() <= 1e-12

        rep, rep_dense = jn.relcomm_report(bc, dw), jn.relcomm_report(bc, dense)
        assert_close_values(rep.residuals, rep_dense.residuals)
        assert rep.mirror_pairs == rep_dense.mirror_pairs
        for s, s_dense in zip(rep.summands, rep_dense.summands, strict=True):
            np.testing.assert_allclose(s["spectrum"], s_dense["spectrum"], rtol=0, atol=1e-12)
            assert np.abs(s["mirror_density"] - s_dense["mirror_density"]).max() <= 1e-12
        assert np.abs(rep.flow_generator - rep_dense.flow_generator).max() <= 1e-12

        ext = jn.extremality(bc, dw, rep)
        assert_close_values(ext, jn.extremality(bc, dense, rep_dense))
        onb = rep.algebra.onb()
        defect = dense.apply(bc.shared.mirror(onb)) - dense.apply(onb)
        dense_map = la.opnorm(defect.reshape(len(onb), -1).T)
        assert abs(ext["mirror_map_residual"] - dense_map) <= 1e-12


def test_mirror_map_residual_is_basis_independent():
    import dataclasses

    inc = jn.random_inclusion(15)
    bc = jn.basic_extension(inc)
    dw = jn.dual_weight(bc)
    report = jn.relcomm_report(bc, dw)
    rc = report.algebra
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((rc.dim, rc.dim)) + 1j * rng.standard_normal((rc.dim, rc.dim)))
    turned = ag.MMAlgebra(rc.ambient_dim, np.tensordot(q.T, rc.basis, axes=1))
    value = jn.extremality(bc, dw, report)["mirror_map_residual"]
    again = jn.extremality(bc, dw, dataclasses.replace(report, algebra=turned))
    assert again["mirror_map_residual"] == pytest.approx(value, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("seed", [15, 6])
def test_relcomm_report_refuses_a_weight_singular_on_a_corner(seed):
    # Ê′(x) = Ê(x) − ⟨a, x⟩/‖a‖²·Ê(a), for a a minimal projection of one
    # summand of M₁∩N′ (coordinates c_a in M₁), vanishes on a, so Tr∘Ê′
    # does too and that summand's corner density is singular.
    import dataclasses

    bc = jn.basic_extension(jn.random_inclusion(seed))
    dw = jn.dual_weight(bc)
    jn.relcomm_report(bc, dw)
    a = ag.matrix_units(bc.shared.relcomm)[0].units[0, 0]
    c_a = dw.m1.coeffs(a)
    shift = np.outer(np.conj(c_a), dw.coeffs(a)) / np.vdot(c_a, c_a).real
    bent = dataclasses.replace(dw, coords=dw.coords - shift)
    assert np.abs(bent.coeffs(a)).max() < 1e-12
    with pytest.raises(RuntimeError, match="corner density of the weight is singular"):
        jn.relcomm_report(bc, bent)


def svd_noise(stack, r):
    """ε·max(m, n)·σ₀/σ_r: how far the one-shot SVD's rank-r span can sit from the exact one."""
    rows = stack.reshape(len(stack), -1)
    s = np.linalg.svd(rows, compute_uv=False)
    return np.finfo(float).eps * max(rows.shape) * s[0] / s[r - 1]


@pytest.mark.parametrize(
    "case",
    [
        *pool_shapes(),
        jn.fixture_scaled_pair,
        jn.fixture_point_in_full,
        jn.fixture_pinch,
        jn.fixture_markov_chain,
    ],
)
def test_streamed_extension_spans_match_the_one_shot_svd(case):
    # The certificate bounds the projector gaps of the one-shot SVD of the
    # full stacks from above, up to that SVD's own rounding (it reads up to
    # 7e-15 where X = C·B holds exactly and the bound is 0), and stays far
    # below the loose limit.
    if callable(case):
        incs = [case()]
    else:
        inc = jn.random_inclusion(case)
        incs = [inc, jn.omega_variation(inc, case + 1000)]
    for inc in incs:
        bc = jn.basic_extension(inc)
        m1, r = bc.shared.m1.onb(), bc.shared.m1.dim
        big_ops = bc.gns.rep(inc.big.onb())
        stack = sandwich(big_ops, bc.e_n)
        with_big = np.concatenate([big_ops, stack])
        span, generated = la.orthonormalize(stack), la.orthonormalize(with_big)
        noise_span, noise_gen = svd_noise(stack, r), svd_noise(with_big, r)
        gaps = {
            "mirror_vs_span": (la.span_distance(m1, span), noise_span),
            "mirror_vs_generated": (la.span_distance(m1, generated), noise_gen),
            "span_vs_generated": (la.span_distance(span, generated), noise_span + noise_gen),
        }
        for key, (gap, noise) in gaps.items():
            bound = bc.residuals[key]
            assert gap - noise - 1e-15 <= bound <= 1e-11, (inc.label, key, gap, bound)


@pytest.mark.parametrize(
    "make", [jn.fixture_pinch, lambda: jn.random_inclusion(2), lambda: jn.random_inclusion(5)]
)
def test_coordinate_bound_covers_a_resolvable_gap(make):
    # Tilting M₁'s basis by δ opens a gap to the span of M·e·M of order δ
    # (dim M₁ < k² on these inclusions), far above the one-shot SVD's
    # rounding; the bound must lie above it.
    inc = make()
    bc = jn.basic_extension(inc)
    big_ops = bc.gns.rep(inc.big.onb())
    span = la.orthonormalize(sandwich(big_ops, bc.e_n))
    m1, r = bc.shared.m1.onb(), bc.shared.m1.dim
    rng = np.random.default_rng(r)
    for delta in (1e-9, 1e-6, 1e-3):
        tilt = rng.standard_normal(m1.shape) + 1j * rng.standard_normal(m1.shape)
        tilted = la.orthonormalize(m1 + delta * tilt)
        coords, err_sq = jn._sandwich_coordinates(big_ops, e_range(bc), tilted)
        sigma = np.linalg.svd(coords.reshape(-1, r), compute_uv=False)
        gap = la.span_distance(tilted, span)
        bound = jn._gap_bound(err_sq.sum(), sigma, r)
        assert delta / 100 < gap <= bound < 1


@pytest.mark.parametrize(
    "make", [jn.fixture_markov_chain, jn.fixture_pinch, lambda: jn.random_inclusion(2)]
)
def test_streamed_certificate_trips_on_a_dropped_block(monkeypatch, make):
    # Dropping the block of x₀ leaves S·e·M with S = span of the other basis
    # elements; that is all of M·e·M when S·N = M, so these inclusions are
    # ones where S·N ≠ M and the span really shrinks.
    inc = make()
    assert jn.basic_extension(inc).residuals["three_way_max"] < 1e-12
    real = jn._sandwich_coordinates
    monkeypatch.setattr(
        jn, "_sandwich_coordinates", lambda *args: tuple(v[1:] for v in real(*args))
    )
    res = jn.basic_extension(inc).residuals
    assert res["mirror_vs_span"] > 1e-8
    assert res["three_way_max"] > 1e-8
    # The coordinates of the shrunken span have rank below dim M₁.
    assert res["mirror_vs_span"] == 1.0


def pin_by_rows(bc):
    """``dual_weight``'s pin with the coordinates of the x·y taken by hand against
    M's conjugated basis rows: the map W and the pin consistency they give."""
    g = bc.gns
    k = g.space_dim
    big_ops = g.rep(bc.inclusion.big.onb())
    d = len(big_ops)
    big_rows = bc.shared.big_rep.onb().reshape(d, k * k)
    big_cols = big_rows.conj().T
    t = np.empty((d, d, d), dtype=complex)
    off_sq = norm_sq = 0.0
    for a in range(d):
        prod = (big_ops[a] @ big_ops).reshape(d, k * k)
        t[a] = prod @ big_cols
        off = prod - t[a] @ big_rows
        off_sq += np.vdot(off, off).real
        norm_sq += np.vdot(prod, prod).real
    u, sigma, vh = bc.sandwich_svd
    keep = sigma > la.RANK_RTOL * sigma[0]
    t = t.reshape(d * d, d)
    ut = la.dagger(u[:, keep]) @ t
    w = la.dagger(vh[keep]) @ (ut / sigma[keep, None])
    gap = np.hypot(la.frob(t - u[:, keep] @ ut), np.sqrt(off_sq))
    return w, float(gap / max(1.0, np.sqrt(norm_sq)))


@pytest.mark.parametrize("seed", pool_shapes())
def test_dual_weight_matches_its_row_contractions_bit_for_bit(seed):
    bc = jn.basic_extension(jn.random_inclusion(seed))
    dw = jn.dual_weight(bc)
    w, consistency = pin_by_rows(bc)
    assert np.array_equal(dw.coords, w)
    assert dw.residuals["pin_consistency"] == consistency


INCLUSION_FIXTURES = [
    pytest.param(lambda: jn.fixture_scaled_pair(1.0 / 3.0), id="scaled_pair_third"),
    pytest.param(lambda: jn.fixture_scaled_pair(0.5), id="scaled_pair_half"),
    pytest.param(jn.fixture_point_in_full, id="point_in_full"),
    pytest.param(jn.fixture_pinch, id="pinch"),
    pytest.param(jn.fixture_markov_chain, id="markov_chain"),
]


@pytest.mark.parametrize("case", [*pool_shapes(), *INCLUSION_FIXTURES])
def test_no_gns_or_jones_certificate_runs_an_svd(monkeypatch, case):
    # opnorm raises while gns, basic_extension or dual_weight runs; the
    # extremality margin and mirror_map_residual after them keep their SVD.
    make = case if callable(case) else lambda: jn.random_inclusion(case)
    want = jn.jones_chain(make())
    inside, real = [], la.opnorm

    def guarded(a):
        assert not inside, f"opnorm ran inside {inside[-1]}"
        return real(a)

    def certifying(fn):
        def run(*args):
            inside.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return run

    for module in (la, ag, jn):
        monkeypatch.setattr(module, "opnorm", guarded)
    monkeypatch.setattr(ag, "gns", certifying(ag.gns))
    for name in ("basic_extension", "dual_weight"):
        monkeypatch.setattr(jn, name, certifying(getattr(jn, name)))
    got = jn.jones_chain(make())
    assert got.extension.gns.residuals == want.extension.gns.residuals
    assert got.extension.residuals == want.extension.residuals
    assert got.weight.residuals == want.weight.residuals
    assert got.report.residuals == want.report.residuals
    assert got.extremality.keys() == want.extremality.keys()
