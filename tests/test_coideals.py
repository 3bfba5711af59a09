"""Coideal subalgebras, the subspace-system bijection, and the Galois lattice."""

import itertools
from functools import partial

import numpy as np
import pytest

from kacgalois import algebra as ag
from kacgalois import coideals as ci
from kacgalois import duality as du
from kacgalois import kac as kc
from kacgalois import linalg as la
from kacgalois.algebra import SubalgebraError

from conftest import (
    ALGEBRA_NAMES,
    COND30,
    LADDER_NAMES,
    delta_hat,
    delta_op,
    leg_slices,
    rotation,
    span_residual,
    tilde_by_pairing_matrix,
)


def brute_force_s3_subgroup_orders():
    """Independent oracle: enumerate subgroups of the permutations of 3 points.

    Works directly on permutation tuples with composition — no group-table
    code from the package is involved.
    """
    perms = list(itertools.permutations(range(3)))
    identity = (0, 1, 2)

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    subgroups = set()
    for r in range(1, len(perms) + 1):
        for cand in itertools.combinations(perms, r):
            s = set(cand)
            if identity not in s:
                continue
            if all(compose(a, b) in s for a in s for b in s):
                subgroups.add(frozenset(s))
    return sorted(len(s) for s in subgroups)


def coset_span(kac, subgroup, side="left"):
    """Indicators of the left cosets gH (a basis of C(G/H)) or the right cosets Hg."""
    g = kac.group
    table = g.table if side == "left" else g.table.T
    cosets = {frozenset(int(table[x, h]) for h in subgroup) for x in range(g.order)}
    mats = []
    for coset in sorted(sorted(c) for c in cosets):
        c = np.zeros(kac.dim, dtype=complex)
        c[coset] = 1.0
        mats.append(kac.op(c))
    return mats


def subgroup_span(kac, subgroup):
    """Basis of ℂ[H] inside the group algebra."""
    mats = []
    for h in subgroup:
        c = np.zeros(kac.dim, dtype=complex)
        c[h] = 1.0
        mats.append(kac.op(c))
    return mats


def dictionary_span(kac, subgroup, side):
    """The subgroup dictionary: cosets on the function side, ℂ[H] on the group side."""
    if kac.origin == "function_algebra":
        return coset_span(kac, subgroup, side)
    return subgroup_span(kac, subgroup)


def alternating_closure(kac, elements, side="left"):
    """Reference: alternate *-algebra closure with adjoining every basis element's
    coproduct slices until the dimension stops growing, then certify."""
    n = kac.dim
    home = kac.as_mm().onb()
    mm = ag.mm_from_generators(list(elements), n)
    for _ in range(n + 2):
        sl = [leg_slices(delta_op(kac, b), home, side)[0].reshape(-1, n, n) for b in mm.onb()]
        grown = ag.mm_from_generators(np.concatenate([mm.onb(), *sl]), n)
        if grown.dim == mm.dim:
            break
        mm = grown
    return ci.is_coideal(kac, mm, side)


def subgroup_from_system(kac, coreps, sys):
    """Recover H = {g : π(g)ξ = ξ for all ξ ∈ K_π, all π} for C(G) algebras.

    The corepresentation entries of a function algebra act diagonally on the
    Haar GNS space, so π(g) is read off the diagonals.  The fixed-vector
    system of the recovered H is re-derived and compared with ``sys``.
    """
    if kac.origin != "function_algebra" or kac.group is None:
        raise ValueError("requires a function-algebra Kac algebra")
    g = kac.group
    n = g.order
    diags = [np.diagonal(c.entries, axis1=-2, axis2=-1) for c in coreps]
    diag_res = max(
        float(np.abs(c.entries - dg[..., None] * np.eye(n)).max())
        for c, dg in zip(coreps, diags)
    )
    # π(g)ᵢⱼ is the g-th diagonal entry of u(π)ᵢⱼ; pis[π][g] = π(g).
    pis = [dg.transpose(2, 0, 1) for dg in diags]
    rep_res = max(
        float(np.abs(mats[g.table] - mats[:, None] @ mats[None]).max()) for mats in pis
    )

    # g ∈ H when π(g) fixes every row of K_π, for every π.
    fixed = np.ones(n, dtype=bool)
    for mats, rows in zip(pis, sys.spaces):
        moved = np.linalg.norm(mats @ rows.T - rows.T, axis=1)
        fixed &= np.all(moved <= la.SPAN_TOL, axis=1)
    members = np.flatnonzero(fixed)
    h = tuple(members.tolist())
    closed = bool(np.isin(g.table[np.ix_(members, members)], members).all())

    redrive = 0.0
    for mats, rows, c in zip(pis, sys.spaces, coreps):
        avg = mats[list(h)].mean(axis=0)
        w, vecs = np.linalg.eigh((avg + la.dagger(avg)) / 2.0)
        fixed_basis = vecs[:, w > 0.5].T
        m = fixed_basis.shape[0]
        if m != rows.shape[0]:
            redrive = max(redrive, 1.0)
            continue
        if m:
            p1 = rows.T @ np.conj(rows)
            p2 = fixed_basis.T @ np.conj(fixed_basis)
            redrive = max(redrive, la.opnorm(p1 - p2))
    return {
        "subgroup": h,
        "is_subgroup": closed,
        "diagonal_residual": diag_res,
        "representation_residual": rep_res,
        "system_rederivation": redrive,
    }


def test_s3_function_algebra_has_exactly_the_coset_coideals(algebras):
    orders = brute_force_s3_subgroup_orders()
    assert orders == [1, 2, 2, 2, 3, 6]  # the oracle itself is checked once
    out = ci.enumerate_coideals_group_case(algebras["s3_function"])
    # one coideal of functions on cosets per subgroup: dimension 6/|H|
    assert sorted(c.dim for c in out["coideals"]) == sorted(6 // o for o in orders)
    assert len(out["coideals"]) == len(orders)
    assert out["complete"]
    assert out["completeness_residual"] < 1e-8


def test_s3_group_algebra_coideals_are_subgroup_spans(algebras):
    orders = brute_force_s3_subgroup_orders()
    out = ci.enumerate_coideals_group_case(algebras["s3_group"])
    assert sorted(c.dim for c in out["coideals"]) == orders
    assert out["complete"]


@pytest.mark.parametrize(
    "name,dims",
    [
        ("q8_group", [1, 2, 4, 4, 4, 8]),
        ("q8_function", [1, 2, 2, 2, 4, 8]),
        ("z4_group", [1, 2, 4]),
        ("z2xz2_function", [1, 2, 2, 2, 4]),
    ],
)
def test_enumeration_dimensions(algebras, name, dims):
    out = ci.enumerate_coideals_group_case(algebras[name])
    assert sorted(c.dim for c in out["coideals"]) == dims
    assert out["complete"]


def test_enumeration_requires_group_origin(kp8):
    with pytest.raises(ValueError):
        ci.enumerate_coideals_group_case(kp8)


def test_certificates_and_unit_membership(algebras):
    out = ci.enumerate_coideals_group_case(algebras["s3_function"])
    for coid in out["coideals"]:
        assert coid.certificate < 1e-9
        assert coid.mm.residual(np.eye(coid.mm.ambient_dim)) < 1e-9


def test_coideal_closure_of_group_element(algebras):
    kac = algebras["q8_group"]
    c = np.zeros(8)
    c[1] = 1.0  # a non-identity basis element
    closed = ci.coideal_closure(kac, [kac.op(c)], side="left")
    assert closed.certificate < 1e-9
    assert closed.dim in (2, 4, 8)


@pytest.fixture(scope="module")
def closure_algebras(algebras, kp8, ladder_algebras):
    return dict(algebras, kp8=kp8, **ladder_algebras)


@pytest.mark.parametrize("name", ALGEBRA_NAMES + ("kp8",) + LADDER_NAMES)
def test_one_slice_step_is_the_alternating_closure(closure_algebras, name):
    kac = closure_algebras[name]
    n = kac.dim
    rng = np.random.default_rng(n)
    sets = [[kac.lmats[i]] for i in rng.choice(n, size=min(n, 4), replace=False)]
    sets += [[kac.lmats[i], kac.lmats[j]] for i, j in rng.integers(0, n, size=(2, 2))]
    sets.append([kac.op(rng.normal(size=n) + 1j * rng.normal(size=n))])
    if kac.group is not None:
        unit = np.eye(n)
        sets += [[kac.op(unit[list(h)].sum(axis=0))] for h in kac.group.subgroups()]
    for side in ("left", "right"):
        for gens in sets:
            got = ci.coideal_closure(kac, gens, side)
            want = alternating_closure(kac, gens, side)
            assert got.dim == want.dim
            assert la.span_distance(got.mm.onb(), want.mm.onb()) < 1e-12
            assert got.certificate < 1e-9


@pytest.mark.parametrize("name", ["s3_function", "kp8"])
def test_closure_of_an_operator_outside_the_algebra_is_refused(closure_algebras, name):
    # δ sees only the part in A, whose slices generate all of A; the operator
    # itself must stay a generator so that the span leaves A.
    kac = closure_algebras[name]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(kac.dim, kac.dim)) + 1j * rng.normal(size=(kac.dim, kac.dim))
    assert kac.as_mm().residual(x) > 1.0
    for side in ("left", "right"):
        with pytest.raises(SubalgebraError, match="not inside A"):
            ci.coideal_closure(kac, [x], side)


def not_a_subalgebra(algebras, key):
    """A span of A that fails exactly the closure residual ``key``."""
    if key == "adjoint_closure":
        # span{1, e₁₂} in ℂ[S₃]'s 2×2 block: e₁₂² = 0, but e₁₂† = e₂₁ is left out.
        kac = algebras["s3_group"]
        block = next(b for b in ag.matrix_units(kac.as_mm()) if b.size == 2)
        return kac, [np.eye(kac.dim), block.units[0, 1]]
    kac = algebras["s3_function"]
    if key == "product_closure":
        # span{1, h} for a real function h with six values: h² is left out.
        return kac, [np.eye(kac.dim), kac.op(np.arange(kac.dim, dtype=float))]
    # span{δ_e}: a projection, closed under products and †, without the unit.
    return kac, [kac.op(np.eye(kac.dim)[0])]


CLOSURE_KEYS = ("product_closure", "adjoint_closure", "unit_membership")


@pytest.mark.parametrize("key", CLOSURE_KEYS)
def test_a_span_that_is_no_subalgebra_is_refused_by_name(algebras, key):
    kac, mats = not_a_subalgebra(algebras, key)
    assert kac.as_mm().residual(np.asarray(mats)) < 1e-12
    with pytest.raises(SubalgebraError, match=key) as err:
        ci.is_coideal(kac, mats)
    assert not any(other in str(err.value) for other in CLOSURE_KEYS if other != key)


def forbid(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refused


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_lattice_report_forms_no_matrix_units(algebras, dual_of, monkeypatch, name):
    # The closure residuals alone certify B and B̃ as unital *-subalgebras.
    dd = dual_of(algebras[name])
    monkeypatch.setattr(ag, "_central_decomposition", forbid("_central_decomposition"))
    assert ci.galois_lattice_report(dd)["passed"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_audit_matches_closures_by_jones_projection_alone(algebras, monkeypatch, name, side):
    monkeypatch.setattr(la, "spans_match", forbid("spans_match"))
    assert ci.enumerate_coideals_group_case(algebras[name], side=side)["complete"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_enumerated_coideals_are_the_subgroup_dictionary(algebras, name, side):
    kac = algebras[name]
    out = ci.enumerate_coideals_group_case(kac, side=side)
    assert out["complete"]
    assert sorted(out["subgroups"]) == sorted(kac.group.subgroups())
    for sub, coid in zip(out["subgroups"], out["coideals"]):
        want = ag.from_span(dictionary_span(kac, sub, side), kac.dim)
        assert coid.dim == want.dim
        assert la.span_distance(coid.mm.onb(), want.onb()) < 1e-12


def test_right_coideals_of_s3_functions_are_the_right_cosets(algebras):
    kac = algebras["s3_function"]
    out = ci.enumerate_coideals_group_case(kac, side="right")
    assert out["dims"] == [1, 2, 3, 3, 3, 6]
    assert out["complete"]
    assert out["completeness_residual"] < 1e-8
    for sub, coid in zip(out["subgroups"], out["coideals"]):
        assert coid.side == "right"
        assert coid.certificate < 1e-9
        want = ag.from_span(coset_span(kac, sub, "right"), kac.dim)
        assert la.span_distance(coid.mm.onb(), want.onb()) < 1e-12


def seeded_pairs(n, seed):
    """The audit's seeded generator pairs: eight draws, each unordered pair once."""
    pairs = {}
    for u, v in la.probe_draws(seed, (8, 2)):
        i, j = int(n * (u + 1) / 2), int(n * (v + 1) / 2)
        pairs.setdefault(frozenset((i, j)), (i, j))
    return list(pairs.values())


def certified_audit(kac, side="left", seed=23):
    """Reference: the enumeration with every audit closure certified.

    Each subgroup's coideal and each audit seed's closure goes through
    :func:`coideal_closure`, so every closure gets the full certificate.
    """
    n = kac.dim
    unit = np.eye(n)
    coideals = sorted(
        (ci.coideal_closure(kac, [kac.op(unit[list(h)].sum(axis=0))], side)
         for h in kac.group.subgroups()),
        key=lambda c: ci._fingerprint(c.dim, ci.jones_projection(kac, c.mm)),
    )
    projs = [ci.jones_projection(kac, c.mm) for c in coideals]
    seeds = [[unit[0] + unit[i]] for i in range(n)]
    seeds += [unit[list(pair)] for pair in seeded_pairs(n, seed)]
    worst = 0.0
    for gens in seeds:
        closure = ci.coideal_closure(kac, [kac.op(c) for c in gens], side)
        p = ci.jones_projection(kac, closure.mm)
        worst = max(worst, min(la.frob(p - q) for q in projs))
    return {
        "dims": [c.dim for c in coideals],
        "completeness_residual": worst,
        "complete": worst < 1e-8,
    }


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_matched_audit_is_the_certified_audit(algebras, name, side, seed):
    kac = algebras[name]
    got = ci.enumerate_coideals_group_case(kac, side=side, seed=seed)
    want = certified_audit(kac, side, seed)
    assert got["dims"] == want["dims"]
    assert got["complete"] is want["complete"] is True
    assert got["completeness_residual"] == want["completeness_residual"]


@pytest.mark.parametrize("name", ["s3_function", "q8_group", "z2xz2_function"])
def test_a_pairs_closure_does_not_depend_on_its_order(algebras, name):
    # Why the audit closes each unordered pair once.
    kac = algebras[name]
    unit = np.eye(kac.dim)
    for i, j in seeded_pairs(kac.dim, 7):
        closures = [
            ci._closure_algebra(kac, [kac.op(unit[a]), kac.op(unit[b])], "left").onb()
            for a, b in ((i, j), (j, i))
        ]
        assert la.span_distance(*closures) < 1e-12


def certification_spy(monkeypatch):
    """Wrap ``is_coideal``; returns the list of dims it is called on."""
    dims = []
    certify = ci.is_coideal

    def spy(kac, mats, side="left"):
        coid = certify(kac, mats, side)
        dims.append(coid.dim)
        return coid

    monkeypatch.setattr(ci, "is_coideal", spy)
    return dims


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_each_listed_coideal_is_certified_once(algebras, monkeypatch, name, side):
    dims = certification_spy(monkeypatch)
    out = ci.enumerate_coideals_group_case(algebras[name], side=side)
    assert out["complete"]
    assert sorted(dims) == sorted(out["dims"])


@pytest.mark.parametrize(
    "dropped,dims,residual",
    [((0, 1), [1, 4, 4, 4, 8], 1.0), ((0, 1, 4, 5), [1, 2, 4, 4, 8], np.sqrt(2))],
    ids=["centre", "j"],
)
def test_audit_certifies_and_reports_a_closure_missing_from_the_list(
    algebras, monkeypatch, dropped, dims, residual
):
    # Without H, ℂ[H] is missing from q8's list.  The closure of H's generator
    # b_h is ℂ[H]; it matches no listed span, even one of its dimension (⟨j⟩
    # against ⟨i⟩ and ⟨k⟩), so it must be certified and reported.  The residual
    # is ‖e_B − e_B′‖ = √(dim B − dim B′) for the largest listed B′ ⊂ ℂ[H].
    kac = algebras["q8_group"]
    every = kc.GroupTable.subgroups
    monkeypatch.setattr(
        kc.GroupTable, "subgroups", lambda g: [h for h in every(g) if h != dropped]
    )
    certified = certification_spy(monkeypatch)
    out = ci.enumerate_coideals_group_case(kac)
    assert out["dims"] == dims
    assert not out["complete"]
    assert abs(out["completeness_residual"] - residual) <= 1e-12
    assert len(dropped) in certified[len(dims):]


@pytest.mark.parametrize("dropped", [(0, 1), (0, 2), (0, 3)], ids=["12", "13", "23"])
def test_audit_reaches_the_function_side_below_the_top(algebras, monkeypatch, dropped):
    # On C(S₃) every point mass closes to all of C(S₃), so an audit seeded
    # with them passes whatever the list.  The closure of δ_e + δ_g with
    # g² = e is C(G/⟨g⟩); without ⟨g⟩ in the list it matches nothing listed.
    kac = algebras["s3_function"]
    every = kc.GroupTable.subgroups
    monkeypatch.setattr(
        kc.GroupTable, "subgroups", lambda g: [h for h in every(g) if h != dropped]
    )
    certified = certification_spy(monkeypatch)
    out = ci.enumerate_coideals_group_case(kac)
    assert out["dims"] == [1, 2, 3, 3, 6]
    assert not out["complete"]
    assert abs(out["completeness_residual"] - np.sqrt(2)) <= 1e-12
    assert 3 in certified[len(out["dims"]):]


def test_the_algebra_is_materialized_once(algebras):
    kac = algebras["s3_function"]
    assert kac.as_mm() is kac.as_mm()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_subspace_system_round_trip(algebras, coreps_of, fusion_of, name):
    kac = algebras[name]
    coreps = coreps_of(kac)
    out = ci.enumerate_coideals_group_case(kac)
    for coid in out["coideals"]:
        sys = ci.subspace_system_from_coideal(kac, coid, coreps)
        assert sys.weighted_dim() == coid.dim
        back = ci.coideal_from_subspace_system(kac, fusion_of(kac), sys)
        assert la.span_distance(coid.mm.onb(), back.mm.onb()) < 1e-9
        assert back.certificate < 1e-9


def test_subspace_system_closure_certificate(algebras, coreps_of, fusion_of):
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    out = ci.enumerate_coideals_group_case(kac)
    for coid in out["coideals"]:
        sys = ci.subspace_system_from_coideal(kac, coid, coreps)
        closure = ci.check_system_closure(fusion_of(kac), sys)
        assert max(
            v for k, v in closure.items() if isinstance(v, float)
        ) < 1e-8, closure


def unclosed_system(coreps, kept):
    """K_π = ℂ^{d(π)}'s first ``kept[π]`` rows of the identity, by corep index."""
    return ci.SubspaceSystem(
        spaces=tuple(np.eye(c.dim, dtype=complex)[: kept[c.index]] for c in coreps),
        corep_dims=tuple(c.dim for c in coreps),
    )


def test_one_character_of_cyclic_three_is_not_closed(algebras, coreps_of, fusion_of):
    # χ⊗χ = χ̄ and the conjugate χ̄ is left out, so both conditions fail fully.
    kac = algebras["z3_function"]
    coreps = coreps_of(kac)
    chi = next(c.index for c in coreps if not c.is_trivial)
    kept = {c.index: int(c.is_trivial or c.index == chi) for c in coreps}
    sys_ = unclosed_system(coreps, kept)
    with pytest.raises(ValueError, match="violates closure conditions"):
        ci.coideal_from_subspace_system(kac, fusion_of(kac), sys_)
    closure = ci.check_system_closure(fusion_of(kac), sys_)
    assert closure["trivial"] == 0.0
    assert abs(closure["fusion"] - 1.0) <= 1e-12
    assert abs(closure["conjugation"] - 1.0) <= 1e-12
    bar = 3 - chi - next(c.index for c in coreps if c.is_trivial)
    assert [f[:3] for f in closure["failures"]] == [(chi, chi, bar), (chi, "conj", bar)]


def closure_residuals_by_loop(fusion, sys_):
    """Reference: the fusion and conjugation residuals, one vector at a time."""

    def residual(w, rows):
        return float(np.linalg.norm(w - rows.T @ (rows.conj() @ w)))

    fusion_res = conjugation_res = 0.0
    for a, ka in enumerate(sys_.spaces):
        for b, kb in enumerate(sys_.spaces):
            for tau, isom in fusion.isometries[a][b]:
                for va in ka:
                    for vb in kb:
                        w = la.dagger(isom) @ np.outer(va, vb).ravel()
                        fusion_res = max(fusion_res, residual(w, sys_.spaces[tau]))
        bar = fusion.conjugates[a]
        for va in ka:
            w = np.linalg.inv(fusion.intertwiners[a]) @ np.conj(va)
            conjugation_res = max(
                conjugation_res, residual(w / np.linalg.norm(w), sys_.spaces[bar])
            )
    return fusion_res, conjugation_res


def test_one_line_of_the_two_dimensional_corep_is_not_closed(algebras, coreps_of, fusion_of):
    # K = span{(1, 0)} in the two-dimensional corepresentation, sign character
    # left out; the residuals are those of the per-vector loops they replace.
    # The line is (1, 0) in the corepresentation's own basis, which comes from
    # the dual's matrix units, so the residuals are computed, not pinned.
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    two = next(c.index for c in coreps if c.dim == 2)
    kept = {c.index: int(c.is_trivial or c.dim == 2) for c in coreps}
    sys_ = unclosed_system(coreps, kept)
    with pytest.raises(ValueError, match="violates closure conditions"):
        ci.coideal_from_subspace_system(kac, fusion_of(kac), sys_)
    closure = ci.check_system_closure(fusion_of(kac), sys_)
    fusion_res, conjugation_res = closure_residuals_by_loop(fusion_of(kac), sys_)
    assert closure["trivial"] == 0.0
    assert abs(closure["fusion"] - fusion_res) <= 1e-12
    assert abs(closure["conjugation"] - conjugation_res) <= 1e-12
    assert [f[:3] for f in closure["failures"]] == [(two, two, two), (two, "conj", two)]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_galois_lattice_report(algebras, lattice_of, name):
    report = lattice_of(name)
    assert report["passed"], {k: v for k, v in report.items() if k != "rows"}
    assert report["max_residual"] < 1e-8
    n = algebras[name].dim
    for row in report["rows"]:
        assert row["dim"] * row["tilde_dim"] == n
        assert row["dim_product_exact"]
        assert row["tilde_involution"] < 1e-9
        assert row["tilde_route_distance"] < 1e-9
        assert row["bicommutant"] < 1e-9
        assert row["jones_max"] < 1e-9
    assert report["order_reversal_ok"]
    assert report["tilde_injective"]
    assert report["dim_products_exact"]


def test_lattice_dims_anti_correspond(lattice_of):
    report = lattice_of("s3_function")
    assert sorted(report["dims"]) == [1, 2, 3, 3, 3, 6]
    assert sorted(report["tilde_dims"]) == [1, 2, 2, 2, 3, 6]
    pair_map = sorted((r["dim"], r["tilde_dim"]) for r in report["rows"])
    assert pair_map == [(1, 6), (2, 3), (3, 2), (3, 2), (3, 2), (6, 1)]


def test_tilde_lands_in_dual_and_is_right_coideal(algebras, dual_of):
    kac = algebras["z4_group"]
    dd = dual_of(kac)
    out = ci.enumerate_coideals_group_case(kac)
    for coid in out["coideals"]:
        td = ci.tilde(coid, dd)
        assert td.home == "dual"
        assert td.certificate < 1e-9
        assert td.dim * coid.dim == kac.dim
        # independent route: antipode image of the relative commutant in the dual
        route = ci.tilde_via_commutant(coid, dd)
        assert la.span_distance(route["mm"].onb(), td.mm.onb()) < 1e-9
        assert route["intersection_right_coideal"] < 1e-9
        both = ci.bicommutant_check(coid, route["intersection"], dd)
        assert both["distance"] < 1e-9 and both["dim"] == coid.dim


def pairing_formula(dd, xs, ys):
    """⟨x, y⟩ = √n·(xΩ, y*Ω̂) at [x, y], for each x in ``xs`` and y in ``ys``."""
    kac = dd.v.kac
    return np.sqrt(kac.dim) * (xs @ kac.omega) @ (ys.swapaxes(1, 2) @ np.conj(dd.ints.omega_hat)).T


def tilde_by_formula(coid, dd):
    """B̃ from the pairing formula, one operator product x·b at a time."""
    kac, ys = dd.v.kac, dd.hat.onb
    base = pairing_formula(dd, kac.lmats, ys)
    rows = [pairing_formula(dd, kac.lmats @ b, ys) - kac.counit_of(b) * base for b in coid.mm.onb()]
    ns = la.null_space(np.vstack(rows))
    return la.orthonormalize(np.tensordot(ns.T, ys, axes=1))


def tilde_back_by_formula(dual_coid, dd):
    """The reverse map from the pairing formula, one product y·c at a time."""
    kac, ys = dd.v.kac, dd.hat.onb
    base = pairing_formula(dd, kac.lmats, ys).T
    rows = [
        pairing_formula(dd, kac.lmats, ys @ c).T - np.vdot(kac.omega, c @ kac.omega) * base
        for c in dual_coid.mm.onb()
    ]
    ns = la.null_space(np.vstack(rows))
    return la.orthonormalize(np.tensordot(ns.T, kac.lmats, axes=1))


def pair_closures(kac, c):
    """The closures of the images of kp8's b_e + b_g, g ≠ e, in ``kac``, kp8 in the basis
    b′ᵢ = Σⱼ c[j, i]·bⱼ: the coefficients x over b are c⁻¹·x over b′."""
    back, unit = np.linalg.inv(c), np.eye(kac.dim)
    return [ci.coideal_closure(kac, [kac.op(back @ (unit[0] + unit[g]))]) for g in range(1, kac.dim)]


def galois_oracle_cases(algebras, kp8, cond30_kp8):
    for name in ALGEBRA_NAMES:
        kac = algebras[name]
        for coid in ci.enumerate_coideals_group_case(kac)["coideals"]:
            yield name, kac, coid
    unit = np.eye(kp8.dim)
    yield "kp8", kp8, ci.coideal_closure(kp8, [kp8.op(unit[0] + unit[1])])
    for coid in pair_closures(cond30_kp8, COND30):
        yield "cond30_kp8", cond30_kp8, coid


def test_galois_maps_match_the_pairing_formula(algebras, kp8, cond30_kp8, dual_of):
    """On the group fixtures' coideals, a closure in kp8, and kp8's closures of the images of
    b_e + b_g in a basis of condition number 30, where the Gram matrix of ŷ is no scaled
    identity: both maps match the pairing formula."""
    seen, dims = set(), set()
    for name, kac, coid in galois_oracle_cases(algebras, kp8, cond30_kp8):
        seen.add(name)
        dd = dual_of(kac)
        bt = ci.tilde(coid, dd)
        assert 0 < bt.dim and bt.dim * coid.dim == kac.dim, name
        assert la.span_distance(bt.mm.onb(), tilde_by_formula(coid, dd)) <= 1e-12, name
        back = ci.tilde_back(bt, dd)
        assert back.dim == coid.dim, name
        assert la.span_distance(back.onb(), tilde_back_by_formula(bt, dd)) <= 1e-12, name
        if kac is cond30_kp8:
            dims.add(coid.dim)
    assert seen == {*ALGEBRA_NAMES, "kp8", "cond30_kp8"}
    assert dims > {8}


def test_tilde_over_the_dual_basis_is_the_pairing_matrix_route(
    algebras, rotated_kp8, cond30_kp8, dual_of
):
    """B̃ read off e_B is the span the pairing matrix gives, on every enumerated coideal of
    the group fixtures and on the closures of the images of kp8's b_e + b_g in a rotated
    basis and in a basis of condition number 30."""
    cases = [
        (algebras[name], coid)
        for name in ALGEBRA_NAMES
        for coid in ci.enumerate_coideals_group_case(algebras[name])["coideals"]
    ]
    for kac, c in ((rotated_kp8, rotation(8, seed=0)), (cond30_kp8, COND30)):
        closures = pair_closures(kac, c)
        assert {coid.dim for coid in closures} > {8}
        cases += [(kac, coid) for coid in closures]
    for kac, coid in cases:
        bt = ci.tilde(coid, dual_of(kac))
        want = tilde_by_pairing_matrix(coid, dual_of(kac))
        assert len(want) == bt.dim
        assert la.span_distance(bt.mm.onb(), want) <= 1e-12


def relative_commutant_by_commutant(mats, home, n):
    """The old route: the full commutant {mats}′ ⊆ M_n, then its intersection with home."""
    return la.intersect_spans(ag.commutant(ag.from_span(mats, n)).onb(), home)


def relative_commutant_cases(algebras, kp8):
    """Every enumerated coideal of the group fixtures, and kp8's closures of b_e + b_g."""
    for name in ALGEBRA_NAMES:
        kac = algebras[name]
        for coid in ci.enumerate_coideals_group_case(kac)["coideals"]:
            yield name, kac, coid
    unit = np.eye(kp8.dim)
    for g in range(1, kp8.dim):
        yield "kp8", kp8, ci.coideal_closure(kp8, [kp8.op(unit[0] + unit[g])])


def test_relative_commutants_match_the_commutant_route(algebras, kp8, dual_of):
    seen = set()
    for name, kac, coid in relative_commutant_cases(algebras, kp8):
        seen.add(name)
        dd = dual_of(kac)
        via = ci.tilde_via_commutant(coid, dd)
        inter = via["intersection"]
        want = relative_commutant_by_commutant(coid.mm.onb(), dd.hat.onb, kac.dim)
        assert len(inter) == len(want) == kac.dim // coid.dim, name
        assert la.span_distance(inter, want) <= 1e-12, name
        assert via["commutator"] <= 1e-12, name
        back, comm = ag.relative_commutant(inter, kac.as_mm().onb())
        want = relative_commutant_by_commutant(inter, kac.as_mm().onb(), kac.dim)
        assert len(back) == len(want) == coid.dim, name
        assert la.span_distance(back, want) <= 1e-12, name
        assert comm <= 1e-12, name
        bic = ci.bicommutant_check(coid, inter, dd)
        assert bic["dim"] == coid.dim and bic["commutator"] == comm, name
    assert seen == {*ALGEBRA_NAMES, "kp8"}


def test_relative_commutant_reports_its_commutator():
    # A basis of home that misses the commutant by a known amount reads that
    # amount: the diagonal of M₂ against {σ_x} is ℂ·1, with [1, σ_x] = 0.
    home = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    sigma_x = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    inter, comm = ag.relative_commutant(sigma_x, home)
    assert la.span_distance(inter, np.eye(2)[None] / np.sqrt(2)) <= 1e-15
    assert comm <= 1e-15
    inter, comm = ag.relative_commutant(np.eye(2, dtype=complex)[None], home)
    assert len(inter) == 2 and comm == 0.0


def test_jones_projection_weight_identities(algebras, dual_of):
    for name in ("s3_function", "z4_group"):
        kac = algebras[name]
        dd = dual_of(kac)
        out = ci.enumerate_coideals_group_case(kac)
        for coid in out["coideals"]:
            rep = ci.jones_projection_coideal(coid, ci.tilde(coid, dd), dd)
            assert rep["dual_haar_value"] < 1e-9
            assert rep["counit_of_projected_integral"] < 1e-9
            assert rep["scaled_dual_expectation"] < 1e-9
            assert rep["idempotent"] < 1e-9
            assert rep["dual_membership"] < 1e-9


def test_the_lattice_report_builds_each_jones_projection_once(algebras, dual_of, monkeypatch):
    kac = algebras["s3_function"]
    real, dims = ci.jones_projection, []

    def counted(kac_, mm):
        dims.append(mm.dim)
        return real(kac_, mm)

    monkeypatch.setattr(ci, "jones_projection", counted)
    report = ci.galois_lattice_report(dual_of(kac))
    # One per coideal, and one per audit closure: b_e + b_g for each g, and
    # each unordered pair of the eight seeded draws once.
    assert len(dims) == len(report["rows"]) + kac.dim + len(seeded_pairs(kac.dim, 23))
    assert sorted(dims[: len(report["rows"])]) == sorted(report["dims"])


def test_fingerprints_distinguish_distinct_coideals(algebras):
    kac = algebras["s3_function"]
    out = ci.enumerate_coideals_group_case(kac)
    digests = {
        ci._digest(ci._fingerprint(c.dim, ci.jones_projection(kac, c.mm)))
        for c in out["coideals"]
    }
    assert len(digests) == len(out["coideals"])


def test_subgroup_recovery_from_subspace_system(algebras, coreps_of):
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    out = ci.enumerate_coideals_group_case(kac)
    for sub, coid in zip(out["subgroups"], out["coideals"]):
        sys = ci.subspace_system_from_coideal(kac, coid, coreps)
        recovered = subgroup_from_system(kac, coreps, sys)
        assert recovered["is_subgroup"]
        assert sorted(recovered["subgroup"]) == sorted(sub)
        assert recovered["system_rederivation"] < 1e-8
        assert recovered["representation_residual"] < 1e-8


# ---------------------------------------------------------------------------
# Coproduct containment: the leg-slice routine against the Kronecker form
# ---------------------------------------------------------------------------


def kron_containment(kac, mats, side):
    """Reference: the distances d_b of δ(b) from A⊗span (left) or span⊗A (right)
    over an orthonormal basis of the span, summed as (Σ_b d_b²)^{1/2}.

    Builds the n²×n² products a⊗b of the two orthonormal bases and projects
    onto their span, with no leg slicing.  Like the certificate, it reads each b
    through its coefficients over A's basis: an orthonormalized span is off A by
    rounding, which the certificate's membership check gates apart.
    """
    return _kron_containment(kac.as_mm(), partial(delta_op, kac), mats, side)


def kron_dual_containment(dd, mats, side):
    """Reference: the same Frobenius sum for δ̂ and Â⊗span (left) or span⊗Â (right)."""
    return _kron_containment(dd.hat.mm, partial(delta_hat, dd.hat), mats, side)


def _kron_containment(home, coproduct, mats, side):
    amb = home.onb()
    sub = home.project(la.orthonormalize(mats))
    if side == "left":
        prod_onb = [np.kron(a, b) for a in amb for b in sub]
    else:
        prod_onb = [np.kron(b, a) for a in amb for b in sub]
    return la.frob([span_residual(coproduct(b), prod_onb) for b in sub])


def slice_containment(kac, mats, side):
    onb = la.orthonormalize(mats)
    return ci._containment(kac.coproduct_coeffs(onb), kac.as_mm().coeffs(onb), side)


def hat_coproduct_coeffs(dd, ys):
    """The coefficient matrices of δ̂(y) over Â's ``onb`` (of each y of a stack)."""
    return np.tensordot(dd.hat.mm.coeffs(ys), dd.hat.coproduct, axes=(-1, 0))


def slice_dual_containment(dd, mats, side):
    onb = la.orthonormalize(mats)
    return ci._containment(hat_coproduct_coeffs(dd, onb), dd.hat.mm.coeffs(onb), side)


def test_the_operator_coproduct_is_gone():
    gone = [(la, "pair_sum"), (la, "leg_slices"), (kc.KacAlgebra, "delta_op"),
            (du, "delta_hat"), (ci, "_SLICE_BLOCK")]
    assert not any(hasattr(owner, name) for owner, name in gone)


@pytest.mark.parametrize("name", ["s3_function", "q8_group", "z4_function"])
def test_coefficient_containment_matches_the_operator_leg_distance(algebras, dual_of, name):
    """On the inputs of the leg-slice routine it replaced, the coefficient form
    of the containment is the Frobenius sum of the leg distances of the operator
    coproducts."""
    kac = algebras[name]
    dd = dual_of(kac)
    rng = np.random.default_rng(5)
    coid = ci.enumerate_coideals_group_case(kac)["coideals"][2]
    homes = (
        (partial(delta_op, kac), kac.coproduct_coeffs, kac.as_mm(), coid.mm.onb()),
        (partial(delta_hat, dd.hat), partial(hat_coproduct_coeffs, dd), dd.hat.mm,
         ci.tilde(coid, dd).mm.onb()),
    )
    for delta, coeffs_of_delta, home_mm, lattice_span in homes:
        home = home_mm.onb()
        coeffs = rng.normal(size=(3, len(home))) + 1j * rng.normal(size=(3, len(home)))
        for onb in (lattice_span, la.orthonormalize(np.tensordot(coeffs, home, axes=1)), home):
            for side in ("left", "right"):
                want = la.frob([float(la.leg_distance(delta(b), home, onb, side)) for b in onb])
                got = ci._containment(coeffs_of_delta(onb), home_mm.coeffs(onb), side)
                assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("name", ["s3_function", "q8_group", "z4_function"])
def test_the_containment_does_not_depend_on_the_orthonormal_basis(algebras, dual_of, name):
    """Two orthonormal bases of one span, the lattice's and a seeded unitary mix of
    it, read the same containment, on and off coideals, for A and for Â; the
    largest per-element distance, which it replaced, does depend on the basis."""
    kac = algebras[name]
    dd = dual_of(kac)
    homes = (
        (kac.coproduct_coeffs, kac.as_mm().coeffs),
        (partial(hat_coproduct_coeffs, dd), dd.hat.mm.coeffs),
    )
    rng = np.random.default_rng(3)
    off = la.orthonormalize(np.tensordot(rng.normal(size=(3, kac.dim)), kac.as_mm().onb(), 1))
    coids = ci.enumerate_coideals_group_case(kac)["coideals"]
    spans = [(c.mm.onb(), 0) for c in coids] + [(off, 0)]
    spans += [(ci.tilde(c, dd).mm.onb(), 1) for c in coids]
    spread = 0.0
    for onb, home in spans:
        coproduct, coeffs = homes[home]
        mixed = np.tensordot(rotation(len(onb), seed=len(onb)), onb, 1)
        for side in ("left", "right"):
            values, worst = [], []
            for b in (onb, mixed):
                w, rows = ci._oriented(coproduct(b), side), coeffs(b)
                values.append(ci._containment(coproduct(b), rows, side))
                worst.append(la.frob_max(w - (w @ la.dagger(rows)) @ rows))
            assert abs(values[0] - values[1]) <= 1e-14 * max(1.0, values[0])
            spread = max(spread, abs(worst[0] - worst[1]))
    assert spread > 1e-3


def test_stacked_coproducts_match_one_at_a_time(algebras, dual_of, kp8):
    for kac in (algebras["s3_group"], algebras["q8_function"], kp8):
        dd = dual_of(kac)
        homes = ((kac.coproduct_coeffs, kac.as_mm().onb()),
                 (partial(hat_coproduct_coeffs, dd), dd.hat.onb))
        for coeffs_of_delta, home in homes:
            stacked = coeffs_of_delta(home)
            assert stacked.shape == (len(home), kac.dim, kac.dim)
            for k, y in enumerate(home):
                assert np.abs(stacked[k] - coeffs_of_delta(y)).max() <= 1e-14
        looped = np.stack([du.kappa_hat(kac, y) for y in dd.hat.onb])
        assert np.abs(du.kappa_hat(kac, dd.hat.onb) - looped).max() <= 1e-15


@pytest.mark.parametrize("name", ["s3_function", "s3_group", "q8_group"])
def test_slice_containment_matches_kronecker_on_the_lattice(algebras, dual_of, name):
    kac = algebras[name]
    dd = dual_of(kac)
    for coid in ci.enumerate_coideals_group_case(kac)["coideals"]:
        partner = ci.tilde(coid, dd).mm.onb()
        for side in ("left", "right"):
            got = slice_containment(kac, coid.mm.onb(), side)
            assert abs(got - kron_containment(kac, coid.mm.onb(), side)) <= 1e-14
            got = slice_dual_containment(dd, partner, side)
            assert abs(got - kron_dual_containment(dd, partner, side)) <= 1e-14


@pytest.mark.parametrize("name", ["s3_function", "s3_group", "q8_group"])
def test_slice_containment_matches_kronecker_off_coideals(algebras, dual_of, name):
    kac = algebras[name]
    dd = dual_of(kac)
    rng = np.random.default_rng(11)
    homes = (
        (kac.as_mm().onb(), partial(slice_containment, kac), partial(kron_containment, kac)),
        (dd.hat.onb, partial(slice_dual_containment, dd), partial(kron_dual_containment, dd)),
    )
    for home, fast, oracle in homes:
        for k in (2, 3):
            coeffs = rng.normal(size=(k, len(home))) + 1j * rng.normal(size=(k, len(home)))
            mats = np.tensordot(coeffs, home, axes=1)
            for side in ("left", "right"):
                want = oracle(mats, side)
                assert want > 0.1
                assert abs(fast(mats, side) - want) <= 1e-12 * want


def test_right_cosets_of_a_non_normal_subgroup_give_a_right_coideal_only(
    algebras, dual_of
):
    kac = algebras["s3_function"]
    dd = dual_of(kac)
    halves = [h for h in kac.group.subgroups() if len(h) == 2]
    assert len(halves) == 3
    for sub in halves:
        mats = coset_span(kac, sub, "right")
        left = slice_containment(kac, mats, "left")
        assert left > 1.0
        assert abs(left - kron_containment(kac, mats, "left")) <= 1e-12 * left
        with pytest.raises(ValueError, match="not a left coideal"):
            ci.is_coideal(kac, mats, "left")
        right = ci.is_coideal(kac, mats, "right")
        assert right.certificate < 1e-9
        assert right.dim == 3
        with pytest.raises(ValueError, match="side must be"):
            ci.is_coideal(kac, mats, "up")
        with pytest.raises(ValueError, match="side must be"):
            slice_dual_containment(dd, dd.hat.onb, "up")


def test_system_rederivation_is_the_projector_norm(algebras, coreps_of):
    kac = algebras["s3_function"]
    coreps = coreps_of(kac)
    out = ci.enumerate_coideals_group_case(kac)
    theta = 1e-9
    halves = [(s, c) for s, c in zip(out["subgroups"], out["coideals"]) if len(s) == 2]
    assert len(halves) == 3
    for sub, coid in halves:
        sys = ci.subspace_system_from_coideal(kac, coid, coreps)
        spaces = list(sys.spaces)
        # the 2-dim corepresentation carries a 1-dim K_π; turn it by θ in ℂ²
        (p,) = [i for i, k in enumerate(spaces) if k.shape == (1, 2)]
        w = spaces[p][0]
        w_perp = np.array([-np.conj(w[1]), np.conj(w[0])])
        spaces[p] = (np.cos(theta) * w + np.sin(theta) * w_perp)[None, :]
        turned = ci.SubspaceSystem(spaces=tuple(spaces), corep_dims=sys.corep_dims)
        recovered = subgroup_from_system(kac, coreps, turned)
        assert sorted(recovered["subgroup"]) == sorted(sub)
        assert abs(recovered["system_rederivation"] - theta) <= 1e-4 * theta
