"""Shared session fixtures: the standard test algebras and cached heavy objects.

The dual construction, corepresentation extraction, and Galois lattice are
the expensive steps, so each is computed once per algebra for the whole run.
"""

import inspect
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from kacgalois import algebra as ag
from kacgalois import coideals as ci
from kacgalois import coreps as cr
from kacgalois import duality as du
from kacgalois import kac as kc
from kacgalois import linalg as la

GROUP_BUILDERS = (
    ("z2", lambda: kc.cyclic_group(2)),
    ("z3", lambda: kc.cyclic_group(3)),
    ("z4", lambda: kc.cyclic_group(4)),
    ("z2xz2", kc.klein_group),
    ("s3", kc.symmetric_group_3),
    ("q8", kc.quaternion_group),
)

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "inclusion_pool.json"

GROUP_NAMES = tuple(name for name, _ in GROUP_BUILDERS)
ALGEBRA_NAMES = tuple(
    f"{name}_{kind}" for name, _ in GROUP_BUILDERS for kind in ("group", "function")
)


def pool_shapes():
    """One ``random_inclusion`` seed per shape of the benchmark's inclusion pool."""
    by_shape = json.loads(POOL.read_text())["by_shape"]
    return [pytest.param(seeds[0], id=shape) for shape, seeds in sorted(by_shape.items())]


@pytest.fixture(scope="session")
def unicode_charmap():
    """Draw one ``st.text()``, so that hypothesis builds its Unicode charmap
    (about 1.3 s in a fresh storage directory) here, once, and not inside the
    first fuzzed test that draws text."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=1, database=None)
    @given(st.text())
    def draw(text):
        pass

    draw()


@pytest.fixture(scope="session")
def groups():
    return {name: build() for name, build in GROUP_BUILDERS}


@pytest.fixture(scope="session")
def algebras(groups):
    out = {}
    for name, g in groups.items():
        out[f"{name}_group"] = kc.group_algebra(g)
        out[f"{name}_function"] = kc.function_algebra(g)
    return out


@pytest.fixture(scope="session")
def kp8():
    path = resources.files("kacgalois").joinpath("fixtures/kp8.json")
    return kc.load_kac(str(path))


KAC_NAMES = ALGEBRA_NAMES + ("kp8",)


def rotation(n, seed=0):
    """A seeded random n×n unitary Q."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def basis_change(n, seed, cond):
    """A seeded n×n change of basis Q₁·diag(s)·Q₂ of condition number ``cond``,
    its singular values s spaced geometrically from cond^(−1/2) to cond^(1/2)."""
    s = np.geomspace(cond ** -0.5, cond ** 0.5, n)
    return rotation(n, seed) @ np.diag(s) @ rotation(n, seed + 1)


def kronecker_sandwich(w, y):
    """Reference W†(1⊗y)W with an explicit Kronecker operator (of each y of a stack)."""
    n = np.shape(y)[-1]
    return np.conj(w).T @ (np.kron(np.eye(n), y) @ w)


def pair_sum(w, ops):
    """Reference Σᵢⱼ wᵢⱼ·opsᵢ⊗opsⱼ as a d²×d² matrix (of each w of a stack)."""
    d, lead = ops.shape[-1], w.shape[:-2]
    flat = ops.reshape(len(ops), d * d)
    # (w @ flat)[i, (b, e)] = Σⱼ wᵢⱼ opsⱼ[b, e], then contract i against opsᵢ[a, c].
    out = flat.T @ (w @ flat)
    return out.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


def delta_op(kac, x):
    """Reference coproduct Σᵢⱼ wᵢⱼ·L(bᵢ)⊗L(bⱼ) of an operator (or of each of a stack),
    as an n²×n² operator, w = Σₘ c(x)ₘ·Δₘ."""
    return pair_sum(np.tensordot(kac.coeffs_of(x), kac.delta, axes=(-1, 0)), kac.lmats)


def delta_hat(hat, y):
    """Reference dual coproduct of y ∈ Â (or of each of a stack) as an n²×n² operator:
    y's coefficients over ``hat.onb`` expanded against ``hat.coproduct``."""
    return pair_sum(np.tensordot(hat.mm.coeffs(y), hat.coproduct, axes=(-1, 0)), hat.onb)


def leg_slices(w, home, side):
    """Reference leg slices of an n²×n² operator w (of each of a stack): the rows of
    the s_i in w = Σ a_i⊗s_i + R (left) or Σ s_i⊗a_i + R (right) over the
    orthonormal ``home``, and ‖R‖_F."""
    n, lead = np.shape(home)[-1], w.shape[:-2]
    legs = {"left": (0, 2, 1, 3), "right": (1, 3, 0, 2)}[side]
    x = w.reshape(*lead, n, n, n, n)
    x = x.transpose(*range(len(lead)), *(len(lead) + a for a in legs)).reshape(*lead, n * n, -1)
    a = np.reshape(home, (len(home), -1))
    s = a.conj() @ x
    return s, np.linalg.norm(x - a.T @ s, axis=(-2, -1))


def product_fit(ops):
    """α with opsᵢ·opsⱼ ≈ Σ α[i,j,p]·ops_p, the least-squares fit by one Gram
    solve (n⁵ multiply-adds): a product tensor for a stack that is no algebra's."""
    n = len(ops)
    rows = ops.reshape(n, n * n)
    adj = np.conj(rows).T
    prods = np.matmul(ops[:, None], ops[None]).reshape(n * n, n * n)
    return np.linalg.solve((rows @ adj).T, (prods @ adj).T).T.reshape(n, n, n)


def fitted_split(w, left, right):
    """W's split for :func:`~kacgalois.duality.pentagon_residual` on two arbitrary
    stacks, each leg carrying its least-squares product tensor."""
    return (
        du.split_defect(w, left, right),
        du.product_leg(left, product_fit(left)),
        du.product_leg(right, product_fit(right)),
    )


def project_span(x, onb) -> np.ndarray:
    """Reference orthogonal projection of ``x`` onto an orthonormal matrix span,
    a stack or a list, by one product with the span's vectorized rows and back."""
    if len(onb) == 0:
        return np.zeros_like(x, dtype=complex)
    rows = np.asarray(onb, dtype=complex).reshape(len(onb), -1)
    return (rows.T @ (rows.conj() @ np.reshape(x, -1))).reshape(np.shape(x))


def span_residual(x, onb) -> float:
    """Reference Frobenius distance from ``x`` to an orthonormal matrix span."""
    return float(np.linalg.norm(x - project_span(x, onb)))


def gns_by_gram(alg, phi) -> ag.GnsData:
    """The GNS construction in the coordinates G^{1/2} of the Gram matrix
    G = φ(a†b), where the basis operators, the modular operator and J all
    move with φ: a second oracle, carried onto the standard form by the
    canonical unitary of ``gns_intertwiner`` (``tests/test_jones.py``);
    ``gns_by_rows`` (``tests/test_algebra.py``) pins the standard form itself."""
    stack = alg.onb()
    w, u = np.linalg.eigh(phi.gram(stack))
    coord = (u * np.sqrt(w)) @ la.dagger(u)
    coord_inv = (u / np.sqrt(w)) @ la.dagger(u)
    left = alg.coeffs(stack[:, None] @ stack[None]).swapaxes(1, 2)
    rho = ag.density_in(alg, phi)
    rho_inv = np.linalg.pinv(rho, rcond=la.RANK_RTOL, hermitian=True)
    modular = coord @ alg.coeffs(rho @ stack @ rho_inv).T @ coord_inv
    modular = (modular + la.dagger(modular)) / 2.0
    ms = coord @ alg.coeffs(la.dagger(stack)).T @ np.conj(coord_inv)
    return ag.GnsData(
        space_dim=len(stack),
        rep_basis=coord @ left @ coord_inv,
        coord=coord,
        coord_inv=coord_inv,
        cyclic=coord @ alg.coeffs(alg.unit),
        mj=ms @ np.conj(la.herm_power(modular, -0.5)),
        modular=modular,
        algebra=alg,
    )


def rebased_tensors(kac, c):
    """The arguments of ``kc.kac_from_structure`` for ``kac`` in the basis
    b′ᵢ = Σⱼ c[j, i]·bⱼ: labels, product, coproduct, counit, antipode, star, Haar."""
    ci = np.linalg.inv(c)
    return (
        kac.labels,
        np.einsum("ai,bj,abc,kc->ijk", c, c, kac.mult, ci),
        np.einsum("ck,cab,ia,jb->kij", c, kac.delta, ci, ci),
        c.T @ kac.counit,
        c.T @ kac.antipode @ ci.T,
        np.conj(c).T @ kac.star @ ci.T,
        c.T @ kac.haar,
    )


def rebased(kac, c):
    """``kac`` in the basis b′ᵢ = Σⱼ c[j, i]·bⱼ, rebuilt from its structure tensors.

    The new basis is no group's, so the result carries no origin or group.
    """
    return kc.kac_from_structure(*rebased_tensors(kac, c))


@pytest.fixture(scope="session")
def rotated_kp8(kp8):
    """kp8 in a seeded unitary change of basis: its V and its bidual's are dense."""
    return rebased(kp8, rotation(kp8.dim, seed=0))


#: kp8's change of basis of condition number 30 (the basis of the ``cond30_kp8`` fixture).
COND30 = basis_change(8, seed=4, cond=30)


@pytest.fixture(scope="session")
def cond30_kp8(kp8):
    """kp8 in a seeded change of basis of condition number 30: ŷ's Gram matrix is no scaled
    identity, so Â's orthonormal basis is no rescaled ŷ."""
    return rebased(kp8, COND30)


TENSOR_COMBOS = (
    ("z2_group", "z2_group"),
    ("z2_group", "z3_function"),
    ("z4_group", "z3_group"),
    ("s3_function", "z2_group"),
)


@pytest.fixture(scope="session")
def tensor_algebras(algebras):
    return {
        f"{left}*{right}": kc.tensor_kac(algebras[left], algebras[right])
        for left, right in TENSOR_COMBOS
    }


LADDER_PRODUCTS = (
    ("z3_group", "z3_function"),
    ("z2_group", "z5_function"),
    ("s3_function", "z2_group"),
)
LADDER_NAMES = tuple(f"{left}*{right}" for left, right in LADDER_PRODUCTS)


@pytest.fixture(scope="session")
def ladder_algebras(algebras):
    """The tensor products of the benchmark's dual ladder, n = 9, 10, 12."""
    factors = dict(algebras, z5_function=kc.function_algebra(kc.cyclic_group(5)))
    return {
        f"{left}*{right}": kc.tensor_kac(factors[left], factors[right])
        for left, right in LADDER_PRODUCTS
    }


POOL_NAMES = ALGEBRA_NAMES + tuple(f"{a}*{b}" for a, b in TENSOR_COMBOS) + ("kp8",)
# The pool, the rest of the dual ladder (kp8 and s3_function*z2_group are in
# the pool) and kp8 in a basis where V is dense.
STACK_NAMES = (
    POOL_NAMES + tuple(name for name in LADDER_NAMES if name not in POOL_NAMES) + ("rotated_kp8",)
)


@pytest.fixture(scope="session")
def named_algebra(algebras, tensor_algebras, ladder_algebras, kp8, rotated_kp8):
    """Every algebra of ``STACK_NAMES``, looked up by name."""
    named = {**algebras, **tensor_algebras, **ladder_algebras}
    return dict(named, kp8=kp8, rotated_kp8=rotated_kp8).__getitem__


@pytest.fixture
def svd_calls(monkeypatch):
    """Every SVD numpy runs, called through ``np.linalg.svd`` or inside ``np.linalg.norm``."""
    calls = []
    namespace = inspect.unwrap(np.linalg.norm).__globals__  # numpy.linalg's own module
    real = namespace["svd"]

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(namespace, "svd", spy)
    return calls


def twisted_z3_squared_by_z2():
    """ℂ[ℤ₃²⋊ℤ₂] with a Drinfeld-twisted coproduct: a Kac algebra of dimension 18
    that is neither commutative nor cocommutative.

    ℤ₂ swaps the two ℤ₃ factors.  With P_a the projections onto the characters
    a of ℤ₃² and ω(a, b) = ζ₃^{a₁b₂}, the coproduct is Δ^J = JΔJ⁻¹ for
    J = Σ ω(a, b)·P_a⊗P_b and the antipode S^J = Q·S(·)·Q⁻¹ for
    Q = Σ ω(−b, b)·P_b; the product, star, counit and Haar state are ℂ[G]'s.
    """
    n = 18
    elems = [(s, x1, x2) for s in range(2) for x1 in range(3) for x2 in range(3)]

    def times(g, h):
        (s, x1, x2), (t, y1, y2) = g, h
        if s:
            y1, y2 = y2, y1
        return elems.index(((s + t) % 2, (x1 + y1) % 3, (x2 + y2) % 3))

    table = np.array([[times(g, h) for h in elems] for g in elems])
    base = kc.group_algebra(kc.GroupTable(n, table, tuple(map(str, elems))))
    # The left regular representation: L(x)e₀ holds the coefficients of x.
    lam = np.zeros((n, n, n))
    lam[np.arange(n)[:, None], table, np.arange(n)] = 1.0
    zeta = np.exp(2j * np.pi / 3)
    a1, a2 = np.divmod(np.arange(9), 3)  # a character of ℤ₃² and an element share an index
    chi = zeta ** (np.outer(a1, a1) + np.outer(a2, a2))
    proj = np.tensordot(chi.conj(), lam[:9], 1) / 9
    omega = zeta ** np.outer(a1, a2)
    j = np.einsum("ab,aij,bkl->ikjl", omega, proj, proj).reshape(n * n, n * n)
    q = np.tensordot(omega.diagonal().conj(), proj, 1)
    delta = [(j @ np.kron(x, x) @ j.conj().T)[:, 0].reshape(n, n) for x in lam]
    antipode = [(q @ lam[i] @ q.conj().T)[:, 0] for i in base.group.inverse]
    return kc.kac_from_structure(
        base.labels, base.mult, delta, base.counit, antipode, base.star, base.haar
    )


def tilde_by_pairing_matrix(coid, dd):
    """B̃ by the pairing-matrix route: P[i, α] = ⟨bᵢ, onb_α⟩ measured against Â's
    orthonormal basis, and the null space of c(b)·mult·P − ε(b)·P over every b of
    B's basis, as Frobenius-orthonormal operators."""
    kac, onb = dd.v.kac, dd.hat.onb
    p_mat = np.sqrt(kac.dim) * ((np.conj(dd.ints.omega_hat) @ onb) @ kac.coord).T
    coeffs = kac.coeffs_of(coid.mm.onb())
    rows = np.tensordot(coeffs, kac.mult, axes=(1, 1)) @ p_mat
    rows -= (coeffs @ kac.counit)[:, None, None] * p_mat
    return dd.hat.mm.element(la.null_space(rows.reshape(-1, kac.dim)).T)


def _cache_by_object(build):
    """Memoise ``build`` per argument object.

    Entries keep the argument alive next to the value, so its id cannot be
    reused by a new object after the old one is garbage-collected.
    """
    cache = {}

    def get(obj):
        if id(obj) not in cache:
            cache[id(obj)] = (obj, build(obj))
        return cache[id(obj)][1]

    return get


@pytest.fixture(scope="session")
def dual_of():
    return _cache_by_object(du.dual_kac)


@pytest.fixture(scope="session")
def coreps_of(dual_of):
    def build(kac):
        dd = dual_of(kac)
        return cr.irreducible_coreps(kac, dd.v, dd.hat)

    return _cache_by_object(build)


@pytest.fixture(scope="session")
def fusion_of(coreps_of):
    return _cache_by_object(lambda kac: ci.fusion_data(kac, coreps_of(kac)))


@pytest.fixture(scope="session")
def coideals_of(coreps_of):
    """The enumerated left coideals of an algebra, with the default audit seed."""
    return _cache_by_object(lambda kac: ci.enumerate_coideals(kac, coreps_of(kac))["coideals"])


@pytest.fixture(scope="session")
def lattice_of(algebras, dual_of, coreps_of):
    cache = {}

    def get(name):
        if name not in cache:
            kac = algebras[name]
            cache[name] = ci.galois_lattice_report(dual_of(kac), coreps_of(kac))
        return cache[name]

    return get


def subgroup_oracle(kac, side="left"):
    """The subgroup walk, as a reference for the enumerator on a group-derived algebra:
    (H, the :func:`~kacgalois.coideals.coideal_closure` of H's indicator Σ_{h∈H} b_h)
    for each subgroup H, sorted as the enumerator sorts its list.  The closure is
    C(G/H) or C(H\\G) on the function side and ℂ[H] on the group side."""
    unit = np.eye(kac.dim)
    pairs = [
        (h, ci.coideal_closure(kac, [kac.op(unit[list(h)].sum(axis=0))], side))
        for h in kac.group.subgroups()
    ]
    return sorted(pairs, key=lambda it: ci._fingerprint(it[1].dim, it[1].projection))


def drop_system(monkeypatch, kac, coreps, subgroup):
    """Mutant: the search never proposes the subspace system of ``subgroup``'s coideal
    (:func:`subgroup_oracle`), so the enumerated list misses exactly that coideal."""
    coid = dict(subgroup_oracle(kac))[tuple(subgroup)]
    target = ci.subspace_system_from_coideal(kac, coid, coreps).spaces
    search = ci._candidate_systems

    def same(spaces):
        return all(
            len(a) == len(b) and la.frob(a.T @ a.conj() - b.T @ b.conj()) < la.SPAN_TOL
            for a, b in zip(spaces, target)
        )

    monkeypatch.setattr(
        ci, "_candidate_systems", lambda fusion: (c for c in search(fusion) if not same(c[0].spaces))
    )
