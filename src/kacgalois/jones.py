"""Basic construction for inclusions of finite-dimensional *-algebras.

Given an inclusion N ⊆ M with a faithful conditional expectation E: M → N
and a faithful state ω on N, the module builds the GNS space of φ = ω∘E,
L²(M) in standard form, the projection e onto the closure of N, the
extension algebra M₁ (the mirror image of the commutant of N, certified to
be the span of M·e·M and the algebra generated by M and e), the dual weight
pinned by x e y ↦ xy, the index element, and the spectral analysis of the
relative commutant M₁∩N′: per-summand balanced densities, the mirror map
x ↦ J x* J, extremality flags, and the modular-flow comparison.

In standard form J is ξ ↦ ξ†, so M, N′, M₁ and M₁∩N′ do not depend on the
state; only e, Ω and Δ do.  That half is built once per (M, N) pair as a
:class:`StateFreeExtension`, and a cache that holds the last pair lets a
draw and its ω-variation share it.

Every certificate of the chain is computed on its first read, once; only
the guards that refuse to build (a faithful φ, a consistent weight pin, a
non-singular corner density) run at construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra as ag
from . import linalg as la
from .algebra import CondExpectation, MMAlgebra, StateData
from .linalg import DEFAULT_TOL, EXTREMAL_TOL, PIN_TOL, SPAN_TOL, dagger, frob, opnorm

__all__ = [
    "Inclusion",
    "InclusionError",
    "make_inclusion",
    "trace_expectation",
    "skewed_expectation",
    "state_through_expectation",
    "random_inclusion",
    "omega_variation",
    "fixture_scaled_pair",
    "fixture_point_in_full",
    "fixture_pinch",
    "fixture_markov_chain",
    "bratteli_norm_sq",
    "StateFreeExtension",
    "BasicExtension",
    "basic_extension",
    "DualWeight",
    "dual_weight",
    "RelativeCommutantReport",
    "relcomm_report",
    "extremality",
    "flow_spectrum",
    "JonesChain",
    "jones_chain",
]

FLOW_TIMES = (0.3, 1.0, float(np.sqrt(2.0)))


class InclusionError(ValueError):
    """Raised when inclusion data fails a structural precondition."""


# ---------------------------------------------------------------------------
# Inclusions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inclusion:
    """A unital inclusion N ⊆ M with expectation data.

    Attributes
    ----------
    big, small : MMAlgebra
        The algebras M and N in a common ambient matrix algebra.
    expectation : CondExpectation
        A faithful conditional expectation E of M onto N.
    omega : StateData
        A faithful state on N (its density is an element of N).
    phi : StateData
        The composite state φ = ω∘E on M, stored as a density in M.
    label : str
        A name for reports; a random draw's label carries its seed.
    bratteli : tuple | None
        Rows of the inclusion multiplicity matrix when known (fixtures).
    """

    big: MMAlgebra
    small: MMAlgebra
    expectation: CondExpectation
    omega: StateData
    phi: StateData
    label: str = ""
    bratteli: tuple | None = None

    def validate(self) -> dict:
        """Structural residuals (containment, expectation laws, faithfulness) at DEFAULT_TOL."""
        small_onb = self.small.onb()
        contain = self.big.residual(small_onb)
        exp = self.expectation.validate()
        ranged = self.small.residual(self.expectation.apply(self.big.onb()))
        fixes = la.frob_max(self.expectation.apply(small_onb) - small_onb)
        phi_min = float(np.linalg.eigvalsh(self.phi.gram(self.big.onb())).min())
        rep = {
            "containment": contain,
            "expectation_range": ranged,
            "expectation_fixes_target": fixes,
            "phi_min_gram_eig": phi_min,
            **{f"expectation_{k}": v for k, v in exp.items() if k != "passed"},
        }
        rep["passed"] = (
            contain < DEFAULT_TOL
            and ranged < DEFAULT_TOL
            and fixes < DEFAULT_TOL
            and phi_min > DEFAULT_TOL
            and exp["passed"]
        )
        return rep


def state_through_expectation(
    big: MMAlgebra, expectation_matrix: np.ndarray, omega_density: np.ndarray
) -> StateData:
    """The density in M of the state x ↦ Tr(ω_density · E(x)).

    The density is the Riesz representative over a Frobenius-orthonormal
    basis of M, hence an element of M; positivity follows from positivity
    of the functional on M.
    """
    onb = big.onb()
    images = (onb.reshape(len(onb), -1) @ expectation_matrix.T).reshape(onb.shape)
    values = np.einsum("ij,kji->k", omega_density, images)
    return StateData(density=_riesz_density(onb, values))


def make_inclusion(
    big: MMAlgebra,
    small: MMAlgebra,
    expectation: CondExpectation | np.ndarray,
    omega_density: np.ndarray,
    label: str = "",
    bratteli: tuple | None = None,
) -> Inclusion:
    """Assemble and validate an :class:`Inclusion`.

    Raises
    ------
    InclusionError
        If N ⊄ M, E is not unital (E(1) ≠ 1), E does not land in N and fix
        it, E fails positivity/bimodularity, or ω∘E is not faithful on M.
    """
    if isinstance(expectation, np.ndarray):
        expectation = CondExpectation(
            matrix=np.asarray(expectation, dtype=complex),
            domain=big,
            target=small,
        )
    if big.residual(small.onb()) > SPAN_TOL:
        raise InclusionError("the small algebra is not contained in the big one")
    unit_res = frob(expectation.apply(big.unit) - big.unit)
    if unit_res > SPAN_TOL:
        raise InclusionError(f"expectation is not unital (residual {unit_res:.3e})")
    omega = StateData(density=np.asarray(omega_density, dtype=complex))
    phi = state_through_expectation(big, expectation.matrix, omega.density)
    expectation = CondExpectation(
        matrix=expectation.matrix,
        domain=big,
        target=small,
        preserving_state=phi,
    )
    inc = Inclusion(
        big=big,
        small=small,
        expectation=expectation,
        omega=omega,
        phi=phi,
        label=label,
        bratteli=bratteli,
    )
    rep = inc.validate()
    if not rep["passed"]:
        bad = {k: v for k, v in rep.items() if k != "passed"}
        raise InclusionError(f"inclusion data failed validation: {bad}")
    return inc


def trace_expectation(big: MMAlgebra, small: MMAlgebra) -> CondExpectation:
    """The trace-preserving conditional expectation of M onto N."""
    return ag.conditional_expectation(big, small, ag.trace_state(big.ambient_dim))


def skewed_expectation(
    big: MMAlgebra, small: MMAlgebra, k: np.ndarray
) -> tuple[CondExpectation, np.ndarray]:
    """The expectation x ↦ E₀(k'^{1/2} x k'^{1/2}) for positive k ∈ N′∩M.

    k is renormalized to k' = E₀(k)^{-1/2} k E₀(k)^{-1/2} so the result is
    unital; every faithful expectation M → N arises this way from the
    trace-preserving one E₀.  Returns the expectation and k'.
    """
    base = trace_expectation(big, small)
    scale = base.apply(k)
    scale_half_inv = la.herm_power((scale + dagger(scale)) / 2.0, -0.5)
    k_norm = scale_half_inv @ k @ scale_half_inv
    k_norm = (k_norm + dagger(k_norm)) / 2.0
    root = la.herm_power(k_norm, 0.5)
    matrix = base.matrix @ np.kron(root, root.T)
    return (
        CondExpectation(matrix=matrix, domain=big, target=small),
        k_norm,
    )


# ---------------------------------------------------------------------------
# Random inclusions and fixtures
# ---------------------------------------------------------------------------


def _embedded_pair(
    small_sizes: list[int], mult: np.ndarray
) -> tuple[MMAlgebra, MMAlgebra]:
    """The multimatrix pair N ⊆ M determined by block sizes and multiplicities.

    M-block α has size Σ_β mult[α,β]·small_sizes[β]; inside it, the N-block β
    acts diagonally with multiplicity mult[α,β].
    """
    big_sizes = [
        int(sum(mult[a][b] * small_sizes[b] for b in range(len(small_sizes))))
        for a in range(len(mult))
    ]
    d = sum(big_sizes)
    big_off = np.concatenate([[0], np.cumsum(big_sizes)])

    big_mats = []
    for a, m in enumerate(big_sizes):
        for i in range(m):
            for j in range(m):
                mat = np.zeros((d, d), dtype=complex)
                mat[big_off[a] + i, big_off[a] + j] = 1.0
                big_mats.append(mat)

    small_mats = []
    for b, n in enumerate(small_sizes):
        for i in range(n):
            for j in range(n):
                mat = np.zeros((d, d), dtype=complex)
                for a in range(len(big_sizes)):
                    inner = int(
                        sum(mult[a][bb] * small_sizes[bb] for bb in range(b))
                    )
                    for copy in range(mult[a][b]):
                        r = big_off[a] + inner + copy * n + i
                        c = big_off[a] + inner + copy * n + j
                        mat[r, c] = 1.0
                small_mats.append(mat)

    return (
        ag.from_span(big_mats, d),
        ag.from_span(small_mats, d),
    )


def _random_positive_in(alg: MMAlgebra, rng: np.random.Generator) -> np.ndarray:
    """A strictly positive element of the algebra (X†X + 0.4·unit)."""
    d = alg.ambient_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = alg.project(g)
    out = dagger(x) @ x + 0.4 * alg.unit
    return (out + dagger(out)) / 2.0


def random_inclusion(seed: int) -> Inclusion:
    """Seeded random multimatrix inclusion with a faithful expectation.

    The small algebra's blocks are partitioned among the big algebra's
    blocks: each small block sits inside exactly one big block, with
    multiplicity one, and each big block is filled by the small blocks
    assigned to it.  This multiplicity-free relative position keeps every
    summand of the relative commutant of the extension one-dimensional,
    which is the regime where the modular-flow comparison is exact; the
    mirror pairing between those summands still carries unequal weights,
    so non-extremal draws occur.  The ambient dimension is capped at 6.
    Odd seeds take a non-trace-preserving expectation E₀(k'^{1/2}·k'^{1/2})
    for random positive k ∈ N′∩M, and even seeds the trace-preserving E₀
    itself (the case k = 1).
    """
    rng = np.random.default_rng(seed)
    skewed = bool(seed % 2)
    while True:
        nb = int(rng.integers(2, 5))
        small_sizes = [int(rng.integers(1, 4)) for _ in range(nb)]
        na = int(rng.integers(1, nb + 1))
        assign = [int(rng.integers(0, na)) for _ in range(nb)]
        if len(set(assign)) != na:
            continue
        big_sizes = [
            int(sum(small_sizes[b] for b in range(nb) if assign[b] == a))
            for a in range(na)
        ]
        if sum(big_sizes) > 6 or sum(m * m for m in big_sizes) > 20:
            continue
        if all(assign.count(a) == 1 for a in range(na)):
            continue
        break
    mult = np.array(
        [[1 if assign[b] == a else 0 for b in range(nb)] for a in range(na)]
    )
    big, small = _embedded_pair(small_sizes, mult)

    if skewed:
        relcomm, _ = ag.relative_commutant(small.onb(), big.onb())
        k = _random_positive_in(ag.from_onb(relcomm, big.ambient_dim), rng)
        expectation, _ = skewed_expectation(big, small, k)
    else:
        expectation = trace_expectation(big, small)

    omega = _random_positive_in(small, rng)
    omega = omega / np.trace(omega).real
    return make_inclusion(
        big,
        small,
        expectation,
        omega,
        label=f"random(seed={seed}, skewed={skewed})",
        bratteli=tuple(tuple(int(v) for v in row) for row in mult),
    )


def omega_variation(inc: Inclusion, seed: int) -> Inclusion:
    """The same inclusion and expectation with a fresh random faithful ω."""
    rng = np.random.default_rng(seed)
    omega = _random_positive_in(inc.small, rng)
    omega = omega / np.trace(omega).real
    return make_inclusion(
        inc.big,
        inc.small,
        inc.expectation,
        omega,
        label=f"{inc.label}+omega(seed={seed})",
        bratteli=inc.bratteli,
    )


def fixture_scaled_pair(weight: float = 1.0 / 3.0) -> Inclusion:
    """ℂ ⊆ ℂ² with E(x₁, x₂) = weight·x₁ + (1−weight)·x₂."""
    if not 0.0 < weight < 1.0:
        raise InclusionError("weight must lie strictly between 0 and 1")
    bratteli = ((1,), (1,))
    big, small = _embedded_pair([1], bratteli)
    k = np.diag([2.0 * weight, 2.0 * (1.0 - weight)]).astype(complex)
    expectation, _ = skewed_expectation(big, small, k)
    omega = np.eye(2, dtype=complex) / 2.0
    return make_inclusion(
        big,
        small,
        expectation,
        omega,
        label=f"scaled_pair(weight={weight})",
        bratteli=bratteli,
    )


def fixture_point_in_full() -> Inclusion:
    """ℂ ⊆ M₂ with the trace expectation (index 4)."""
    bratteli = ((2,),)
    big, small = _embedded_pair([1], bratteli)
    expectation = trace_expectation(big, small)
    omega = np.eye(2, dtype=complex) / 2.0
    return make_inclusion(
        big, small, expectation, omega, label="point_in_full", bratteli=bratteli
    )


def fixture_pinch() -> Inclusion:
    """Diagonals ⊆ M₂ with the pinching expectation (index 2)."""
    bratteli = ((1, 1),)
    big, small = _embedded_pair([1, 1], bratteli)
    expectation = trace_expectation(big, small)
    omega = np.eye(2, dtype=complex) / 2.0
    return make_inclusion(
        big, small, expectation, omega, label="pinch", bratteli=bratteli
    )


def fixture_markov_chain() -> Inclusion:
    """ℂ ⊆ ℂ⊕M₂ with the spectral-weight state (index ‖multiplicities‖² = 5).

    The state weights each block proportionally to its multiplicity column
    eigenvector, so the index element of the induced expectation onto ℂ is
    the scalar given by the squared spectral norm of the multiplicity
    matrix — here 1² + 2² = 5.
    """
    d = 3
    bratteli = ((1,), (2,))
    big, small = _embedded_pair([1], bratteli)
    rho = np.diag([1.0 / 5.0, 2.0 / 5.0, 2.0 / 5.0]).astype(complex)
    eye = np.eye(d, dtype=complex)
    matrix = np.outer(eye.reshape(-1), rho.T.reshape(-1))
    expectation = CondExpectation(matrix=matrix, domain=big, target=small)
    omega = eye / d
    return make_inclusion(
        big, small, expectation, omega, label="markov_chain", bratteli=bratteli
    )


def bratteli_norm_sq(rows: tuple) -> float:
    """Squared spectral norm of a multiplicity matrix, by power iteration.

    Independent cross-oracle for the index of trace/spectral-weight
    expectations on connected inclusions.  Stops when two estimates differ
    by less than ``POWER_TOL``, or after ``POWER_MAX_ITER`` steps.
    """
    lam = np.array(rows, dtype=float)
    sym = lam @ lam.T
    v = np.ones(sym.shape[0])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(la.POWER_MAX_ITER):
        w = sym @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_value = float(v @ sym @ v)
        if abs(new_value - value) < la.POWER_TOL:
            return new_value
        value = new_value
    return value


# ---------------------------------------------------------------------------
# Basic extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateFreeExtension:
    """The half of the basic construction of N ⊆ M that no state moves.

    On L²(M) in standard form (:func:`~kacgalois.algebra.gns`) the
    represented M and N (``big_ops``, ``small_ops`` over the orthonormal
    bases of M and N, and the algebras they span), J: ξ ↦ ξ†, the commutant
    N′, M₁ = J·N′·J and M₁∩N′ depend on (M, N) alone; only e_N, Ω and Δ
    move with φ (Jones, Invent. Math. 72, 1983).  The numbers read off
    them are held here too: ``big_err_sq`` = ‖E_M‖²_F for M's residual
    E_M = M − (M·B†)·B off M₁ (B the orthonormal rows of M₁),
    ``unit_residual`` = ‖1 − P_{M₁}(1)‖, and the D×D×D coordinates
    ``products`` of every x·y in M's represented basis, with ``off_sq``,
    the squared Frobenius norm of what they miss, and ``norm_sq``, that of
    the x·y themselves.  ``relcomm`` caches its certified matrix units when
    :func:`relcomm_report` first forms them.
    """

    big_ops: np.ndarray
    small_ops: np.ndarray
    big_rep: MMAlgebra
    small_rep: MMAlgebra
    small_commutant: MMAlgebra
    m1: MMAlgebra
    relcomm: MMAlgebra
    big_err_sq: float
    unit_residual: float
    products: np.ndarray
    off_sq: float
    norm_sq: float


@functools.lru_cache(maxsize=1)
def _state_free(big: MMAlgebra, small: MMAlgebra) -> StateFreeExtension:
    """The :class:`StateFreeExtension` of N ⊆ M, keyed on the two objects.

    A draw and its ω-variation share M and N, so they share one build.  The
    cache holds the last pair only, so memory stays flat and a sweep over
    many pairs builds each once per visit.  N′ is certified by
    :func:`~kacgalois.algebra.commutant` as it is built.
    """
    left = ag.left_regular(big)
    k = len(left)
    big_ops = np.tensordot(big.coeffs(big.onb()), left, axes=(-1, 0))
    small_ops = np.tensordot(big.coeffs(small.onb()), left, axes=(-1, 0))
    big_rep = ag.from_span(big_ops, k)
    small_rep = ag.from_span(small_ops, k)
    small_comm = ag.commutant(small_rep)
    # J is antiunitary, so x ↦ JxJ keeps the commutant's basis Frobenius-orthonormal.
    mj = ag.star_matrix(big)
    m1 = ag.from_onb(mj @ np.conj(small_comm.onb()) @ np.conj(mj), k)
    big_err = big_ops - m1.project(big_ops)
    products, off_sq, norm_sq = _product_coordinates(big_ops, big_rep)
    for shared in (big_ops, small_ops, products):
        shared.flags.writeable = False
    return StateFreeExtension(
        big_ops=big_ops,
        small_ops=small_ops,
        big_rep=big_rep,
        small_rep=small_rep,
        small_commutant=small_comm,
        m1=m1,
        relcomm=ag.intersect(m1, small_comm),
        big_err_sq=np.vdot(big_err, big_err).real,
        unit_residual=m1.residual(np.eye(k, dtype=complex)),
        products=products,
        off_sq=off_sq,
        norm_sq=norm_sq,
    )


def _product_coordinates(ops: np.ndarray, big: MMAlgebra) -> tuple[np.ndarray, float, float]:
    """The (D, D, D) coordinates T[a, b] of ops[a]·ops[b] in ``big``'s basis,
    the squared Frobenius norm of what they miss, and that of the products;
    one x at a time, so no operator on the k²-dim space is formed."""
    d = len(ops)
    t = np.empty((d, d, d), dtype=complex)
    off_sq = norm_sq = 0.0
    for a in range(d):
        prod = ops[a] @ ops
        t[a] = big.coeffs(prod)
        off = prod - big.element(t[a])
        off_sq += np.vdot(off, off).real
        norm_sq += np.vdot(prod, prod).real
    return t, off_sq, norm_sq


@dataclass(frozen=True)
class BasicExtension:
    """GNS data of (M, φ) together with e, M₁ and the comparison residuals.

    ``shared`` is the :class:`StateFreeExtension` of (M, N), the same object
    for every state on the same pair.  Its ``m1`` is the mirror image of the
    commutant of N (an algebra by construction) with orthonormal rows B, and
    ``sandwich_svd`` the economy
    SVD (U, σ, V†) of the D²×r coordinates C in B of every x·e·y, x-major,
    over the represented basis of M (D = dim M, r = dim M₁).  The stack X
    of the x·e·y is C·B + E with E ⊥ M₁, so σ_r(X) ≥ σ_r(C) and
    (I−P_{M₁})·V_r = E†·U_r·Σ_r⁻¹ for X's top singular vectors (Wedin,
    BIT 12 (1972)).  The residuals are thus
    certified upper bounds on projector distances, not computed gaps:
    ``mirror_vs_span`` = min(1, ‖E‖_F/σ_r(C)); ``mirror_vs_generated`` adds
    M's own residual E_M = M − (M·B†)·B to ‖E‖ in quadrature; both read 1
    when σ_r(C) ≤ RANK_RTOL·σ₀(C).  ``span_vs_generated`` is their sum and
    ``unit_in_sandwich_span`` is ‖1 − P_{M₁}(1)‖ + √k·``mirror_vs_span``.
    ``sandwich_err_sq`` is ‖E‖²_F, summed as the x·e·y are formed.
    """

    inclusion: Inclusion
    gns: ag.GnsData
    e_n: np.ndarray
    e_range: np.ndarray  # columns: an orthonormal basis of the range of e_n
    shared: StateFreeExtension
    sandwich_svd: tuple
    sandwich_err_sq: float

    def mirror(self, x: np.ndarray) -> np.ndarray:
        """The map x ↦ J x* J (a linear *-antiautomorphism), also on a stack."""
        return self.gns.mj @ np.swapaxes(x, -1, -2) @ np.conj(self.gns.mj)

    @functools.cached_property
    def residuals(self) -> dict:
        """e compresses M to E, commutes with N and is fixed by J, and the
        three M₁ coincide by the bounds above; ``e_compress``,
        ``e_commutes_small`` and ``j_fixes_e`` are largest Frobenius norms."""
        g, inc, shared, e_n = self.gns, self.inclusion, self.shared, self.e_n
        big_onb, sigma, r = inc.big.onb(), self.sandwich_svd[1], shared.m1.dim
        e_big = inc.expectation.apply(big_onb)
        res = {}
        res["e_vector"] = float(
            np.linalg.norm(g.lam(big_onb) @ e_n.T - g.lam(e_big), axis=1).max()
        )
        res["e_compress"] = la.frob_max(e_n @ shared.big_ops @ e_n - g.rep(e_big) @ e_n)
        res["e_commutes_small"] = la.frob_max(e_n @ shared.small_ops - shared.small_ops @ e_n)
        res["j_fixes_e"] = la.frob_max(g.adj_j(e_n) - e_n)
        span = _gap_bound(self.sandwich_err_sq, sigma, r)
        gen = _gap_bound(self.sandwich_err_sq + shared.big_err_sq, sigma, r)
        res["mirror_vs_span"], res["mirror_vs_generated"] = span, gen
        # Both bounds are ≥ 0, so their sum is the largest of the three.
        res["span_vs_generated"] = res["three_way_max"] = span + gen
        res["unit_in_sandwich_span"] = shared.unit_residual + g.space_dim**0.5 * span
        return res


def basic_extension(inc: Inclusion) -> BasicExtension:
    """Build the extension algebra of an inclusion on L²(M), the GNS space of φ.

    The state-free half comes from one :class:`StateFreeExtension` per
    (M, N) pair (:func:`_state_free`); e, Ω and Δ are built here, with the
    SVD of one pass over the x·e·y, an x-block at a time.  Nothing is
    certified here: :attr:`BasicExtension.residuals` and the GNS residuals
    run on their first read.
    """
    g = ag.gns(inc.big, inc.phi)
    shared = _state_free(inc.big, inc.small)
    q, _ = np.linalg.qr(g.lam(inc.small.onb()).T)
    e_n = q @ dagger(q)
    coords, err_sq = _sandwich_coordinates(shared.big_ops, q, shared.m1.onb())
    return BasicExtension(
        inclusion=inc, gns=g, e_n=(e_n + dagger(e_n)) / 2.0, e_range=q, shared=shared,
        sandwich_svd=np.linalg.svd(coords.reshape(-1, shared.m1.dim), full_matrices=False),
        sandwich_err_sq=err_sq.sum(),
    )


def _sandwich_coordinates(
    ops: np.ndarray, q: np.ndarray, onb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of every x·e·y in an orthonormal span, and what they miss.

    With e = q·q† and x, y over ``ops``, returns the (D, D, r) array C with
    C[a, b, j] = Tr(m_j†·x_a·e·y_b) = Tr((m_j†·x_a·q)·(q†·y_b)) for the basis
    m_j of ``onb``, and for each x_a the squared Frobenius norm of the
    residual x_a·e·Y − C[a]·m of its block, which is orthogonal to the span.
    One x-block is held at a time; the D²-row stack is never formed.
    """
    d, k = ops.shape[:2]
    r, s = len(onb), q.shape[1]
    rows = onb.reshape(r, k * k)
    # Rows (j, t) of m_j†, and right[b][(t, u)] = (q†·y_b)[u, t].
    m_adj = dagger(onb).reshape(r * k, k)
    q_ops = dagger(q) @ ops
    right = np.swapaxes(q_ops, 1, 2).reshape(d, k * s)
    coords = np.empty((d, d, r), dtype=complex)
    err_sq = np.empty(d)
    for a, xq in enumerate(ops @ q):
        coords[a] = right @ (m_adj @ xq).reshape(r, k * s).T
        err = (xq @ q_ops).reshape(d, k * k) - coords[a] @ rows
        err_sq[a] = np.vdot(err, err).real
    return coords, err_sq


def _gap_bound(err_sq: float, sigma: np.ndarray, r: int) -> float:
    """min(1, ‖E‖_F/σ_r(C)) from ‖E‖²_F and the singular values of C; 1 if rank C < r."""
    if len(sigma) < r or sigma[r - 1] <= la.RANK_RTOL * sigma[0]:
        return 1.0
    return min(1.0, float(np.sqrt(err_sq) / sigma[r - 1]))


# ---------------------------------------------------------------------------
# Dual weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualWeight:
    """The map Ê: M₁ → M with x e y ↦ xy, in orthonormal coordinates.

    Row j of the r×D matrix ``coords`` holds the coordinates, in ``big``'s
    orthonormal basis, of Ê applied to the j-th orthonormal basis element of
    ``m1`` (r = dim M₁, D = dim M), both read off ``extension``; no operator
    on the k²-dim space of GNS matrices is formed.  ``pin_consistency`` is
    the pin residual that :func:`dual_weight` gates on; ``index_element``
    and ``residuals`` are read off ``coords`` on first read, so a copy with
    other coords reads its own.
    """

    coords: np.ndarray
    extension: BasicExtension
    pin_consistency: float

    @property
    def m1(self) -> MMAlgebra:
        return self.extension.shared.m1

    @property
    def big(self) -> MMAlgebra:
        return self.extension.shared.big_rep

    @functools.cached_property
    def index_element(self) -> np.ndarray:
        """Ê(1), a central element of M."""
        x = self.apply(np.eye(self.m1.ambient_dim, dtype=complex))
        return (x + dagger(x)) / 2.0

    @functools.cached_property
    def residuals(self) -> dict:
        """The pin, Ê(e) = 1, the index element central in M, the push-down
        ‖e·Ê(e·x) − e·x‖ over M₁'s basis, Ê's range and adjoint, positivity
        and bimodularity.  ``index_central`` is the largest Frobenius norm of
        the index element's commutators with M's basis.  Positivity and
        bimodularity are probed on six z ∈ M₁ and pairs a, b of M's basis
        read off ``probe_draws(2)``."""
        m1, big, e_n, index_el = self.m1, self.big, self.extension.e_n, self.index_element
        big_ops = self.extension.shared.big_ops
        d, r = len(big_ops), m1.dim
        res = {"pin_consistency": self.pin_consistency}
        res["unit_from_e"] = frob(self.apply(e_n) - np.eye(m1.ambient_dim, dtype=complex))
        res["index_in_big"] = big.residual(index_el)
        res["index_central"] = la.frob_max(index_el @ big_ops - big_ops @ index_el)

        m1_onb = m1.onb()
        ez = e_n @ m1_onb
        res["push_down"] = la.frob_max(e_n @ self.apply(ez) - ez)
        images = self.apply(m1_onb)
        res["range_in_big"] = big.residual(images)
        res["adjoint_compatible"] = la.frob_max(self.apply(dagger(m1_onb)) - dagger(images))

        pos_min = bimod = 0.0
        for u in la.probe_draws(2, (6, 2 * r + 2)):
            z = m1.element(u[:r] + 1j * u[r : 2 * r])
            y = self.apply(dagger(z) @ z)
            pos_min = min(pos_min, float(np.linalg.eigvalsh((y + dagger(y)) / 2.0).min()))
            a, b = big_ops[(d * (u[2 * r :] + 1) / 2).astype(int)]
            bimod = max(bimod, frob(self.apply(a @ z @ b) - a @ self.apply(z) @ b))
        res["min_positivity_eig"] = pos_min
        res["bimodule"] = bimod
        return res

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of Ê(x) in M's orthonormal basis, for one operator or a stack."""
        return self.m1.coeffs(x) @ self.coords

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Ê(x), for one operator or each of a stack (x is projected onto M₁ first)."""
        return self.big.element(self.coeffs(x))

    def composite(self, f, x: np.ndarray) -> np.ndarray:
        """f(Ê(x)) for a linear functional f on M, for one operator or a stack.

        ``f`` maps a stack of operators to their values; it is evaluated on
        M's basis only, so Ê(x) itself is never formed.
        """
        return self.m1.coeffs(x) @ (self.coords @ f(self.big.onb()))


def dual_weight(bc: BasicExtension) -> DualWeight:
    """Solve for the weight pinned by x e y ↦ xy on the extension algebra.

    With x, y over the represented basis of M, let C be the D²×r coordinates
    of the x·e·y in M₁'s orthonormal basis (their SVD ``bc.sandwich_svd`` is
    made by :func:`basic_extension`) and T the D²×D coordinates of the x·y
    in M's; the map is W = pinv(C)·T, with pinv cut at RANK_RTOL, and
    C·W − T = −(1 − U_kU_k†)·T for the kept singular vectors U_k.  T does
    not depend on the state and is read off ``bc.shared``, which forms it
    one x at a time.  The pin residual of the full
    coordinates, ‖Ê(x·e·y) − x·y‖ over all pairs, splits by Pythagoras
    into its part in M, ‖C·W − T‖, and its part orthogonal to M,
    ‖x·y − T·b‖ with b M's basis.  Only that pin guard runs here;
    :attr:`DualWeight.residuals` runs on its first read.

    Raises
    ------
    RuntimeError
        If the pin is inconsistent (the defining relations of the span of
        M·e·M would be violated) beyond tolerance.
    """
    shared = bc.shared
    u, sigma, vh = bc.sandwich_svd
    keep = sigma > la.RANK_RTOL * sigma[0]
    t = shared.products.reshape(-1, len(shared.big_ops))
    ut = dagger(u[:, keep]) @ t
    w = dagger(vh[keep]) @ (ut / sigma[keep, None])
    consistency = float(
        np.hypot(frob(t - u[:, keep] @ ut), np.sqrt(shared.off_sq))
        / max(1.0, np.sqrt(shared.norm_sq))
    )
    if consistency > PIN_TOL:
        raise RuntimeError(
            f"the weight pin x·e·y ↦ xy is inconsistent (residual {consistency:.3e})"
        )

    return DualWeight(coords=w, extension=bc, pin_consistency=consistency)


# ---------------------------------------------------------------------------
# Relative commutant analysis
# ---------------------------------------------------------------------------


def _riesz_density(onb: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The matrix R in the span with Tr(R·x) = value(x) on the given basis."""
    out = np.tensordot(values, dagger(onb), axes=1)
    return (out + dagger(out)) / 2.0


def _traces(x: np.ndarray) -> np.ndarray:
    """The trace of each matrix of a stack."""
    return np.trace(x, axis1=-2, axis2=-1)


@dataclass(frozen=True)
class RelativeCommutantReport:
    """Spectral report on M₁∩N′.

    ``summands``: one record per minimal central summand — unit projection,
    block, rank, the two functional densities (of Tr∘Ê and its mirror
    composite), the balanced positive generator with its support spectrum,
    and the mirror mate.  ``flow_generator`` assembles the per-summand
    generators into one positive invertible operator, and ``flow_spectrum``
    holds its eigenvalues, ascending and read-only.  ``extremal_margin`` is
    the largest operator norm of a generator minus its summand unit, read
    off the summand spectra;
    :func:`extremality` reads the extremality flag off it.
    """

    algebra: MMAlgebra
    summands: list
    mirror_pairs: list
    flow_generator: np.ndarray
    flow_spectrum: np.ndarray
    extremal_margin: float
    residuals: dict


def relcomm_report(
    bc: BasicExtension,
    dw: DualWeight,
) -> RelativeCommutantReport:
    """Decompose M₁∩N′ and extract the balanced density generators.

    The mirror mate of each summand is the summand whose central projection
    lies nearest to the mirror image of its own, read off one matrix of
    distances between the projections.  Per summand ξ: R_ξ is the density
    of x ↦ Tr(Ê(x)); the generator is a_ξ = s·R_ξ with s chosen so
    Tr(a_ξ) = Tr(a_ξ⁻¹) (mirror-paired summands share the balancing
    constant, and the cross-trace transport residual is recorded).  One
    eigendecomposition of R_ξ gives both traces, the generator's spectrum
    (times s) and so the extremality margin.  The φ∘Ê modular flow is
    compared with conjugation by the assembled generator at the sampled
    times; the eigendecompositions behind their imaginary powers give the
    flow spectrum, ``generator_min_eig`` and ``flow_density_min_eig``,
    unclipped.

    ``mirror_antimultiplicative`` is a spot check: it compares the mirror
    of x·y with mirror(y)·mirror(x) for the first four basis elements of
    M₁∩N′ only (16 pairs), not for every pair.

    Raises
    ------
    RuntimeError
        If a corner density is singular (weight degeneracy).
    """
    g = bc.gns
    rc = bc.shared.relcomm
    mirror = bc.mirror

    rc_onb = rc.onb()
    res = {}
    res["mirror_preserves"] = rc.residual(mirror(rc_onb))
    res["mirror_involution"] = la.frob_max(mirror(mirror(rc_onb)) - rc_onb)
    head = rc_onb[:4]
    res["mirror_antimultiplicative"] = la.frob_max(
        mirror(head[:, None] @ head[None]) - mirror(head)[None] @ mirror(head)[:, None]
    )

    # Mirror pairing of the summands.
    blocks = ag.matrix_units(rc)
    units = np.stack([block.projection for block in blocks])
    # One row at a time: the full (s, s, k, k) difference stack would set the peak memory.
    dists = np.stack([np.linalg.norm(img - units, axis=(-2, -1)) for img in mirror(units)])
    pairs = [int(mate) for mate in dists.argmin(axis=1)]
    res["mirror_pair_match"] = float(dists.min(axis=1).max())
    res["mirror_pairing_involutive"] = float(any(pairs[j] != i for i, j in enumerate(pairs)))

    # Functional densities per summand and the support spectrum of each.
    densities, spectra = [], []
    for block in blocks:
        conb = block.corner()
        r1 = _riesz_density(conb, dw.composite(_traces, conb))
        eigs = np.linalg.eigvalsh(r1)[-block.size * block.multiplicity :]
        if eigs.min() <= EXTREMAL_TOL * max(1.0, eigs.max()):
            raise RuntimeError(
                "corner density of the weight is singular "
                f"(support eigenvalue {eigs.min():.3e}); inconsistent weight"
            )
        densities.append((r1, _riesz_density(conb, dw.composite(_traces, mirror(conb)))))
        spectra.append(eigs)
    trace = [float(np.sum(eigs)) for eigs in spectra]
    trace_inv = [float(np.sum(1.0 / eigs)) for eigs in spectra]

    # Balancing constants, shared by each summand and its mirror mate (a
    # self-mated summand is its own mate): s = ((Tr R⁻¹·Tr R_m⁻¹)/(Tr R·Tr R_m))^¼.
    summands, gen_spectra = [], []
    for i, (block, (r1, r2), mate) in enumerate(zip(blocks, densities, pairs)):
        s = float(((trace_inv[i] * trace_inv[mate]) / (trace[i] * trace[mate])) ** 0.25)
        gen_eigs = s * spectra[i]
        gen_spectra.append(gen_eigs)
        summands.append(
            {
                "projection": block.projection,
                "block": (block.size, block.multiplicity),
                "rank": block.size * block.multiplicity,
                "density": r1,
                "mirror_density": r2,
                "generator": s * r1,
                "spectrum": [float(v) for v in gen_eigs],
                "squared_spectrum": [float(v * v) for v in gen_eigs],
                "mate": mate,
            }
        )
    # The mate's generator carries the trace of this one's inverse.
    res["trace_transport"] = max(
        abs(float(np.sum(gen_spectra[mate])) - float(np.sum(1.0 / eigs)))
        for eigs, mate in zip(gen_spectra, pairs)
    )

    flow_gen = sum(summand["generator"] for summand in summands)
    flow_gen = (flow_gen + dagger(flow_gen)) / 2.0
    # Each generator minus its unit lives on its own corner.
    margin = max(float(np.abs(eigs - 1.0).max()) for eigs in gen_spectra)

    # Normalized comparison of the two functional densities (mirror defect).
    mirror_defect = 0.0
    for (r1, r2), t1 in zip(densities, trace):
        t2 = float(np.trace(r2).real)
        if abs(t2) < la.TRACE_FLOOR:
            mirror_defect = np.inf
            continue
        mirror_defect = max(mirror_defect, frob(r1 / t1 - r2 / t2))
    res["mirror_density_defect"] = mirror_defect

    # Traciality of the trace composite on the relative commutant,
    # cross-checking scalarness of the generators: the composite restricts
    # to a trace exactly when every summand's generator is a scalar
    # multiple of its unit.
    pair_traces = dw.composite(_traces, rc_onb[:, None] @ rc_onb[None])
    res["weight_trace_defect"] = float(np.abs(pair_traces - pair_traces.T).max())
    # Unnormalized mirror comparison of the per-summand densities: nonzero
    # exactly when mirror-paired summands carry unequal weight mass.
    res["mirror_functional_defect"] = max(frob(r2 - r1) for r1, r2 in densities)

    # Modular flow of φ∘Ê against conjugation by the assembled generator.
    m1_onb = bc.shared.m1.onb()
    omega_vec = g.cyclic
    d1 = _riesz_density(
        m1_onb, dw.composite(lambda y: np.conj(omega_vec) @ y @ omega_vec, m1_onb)
    )
    flow_res = mirror_flow = flow_id = 0.0
    powers = [sign * 1j * t for t in FLOW_TIMES for sign in (1, -1)]
    d1_powers, d1_eigs = la.herm_powers(d1, powers)
    gen_powers, flow_eigs = la.herm_powers(flow_gen, powers)
    # Unclipped: a clipped minimum could never read negative.
    flow_eigs.flags.writeable = False
    res["generator_min_eig"] = float(flow_eigs[0])
    res["flow_density_min_eig"] = float(d1_eigs[0])
    for i in range(len(FLOW_TIMES)):
        ut, uti = d1_powers[2 * i : 2 * i + 2]
        at, ati = gen_powers[2 * i : 2 * i + 2]
        orbit = ut @ rc_onb @ uti
        flow_res = max(flow_res, la.frob_max(orbit - at @ rc_onb @ ati))
        flow_id = max(flow_id, la.frob_max(orbit - rc_onb))
        mirror_flow = max(
            mirror_flow, la.frob_max(orbit - mirror(ut @ mirror(rc_onb) @ uti))
        )
    res["flow_match"] = flow_res
    res["mirror_commutes_with_flow"] = mirror_flow
    res["flow_identity_defect"] = flow_id

    return RelativeCommutantReport(
        algebra=rc,
        summands=summands,
        mirror_pairs=pairs,
        flow_generator=flow_gen,
        flow_spectrum=flow_eigs,
        extremal_margin=float(margin),
        residuals=res,
    )


def extremality(
    bc: BasicExtension, dw: DualWeight, report: RelativeCommutantReport
) -> dict:
    """The two extremality criteria and their agreement flag.

    Criterion one (flag): every balanced generator is the summand unit.
    Criterion two (direct): the weight treats the mirror map as a
    symmetry, measured with no reference to the generators as the larger
    of two functional residuals on the relative commutant — the
    unnormalized defect between each summand's density and its mirror
    density (nonzero exactly when mirror-paired summands carry unequal
    mass), and the traciality defect of the trace composite (nonzero
    exactly when some summand density is non-scalar).  The margin
    vanishes precisely when both parts do, so the two criteria agree on
    every inclusion this library constructs; the agreement flag is
    computed from the measurements, reported, and never raised.  Both
    criteria, and the normalized ``mirror_density_defect`` with its flag,
    are read off the report's margin and residuals; only the map below is
    computed here.

    The raw operator-valued comparison is also reported, as
    ``mirror_map_residual``: the operator norm of the linear map
    x ↦ Ê(J x* J) − Ê(x) on M₁∩N′ (Frobenius norms on both sides), which
    does not depend on a choice of basis.  It is not a usable criterion in
    either direction: on the scaled-pair fixture it vanishes although the
    generators are non-trivial, and on reducible inclusions the values on
    mirror-paired summands sit in different central slots of the small
    algebra's relative commutant, so it can be large although every
    generator is the unit.
    """
    res = report.residuals
    flag_generator = bool(report.extremal_margin < EXTREMAL_TOL)
    onb = report.algebra.onb()
    # Rows: the map applied to an orthonormal basis of its domain, in M's
    # orthonormal coordinates, which keep Frobenius norms.
    map_residual = opnorm(dw.coeffs(bc.mirror(onb)) - dw.coeffs(onb))
    direct = max(res["mirror_functional_defect"], res["weight_trace_defect"])
    flag_direct = bool(direct < EXTREMAL_TOL)
    return {
        "extremal": flag_generator,
        "generator_margin": report.extremal_margin,
        "direct_residual": float(direct),
        "mirror_map_residual": float(map_residual),
        "mirror_density_defect": res["mirror_density_defect"],
        "extremal_by_direct": flag_direct,
        "extremal_by_mirror_densities": bool(res["mirror_density_defect"] < EXTREMAL_TOL),
        "criteria_agree": flag_generator == flag_direct,
    }


def flow_spectrum(report: RelativeCommutantReport) -> np.ndarray:
    """The ascending, read-only spectrum of the assembled flow generator (an
    ω-free invariant), as :func:`relcomm_report` stored it."""
    return report.flow_spectrum


class JonesChain(NamedTuple):
    """The basic construction of one inclusion, read down to extremality."""

    extension: BasicExtension
    weight: DualWeight
    report: RelativeCommutantReport
    extremality: dict


def jones_chain(inc: Inclusion) -> JonesChain:
    """basic_extension → dual_weight → relcomm_report → extremality on ``inc``."""
    bc = basic_extension(inc)
    dw = dual_weight(bc)
    report = relcomm_report(bc, dw)
    return JonesChain(bc, dw, report, extremality(bc, dw, report))
