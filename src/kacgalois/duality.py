"""Duality for finite-dimensional Kac algebras on the Haar GNS space.

From a Kac algebra A materialized on H = L²(A) this module builds:

* the multiplicative unitary V on H⊗H with V(xΩ⊗ξ) = δ(x)(Ω⊗ξ),
* the dual algebra Â spanned by the first-leg slices of V,
* the integrals of both algebras (the biinvariant idempotent e ∈ A and the
  rank-one projection ê onto ℂΩ, which generates the dual Haar state),
* the antipode unitary U and the auxiliary multiplicative unitaries V̂ and Ṽ
  with their commutation-cell memberships,
* the bilinear duality pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂) together with its
  multiplicativity laws,
* a full reconstruction of Â as an abstract Kac algebra (structure tensors
  extracted over a deterministic orthonormal basis, then re-validated), and
* the canonical identification of the double dual with the original algebra,
  transported through the pairing.

Everything returns residual dictionaries; nothing is assumed that is not
checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as ag
from . import linalg as la
from .kac import KacAlgebra, kac_from_structure, validate_kac
from .linalg import DEFAULT_TOL, dagger, frob, opnorm


# ---------------------------------------------------------------------------
# Multiplicative unitary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeUnitary:
    """V on H⊗H with V(xΩ⊗ξ) = δ(x)(Ω⊗ξ), plus residuals."""

    matrix: np.ndarray
    kac: KacAlgebra
    residuals: dict


def _apply_leg12(v4: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.einsum("pqrs,rsk...->pqk...", v4, psi, optimize=True)


def _apply_leg23(v4: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.einsum("pqrs,krs...->kpq...", v4, psi, optimize=True)


def _apply_leg13(v4: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.einsum("pqrs,rks...->pkq...", v4, psi, optimize=True)


def _pentagon_defect(v4: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(V₁₂V₁₃V₂₃ − V₂₃V₁₂)ψ for ψ of shape (n, n, n, ...)."""
    lhs = _apply_leg12(v4, _apply_leg13(v4, _apply_leg23(v4, psi)))
    return lhs - _apply_leg23(v4, _apply_leg12(v4, psi))


def pentagon_residual(v: np.ndarray, n: int, seed: int = 11) -> float:
    """Size of V₁₂V₁₃V₂₃ − V₂₃V₁₂ on H⊗H⊗H.

    When n³ ≤ 2048 this is the exact Frobenius norm, an upper bound on the
    operator norm: the leg actions are applied to the identity, n² columns
    at a time, without forming any n³×n³ operator.  Above that it is the
    maximum over 32 seeded random unit vectors, a lower bound on the
    operator norm.
    """
    v4 = v.reshape(n, n, n, n)
    if n ** 3 <= 2048:
        cols = np.eye(n * n, dtype=complex).reshape(n, n, n * n)
        total = 0.0
        for i in range(n):
            psi = np.zeros((n, n, n, n * n), dtype=complex)
            psi[i] = cols
            total += frob(_pentagon_defect(v4, psi)) ** 2
        return float(np.sqrt(total))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(32):
        psi = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        psi /= np.linalg.norm(psi)
        worst = max(worst, frob(_pentagon_defect(v4, psi)))
    return worst


def multiplicative_unitary(kac: KacAlgebra) -> MultiplicativeUnitary:
    """Construct V from the coproduct and verify its defining properties."""
    n = kac.dim
    stack = np.stack(kac.lmats)
    # t4[i, a, b, q] = (δ(bᵢ)(Ω ⊗ e_q))[(a, b)]
    t4 = np.einsum("ijk,aj,kbq->iabq", kac.delta, kac.coord, stack, optimize=True)
    t_mat = t4.transpose(1, 2, 0, 3).reshape(n * n, n * n)
    eye = np.eye(n, dtype=complex)
    v = t_mat @ np.kron(kac.coord_inv, eye)

    res = {}
    res["unitary"] = opnorm(dagger(v) @ v - np.eye(n * n))
    res["pentagon"] = pentagon_residual(v, n)
    res["defining_action"] = opnorm(v @ np.kron(kac.coord, eye) - t_mat)
    return MultiplicativeUnitary(matrix=v, kac=kac, residuals=res)


# ---------------------------------------------------------------------------
# The dual algebra of first-leg slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HatAlgebra:
    """The dual algebra Â = span of first-leg slices of V, on the same H.

    ``onb`` is the deterministic Frobenius-orthonormal basis used for all
    coefficient extractions.
    """

    mm: ag.MMAlgebra
    onb: tuple
    residuals: dict


def hat_algebra(kac: KacAlgebra, v: MultiplicativeUnitary) -> HatAlgebra:
    """Slice V over its second leg and certify the result.

    Residual checks: the slice span has dimension n, it is closed as a
    *-algebra, and V lies in Â⊗A (commutation with the generators of the
    commutant cell Â′⊗A′).
    """
    n = kac.dim
    v4 = v.matrix.reshape(n, n, n, n)
    slices = [v4[:, p, :, q] for p in range(n) for q in range(n)]
    onb = la.orthonormalize(slices)
    mm = ag.from_span(onb, n)
    res = {}
    res["dimension"] = 0.0 if len(onb) == n else float(abs(len(onb) - n))
    val = mm.validate()
    res["product_closure"] = val["product_closure"]
    res["adjoint_closure"] = val["adjoint_closure"]
    res["unit_membership"] = val["unit_membership"]

    a_comm = ag.commutant(kac.as_mm())
    hat_comm = ag.commutant(mm)
    eye = np.eye(n, dtype=complex)
    memb = 0.0
    for y in hat_comm.onb():
        memb = max(memb, frob(v.matrix @ np.kron(y, eye) - np.kron(y, eye) @ v.matrix))
    for a in a_comm.onb():
        memb = max(memb, frob(v.matrix @ np.kron(eye, a) - np.kron(eye, a) @ v.matrix))
    res["v_in_hat_tensor_a"] = memb
    return HatAlgebra(mm=mm, onb=tuple(mm.onb()), residuals=res)


def delta_hat(v: MultiplicativeUnitary, y: np.ndarray) -> np.ndarray:
    """Dual coproduct δ̂(y) = V†(1⊗y)V on H⊗H."""
    n = v.kac.dim
    return dagger(v.matrix) @ np.kron(np.eye(n, dtype=complex), y) @ v.matrix


def kappa_hat(kac: KacAlgebra, y: np.ndarray) -> np.ndarray:
    """Dual antipode κ̂(y) = J y* J (linear in y)."""
    return kac.mj @ y.T @ np.conj(kac.mj)


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Integrals:
    """The biinvariant idempotent integrals of A and Â.

    ``e_op`` is the integral of A (the projection with x·e = ε(x)·e),
    ``e_hat`` the integral ê of Â (the rank-one projection onto ℂΩ), and
    ``omega_hat`` = √n·e·Ω the cyclic unit vector implementing the dual Haar
    state ĥ = Tr/n on Â.
    """

    e_coeffs: np.ndarray
    e_op: np.ndarray
    e_hat: np.ndarray
    omega_hat: np.ndarray
    residuals: dict


def integrals(kac: KacAlgebra, hat: HatAlgebra) -> Integrals:
    """Solve for the integral of A and certify both integrals."""
    n = kac.dim
    eps = kac.counit
    rows = []
    for i in range(n):
        rows.append(kac.mult[i].T - eps[i] * np.eye(n))  # left: bᵢ·e = ε(bᵢ)e
        rows.append(kac.mult[:, i, :].T - eps[i] * np.eye(n))  # right: e·bᵢ = ε(bᵢ)e
    ns = la.null_space(np.vstack(rows))
    res: dict = {"integral_space_dim_defect": float(abs(ns.shape[1] - 1))}
    if ns.shape[1] < 1:
        raise ValueError("no nonzero integral in the algebra")
    c = ns[:, 0]
    c = c / (eps @ c)
    e_op = kac.op(c)
    omega_hat = np.sqrt(n) * (e_op @ kac.omega)

    res["idempotent"] = frob(e_op @ e_op - e_op)
    res["self_adjoint"] = frob(e_op - dagger(e_op))
    res["haar_value"] = float(abs(kac.haar @ c - 1.0 / n))
    absorb = 0.0
    for i, lm in enumerate(kac.lmats):
        absorb = max(absorb, frob(lm @ e_op - eps[i] * e_op))
    res["absorbing"] = absorb

    e_hat = np.outer(kac.omega, np.conj(kac.omega))
    res["e_hat_membership"] = la.span_residual(e_hat, list(hat.onb))
    fix = 0.0
    absorb_hat = 0.0
    for y in hat.onb:
        w = y @ kac.omega
        eps_y = np.vdot(kac.omega, w)
        fix = max(fix, float(np.linalg.norm(w - eps_y * kac.omega)))
        absorb_hat = max(absorb_hat, frob(e_hat @ y - eps_y * e_hat))
    res["hat_fixes_omega_line"] = fix
    res["e_hat_absorbing"] = absorb_hat
    res["omega_hat_unit"] = float(abs(np.linalg.norm(omega_hat) - 1.0))
    res["omega_from_omega_hat"] = float(
        np.linalg.norm(np.sqrt(n) * (e_hat @ omega_hat) - kac.omega)
    )
    tr_vs_vector = 0.0
    for y in hat.onb:
        tr_vs_vector = max(
            tr_vs_vector,
            float(abs(np.trace(y) / n - np.vdot(omega_hat, y @ omega_hat))),
        )
    res["dual_haar_is_normalized_trace"] = tr_vs_vector
    return Integrals(
        e_coeffs=c, e_op=e_op, e_hat=e_hat, omega_hat=omega_hat, residuals=res
    )


# ---------------------------------------------------------------------------
# Antipode unitary and the auxiliary multiplicative unitaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HatUnitaries:
    """U implementing the antipode on H, and the unitaries V̂, Ṽ built from it."""

    u: np.ndarray
    v_hat: np.ndarray
    v_tilde: np.ndarray
    residuals: dict


def hat_unitaries(
    kac: KacAlgebra, v: MultiplicativeUnitary, hat: HatAlgebra
) -> HatUnitaries:
    """Build U (xΩ ↦ κ(x)Ω), V̂ = F(U⊗1)V(U⊗1)F and Ṽ = F(1⊗U)V(1⊗U)F.

    Certifies: U is a self-inverse unitary; V̂ and Ṽ are multiplicative
    unitaries (pentagon); V̂ ∈ A⊗Â′ and Ṽ ∈ A′⊗Â (commutation with the
    generators of the respective commutant cells); V̂†(ξ⊗xΩ) = δ(x)(ξ⊗Ω);
    and Ad(Ṽ) restricted to first-leg dual elements is the dual coproduct,
    Ṽ(y⊗1)Ṽ† = δ̂(y).
    """
    n = kac.dim
    u = kac.coord @ kac.antipode.T @ kac.coord_inv
    eye = np.eye(n, dtype=complex)
    flip = la.flip_operator(n)
    u1 = np.kron(u, eye)
    v_hat = flip @ u1 @ v.matrix @ u1 @ flip
    u2 = np.kron(eye, u)
    v_tilde = flip @ u2 @ v.matrix @ u2 @ flip

    res = {}
    res["u_unitary"] = opnorm(dagger(u) @ u - eye)
    res["u_involutive"] = opnorm(u @ u - eye)
    res["v_hat_unitary"] = opnorm(dagger(v_hat) @ v_hat - np.eye(n * n))
    res["v_tilde_unitary"] = opnorm(dagger(v_tilde) @ v_tilde - np.eye(n * n))
    res["v_hat_pentagon"] = pentagon_residual(v_hat, n)
    res["v_tilde_pentagon"] = pentagon_residual(v_tilde, n)

    a_mm = kac.as_mm()
    a_comm = ag.commutant(a_mm)
    hat_comm = ag.commutant(hat.mm)

    memb = 0.0  # V̂ ∈ A⊗Â′ ⟺ commutes with A′⊗1 and 1⊗Â
    for a in a_comm.onb():
        w = np.kron(a, eye)
        memb = max(memb, frob(v_hat @ w - w @ v_hat))
    for y in hat.onb:
        w = np.kron(eye, y)
        memb = max(memb, frob(v_hat @ w - w @ v_hat))
    res["v_hat_in_a_tensor_hatcomm"] = memb

    memb = 0.0  # Ṽ ∈ A′⊗Â ⟺ commutes with A⊗1 and 1⊗Â′
    for lm in kac.lmats:
        w = np.kron(lm, eye)
        memb = max(memb, frob(v_tilde @ w - w @ v_tilde))
    for y in hat_comm.onb():
        w = np.kron(eye, y)
        memb = max(memb, frob(v_tilde @ w - w @ v_tilde))
    res["v_tilde_in_acomm_tensor_hat"] = memb

    # V̂†(ξ ⊗ xΩ) = δ(x)(ξ ⊗ Ω) over basis x and coordinate vectors ξ.
    act = 0.0
    vh_dag = dagger(v_hat)
    for i in range(n):
        d_i = np.einsum(
            "jk,jac,kbe->abce", kac.delta[i], np.stack(kac.lmats), np.stack(kac.lmats),
            optimize=True,
        ).reshape(n * n, n * n)
        for q in range(n):
            lhs = vh_dag @ np.kron(eye[:, q], kac.coord[:, i])
            rhs = d_i @ np.kron(eye[:, q], kac.omega)
            act = max(act, float(np.linalg.norm(lhs - rhs)))
    res["v_hat_defining_action"] = act

    cop = 0.0
    vt_dag = dagger(v_tilde)
    for y in hat.onb:
        lhs = v_tilde @ np.kron(y, eye) @ vt_dag
        cop = max(cop, frob(lhs - delta_hat(v, y)))
    res["v_tilde_implements_dual_coproduct"] = cop
    return HatUnitaries(u=u, v_hat=v_hat, v_tilde=v_tilde, residuals=res)


# ---------------------------------------------------------------------------
# The duality pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingForm:
    """The bilinear pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂) between A and Â.

    ``matrix`` holds the pairing of the algebra basis operators against the
    dual orthonormal basis; ``residuals`` certify bilinearity of form,
    nondegeneracy, the counit rows, and the two multiplicativity laws
    (products on one side pair with coproducts on the other).
    """

    kac: KacAlgebra
    hat: HatAlgebra
    omega_hat: np.ndarray
    matrix: np.ndarray
    residuals: dict

    def value(self, x: np.ndarray, y: np.ndarray) -> complex:
        n = self.kac.dim
        return complex(
            np.sqrt(n) * np.dot(x @ self.kac.omega, y.T @ np.conj(self.omega_hat))
        )


def pairing(
    kac: KacAlgebra, v: MultiplicativeUnitary, hat: HatAlgebra, ints: Integrals
) -> PairingForm:
    """Build the duality pairing and verify its structural laws."""
    n = kac.dim
    sq = np.sqrt(n)
    stack = np.stack(kac.lmats)
    ystack = np.stack(hat.onb)
    om_bar = np.conj(ints.omega_hat)

    # ⟨x, y⟩ = √n Σ_p (xΩ)_p (yᵀ Ω̂̄)_p  — bilinear in (x, y) by construction.
    w = np.einsum("aqp,q->ap", ystack, om_bar)  # w[α] = y_αᵀ Ω̂̄
    p_mat = sq * np.einsum("pi,ap->ia", kac.coord, w)

    res = {}
    sv = np.linalg.svd(p_mat, compute_uv=False)
    res["nondegenerate"] = float(max(0.0, DEFAULT_TOL - sv.min() / sv.max()))

    unit_row = sq * np.einsum("p,ap->a", kac.omega, w)
    eps_hat = np.array([np.vdot(kac.omega, y @ kac.omega) for y in hat.onb])
    res["unit_pairs_to_dual_counit"] = float(np.abs(unit_row - eps_hat).max())
    eye_col = sq * np.einsum("pi,p->i", kac.coord, om_bar)
    res["dual_unit_pairs_to_counit"] = float(np.abs(eye_col - kac.counit).max())

    # Law 1: ⟨x·x', y⟩ = ⟨x⊗x', δ̂(y)⟩.
    pv = np.einsum("iac,cj->ija", stack, kac.coord, optimize=True)  # (bᵢbⱼ)Ω
    lhs1 = sq * np.einsum("ijp,ap->ija", pv, w, optimize=True)
    dc = np.empty((n, n, n), dtype=complex)
    for a_idx in range(n):
        dh = delta_hat(v, hat.onb[a_idx]).reshape(n, n, n, n)
        coeff = np.einsum(
            "apr,bqs,pqrs->ab", np.conj(ystack), np.conj(ystack), dh, optimize=True
        )
        dc[a_idx] = coeff
        back = np.einsum("ab,apr,bqs->pqrs", coeff, ystack, ystack, optimize=True)
        res.setdefault("dual_coproduct_membership", 0.0)
        res["dual_coproduct_membership"] = max(
            res["dual_coproduct_membership"], float(np.abs(back - dh).max())
        )
    rhs1 = np.einsum("cab,ia,jb->ijc", dc, p_mat, p_mat, optimize=True)
    res["pairing_product_vs_dual_coproduct"] = float(np.abs(lhs1 - rhs1).max())

    # Law 2: ⟨x, y·y'⟩ = ⟨δ(x), y⊗y'⟩.
    yp = np.einsum("bqp,aq->abp", ystack, w, optimize=True)  # (y_a y_b)ᵀ Ω̂̄
    lhs2 = sq * np.einsum("pi,abp->iab", kac.coord, yp, optimize=True)
    rhs2 = np.einsum("kij,ia,jb->kab", kac.delta, p_mat, p_mat, optimize=True)
    res["pairing_coproduct_vs_dual_product"] = float(np.abs(lhs2 - rhs2).max())

    return PairingForm(
        kac=kac, hat=hat, omega_hat=ints.omega_hat, matrix=p_mat, residuals=res
    )


# ---------------------------------------------------------------------------
# Dual Kac algebra reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualKac:
    """The dual, reconstructed as an abstract Kac algebra and re-validated.

    ``kac`` is the dual as a fresh :class:`KacAlgebra` (its own Haar GNS
    materialization); ``onb`` is the concrete basis of Â on the original H
    whose index order matches the abstract basis.
    """

    kac: KacAlgebra
    hat: HatAlgebra
    v: MultiplicativeUnitary
    ints: Integrals
    pairing_form: PairingForm
    residuals: dict
    axiom_report: dict


def dual_kac(kac: KacAlgebra) -> DualKac:
    """Extract the dual Kac algebra from the slice algebra of V.

    Structure tensors over the deterministic orthonormal basis of Â:
    products and stars by orthonormal expansion, the coproduct from
    V†(1⊗y)V, the counit from the action on Ω, the antipode from J(·)*J,
    and the Haar vector from the normalized trace.  The resulting tensors
    are materialized through their own GNS construction and the full axiom
    validator is run on the result.
    """
    n = kac.dim
    v = multiplicative_unitary(kac)
    hat = hat_algebra(kac, v)
    ints = integrals(kac, hat)
    pf = pairing(kac, v, hat, ints)
    ystack = np.stack(hat.onb)

    mult = np.einsum(
        "apq,bqr,cpr->abc", ystack, ystack, np.conj(ystack), optimize=True
    )  # coeff of y_c in y_a y_b
    res = {"product_membership": 0.0}
    recon = np.einsum("abc,cpr->abpr", mult, ystack, optimize=True)
    prods = np.einsum("apq,bqr->abpr", ystack, ystack, optimize=True)
    res["product_membership"] = float(np.abs(recon - prods).max())

    delta = np.empty((n, n, n), dtype=complex)
    memb = 0.0
    for c in range(n):
        dh = delta_hat(v, hat.onb[c]).reshape(n, n, n, n)
        coeff = np.einsum(
            "apr,bqs,pqrs->ab", np.conj(ystack), np.conj(ystack), dh, optimize=True
        )
        delta[c] = coeff
        back = np.einsum("ab,apr,bqs->pqrs", coeff, ystack, ystack, optimize=True)
        memb = max(memb, float(np.abs(back - dh).max()))
    res["coproduct_membership"] = memb

    counit = np.array([np.vdot(kac.omega, y @ kac.omega) for y in hat.onb])
    eps_res = 0.0
    for i, y in enumerate(hat.onb):
        eps_res = max(
            eps_res, float(np.linalg.norm(y @ kac.omega - counit[i] * kac.omega))
        )
    res["counit_action"] = eps_res

    antipode = np.empty((n, n), dtype=complex)
    memb = 0.0
    for i, y in enumerate(hat.onb):
        ky = kappa_hat(kac, y)
        antipode[i] = np.einsum("bpq,pq->b", np.conj(ystack), ky)
        back = np.einsum("b,bpq->pq", antipode[i], ystack)
        memb = max(memb, frob(back - ky))
    res["antipode_membership"] = memb

    star = np.einsum("bpq,apq->ab", np.conj(ystack), np.conj(ystack).transpose(0, 2, 1))
    # star[a, b] = coeff of y_b in y_a† = ⟨y_b, y_a†⟩
    haar = np.array([np.trace(y) / n for y in hat.onb])

    labels = [f"dual_{i}" for i in range(n)]
    dual = kac_from_structure(
        labels, mult, delta, counit, antipode, star, haar, origin="dual"
    )
    report = validate_kac(dual)
    return DualKac(
        kac=dual, hat=hat, v=v, ints=ints, pairing_form=pf,
        residuals=res, axiom_report=report,
    )


def bidual_check(kac: KacAlgebra) -> dict:
    """Residuals for the canonical isomorphism A ≅ (Â)̂.

    The identification is transported through the two pairings: T is the
    matrix solving P₂·T = P₁ᵀ, and all structure tensors are compared after
    transport.  Returns per-structure residuals and their maximum.
    """
    d1 = dual_kac(kac)
    d2 = dual_kac(d1.kac)
    p1 = d1.pairing_form.matrix
    p2 = d2.pairing_form.matrix
    t = np.linalg.solve(p2, p1.T)

    m1, m2 = kac.mult, d2.kac.mult
    dd1, dd2 = kac.delta, d2.kac.delta
    res = {}
    res["unit"] = float(np.abs(t @ kac.unit_coeffs - d2.kac.unit_coeffs).max())
    res["product"] = float(
        np.abs(
            np.einsum("ai,bj,abc->ijc", t, t, m2, optimize=True)
            - np.einsum("ijk,ck->ijc", m1, t, optimize=True)
        ).max()
    )
    res["coproduct"] = float(
        np.abs(
            np.einsum("ck,cab->kab", t, dd2, optimize=True)
            - np.einsum("kij,ai,bj->kab", dd1, t, t, optimize=True)
        ).max()
    )
    res["counit"] = float(np.abs(d2.kac.counit @ t - kac.counit).max())
    res["antipode"] = float(
        np.abs(
            np.einsum("ai,ab->ib", t, d2.kac.antipode)
            - kac.antipode @ t.T
        ).max()
    )
    res["star"] = float(
        np.abs(
            np.einsum("ai,ab->ib", np.conj(t), d2.kac.star) - kac.star @ t.T
        ).max()
    )
    res["haar"] = float(np.abs(d2.kac.haar @ t - kac.haar).max())
    res["max_residual"] = max(res.values())
    return res


def group_dual_check(kac: KacAlgebra) -> dict:
    """For a group algebra ℂ[G]: the dual is commutative and is C(G).

    The identification sends the point indicator of g to the element of Â
    that pairs to δ_{g,·} against the group basis (the pairing-dual basis),
    and every C(G) structure relation is then checked concretely.
    """
    if kac.origin != "group_algebra" or kac.group is None:
        raise ValueError("group_dual_check requires a group_algebra-origin Kac algebra")
    g = kac.group
    n = kac.dim
    v = multiplicative_unitary(kac)
    hat = hat_algebra(kac, v)
    ints = integrals(kac, hat)
    pf = pairing(kac, v, hat, ints)

    res = {}
    comm = 0.0
    for a in hat.onb:
        for b in hat.onb:
            comm = max(comm, frob(a @ b - b @ a))
    res["dual_commutative"] = comm

    pinv = np.linalg.inv(pf.matrix)
    wg = np.einsum("ag,apq->gpq", pinv, np.stack(hat.onb), optimize=True)

    idem = 0.0
    for x in range(n):
        for y_ in range(n):
            want = wg[x] if x == y_ else np.zeros_like(wg[0])
            idem = max(idem, frob(wg[x] @ wg[y_] - want))
    res["point_indicators_orthogonal_idempotent"] = idem
    res["point_indicators_sum_to_one"] = frob(sum(wg) - np.eye(n))
    res["point_indicators_self_adjoint"] = max(frob(dagger(wg[x]) - wg[x]) for x in range(n))

    cop = 0.0
    for x in range(n):
        target = np.zeros((n * n, n * n), dtype=complex)
        for s in range(n):
            for t_ in range(n):
                if g.table[s, t_] == x:
                    target += np.kron(wg[s], wg[t_])
        cop = max(cop, frob(delta_hat(v, wg[x]) - target))
    res["coproduct_is_group_convolution"] = cop

    inv = g.inverse
    res["antipode_is_inversion"] = max(
        frob(kappa_hat(kac, wg[x]) - wg[inv[x]]) for x in range(n)
    )
    res["haar_is_uniform"] = max(
        float(abs(np.trace(wg[x]) / n - 1.0 / n)) for x in range(n)
    )
    res["counit_is_evaluation_at_identity"] = max(
        float(abs(np.vdot(kac.omega, wg[x] @ kac.omega) - (1.0 if x == 0 else 0.0)))
        for x in range(n)
    )
    res["max_residual"] = max(res.values())
    return res


def heisenberg_identities(kac: KacAlgebra) -> dict:
    """Commutation cells between the algebra and its dual through ê.

    For every irreducible corepresentation π with matrix units e(π) in Â and
    corepresentation entries u(π) in A, checks, for each column pair (i, j)
    of π (d(π)² matrix-unit cells per block):

    * the expansion V = Σ_π Σ_{ij} e(π)ᵢⱼ ⊗ u(π)ᵢⱼ,
    * the column-contracted coproduct identity (columns as vectors, the row
      index contracted through the products)
      d(π)·Σ_k δ(u(π)ₖᵢ)*·(1⊗ê)·δ(u(π)ₖⱼ) = 1⊗κ̂(e(π)ⱼᵢ), and
    * its compression to single operators,
      d(π)·Σ_k u(π)ₖᵢ*·ê·u(π)ₖⱼ = κ̂(e(π)ⱼᵢ).

    The identity at a *fixed* row k, without the contraction, is not a
    theorem once d(π) > 1; the contracted form is, and reduces to the
    compressed form through the unitarity of the entry matrix.
    """
    from .coreps import irreducible_coreps

    n = kac.dim
    v = multiplicative_unitary(kac)
    hat = hat_algebra(kac, v)
    ints = integrals(kac, hat)
    coreps = irreducible_coreps(kac, v=v, hat=hat)

    e_hat = ints.e_hat
    eye = np.eye(n, dtype=complex)
    res = {"compressed_product": 0.0, "coproduct_contracted": 0.0}
    cells = []
    for corep in coreps:
        d = corep.dim
        cells.append(d * d)
        dops = [
            [kac.delta_op(corep.entries[k][i]) for i in range(d)] for k in range(d)
        ]
        for i in range(d):
            for j in range(d):
                rhs = kappa_hat(kac, corep.units[j][i])
                acc = np.zeros((n, n), dtype=complex)
                acc2 = np.zeros((n * n, n * n), dtype=complex)
                for k in range(d):
                    acc += dagger(corep.entries[k][i]) @ e_hat @ corep.entries[k][j]
                    acc2 += dagger(dops[k][i]) @ np.kron(eye, e_hat) @ dops[k][j]
                res["compressed_product"] = max(
                    res["compressed_product"], frob(d * acc - rhs)
                )
                res["coproduct_contracted"] = max(
                    res["coproduct_contracted"], frob(d * acc2 - np.kron(eye, rhs))
                )
    res["v_expansion"] = coreps[0].residuals["v_expansion"] if coreps else 0.0
    res["cells_per_block"] = cells
    return res
