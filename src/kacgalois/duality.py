"""Duality for finite-dimensional Kac algebras on the Haar GNS space.

From a Kac algebra A materialized on H = L²(A) this module builds:

* the multiplicative unitary V on H⊗H with V(xΩ⊗ξ) = δ(x)(Ω⊗ξ),
* the dual algebra Â in the basis ŷ dual to A's under the pairing: the n
  elements ŷᵢ with V = Σᵢ ŷᵢ⊗L(bᵢ), from one n×n solve, and their Löwdin
  orthonormalization ``onb``, on which every certificate runs,
* the integrals of both algebras (the biinvariant idempotent e ∈ A and the
  rank-one projection ê onto ℂΩ, which generates the dual Haar state), built
  once per Â,
* the antipode unitary U and the auxiliary multiplicative unitaries V̂ and Ṽ
  with their tensor-product memberships,
* the bilinear duality pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂), the identity matrix
  against ŷ, together with its multiplicativity laws,
* the dual as an abstract Kac algebra over ŷ, whose tensors are A's
  transposed (Enock–Schwartz; :func:`dual_kac`), and
* the identification of the double dual with A, certified through the
  bidual's own operators.

Everything returns residual dictionaries; nothing is assumed that is not
checked.  V is built once per :class:`KacAlgebra` instance, Â once per V
built from that same instance and the integrals once per Â; later callers
(the dual, the corepresentations, the auxiliary unitaries) get the same
objects, whose arrays are read-only.  Every certificate runs on its first
read, once.  Construction reads tensors, certification operators: the dual's
``residuals`` prove on H that ŷ realizes each tensor.  The pentagons of V, V̂
and Ṽ are one factored certificate (:func:`pentagon_residual`) on Â's own
product and coproduct tensors over ``onb``: each unitary is read as a sum of
n Kronecker products, each leg's closure and each split defect is computed
once, and the bound costs one n⁶ matmul whatever V's density.  The dual
coproduct δ̂(y) = V†(1⊗y)V is A's product read backwards, as the pentagon
proves, and V's pentagon certificate bounds the difference
(:func:`coproduct_residual`): no δ̂ path forms a sandwich.  The tensor
memberships V ∈ Â⊗A, V̂ ∈ A⊗Â′ and Ṽ ∈ A′⊗Â are exact Frobenius distances
(:func:`~kacgalois.linalg.leg_distance`).  Unitarity and the defining actions
are Frobenius norms, upper bounds on the operator norm.  Building Â runs no
SVD and no product of its basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as ag
from . import linalg as la
from .kac import KacAlgebra, kac_from_structure, validate_kac
from .linalg import GRAM_COND_MAX, dagger, frob, leg_distance


# ---------------------------------------------------------------------------
# Multiplicative unitary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeUnitary:
    """V on H⊗H with V(xΩ⊗ξ) = δ(x)(Ω⊗ξ), and its residuals on first read.

    ``matrix`` is read-only: one instance per algebra is shared by every
    caller of :func:`multiplicative_unitary`.
    """

    matrix: np.ndarray
    kac: KacAlgebra

    @cached_property
    def residuals(self) -> dict:
        """Unitarity, the pentagon and the defining action, each a Frobenius
        norm or a bound on one, so an upper bound on the operator norm.  The
        pentagon is :func:`pentagon_residual` on ``HatAlgebra.split``, and
        ``pentagon_parts`` holds its three parts."""
        v, kac = self.matrix, self.kac
        res = {"unitary": frob(dagger(v) @ v - np.eye(kac.dim ** 2))}
        res["pentagon"], res["pentagon_parts"] = pentagon_residual(
            self._hat.split, kac.dim, res["unitary"]
        )
        act = _times_first_leg(v, kac.coord) - _coproduct_action(kac, kac.delta)
        res["defining_action"] = frob(act)
        return res

    @cached_property
    def _hat(self) -> HatAlgebra:
        return _hat_algebra(self.kac, self)


def pentagon_residual(split: tuple, n: int, unitary: float) -> tuple[float, dict]:
    """An upper bound on ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖_F from V ≈ V₀ = Σᵢ Aᵢ⊗Bᵢ, and its parts.

    ``split`` is (ε, (A, α, ‖E^A‖), (B, β, ‖E^B‖)): ε = ‖V − V₀‖_F and the legs
    of :func:`product_leg`, AᵢAⱼ = Σ α[i,j,p]·A_p + E^A_ij and BⱼB_k =
    Σ β[j,k,r]·B_r + E^B_jk, whatever tensors α and β they carry.
    m = 1 + ``unitary`` + ε bounds ‖V‖ and ‖V₀‖ when ``unitary`` is ‖V†V − 1‖_F.
    Up to the closure terms, V₀'s defect is then Σ A_p⊗X_{p,r}⊗B_r with
    X_{p,r} = Σ_{i,k} T[i,k,p,r]·BᵢA_k − A_r·B_p and T = Σⱼ α[i,j,p]·β[j,k,r].
    The bound (all norms Frobenius) is the sum of

    * ``factored``, that sum's exact norm ‖(G_A^{1/2}⊗G_B^{1/2})·X‖_F, with G
      each leg's Gram matrix, applied one leg at a time;
    * ``closure`` = m·(‖E^A‖·Σ‖Bᵢ‖² + ‖E^B‖·Σ‖Aᵢ‖²) + ‖E^A‖·‖E^B‖·(Σ‖Aᵢ‖²·Σ‖Bᵢ‖²)^{1/2};
    * ``reconstruction`` = 5√n·ε·m², √n·ε·m² for each of the five V's swapped for V₀.

    The cost depends on n alone: one n²×n² by n²×n² matmul (n⁶ multiply-adds)
    and n⁵ for the rest; no n³×n³ operator is formed and no zero pattern read.
    On one BLAS thread of a Xeon core it takes 2–3 ms at n = 12.
    """
    nn = n * n
    eps, (left, alpha, close_a), (right, beta, close_b) = split
    a, b = left.reshape(n, nn), right.reshape(n, nn)
    t = alpha.transpose(0, 2, 1).reshape(nn, n) @ beta.reshape(n, nn)  # [(i,p),(k,r)]
    t = t.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(nn, nn)  # [(p,r),(i,k)]
    x = t @ np.matmul(right[:, None], left[None]).reshape(nn, nn)
    x -= np.matmul(left[None], right[:, None]).reshape(nn, nn)  # A_r·B_p at (p, r)
    x = (_gram_root(a) @ x.reshape(n, -1)).reshape(n, n, nn)
    m = 1.0 + unitary + eps
    mass_a, mass_b = frob(a) ** 2, frob(b) ** 2
    parts = {
        "factored": frob(_gram_root(b) @ x),
        "closure": m * (close_a * mass_b + close_b * mass_a)
        + close_a * close_b * float(np.sqrt(mass_a * mass_b)),
        "reconstruction": 5.0 * float(np.sqrt(n)) * eps * m * m,
    }
    return sum(parts.values()), parts


def coproduct_residual(split: tuple, unitary: float, pentagon: float) -> float:
    """A bound on (Σₑ‖Dₑ‖²_F)^{1/2}, Dₑ = V†(1⊗onbₑ)V − Σ M[a,b,e]·onbₐ⊗onb_b.

    ``split`` is V's (ε, (onb, ·, ·), (B, M, ‖E‖_F)), V₀ = Σₐ onbₐ⊗Bₐ and m is as
    in :func:`pentagon_residual`.  Σₑ Dₑ⊗Bₑ = V₁₂†(V₀)₂₃V₁₂ − (V₀)₁₃(V₀)₂₃
    + Σ onbₐ⊗onb_b⊗E_ab, E_ab = BₐB_b − Σₑ M[a,b,e]·Bₑ, has a norm of at most
    m·``pentagon`` + √n·(``unitary``·m² + ε·(m² + 2m)) + ‖E‖_F and at least
    √σ·(Σₑ‖Dₑ‖²)^{1/2}, σ the least eigenvalue of the Bₐ's Gram matrix.
    """
    eps, _, (ops, _, close) = split
    n = len(ops)
    rows = ops.reshape(n, n * n)
    m = 1.0 + unitary + eps
    sigma = np.linalg.eigvalsh(np.conj(rows) @ rows.T)[0]
    defect = m * pentagon + np.sqrt(n) * (unitary * m * m + eps * (m * m + 2.0 * m)) + close
    return float(defect / np.sqrt(sigma))


def split_defect(w: np.ndarray, left, right) -> float:
    """‖W − Σᵢ leftᵢ⊗rightᵢ‖_F, from W regrouped by :func:`_slice_matrix`."""
    n = len(left)
    return frob(_slice_matrix(w, n) - left.reshape(n, -1).T @ right.reshape(n, -1))


def product_leg(ops: np.ndarray, tensor: np.ndarray) -> tuple:
    """(ops, tensor, ‖opsᵢ·opsⱼ − Σ tensor[i,j,p]·ops_p‖_F): a stack, a product
    tensor for it and its closure over all pairs, n⁵ multiply-adds."""
    n = len(ops)
    prods = np.matmul(ops[:, None], ops[None]).reshape(n * n, n * n)
    return ops, tensor, frob(prods - tensor.reshape(n * n, n) @ ops.reshape(n, n * n))


def _gram_root(rows: np.ndarray) -> np.ndarray:
    """G^{1/2} for G[p,q] = ⟨row_p, row_q⟩, the Gram matrix of the rows."""
    return la.herm_power(np.conj(rows) @ rows.T, 0.5)


def multiplicative_unitary(kac: KacAlgebra) -> MultiplicativeUnitary:
    """V from the coproduct, its defining properties verified on first read.

    Built once per ``kac`` instance (the cached ``KacAlgebra._v``) and shared
    by every later caller, so its matrix is read-only.
    """
    return kac._v


def _multiplicative_unitary(kac: KacAlgebra) -> MultiplicativeUnitary:
    """Construct V from the coproduct."""
    v = _times_first_leg(_coproduct_action(kac, kac.delta), kac.coord_inv)
    v.flags.writeable = False
    return MultiplicativeUnitary(matrix=v, kac=kac)


def _coproduct_action(kac: KacAlgebra, delta: np.ndarray) -> np.ndarray:
    """T with T(bᵢΩ⊗e_q) = Δ(bᵢ)(Ω⊗e_q), as an n²×n² matrix.

    Δ is the coproduct with coefficient tensor ``delta`` (``kac.delta`` or
    its opposite): V = T·(coord⁻¹⊗1) for ``kac.delta``, and FV̂†F·(coord⊗1)
    = T for the opposite coproduct, ``kac.delta.swapaxes(1, 2)``.
    """
    n = kac.dim
    # t4[i, a, b, q] = (Δ(bᵢ)(Ω ⊗ e_q))[(a, b)] = Σⱼₖ Δ[i,j,k]·coord[a,j]·L(b_k)[b,q]
    t4 = (kac.coord @ delta).reshape(n * n, n) @ kac.lmats.reshape(n, n * n)
    return t4.reshape((n,) * 4).transpose(1, 2, 0, 3).reshape(n * n, n * n)


def _times_first_leg(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m·(c⊗1) for an n²×n² matrix m, as one matmul over its first column leg.

    n⁵ multiply-adds where the Kronecker product takes n⁶: it skips only
    that product's zero terms.
    """
    n = len(c)
    legs = m.reshape(n * n, n, n).transpose(0, 2, 1)  # [(a,b), d, c′]
    return (legs @ c).transpose(0, 2, 1).reshape(n * n, n * n)


# ---------------------------------------------------------------------------
# The dual algebra in the pairing-dual basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HatAlgebra:
    """The dual algebra Â, spanned by the first-leg slices of V, on the same H.

    ``dual_basis`` holds the n elements ŷᵢ with V = Σᵢ ŷᵢ⊗L(bᵢ), the basis of
    Â dual to A's basis under the pairing, and ``onb`` their Löwdin
    orthonormalization R·ŷ, R = ``root`` = G_ŷ^(−1/2) (G_ŷ the Frobenius Gram
    matrix of the ŷᵢ), the basis every certificate runs on.  When G_ŷ is a
    scaled identity, as on every bundled fixture, ``onb`` is ŷᵢ/‖ŷᵢ‖.

    Over ŷ, Â's product is A's coproduct and its coproduct A's product.
    ``mult`` and ``coproduct`` are the two transported by R to ``onb``:
    onbₐ·onb_b = Σ mult[a,b,c]·onb_c and δ̂(onbₑ) = Σ coproduct[e,a,b]·onbₐ⊗onb_b.
    ``second_leg`` holds the Bₐ = Σᵢ R⁻¹[i,a]·L(bᵢ), so V = Σₐ onbₐ⊗Bₐ, and
    their product is ``coproduct`` read as Bₐ·B_b = Σₑ coproduct[e,a,b]·Bₑ.
    """

    kac: KacAlgebra
    v: MultiplicativeUnitary
    mm: ag.MMAlgebra
    onb: np.ndarray
    mult: np.ndarray
    dual_basis: np.ndarray
    root: np.ndarray
    second_leg: np.ndarray
    coproduct: np.ndarray

    @cached_property
    def commutant_cells(self) -> tuple:
        """Orthonormal bases of A′ and Â′, built once per Â, on the first read
        (by :func:`hat_unitaries`, their only reader)."""
        return ag.commutant(self.kac.as_mm()).onb(), ag.commutant(self.mm).onb()

    @cached_property
    def split(self) -> tuple:
        """V's split (:func:`pentagon_residual`): ε = ‖V − Σₐ onbₐ⊗Bₐ‖_F, and the
        legs with ``mult`` and with the Bₐ's M[a,b,e] = coproduct[e,a,b], on first read."""
        return (
            split_defect(self.v.matrix, self.onb, self.second_leg),
            product_leg(self.onb, self.mult),
            product_leg(self.second_leg, self.coproduct.transpose(1, 2, 0)),
        )

    @cached_property
    def residuals(self) -> dict:
        """Â has dimension n and is closed as a *-algebra (``product_closure`` is onb's
        closure in ``split``, over all pairs); ``slice_reconstruction`` is V's ε in
        ``split``; ``onb`` is orthonormal, ``basis_orthonormality`` the largest entry
        of B·B† − I, B the rows of ``onb``; and V lies in Â⊗A: the Frobenius distance
        of V from Â⊗A (:func:`~kacgalois.linalg.leg_distance`), which reads no
        commutant and proves that the n elements hold every slice of V."""
        n = self.kac.dim
        res = {"dimension": float(abs(len(self.onb) - n))}
        res["product_closure"] = self.split[1][2]
        res["adjoint_closure"] = self.mm.residual(dagger(self.onb))
        res["unit_membership"] = self.mm.residual(self.mm.unit)
        res["slice_reconstruction"] = self.split[0]
        rows = self.onb.reshape(n, n * n)
        res["basis_orthonormality"] = float(np.abs(rows @ dagger(rows) - np.eye(n)).max())
        res["v_in_hat_tensor_a"] = float(
            leg_distance(self.v.matrix, self.onb, self.kac.as_mm().onb(), "left")
        )
        return res

    @cached_property
    def coproduct_certificate(self) -> float:
        """:func:`coproduct_residual` of ``coproduct``, from ``split`` and V's cached residuals."""
        res = self.v.residuals
        return coproduct_residual(self.split, res["unitary"], res["pentagon"])

    @cached_property
    def _integrals(self) -> Integrals:
        return _integrals(self.kac, self)


def hat_algebra(kac: KacAlgebra, v: MultiplicativeUnitary) -> HatAlgebra:
    """Â from V's slices over its second leg; its residuals are computed on first read.

    Built once per ``v`` and shared by every later caller (its bases are
    read-only).

    Raises
    ------
    ValueError
        If ``v`` was not built from ``kac`` itself, or if the Gram matrix of
        A's basis operators or of the ŷᵢ has a condition number above
        ``GRAM_COND_MAX``.
    """
    if v.kac is not kac:
        raise ValueError("the multiplicative unitary was built from a different Kac algebra")
    return v._hat


def _slice_matrix(v: np.ndarray, n: int) -> np.ndarray:
    """V regrouped over its leg pairs (1,3) and (2,4): M[(a,c),(b,d)] = V[(a,b),(c,d)].

    V = Σᵢ ŷᵢ⊗L(bᵢ) reads M = Yᵀ·L, with Y and L the n×n² rows vec(ŷᵢ) and
    vec(L(bᵢ)).
    """
    return v.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _hat_algebra(kac: KacAlgebra, v: MultiplicativeUnitary) -> HatAlgebra:
    """Solve M = Yᵀ·L for the ŷᵢ against the Gram matrix L·L†, then orthonormalize.

    M·L† = Yᵀ·(L·L†), so Y = (L·L†)⁻ᵀ·conj(L)·Mᵀ: n⁵ multiply-adds, one n×n
    solve and three n×n Hermitian eigenproblems (the two condition numbers,
    then R = G_ŷ^(−1/2) and R⁻¹ by :func:`~kacgalois.linalg.herm_powers`).
    Â's product and coproduct are A's coproduct and product moved by R, six
    n⁴ matmuls, and the second leg R⁻ᵀ·L one more.
    """
    n = kac.dim
    lrows = kac.lmats.reshape(n, n * n)
    gram = lrows @ dagger(lrows)
    _check_condition(gram, "the Gram matrix of A's basis operators L(b_i)")
    y = np.linalg.solve(gram.T, np.conj(lrows) @ _slice_matrix(v.matrix, n).T)
    gram_y = y @ dagger(y)
    _check_condition(gram_y, "the Gram matrix of the dual basis of A-hat")
    root, root_inv = la.herm_powers(gram_y, (-0.5, 0.5))
    mm = ag.from_onb((root @ y).reshape(n, n, n), n)
    second = (root_inv.T @ lrows).reshape(n, n, n)
    # onbₐ·onb_b = Σ R[a,i]·R[b,j]·delta[k,i,j]·R⁻¹[k,c] onb_c, at [c, a, b].
    mult = _transport(kac.delta, root_inv.T, root.T).transpose(1, 2, 0)
    # M[a,b,e] = Σ R⁻¹[i,a]·R⁻¹[j,b]·mult[i,j,d]·R[e,d], at [e, a, b].
    delta = _transport(kac.mult.transpose(2, 0, 1), root, root_inv)
    y = y.reshape(n, n, n)
    for arr in (mult, y, root, second, delta):
        arr.flags.writeable = False
    return HatAlgebra(
        kac=kac, v=v, mm=mm, onb=mm.onb(), mult=mult, dual_basis=y, root=root,
        second_leg=second, coproduct=delta,
    )


def _transport(t: np.ndarray, out: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """Σ out[e,d]·t[d,i,j]·legs[i,a]·legs[j,b] at [e, a, b]: three n⁴ matmuls."""
    m = np.tensordot(np.tensordot(t, legs, (1, 0)), legs, (1, 0))  # [d, a, b]
    return np.tensordot(out, m, (1, 0))


def _check_condition(gram: np.ndarray, what: str) -> None:
    """Refuse a positive-definite Gram matrix whose condition number exceeds ``GRAM_COND_MAX``."""
    w = np.linalg.eigvalsh(gram)
    cond = w[-1] / w[0] if w[0] > 0 else np.inf
    if not cond <= GRAM_COND_MAX:
        raise ValueError(
            f"{what} has condition number {cond:.3e}, above the bound {GRAM_COND_MAX:.0e}"
        )


def kappa_hat(kac: KacAlgebra, y: np.ndarray) -> np.ndarray:
    """Dual antipode κ̂(y) = J y* J (linear in y; of each y of a stack)."""
    return kac.mj @ y.swapaxes(-1, -2) @ np.conj(kac.mj)


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Integrals:
    """The biinvariant idempotent integrals of A and Â.

    ``e_op`` is the integral of A (the projection with x·e = ε(x)·e) and
    ``e_coeffs`` its coefficients, ``e_hat`` the integral ê of Â (the rank-one
    projection onto ℂΩ), and ``omega_hat`` = √n·e·Ω the cyclic unit vector implementing the dual Haar
    state ĥ = Tr/n on Â; ``space_dim`` is the dimension of the integral space.
    """

    e_op: np.ndarray
    e_coeffs: np.ndarray
    e_hat: np.ndarray
    omega_hat: np.ndarray
    space_dim: int
    hat: HatAlgebra

    @cached_property
    def residuals(self) -> dict:
        """Both integrals' certificates, on first read; each one over A's or
        Â's basis is one stacked contraction and one maximum."""
        hat, e_op, e_hat, omega_hat = self.hat, self.e_op, self.e_hat, self.omega_hat
        kac, n, eps = hat.kac, hat.kac.dim, hat.kac.counit
        res: dict = {"integral_space_dim_defect": float(abs(self.space_dim - 1))}
        res["idempotent"] = frob(e_op @ e_op - e_op)
        res["self_adjoint"] = frob(e_op - dagger(e_op))
        res["haar_value"] = float(abs(kac.haar_of(e_op) - 1.0 / n))
        res["absorbing"] = la.frob_max(kac.lmats @ e_op - eps[:, None, None] * e_op)

        res["e_hat_membership"] = hat.mm.residual(e_hat)
        w = hat.onb @ kac.omega
        eps_y = w @ np.conj(kac.omega)  # ε̂(onbₐ) = ⟨Ω, onbₐΩ⟩
        res["hat_fixes_omega_line"] = float(
            np.linalg.norm(w - eps_y[:, None] * kac.omega, axis=1).max()
        )
        res["e_hat_absorbing"] = la.frob_max(e_hat @ hat.onb - eps_y[:, None, None] * e_hat)
        res["omega_hat_unit"] = float(abs(np.linalg.norm(omega_hat) - 1.0))
        res["omega_from_omega_hat"] = float(
            np.linalg.norm(np.sqrt(n) * (e_hat @ omega_hat) - kac.omega)
        )
        trace = np.trace(hat.onb, axis1=1, axis2=2) / n
        res["dual_haar_is_normalized_trace"] = float(
            np.abs(trace - (hat.onb @ omega_hat) @ np.conj(omega_hat)).max()
        )
        return res


def integrals(kac: KacAlgebra, hat: HatAlgebra) -> Integrals:
    """The integrals of A and Â with their certificates, built once per ``hat``.

    The integral of A is solved from the absorption equations; every later
    caller with the same ``hat`` gets the same :class:`Integrals`.

    Raises
    ------
    ValueError
        If ``hat`` was not built from ``kac`` itself.
    """
    if hat.kac is not kac:
        raise ValueError("the dual algebra was built from a different Kac algebra")
    return hat._integrals


def _integrals(kac: KacAlgebra, hat: HatAlgebra) -> Integrals:
    """Solve for the integral of A; its certificates run on first read.

    The absorption equations bᵢ·e = ε(bᵢ)e and e·bᵢ = ε(bᵢ)e of all n basis
    elements are one stacked system.
    """
    n = kac.dim
    eps = kac.counit
    shift = eps[:, None, None] * np.eye(n)
    left = kac.mult.transpose(0, 2, 1) - shift  # left[i]·c: bᵢ·e − ε(bᵢ)e
    right = kac.mult.transpose(1, 2, 0) - shift  # right[i]·c: e·bᵢ − ε(bᵢ)e
    ns = la.null_space(np.stack([left, right], axis=1).reshape(2 * n * n, n))
    if ns.shape[1] < 1:
        raise ValueError("no nonzero integral in the algebra")
    e_coeffs = ns[:, 0] / (eps @ ns[:, 0])
    e_op = kac.op(e_coeffs)
    e_hat = np.outer(kac.omega, np.conj(kac.omega))
    omega_hat = np.sqrt(n) * (e_op @ kac.omega)
    return Integrals(
        e_op=e_op, e_coeffs=e_coeffs, e_hat=e_hat, omega_hat=omega_hat,
        space_dim=ns.shape[1], hat=hat,
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
    unitaries, by :func:`pentagon_residual` on V̂ = Σ Bₐ⊗U·onbₐ·U and
    Ṽ = Σ U·Bₐ·U⊗onbₐ, which V = Σ onbₐ⊗Bₐ gives, on the tensors of
    ``hat.split``; V̂ ∈ A⊗Â′ and Ṽ ∈ A′⊗Â (the Frobenius distance from each
    tensor product, :func:`~kacgalois.linalg.leg_distance`, with the commutant
    bases of ``hat.commutant_cells``); V̂†(ξ⊗xΩ) = δ(x)(ξ⊗Ω); and
    Ṽ(y⊗1)Ṽ† = δ̂(y) on Â's basis (:func:`v_tilde_coproduct_residual`).

    Under the flip F, V̂†(ξ⊗xΩ) = δ(x)(ξ⊗Ω) reads FV̂†F(xΩ⊗ξ) = δ^op(x)(Ω⊗ξ),
    V's defining action for the opposite coproduct, so its residual is the
    largest column norm of FV̂†F·(coord⊗1) − T^op (:func:`_coproduct_action`):
    the largest ‖V̂†(e_q⊗bᵢΩ) − δ(bᵢ)(e_q⊗Ω)‖ over the basis.
    """
    n = kac.dim
    u = kac.coord @ kac.antipode.T @ kac.coord_inv
    eye = np.eye(n, dtype=complex)
    # FVF swaps both leg pairs of V; V̂ = (1⊗U)(FVF)(1⊗U) and Ṽ = (U⊗1)(FVF)(U⊗1).
    vf = v.matrix.reshape((n,) * 4).transpose(1, 0, 3, 2).reshape(n, n, -1)
    v_hat = (np.matmul(u, vf).reshape(-1, n) @ u).reshape(n * n, n * n)
    v_tilde = np.matmul(u.T, (u @ vf.reshape(n, -1)).reshape(n * n, n, n)).reshape(n * n, n * n)

    res = {}
    res["u_unitary"] = frob(dagger(u) @ u - eye)
    res["u_involutive"] = frob(u @ u - eye)
    res["v_hat_unitary"] = frob(dagger(v_hat) @ v_hat - np.eye(n * n))
    res["v_tilde_unitary"] = frob(dagger(v_tilde) @ v_tilde - np.eye(n * n))
    _, first, second = hat.split
    right = product_leg(u @ hat.onb @ u, hat.mult)
    left = product_leg(u @ hat.second_leg @ u, second[1])
    hat_split = (split_defect(v_hat, second[0], right[0]), second, right)
    tilde_split = (split_defect(v_tilde, left[0], first[0]), left, first)
    res["v_hat_pentagon"], res["v_hat_pentagon_parts"] = pentagon_residual(
        hat_split, n, res["v_hat_unitary"]
    )
    res["v_tilde_pentagon"], res["v_tilde_pentagon_parts"] = pentagon_residual(
        tilde_split, n, res["v_tilde_unitary"]
    )

    a_comm, hat_comm = hat.commutant_cells
    a_onb = kac.as_mm().onb()
    res["v_hat_in_a_tensor_hatcomm"] = float(leg_distance(v_hat, a_onb, hat_comm, "left"))
    res["v_tilde_in_acomm_tensor_hat"] = float(leg_distance(v_tilde, a_comm, hat.onb, "left"))

    flipped = dagger(v_hat).reshape((n,) * 4).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    act = _times_first_leg(flipped, kac.coord) - _coproduct_action(kac, kac.delta.swapaxes(1, 2))
    res["v_hat_defining_action"] = float(np.linalg.norm(act, axis=0).max())

    res["v_tilde_implements_dual_coproduct"] = v_tilde_coproduct_residual(
        tilde_split, hat.coproduct, res["v_tilde_unitary"], hat.coproduct_certificate
    )
    return HatUnitaries(u=u, v_hat=v_hat, v_tilde=v_tilde, residuals=res)


def v_tilde_coproduct_residual(split: tuple, delta: np.ndarray, unitary, coproduct) -> float:
    """A bound on the largest ‖W(y⊗1)W† − V†(1⊗y)V‖_F over y = onb_c.

    ``split`` is Ṽ's (ε, (P, ·, ·), (onb, μ, ‖E‖)) (:func:`pentagon_residual`):
    W = Ṽ ≈ W₀ = Σₑ Pₑ⊗onbₑ, ε = ‖W − W₀‖_F and onb_k·onbₐ = Σ μ[k,a,e]·onbₑ + E_ka.
    With Δ = Σ delta[c,l,k]·onb_l⊗onb_k, W₀(y⊗1) − Δ·W₀ = Σₑ Zₑ⊗onbₑ −
    Σ delta[c,l,k]·onb_l·Pₐ⊗E_ka, Zₑ = Pₑ·y − Σ delta[c,l,k]·μ[k,a,e]·onb_l·Pₐ,
    so, with W† and WW† − 1,
    (1 + ``unitary``)·((Σₑ‖Zₑ‖²)^{1/2} + ‖delta[c]‖·‖P‖·‖E‖ + ε·(1 + ‖delta[c]‖))
    + ‖delta[c]‖·``unitary`` + ``coproduct`` bounds it; one n⁶ matmul in all.
    """
    eps, (turned, _, _), (onb, mu, close) = split
    n = len(onb)
    t = (delta.reshape(n * n, n) @ mu.reshape(n, n * n)).reshape(n, n, n, n)  # [c, l, a, e]
    pairs = (onb[:, None] @ turned[None]).reshape(n * n, -1)  # onb_l·Pₐ at (l, a)
    z = (turned[None] @ onb[:, None]).reshape(n * n, -1)  # Pₑ·onb_c at (c, e)
    z -= t.transpose(0, 3, 1, 2).reshape(n * n, n * n) @ pairs
    size = np.linalg.norm(delta.reshape(n, -1), axis=1)
    bound = np.linalg.norm(z.reshape(n, -1), axis=1) + size * frob(turned) * close
    bound += eps * (1.0 + size)
    return float(((1.0 + unitary) * bound + size * unitary).max()) + coproduct


# ---------------------------------------------------------------------------
# The duality pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingForm:
    """The bilinear pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂) between A and Â.

    ``matrix`` holds the pairing of A's basis against Â's basis ŷ,
    P[i, α] = ⟨bᵢ, ŷ_α⟩, which is I when ŷ is the dual basis.  ``residuals``
    certify that (``dual_basis_pairs_to_identity`` = ‖P − I‖_F; below 1 it
    proves P invertible, so the pairing nondegenerate), the counit rows, and
    the two multiplicativity laws (products on one side pair with coproducts
    on the other, over ŷ), on first read.
    """

    matrix: np.ndarray
    ints: Integrals

    @cached_property
    def residuals(self) -> dict:
        hat, p_mat, om_bar = self.ints.hat, self.matrix, np.conj(self.ints.omega_hat)
        kac, ystack, sq = hat.kac, hat.dual_basis, np.sqrt(hat.kac.dim)
        w = om_bar @ ystack  # w[α] = ŷ_αᵀ Ω̂̄
        res = {"dual_basis_pairs_to_identity": frob(p_mat - np.eye(kac.dim))}

        unit_row = sq * (w @ kac.omega) - (ystack @ kac.omega) @ np.conj(kac.omega)
        res["unit_pairs_to_dual_counit"] = float(np.abs(unit_row).max())
        eye_col = sq * (om_bar @ kac.coord)
        res["dual_unit_pairs_to_counit"] = float(np.abs(eye_col - kac.counit).max())

        # Law 1: ⟨x·x', y⟩ = ⟨x⊗x', δ̂(y)⟩, both sides at [c, i, j]; δ̂ over ŷ is A's product.
        lhs1 = sq * (w @ kac.lmats @ kac.coord).swapaxes(0, 1)  # (bᵢbⱼ)Ω paired with ŷ_c
        rhs1 = p_mat @ kac.mult.transpose(2, 0, 1) @ p_mat.T
        res["pairing_product_vs_dual_coproduct"] = float(np.abs(lhs1 - rhs1).max())

        # Law 2: ⟨x, y·y'⟩ = ⟨δ(x), y⊗y'⟩, both sides at [k, a, b].
        lhs2 = sq * (w @ ystack @ kac.coord).transpose(2, 1, 0)  # (ŷ_a ŷ_b)ᵀ Ω̂̄ paired with b_k
        rhs2 = p_mat.T @ kac.delta @ p_mat
        res["pairing_coproduct_vs_dual_product"] = float(np.abs(lhs2 - rhs2).max())
        return res


def pairing(kac: KacAlgebra, hat: HatAlgebra, ints: Integrals) -> PairingForm:
    """The pairing's matrix against ŷ, ⟨x, y⟩ = √n Σ_p (xΩ)_p (yᵀ Ω̂̄)_p, bilinear by
    construction; its structural laws are verified on first read."""
    w = np.conj(ints.omega_hat) @ hat.dual_basis  # w[α] = ŷ_αᵀ Ω̂̄
    return PairingForm(matrix=np.sqrt(kac.dim) * (w @ kac.coord).T, ints=ints)


# ---------------------------------------------------------------------------
# The dual Kac algebra over ŷ
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualKac:
    """The dual as an abstract Kac algebra over ŷ, read off A's tensors.

    ``kac`` is the dual as a fresh :class:`KacAlgebra` (its own Haar GNS
    materialization), whose basis element i is ``hat.dual_basis[i]``, the ŷᵢ
    of Â on the original H.
    """

    kac: KacAlgebra
    hat: HatAlgebra
    v: MultiplicativeUnitary
    ints: Integrals
    pairing_form: PairingForm

    @cached_property
    def residuals(self) -> dict:
        """That ŷ realizes each of ``kac``'s tensors on H.  ``product_membership``
        is the closure of ``onb`` in ``hat.split`` (``hat.mult`` is ``kac.mult``
        moved by R) and ``coproduct_membership`` Â's coproduct certificate; the
        counit ‖ŷᵢΩ − ε̂ᵢΩ‖, antipode ‖κ̂(ŷᵢ) − Σⱼ Ŝ[i,j]·ŷⱼ‖_F, star
        ‖ŷᵢ† − Σⱼ ✶[i,j]·ŷⱼ‖_F and Haar state |Tr(ŷᵢ)/n − ĥᵢ| are each the
        largest over i."""
        hat, dual, y = self.hat, self.kac, self.hat.dual_basis
        omega = hat.kac.omega
        res = {"product_membership": hat.split[1][2]}
        res["coproduct_membership"] = hat.coproduct_certificate
        counit = y @ omega - dual.counit[:, None] * omega
        res["counit_action"] = float(np.linalg.norm(counit, axis=1).max())
        antipode = kappa_hat(hat.kac, y) - np.tensordot(dual.antipode, y, 1)
        res["antipode_realization"] = la.frob_max(antipode)
        res["star_realization"] = la.frob_max(dagger(y) - np.tensordot(dual.star, y, 1))
        trace = np.trace(y, axis1=1, axis2=2) / hat.kac.dim
        res["haar_realization"] = float(np.abs(trace - dual.haar).max())
        return res

    @cached_property
    def axiom_report(self) -> dict:
        """:func:`~kacgalois.kac.validate_kac` of the dual, on first read."""
        return validate_kac(self.kac)


def dual_kac(kac: KacAlgebra) -> DualKac:
    """The dual Kac algebra over ŷ, its tensors A's transposed.

    ⟨bᵢ, ŷⱼ⟩ = δᵢⱼ, so every structure map of Â over ŷ is the transpose of
    one of A's: the product ŷᵢ·ŷⱼ = Σ delta[k,i,j]·ŷ_k, the coproduct
    δ̂(ŷ_k) = Σ mult[i,j,k]·ŷᵢ⊗ŷⱼ, the counit ε̂(ŷᵢ) = ⟨1, ŷᵢ⟩ (A's unit),
    the antipode Sᵀ, the star (S·conj(*))ᵀ and the Haar state ĥ(ŷᵢ) = ⟨e, ŷᵢ⟩
    (the coefficients of A's integral e).  The tensors are materialized through
    their own GNS construction.  No coefficient is read off Â and no
    certificate runs here: the dual's, the integrals' and the pairing's
    ``residuals`` and the ``axiom_report`` run on their first read.
    """
    v = multiplicative_unitary(kac)
    hat = hat_algebra(kac, v)
    ints = integrals(kac, hat)
    labels = [f"dual_{i}" for i in range(kac.dim)]
    star = (kac.antipode @ np.conj(kac.star)).T
    dual = kac_from_structure(
        labels, kac.delta.transpose(1, 2, 0), kac.mult.transpose(2, 0, 1), kac.unit_coeffs,
        kac.antipode.T, star, ints.e_coeffs, origin="dual",
    )
    return DualKac(kac=dual, hat=hat, v=v, ints=ints, pairing_form=pairing(kac, hat, ints))


def bidual_check(dd: DualKac) -> dict:
    """Residuals for the canonical isomorphism A ≅ (Â)̂, A being ``dd.v.kac``.

    The bidual's tensors are A's by construction (A's transposed twice), so a
    comparison of tensors would compare one route with itself.  The
    isomorphism is certified instead on the dual's GNS space, through the
    bidual's own operators: its V is unitary, pentagonal and acts as the
    dual's coproduct (``v_*``), its basis realizes every tensor there
    (:attr:`DualKac.residuals`), and the pairing of the dual's basis with it
    is the identity (``pairing_identity``).  Returns those residuals and their
    maximum.
    """
    d2 = dual_kac(dd.kac)
    res = {f"v_{key}": d2.v.residuals[key] for key in ("unitary", "pentagon", "defining_action")}
    res.update(d2.residuals)
    res["pairing_identity"] = d2.pairing_form.residuals["dual_basis_pairs_to_identity"]
    res["max_residual"] = max(res.values())
    return res


def group_dual_check(dd: DualKac) -> dict:
    """For a group algebra ℂ[G] = ``dd.v.kac``: the dual is commutative and is C(G).

    The point indicator of g is ŷ_g, the element of Â that pairs to δ_{g,·}
    against the group basis, and every C(G) structure relation is then checked
    concretely.  The coproduct is compared in coefficients over Â's
    orthonormal basis, plus Â's ``coproduct_certificate`` times the largest
    coefficient norm, which bounds the Frobenius defect of the sandwich V†(1⊗y)V.
    """
    kac, hat = dd.v.kac, dd.hat
    if kac.origin != "group_algebra" or kac.group is None:
        raise ValueError("group_dual_check requires a group_algebra-origin Kac algebra")
    g = kac.group
    n = kac.dim

    res = {}
    prods = hat.onb[:, None] @ hat.onb[None]
    res["dual_commutative"] = la.frob_max(prods - prods.swapaxes(0, 1))

    wg = hat.dual_basis
    coeffs = hat.mm.coeffs(wg)

    eye = np.eye(n)
    # wg[x]·wg[y] − δ_xy·wg[x], for every pair (x, y) at once.
    idem = wg[:, None] @ wg[None] - eye[:, :, None, None] * wg[:, None]
    res["point_indicators_orthogonal_idempotent"] = la.frob_max(idem)
    res["point_indicators_sum_to_one"] = frob(wg.sum(0) - eye)
    res["point_indicators_self_adjoint"] = la.frob_max(dagger(wg) - wg)

    # δ̂(wg[x]) has the coefficients c[x]·Δ̂ and Σ_{st=x} wg[s]⊗wg[t] has Σ hit[x,s,t]·c[s]⊗c[t].
    hit = (g.table[None] == np.arange(n)[:, None, None]).astype(float)  # hit[x, s, t]
    conv = np.tensordot(coeffs, hat.coproduct, axes=(1, 0)) - coeffs.T @ hit @ coeffs
    reach = float(np.linalg.norm(coeffs, axis=1).max())
    res["coproduct_is_group_convolution"] = la.frob_max(conv) + hat.coproduct_certificate * reach

    res["antipode_is_inversion"] = la.frob_max(kappa_hat(kac, wg) - wg[g.inverse])
    res["haar_is_uniform"] = float(np.abs(np.trace(wg, axis1=1, axis2=2) / n - 1.0 / n).max())
    counit = (wg @ kac.omega) @ np.conj(kac.omega)
    res["counit_is_evaluation_at_identity"] = float(np.abs(counit - eye[0]).max())
    res["max_residual"] = max(res.values())
    return res


def heisenberg_identities(dd: DualKac, coreps: list) -> dict:
    """Commutation cells between the algebra A = ``dd.v.kac`` and its dual through ê.

    For every irreducible corepresentation π in ``coreps`` (from
    ``irreducible_coreps(A, dd.v, dd.hat)``) with matrix units e(π) in Â and
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

    ê = ΩΩ† (:func:`integrals`), so 1⊗ê = (1⊗Ω)(1⊗Ω)† and the contracted
    sum is F_i†·F_j for the (d·n)×n² stacks F_j = [(1⊗Ω†)·δ(u(π)ₖⱼ)]ₖ, built
    from the coordinates of δ without its n²×n² operators.  Each cell's
    residual is an n²×n² operator, so the cells are taken one at a time.
    """
    kac = dd.v.kac
    n = kac.dim
    e_hat = dd.ints.e_hat
    eye = np.eye(n, dtype=complex)
    # r[q] = Ω†·L(b_q), so (1⊗Ω†)(L(b_p)⊗L(b_q)) = L(b_p)⊗r[q].
    r = np.conj(kac.omega) @ kac.lmats
    res = {"compressed_product": 0.0, "coproduct_contracted": 0.0}
    cells = []
    for corep in coreps:
        d = corep.dim
        cells.append(d * d)
        ent = corep.entries
        rhs = kappa_hat(kac, corep.units.swapaxes(0, 1))  # rhs[i, j] = κ̂(e(π)ⱼᵢ)
        comp = np.einsum("kiab,kjbc->ijac", dagger(ent) @ e_hat, ent)
        res["compressed_product"] = max(
            res["compressed_product"], la.frob_max(d * comp - rhs)
        )
        # δ(u) = Σ_pq w_pq L(b_p)⊗L(b_q) with w = Σ_a c(u)_a Δ_a, as in KacAlgebra.coproduct_coeffs.
        w = np.tensordot(kac.coeffs_of(ent), kac.delta, axes=(-1, 0))
        f = np.tensordot(w @ r, kac.lmats, axes=(2, 0)).transpose(1, 0, 3, 4, 2)
        f = f.reshape(d, d * n, n * n)
        res["coproduct_contracted"] = max(
            res["coproduct_contracted"],
            *(
                frob(d * dagger(f[i]) @ f[j] - np.kron(eye, rhs[i, j]))
                for i, j in np.ndindex(d, d)
            ),
        )
    res["v_expansion"] = coreps[0].residuals["v_expansion"] if coreps else 0.0
    res["cells_per_block"] = cells
    return res
