"""Duality for finite-dimensional Kac algebras on the Haar GNS space.

From a Kac algebra A materialized on H = L²(A) this module builds:

* the multiplicative unitary V on H⊗H with V(xΩ⊗ξ) = δ(x)(Ω⊗ξ),
* the dual algebra Â in the basis dual to A's under the pairing: the n
  elements ŷᵢ with V = Σᵢ ŷᵢ⊗L(bᵢ), from one n×n solve, Löwdin-orthonormalized,
* the integrals of both algebras (the biinvariant idempotent e ∈ A and the
  rank-one projection ê onto ℂΩ, which generates the dual Haar state), built
  once per Â,
* the antipode unitary U and the auxiliary multiplicative unitaries V̂ and Ṽ
  with their tensor-product memberships,
* the bilinear duality pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂) together with its
  multiplicativity laws,
* a full reconstruction of Â as an abstract Kac algebra (structure tensors
  extracted over a deterministic orthonormal basis, then re-validated), and
* the canonical identification of the double dual with the original algebra,
  transported through the pairing.

Everything returns residual dictionaries; nothing is assumed that is not
checked.  V is built once per :class:`KacAlgebra` instance, Â once per V
built from that same instance and the integrals once per Â; later callers
(the dual, the corepresentations, the auxiliary unitaries) get the same
objects, whose arrays are read-only.  The certificates that are
computations of their own (V's and Â's residuals, the dual's axiom report)
run on first read, once; the residuals that fall out of a construction come
with it.  The pentagons of V, V̂ and Ṽ are one factored certificate
(:func:`pentagon_residual`): each unitary is read as a sum of n Kronecker
products, and the bound on its Frobenius defect costs one n⁶ matmul whatever
V's density (23–25 ms on the n = 18 twist, where the exact n⁸ sum took
2.6–3.0 s).  The dual coproduct δ̂(y) = V†(1⊗y)V is an exact sum, computed on
V's exact nonzero pattern when the work counted on that pattern is the
smaller.  The tensor
memberships V ∈ Â⊗A, V̂ ∈ A⊗Â′ and Ṽ ∈ A′⊗Â are exact Frobenius distances,
one leg regrouping and two matmuls each
(:func:`~kacgalois.linalg.leg_distance`).  Unitarity and the defining
actions are Frobenius norms, upper bounds on the operator norm.  The
construction of Â runs no SVD, and the only one left on this path is the
n×n SVD of the pairing's nondegeneracy.  Every other contraction on the
path from V to the validated dual is a fixed reshape and matmul.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as ag
from . import linalg as la
from .kac import KacAlgebra, kac_from_structure, validate_kac
from .linalg import DEFAULT_TOL, GRAM_COND_MAX, dagger, frob, leg_distance


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
        pentagon is :func:`pentagon_residual` on V = Σᵢ ŷᵢ⊗L(bᵢ), ŷ being Â's
        ``dual_basis``, and ``pentagon_parts`` holds its three parts."""
        v, kac = self.matrix, self.kac
        res = {"unitary": frob(dagger(v) @ v - np.eye(kac.dim ** 2))}
        res["pentagon"], res["pentagon_parts"] = pentagon_residual(
            v, kac.dim, self._hat.dual_basis, kac.lmats, res["unitary"]
        )
        act = _times_first_leg(v, kac.coord) - _coproduct_action(kac, kac.delta)
        res["defining_action"] = frob(act)
        return res

    @cached_property
    def _hat(self) -> HatAlgebra:
        return _hat_algebra(self.kac, self)

    @cached_property
    def _delta_hat_index(self) -> tuple | None:
        return _sandwich_index(self.matrix, self.kac.dim)


# One term of the sparse dual coproduct (its gather, its product, its share of
# two bincounts) costs about as much as 50 multiply-adds of the dense
# W†((1⊗y)W), which takes n⁶ of them: about 15 ns against 0.25–0.3 ns on a
# Xeon core, BLAS on one thread.  The two meet at about 8 000 terms at n = 8,
# 55 000 at n = 12 and 250 000 at n = 16.
_DELTA_TERM_COST = 50


def pentagon_residual(
    v: np.ndarray, n: int, left: np.ndarray, right: np.ndarray, unitary: float
) -> tuple[float, dict]:
    """An upper bound on ‖V₁₂V₁₃V₂₃ − V₂₃V₁₂‖_F from V ≈ V₀ = Σᵢ Aᵢ⊗Bᵢ, and its parts.

    Aᵢ and Bᵢ are the stacks ``left`` and ``right``; ε = ‖V − V₀‖_F, and
    m = 1 + ``unitary`` + ε bounds ‖V‖ and ‖V₀‖ when ``unitary`` is ‖V†V − 1‖_F.
    Each leg's products are fitted in its span (:func:`_product_fit`):
    AᵢAⱼ = Σ α[i,j,p]·A_p + E^A_ij and BⱼB_k = Σ β[j,k,r]·B_r + E^B_jk.  Up to
    the closure terms, V₀'s defect is then Σ A_p⊗X_{p,r}⊗B_r with
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
    a, b = left.reshape(n, nn), right.reshape(n, nn)
    alpha, close_a = _product_fit(left)
    beta, close_b = _product_fit(right)
    t = alpha.transpose(0, 2, 1).reshape(nn, n) @ beta.reshape(n, nn)  # [(i,p),(k,r)]
    t = t.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(nn, nn)  # [(p,r),(i,k)]
    x = t @ np.matmul(right[:, None], left[None]).reshape(nn, nn)
    x -= np.matmul(left[None], right[:, None]).reshape(nn, nn)  # A_r·B_p at (p, r)
    x = (_gram_root(a) @ x.reshape(n, -1)).reshape(n, n, nn)
    eps = frob(_slice_matrix(v, n) - a.T @ b)
    m = 1.0 + unitary + eps
    mass_a, mass_b = frob(a) ** 2, frob(b) ** 2
    parts = {
        "factored": frob(_gram_root(b) @ x),
        "closure": m * (close_a * mass_b + close_b * mass_a)
        + close_a * close_b * float(np.sqrt(mass_a * mass_b)),
        "reconstruction": 5.0 * float(np.sqrt(n)) * eps * m * m,
    }
    return sum(parts.values()), parts


def _product_fit(ops: np.ndarray) -> tuple[np.ndarray, float]:
    """α with opsᵢ·opsⱼ ≈ Σ α[i,j,p]·ops_p, the least-squares fit by one Gram
    solve (n⁵ multiply-adds), and the Frobenius norm of what it leaves."""
    n = len(ops)
    rows = ops.reshape(n, n * n)
    adj = dagger(rows)
    prods = np.matmul(ops[:, None], ops[None]).reshape(n * n, n * n)
    alpha = np.linalg.solve((rows @ adj).T, (prods @ adj).T).T
    prods -= alpha @ rows
    return alpha.reshape(n, n, n), frob(prods)


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
    orthonormalization G_ŷ^(−1/2)·ŷ (G_ŷ the Frobenius Gram matrix of the ŷᵢ),
    the deterministic basis used for all coefficient extractions.  When G_ŷ
    is a scaled identity, as on every bundled fixture, ``onb`` is ŷᵢ/‖ŷᵢ‖ in
    A's own index order.
    """

    kac: KacAlgebra
    v: MultiplicativeUnitary
    mm: ag.MMAlgebra
    onb: np.ndarray
    dual_basis: np.ndarray

    @cached_property
    def commutant_cells(self) -> tuple:
        """Orthonormal bases of A′ and Â′, built once per Â, on the first read
        (by :func:`hat_unitaries`, their only reader)."""
        return ag.commutant(self.kac.as_mm()).onb(), ag.commutant(self.mm).onb()

    @cached_property
    def residuals(self) -> dict:
        """Â has dimension n and is closed as a *-algebra; the ŷᵢ reconstruct
        V's slices, ``slice_reconstruction`` = ‖M − Yᵀ·L‖_F
        (:func:`_slice_matrix`); ``onb`` is orthonormal,
        ``basis_orthonormality`` the largest entry of B·B† − I, B the rows of
        ``onb``; and V lies in Â⊗A: the Frobenius distance of V from Â⊗A
        (:func:`~kacgalois.linalg.leg_distance`), which reads no commutant and
        proves that the n elements hold every slice of V."""
        n = self.kac.dim
        res = {"dimension": float(abs(len(self.onb) - n))}
        val = self.mm.validate()
        for key in ("product_closure", "adjoint_closure", "unit_membership"):
            res[key] = val[key]
        lrows = self.kac.lmats.reshape(n, n * n)
        res["slice_reconstruction"] = frob(
            _slice_matrix(self.v.matrix, n) - self.dual_basis.reshape(n, n * n).T @ lrows
        )
        rows = self.onb.reshape(n, n * n)
        res["basis_orthonormality"] = float(np.abs(rows @ dagger(rows) - np.eye(n)).max())
        res["v_in_hat_tensor_a"] = float(
            leg_distance(self.v.matrix, self.onb, self.kac.as_mm().onb(), "left")
        )
        return res

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
    then G_ŷ^(−1/2) by :func:`~kacgalois.linalg.herm_power`).
    """
    n = kac.dim
    lrows = kac.lmats.reshape(n, n * n)
    gram = lrows @ dagger(lrows)
    _check_condition(gram, "the Gram matrix of A's basis operators L(b_i)")
    y = np.linalg.solve(gram.T, np.conj(lrows) @ _slice_matrix(v.matrix, n).T)
    gram_y = y @ dagger(y)
    _check_condition(gram_y, "the Gram matrix of the dual basis of A-hat")
    mm = ag.from_onb((la.herm_power(gram_y, -0.5) @ y).reshape(n, n, n), n)
    y = y.reshape(n, n, n)
    y.flags.writeable = False
    return HatAlgebra(kac=kac, v=v, mm=mm, onb=mm.onb(), dual_basis=y)


def _check_condition(gram: np.ndarray, what: str) -> None:
    """Refuse a positive-definite Gram matrix whose condition number exceeds ``GRAM_COND_MAX``."""
    w = np.linalg.eigvalsh(gram)
    cond = w[-1] / w[0] if w[0] > 0 else np.inf
    if not cond <= GRAM_COND_MAX:
        raise ValueError(
            f"{what} has condition number {cond:.3e}, above the bound {GRAM_COND_MAX:.0e}"
        )


def delta_hat(v: MultiplicativeUnitary, y: np.ndarray) -> np.ndarray:
    """Dual coproduct δ̂(y) = V†(1⊗y)V on H⊗H, as an n²×n² matrix.

    Summed over the pairs of V's exact nonzeros that share a first row leg,
    from an index built once per ``v``, when their count times
    ``_DELTA_TERM_COST`` is below the dense path's n⁶ multiply-adds; the
    dense path forms no Kronecker operator (:func:`_sandwich`).
    """
    return _sandwich(v.matrix, v._delta_hat_index, y)


def _sandwich_index(w: np.ndarray, n: int) -> tuple | None:
    """The terms of W†(1⊗y)W over W's exact nonzeros, or None when dense is cheaper.

    Two nonzeros W[(p,q),i] and W[(p,t),j] with the same first row leg p give
    the term conj(W[(p,q),i])·y[q,t]·W[(p,t),j] at (i, j), so with N_p the
    nonzeros in the rows (p, ·) there are Σ_p N_p² terms, counted before any
    is formed.  They are kept when ``_DELTA_TERM_COST`` times that count is
    below the dense path's n⁶ multiply-adds.  Returns the distinct positions,
    each term's position among them, its entry (q, t) of y and its
    coefficient conj(W[(p,q),i])·W[(p,t),j].
    """
    rows, cols = np.nonzero(w)  # row-major, so each row block p is one run
    p = rows // n
    counts = np.bincount(p, minlength=n)
    if _DELTA_TERM_COST * int(counts @ counts) >= n ** 6:
        return None
    # Nonzero a is paired with each of the counts[p] nonzeros b of its block.
    first = np.cumsum(counts) - counts
    per = counts[p]
    a = np.repeat(np.arange(len(rows)), per)
    b = np.arange(len(a)) + np.repeat(first[p] - (np.cumsum(per) - per), per)
    uniq, pos = np.unique(cols[a] * n * n + cols[b], return_inverse=True)
    vals = w[rows, cols]
    return uniq, pos, rows[a] % n * n + rows[b] % n, np.conj(vals[a]) * vals[b]


def _sandwich(w: np.ndarray, index: tuple | None, y: np.ndarray) -> np.ndarray:
    """W†(1⊗y)W as an n²×n² matrix (one per y of a stack), from :func:`_sandwich_index`.

    The sparse path merges the index's terms, scaled by y, with two
    bincounts, each y of a stack at its own offset; the dense one forms
    (1⊗y)W as one matmul over W's first row leg (n⁵ multiply-adds) and then
    W†·((1⊗y)W) (n⁶).
    """
    n, lead = y.shape[-1], y.shape[:-2]
    if index is None:
        return dagger(w) @ (y[..., None, :, :] @ w.reshape(n, n, -1)).reshape(*lead, n * n, -1)
    uniq, pos, yidx, coef = index
    k = int(np.prod(lead))
    at = (pos + len(uniq) * np.arange(k)[:, None]).reshape(-1)
    re, im = _merge(at, (coef * y.reshape(k, -1)[:, yidx]).reshape(-1), k * len(uniq))
    out = np.zeros((k, n ** 4), dtype=complex)
    out.real[:, uniq] = re.reshape(k, -1)
    out.imag[:, uniq] = im.reshape(k, -1)
    return out.reshape(*lead, n * n, n * n)


def _merge(pos: np.ndarray, vals: np.ndarray, size: int) -> tuple:
    """Real and imaginary sums of the complex ``vals`` at equal ``pos`` (< ``size``)."""
    return (
        np.bincount(pos, vals.real, minlength=size),
        np.bincount(pos, vals.imag, minlength=size),
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

    ``e_op`` is the integral of A (the projection with x·e = ε(x)·e),
    ``e_hat`` the integral ê of Â (the rank-one projection onto ℂΩ), and
    ``omega_hat`` = √n·e·Ω the cyclic unit vector implementing the dual Haar
    state ĥ = Tr/n on Â.
    """

    e_op: np.ndarray
    e_hat: np.ndarray
    omega_hat: np.ndarray
    residuals: dict


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
    """Solve for the integral of A and certify both integrals.

    The absorption equations bᵢ·e = ε(bᵢ)e and e·bᵢ = ε(bᵢ)e of all n basis
    elements are one stacked system, and each certificate over A's or Â's
    basis is one stacked contraction and one maximum.
    """
    n = kac.dim
    eps = kac.counit
    shift = eps[:, None, None] * np.eye(n)
    left = kac.mult.transpose(0, 2, 1) - shift  # left[i]·c: bᵢ·e − ε(bᵢ)e
    right = kac.mult.transpose(1, 2, 0) - shift  # right[i]·c: e·bᵢ − ε(bᵢ)e
    ns = la.null_space(np.stack([left, right], axis=1).reshape(2 * n * n, n))
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
    res["absorbing"] = la.frob_max(kac.lmats @ e_op - eps[:, None, None] * e_op)

    e_hat = np.outer(kac.omega, np.conj(kac.omega))
    res["e_hat_membership"] = hat.mm.residual(e_hat)
    eps_y, res["hat_fixes_omega_line"] = _counit_on_omega(kac, hat.onb)
    res["e_hat_absorbing"] = la.frob_max(e_hat @ hat.onb - eps_y[:, None, None] * e_hat)
    res["omega_hat_unit"] = float(abs(np.linalg.norm(omega_hat) - 1.0))
    res["omega_from_omega_hat"] = float(
        np.linalg.norm(np.sqrt(n) * (e_hat @ omega_hat) - kac.omega)
    )
    trace = np.trace(hat.onb, axis1=1, axis2=2) / n
    res["dual_haar_is_normalized_trace"] = float(
        np.abs(trace - (hat.onb @ omega_hat) @ np.conj(omega_hat)).max()
    )
    return Integrals(e_op=e_op, e_hat=e_hat, omega_hat=omega_hat, residuals=res)


def _counit_on_omega(kac: KacAlgebra, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """ε̂(y) = ⟨Ω, yΩ⟩ for each y of a stack, and the largest ‖yΩ − ε̂(y)Ω‖."""
    w = ys @ kac.omega
    eps = w @ np.conj(kac.omega)
    return eps, float(np.linalg.norm(w - eps[:, None] * kac.omega, axis=1).max())


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
    unitaries, by :func:`pentagon_residual` on V̂ = Σ L(bᵢ)⊗Uŷᵢ U and
    Ṽ = Σ UL(bᵢ)U⊗ŷᵢ, which V = Σ ŷᵢ⊗L(bᵢ) gives (23–25 ms each on the n = 18
    twist, 80–140 ms at n = 24); V̂ ∈ A⊗Â′ and Ṽ ∈ A′⊗Â (the Frobenius distance
    from each tensor product, :func:`~kacgalois.linalg.leg_distance`, with
    the commutant bases of ``hat.commutant_cells``);
    V̂†(ξ⊗xΩ) = δ(x)(ξ⊗Ω); and Ad(Ṽ) restricted to first-leg dual elements is
    the dual coproduct, Ṽ(y⊗1)Ṽ† = δ̂(y).

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
    yhat, lmats = hat.dual_basis, kac.lmats
    res["v_hat_pentagon"], res["v_hat_pentagon_parts"] = pentagon_residual(
        v_hat, n, lmats, u @ yhat @ u, res["v_hat_unitary"]
    )
    res["v_tilde_pentagon"], res["v_tilde_pentagon_parts"] = pentagon_residual(
        v_tilde, n, u @ lmats @ u, yhat, res["v_tilde_unitary"]
    )

    a_comm, hat_comm = hat.commutant_cells
    a_onb = kac.as_mm().onb()
    res["v_hat_in_a_tensor_hatcomm"] = float(leg_distance(v_hat, a_onb, hat_comm, "left"))
    res["v_tilde_in_acomm_tensor_hat"] = float(leg_distance(v_tilde, a_comm, hat.onb, "left"))

    flipped = dagger(v_hat).reshape((n,) * 4).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    act = _times_first_leg(flipped, kac.coord) - _coproduct_action(kac, kac.delta.swapaxes(1, 2))
    res["v_hat_defining_action"] = float(np.linalg.norm(act, axis=0).max())

    # Ṽ(y⊗1)Ṽ† = W†(1⊗y)W with W = FṼ†, since F(y⊗1)F = 1⊗y.
    w = dagger(v_tilde).reshape(n, n, -1).swapaxes(0, 1).reshape(n * n, -1)
    index = _sandwich_index(w, n)
    cop = 0.0
    for y in hat.onb:
        cop = max(cop, frob(_sandwich(w, index, y) - delta_hat(v, y)))
    res["v_tilde_implements_dual_coproduct"] = cop
    return HatUnitaries(u=u, v_hat=v_hat, v_tilde=v_tilde, residuals=res)


# ---------------------------------------------------------------------------
# The duality pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingForm:
    """The bilinear pairing ⟨x, y⟩ = √n·(xΩ, y*Ω̂) between A and Â.

    ``matrix`` holds the pairing of the algebra basis operators against the
    dual orthonormal basis, P[i, α] = ⟨bᵢ, y_α⟩; the pairing is bilinear, so
    every other value is read off P through basis coefficients.
    ``residuals`` certify nondegeneracy, the counit rows, and the two
    multiplicativity laws (products on one side pair with coproducts on the
    other).
    """

    matrix: np.ndarray
    residuals: dict


def pairing(
    kac: KacAlgebra,
    hat: HatAlgebra,
    ints: Integrals,
    delta: np.ndarray,
    counit: np.ndarray,
    delta_membership: float,
) -> PairingForm:
    """Build the duality pairing and verify its structural laws.

    ``delta`` and ``counit`` are Â's coproduct coefficients and counit over
    ``hat.onb``, and ``delta_membership`` the residual of δ̂(Â) ⊆ Â⊗Â, as
    :func:`dual_kac` extracts them.
    """
    n = kac.dim
    sq = np.sqrt(n)
    ystack = hat.onb
    om_bar = np.conj(ints.omega_hat)

    # ⟨x, y⟩ = √n Σ_p (xΩ)_p (yᵀ Ω̂̄)_p  — bilinear in (x, y) by construction.
    w = om_bar @ ystack  # w[α] = y_αᵀ Ω̂̄
    p_mat = sq * (w @ kac.coord).T

    res = {}
    sv = np.linalg.svd(p_mat, compute_uv=False)
    res["nondegenerate"] = float(max(0.0, DEFAULT_TOL - sv.min() / sv.max()))

    unit_row = sq * (w @ kac.omega)
    res["unit_pairs_to_dual_counit"] = float(np.abs(unit_row - counit).max())
    eye_col = sq * (om_bar @ kac.coord)
    res["dual_unit_pairs_to_counit"] = float(np.abs(eye_col - kac.counit).max())
    res["dual_coproduct_membership"] = delta_membership

    # Law 1: ⟨x·x', y⟩ = ⟨x⊗x', δ̂(y)⟩, both sides at [c, i, j].
    lhs1 = sq * (w @ kac.lmats @ kac.coord).swapaxes(0, 1)  # (bᵢbⱼ)Ω paired with y_c
    rhs1 = p_mat @ delta @ p_mat.T
    res["pairing_product_vs_dual_coproduct"] = float(np.abs(lhs1 - rhs1).max())

    # Law 2: ⟨x, y·y'⟩ = ⟨δ(x), y⊗y'⟩, both sides at [k, a, b].
    lhs2 = sq * (w @ ystack @ kac.coord).transpose(2, 1, 0)  # (y_a y_b)ᵀ Ω̂̄ paired with b_k
    rhs2 = p_mat.T @ kac.delta @ p_mat
    res["pairing_coproduct_vs_dual_product"] = float(np.abs(lhs2 - rhs2).max())

    return PairingForm(matrix=p_mat, residuals=res)


# ---------------------------------------------------------------------------
# Dual Kac algebra reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualKac:
    """The dual, reconstructed as an abstract Kac algebra and re-validated.

    ``kac`` is the dual as a fresh :class:`KacAlgebra` (its own Haar GNS
    materialization), whose basis index order matches that of ``hat.onb``,
    the concrete basis of Â on the original H.
    """

    kac: KacAlgebra
    hat: HatAlgebra
    v: MultiplicativeUnitary
    ints: Integrals
    pairing_form: PairingForm
    residuals: dict

    @cached_property
    def axiom_report(self) -> dict:
        """:func:`~kacgalois.kac.validate_kac` of the dual, on first read."""
        return validate_kac(self.kac)


def dual_kac(kac: KacAlgebra) -> DualKac:
    """Extract the dual Kac algebra from the slice algebra of V.

    Structure tensors over the deterministic orthonormal basis of Â:
    products and stars by orthonormal expansion, the coproduct from
    V†(1⊗y)V (:func:`delta_hat`), the counit from the action on Ω, the
    antipode from J(·)*J, and the Haar vector from the normalized trace;
    each of the last three is one stacked contraction over the whole basis.
    With Y the basis as n×n² rows, the coproduct of y_c has the coefficients
    conj(Y)·D·conj(Y)ᵀ, D being δ̂(y_c) regrouped as D[(p,r),(q,s)], one basis
    element at a time (a stack of all n would hold n×n⁴ temporaries, which
    measured slower at n = 12); ``coproduct_membership`` is the largest entry
    of D − Yᵀ·coeff·Y over all c.  The resulting tensors are materialized
    through their own GNS construction; the full axiom validator runs on the
    result when ``axiom_report`` is first read.
    """
    n = kac.dim
    v = multiplicative_unitary(kac)
    hat = hat_algebra(kac, v)
    ints = integrals(kac, hat)
    ystack = hat.onb

    prods = ystack[:, None] @ ystack[None]  # prods[a, b] = y_a y_b
    # mult[a, b, c] = coeff of y_c in y_a y_b = ⟨y_c, y_a y_b⟩
    mult = hat.mm.coeffs(prods)
    res = {"product_membership": float(np.abs(hat.mm.element(mult) - prods).max())}

    # With δ̂(y_c) regrouped as D[(p,r),(q,s)], its coefficients over y_a⊗y_b
    # are conj(Y)·D·conj(Y)ᵀ and its expansion back is Yᵀ·coeff·Y.
    rows, flat = np.conj(ystack).reshape(n, n * n), ystack.reshape(n, n * n)
    delta = np.empty((n, n, n), dtype=complex)
    memb = 0.0
    for c in range(n):
        dh = delta_hat(v, ystack[c]).reshape((n,) * 4).swapaxes(1, 2).reshape(n * n, n * n)
        delta[c] = rows @ dh @ rows.T
        memb = max(memb, float(np.abs(flat.T @ (delta[c] @ flat) - dh).max()))
    res["coproduct_membership"] = memb

    counit, res["counit_action"] = _counit_on_omega(kac, ystack)
    pf = pairing(kac, hat, ints, delta, counit, res["coproduct_membership"])

    # antipode[i, c] = ⟨y_c, κ̂(y_i)⟩ and star[a, b] = ⟨y_b, y_a†⟩
    ky = kappa_hat(kac, ystack)
    antipode = hat.mm.coeffs(ky)
    res["antipode_membership"] = hat.mm.residual(ky)
    star = hat.mm.coeffs(dagger(ystack))
    haar = np.trace(ystack, axis1=1, axis2=2) / n

    labels = [f"dual_{i}" for i in range(n)]
    dual = kac_from_structure(
        labels, mult, delta, counit, antipode, star, haar, origin="dual"
    )
    return DualKac(kac=dual, hat=hat, v=v, ints=ints, pairing_form=pf, residuals=res)


def bidual_check(dd: DualKac) -> dict:
    """Residuals for the canonical isomorphism A ≅ (Â)̂, A being ``dd.v.kac``.

    The identification is transported through the two pairings: T is the
    matrix solving P₂·T = P₁ᵀ, and all structure tensors are compared after
    transport.  Returns per-structure residuals and their maximum.  Building
    the bidual with :func:`dual_kac` computes its integral, reconstruction
    and pairing residuals (the last with an n×n SVD), which go unread here;
    its V's and Â's residuals and its axiom report run only on first read,
    so they are never computed.
    """
    kac = dd.v.kac
    n = kac.dim
    d2 = dual_kac(dd.kac)
    p1 = dd.pairing_form.matrix
    p2 = d2.pairing_form.matrix
    t = np.linalg.solve(p2, p1.T)

    m1, m2 = kac.mult, d2.kac.mult
    dd1, dd2 = kac.delta, d2.kac.delta
    res = {}
    res["unit"] = float(np.abs(t @ kac.unit_coeffs - d2.kac.unit_coeffs).max())
    # The product compared at [c, i, j], the coproduct at [k, a, b].
    res["product"] = float(
        np.abs(t.T @ m2.transpose(2, 0, 1) @ t - (m1 @ t.T).transpose(2, 0, 1)).max()
    )
    res["coproduct"] = float(
        np.abs((t.T @ dd2.reshape(n, n * n)).reshape(n, n, n) - t @ dd1 @ t.T).max()
    )
    res["counit"] = float(np.abs(d2.kac.counit @ t - kac.counit).max())
    res["antipode"] = float(np.abs(t.T @ d2.kac.antipode - kac.antipode @ t.T).max())
    res["star"] = float(np.abs(np.conj(t).T @ d2.kac.star - kac.star @ t.T).max())
    res["haar"] = float(np.abs(d2.kac.haar @ t - kac.haar).max())
    res["max_residual"] = max(res.values())
    return res


def group_dual_check(dd: DualKac) -> dict:
    """For a group algebra ℂ[G] = ``dd.v.kac``: the dual is commutative and is C(G).

    The identification sends the point indicator of g to the element of Â
    that pairs to δ_{g,·} against the group basis (the pairing-dual basis),
    and every C(G) structure relation is then checked concretely.
    """
    kac, v, hat = dd.v.kac, dd.v, dd.hat
    if kac.origin != "group_algebra" or kac.group is None:
        raise ValueError("group_dual_check requires a group_algebra-origin Kac algebra")
    g = kac.group
    n = kac.dim

    res = {}
    prods = hat.onb[:, None] @ hat.onb[None]
    res["dual_commutative"] = la.frob_max(prods - prods.swapaxes(0, 1))

    wg = hat.mm.element(np.linalg.inv(dd.pairing_form.matrix).T)

    eye = np.eye(n)
    # wg[x]·wg[y] − δ_xy·wg[x], for every pair (x, y) at once.
    idem = wg[:, None] @ wg[None] - eye[:, :, None, None] * wg[:, None]
    res["point_indicators_orthogonal_idempotent"] = la.frob_max(idem)
    res["point_indicators_sum_to_one"] = frob(wg.sum(0) - eye)
    res["point_indicators_self_adjoint"] = la.frob_max(dagger(wg) - wg)

    # target[x] = Σ_{st=x} wg[s]⊗wg[t]: z[x, s] = Σ_{t: st=x} wg[t], then the
    # Kronecker product with wg[s] summed over s as one matmul.
    hit = (g.table[None] == np.arange(n)[:, None, None]).astype(float)  # hit[x, s, t]
    z = np.tensordot(hit, wg, axes=(2, 0))  # z[x, s, b, d]
    target = (z.transpose(0, 2, 3, 1) @ wg.reshape(n, n * n)).reshape((n,) * 5)
    target = target.transpose(0, 3, 1, 4, 2).reshape(n, n * n, n * n)  # [x, (a,b), (c,d)]
    res["coproduct_is_group_convolution"] = la.frob_max(delta_hat(v, wg) - target)

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
        # δ(u) = Σ_pq w_pq L(b_p)⊗L(b_q) with w = Σ_a c(u)_a Δ_a, as in KacAlgebra.delta_op.
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
