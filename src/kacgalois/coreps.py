"""Irreducible corepresentations, Fourier analysis, and fusion.

The dual algebra Â (the first-leg slice algebra of the multiplicative
unitary V) is a multimatrix algebra.  Each central block π of Â, with its
matrix units e(π)ᵢⱼ, determines an irreducible corepresentation of A whose
entries are recovered by slicing V against the block:

    u(π)ᵢⱼ = (1/d(π)) · (Tr(e(π)ⱼᵢ ·) ⊗ id)(V),

and V = Σ_π Σ_{ij} e(π)ᵢⱼ ⊗ u(π)ᵢⱼ reassembles exactly.  The
corepresentations of one dimension are formed and certified together, as one
stack, with one residual dict each; block unitarity is a Frobenius norm, so
the certificates run no SVD.  On top of the corepresentations this module
provides:

* the Schur orthogonality relations for the Haar state,
* Fourier coefficients x ↦ d(π)·h(u(π)ᵢⱼ*·x) with exact inversion
  (the rescaled entries √d(π)·u(π)ᵢⱼ are a Haar-orthonormal basis),
* the resolution of identity through the dual integral ê,
  Σ d(π)·u(π)ᵢⱼ*·ê·u(π)ᵢⱼ = 1 (normalization constant exactly 1),
* the conjugation involution on the set of irreducibles (located through
  the dual antipode on central projections, certified by an explicit
  intertwiner), and
* tensor-product (fusion) decomposition into irreducibles via orthogonal
  isometric intertwiners with a completeness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import duality as du
from . import linalg as la
from .algebra import matrix_units
from .kac import KacAlgebra
from .linalg import SPAN_TOL, dagger, frob


@dataclass(frozen=True)
class Corepresentation:
    """One irreducible corepresentation of A, with its dual matrix units.

    ``units[i, j]`` are the matrix units e(π)ᵢⱼ of the corresponding central
    block of Â; ``entries[i, j]`` are the corepresentation entries
    u(π)ᵢⱼ ∈ A, both on the Haar GNS space of A.  Both are read-only
    (d, d, n, n) arrays.
    """

    index: int
    dim: int
    central_projection: np.ndarray
    units: np.ndarray
    entries: np.ndarray
    is_trivial: bool
    residuals: dict


def _stack_max(a: np.ndarray) -> np.ndarray:
    """Per item of a (k, …, m, m) stack, the largest Frobenius norm of its m×m matrices."""
    return np.linalg.norm(a, axis=(-2, -1)).reshape(len(a), -1).max(axis=1)


def _coproduct_residual(kac: KacAlgebra, entries: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per corepresentation of a (k, d, d, n, n) stack, max over (i, j) of
    ‖δ(u_ij) − Σ_l u_il⊗u_lj‖_F, from (n+d)-square factors.

    With the rows of L the vectorized L(b_p) and w_ij = Σ_a c(u_ij)_a·Δ_a, the
    difference is, up to a permutation of its entries, A_i·diag(w_ij, −1)·B_jᵀ
    for A_i = [Lᵀ | vec(u_i·)ᵀ] and B_j = [Lᵀ | vec(u_·j)ᵀ].  Its Frobenius
    norm is that of R_i·diag(w_ij, −1)·R_jᵀ for the thin QR factors of A_i
    and B_j, so no n²×n² operator is formed.
    """
    k, d, n = entries.shape[0], entries.shape[1], kac.dim
    lt = np.broadcast_to(kac.lmats.reshape(n, n * n).T, (k, d, n * n, n))
    vecs = entries.reshape(k, d, d, n * n)
    r_rows = np.linalg.qr(np.concatenate([lt, vecs.transpose(0, 1, 3, 2)], axis=3), mode="r")
    r_cols = np.linalg.qr(np.concatenate([lt, vecs.transpose(0, 2, 3, 1)], axis=3), mode="r")
    core = np.zeros((k, d, d, n + d, n + d), dtype=complex)
    core[..., :n, :n] = np.tensordot(coeffs, kac.delta, axes=(-1, 0))
    core[..., n:, n:] = -np.eye(d)
    return _stack_max(r_rows[:, :, None] @ core @ r_cols[:, None].swapaxes(-1, -2))


def _entry_residuals(kac: KacAlgebra, entries: np.ndarray) -> list[dict]:
    """Structural checks for a (k, d, d, n, n) stack of corepresentations' entries,
    one residual dict per corepresentation.

    ``block_matrix_unitary`` is ‖B†B − I‖_F for the dn×dn block matrix B of
    the entries, an upper bound on its operator norm.
    """
    k, d, n = entries.shape[0], entries.shape[1], kac.dim
    coeffs = kac.coeffs_of(entries)
    big = entries.transpose(0, 1, 3, 2, 4).reshape(k, d * n, d * n)
    cols = {
        "entries_in_algebra": _stack_max(kac.op(coeffs) - entries),
        "block_matrix_unitary": np.linalg.norm(dagger(big) @ big - np.eye(d * n), axis=(-2, -1)),
        "coproduct_matricial": _coproduct_residual(kac, entries, coeffs),
        "counit_is_kronecker": np.abs(coeffs @ kac.counit - np.eye(d)).reshape(k, -1).max(axis=1),
        "antipode_flips_adjoint": _stack_max(
            kac.op(coeffs @ kac.antipode) - dagger(entries).swapaxes(1, 2)
        ),
    }
    return [{key: float(val[i]) for key, val in cols.items()} for i in range(k)]


def irreducible_coreps(
    kac: KacAlgebra, v: du.MultiplicativeUnitary, hat: du.HatAlgebra
) -> list[Corepresentation]:
    """All irreducible corepresentations, from the central blocks of Â.

    Deterministic: blocks come out of the dual algebra's canonical central
    decomposition ordering.  The corepresentations of one dimension d are
    built and certified as one (k, d, d, n, n) stack, with one residual dict
    each: entries lie in A, the block matrix is unitary (in Frobenius norm,
    so no SVD runs), the coproduct acts matricially, the counit is the
    Kronecker delta, the antipode is the transposed adjoint, and V expands
    exactly over units ⊗ entries.

    Raises
    ------
    ValueError
        If ``v`` was not built from ``kac`` itself, or ``hat`` not from ``v``.
    """
    if v.kac is not kac:
        raise ValueError("the multiplicative unitary was built from a different Kac algebra")
    if hat.v is not v:
        raise ValueError("the dual algebra was built from a different multiplicative unitary")
    n = kac.dim
    # u(π)ᵢⱼ[b, q] = Σ_{p,a} e(π)ⱼᵢ[p, a]·V[(a, b), (p, q)] / d(π).
    v_slices = v.matrix.reshape(n, n, n, n).transpose(2, 0, 1, 3).reshape(n * n, n * n)

    blocks = matrix_units(hat.mm)
    coreps: list = [None] * len(blocks)
    for d in sorted({b.size for b in blocks}):
        group = [i for i, b in enumerate(blocks) if b.size == d]
        units = np.stack([blocks[i].units for i in group])
        entries = (units.swapaxes(1, 2).reshape(len(group), d * d, n * n) @ v_slices) / d
        entries = entries.reshape(len(group), d, d, n, n)
        entries.flags.writeable = False
        for idx, ent, res in zip(group, entries, _entry_residuals(kac, entries)):
            block = blocks[idx]
            coreps[idx] = Corepresentation(
                index=idx,
                dim=d,
                central_projection=block.projection,
                units=block.units,
                entries=ent,
                is_trivial=d == 1 and frob(ent[0, 0] - np.eye(n)) < SPAN_TOL,
                residuals={"square_block": float(block.multiplicity != d), **res},
            )
    # V = Σ e(π)ᵢⱼ ⊗ u(π)ᵢⱼ.
    units = np.concatenate([c.units.reshape(-1, n * n) for c in coreps])
    entries = np.concatenate([c.entries.reshape(-1, n * n) for c in coreps])
    exp_res = du.split_defect(v.matrix, units, entries)
    for c in coreps:
        c.residuals["v_expansion"] = exp_res
    return coreps


def dimension_count(kac: KacAlgebra, coreps: list[Corepresentation]) -> dict:
    """Σ d(π)² = dim A, as an exact integer identity."""
    total = sum(c.dim * c.dim for c in coreps)
    trivial = sum(1 for c in coreps if c.is_trivial)
    return {
        "sum_of_squares": total,
        "dim": kac.dim,
        "exact": total == kac.dim,
        "trivial_count": trivial,
    }


def orthogonality_check(kac: KacAlgebra, coreps: list[Corepresentation]) -> dict:
    """Schur orthogonality: h(u(π)ᵢⱼ* u(σ)ₖₗ) = δ_{πσ}δᵢₖδⱼₗ / d(π).

    With h(x*y) = ⟨xΩ, yΩ⟩ this is one Gram matrix of the vectors u(π)ᵢⱼΩ,
    compared with diag(1/d(π)).
    """
    vecs = np.concatenate([c.entries.reshape(-1, kac.dim, kac.dim) @ kac.omega for c in coreps])
    want = np.concatenate([np.full(c.dim * c.dim, 1.0 / c.dim) for c in coreps])
    gram = vecs.conj() @ vecs.T
    return {"orthogonality": float(np.abs(gram - np.diag(want)).max())}


def fourier_coefficients(
    kac: KacAlgebra, coreps: list[Corepresentation], x: np.ndarray
) -> list[np.ndarray]:
    """Matrix-valued Fourier coefficients x̂(π)ᵢⱼ = d(π)·h(u(π)ᵢⱼ*·x).

    ``x`` is one operator or a stack (..., n, n); each coefficient array then
    has shape (..., d(π), d(π)).
    """
    xo = np.asarray(x) @ kac.omega
    return [
        c.dim * np.tensordot(xo, (c.entries @ kac.omega).conj(), axes=(-1, -1))
        for c in coreps
    ]


def fourier_inverse(
    kac: KacAlgebra, coreps: list[Corepresentation], coeffs: list[np.ndarray]
) -> np.ndarray:
    """Reassemble Σ_π Σ_{ij} x̂(π)ᵢⱼ·u(π)ᵢⱼ (exact inverse of the transform).

    Each coefficient array may carry leading stack axes, as
    :func:`fourier_coefficients` returns them for a stack.
    """
    return sum(
        np.tensordot(mat, c.entries, axes=([-2, -1], [0, 1]))
        for c, mat in zip(coreps, coeffs)
    )


def fourier_round_trip(
    kac: KacAlgebra,
    coreps: list[Corepresentation],
    count: int = 100,
    seed: int = 5,
) -> dict:
    """Max reconstruction error over seeded random algebra elements.

    Element k has the coefficients z[k, 0] + i·z[k, 1], z = ``probe_draws(seed)``.
    Also reports whether Σ d(π)² = dim A, the cardinality a basis of rescaled
    entries √d(π)·u(π)ᵢⱼ needs.  That those entries are Haar-orthonormal is
    certified by :func:`orthogonality_check`, not here.
    """
    n = kac.dim
    z = la.probe_draws(seed, (count, 2, n))
    xs = kac.op(z[:, 0] + 1j * z[:, 1])
    back = fourier_inverse(kac, coreps, fourier_coefficients(kac, coreps, xs))
    err = np.linalg.norm(back - xs, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(xs, axis=(-2, -1)))
    card = sum(c.dim * c.dim for c in coreps)
    return {
        "round_trip": float((err / scale).max(initial=0.0)),
        "basis_cardinality_exact": card == n,
    }


def peter_weyl_resolution(
    kac: KacAlgebra, coreps: list[Corepresentation], e_hat: np.ndarray
) -> dict:
    """Σ_π Σ_{ij} d(π)·u(π)ᵢⱼ*·ê·u(π)ᵢⱼ = 1.

    The resolution of identity holds with constant exactly 1 in this
    normalization; both the deviation from the identity and the best-fit
    constant are reported.
    """
    n = kac.dim
    acc = sum(
        c.dim * np.sum(dagger(c.entries) @ e_hat @ c.entries, axis=(0, 1))
        for c in coreps
    )
    const = complex(np.trace(acc) / n)
    return {
        "residual": frob(acc - np.eye(n)),
        "constant": const,
        "constant_minus_one": abs(const - 1.0),
    }


# ---------------------------------------------------------------------------
# Conjugation and fusion
# ---------------------------------------------------------------------------


def _intertwiner_space(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Solutions T of Σ_k left[i, k]·T[k, j] = Σ_k T[i, k]·right[k, j].

    ``left`` and ``right`` are (dl, dl, n, n) and (dr, dr, n, n) stacks of
    corepresentation entries.  The linear system has rows in (i, j, p, q)
    order and columns in (k, l) order; returns an orthonormal basis of its
    null space, each column a vectorized T.
    """
    dl, dr, n = left.shape[0], right.shape[0], left.shape[-1]
    a = np.einsum("ikpq,lj->ijpqkl", left, np.eye(dr)) - np.einsum(
        "ljpq,ik->ijpqkl", right, np.eye(dl)
    )
    return la.null_space(a.reshape(dl * dr * n * n, dl * dr))


def _intertwining_residual(left: np.ndarray, ts: np.ndarray, right: np.ndarray) -> np.ndarray:
    """‖Σ_k left[i, k]·T[k, j] − Σ_k T[i, k]·right[k, j]‖_F, max over (i, j), per T in ``ts``."""
    diff = np.einsum("ikpq,mkj->mijpq", left, ts) - np.einsum("mik,kjpq->mijpq", ts, right)
    return np.linalg.norm(diff, axis=(-2, -1)).max(axis=(1, 2))


def conjugation_involution(
    kac: KacAlgebra, coreps: list[Corepresentation]
) -> dict:
    """The conjugation π ↦ π̄ on irreducibles, and its certificates.

    The pairing is located structurally — the dual antipode maps the central
    projection of π to that of π̄ — and certified by solving for an explicit
    invertible intertwiner between the entrywise-adjoint corepresentation of
    π and π̄ (Schur: the intertwiner space must be exactly one-dimensional).
    Returns the pairing, the involution check, the worst residuals, and the
    intertwiners T (one d(π)×d(π̄) matrix per π, ``None`` when the space is
    empty).
    """
    projs = np.stack([c.central_projection for c in coreps])
    moved = np.stack([du.kappa_hat(kac, z) for z in projs])
    dist = np.linalg.norm(moved[:, None] - projs[None], axis=(-2, -1))
    pairs = [int(p) for p in dist.argmin(axis=1)]

    schur = 0.0
    inter_res = 0.0
    intertwiners = []
    for c in coreps:
        cbar = coreps[pairs[c.index]]
        conj_entries = dagger(c.entries)
        basis = _intertwiner_space(conj_entries, cbar.entries)
        schur = max(schur, abs(basis.shape[1] - 1))
        t = None
        if basis.shape[1] >= 1:
            t = basis[:, 0].reshape(c.dim, cbar.dim)
            worst = _intertwining_residual(conj_entries, t[None], cbar.entries)[0]
            inter_res = max(inter_res, worst / max(1.0, float(np.abs(t).max())))
        intertwiners.append(t)

    involution_ok = all(pairs[pairs[i]] == i for i in range(len(coreps)))
    return {
        "pairs": pairs,
        "involution_exact": involution_ok,
        "central_projection_transport": float(dist.min(axis=1).max()),
        "schur_dimension_defect": float(schur),
        "intertwiner_residual": float(inter_res),
        "intertwiners": intertwiners,
    }


def decompose_tensor_product(
    kac: KacAlgebra,
    coreps: list[Corepresentation],
    a: int,
    b: int,
) -> dict:
    """Fusion: decompose u(π_a) ⊠ u(π_b) into irreducibles.

    The product corepresentation has entries u(π_a)ᵢⱼ·u(π_b)ₖₗ on the index
    set (i,k)×(j,l).  For each irreducible τ, the intertwiner space gives
    m_τ orthogonal isometries (stacked (m_τ, d_a·d_b, d(τ)) per summand); the
    decomposition is certified by isometry, mutual orthogonality,
    completeness Σ S·S† = 1, the exact dimension count
    Σ m_τ·d(τ) = d(π_a)·d(π_b), and the intertwining equations themselves.
    """
    n = kac.dim
    ca, cb = coreps[a], coreps[b]
    big_dim = ca.dim * cb.dim
    prod = (ca.entries[:, None, :, None] @ cb.entries[None, :, None, :]).reshape(
        big_dim, big_dim, n, n
    )

    res = {"intertwining": 0.0, "isometry": 0.0}
    summands = []
    total = 0
    for c in coreps:
        basis = _intertwiner_space(prod, c.entries)
        mult = basis.shape[1]
        if mult == 0:
            continue
        ts = basis.T.reshape(mult, big_dim, c.dim) * np.sqrt(c.dim)
        res["isometry"] = max(res["isometry"], la.frob_max(dagger(ts) @ ts - np.eye(c.dim)))
        res["intertwining"] = max(
            res["intertwining"], float(_intertwining_residual(prod, ts, c.entries).max())
        )
        summands.append({"index": c.index, "multiplicity": mult, "isometries": ts})
        total += mult * c.dim

    # All isometries side by side: S†S holds every tᵤ†tᵥ as a block.
    blocks = [t for summand in summands for t in summand["isometries"]]
    isoms = np.concatenate(blocks, axis=1)
    res["completeness"] = frob(isoms @ dagger(isoms) - np.eye(big_dim))
    res["dimension_count_exact"] = total == big_dim
    owner = np.repeat(np.arange(len(blocks)), [t.shape[1] for t in blocks])
    cross = np.abs(dagger(isoms) @ isoms)[owner[:, None] != owner[None]]
    res["isometry_orthogonality"] = float(cross.max(initial=0.0))
    return {"summands": summands, "residuals": res}
