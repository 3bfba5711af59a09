"""Irreducible corepresentations, Fourier analysis, and fusion.

The dual algebra Â (the first-leg slice algebra of the multiplicative
unitary V) is a multimatrix algebra.  Each central block π of Â, with its
matrix units e(π)ᵢⱼ, determines an irreducible corepresentation of A whose
entries are recovered by slicing V against the block:

    u(π)ᵢⱼ = (1/d(π)) · (Tr(e(π)ⱼᵢ ·) ⊗ id)(V),

and V = Σ_π Σ_{ij} e(π)ᵢⱼ ⊗ u(π)ᵢⱼ reassembles exactly.  On top of the
corepresentations this module provides:

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
from .linalg import dagger, frob


@dataclass(frozen=True)
class Corepresentation:
    """One irreducible corepresentation of A, with its dual matrix units.

    ``units[i][j]`` are the matrix units e(π)ᵢⱼ of the corresponding central
    block of Â; ``entries[i][j]`` are the corepresentation entries
    u(π)ᵢⱼ ∈ A, both on the Haar GNS space of A.
    """

    index: int
    dim: int
    central_projection: np.ndarray
    units: tuple
    entries: tuple
    is_trivial: bool
    residuals: dict


def _entry_residuals(kac: KacAlgebra, dim: int, entries: list) -> dict:
    """Structural checks for one corepresentation's entry matrix."""
    n = kac.dim
    res = {}
    memb = 0.0
    for row in entries:
        for x in row:
            memb = max(memb, frob(kac.op(kac.coeffs_of(x)) - x))
    res["entries_in_algebra"] = memb

    big = np.zeros((dim * n, dim * n), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            big[i * n : (i + 1) * n, j * n : (j + 1) * n] = entries[i][j]
    res["block_matrix_unitary"] = la.opnorm(dagger(big) @ big - np.eye(dim * n))

    cop = 0.0
    for i in range(dim):
        for j in range(dim):
            target = np.zeros((n * n, n * n), dtype=complex)
            for k in range(dim):
                target += np.kron(entries[i][k], entries[k][j])
            cop = max(cop, frob(kac.delta_op(entries[i][j]) - target))
    res["coproduct_matricial"] = cop

    res["counit_is_kronecker"] = max(
        abs(kac.counit_of(entries[i][j]) - (1.0 if i == j else 0.0))
        for i in range(dim)
        for j in range(dim)
    )
    res["antipode_flips_adjoint"] = max(
        frob(kac.kappa_op(entries[i][j]) - dagger(entries[j][i]))
        for i in range(dim)
        for j in range(dim)
    )
    return res


def irreducible_coreps(
    kac: KacAlgebra, v: du.MultiplicativeUnitary, hat: du.HatAlgebra
) -> list[Corepresentation]:
    """All irreducible corepresentations, from the central blocks of Â.

    Deterministic: blocks come out of the dual algebra's canonical central
    decomposition ordering.  Each corepresentation is certified (entries lie
    in A, the block matrix is unitary, the coproduct acts matricially, the
    counit is the Kronecker delta, the antipode is the transposed adjoint,
    and V expands exactly over units ⊗ entries).

    Raises
    ------
    ValueError
        If ``v`` was built from an algebra with other structure tensors than
        ``kac``, or ``hat`` does not act on the GNS space of ``kac``.
    """
    same = v.kac is kac or all(
        np.shape(getattr(v.kac, t)) == np.shape(getattr(kac, t))
        and np.allclose(getattr(v.kac, t), getattr(kac, t), rtol=0.0, atol=1e-12)
        for t in ("mult", "delta", "counit", "antipode", "star")
    )
    if not same:
        raise ValueError(
            "the multiplicative unitary was built from a different Kac algebra"
        )
    if hat.mm.ambient_dim != kac.dim:
        raise ValueError(
            f"the dual algebra acts on dimension {hat.mm.ambient_dim}, "
            f"not on the algebra's {kac.dim}"
        )
    n = kac.dim
    v4 = v.matrix.reshape(n, n, n, n)
    blocks = matrix_units(hat.mm)

    coreps = []
    expansion = np.zeros_like(v.matrix)
    for idx, block in enumerate(blocks):
        d = block.size
        res = {
            "square_block": 0.0 if block.multiplicity == block.size else 1.0,
        }
        entries = []
        for i in range(d):
            row = []
            for j in range(d):
                e_ji = block.units[j][i]
                row.append(
                    np.einsum("pa,abpq->bq", e_ji, v4, optimize=True) / d
                )
            entries.append(row)
        res.update(_entry_residuals(kac, d, entries))
        for i in range(d):
            for j in range(d):
                expansion += np.kron(block.units[i][j], entries[i][j])
        trivial = d == 1 and frob(entries[0][0] - np.eye(n)) < 1e-8
        coreps.append(
            Corepresentation(
                index=idx,
                dim=d,
                central_projection=block.projection,
                units=tuple(tuple(r) for r in block.units),
                entries=tuple(tuple(r) for r in entries),
                is_trivial=trivial,
                residuals=res,
            )
        )
    exp_res = frob(expansion - v.matrix)
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
    """Schur orthogonality: h(u(π)ᵢⱼ* u(σ)ₖₗ) = δ_{πσ}δᵢₖδⱼₗ / d(π)."""
    worst = 0.0
    for a in coreps:
        for b in coreps:
            for i in range(a.dim):
                for j in range(a.dim):
                    x = dagger(a.entries[i][j])
                    for k in range(b.dim):
                        for l_ in range(b.dim):
                            val = kac.haar_of(x @ b.entries[k][l_])
                            want = (
                                1.0 / a.dim
                                if (a.index == b.index and i == k and j == l_)
                                else 0.0
                            )
                            worst = max(worst, abs(val - want))
    return {"orthogonality": worst}


def fourier_coefficients(
    kac: KacAlgebra, coreps: list[Corepresentation], x: np.ndarray
) -> list[np.ndarray]:
    """Matrix-valued Fourier coefficients x̂(π)ᵢⱼ = d(π)·h(u(π)ᵢⱼ*·x)."""
    out = []
    for c in coreps:
        mat = np.empty((c.dim, c.dim), dtype=complex)
        for i in range(c.dim):
            for j in range(c.dim):
                mat[i, j] = c.dim * kac.haar_of(dagger(c.entries[i][j]) @ x)
        out.append(mat)
    return out


def fourier_inverse(
    kac: KacAlgebra, coreps: list[Corepresentation], coeffs: list[np.ndarray]
) -> np.ndarray:
    """Reassemble Σ_π Σ_{ij} x̂(π)ᵢⱼ·u(π)ᵢⱼ (exact inverse of the transform)."""
    n = kac.dim
    out = np.zeros((n, n), dtype=complex)
    for c, mat in zip(coreps, coeffs):
        for i in range(c.dim):
            for j in range(c.dim):
                out += mat[i, j] * c.entries[i][j]
    return out


def fourier_round_trip(
    kac: KacAlgebra,
    coreps: list[Corepresentation],
    count: int = 100,
    seed: int = 5,
) -> dict:
    """Max reconstruction error over seeded random algebra elements.

    Also certifies that the rescaled entries √d(π)·u(π)ᵢⱼ form a
    Haar-orthonormal family of the right cardinality (they are a basis).
    """
    rng = np.random.default_rng(seed)
    n = kac.dim
    worst = 0.0
    for _ in range(count):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = kac.op(c)
        back = fourier_inverse(kac, coreps, fourier_coefficients(kac, coreps, x))
        worst = max(worst, frob(back - x) / max(1.0, frob(x)))
    card = sum(c.dim * c.dim for c in coreps)
    return {
        "round_trip": worst,
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
    acc = np.zeros((n, n), dtype=complex)
    for c in coreps:
        for i in range(c.dim):
            for j in range(c.dim):
                acc += c.dim * dagger(c.entries[i][j]) @ e_hat @ c.entries[i][j]
    const = complex(np.trace(acc) / n)
    return {
        "residual": frob(acc - np.eye(n)),
        "constant": const,
        "constant_minus_one": abs(const - 1.0),
    }


# ---------------------------------------------------------------------------
# Conjugation and fusion
# ---------------------------------------------------------------------------


def _intertwiner_space(
    left: list, right: list, n: int
) -> np.ndarray:
    """Solutions T of Σ_k left[i][k]·T[k,j] = Σ_k T[i,k]·right[k][j].

    ``left``/``right`` are nested lists of n×n operators (corep entry
    matrices); returns an orthonormal basis of the solution space, each
    column a vectorized T.
    """
    dl, dr = len(left), len(right)
    cols = []
    for k in range(dl):
        for l_ in range(dr):
            block = np.zeros((dl * dr, n * n), dtype=complex)
            for i in range(dl):
                for j in range(dr):
                    acc = np.zeros((n, n), dtype=complex)
                    if l_ == j:
                        acc += left[i][k]
                    if i == k:
                        acc -= right[l_][j]
                    block[i * dr + j] = acc.reshape(-1)
            cols.append(block.reshape(-1))
    a = np.stack(cols, axis=1)
    return la.null_space(a)


def conjugation_involution(
    kac: KacAlgebra, coreps: list[Corepresentation]
) -> dict:
    """The conjugation π ↦ π̄ on irreducibles, and its certificates.

    The pairing is located structurally — the dual antipode maps the central
    projection of π to that of π̄ — and certified by solving for an explicit
    invertible intertwiner between the entrywise-adjoint corepresentation of
    π and π̄ (Schur: the intertwiner space must be exactly one-dimensional).
    Returns the pairing, the involution check, and the worst residuals.
    """
    n = kac.dim
    pairs = []
    proj_res = 0.0
    for c in coreps:
        kz = du.kappa_hat(kac, c.central_projection)
        best, dist = None, np.inf
        for other in coreps:
            d = frob(kz - other.central_projection)
            if d < dist:
                best, dist = other.index, d
        proj_res = max(proj_res, dist)
        pairs.append(best)

    schur = 0.0
    inter_res = 0.0
    for c in coreps:
        cbar = coreps[pairs[c.index]]
        conj_entries = [
            [dagger(c.entries[i][j]) for j in range(c.dim)] for i in range(c.dim)
        ]
        basis = _intertwiner_space(conj_entries, [list(r) for r in cbar.entries], n)
        schur = max(schur, abs(basis.shape[1] - 1))
        if basis.shape[1] >= 1:
            t = basis[:, 0].reshape(c.dim, cbar.dim)
            worst = 0.0
            for i in range(c.dim):
                for j in range(cbar.dim):
                    lhs = sum(conj_entries[i][k] * t[k, j] for k in range(c.dim))
                    rhs = sum(t[i, k] * cbar.entries[k][j] for k in range(cbar.dim))
                    worst = max(worst, frob(lhs - rhs))
            inter_res = max(inter_res, worst / max(1.0, float(np.abs(t).max())))

    involution_ok = all(pairs[pairs[i]] == i for i in range(len(coreps)))
    return {
        "pairs": pairs,
        "involution_exact": involution_ok,
        "central_projection_transport": proj_res,
        "schur_dimension_defect": float(schur),
        "intertwiner_residual": inter_res,
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
    m_τ orthogonal isometries; the decomposition is certified by isometry,
    mutual orthogonality, completeness Σ S·S† = 1, the exact dimension count
    Σ m_τ·d(τ) = d(π_a)·d(π_b), and the intertwining equations themselves.
    """
    n = kac.dim
    ca, cb = coreps[a], coreps[b]
    da, db = ca.dim, cb.dim
    big_dim = da * db
    prod = [
        [
            ca.entries[i][j] @ cb.entries[k][l_]
            for j in range(da)
            for l_ in range(db)
        ]
        for i in range(da)
        for k in range(db)
    ]

    res = {"intertwining": 0.0, "isometry": 0.0}
    summands = []
    gram_blocks = []
    total = 0
    for c in coreps:
        basis = _intertwiner_space(prod, [list(r) for r in c.entries], n)
        mult = basis.shape[1]
        if mult == 0:
            continue
        isoms = []
        for idx in range(mult):
            t = basis[:, idx].reshape(big_dim, c.dim) * np.sqrt(c.dim)
            res["isometry"] = max(res["isometry"], frob(dagger(t) @ t - np.eye(c.dim)))
            worst = 0.0
            for i in range(big_dim):
                for j in range(c.dim):
                    lhs = sum(prod[i][k] * t[k, j] for k in range(big_dim))
                    rhs = sum(t[i, k] * c.entries[k][j] for k in range(c.dim))
                    worst = max(worst, frob(lhs - rhs))
            res["intertwining"] = max(res["intertwining"], worst)
            isoms.append(t)
            gram_blocks.append(t)
        summands.append({"index": c.index, "multiplicity": mult, "isometries": isoms})
        total += mult * c.dim

    comp = sum(t @ dagger(t) for t in gram_blocks)
    res["completeness"] = frob(comp - np.eye(big_dim))
    res["dimension_count_exact"] = total == big_dim
    ortho = 0.0
    for x in range(len(gram_blocks)):
        for y in range(x + 1, len(gram_blocks)):
            ortho = max(
                ortho, float(np.abs(dagger(gram_blocks[x]) @ gram_blocks[y]).max())
            )
    res["isometry_orthogonality"] = ortho
    return {"summands": summands, "residuals": res}
