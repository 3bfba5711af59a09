"""Dense complex linear algebra helpers shared across the library.

Everything here works on plain ``numpy`` arrays of complex128.  Operator
spans are handled as subspaces of the Frobenius Hilbert space of matrices:
a span is a list of matrices, its geometry is delegated to SVD/eigh, and
span comparisons go through orthogonal projectors so that no basis choice
ever matters.
"""

from __future__ import annotations

import numpy as np

#: Default tolerance on operator-norm-normalized residuals.
DEFAULT_TOL = 1e-9

#: Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-8


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius inner product Tr(a† b), conjugate-linear in ``a``."""
    return complex(np.vdot(a, b))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix to a vector."""
    return np.asarray(a, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(shape)


def orthonormalize(
    mats: list[np.ndarray], rtol: float = RANK_RTOL, atol: float = 1e-12
) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the span of ``mats``.

    Deterministic: rows are stacked in input order and reduced by SVD;
    singular vectors with singular value below ``rtol`` times the largest
    (or below the absolute floor ``atol``, so numerically-zero inputs yield
    an empty basis) are dropped.

    Parameters
    ----------
    mats : list of ndarray
        Matrices of a common shape (an empty list yields an empty basis).
    rtol : float
        Relative rank cutoff.
    atol : float
        Absolute rank floor.

    Returns
    -------
    list of ndarray
        Pairwise Frobenius-orthonormal matrices spanning the same space.
    """
    if not mats:
        return []
    shape = mats[0].shape
    rows = np.stack([vec(m) for m in mats])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > max(rtol * s[0], atol)
    return [unvec(row, shape) for row in vh[keep]]


def span_projector(onb: list[np.ndarray]) -> np.ndarray:
    """Orthogonal projector (on vectorized matrices) onto an orthonormal span."""
    if not onb:
        n = 0
        return np.zeros((n, n), dtype=complex)
    rows = np.stack([vec(m) for m in onb])
    return dagger(rows) @ rows


def span_distance(onb1: list[np.ndarray], onb2: list[np.ndarray]) -> float:
    """Operator-norm distance between the projectors onto two spans."""
    if not onb1 and not onb2:
        return 0.0
    ref = onb1 if onb1 else onb2
    d2 = ref[0].size
    p1 = span_projector(onb1) if onb1 else np.zeros((d2, d2), dtype=complex)
    p2 = span_projector(onb2) if onb2 else np.zeros((d2, d2), dtype=complex)
    return opnorm(p1 - p2)


def project_span(x: np.ndarray, onb: list[np.ndarray]) -> np.ndarray:
    """Orthogonal projection of ``x`` onto an orthonormal matrix span."""
    out = np.zeros_like(x, dtype=complex)
    for b in onb:
        out += hs_inner(b, x) * b
    return out


def span_residual(x: np.ndarray, onb: list[np.ndarray]) -> float:
    """Frobenius distance from ``x`` to an orthonormal span."""
    return frob(x - project_span(x, onb))


def intersect_spans(
    onb1: list[np.ndarray], onb2: list[np.ndarray], cut: float = 0.5
) -> list[np.ndarray]:
    """Intersection of two matrix spans.

    Computed from the Hermitian operator P₁P₂P₁ on vectorized matrices:
    eigenvectors with eigenvalue above ``cut`` (default 1/2) span the
    intersection, which is robust to tolerance-level misalignment of the
    two spans.
    """
    if not onb1 or not onb2:
        return []
    shape = onb1[0].shape
    r1 = np.stack([vec(m) for m in onb1])  # k1 × D, orthonormal rows
    r2 = np.stack([vec(m) for m in onb2])
    # Compress P1 P2 P1 to the coordinates of span1: M = C C† with C = r1 r2†.
    c = r1 @ dagger(r2)
    m = c @ dagger(c)
    w, u = np.linalg.eigh(m)
    keep = w > cut
    if not np.any(keep):
        return []
    basis = dagger(u[:, keep]) @ r1  # rows: intersection vectors in ambient coords
    return orthonormalize([unvec(row, shape) for row in basis])


def null_space(a: np.ndarray, rtol: float = RANK_RTOL, atol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a`` via SVD.

    The rank cutoff is relative to the largest singular value, with an
    absolute floor so that a numerically zero matrix has full null space.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    try:
        # Economy SVD suffices when rows ≥ cols (vh is already square).
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        scale = s[0] if s.size else 0.0
        rank = int(np.sum(s > max(rtol * scale, atol)))
        return dagger(vh[rank:])
    except np.linalg.LinAlgError:
        # Rare SVD non-convergence: the Gram matrix route always converges,
        # at the cost of squaring the spectrum.  Squaring pushes the relative
        # cutoff below eigh's own noise floor (~eps * ||gram||), so the floor
        # must enter the cutoff or genuine kernel directions get discarded.
        gram = dagger(a) @ a
        w, v = np.linalg.eigh((gram + dagger(gram)) / 2.0)
        scale = float(w.max()) if w.size else 0.0
        eps_floor = np.finfo(float).eps * scale * max(a.shape)
        keep = w <= max(rtol * rtol * scale, atol * atol, eps_floor)
        return v[:, keep]


def solve_gram(basis: list[np.ndarray], target: np.ndarray) -> np.ndarray:
    """Coefficients c with Σ cᵢ basisᵢ ≈ target, via the Gram system.

    The basis need not be orthonormal, only linearly independent.
    """
    g = np.array([[hs_inner(a, b) for b in basis] for a in basis])
    rhs = np.array([hs_inner(a, target) for a in basis])
    return np.linalg.solve(g, rhs)


def herm_power(a: np.ndarray, p: complex) -> np.ndarray:
    """Power a^p of a positive-semidefinite Hermitian matrix via eigh.

    ``p`` may be complex (used for imaginary powers a^{it}); eigenvalues
    are clipped at 0 before powering.
    """
    w, u = np.linalg.eigh((a + dagger(a)) / 2.0)
    w = np.clip(w.real, 0.0, None)
    if np.iscomplexobj(np.asarray(p)) or not float(np.real(p)).is_integer():
        if np.any(w <= 0) and (np.real(p) < 0 or np.imag(p) != 0):
            raise np.linalg.LinAlgError("non-invertible positive matrix power")
    vals = np.array([v**p if v > 0 else 0.0 for v in w], dtype=complex)
    return (u * vals) @ dagger(u)


def kron_chain(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of several matrices, left to right."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def embed_leg(x: np.ndarray, dims: list[int], leg: int) -> np.ndarray:
    """Embed ``x`` acting on tensor factor ``leg`` of ⊗ᵢ ℂ^{dims[i]}."""
    mats = []
    for i, d in enumerate(dims):
        mats.append(x if i == leg else np.eye(d, dtype=complex))
    return kron_chain(*mats)


def flip_operator(n: int, m: int | None = None) -> np.ndarray:
    """The tensor flip ℂⁿ⊗ℂᵐ → ℂᵐ⊗ℂⁿ as a permutation matrix."""
    m = n if m is None else m
    f = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            f[j * n + i, i * m + j] = 1.0
    return f


def mat_to_json(a: np.ndarray) -> list:
    """Encode a complex matrix as nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def json_to_mat(data: list) -> np.ndarray:
    """Decode the [re, im] nested-list matrix encoding."""
    return np.array(
        [[complex(cell[0], cell[1]) for cell in row] for row in data], dtype=complex
    )


def vec_to_json(v: np.ndarray) -> list:
    """Encode a complex vector as a list of [re, im] pairs."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def json_to_vec(data: list) -> np.ndarray:
    """Decode a [re, im] pair list into a complex vector."""
    return np.array([complex(c[0], c[1]) for c in data], dtype=complex)
