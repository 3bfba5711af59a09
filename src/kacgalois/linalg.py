"""Dense complex linear algebra helpers shared across the library.

Everything here works on plain ``numpy`` arrays of complex128.  Operator
spans are handled as subspaces of the Frobenius Hilbert space of matrices:
an orthonormal span is one (k, d, d) array (a list of matrices is accepted
too), its geometry is delegated to SVD/eigh, and span comparisons are
projector distances, so that no basis choice ever matters.  Coefficients of
an operator in an orthonormal span, and its residual off it, belong to
:class:`~kacgalois.algebra.MMAlgebra`, not to this module.
"""

from __future__ import annotations

import random

import numpy as np

# The tolerance table: every numerical threshold of the package, named once.

# Report tiers, read by ``cli.TOLERANCES``; ``--tolerance`` replaces only these.
#: Limit of exact structural identities (Kac axioms, pentagons).
TIGHT_TOL = 1e-10
#: Limit of composed pipelines with a few layers of rounding.
MID_TOL = 1e-9
#: Limit of long composed pipelines (biduality, Fourier round trips, flows).
LOOSE_TOL = 1e-8

# Numerical decisions, taken inside a construction or a certificate.
#: Relative singular-value cut for rank decisions.
RANK_RTOL = 1e-8
#: Absolute floor below which a singular value, norm gain or entry gap is zero.
ZERO_FLOOR = 1e-12
#: Cut of structural checks: membership, validation, faithfulness eigenvalues.
DEFAULT_TOL = 1e-9
#: Commutator norm, relative to max(1, ‖x‖), below which x commutes with y.
COMMUTE_RTOL = 1e-10
#: Residual below which two spans match, a system is closed, a vector is fixed.
SPAN_TOL = 1e-8
#: Least value the coideal search reads as nonzero (a closure condition's largest
#: coefficient, its residual on a candidate line, the distance of two lines); between
#: SPAN_TOL and this the search refuses.
SEARCH_GAP = 1e-4
#: Largest relative residual of the weight pin x·e·y ↦ xy.
PIN_TOL = 1e-7
#: Relative floor of a corner density's support, and the extremality margin.
EXTREMAL_TOL = 1e-8
#: Eigenvalue cut that reads the range of a (near-)projection.
PROJ_CUT = 0.5
#: Trace below which a mirror density counts as zero.
TRACE_FLOOR = 1e-14
#: Step between power-iteration estimates that counts as converged.
POWER_TOL = 1e-10
#: Iteration cap of the power iteration.
POWER_MAX_ITER = 10000
#: Largest condition number of the Gram matrices Â's dual basis is solved against and
#: orthonormalized by; κ·ε then stays below the tight tier.
GRAM_COND_MAX = 1e5


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack of matrices)."""
    return a.conj().swapaxes(-1, -2) if a.ndim > 1 else a.conj()


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm; for a stack of matrices, the largest one."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2, axis=(-2, -1)).max())


def probe_draws(seed: int, shape) -> np.ndarray:
    """Seeded uniform draws in [−1, 1), in C order from ``random.Random(seed).random()``,
    a stream Python keeps across versions; neither ``numpy.random`` nor OpenSSL loads."""
    rng, out = random.Random(seed), np.empty(shape)
    out.flat = [rng.random() for _ in range(out.size)]
    return 2.0 * out - 1.0


def frob_max(a: np.ndarray) -> float:
    """The largest Frobenius norm over a stack of matrices (0 if empty)."""
    return float(np.linalg.norm(a, axis=(-2, -1)).max(initial=0.0))


def _flat_rows(mats) -> np.ndarray:
    """A span's matrices as the rows of one (k, d²) array."""
    mats = np.asarray(mats, dtype=complex)
    return mats.reshape(len(mats), -1)


def check_condition(gram: np.ndarray, what: str) -> None:
    """Refuse a positive-definite Gram matrix whose condition number exceeds ``GRAM_COND_MAX``."""
    w = np.linalg.eigvalsh(gram)
    cond = w[-1] / w[0] if w[0] > 0 else np.inf
    if not cond <= GRAM_COND_MAX:
        raise ValueError(
            f"{what} has condition number {cond:.3e}, above the bound {GRAM_COND_MAX:.0e}"
        )


def orthonormalize(mats) -> np.ndarray:
    """Frobenius-orthonormal basis of the span of ``mats``.

    Deterministic: rows are stacked in input order and reduced by SVD;
    singular vectors with singular value below ``RANK_RTOL`` times the
    largest (or below ``ZERO_FLOOR``, so numerically-zero inputs yield an
    empty basis) are dropped.

    Parameters
    ----------
    mats : (k, d, d) array or list of ndarray
        Matrices of a common shape (an empty list yields an empty basis).

    Returns
    -------
    ndarray
        Pairwise Frobenius-orthonormal matrices spanning the same space,
        stacked along the first axis.
    """
    if len(mats) == 0:
        return np.zeros((0,), dtype=complex)
    shape = np.shape(mats[0])
    _, s, vh = np.linalg.svd(_flat_rows(mats), full_matrices=False)
    return vh[s > max(RANK_RTOL * s.max(initial=0.0), ZERO_FLOOR)].reshape(-1, *shape)


def span_distance(onb1, onb2) -> float:
    """Operator-norm distance ‖P₁ − P₂‖ between the projectors onto two spans.

    Computed as the gap max(‖(I−P₂)P₁‖, ‖(I−P₁)P₂‖), which equals ‖P₁ − P₂‖
    for any two orthogonal projectors.  With orthonormal rows A and B,
    ‖(I−P₂)P₁‖ = ‖A − (AB†)B‖, so only k×d² matrices are formed, never the
    d²×d² projectors.  Spans of unequal dimension are at distance exactly 1,
    with no SVD: a unit vector in the larger range and the smaller kernel
    gives ‖P₁ − P₂‖ ≥ 1, and no two projectors are further apart.
    """
    if len(onb1) != len(onb2) or len(onb1) == 0:
        return float(len(onb1) != len(onb2))
    return max(opnorm(g) for g in _gaps(onb1, onb2))


def _gaps(onb1, onb2) -> tuple[np.ndarray, np.ndarray]:
    """The gap matrices (I−P₂)P₁ and (I−P₁)P₂ of two spans, as k×d² rows."""
    a, b = _flat_rows(onb1), _flat_rows(onb2)
    ab = a @ dagger(b)
    return a - ab @ b, b - dagger(ab) @ a


def spans_match(onb1, onb2) -> bool:
    """Whether ``span_distance(onb1, onb2) < SPAN_TOL``, with an SVD only when it must.

    Each gap matrix has rank ≤ k, the common dimension, so its operator norm
    lies in [‖·‖_F/√k, ‖·‖_F]; the SVD runs only when that bracket straddles
    ``SPAN_TOL``.
    """
    if len(onb1) != len(onb2) or len(onb1) == 0:
        return len(onb1) == len(onb2)  # distance 1 or 0
    gaps = _gaps(onb1, onb2)
    upper = max(frob(g) for g in gaps)
    if SPAN_TOL <= upper < SPAN_TOL * np.sqrt(len(onb1)):
        return max(opnorm(g) for g in gaps) < SPAN_TOL
    return upper < SPAN_TOL


def leg_distance(w: np.ndarray, home, span, side: str) -> np.ndarray:
    """Frobenius distance of w (of each of a stack) from home⊗span (left) or span⊗home (right).

    Exact: regrouped by legs, w = Σ a_i⊗s_i + R (left; Σ s_i⊗a_i + R right) over the
    orthonormal ``home``, R ⊥ home⊗B(H), and dist² = ‖R‖² + Σ ‖s_i − P s_i‖², P the
    projection onto the orthonormal ``span``; ‖R‖ is the residual's own norm, so it
    keeps full relative precision.  About 2n⁵ multiply-adds per w; no n⁴×n⁴ projector.
    """
    n, lead = np.shape(home)[-1], w.shape[:-2]
    legs = {"left": (0, 2, 1, 3), "right": (1, 3, 0, 2)}.get(side)
    if legs is None:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x = w.reshape(*lead, n, n, n, n)
    x = x.transpose(*range(len(lead)), *(len(lead) + a for a in legs)).reshape(*lead, n * n, -1)
    a, rows = _flat_rows(home), _flat_rows(span)
    s = a.conj() @ x
    r = np.linalg.norm(x - a.T @ s, axis=(-2, -1))
    gap = np.linalg.norm(s - (s @ dagger(rows)) @ rows, axis=(-2, -1))
    return np.hypot(r, gap)


def intersect_spans(onb1, onb2) -> np.ndarray:
    """Intersection of two matrix spans.

    Computed from the Hermitian operator P₁P₂P₁ on vectorized matrices:
    eigenvectors with eigenvalue above ``PROJ_CUT`` (1/2) span the
    intersection, which is robust to tolerance-level misalignment of the
    two spans.
    """
    if len(onb1) == 0 or len(onb2) == 0:
        return np.zeros((0,), dtype=complex)
    shape = np.shape(onb1[0])
    r1 = _flat_rows(onb1)  # k1 × D, orthonormal rows
    # Compress P1 P2 P1 to the coordinates of span1: M = C C† with C = r1 r2†.
    c = r1 @ dagger(_flat_rows(onb2))
    w, u = np.linalg.eigh(c @ dagger(c))
    keep = w > PROJ_CUT
    if not np.any(keep):
        return np.zeros((0,), dtype=complex)
    basis = dagger(u[:, keep]) @ r1  # rows: intersection vectors in ambient coords
    return orthonormalize(basis.reshape(-1, *shape))


def null_space(a: np.ndarray, atol: float = ZERO_FLOOR) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a`` via SVD.

    The rank cutoff is ``RANK_RTOL`` relative to the largest singular value,
    with the absolute floor ``atol`` so that a numerically zero matrix has
    full null space.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    try:
        # Economy SVD suffices when rows ≥ cols (vh is already square).
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        scale = s[0] if s.size else 0.0
        rank = int(np.sum(s > max(RANK_RTOL * scale, atol)))
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
        keep = w <= max(RANK_RTOL * RANK_RTOL * scale, atol * atol, eps_floor)
        return v[:, keep]


def herm_power(a: np.ndarray, p: complex) -> np.ndarray:
    """Power a^p of a positive-semidefinite Hermitian matrix via eigh.

    ``p`` may be complex (used for imaginary powers a^{it}); eigenvalues
    are clipped at 0 before powering.
    """
    return herm_powers(a, (p,))[0][0]


def herm_powers(a: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """:func:`herm_power` of ``a`` for each of ``powers``, from one eigh, as a
    stack, and the ascending eigenvalues of a's Hermitian part before clipping."""
    eigs, u = np.linalg.eigh((a + dagger(a)) / 2.0)
    w = np.clip(eigs, 0.0, None)
    for p in powers:
        if np.iscomplexobj(np.asarray(p)) or not float(np.real(p)).is_integer():
            if np.any(w <= 0) and (np.real(p) < 0 or np.imag(p) != 0):
                raise np.linalg.LinAlgError("non-invertible positive matrix power")
    exps = np.asarray(powers)[:, None]
    vals = np.zeros((len(exps), len(w)), dtype=np.result_type(w, exps))
    np.power(w, exps, out=vals, where=w > 0)
    return (u * vals[:, None, :]) @ dagger(u), eigs
