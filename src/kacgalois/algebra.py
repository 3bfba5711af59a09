"""Finite-dimensional *-algebras of complex matrices.

The central object is :class:`MMAlgebra`, a multimatrix (finite-dimensional
von Neumann) algebra given by a Hilbert–Schmidt-orthonormal basis inside the
d×d complex matrices.  On top of it the module provides generated-subalgebra
closures, commutants, faithful states, GNS representations with modular
data, state-preserving conditional expectations, and the central
decomposition: deterministic matrix-unit systems, central projections and
corner bases, all read off one certified generic split of the algebra
(:func:`matrix_units`).

All span comparisons are projector-based; no construction depends on a basis
choice.  :class:`MMAlgebra`'s ``coeffs``, ``element`` and ``residual`` are the
package's one implementation of coefficients in an orthonormal operator span.
Every operation is pure, so everything here is safe to reuse across computations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .linalg import COMMUTE_RTOL, DEFAULT_TOL, PROJ_CUT, RANK_RTOL, ZERO_FLOOR
from .linalg import dagger, frob
from .linalg import opnorm  # noqa: F401  # unused here, but reached as ``algebra.opnorm``


class ShapeError(ValueError):
    """An input matrix has the wrong dimensions."""


class SubalgebraError(ValueError):
    """A claimed subalgebra fails closure, unit, or containment checks."""


class NoExpectationError(RuntimeError):
    """No state-preserving conditional expectation exists.

    Carries the modular-invariance residual that witnesses the failure.
    """

    def __init__(self, residual: float):
        super().__init__(
            f"subalgebra is not invariant under the modular flow "
            f"(invariance residual {residual:.3e}); no state-preserving "
            f"conditional expectation exists"
        )
        self.residual = residual

    def __reduce__(self):
        # The default rebuilds from the formatted message, which __init__
        # cannot take; rebuild from the residual so the error crosses a
        # process boundary unchanged.
        return type(self), (self.residual,)


class MMAlgebra:
    """A unital *-closed algebra of d×d matrices.

    Attributes
    ----------
    ambient_dim : int
        The size d of the ambient matrix algebra.
    basis : (k, d, d) ndarray
        Orthonormal basis under the normalized Hilbert–Schmidt inner
        product Tr(a†b)/d (so each element has Frobenius norm √d), as the
        constructor takes it.
    unit : ndarray
        The unit of the algebra, the ambient identity.

    The basis is stored once, Frobenius-normalized, as the read-only
    (k, d, d) array returned by :meth:`onb`; projections and coefficients
    are single contractions against it.
    """

    def __init__(self, ambient_dim: int, basis):
        self.ambient_dim = int(ambient_dim)
        d = self.ambient_dim
        onb = np.asarray(basis, dtype=complex).reshape(-1, d, d) / np.sqrt(d)
        onb.flags.writeable = False
        self._onb = onb
        self.unit = np.eye(d, dtype=complex)

    @property
    def basis(self) -> np.ndarray:
        return self._onb * np.sqrt(self.ambient_dim)

    @property
    def dim(self) -> int:
        """Linear dimension of the algebra."""
        return len(self._onb)

    def onb(self) -> np.ndarray:
        """Frobenius-orthonormal basis, a read-only (k, d, d) array."""
        return self._onb

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of ``x`` (or of each of a stack) onto the span."""
        return self.element(self.coeffs(x))

    def residual(self, x: np.ndarray) -> float:
        """Frobenius distance from ``x`` to the span; for a stack, the largest."""
        return la.frob_max(x - self.project(x))

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coefficients ⟨b, x⟩ of ``x`` (shape (..., d, d)) in the orthonormal basis.

        One matmul x·b̄ᵀ over the basis rows.  It equals conj(x̄·bᵀ) to the bit,
        so the operand with fewer rows is the one conjugated (copied).
        """
        lead, rows = np.shape(x)[:-2], self._rows()
        flat = np.reshape(x, (-1, rows.shape[1]))
        if len(flat) > len(rows):
            return (flat @ rows.conj().T).reshape(*lead, self.dim)
        return np.conj(np.conj(flat) @ rows.T).reshape(*lead, self.dim)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """Linear combination(s) of the Frobenius-orthonormal basis."""
        d = self.ambient_dim
        return (np.asarray(coeffs) @ self._rows()).reshape(*np.shape(coeffs)[:-1], d, d)

    def _rows(self) -> np.ndarray:
        """The orthonormal basis as the rows of a (k, d²) view."""
        return self._onb.reshape(self.dim, self.ambient_dim**2)

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        """(block size, multiplicity) of each central summand, in :func:`matrix_units` order."""
        return [(b.size, b.multiplicity) for b in matrix_units(self)]

    @functools.cached_property
    def _blocks(self) -> list[MatrixUnitBlock]:
        return _central_decomposition(self)

    def validate(self) -> dict:
        """Closure certificate: is the span a unital *-subalgebra?

        The largest Frobenius distances from the span of the basis products,
        of the basis adjoints and of the unit, each gated at ``DEFAULT_TOL·d``.
        Together they are the whole proof; no matrix units are formed
        (:func:`matrix_units` certifies its own split).
        """
        onb = self._onb
        prod = self.residual(onb[:, None] @ onb[None])
        adj = self.residual(dagger(onb))
        unit_in = self.residual(self.unit)
        report = {
            "product_closure": prod,
            "adjoint_closure": adj,
            "unit_membership": unit_in,
        }
        report["passed"] = all(v < DEFAULT_TOL * self.ambient_dim for v in report.values())
        return report


def from_span(mats: list[np.ndarray], ambient_dim: int) -> MMAlgebra:
    """Wrap an already-closed span as an :class:`MMAlgebra`.

    The span is orthonormalized but *not* closed; closure is the caller's
    responsibility (use :func:`mm_from_generators` otherwise).
    """
    return from_onb(la.orthonormalize(mats), ambient_dim)


def from_onb(onb, ambient_dim: int) -> MMAlgebra:
    """Wrap a Frobenius-orthonormal basis of an already-closed span."""
    return MMAlgebra(ambient_dim=ambient_dim, basis=onb * np.sqrt(ambient_dim))


def mm_from_generators(gens: list[np.ndarray], ambient_dim: int) -> MMAlgebra:
    """Smallest unital *-closed algebra containing ``gens``.

    The span of the identity, the generators, and their adjoints is closed
    under multiplication by re-multiplying basis pairs until the products
    leave a residual below ``RANK_RTOL`` (so no singular value they add
    passes the rank cut) or a round adds no dimension.  The empty generator
    set yields ℂ·1.
    """
    d = ambient_dim
    if d < 1:
        raise ShapeError("ambient dimension must be positive")
    span = [np.eye(d, dtype=complex)]
    for g in gens:
        g = np.asarray(g, dtype=complex)
        if g.shape != (d, d):
            raise ShapeError(f"generator has shape {g.shape}, expected ({d},{d})")
        span.append(g)
        span.append(dagger(g))
    onb = la.orthonormalize(span)
    while True:
        products = (onb[:, None] @ onb[None]).reshape(-1, d * d)
        rows = onb.reshape(len(onb), -1)
        if frob(products - (products @ dagger(rows)) @ rows) < RANK_RTOL:
            break
        size, onb = len(onb), la.orthonormalize(np.concatenate([rows, products]).reshape(-1, d, d))
        if len(onb) == size:
            break
    return from_onb(onb, d)


# Commutator entries :func:`_commute` forms at once (256 KB of complex scratch
# per GEMM product), unless a single k×k commutator is larger.
_COMMUTE_BLOCK = 1 << 14


def _commute(mats, others) -> bool:
    """Whether each x in ``mats`` commutes with every element of ``others``.

    A block of b elements x and c elements y at a time, b·c·k² ≤
    ``_COMMUTE_BLOCK`` entries, in two GEMMs: the x-block as (b·k, k) times
    the y-block stacked as (k, c·k) gives every x·y, the y-block as (c·k, k)
    times the x-block stacked as (k, b·k) every y·x.  The second is
    subtracted from the first in place.  The tolerance is ``COMMUTE_RTOL``
    relative to max(1, ‖x‖), and an empty ``mats`` fails.
    """
    mats, others = np.asarray(mats), np.asarray(others)
    if len(mats) == 0:
        return False
    k = mats.shape[-1]
    pairs = max(1, _COMMUTE_BLOCK // (k * k))
    step_y = max(1, min(len(others), pairs))
    step_x = pairs // step_y
    for lo_y in range(0, len(others), step_y):
        ys = others[lo_y : lo_y + step_y]
        c = len(ys)
        ys_rows, ys_cols = ys.reshape(c * k, k), ys.transpose(1, 0, 2).reshape(k, c * k)
        for lo in range(0, len(mats), step_x):
            xs = mats[lo : lo + step_x]
            b = len(xs)
            comm = (xs.reshape(b * k, k) @ ys_cols).reshape(b, k, c, k)
            yx = ys_rows @ xs.transpose(1, 0, 2).reshape(k, b * k)
            comm -= yx.reshape(c, k, b, k).transpose(2, 1, 0, 3)
            # |z|² summed over each pair's k×k entries, read as real pairs.
            flat = comm.view(float)
            norms = np.sqrt(np.einsum("ipjq,ipjq->ij", flat, flat))
            scale = COMMUTE_RTOL * np.maximum(1.0, np.linalg.norm(xs, axis=(-2, -1)))
            if not np.all(norms < scale[:, None]):
                return False
    return True


def commutant(alg: MMAlgebra) -> MMAlgebra:
    """Commutant of a unital ``alg`` inside the full ambient matrix algebra.

    Read off the matrix units (Goodman–de la Harpe–Jones, *Coxeter Graphs
    and Towers of Algebras*, ch. 2): with W an orthonormal basis of the
    range of e₁₁ and v_a = e_a1·W, a summand of size m and multiplicity μ
    contributes the μ² elements Σ_a v_a[:, p] v_a[:, q]† / √m.  These are
    Frobenius-orthonormal by construction, so no SVD follows; the result is
    certified by :func:`_certify_commutant`.

    Raises
    ------
    SubalgebraError
        If the ambient identity is not in the span, or a certificate fails.
    """
    d = alg.ambient_dim
    eye = np.eye(d, dtype=complex)
    missing = alg.residual(eye)
    if missing >= DEFAULT_TOL * d:
        raise SubalgebraError(
            f"the unit of the {d}x{d} matrices is not in the span (distance "
            f"{missing:.3e}); the commutant is built for unital algebras only"
        )
    blocks = matrix_units(alg)
    parts = []
    for block in blocks:
        w = _range_onb(block.units[0, 0])
        # cols[p][:, a] = v_a[:, p], so cols[p] @ cols[q]† = Σ_a v_a[:, p] v_a[:, q]†.
        cols = (block.units[:, 0] @ w).transpose(2, 1, 0)
        units = (cols[:, None] @ dagger(cols)[None]).reshape(-1, d, d)
        parts.append(units / np.sqrt(block.size))
    comm = MMAlgebra(ambient_dim=d, basis=np.concatenate(parts) * np.sqrt(d))
    _certify_commutant(alg, blocks, comm)
    return comm


def _certify_commutant(
    alg: MMAlgebra, blocks: list[MatrixUnitBlock], comm: MMAlgebra
) -> None:
    """Raise :class:`SubalgebraError` unless ``comm`` is the commutant of ``alg``.

    Checks the counts Σ m·μ = d, Σ m² = dim alg and dim comm = Σ μ² of the
    reported summands, then that ``comm`` commutes with ``alg``'s basis.
    """
    d = alg.ambient_dim
    covered = sum(b.size * b.multiplicity for b in blocks)
    if covered != d:
        raise SubalgebraError(
            f"matrix units cover Σ m·μ = {covered} dimensions of an ambient "
            f"dimension {d}"
        )
    block_dim = sum(b.size**2 for b in blocks)
    if block_dim != alg.dim:
        raise SubalgebraError(
            f"matrix units give Σ m² = {block_dim} for an algebra of dimension {alg.dim}"
        )
    comm_dim = sum(b.multiplicity**2 for b in blocks)
    if comm.dim != comm_dim:
        raise SubalgebraError(
            f"commutant has dimension {comm.dim}, not Σ μ² = {comm_dim}"
        )
    if not _commute(comm.onb(), alg.onb()):
        raise SubalgebraError(
            "the commutant built from matrix units does not commute with the algebra"
        )


def intersect(a: MMAlgebra, b: MMAlgebra) -> MMAlgebra:
    """Span intersection of two algebras (both *-closed, so the result is)."""
    return from_onb(la.intersect_spans(a.onb(), b.onb()), a.ambient_dim)


def relative_commutant(mats: np.ndarray, home: np.ndarray) -> tuple[np.ndarray, float]:
    """span(home) ∩ {mats}′, with its largest Frobenius commutator with ``mats``.

    The coefficients c with Σ_α c_α·[home_α, m] = 0 for all m ∈ ``mats`` are
    one null space over the orthonormal basis ``home``, so Σ_α c_α·home_α is
    an orthonormal basis as it stands; the commutator certifies the rank cut.
    No matrix units are formed, so the result depends on ``home`` and
    ``mats`` alone, not on a generic split.
    """
    comm = home[:, None] @ mats[None] - mats[None] @ home[:, None]
    inter = np.tensordot(la.null_space(comm.reshape(len(home), -1).T).T, home, axes=1)
    return inter, la.frob_max(inter[:, None] @ mats[None] - mats[None] @ inter[:, None])


# ---------------------------------------------------------------------------
# Central decomposition and matrix units
# ---------------------------------------------------------------------------


def _range_onb(p: np.ndarray) -> np.ndarray:
    """Columns: orthonormal basis of the range of a projection."""
    w, u = np.linalg.eigh((p + dagger(p)) / 2.0)
    return u[:, w > PROJ_CUT]


@dataclass(frozen=True)
class MatrixUnitBlock:
    """A full system of matrix units for one central summand.

    ``units[i, j]`` is eᵢⱼ with eᵢⱼ e_{kl} = δⱼₖ e_{il}, eᵢⱼ† = eⱼᵢ, and
    Σᵢ eᵢᵢ equal to the central projection of the summand; ``units`` is a
    read-only (size, size, d, d) array.
    """

    projection: np.ndarray
    size: int
    multiplicity: int
    units: np.ndarray

    def corner(self) -> np.ndarray:
        """Frobenius-orthonormal basis of the corner z·A·z: the units over √μ."""
        d = self.units.shape[-1]
        return self.units.reshape(-1, d, d) / np.sqrt(self.multiplicity)


def matrix_units(alg: MMAlgebra) -> list[MatrixUnitBlock]:
    """Deterministic matrix-unit systems for every central summand.

    Built once per algebra by :func:`_central_decomposition` and cached;
    blocks are ordered by block size, then by a rounded fingerprint of the
    central projection.
    """
    return list(alg._blocks)


# Generic draws a structure pass tries; draw a takes the seed 100 + a.
_ATTEMPTS = 12


@functools.cache
def _draw_coefficients(attempt: int, k: int) -> np.ndarray:
    """Read-only (2, k) complex coefficients of draw ``attempt``: ``probe_draws(100 + attempt)``."""
    u = la.probe_draws(100 + attempt, (2, 2, k))
    c = u[0] + 1j * u[1]
    c.flags.writeable = False
    return c


def _generic_draw(onb: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """A generic g and a generic hermitian h = g₂ + g₂† in span(onb), seeded 100 + attempt."""
    g, g2 = np.tensordot(_draw_coefficients(attempt, len(onb)), onb, axes=1)
    return g, g2 + dagger(g2)


def _central_decomposition(alg: MMAlgebra) -> list[MatrixUnitBlock]:
    """Matrix units of A ≅ ⊕ M_m ⊗ 1_μ, read off one generic split.

    After Murota, Kanno, Kojima and Kojima (*A numerical algorithm for
    block-diagonal decomposition of matrix \\*-algebras*, Japan J. Indust.
    Appl. Math. 27, 2010): for a generic hermitian h ∈ A, A ∩ {h}′ is a
    maximal abelian subalgebra of dimension s = Σ m, read off one null space
    with the absolute floor ZERO_FLOOR·‖onb‖·‖h‖, and the eigenvalues of h
    fall into s clusters, cut at the s − 1 largest gaps, whose spectral
    projections are the minimal projections of A.  Two
    of them lie in one summand exactly when p_a·g·p_b ≠ 0 (relative to ‖g‖
    at RANK_RTOL) for a second generic g ∈ A.  In a summand with minimal
    projections f₁, …, f_m, e₁₁ = f₁ and e₁ⱼ = f₁·g·fⱼ rescaled to norm √μ,
    each projected onto A, give the matrix units eᵢⱼ = e₁ᵢ†·e₁ⱼ
    (Goodman–de la Harpe–Jones, *Coxeter Graphs and Towers of Algebras*,
    ch. 2).

    A draw is kept only when certified: e₁ᵢ·e₁ⱼ† = δᵢⱼ·e₁₁ (which makes e₁₁
    a projection and gives every matrix-unit relation), every unit lies in
    A, the block projections Σᵢ eᵢᵢ sum to the unit, and Σ m² = dim A, each
    at DEFAULT_TOL·10.  Linearly independent units of A that number dim A
    span it, so the certificate covers the centre, the corners and the
    minimal projections at once.  A draw that fails it is replaced by the
    next seed.
    """
    onb, d = alg.onb(), alg.ambient_dim
    s = 0
    for attempt in range(_ATTEMPTS):
        g, h = _generic_draw(onb, attempt)
        comm = (onb @ h - h @ onb).reshape(len(onb), d * d).T
        s = la.null_space(comm, atol=ZERO_FLOOR * frob(onb) * frob(h)).shape[1]
        if s == 0:
            raise SubalgebraError(
                "center of the span is empty; the input is not a unital algebra"
            )
        blocks = _certified_split(alg, g, h, s)
        if blocks is not None:
            blocks.sort(
                key=lambda b: (
                    b.size,
                    round(float(np.real(np.trace(b.projection))), 6),
                    tuple(np.round(np.real(np.diag(b.projection)), 6)),
                    tuple(np.round(np.imag(np.diag(b.projection)), 6)),
                )
            )
            return blocks
    raise SubalgebraError(
        f"could not split a projection into {s} minimal pieces of the span"
    )


def _certified_split(
    alg: MMAlgebra, g: np.ndarray, h: np.ndarray, s: int
) -> list[MatrixUnitBlock] | None:
    """The matrix units one draw (g, h) gives, or None if they fail the certificate.

    ``s`` is the dimension of A ∩ {h}′; see :func:`_central_decomposition`.
    """
    w, frames = np.linalg.eigh((h + dagger(h)) / 2.0)
    if len(w) < s:
        return None
    cuts = np.sort(np.argsort(np.diff(w))[len(w) - s :]) + 1
    starts = np.concatenate([[0], cuts])
    bounds = np.append(starts, len(w))
    gk = dagger(frames) @ g @ frames
    # link[a, b]: the compression p_a·g·p_b of g between two clusters is not zero.
    sq = np.add.reduceat(np.add.reduceat(np.abs(gk) ** 2, starts, axis=0), starts, axis=1)
    link = sq > (RANK_RTOL * frob(g)) ** 2
    link |= link.T
    np.fill_diagonal(link, True)

    tol = DEFAULT_TOL * 10
    free = np.ones(s, dtype=bool)
    blocks, relations = [], 0.0
    for a in range(s):
        if not free[a]:
            continue
        group = np.flatnonzero(link[a] & free)
        free[group] = False
        first = slice(bounds[a], bounds[a + 1])
        v1 = frames[:, first]
        mult = v1.shape[1]
        row = [v1 @ dagger(v1)]
        for b in group[1:]:
            vb = frames[:, bounds[b] : bounds[b + 1]]
            e1b = v1 @ gk[first, bounds[b] : bounds[b + 1]] @ dagger(vb)
            row.append(e1b * (np.sqrt(mult) / frob(e1b)))
        # An eigenvector error that mixes summands leaves A, so projecting the
        # row onto A removes it to first order.
        row = alg.project(np.stack(row))
        m = len(row)
        gram = row[:, None] @ dagger(row)[None]
        relations = max(relations, la.frob_max(gram - np.eye(m)[:, :, None, None] * row[0]))
        units = dagger(row)[:, None] @ row[None]
        units.flags.writeable = False
        z = units[np.arange(m), np.arange(m)].sum(axis=0)
        blocks.append(MatrixUnitBlock(projection=z, size=m, multiplicity=mult, units=units))

    d = alg.ambient_dim
    if (
        sum(b.size**2 for b in blocks) != alg.dim
        or relations >= tol
        or frob(sum(b.projection for b in blocks) - alg.unit) >= tol
        or alg.residual(np.concatenate([b.units.reshape(-1, d, d) for b in blocks])) >= tol
    ):
        return None
    return blocks


# ---------------------------------------------------------------------------
# States, GNS, modular theory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateData:
    """A positive functional x ↦ Tr(density·x) on an ambient matrix algebra.

    Faithfulness on the algebra of interest is checked where it matters
    (:func:`gns`, :func:`conditional_expectation`, ``make_inclusion``).
    """

    density: np.ndarray

    def gram(self, mats: np.ndarray) -> np.ndarray:
        """The Hermitian part of the Gram matrix φ(a†b) over a stack of matrices."""
        k = len(mats)
        gram = np.conj(mats).reshape(k, -1) @ (mats @ self.density).reshape(k, -1).T
        return (gram + dagger(gram)) / 2.0


def trace_state(d: int) -> StateData:
    """The normalized trace on the d×d matrices."""
    return StateData(density=np.eye(d, dtype=complex) / d)


def density_in(alg: MMAlgebra, phi: StateData) -> np.ndarray:
    """The element ρ ∈ alg with Tr(ρ x) = φ(x) for all x ∈ alg.

    For *-closed spans this is the HS-orthogonal projection of the ambient
    density onto the span.
    """
    rho = alg.project(phi.density)
    return (rho + dagger(rho)) / 2.0


@dataclass(frozen=True)
class GnsData:
    """GNS representation of (alg, φ) in standard form, with modular data.

    The GNS space is L²(alg): ℂ^k (k = dim alg) as the coefficients of an
    element of alg in its orthonormal basis, with the Hilbert–Schmidt inner
    product, and xΩ = x·ρ^{1/2} for ρ the density of φ in alg (Haagerup,
    Math. Scand. 37, 1975).  ``lam`` maps an ambient matrix in the algebra
    to its GNS vector and ``coord`` is the matrix of right multiplication by
    ρ^{1/2}, so coord†·coord is the Gram matrix φ(a†b).  ``rep`` gives the
    left-regular operator an element acts by, and the conjugation
    J: ξ ↦ ξ†, stored as the linear matrix ``mj`` with J(v) = mj·conj(v),
    do not depend on φ.  The modular operator ``modular`` is ξ ↦ ρ·ξ·ρ⁻¹,
    positive invertible, and S = J·modular^{1/2} implements x Ω ↦ x* Ω.
    The certificate ``residuals`` runs on its first read, once.
    """

    space_dim: int
    rep_basis: np.ndarray  # (k, k, k): the operators of the basis elements
    coord: np.ndarray  # coefficient vectors -> GNS coordinates
    coord_inv: np.ndarray
    cyclic: np.ndarray
    mj: np.ndarray
    modular: np.ndarray
    algebra: MMAlgebra

    def rep(self, x: np.ndarray) -> np.ndarray:
        """Operator on the GNS space by which ``x`` (or each of a stack) acts."""
        return np.tensordot(self.algebra.coeffs(x), self.rep_basis, axes=(-1, 0))

    def lam(self, x: np.ndarray) -> np.ndarray:
        """GNS vector of an algebra element (rows, for a stack of elements)."""
        return self.algebra.coeffs(x) @ self.coord.T

    def adj_j(self, x: np.ndarray) -> np.ndarray:
        """The map x ↦ J x J on operators of the GNS space (linear in x)."""
        return self.mj @ np.conj(x) @ np.conj(self.mj)

    @functools.cached_property
    def residuals(self) -> dict:
        """The certificate, on first read; no residual needs an SVD.

        ``rep_multiplicative`` spot-checks the first 6×6 basis pairs and
        ``rep_star`` every adjoint; ``j_cyclic``, ``j_involution``,
        ``modular_cyclic`` and ``j_modular_j`` read JΩ = Ω, J² = 1, ΔΩ = Ω and
        JΔJ = Δ⁻¹.  The operator identities read the largest Frobenius norm of
        a defect, an upper bound on its operator norm.  S is built from x ↦ x†
        alone, with no J: ``s_star`` reads S·Λ(x) = Λ(x†) over the basis and
        ``j_polar`` that S = J·Δ^{1/2}, both as the largest column norm.
        """
        alg, k, rep = self.algebra, self.space_dim, self.rep_basis
        stack = alg.onb()
        coord, mj, modular, cyclic = self.coord, self.mj, self.modular, self.cyclic
        star_cols = star_matrix(alg)
        res = {}
        spot = stack[: min(k, 6)]
        prods = (spot[:, None] @ spot[None])[:, :, None] @ stack
        rep_spot = rep[: len(spot)]
        res["rep_multiplicative"] = la.frob_max(
            rep_spot[:, None] @ rep_spot[None] - alg.coeffs(prods).swapaxes(2, 3)
        )
        res["rep_star"] = la.frob_max(dagger(rep) - np.tensordot(star_cols.T, rep, axes=1))
        res["j_cyclic"] = float(np.linalg.norm(mj @ np.conj(cyclic) - cyclic))
        res["j_involution"] = la.frob_max(mj @ np.conj(mj) - np.eye(k))
        res["modular_cyclic"] = float(np.linalg.norm(modular @ cyclic - cyclic))
        res["j_modular_j"] = la.frob_max(self.adj_j(modular) - np.linalg.inv(modular))
        # S(xΩ) = x*Ω as the conjugate-linear map v ↦ ms·conj(v).
        ms = coord @ star_cols @ np.conj(self.coord_inv)
        s_cols = ms @ np.conj(coord @ alg.coeffs(stack).T) - coord @ star_cols
        res["s_star"] = float(np.linalg.norm(s_cols, axis=0).max())
        polar = ms - mj @ np.conj(la.herm_power(modular, 0.5))
        res["j_polar"] = float(np.linalg.norm(polar, axis=0).max())
        return res


def left_regular(alg: MMAlgebra) -> np.ndarray:
    """The (k, k, k) left-regular operators of the basis: left[i, a, b] = ⟨a, bᵢ·b⟩."""
    stack = alg.onb()
    return alg.coeffs(stack[:, None] @ stack[None]).swapaxes(1, 2)


def star_matrix(alg: MMAlgebra) -> np.ndarray:
    """The k×k matrix ⟨a, b†⟩ of x ↦ x†: J of L²(alg) has J(v) = star·conj(v)."""
    stack = alg.onb()
    return alg.coeffs(dagger(stack)).T


def gns(alg: MMAlgebra, phi: StateData) -> GnsData:
    """GNS construction for a faithful state on a multimatrix algebra, in standard form.

    ρ^{1/2}, ρ^{-1/2} and ρ⁻¹ are taken on the range of the unit, where the
    density ρ of φ in ``alg`` is invertible.  Only the faithfulness guard
    runs here; :attr:`GnsData.residuals` runs on its first read.

    Raises
    ------
    ValueError
        If the state is not faithful on the algebra (degenerate Gram matrix).
    """
    stack = alg.onb()
    w = np.linalg.eigvalsh(phi.gram(stack))
    if w.min() < DEFAULT_TOL:
        raise ValueError(
            f"state is not faithful on the algebra (Gram eigenvalue {w.min():.3e})"
        )
    rho = density_in(alg, phi)
    w, u = np.linalg.eigh(rho)
    keep = w > RANK_RTOL * w.max()
    u, w = u[:, keep], w[keep]
    half, half_inv, rho_inv = ((u * w**p) @ dagger(u) for p in (0.5, -0.5, -1.0))
    # Column j of coord is the coefficient vector of bⱼ·ρ^{1/2}.
    coord = alg.coeffs(stack @ half).T
    modular = alg.coeffs(rho @ stack @ rho_inv).T
    return GnsData(
        space_dim=len(stack),
        rep_basis=left_regular(alg),
        coord=coord,
        coord_inv=alg.coeffs(stack @ half_inv).T,
        cyclic=coord @ alg.coeffs(alg.unit),
        mj=star_matrix(alg),
        modular=(modular + dagger(modular)) / 2.0,
        algebra=alg,
    )


# ---------------------------------------------------------------------------
# Conditional expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondExpectation:
    """A conditional expectation from a matrix algebra onto a subalgebra.

    Stored as a linear map on vectorized ambient matrices with range inside
    the subalgebra; ``preserving_state`` is the state it preserves, when one
    was used to construct it.
    """

    matrix: np.ndarray  # d² × d² acting on vec(x)
    domain: MMAlgebra
    target: MMAlgebra
    preserving_state: StateData | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """E(x), for one matrix or each of a stack."""
        flat = np.reshape(x, (*np.shape(x)[:-2], -1))
        return (flat @ self.matrix.T).reshape(np.shape(x))

    def validate(self) -> dict:
        """Residuals: idempotence, unit, bimodularity, positivity, state.

        Bimodularity is read as E(a·x) = a·E(x) and E(x·b) = E(x)·b over bases of
        N and M; positivity on E(g†g) for g the projections of ``probe_draws(0)``.
        """
        m_onb = self.domain.onb()
        n_onb = self.target.onb()[:, None]
        e_m = self.apply(m_onb)
        idem = la.frob_max(self.apply(e_m) - e_m)
        unit = frob(self.apply(self.domain.unit) - self.target.unit)
        bimod = max(
            la.frob_max(self.apply(n_onb @ m_onb) - n_onb @ e_m),
            la.frob_max(self.apply(m_onb @ n_onb) - e_m @ n_onb),
        )
        pos = 0.0
        d = self.domain.ambient_dim
        for u in la.probe_draws(0, (5, 2, d, d)):
            g = self.domain.project(u[0] + 1j * u[1])
            y = self.apply(dagger(g) @ g)
            pos = min(pos, float(np.linalg.eigvalsh((y + dagger(y)) / 2.0).min()))
        rep = {
            "idempotent": idem,
            "unital": unit,
            "bimodule": bimod,
            "min_positivity_eig": pos,
        }
        if self.preserving_state is not None:
            dens = self.preserving_state.density
            rep["state_preserving"] = float(
                np.abs(np.einsum("ij,kji->k", dens, e_m - m_onb)).max()
            )
        rep["passed"] = all(
            (v > -DEFAULT_TOL * 10 if key == "min_positivity_eig" else v < DEFAULT_TOL * 10)
            for key, v in rep.items()
            if key != "passed"
        )
        return rep


def phi_onb(basis: np.ndarray, phi: StateData) -> np.ndarray:
    """Orthonormalize a stack of matrices under the inner product φ(a†b)."""
    w, u = np.linalg.eigh(phi.gram(basis))
    if w.min() < DEFAULT_TOL:
        raise ValueError("state is not faithful on the subalgebra")
    t = u / np.sqrt(w)  # columns: φ-orthonormal coefficient vectors
    return np.tensordot(t.T, basis, axes=1)


def conditional_expectation(big: MMAlgebra, small: MMAlgebra, phi: StateData) -> CondExpectation:
    """The unique φ-preserving conditional expectation of ``big`` onto ``small``.

    Exists precisely when the subalgebra is invariant under the modular flow
    of φ; that criterion is verified algebraically (ρ n ρ⁻¹ ∈ small for a
    basis of the subalgebra, ρ the density of φ in ``big``) before the map
    is built as the φ-orthogonal projection onto the subalgebra.

    Raises
    ------
    SubalgebraError
        If ``small`` is not contained in ``big``.
    NoExpectationError
        If the modular-invariance criterion fails; carries the residual.
    """
    if big.residual(small.onb()) >= DEFAULT_TOL * 100:
        raise SubalgebraError("claimed subalgebra is not contained in the algebra")
    rho = density_in(big, phi)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < DEFAULT_TOL:
        raise ValueError(f"state not faithful on the algebra (eig {eigs.min():.3e})")
    rho_inv = np.linalg.inv(rho)
    small_onb = small.onb()
    inv_res = small.residual(rho @ small_onb @ rho_inv)
    if inv_res > DEFAULT_TOL * 100 * max(1.0, float(np.linalg.norm(rho_inv, 2))):
        raise NoExpectationError(inv_res)

    phi_basis = phi_onb(small_onb, phi)
    # E = Σₙ vec(n) ⊗ φ(n† ·), and φ(n† x) = ⟨vec(n·D†), vec(x)⟩ with D the density of φ.
    k = len(phi_basis)
    funcs = (phi_basis @ dagger(phi.density)).reshape(k, -1)
    mat = phi_basis.reshape(k, -1).T @ np.conj(funcs)
    return CondExpectation(matrix=mat, domain=big, target=small, preserving_state=phi)
