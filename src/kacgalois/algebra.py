"""Finite-dimensional *-algebras of complex matrices.

The central object is :class:`MMAlgebra`, a multimatrix (finite-dimensional
von Neumann) algebra given by a Hilbert–Schmidt-orthonormal basis inside the
d×d complex matrices.  On top of it the module provides generated-subalgebra
closures, commutants, central decompositions with deterministic matrix-unit
systems, faithful states, GNS representations with modular data, and
state-preserving conditional expectations.

All span comparisons are projector-based; no construction depends on a basis
choice.  Every operation is pure, so everything here is safe to reuse across
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .linalg import DEFAULT_TOL, RANK_RTOL, dagger, frob, opnorm


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


@dataclass(frozen=True)
class MMAlgebra:
    """A unital *-closed algebra of d×d matrices.

    Attributes
    ----------
    ambient_dim : int
        The size d of the ambient matrix algebra.
    basis : tuple of ndarray
        Orthonormal basis under the normalized Hilbert–Schmidt inner
        product Tr(a†b)/d (so each element has Frobenius norm √d).
    unit : ndarray
        The unit of the algebra (the ambient identity unless the algebra
        is a corner).
    """

    ambient_dim: int
    basis: tuple
    unit: np.ndarray
    _central: list = field(default_factory=list, compare=False, repr=False)

    @property
    def dim(self) -> int:
        """Linear dimension of the algebra."""
        return len(self.basis)

    @property
    def contains_unit(self) -> bool:
        """Whether the ambient identity lies in the span."""
        eye = np.eye(self.ambient_dim, dtype=complex)
        return la.span_residual(eye, self.onb()) < DEFAULT_TOL * self.ambient_dim

    def onb(self) -> list[np.ndarray]:
        """Frobenius-orthonormal basis (normalized-HS basis rescaled)."""
        s = np.sqrt(self.ambient_dim)
        return [b / s for b in self.basis]

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of ``x`` onto the algebra's span."""
        return la.project_span(x, self.onb())

    def residual(self, x: np.ndarray) -> float:
        """Frobenius distance from ``x`` to the span."""
        return frob(x - self.project(x))

    def contains(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Span membership up to ``tol``, relative to max(1, ‖x‖)."""
        return self.residual(x) < tol * max(1.0, frob(x))

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of ``x`` in the Frobenius-orthonormal basis."""
        return np.array([la.hs_inner(b, x) for b in self.onb()])

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """Linear combination of the Frobenius-orthonormal basis."""
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for c, b in zip(coeffs, self.onb()):
            out += c * b
        return out

    def central_decomposition(self) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
        """Minimal central projections and (block size, multiplicity) pairs.

        Computed lazily and cached.  Blocks are deterministically ordered by
        block size, then by a rounded fingerprint of the projection.
        """
        if not self._central:
            self._central.append(_central_decomposition(self))
        return self._central[0]

    @property
    def central_projections(self) -> list[np.ndarray]:
        return self.central_decomposition()[0]

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return self.central_decomposition()[1]

    def validate(self, tol: float = DEFAULT_TOL) -> dict:
        """Residuals for the structural invariants of the algebra.

        Checks product/adjoint closure, unit membership, that the central
        projections sum to the unit, and the Σ (block size)² dimension count.
        """
        onb = self.onb()
        prod = max(
            (la.span_residual(a @ b, onb) for a in onb for b in onb), default=0.0
        )
        adj = max((la.span_residual(dagger(a), onb) for a in onb), default=0.0)
        unit_in = la.span_residual(self.unit, onb)
        projs, blocks = self.central_decomposition()
        psum = frob(sum(projs) - self.unit)
        dim_ok = 0.0 if sum(m * m for m, _ in blocks) == self.dim else 1.0
        report = {
            "product_closure": prod,
            "adjoint_closure": adj,
            "unit_membership": unit_in,
            "central_sum": psum,
            "block_dimension_count": dim_ok,
        }
        report["passed"] = all(v < tol * self.ambient_dim for v in report.values())
        return report

    def to_json(self) -> dict:
        """JSON document ``{"ambient_dim": d, "basis": [...]}``."""
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [la.mat_to_json(b) for b in self.basis],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MMAlgebra":
        d = int(doc["ambient_dim"])
        mats = [la.json_to_mat(m) for m in doc["basis"]]
        for m in mats:
            if m.shape != (d, d):
                raise ShapeError(f"basis matrix has shape {m.shape}, expected ({d},{d})")
        return from_span(mats, d)


def from_span(mats: list[np.ndarray], ambient_dim: int, unit=None) -> MMAlgebra:
    """Wrap an already-closed span as an :class:`MMAlgebra`.

    The span is orthonormalized but *not* closed; closure is the caller's
    responsibility (use :func:`mm_from_generators` otherwise).
    """
    onb = la.orthonormalize(mats)
    s = np.sqrt(ambient_dim)
    basis = tuple(b * s for b in onb)
    if unit is None:
        unit = np.eye(ambient_dim, dtype=complex)
    return MMAlgebra(ambient_dim=ambient_dim, basis=basis, unit=unit)


def mm_from_generators(gens: list[np.ndarray], ambient_dim: int) -> MMAlgebra:
    """Smallest unital *-closed algebra containing ``gens``.

    The span of the identity, the generators, and their adjoints is closed
    under multiplication by re-multiplying basis pairs until the dimension
    stabilizes.  The empty generator set yields ℂ·1.
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
        products = [a @ b for a in onb for b in onb]
        new = la.orthonormalize(onb + products)
        if len(new) == len(onb):
            onb = new
            break
        onb = new
    return from_span(onb, d)


def _generic_pair(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Two fixed generic complex combinations of the given matrices.

    For a *-closed span, commuting with two generic elements is generically
    equivalent to commuting with the whole span; callers must verify the
    result and fall back to the full system when genericity fails.
    """
    rng = np.random.default_rng(20260815)
    coeff = rng.standard_normal((2, len(mats))) + 1j * rng.standard_normal(
        (2, len(mats))
    )
    return [
        sum(c * m for c, m in zip(row, mats)) for row in coeff
    ]


def commutant(alg: MMAlgebra) -> MMAlgebra:
    """Relative commutant of ``alg`` inside the full ambient matrix algebra.

    Solves the linear system [x, b] = 0 by a null-space computation on
    vectorized matrices.  The solve runs against two generic combinations
    of the basis first and is verified against every basis element; on
    verification failure it reruns against the full stacked system.
    """
    d = alg.ambient_dim
    eye = np.eye(d, dtype=complex)
    onb = alg.onb()

    def solve(mats: list[np.ndarray]) -> list[np.ndarray]:
        rows = [np.kron(eye, b.T) - np.kron(b, eye) for b in mats]
        stacked = np.vstack(rows) if rows else np.zeros((0, d * d), dtype=complex)
        ns = la.null_space(stacked)
        return [la.unvec(ns[:, j], (d, d)) for j in range(ns.shape[1])]

    if len(onb) > 2:
        mats = solve(_generic_pair(onb))
        # Soundness: every solution must commute with the whole basis.
        # Completeness (necessary condition): the identity always commutes,
        # so a span missing it was under-computed — rerun the full system.
        good = all(
            la.frob(x @ b - b @ x) < 1e-10 * max(1.0, la.frob(x))
            for x in mats
            for b in onb
        ) and (
            bool(mats) and la.span_residual(eye, la.orthonormalize(mats)) < 1e-8
        )
        if good:
            return from_span(mats, d)
    return from_span(solve(onb), d)


def commutant_within(alg: MMAlgebra, constraint_mats: list[np.ndarray]) -> MMAlgebra:
    """Elements of ``alg`` commuting with every matrix in ``constraint_mats``.

    Cheaper than an ambient commutant: the unknowns are coefficients in
    ``alg``'s basis.  Uses the same generic-pair shortcut as
    :func:`commutant`, verified and with full-system fallback.
    """
    onb = alg.onb()

    def solve(cons: list[np.ndarray]) -> list[np.ndarray]:
        rows = [
            np.stack([la.vec(b @ c - c @ b) for b in onb], axis=1) for c in cons
        ]
        stacked = np.vstack(rows) if rows else np.zeros((0, len(onb)), dtype=complex)
        ns = la.null_space(stacked)
        return [alg.element(ns[:, j]) for j in range(ns.shape[1])]

    if len(constraint_mats) > 2:
        mats = solve(_generic_pair(constraint_mats))
        # Soundness + completeness checks as in :func:`commutant`; the
        # algebra's own unit commutes with everything it contains.
        good = all(
            la.frob(x @ c - c @ x) < 1e-10 * max(1.0, la.frob(x))
            for x in mats
            for c in constraint_mats
        ) and (
            bool(mats)
            and la.span_residual(alg.unit, la.orthonormalize(mats)) < 1e-8
        )
        if good:
            return from_span(mats, alg.ambient_dim, unit=alg.unit)
    return from_span(solve(constraint_mats), alg.ambient_dim, unit=alg.unit)


def intersect(a: MMAlgebra, b: MMAlgebra) -> MMAlgebra:
    """Span intersection of two algebras (both *-closed, so the result is)."""
    mats = la.intersect_spans(a.onb(), b.onb())
    return from_span(mats, a.ambient_dim)


# ---------------------------------------------------------------------------
# Central decomposition and matrix units
# ---------------------------------------------------------------------------


def _range_onb(p: np.ndarray) -> np.ndarray:
    """Columns: orthonormal basis of the range of a projection."""
    w, u = np.linalg.eigh((p + dagger(p)) / 2.0)
    return u[:, w > 0.5]


def _eigensplit_projections(
    unit: np.ndarray, onb: list[np.ndarray], k: int, tol: float = DEFAULT_TOL * 10
) -> list[np.ndarray]:
    """Split ``unit`` into the k minimal orthogonal projections of span(onb).

    The count k is known in advance (the span is an algebra whose minimal
    projections under ``unit`` number exactly k), so a generic hermitian
    element of the span is diagonalized and its spectrum is cut at the k−1
    largest gaps — no absolute gap threshold.  Pieces are verified to be
    idempotent elements of the span; on verification failure (a non-generic
    draw) the element is redrawn from the next fixed seed.
    """
    if k <= 1:
        return [unit]
    cols = _range_onb(unit)
    for attempt in range(12):
        rng = np.random.default_rng(100 + attempt)
        h = np.zeros_like(unit)
        for b in onb:
            c = complex(rng.standard_normal(), rng.standard_normal())
            h += c * b + np.conj(c) * dagger(b)
        hk = dagger(cols) @ h @ cols
        w, u = np.linalg.eigh((hk + dagger(hk)) / 2.0)
        if len(w) < k:
            break
        gaps = np.diff(w)
        cuts = np.sort(np.argsort(gaps)[-(k - 1) :])
        bounds = [0] + [int(c) + 1 for c in cuts] + [len(w)]
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sub = cols @ u[:, lo:hi]
            pieces.append(sub @ dagger(sub))
        ok = all(
            frob(p @ p - p) < tol and la.span_residual(p, onb) < tol
            for p in pieces
        )
        if ok:
            return pieces
    raise SubalgebraError(
        f"could not split a projection into {k} minimal pieces of the span"
    )


def _central_decomposition(alg: MMAlgebra):
    """Minimal central projections with (block size, multiplicity) data."""
    onb = alg.onb()
    center = commutant_within(alg, list(onb))
    if center.dim == 0:
        raise SubalgebraError(
            "center of the span is empty; the input is not a unital algebra"
        )
    zs = _eigensplit_projections(alg.unit, center.onb(), center.dim)
    blocks = []
    for z in zs:
        corner = la.orthonormalize([z @ b @ z for b in onb])
        m2 = len(corner)
        if m2 == 0:
            raise SubalgebraError(
                "a central projection has an empty corner; the input span "
                "is inconsistent"
            )
        m = int(round(np.sqrt(m2)))
        if m * m != m2:
            raise SubalgebraError(
                f"central corner has dimension {m2}, not a perfect square; "
                "the input span is not an algebra"
            )
        mult = int(round(np.real(np.trace(z)) / m))
        blocks.append((z, m, mult))
    blocks.sort(
        key=lambda t: (
            t[1],
            round(float(np.real(np.trace(t[0]))), 6),
            tuple(np.round(np.real(np.diag(t[0])), 6)),
            tuple(np.round(np.imag(np.diag(t[0])), 6)),
        )
    )
    projs = [z for z, _, _ in blocks]
    dims = [(m, mult) for _, m, mult in blocks]
    return projs, dims


@dataclass(frozen=True)
class MatrixUnitBlock:
    """A full system of matrix units for one central summand.

    ``units[i][j]`` is eᵢⱼ with eᵢⱼ e_{kl} = δⱼₖ e_{il}, eᵢⱼ† = eⱼᵢ, and
    Σᵢ eᵢᵢ equal to the central projection of the summand.
    """

    projection: np.ndarray
    size: int
    multiplicity: int
    units: tuple  # size × size nested tuple of ndarray


def matrix_units(alg: MMAlgebra) -> list[MatrixUnitBlock]:
    """Deterministic matrix-unit systems for every central summand.

    Within a summand, minimal projections come from the clustered
    eigenprojections of a generic hermitian corner element, and the
    connecting partial isometries e₁ⱼ are rescalings of e₁₁·b·fⱼ for the
    basis element b of maximal norm.
    """
    onb = alg.onb()
    out = []
    for z, (m, mult) in zip(*alg.central_decomposition()):
        corner = la.orthonormalize([z @ b @ z for b in onb])
        mins = _eigensplit_projections(z, corner, m)
        if len(mins) != m:
            raise SubalgebraError(
                f"found {len(mins)} minimal projections in a block of size {m}"
            )
        f = mins
        row = [f[0]]
        for j in range(1, m):
            best, best_norm = None, 0.0
            for b in corner:
                v = f[0] @ b @ f[j]
                nv = frob(v)
                if nv > best_norm + 1e-12:
                    best, best_norm = v, nv
            if best is None or best_norm < DEFAULT_TOL:
                raise SubalgebraError("disconnected matrix-unit chain in a factor block")
            # f[j] is minimal, so best†·best is a scalar multiple of f[j].
            scale = np.real(np.trace(dagger(best) @ best)) / np.real(np.trace(f[j]))
            row.append(best / np.sqrt(scale))
        units = [[dagger(row[i]) @ row[j] for j in range(m)] for i in range(m)]
        out.append(
            MatrixUnitBlock(
                projection=z,
                size=m,
                multiplicity=mult,
                units=tuple(tuple(r) for r in units),
            )
        )
    return out


# ---------------------------------------------------------------------------
# States, GNS, modular theory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateData:
    """A positive functional x ↦ Tr(density·x) on an ambient matrix algebra.

    ``faithful`` records whether the restriction to the algebra of interest
    has trivial kernel (checked where it matters).
    """

    density: np.ndarray
    faithful: bool = True

    def value(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.density @ x))

    def validate(self, tol: float = DEFAULT_TOL) -> dict:
        d = self.density
        herm = frob(d - dagger(d))
        eigs = np.linalg.eigvalsh((d + dagger(d)) / 2.0)
        return {
            "hermitian": herm,
            "min_eig": float(eigs.min()),
            "passed": herm < tol and eigs.min() > -tol,
        }


def trace_state(d: int) -> StateData:
    """The normalized trace on the d×d matrices."""
    return StateData(density=np.eye(d, dtype=complex) / d, faithful=True)


def density_in(alg: MMAlgebra, phi: StateData) -> np.ndarray:
    """The element ρ ∈ alg with Tr(ρ x) = φ(x) for all x ∈ alg.

    For *-closed spans this is the HS-orthogonal projection of the ambient
    density onto the span.
    """
    rho = alg.project(phi.density)
    return (rho + dagger(rho)) / 2.0


@dataclass(frozen=True)
class GnsData:
    """GNS representation of (alg, φ) with modular data.

    The GNS space is ℂ^k (k = dim alg) with its standard inner product;
    ``lam`` maps an ambient matrix in the algebra to its GNS vector, ``rep``
    to the operator it acts by.  The conjugation J is stored as the linear
    matrix ``mj`` with J(v) = mj·conj(v); the modular operator ``modular``
    is positive invertible, and S = J·modular^{1/2} implements x Ω ↦ x* Ω.
    """

    space_dim: int
    rep_basis: tuple
    coord: np.ndarray  # coefficient vectors -> GNS coordinates
    coord_inv: np.ndarray
    cyclic: np.ndarray
    mj: np.ndarray
    modular: np.ndarray
    algebra: MMAlgebra
    residuals: dict

    def rep(self, x: np.ndarray) -> np.ndarray:
        """Operator on the GNS space by which ``x`` acts."""
        c = self.algebra.coeffs(x)
        return np.tensordot(c, np.stack(self.rep_basis), axes=(0, 0))

    def lam(self, x: np.ndarray) -> np.ndarray:
        """GNS vector of an algebra element."""
        return self.coord @ self.algebra.coeffs(x)

    def conj_j(self, v: np.ndarray) -> np.ndarray:
        """Apply the modular conjugation J to a GNS vector."""
        return self.mj @ np.conj(v)

    def adj_j(self, x: np.ndarray) -> np.ndarray:
        """The map x ↦ J x J on operators of the GNS space (linear in x)."""
        return self.mj @ np.conj(x) @ np.conj(self.mj)


def gns(alg: MMAlgebra, phi: StateData, tol: float = DEFAULT_TOL) -> GnsData:
    """GNS construction for a faithful state on a multimatrix algebra.

    Raises
    ------
    ValueError
        If the state is not faithful on the algebra (degenerate Gram matrix).
    """
    onb = alg.onb()
    k = len(onb)
    stack = np.stack(onb)  # (k, d, d)
    dens = phi.density

    # Gram matrix φ(a† b) and the coordinate map C with C†C = Gram.
    gram = np.einsum("ij,akj,bki->ab", dens, np.conj(stack), stack, optimize=True)
    gram = (gram + dagger(gram)) / 2.0
    w, u = np.linalg.eigh(gram)
    if w.min() < tol:
        raise ValueError(
            f"state is not faithful on the algebra (Gram eigenvalue {w.min():.3e})"
        )
    coord = (u * np.sqrt(w)) @ dagger(u)
    coord_inv = (u / np.sqrt(w)) @ dagger(u)

    # Left multiplication in coefficient coordinates, then GNS coordinates.
    left = np.einsum("aqp,iqr,brp->iab", np.conj(stack), stack, stack, optimize=True)
    rep_basis = tuple(coord @ left[i] @ coord_inv for i in range(k))
    cyclic = coord @ alg.coeffs(alg.unit)

    # Modular operator from the density of φ inside the algebra.
    rho = density_in(alg, phi)
    rho_inv = np.linalg.pinv(rho, rcond=RANK_RTOL, hermitian=True)
    mod_cols = np.einsum(
        "aqp,qr,brs,sp->ab", np.conj(stack), rho, stack, rho_inv, optimize=True
    )
    modular = coord @ mod_cols @ coord_inv
    modular = (modular + dagger(modular)) / 2.0

    # S(xΩ) = x*Ω as conj-linear map v ↦ ms·conj(v); then J = S·Δ^{-1/2}.
    star_cols = np.einsum("aqp,bpq->ab", np.conj(stack), np.conj(stack), optimize=True)
    ms = coord @ star_cols @ np.conj(coord_inv)
    mj = ms @ np.conj(la.herm_power(modular, -0.5))

    res = {}
    spot = range(min(k, 6))
    mult_res = 0.0
    for i in spot:
        for j in spot:
            prod_cols = np.stack(
                [np.array([la.hs_inner(a, onb[i] @ onb[j] @ b) for a in onb]) for b in onb],
                axis=1,
            )
            mult_res = max(
                mult_res,
                opnorm(rep_basis[i] @ rep_basis[j] - coord @ prod_cols @ coord_inv),
            )
    res["rep_multiplicative"] = mult_res
    rep_stack = np.stack(rep_basis)
    res["rep_star"] = max(
        opnorm(dagger(rep_basis[i]) - np.tensordot(star_cols[:, i], rep_stack, axes=(0, 0)))
        for i in range(k)
    )
    res["j_cyclic"] = float(np.linalg.norm(mj @ np.conj(cyclic) - cyclic))
    res["j_involution"] = opnorm(mj @ np.conj(mj) - np.eye(k))
    res["modular_cyclic"] = float(np.linalg.norm(modular @ cyclic - cyclic))
    res["j_modular_j"] = opnorm(
        mj @ np.conj(modular) @ np.conj(mj) - np.linalg.inv(modular)
    )
    res["s_star"] = max(
        float(
            np.linalg.norm(
                ms @ np.conj(coord @ alg.coeffs(b)) - coord @ alg.coeffs(dagger(b))
            )
        )
        for b in onb
    )

    return GnsData(
        space_dim=k,
        rep_basis=rep_basis,
        coord=coord,
        coord_inv=coord_inv,
        cyclic=cyclic,
        mj=mj,
        modular=modular,
        algebra=alg,
        residuals=res,
    )


def modular_flow(phi: StateData, alg: MMAlgebra, t: float):
    """The automorphism x ↦ ρ^{it} x ρ^{-it}, ρ the density of φ in alg.

    Returns a callable on ambient matrices; composing flows adds the time
    parameters, and tracial states give the identity for every t.
    """
    rho = density_in(alg, phi)
    u = la.herm_power(rho, 1j * t)
    u_inv = la.herm_power(rho, -1j * t)

    def flow(x: np.ndarray) -> np.ndarray:
        return u @ x @ u_inv

    return flow


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
        d = self.domain.ambient_dim
        return la.unvec(self.matrix @ la.vec(x), (d, d))

    def validate(self, tol: float = DEFAULT_TOL, rng: np.random.Generator | None = None) -> dict:
        """Residuals: idempotence, unit, bimodularity, positivity, state."""
        m_onb = self.domain.onb()
        n_onb = self.target.onb()
        idem = max(frob(self.apply(self.apply(x)) - self.apply(x)) for x in m_onb)
        unit = frob(self.apply(self.domain.unit) - self.target.unit)
        bimod = 0.0
        for a in n_onb:
            for x in m_onb:
                for b in n_onb:
                    bimod = max(
                        bimod, frob(self.apply(a @ x @ b) - a @ self.apply(x) @ b)
                    )
        rng = rng or np.random.default_rng(0)
        pos = 0.0
        d = self.domain.ambient_dim
        for _ in range(5):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = self.domain.project(g)
            y = self.apply(dagger(g) @ g)
            pos = min(pos, float(np.linalg.eigvalsh((y + dagger(y)) / 2.0).min()))
        rep = {
            "idempotent": idem,
            "unital": unit,
            "bimodule": bimod,
            "min_positivity_eig": pos,
        }
        if self.preserving_state is not None:
            phi = self.preserving_state
            rep["state_preserving"] = max(
                abs(phi.value(self.apply(x)) - phi.value(x)) for x in m_onb
            )
        rep["passed"] = all(
            (v > -tol * 10 if key == "min_positivity_eig" else v < tol * 10)
            for key, v in rep.items()
            if key != "passed"
        )
        return rep


def _phi_onb(basis: list[np.ndarray], phi: StateData, tol: float) -> list[np.ndarray]:
    """Orthonormalize matrices under the inner product φ(a†b)."""
    gram = np.array([[phi.value(dagger(a) @ b) for b in basis] for a in basis])
    gram = (gram + dagger(gram)) / 2.0
    w, u = np.linalg.eigh(gram)
    if w.min() < tol:
        raise ValueError("state is not faithful on the subalgebra")
    t = u / np.sqrt(w)  # columns: φ-orthonormal coefficient vectors
    out = []
    for j in range(t.shape[1]):
        m = np.zeros_like(basis[0])
        for c, b in zip(t[:, j], basis):
            m = m + c * b
        out.append(m)
    return out


def conditional_expectation(
    big: MMAlgebra, small: MMAlgebra, phi: StateData, tol: float = DEFAULT_TOL
) -> CondExpectation:
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
    d = big.ambient_dim
    for b in small.onb():
        if not big.contains(b, tol * 100):
            raise SubalgebraError("claimed subalgebra is not contained in the algebra")
    rho = density_in(big, phi)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < tol:
        raise ValueError(f"state not faithful on the algebra (eig {eigs.min():.3e})")
    rho_inv = np.linalg.inv(rho)
    small_onb = small.onb()
    inv_res = max(la.span_residual(rho @ n @ rho_inv, small_onb) for n in small_onb)
    if inv_res > tol * 100 * max(1.0, float(np.linalg.norm(rho_inv, 2))):
        raise NoExpectationError(inv_res)

    phi_basis = _phi_onb(small_onb, phi, tol)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for n in phi_basis:
        # φ(n† x) = ⟨vec(n·D†), vec(x)⟩ with D the density of φ.
        func = la.vec(n @ dagger(phi.density))
        mat += np.outer(la.vec(n), np.conj(func))
    return CondExpectation(matrix=mat, domain=big, target=small, preserving_state=phi)
