"""Coideal subalgebras and the Galois correspondence with the dual.

A *left coideal* of a Kac algebra A is a unital *-subalgebra B with
δ(B) ⊆ A⊗B.  This module provides:

* recognition and certification of coideals (:func:`is_coideal`) on each
  coproduct's n×n coefficients over the home algebra's orthonormal basis,
* the constructive envelope :func:`coideal_closure`, the *-algebra generated
  by the given elements and their coproduct slices in one step, built apart
  from its certificate so that a closure already known can skip it,
* the equivalence between coideals and closed systems of subspaces, one
  subspace K_π ⊆ ℂ^{d(π)} per irreducible corepresentation
  (:func:`subspace_system_from_coideal`, :func:`coideal_from_subspace_system`),
  with the fusion data the closure conditions read (:func:`fusion_data`),
* lattice enumeration (:func:`enumerate_coideals`) by a search over closed
  subspace systems, for every Kac algebra whose irreducible corepresentations
  all have dim ≤ 2, with a completeness audit that matches each closure by
  its Jones projection and certifies it only when it matches no coideal of
  the list, so each coideal is certified once,
* the Galois maps read off Haar idempotents, B ↦ B̃ = span (ω⊗id)Δ̂(e_B) and
  C ↦ {x ∈ A : p_C·xΩ = xΩ}, B̃'s commutant form κ̂(B′∩Â), the dimension identity
  dim B · dim B̃ = dim A, the involution B̃̃ = B, and the bicommutant
  identity (B′∩Â)′∩A = B,
* the Jones projection e_B onto B·Ω with its three weight identities, and
* an aggregate anti-isomorphism report over an enumerated lattice
  (:func:`galois_lattice_report`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra as ag
from . import coreps as cr
from . import duality as du
from . import linalg as la
from .algebra import SubalgebraError
from .kac import GroupTable, KacAlgebra
from .linalg import DEFAULT_TOL, SEARCH_GAP, SPAN_TOL, dagger, frob


@dataclass(frozen=True)
class Coideal:
    """A certified coideal subalgebra.

    ``home`` says which algebra the operators act for: "algebra" means B ⊆ A
    on A's Haar GNS space, "dual" means B ⊆ Â on the same space.  The
    certificate is the coproduct-containment residual for ``side``.
    ``projection`` is the Jones projection e_B onto B·Ω, built once by
    :func:`is_coideal` for a coideal of A (None for one of Â).
    """

    home: str
    side: str
    mm: ag.MMAlgebra
    certificate: float
    projection: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mm.dim


def jones_projection(kac: KacAlgebra, mm: ag.MMAlgebra) -> np.ndarray:
    """Orthogonal projection of L²(A) onto the subspace B·Ω."""
    q = la.orthonormalize((mm.onb() @ kac.omega)[:, None]).reshape(-1, kac.dim).T
    return q @ dagger(q)


def _fingerprint(dim: int, p: np.ndarray) -> tuple:
    """Deterministic, basis-independent sort key: (dim, rounded entries of e_B = p)."""
    flat = np.round(p.reshape(-1), 8) + 0.0
    return (dim, tuple(flat.real) + tuple(flat.imag))


def _digest(fingerprint: tuple) -> str:
    """Short hex digest of a :func:`_fingerprint`, for compact reports."""
    import hashlib  # loads OpenSSL, so only when a report asks for a digest

    dim, entries = fingerprint
    payload = np.asarray((float(dim),) + entries).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _oriented(w: np.ndarray, side: str) -> np.ndarray:
    """Coproduct coefficients W (left) or Wᵀ (right): rows are the slices' coefficients."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return w if side == "left" else w.swapaxes(-1, -2)


def _containment(w: np.ndarray, rows: np.ndarray, side: str) -> float:
    """Frobenius distance of (δ(b))_b from home⊗B (left) or B⊗home (right), over all b.

    ``w`` stacks the n×n coefficients of δ(b) = Σ W[k,l]·a_k⊗a_l over the home
    algebra's orthonormal basis a, for b over an orthonormal basis of B, and ``rows``
    holds those b over a.  The a_k⊗a_l are orthonormal, so b's distance d_b is that of
    W from W·rows†·rows (left), or of Wᵀ from Wᵀ·rows†·rows (right): n³ per b.  The
    value (Σ_b d_b²)^{1/2} is the Hilbert–Schmidt norm of (1 − P)∘δ on B, P the
    projection onto home⊗B, so no change of B's orthonormal basis moves it.
    """
    w = _oriented(w, side)
    return frob(w - (w @ dagger(rows)) @ rows)


def _dual_containment(dd: du.DualKac, onb: np.ndarray, side: str) -> float:
    """:func:`_containment` on Â's ``coproduct``, plus its ``coproduct_certificate`` times
    the Frobenius norm of the coefficients of ``onb``: a bound for the sandwich V†(1⊗y)V."""
    rows = dd.hat.mm.coeffs(onb)
    w = np.tensordot(rows, dd.hat.coproduct, axes=(-1, 0))
    return _containment(w, rows, side) + dd.hat.coproduct_certificate * frob(rows)


def _require_subalgebra(mm: ag.MMAlgebra, what: str) -> None:
    """Raise :class:`SubalgebraError` naming each failing residual of ``mm.validate()``."""
    val = mm.validate()
    if not val.pop("passed"):
        limit = DEFAULT_TOL * mm.ambient_dim
        failed = ", ".join(f"{key} {v:.2e}" for key, v in val.items() if not v < limit)
        raise SubalgebraError(f"{what} is not a unital *-subalgebra: {failed}")


def is_coideal(kac: KacAlgebra, mats, side: str = "left") -> Coideal:
    """Certify a span of operators on L²(A) as a coideal of A.

    Raises :class:`SubalgebraError` naming each failing residual of
    :meth:`~kacgalois.algebra.MMAlgebra.validate` when the span is not a unital
    *-subalgebra of A, and :class:`ValueError` when the coproduct containment fails.
    """
    mm = mats if isinstance(mats, ag.MMAlgebra) else ag.from_span(list(mats), kac.dim)
    _require_subalgebra(mm, "span")
    a_mm, onb = kac.as_mm(), mm.onb()
    rows = a_mm.coeffs(onb)
    memb = la.frob_max(onb - a_mm.element(rows))
    if memb > DEFAULT_TOL * kac.dim:
        raise SubalgebraError(f"span is not inside A (residual {memb:.2e})")
    cert = _containment(kac.coproduct_coeffs(onb), rows, side)
    if cert > DEFAULT_TOL * kac.dim:
        raise ValueError(f"not a {side} coideal: coproduct containment residual {cert:.2e}")
    p = jones_projection(kac, mm)
    return Coideal(home="algebra", side=side, mm=mm, certificate=cert, projection=p)


def _closure_algebra(kac: KacAlgebra, elements, side: str) -> ag.MMAlgebra:
    """The *-algebra generated by ``elements`` and their coproduct slices, uncertified."""
    n = kac.dim
    gens = np.asarray(list(elements), dtype=complex)
    slices = kac.as_mm().element(_oriented(kac.coproduct_coeffs(gens), side)).reshape(-1, n, n)
    return ag.mm_from_generators(np.concatenate([gens, slices]), n)


def coideal_closure(kac: KacAlgebra, elements, side: str = "left") -> Coideal:
    """Smallest coideal of A containing ``elements``, in one slice step.

    The *-algebra generated by the elements and their coproduct slices
    (ω⊗id)δ(x) (left) or (id⊗ω)δ(x) (right), certified by :func:`is_coideal`.
    No second round is needed: by coassociativity the slice span S of x
    already has δ(S) ⊆ A⊗S (left; S⊗A right), since δ((ω⊗id)δ(x)) =
    (ω⊗id⊗id)(δ⊗id)δ(x) = Σᵢ (ω⊗id)δ(aᵢ) ⊗ sᵢ for δ(x) = Σᵢ aᵢ⊗sᵢ.  δ is a
    *-homomorphism, so the *-algebra S generates is a coideal too, and it
    contains x = (ε⊗id)δ(x).  The elements stay among the generators because δ
    only sees an operator's part in A: an element outside A then fails the
    certification with :class:`SubalgebraError` instead of being projected.
    """
    return is_coideal(kac, _closure_algebra(kac, elements, side), side)


# ---------------------------------------------------------------------------
# Subspace systems (one subspace of ℂ^{d(π)} per irreducible π)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceSystem:
    """Per irreducible corepresentation π, an orthonormal basis of K_π ⊆ ℂ^{d(π)}.

    ``spaces[p]`` has shape (m_π, d_π) with orthonormal rows (m_π = 0 rows
    means the zero subspace).
    """

    spaces: tuple
    corep_dims: tuple

    def weighted_dim(self) -> int:
        return int(sum(d * s.shape[0] for d, s in zip(self.corep_dims, self.spaces)))


def subspace_system_from_coideal(
    kac: KacAlgebra, coid: Coideal, coreps: list[cr.Corepresentation]
) -> SubspaceSystem:
    """K_π = row space of the Fourier coefficient matrices of B's basis."""
    coeffs = cr.fourier_coefficients(kac, coreps, coid.mm.onb())
    spaces = [
        la.orthonormalize(m.reshape(-1, 1, c.dim)).reshape(-1, c.dim)
        for c, m in zip(coreps, coeffs)
    ]
    return SubspaceSystem(spaces=tuple(spaces), corep_dims=tuple(c.dim for c in coreps))


def _row_residuals(vecs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance of each row of ``vecs`` from the span of the orthonormal ``rows``."""
    return np.linalg.norm(vecs - (vecs @ dagger(rows)) @ rows, axis=-1)


@dataclass(frozen=True)
class FusionData:
    """The fusion and conjugation data of one list of irreducible corepresentations.

    ``isometries[a][b]`` lists the pairs (τ, S), one per isometry S onto a
    summand τ of π_a ⊗ π_b (:func:`~kacgalois.coreps.decompose_tensor_product`,
    or the 1×1 S = [1] for two group-likes);
    ``conjugates[π]`` is π̄ and ``intertwiners[π]`` the conjugation
    intertwiner T (:func:`~kacgalois.coreps.conjugation_involution`).  It
    depends only on the corepresentations, so it is built once per list and
    passed to every closure check.
    """

    coreps: tuple
    isometries: tuple
    conjugates: tuple
    intertwiners: tuple


def _group_likes(coreps) -> list[int]:
    """Indices of the 1-dim corepresentations (the group-likes), the trivial one first."""
    return sorted((c.index for c in coreps if c.dim == 1), key=lambda i: not coreps[i].is_trivial)


def fusion_data(kac: KacAlgebra, coreps: list[cr.Corepresentation]) -> FusionData:
    """Decompose every product π_a ⊗ π_b and solve the conjugation once.

    A product of two group-likes u_a, u_b is the group-like u_τ that u_a·u_b
    is, with the isometry [1]; the match is gated at ``SPAN_TOL`` on
    ‖u_a·u_b − u_τ‖_F, so no intertwiner space is solved for it.  A group-like's
    conjugate is its inverse, with T = [1].  Only the products that involve a
    corepresentation of dim > 1 go through
    :func:`~kacgalois.coreps.decompose_tensor_product`, and only their
    conjugates through :func:`~kacgalois.coreps.conjugation_involution`.
    """
    k = len(coreps)
    isometries = [[()] * k for _ in range(k)]
    conjugates, intertwiners = [None] * k, [None] * k
    ones = _group_likes(coreps)
    u = np.stack([coreps[i].entries[0, 0] for i in ones])
    prods = u[:, None] @ u[None]
    # Group-likes are Haar-orthonormal, so u_a·u_b·Ω has its largest overlap with u_τ·Ω.
    tau = np.abs((prods @ kac.omega) @ np.conj(u @ kac.omega).T).argmax(axis=-1)
    worst = float(np.linalg.norm(prods - u[tau], axis=(-2, -1)).max())
    if not worst <= SPAN_TOL:
        raise ValueError(f"a product of group-likes is no group-like (residual {worst:.2e})")
    one = np.ones((1, 1))
    for (p, a), (q, b) in itertools.product(enumerate(ones), repeat=2):
        isometries[a][b] = ((ones[tau[p, q]], one),)
        if tau[p, q] == 0:
            conjugates[a], intertwiners[a] = b, one
    if len(ones) < k:
        for a, b in itertools.product(range(k), repeat=2):
            if max(coreps[a].dim, coreps[b].dim) == 1:
                continue
            isometries[a][b] = tuple(
                (summand["index"], isom)
                for summand in cr.decompose_tensor_product(kac, coreps, a, b)["summands"]
                for isom in summand["isometries"]
            )
        conj = cr.conjugation_involution(kac, coreps)
        for c in coreps:
            if c.dim > 1:
                conjugates[c.index] = conj["pairs"][c.index]
                intertwiners[c.index] = conj["intertwiners"][c.index]
    return FusionData(
        coreps=tuple(coreps),
        isometries=tuple(map(tuple, isometries)),
        conjugates=tuple(conjugates),
        intertwiners=tuple(intertwiners),
    )


def check_system_closure(fusion: FusionData, sys: SubspaceSystem) -> dict:
    """The three closure conditions a subspace system must satisfy.

    1. The trivial corepresentation's subspace is all of ℂ (the unit).
    2. Fusion stability: for each pair (π, σ) and each isometry S onto a
       summand τ of π⊗σ, S†(K_π ⊗ K_σ) ⊆ K_τ.
    3. Conjugation stability: T_π̄⁻¹·conj(K_π) ⊆ K_π̄ for the conjugation
       intertwiner T of each π.

    Returns per-condition residuals and a ``passed`` flag; failures list the
    offending pairs (π, σ, τ) and conjugates (π, "conj", π̄) with their
    worst residual.
    """
    res = {"trivial": 1.0, "fusion": 0.0, "conjugation": 0.0, "failures": []}
    for idx, c in enumerate(fusion.coreps):
        if c.is_trivial:
            res["trivial"] = 0.0 if sys.spaces[idx].shape[0] == 1 else 1.0

    for a, ka in enumerate(sys.spaces):
        if ka.shape[0] == 0:
            continue
        for b, kb in enumerate(sys.spaces):
            if kb.shape[0] == 0:
                continue
            # Rows of kron(K_π, K_σ) are the vectors va⊗vb; S†v is v·conj(S) as a row.
            pairs = np.kron(ka, kb)
            for tau, isom in fusion.isometries[a][b]:
                worst = float(_row_residuals(pairs @ isom.conj(), sys.spaces[tau]).max())
                if worst > SPAN_TOL:
                    res["failures"].append((a, b, tau, worst))
                res["fusion"] = max(res["fusion"], worst)

    for idx, ka in enumerate(sys.spaces):
        if ka.shape[0] == 0:
            continue
        bar = fusion.conjugates[idx]
        # Rows: (T⁻¹·conj(v))ᵀ = conj(v)·T⁻ᵀ, each normalized.
        w = np.conj(ka) @ np.linalg.inv(fusion.intertwiners[idx]).T
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        worst = float(_row_residuals(w, sys.spaces[bar]).max())
        if worst > SPAN_TOL:
            res["failures"].append((idx, "conj", bar, worst))
        res["conjugation"] = max(res["conjugation"], worst)
    res["passed"] = res["trivial"] == 0.0 and max(res["fusion"], res["conjugation"]) < SPAN_TOL
    return res


def _system_algebra(kac: KacAlgebra, coreps, sys: SubspaceSystem, side: str) -> ag.MMAlgebra:
    """The *-algebra spanned by 1 and the corepresentation entries the system picks, uncertified.

    Left: Σ_l w_l·u(π)ᵢl over w ∈ K_π and every row i.  Right: Σᵢ w̄ᵢ·u(π)ᵢl over
    w ∈ K_π and every column l, the image of the left span under x ↦ S(x)*, since
    S(u(π)ᵢl) = u(π)lᵢ*; S reverses products and flips the legs of δ, so it maps
    the left coideals one to one onto the right ones.
    """
    n, left = kac.dim, side == "left"
    mats = [np.eye(n, dtype=complex)[None]] + [
        np.tensordot(rows if left else rows.conj(), c.entries, axes=(1, 1 if left else 0))
        .reshape(-1, n, n)
        for c, rows in zip(coreps, sys.spaces)
        if len(rows)
    ]
    return ag.from_span(np.concatenate(mats), n)


def coideal_from_subspace_system(
    kac: KacAlgebra, fusion: FusionData, sys: SubspaceSystem, side: str = "left"
) -> Coideal:
    """The coideal of ``sys`` (:func:`_system_algebra`), certified by :func:`is_coideal`.

    ``fusion`` is the :func:`fusion_data` of the corepresentations the
    system is indexed by.  The closure conditions are checked first; a
    violation is reported with the failing pairs.
    """
    closure = check_system_closure(fusion, sys)
    if not closure["passed"]:
        raise ValueError(f"subspace system violates closure conditions: {closure}")
    return is_coideal(kac, _system_algebra(kac, fusion.coreps, sys, side), side)


# ---------------------------------------------------------------------------
# The search over closed subspace systems
# ---------------------------------------------------------------------------

#: v = (1, z) and v⊗v = (1, z, z, z²), one row per component, as coefficients of 1, z, z².
_LINE = np.eye(2)
_SQUARE = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def _roots(coeffs: np.ndarray) -> list[np.ndarray]:
    """The unit lines v ∝ (1, z) with Σ c_k·z^k = 0, and (0, 1) when the top coefficient
    vanishes: the lines where the homogeneous form of the condition is zero."""
    top = int(np.flatnonzero(np.abs(coeffs) > SPAN_TOL)[-1])
    lines = [np.array([1.0, z]) for z in np.roots(coeffs[top::-1])]
    if top < len(coeffs) - 1:
        lines.append(np.array([0.0, 1.0]))
    return [v / np.linalg.norm(v) for v in lines]


def _on_line(coeffs: np.ndarray, v: np.ndarray) -> float:
    """|Σ c_k·x^{D−k}·y^k| at the unit vector v = (x, y): the residual the closure check
    reads for the condition on the line ℂv."""
    k = np.arange(len(coeffs))
    return float(abs(np.sum(coeffs * v[0] ** k[::-1] * v[1] ** k)))


def _refine(conditions: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """Gauss–Newton on every condition at once, from the unit line v: the nearest line
    where they all vanish, when one is near.  It runs in the chart of v's larger
    coordinate, t ↦ (1, t) or (t, 1), where each condition is a polynomial in t.  A
    root that ``numpy.roots`` gives to about ε^(1/m) (multiplicity m ≤ 3) moves at
    least a third of the way in per step, so the residual, of order m, falls by more
    than half; the steps stop once it does not, as at a root reached or at a
    candidate that is none."""
    swap = abs(v[1]) > abs(v[0])
    width = max(map(len, conditions))
    coeffs = np.zeros((len(conditions), width), dtype=complex)  # lowest power of t first
    for row, c in zip(coeffs, conditions):
        row[: len(c)] = c[::-1] if swap else c
    slopes = coeffs[:, 1:] * np.arange(1, width)
    t = best = v[0] / v[1] if swap else v[1] / v[0]
    last = np.inf
    for _ in range(60):
        powers = t ** np.arange(width)
        r, d = coeffs @ powers, slopes @ powers[:-1]
        if not np.linalg.norm(r) < last / 2:
            break
        best, last = t, np.linalg.norm(r)
        t = t - np.vdot(d, r) / max(np.vdot(d, d).real, np.finfo(float).tiny)
    if not np.linalg.norm(r) < last:  # the last step made it worse
        t = best
    line = np.array([t, 1.0]) if swap else np.array([1.0, t])
    return line / np.linalg.norm(line)


def _vanishes(value: float, what: str) -> bool:
    """Whether a value the search decides on (a condition's largest coefficient, its
    residual on a line, the distance of two lines) reads as zero: ≤ ``SPAN_TOL``
    does, ≥ ``SEARCH_GAP`` does not, and in between the search cannot tell, so it
    raises :class:`ValueError` rather than drop or double a coideal on a guess."""
    if SPAN_TOL < value < SEARCH_GAP:
        raise ValueError(
            f"{what} reads {value:.2e}, between SPAN_TOL = {SPAN_TOL:.0e} and "
            f"SEARCH_GAP = {SEARCH_GAP:.0e}: the coideal search cannot tell whether it vanishes"
        )
    return value <= SPAN_TOL


def _common_lines(conditions: list[np.ndarray], where: str) -> list[np.ndarray]:
    """The distinct unit lines on which every condition (none identically zero) vanishes.

    They lie among the roots of any one condition; those of the one of least
    degree are each refined on all of them (:func:`_refine`), and a line is kept
    when every condition reads ≤ ``SPAN_TOL`` on it and it is no line kept
    before.  Both are read by :func:`_vanishes`: a residual, or a projector
    distance between two lines, that it cannot read as zero or nonzero (as at a
    root of one condition alone that ``numpy.roots`` splits) raises.
    """
    lines = []
    for v in _roots(min(conditions, key=len)):
        v = _refine(conditions, v)
        worst = max(_on_line(c, v) for c in conditions)
        if not _vanishes(worst, f"{where}, on a candidate line"):
            continue
        gaps = [frob(np.outer(v, v.conj()) - np.outer(w, w.conj())) for w in lines]
        same = [_vanishes(g, f"the distance of two candidate lines of {where}") for g in gaps]
        if not any(same):
            lines.append(v)
    return lines


def _candidate_spaces(fusion: FusionData, p: int, spaces: dict) -> list[np.ndarray] | None:
    """The spaces that can be K_π of the 2-dim π = ``p`` in a closed system that extends
    ``spaces`` (the K_τ chosen so far, every 1-dim τ among them); None when the
    candidate lines form a continuum.

    Each summand τ of χ⊗π (χ in the 1-dim part X) and of π⊗π constrains a line
    v = (1, z) or (0, 1): T_χ·v ∈ K_τ and S_τ†(v⊗v) ∈ K_τ when K_τ is chosen,
    T_χ·v ∥ v and S_π†(v⊗v) ∥ v when τ = π.  Each is polynomial in z, of degree
    ≤ 3, read straight off the isometry.  A line of a closed system satisfies
    them all; :func:`_common_lines` finds those lines from the conditions that
    do not vanish identically.  ℂ² is kept when every chosen K_τ it reaches is
    all of ℂ^{d(τ)}.
    """
    conditions, full = [], True
    pairs = [
        (tau, isom, _LINE)
        for chi, k in spaces.items()
        if fusion.coreps[chi].dim == 1 and len(k)
        for tau, isom in fusion.isometries[chi][p]
    ] + [(tau, isom, _SQUARE) for tau, isom in fusion.isometries[p][p]]
    for tau, isom, vecs in pairs:
        w = isom.conj().T @ vecs  # S†·vecs(z), one row per component
        if tau == p:
            conditions.append(np.append(0.0, w[0]) - np.append(w[1], 0.0))  # w₀·z − w₁
        elif tau in spaces:
            outside = la.null_space(spaces[tau].conj()).T  # K_τ's orthogonal complement
            conditions += list(outside.conj() @ w)
            full = full and not len(outside)
    where = f"a closure condition on the 2-dim corepresentation {p}"
    conditions = [c for c in conditions if not _vanishes(float(np.abs(c).max()), where)]
    if not conditions:
        return None
    options = [np.zeros((0, 2), dtype=complex)] + [np.eye(2, dtype=complex)] * full
    return options + [v[None].astype(complex) for v in _common_lines(conditions, where)]


def _extensions(fusion: FusionData, spaces: dict, open_: list[int]):
    """Every assignment of the 2-dim corepresentations ``open_`` that extends ``spaces``,
    one K_π at a time: at each step the first π of ``open_`` whose candidate lines
    are finite, given the spaces chosen so far.  Raises :class:`ValueError` naming
    the open π when none is."""
    if not open_:
        yield spaces
        return
    for p in open_:
        options = _candidate_spaces(fusion, p, spaces)
        if options is not None:
            break
    else:
        members = sorted(t for t, k in spaces.items() if fusion.coreps[t].dim == 1 and len(k))
        raise ValueError(
            f"the candidate lines of the 2-dim corepresentations {open_} over the group-likes "
            f"{members} form a continuum: no closure condition on them is finite"
        )
    rest = [q for q in open_ if q != p]
    for space in options:
        yield from _extensions(fusion, {**spaces, p: space}, rest)


def _candidate_systems(fusion: FusionData):
    """Every candidate (system, closed_by_construction) of the search: a subgroup X of
    the group-likes as the 1-dim part, extended over the 2-dim corepresentations by
    :func:`_extensions`.  A system with no 2-dim space is closed because X is a
    subgroup."""
    coreps = fusion.coreps
    ones = _group_likes(coreps)
    twos = [c.index for c in coreps if c.dim == 2]
    table = np.array([[ones.index(fusion.isometries[a][b][0][0]) for b in ones] for a in ones])
    group = GroupTable(order=len(ones), table=table, labels=tuple(map(str, ones)))
    dims = tuple(c.dim for c in coreps)
    inside, outside = np.ones((1, 1), dtype=complex), np.zeros((0, 1), dtype=complex)
    for sub in group.subgroups():
        known = {a: inside if i in sub else outside for i, a in enumerate(ones)}
        for spaces in _extensions(fusion, known, twos):
            system = tuple(spaces[c.index] for c in coreps)
            closed = all(not len(spaces[p]) for p in twos)
            yield SubspaceSystem(spaces=system, corep_dims=dims), closed


def enumerate_coideals(
    kac: KacAlgebra, coreps: list[cr.Corepresentation], side: str = "left", seed: int = 23
) -> dict:
    """All left (or right) coideals of A, by a search over closed subspace systems,
    with a completeness audit.

    A coideal is a closed system of subspaces K_π ⊆ ℂ^{d(π)}, one per irreducible
    corepresentation π of ``coreps`` (:func:`_candidate_systems`).  Each candidate
    with a 2-dim space passes :func:`check_system_closure` once, each closed
    system's span is certified by :func:`is_coideal`, a coideal whose Jones
    projection lies within ``SPAN_TOL`` of a listed one is dropped, and the list
    is sorted by :func:`_fingerprint`.  The search covers every Kac algebra whose
    corepresentations all have dim ≤ 2; it raises :class:`ValueError` naming the
    dims when one has dim > 2, naming the 2-dim π whose candidate lines form
    a continuum, and naming the condition it cannot read as zero or nonzero
    (:func:`_vanishes`), so it never returns a partial list.  Its candidate
    lines are refined roots (:func:`_common_lines`) read in corepresentation
    coordinates, so this holds in any basis of A.

    The completeness audit closes b_e + b_g for every g and a seeded
    collection of two-element generator sets {b_i, b_j}, i, j = ⌊n·(u + 1)/2⌋ for eight
    pairs u of ``probe_draws(seed)``, each unordered pair once, and
    verifies the result is already in the list (Jones-projection distance).
    A lone b_g would test nothing on a function algebra, where every point
    mass closes to all of C(G); the closure of δ_e + δ_g is C(G/⟨g⟩) when
    g² = e (its slices are the indicators of the cosets of ⟨g⟩) and C(G)
    otherwise.  On a group algebra δ(b_e + b_g) = b_e⊗b_e + b_g⊗b_g, so the
    closure is ℂ[⟨g⟩], as for b_g alone.  A closure whose Jones projection
    lies within ``SPAN_TOL`` of a listed one in Frobenius norm is that certified
    coideal and is not certified again: b ↦ √n·bΩ is an isometry of A onto
    L²(A), so that norm bounds the span distance from above.  Any other closure
    goes through :func:`is_coideal`, so a non-coideal still raises and a coideal
    missing from the list reads as incomplete.  The probes are read in A's basis,
    so off a group basis their closures are mostly all of A: there the audit adds
    little to the search's own guarantee.
    """
    if any(c.dim > 2 for c in coreps):
        raise ValueError(
            "the coideal search needs every irreducible corepresentation to have dim ≤ 2; "
            f"this algebra's have dims {sorted(c.dim for c in coreps)}"
        )
    fusion = fusion_data(kac, coreps)
    coideals: list[Coideal] = []
    for sys, closed in _candidate_systems(fusion):
        if closed or check_system_closure(fusion, sys)["passed"]:
            coid = is_coideal(kac, _system_algebra(kac, coreps, sys, side), side)
            if all(frob(coid.projection - c.projection) >= SPAN_TOL for c in coideals):
                coideals.append(coid)
    coideals.sort(key=lambda c: _fingerprint(c.dim, c.projection))
    projs = [coid.projection for coid in coideals]
    n = kac.dim
    unit = np.eye(n)

    def audit(gens) -> float:
        mm = _closure_algebra(kac, gens, side)
        p = jones_projection(kac, mm)
        gap = min(frob(p - q) for q in projs)
        if not gap < SPAN_TOL:
            is_coideal(kac, mm, side)
        return gap

    pairs = {}  # each unordered pair once, in the order it was first drawn
    for i, j in (n * (la.probe_draws(seed, (8, 2)) + 1) / 2).astype(int):
        pairs.setdefault(frozenset((i, j)), [unit[i], unit[j]])
    seeds = [[unit[0] + unit[i]] for i in range(n)] + list(pairs.values())
    worst = max(audit([kac.op(c) for c in gens]) for gens in seeds)
    return {
        "coideals": coideals,
        "dims": [coid.dim for coid in coideals],
        "completeness_residual": worst,
        "complete": worst < SPAN_TOL,
    }


# ---------------------------------------------------------------------------
# The Galois tilde map into the dual
# ---------------------------------------------------------------------------


def tilde(coid: Coideal, dd: du.DualKac) -> Coideal:
    """B̃, the span of the slices (ω⊗id)Δ̂(e_B) of B's Jones projection.

    B is a coideal of A = ``dd.v.kac``.  e_B ∈ Â is B̃'s Haar idempotent, a
    group-like projection, and the slices of such a projection span its coideal.
    Δ̂(e_B) = Σ W[a,b]·onbₐ⊗onb_b for W = Σₑ c(e_B)ₑ·``coproduct``[e], so B̃ is
    W's row space read in Â.  Returned as a coideal of Â (``home='dual'``),
    certified by its closure residuals and Â's coproduct.
    """
    hat = dd.hat
    w = np.tensordot(hat.mm.coeffs(coid.projection), hat.coproduct, axes=1)
    mm = ag.from_span(hat.mm.element(w), dd.v.kac.dim)
    _require_subalgebra(mm, "tilde image")
    cert = _dual_containment(dd, mm.onb(), "left")
    return Coideal(home="dual", side="left", mm=mm, certificate=cert)


def haar_idempotent(mm: ag.MMAlgebra, dd: du.DualKac) -> np.ndarray:
    """(n/dim C)·E_C(ê) for C = span(``mm``) ⊆ Â, E_C the trace-keeping Frobenius projection
    and ê = ΩΩ† Â's integral: C's Haar idempotent p_C when C is a coideal, e_B for C = B̃."""
    return dd.v.kac.dim / mm.dim * mm.project(dd.ints.e_hat)


def tilde_back(dual_coid: Coideal, dd: du.DualKac) -> ag.MMAlgebra:
    """The reverse Galois map: {x ∈ A : p_C·xΩ = xΩ} for C's :func:`haar_idempotent` p_C.

    For C = B̃, p_C = e_B projects onto B·Ω, and Ω separates A, so the map
    returns B.  x = Σ xᵢ·bᵢ has xΩ = ``coord``·x, so the image is one null
    space of the n×n matrix (p_C − 1)·``coord``.
    """
    kac = dd.v.kac
    p = haar_idempotent(dual_coid.mm, dd)
    ns = la.null_space((p - np.eye(kac.dim)) @ kac.coord)
    return ag.from_span(kac.op(ns.T), kac.dim)


def tilde_via_commutant(coid: Coideal, dd: du.DualKac) -> dict:
    """B̃ the structural way: κ̂(B′ ∩ Â), with its own certificates.

    Returns the resulting span (κ̂ is Frobenius-unitary, so it keeps the
    basis orthonormal), the orthonormal basis of B′∩Â (which
    :func:`bicommutant_check` takes) with its largest commutator with B, and
    the certification that B′∩Â is itself a right coideal of Â.  The caller
    compares the span with :func:`tilde`, which reads it off e_B.
    """
    inter, comm = ag.relative_commutant(coid.mm.onb(), dd.hat.onb)
    return {
        "mm": ag.from_onb(du.kappa_hat(dd.v.kac, inter), dd.v.kac.dim),
        "intersection": inter,
        "intersection_right_coideal": _dual_containment(dd, inter, "right"),
        "commutator": comm,
    }


def bicommutant_check(coid: Coideal, inter: np.ndarray, dd: du.DualKac) -> dict:
    """(B′ ∩ Â)′ ∩ A = B, as an operator-norm projector gap.

    ``inter`` is the orthonormal basis of B′ ∩ Â that
    :func:`tilde_via_commutant` returns; (B′ ∩ Â)′ ∩ A is one null space
    over A's basis, reported with its largest commutator with ``inter``.
    """
    back, comm = ag.relative_commutant(inter, dd.v.kac.as_mm().onb())
    distance = la.span_distance(back, coid.mm.onb())
    return {"distance": distance, "dim": len(back), "commutator": comm}


def jones_projection_coideal(coid: Coideal, btilde: Coideal, dd: du.DualKac) -> dict:
    """The Jones projection e_B of a coideal, with its weight identities.

    ``coid`` is a coideal of A, and ``btilde`` is B's partner :func:`tilde`
    ``(coid, dd)``.  Verifies:
    ĥ(e_B) = dim B / n; ε(E_B(e)) = dim B / n for the Haar expectation E_B
    and the integral e of A; e_B = p_B̃ (:func:`haar_idempotent`, dim B·E_B̃(ê)
    when dim B·dim B̃ = n); and the membership e_B ∈ Â.
    """
    kac = dd.v.kac
    n = kac.dim
    e_b = coid.projection
    res = {"idempotent": frob(e_b @ e_b - e_b), "self_adjoint": frob(e_b - dagger(e_b))}
    res["dual_haar_value"] = float(abs(np.trace(e_b) / n - coid.dim / n))
    res["dual_membership"] = dd.hat.mm.residual(e_b)

    # Haar-orthonormal basis of B, with the Haar state as the density |Ω⟩⟨Ω|.
    haar = ag.StateData(density=np.outer(kac.omega, np.conj(kac.omega)))
    h_onb = ag.phi_onb(coid.mm.onb(), haar)
    # E_B(e) = Σ m·h(m†e) with h(m†e) = ⟨mΩ, eΩ⟩.
    h_vecs = h_onb @ kac.omega
    exp_e = np.tensordot(np.conj(h_vecs) @ (dd.ints.e_op @ kac.omega), h_onb, axes=1)
    res["counit_of_projected_integral"] = float(abs(kac.counit_of(exp_e) - coid.dim / n))

    res["scaled_dual_expectation"] = frob(haar_idempotent(btilde.mm, dd) - e_b)
    res["max_residual"] = max(v for v in res.values())
    return res


def galois_lattice_report(
    dd: du.DualKac, coreps: list[cr.Corepresentation], seed: int = 23
) -> dict:
    """Full Galois anti-isomorphism audit over an enumerated lattice.

    ``coreps`` are the irreducible corepresentations of A = ``dd.v.kac``
    (:func:`~kacgalois.coreps.irreducible_coreps` on ``dd.v`` and ``dd.hat``),
    which :func:`enumerate_coideals` searches over; it raises
    :class:`ValueError` for an algebra that search cannot finish.
    For every enumerated left coideal of A: the tilde partner
    with both computation routes compared, the dimension product, the
    involution, the bicommutant identity, and the Jones projection
    identities; plus the full order-reversal table over all containment
    pairs.  The projector distances are operator-norm gaps
    (:func:`linalg.span_distance`).
    """
    kac = dd.v.kac
    enum = enumerate_coideals(kac, coreps, seed=seed)
    coideals = enum["coideals"]
    n = kac.dim

    partners = [tilde(coid, dd) for coid in coideals]
    rows = []
    for coid, bt in zip(coideals, partners):
        via = tilde_via_commutant(coid, dd)
        bic = bicommutant_check(coid, via["intersection"], dd)
        jp = jones_projection_coideal(coid, bt, dd)
        rows.append(
            {
                "dim": coid.dim,
                "tilde_dim": bt.dim,
                "dim_product_exact": coid.dim * bt.dim == n,
                "fingerprint": _digest(_fingerprint(coid.dim, coid.projection)),
                "coideal_certificate": coid.certificate,
                "tilde_certificate": bt.certificate,
                "tilde_route_distance": la.span_distance(bt.mm.onb(), via["mm"].onb()),
                "intersection_right_coideal": via["intersection_right_coideal"],
                "tilde_involution": la.span_distance(tilde_back(bt, dd).onb(), coid.mm.onb()),
                "bicommutant": bic["distance"],
                "relative_commutant_residual": max(via["commutator"], bic["commutator"]),
                "jones_projection": {k: v for k, v in jp.items() if k != "max_residual"},
                "jones_max": jp["max_residual"],
            }
        )

    # B_i ⊆ B_j must give B̃_j ⊆ B̃_i, over every pair (the diagonal included).
    order_worst = max(
        pi.mm.residual(pj.mm.onb())
        for (bi, pi), (bj, pj) in itertools.product(zip(coideals, partners), repeat=2)
        if bj.mm.residual(bi.mm.onb()) < SPAN_TOL
    )
    order_ok = order_worst <= SPAN_TOL
    injective = not any(
        la.spans_match(p.mm.onb(), q.mm.onb()) for p, q in itertools.combinations(partners, 2)
    )
    gated = (
        "coideal_certificate", "tilde_certificate", "tilde_route_distance", "tilde_involution",
        "intersection_right_coideal", "bicommutant", "relative_commutant_residual", "jones_max",
    )
    worst = max(r[key] for r in rows for key in gated)
    exact = all(r["dim_product_exact"] for r in rows)
    return {
        "dims": enum["dims"],
        "tilde_dims": [bt.dim for bt in partners],
        "rows": rows,
        "completeness_residual": enum["completeness_residual"],
        "order_reversal_ok": order_ok,
        "order_reversal_residual": order_worst,
        "tilde_injective": injective,
        "dim_products_exact": exact,
        "max_residual": worst,
        "passed": order_ok and injective and exact and worst < SPAN_TOL and enum["complete"],
    }
