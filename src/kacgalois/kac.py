"""Finite-dimensional Kac algebras from structure tensors.

A Kac algebra is specified here by dense coefficient tensors over a fixed
basis b₀…b_{n-1}: a product tensor, a coproduct tensor, a counit vector, an
antipode matrix, a star matrix, and the Haar state vector.  The constructor
materializes the algebra as concrete matrices acting on the GNS space of the
Haar state, which is where all duality computations happen.

Conventions
-----------
``mult[i, j, k]``    coefficient of b_k in bᵢ·bⱼ
``delta[k, i, j]``   coefficient of bᵢ⊗bⱼ in the coproduct of b_k
``counit[i]``        value of the counit on bᵢ
``antipode[i, j]``   coefficient of bⱼ in the antipode of bᵢ
``star[i, j]``       coefficient of bⱼ in bᵢ*
``haar[i]``          value of the Haar state on bᵢ
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, TIGHT_TOL, dagger, frob_max


class AxiomError(ValueError):
    """Structure tensors fail the defining axioms; carries the residual report."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


# ---------------------------------------------------------------------------
# Group tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a multiplication table over indices 0…n-1.

    Index 0 is the identity.  ``table[i, j]`` is the index of gᵢ·gⱼ.
    """

    order: int
    table: np.ndarray
    labels: tuple

    @property
    def inverse(self) -> np.ndarray:
        inv = np.zeros(self.order, dtype=int)
        for i in range(self.order):
            js = np.where(self.table[i] == 0)[0]
            inv[i] = int(js[0])
        return inv

    def validate(self) -> dict:
        t = self.table
        n = self.order
        assoc = bool(np.array_equal(t[t, :], t[:, t]))
        ident = bool(np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n)))
        inv_ok = all((t[i] == 0).sum() == 1 for i in range(n))
        return {"associative": assoc, "identity": ident, "inverses": inv_ok,
                "passed": assoc and ident and inv_ok}

    def subgroups(self) -> list[tuple[int, ...]]:
        """All subgroups, as sorted index tuples, found by closure search.

        Every subgroup arises from some smaller one by adjoining a single
        element and closing, so a breadth-first search from the trivial
        subgroup is exhaustive.
        """
        t = self.table

        def close(elems: frozenset) -> frozenset:
            cur = set(elems)
            frontier = list(cur)
            while frontier:
                new = set()
                for a in list(cur):
                    for b in frontier:
                        new.add(int(t[a, b]))
                        new.add(int(t[b, a]))
                new -= cur
                cur |= new
                frontier = list(new)
            return frozenset(cur)

        found = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            nxt = []
            for h in frontier:
                for g in range(self.order):
                    if g in h:
                        continue
                    h2 = close(h | {g})
                    if h2 not in found:
                        found.add(h2)
                        nxt.append(h2)
            frontier = nxt
        return sorted(tuple(sorted(h)) for h in found)


def cyclic_group(n: int) -> GroupTable:
    """The cyclic group of order n."""
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple(["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)])
    return GroupTable(order=n, table=table, labels=labels)


def symmetric_group_3() -> GroupTable:
    """The symmetric group on three letters (order 6)."""
    perms = [
        (0, 1, 2),  # e
        (1, 0, 2),  # (12)
        (2, 1, 0),  # (13)
        (0, 2, 1),  # (23)
        (1, 2, 0),  # (123): 1->2->3->1
        (2, 0, 1),  # (132)
    ]
    labels = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")
    n = len(perms)
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[x]] for x in range(3))  # apply q first, then p
            table[i, j] = perms.index(comp)
    return GroupTable(order=n, table=table, labels=labels)


def quaternion_group() -> GroupTable:
    """The quaternion group Q₈ = {±1, ±i, ±j, ±k}."""
    # Element index: 2·unit + (1 if negative), units ordered 1, i, j, k.
    unit_mul = {}  # (u, v) -> (sign, w)
    for u in range(4):
        unit_mul[(0, u)] = (1, u)
        unit_mul[(u, 0)] = (1, u)
    for u in (1, 2, 3):
        unit_mul[(u, u)] = (-1, 0)
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (u, v), w in cyc.items():
        unit_mul[(u, v)] = (1, w)
        unit_mul[(v, u)] = (-1, w)
    n = 8
    table = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            ua, sa = a // 2, -1 if a % 2 else 1
            ub, sb = b // 2, -1 if b % 2 else 1
            s, w = unit_mul[(ua, ub)]
            s *= sa * sb
            table[a, b] = 2 * w + (1 if s < 0 else 0)
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return GroupTable(order=n, table=table, labels=labels)


def direct_product_group(a: GroupTable, b: GroupTable) -> GroupTable:
    """The direct product, indexed as i_a·|b| + i_b."""
    na, nb = a.order, b.order
    table = np.zeros((na * nb, na * nb), dtype=int)
    for ia in range(na):
        for ib in range(nb):
            for ja in range(na):
                for jb in range(nb):
                    table[ia * nb + ib, ja * nb + jb] = a.table[ia, ja] * nb + b.table[ib, jb]
    labels = tuple(f"({la_},{lb_})" for la_ in a.labels for lb_ in b.labels)
    return GroupTable(order=na * nb, table=table, labels=labels)


def klein_group() -> GroupTable:
    """The Klein four-group as ℤ₂ × ℤ₂."""
    return direct_product_group(cyclic_group(2), cyclic_group(2))


# ---------------------------------------------------------------------------
# Kac algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KacAlgebra:
    """A Kac algebra with structure tensors and its Haar-GNS materialization.

    The concrete side lives on ℂⁿ (the GNS space of the Haar state): ``lmats``
    is the read-only (n, n, n) stack of the basis's left-multiplication
    operators, ``omega`` the cyclic vector, ``coord`` the coefficient-to-GNS
    coordinate map, and ``mj`` the linear part of the modular conjugation
    (x Ω ↦ x* Ω, which is already antiunitary because the Haar state is a
    trace).  A coproduct is read as its n×n coefficients over ``as_mm()``'s
    orthonormal basis (:meth:`coproduct_coeffs`), never as an n²×n² operator.
    """

    dim: int
    labels: tuple
    mult: np.ndarray
    delta: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    haar: np.ndarray
    unit_coeffs: np.ndarray
    lmats: np.ndarray
    omega: np.ndarray
    coord: np.ndarray
    coord_inv: np.ndarray
    mj: np.ndarray
    origin: str = "custom"
    group: GroupTable | None = None

    # -- coefficient/operator translation ---------------------------------

    def op(self, coeffs: np.ndarray) -> np.ndarray:
        """The operator Σ cᵢ·L(bᵢ) on the GNS space (one per row of a 2-D ``coeffs``)."""
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.lmats, axes=(-1, 0))

    def coeffs_of(self, x: np.ndarray) -> np.ndarray:
        """Basis coefficients of an operator (or of each of a stack) in the algebra, via x·Ω."""
        return (x @ self.omega) @ self.coord_inv.T

    # -- structure maps on operators --------------------------------------

    def coproduct_coeffs(self, x: np.ndarray) -> np.ndarray:
        """n×n coefficients W of δ(x) = Σ W[k,l]·a_k⊗a_l over ``as_mm()``'s orthonormal basis
        a (of each x of a stack): Kᵀ·(Σₘ c(x)ₘ·Δₘ)·K, K[i,k] = ⟨a_k, L(bᵢ)⟩ built once."""
        w = np.tensordot(self.coeffs_of(x), self.delta, axes=(-1, 0))
        return self._lmat_coeffs.T @ w @ self._lmat_coeffs

    def counit_of(self, x: np.ndarray) -> complex:
        return complex(self.counit @ self.coeffs_of(x))

    def haar_of(self, x: np.ndarray) -> complex:
        """Haar state, evaluated as the Ω-expectation on the GNS space."""
        return complex(np.vdot(self.omega, x @ self.omega))

    def as_mm(self):
        """The materialized algebra as an :class:`~kacgalois.algebra.MMAlgebra`.

        Built once per instance, so its basis and central decomposition are
        shared by every caller.
        """
        return self._mm

    @cached_property
    def _mm(self):
        from . import algebra as ag

        return ag.from_span(self.lmats, self.dim)

    @cached_property
    def _lmat_coeffs(self) -> np.ndarray:
        return self.as_mm().coeffs(self.lmats)

    @cached_property
    def _v(self):
        """The multiplicative unitary, built once per instance (see
        :func:`kacgalois.duality.multiplicative_unitary`)."""
        from . import duality

        return duality._multiplicative_unitary(self)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def c(z: complex) -> list:
            return [float(np.real(z)), float(np.imag(z))]

        doc = {
            "dim": self.dim,
            "basis_labels": list(self.labels),
            "mult": [[[c(self.mult[i, j, k]) for k in range(self.dim)]
                      for j in range(self.dim)] for i in range(self.dim)],
            "delta": [[[c(self.delta[k, i, j]) for j in range(self.dim)]
                       for i in range(self.dim)] for k in range(self.dim)],
            "counit": [c(v) for v in self.counit],
            "antipode": [[c(v) for v in row] for row in self.antipode],
            "star": [[c(v) for v in row] for row in self.star],
            "haar": [c(v) for v in self.haar],
        }
        if self.origin != "custom":
            doc["origin"] = self.origin
        if self.group is not None:
            doc["group"] = {
                "order": self.group.order,
                "mult": [[int(v) for v in row] for row in self.group.table],
                "labels": list(self.group.labels),
            }
        return doc


def read_field(doc: dict, name: str, parse, error: type[ValueError]):
    """``parse(doc[name])``.  A missing field, or a ``TypeError``, ``KeyError`` or
    ``ValueError`` raised while reading it, is raised as ``error`` naming the field."""
    if name not in doc:
        raise error(f"missing required field '{name}'")
    try:
        return parse(doc[name])
    except error:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise error(f"field '{name}' is malformed: {exc}") from exc


def _as_complex_tensor(doc: dict, name: str, shape: tuple) -> np.ndarray:
    arr = read_field(doc, name, lambda x: np.asarray(x, dtype=float), AxiomError)
    if arr.shape != shape + (2,):
        raise AxiomError(f"field '{name}' has shape {arr.shape}, expected {shape + (2,)}")
    return arr[..., 0] + 1j * arr[..., 1]


def kac_from_structure(
    labels,
    mult,
    delta,
    counit,
    antipode,
    star,
    haar,
    origin: str = "custom",
    group: GroupTable | None = None,
) -> KacAlgebra:
    """Build a :class:`KacAlgebra` from structure tensors.

    Solves for the unit, checks the Haar Gram matrix is positive definite
    (existence of the GNS space), and materializes the left regular action.
    Axioms are *not* fully verified here — run :func:`validate_kac`.
    """
    mult = np.asarray(mult, dtype=complex)
    delta = np.asarray(delta, dtype=complex)
    counit = np.asarray(counit, dtype=complex)
    antipode = np.asarray(antipode, dtype=complex)
    star = np.asarray(star, dtype=complex)
    haar = np.asarray(haar, dtype=complex)
    n = mult.shape[0]
    if mult.shape != (n, n, n) or delta.shape != (n, n, n):
        raise AxiomError("product/coproduct tensors must be n×n×n")
    for name, arr, shape in (
        ("counit", counit, (n,)),
        ("antipode", antipode, (n, n)),
        ("star", star, (n, n)),
        ("haar", haar, (n,)),
    ):
        if arr.shape != shape:
            raise AxiomError(f"field '{name}' has shape {arr.shape}, expected {shape}")

    # Unit coefficients: Σⱼ uⱼ·(bᵢ bⱼ) = bᵢ and Σⱼ uⱼ·(bⱼ bᵢ) = bᵢ.
    eye = np.eye(n, dtype=complex)
    lhs = np.concatenate(
        [mult.transpose(0, 2, 1).reshape(n * n, n), mult.transpose(1, 2, 0).reshape(n * n, n)]
    )
    rhs = np.concatenate([eye.reshape(-1), eye.reshape(-1)])
    unit_coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    unit_res = float(np.linalg.norm(lhs @ unit_coeffs - rhs))
    if unit_res > DEFAULT_TOL * n:
        raise AxiomError(f"no two-sided unit in the span (residual {unit_res:.3e})")

    # Haar Gram matrix h(bᵢ* bⱼ) and GNS coordinates.
    gram = star @ (mult @ haar)
    gram = (gram + dagger(gram)) / 2.0
    w, u = np.linalg.eigh(gram)
    if w.min() < DEFAULT_TOL:
        raise AxiomError(
            f"haar functional is not faithful and positive (Gram eigenvalue {w.min():.3e})"
        )
    coord = (u * np.sqrt(w)) @ dagger(u)
    coord_inv = (u / np.sqrt(w)) @ dagger(u)

    lmats = np.array([coord @ mult[i].T @ coord_inv for i in range(n)])
    lmats.flags.writeable = False
    omega = coord @ unit_coeffs
    ms = coord @ star.T @ np.conj(coord_inv)

    return KacAlgebra(
        dim=n,
        labels=tuple(labels),
        mult=mult,
        delta=delta,
        counit=counit,
        antipode=antipode,
        star=star,
        haar=haar,
        unit_coeffs=unit_coeffs,
        lmats=lmats,
        omega=omega,
        coord=coord,
        coord_inv=coord_inv,
        mj=ms,
        origin=origin,
        group=group,
    )


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


def validate_kac(kac: KacAlgebra, tol: float = TIGHT_TOL) -> dict:
    """Residuals for every defining axiom, at the coefficient-tensor level.

    Returns a dict mapping axiom names to non-negative residuals, plus
    ``max_residual`` and ``passed``.  Each tensor-level residual is the
    entrywise maximum of a defect over the coefficient tensors; Haar
    positivity is the margin by which the Gram matrix's least eigenvalue
    falls short of ``tol``.  A representation-level check, the
    largest Frobenius norm of L(bᵢ)† − L(bᵢ*) over all n basis elements (the
    GNS action is a *-representation), keeps tensor-level and operator-level
    data in sync.
    """
    m, d = kac.mult, kac.delta
    eps, s, st, h = kac.counit, kac.antipode, kac.star, kac.haar
    u = kac.unit_coeffs
    n = kac.dim
    res: dict = {}

    # Every contraction is a reshape and a matmul, at most n⁶ multiply-adds.
    res["product_associative"] = float(
        np.abs(_chain(m, m) - _chain(m, m.swapaxes(0, 1)).transpose(2, 0, 1, 3)).max()
    )
    res["coproduct_coassociative"] = float(
        np.abs(_chain(d.swapaxes(1, 2), d).transpose(0, 2, 3, 1) - _chain(d, d)).max()
    )
    res["counit_left"] = float(np.abs(eps @ d - np.eye(n)).max())
    res["counit_right"] = float(np.abs(d @ eps - np.eye(n)).max())

    # Coproduct is an algebra map: Δ(bᵢbⱼ) = Δ(bᵢ)Δ(bⱼ).  The right side is
    # Σ_bc P[i,b,c,e]·Q[b,c,j,f] with P = Σₐ d[i,a,b]·m[a,c,e] and
    # Q = Σ_q d[j,c,q]·m[b,q,f], one n²×n² product.
    p = _chain(d.swapaxes(1, 2), m).transpose(0, 3, 1, 2).reshape(n * n, n * n)
    q = (d.reshape(n * n, n) @ m).reshape((n,) * 4).transpose(0, 2, 1, 3)
    rhs = (p @ q.reshape(n * n, n * n)).reshape((n,) * 4).transpose(0, 2, 1, 3)
    res["coproduct_multiplicative"] = float(np.abs(_chain(m, d) - rhs).max())
    res["coproduct_unital"] = float(
        np.abs((u @ d.reshape(n, n * n)).reshape(n, n) - np.outer(u, u)).max()
    )
    res["coproduct_star"] = float(
        np.abs((st @ d.reshape(n, n * n)).reshape(n, n, n) - st.T @ np.conj(d) @ st).max()
    )

    res["counit_multiplicative"] = float(np.abs(m @ eps - np.outer(eps, eps)).max())
    res["counit_unital"] = float(np.abs(u @ eps - 1.0))
    res["counit_star"] = float(np.abs(st @ eps - np.conj(eps)).max())

    eps_u = np.outer(eps, u)
    res["antipode_left"] = float(
        np.abs((s.T @ d).reshape(n, n * n) @ m.reshape(n * n, n) - eps_u).max()
    )
    res["antipode_right"] = float(
        np.abs((d @ s).reshape(n, n * n) @ m.reshape(n * n, n) - eps_u).max()
    )
    res["antipode_antimultiplicative"] = float(np.abs(m @ s - _twisted(s, m)).max())
    res["antipode_involutive"] = float(np.abs(s @ s - np.eye(n)).max())
    res["antipode_star_commute"] = float(
        np.abs(np.conj(s) @ st - st @ s).max()
    )

    hm = m @ h
    res["haar_tracial"] = float(np.abs(hm - hm.T).max())
    res["haar_unital"] = float(np.abs(u @ h - 1.0))
    res["haar_left_invariant"] = float(np.abs(h @ d - np.outer(h, u)).max())
    res["haar_right_invariant"] = float(np.abs(d @ h - np.outer(h, u)).max())
    gram = st @ hm
    gram = (gram + dagger(gram)) / 2.0
    res["haar_positive_faithful"] = float(max(0.0, tol - np.linalg.eigvalsh(gram).min()))

    res["star_involutive"] = float(np.abs(np.conj(st) @ st - np.eye(n)).max())
    res["star_antimultiplicative"] = float(np.abs(np.conj(m) @ st - _twisted(st, m)).max())

    res["representation_star"] = frob_max(dagger(kac.lmats) - kac.op(st))

    res["max_residual"] = max(v for k, v in res.items())
    res["passed"] = res["max_residual"] < tol
    return res


def _chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σₖ x[a,b,k]·y[k,c,e] at [a, b, c, e], for two (n, n, n) tensors."""
    n = len(x)
    return (x.reshape(n * n, n) @ y.reshape(n, n * n)).reshape((n,) * 4)


def _twisted(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Σₐᵦ x[j,a]·x[i,b]·m[a,b,r] at [i, j, r]: the product of images in swapped order."""
    n = len(x)
    return (x @ (x @ m).reshape(n, n * n)).reshape(n, n, n).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def group_algebra(g: GroupTable) -> KacAlgebra:
    """The group algebra ℂ[G]: basis λ_g, coproduct λ_g ↦ λ_g⊗λ_g."""
    n = g.order
    t = g.table
    inv = g.inverse
    mult = np.zeros((n, n, n), dtype=complex)
    delta = np.zeros((n, n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    for i in range(n):
        delta[i, i, i] = 1.0
        antipode[i, inv[i]] = 1.0
        for j in range(n):
            mult[i, j, t[i, j]] = 1.0
    counit = np.ones(n, dtype=complex)
    star = antipode.copy()  # λ_g* = λ_{g⁻¹}
    haar = np.zeros(n, dtype=complex)
    haar[0] = 1.0
    return kac_from_structure(
        [f"λ[{lbl}]" for lbl in g.labels], mult, delta, counit, antipode, star, haar,
        origin="group_algebra", group=g,
    )


def function_algebra(g: GroupTable) -> KacAlgebra:
    """The function algebra C(G): basis of point indicators δ_g."""
    n = g.order
    t = g.table
    inv = g.inverse
    mult = np.zeros((n, n, n), dtype=complex)
    delta = np.zeros((n, n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for i in range(n):
        mult[i, i, i] = 1.0
        antipode[i, inv[i]] = 1.0
        star[i, i] = 1.0
        for j in range(n):
            delta[t[i, j], i, j] = 1.0
    counit = np.zeros(n, dtype=complex)
    counit[0] = 1.0
    haar = np.full(n, 1.0 / n, dtype=complex)
    return kac_from_structure(
        [f"δ[{lbl}]" for lbl in g.labels], mult, delta, counit, antipode, star, haar,
        origin="function_algebra", group=g,
    )


def tensor_kac(a: KacAlgebra, b: KacAlgebra) -> KacAlgebra:
    """Tensor product Kac algebra, indexed as i_a·dim(b) + i_b."""
    na, nb = a.dim, b.dim
    n = na * nb
    mult = np.einsum("ijk,pqr->ipjqkr", a.mult, b.mult).reshape(n, n, n)
    delta = np.einsum("kij,rpq->kripjq", a.delta, b.delta).reshape(n, n, n)
    counit = np.kron(a.counit, b.counit)
    antipode = np.kron(a.antipode, b.antipode)
    star = np.kron(a.star, b.star)
    haar = np.kron(a.haar, b.haar)
    labels = [f"{la_}⊗{lb_}" for la_ in a.labels for lb_ in b.labels]
    return kac_from_structure(
        labels, mult, delta, counit, antipode, star, haar, origin="tensor"
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_kac(kac: KacAlgebra, path: str) -> None:
    """Write the structure tensors as JSON."""
    with open(path, "w") as fh:
        json.dump(kac.to_json(), fh, sort_keys=True)
        fh.write("\n")


def _group_table(gdoc: dict, n: int) -> GroupTable:
    """The embedded group table of an order-``n`` document, checked to be a group."""
    table = np.array(gdoc["mult"], dtype=object)
    if gdoc["order"] != n or table.shape != (n, n) or not all(
        type(v) is int and 0 <= v < n for v in table.flat
    ):
        raise AxiomError(f"field 'group' must hold an order-{n} table of integers in range({n})")
    glabels = gdoc.get("labels", [str(i) for i in range(n)])
    if not isinstance(glabels, list) or len(glabels) != n:
        raise AxiomError(f"field 'group.labels' must be a list of {n} labels")
    group = GroupTable(order=n, table=table.astype(int), labels=tuple(str(x) for x in glabels))
    gval = group.validate()
    if not gval["passed"]:
        raise AxiomError(f"embedded group table is not a group: {gval}")
    return group


def load_kac(source, validate: bool = True) -> KacAlgebra:
    """Load a Kac algebra from a JSON path or an already-parsed document.

    Runs the full axiom validator by default, at ``TIGHT_TOL``, and raises
    :class:`AxiomError` with the residual report if any axiom fails, if a
    field is missing or cannot be read (:func:`read_field`), or if an
    embedded group table is not a dim×dim table of integers in range(dim)
    or its ``labels`` are not a list of dim labels.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    n = read_field(doc, "dim", int, AxiomError)
    labels = read_field(doc, "basis_labels", lambda x: [str(v) for v in x], AxiomError)
    if len(labels) != n:
        raise AxiomError(f"{len(labels)} labels for dimension {n}")
    mult = _as_complex_tensor(doc, "mult", (n, n, n))
    delta = _as_complex_tensor(doc, "delta", (n, n, n))
    counit = _as_complex_tensor(doc, "counit", (n,))
    antipode = _as_complex_tensor(doc, "antipode", (n, n))
    star = _as_complex_tensor(doc, "star", (n, n))
    haar = _as_complex_tensor(doc, "haar", (n,))
    origin = str(doc.get("origin", "custom"))
    group = None
    if "group" in doc:
        group = read_field(doc, "group", lambda gdoc: _group_table(gdoc, n), AxiomError)
    kac = kac_from_structure(
        labels, mult, delta, counit, antipode, star, haar,
        origin=origin, group=group,
    )
    if validate:
        report = validate_kac(kac)
        if not report["passed"]:
            bad = {k: v for k, v in report.items()
                   if isinstance(v, float) and v >= TIGHT_TOL}
            raise AxiomError(f"axiom violations: {sorted(bad)}", report)
    return kac
