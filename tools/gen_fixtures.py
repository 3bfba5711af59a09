"""Generate the bundled dimension-8 Kac algebra fixture (kp8.json).

The algebra is presented by generators x, y, z over the monomial basis
{1, x, y, xy, z, xz, yz, xyz} with relations

    x² = y² = 1,  xy = yx,  zx = yz,  zy = xz,  z² = j := (1+x+y-xy)/2,

coproducts Δx = x⊗x, Δy = y⊗y, Δz = (1⊗1 + 1⊗x + y⊗1 - y⊗x)(z⊗z)/2,
counit 1 on all generators, antipode fixing the generators, and star
x* = x, y* = y, z* = z·j.  It is the smallest Kac algebra that is neither
commutative nor cocommutative.  All structure constants are dyadic
rationals, so float arithmetic below is exact.

The Haar state is solved from the invariance equations (not postulated) and
cross-checked against the normalized trace of the left regular action.  The
script refuses to write the fixture unless the full axiom validator passes
at 1e-12.

Run from the repository root:  python3 tools/gen_fixtures.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kacgalois import kac as kc  # noqa: E402
from kacgalois import linalg as la  # noqa: E402

N = 8
LABELS = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
# Monomial x^a y^b z^c at index a + 2b + 4c.


def idx(a: int, b: int, c: int) -> int:
    return a + 2 * b + 4 * c


def build_mult() -> np.ndarray:
    """mult[i, j, k]: product of normal-form monomials.

    Moving z through x^p y^q swaps the exponents (zx = yz, zy = xz), and a
    leftover z² expands to (1 + x + y - xy)/2.
    """
    mult = np.zeros((N, N, N))
    j_coeffs = {(0, 0): 0.5, (1, 0): 0.5, (0, 1): 0.5, (1, 1): -0.5}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for p in range(2):
                    for q in range(2):
                        for r in range(2):
                            i, jj = idx(a, b, c), idx(p, q, r)
                            if c == 0:
                                mult[i, jj, idx(a ^ p, b ^ q, r)] += 1.0
                            else:
                                aa, bb = a ^ q, b ^ p  # z x^p y^q = x^q y^p z
                                if r == 0:
                                    mult[i, jj, idx(aa, bb, 1)] += 1.0
                                else:
                                    for (u, v), coef in j_coeffs.items():
                                        mult[i, jj, idx(aa ^ u, bb ^ v, 0)] += coef
    return mult


def tensor_mult(mult: np.ndarray) -> np.ndarray:
    """Multiplication tensor of A⊗A over the 64 paired monomials."""
    return np.einsum("ijk,pqr->ipjqkr", mult, mult).reshape(N * N, N * N, N * N)


def mul_vec(mt: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", u, v, mt)


def build_delta(mult: np.ndarray) -> np.ndarray:
    mt = tensor_mult(mult)

    def basis2(i: int, j: int) -> np.ndarray:
        v = np.zeros(N * N)
        v[i * N + j] = 1.0
        return v

    dx = basis2(idx(1, 0, 0), idx(1, 0, 0))
    dy = basis2(idx(0, 1, 0), idx(0, 1, 0))
    omega = (
        basis2(0, 0)
        + basis2(0, idx(1, 0, 0))
        + basis2(idx(0, 1, 0), 0)
        - basis2(idx(0, 1, 0), idx(1, 0, 0))
    ) / 2.0
    dz = mul_vec(mt, omega, basis2(idx(0, 0, 1), idx(0, 0, 1)))

    delta = np.zeros((N, N, N))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = basis2(0, 0)
                for _ in range(a):
                    v = mul_vec(mt, v, dx)
                for _ in range(b):
                    v = mul_vec(mt, v, dy)
                for _ in range(c):
                    v = mul_vec(mt, v, dz)
                delta[idx(a, b, c)] = v.reshape(N, N)
    return delta


def build_antipode(mult: np.ndarray) -> np.ndarray:
    """S(x^a y^b z^c) = z^c y^b x^a via the product tensor."""
    s = np.zeros((N, N))
    basis = np.eye(N)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = basis[0]
                for _ in range(c):
                    v = np.einsum("i,j,ijk->k", v, basis[idx(0, 0, 1)], mult)
                for _ in range(b):
                    v = np.einsum("i,j,ijk->k", v, basis[idx(0, 1, 0)], mult)
                for _ in range(a):
                    v = np.einsum("i,j,ijk->k", v, basis[idx(1, 0, 0)], mult)
                s[idx(a, b, c)] = v
    return s


def build_star(mult: np.ndarray) -> np.ndarray:
    """(x^a y^b z^c)* = (z·j)^c y^b x^a (all coefficients real)."""
    st = np.zeros((N, N))
    basis = np.eye(N)
    jvec = np.array([0.5, 0.5, 0.5, -0.5, 0, 0, 0, 0])
    zstar = np.einsum("i,j,ijk->k", basis[idx(0, 0, 1)], jvec, mult)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = basis[0]
                for _ in range(c):
                    v = np.einsum("i,j,ijk->k", v, zstar, mult)
                for _ in range(b):
                    v = np.einsum("i,j,ijk->k", v, basis[idx(0, 1, 0)], mult)
                for _ in range(a):
                    v = np.einsum("i,j,ijk->k", v, basis[idx(1, 0, 0)], mult)
                st[idx(a, b, c)] = v
    return st


def solve_haar(delta: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Bi-invariant normalized functional from the invariance null space."""
    n = delta.shape[0]
    rows = []
    for k in range(n):
        for a in range(n):
            row = delta[k, a, :].astype(complex).copy()  # Σ_b d[k,a,b]·h_b
            row[k] -= unit[a]  # ... − u_a·h_k = 0
            rows.append(row)
        for b in range(n):
            row = delta[k, :, b].astype(complex).copy()
            row[k] -= unit[b]
            rows.append(row)
    ns = la.null_space(np.array(rows))
    if ns.shape[1] != 1:
        raise SystemExit(f"invariant functional space has dimension {ns.shape[1]}, not 1")
    h = ns[:, 0]
    h = h / (unit @ h)
    if np.abs(h.imag).max() > 1e-12:
        raise SystemExit("haar solution is not real")
    return h.real


def write_group_fixtures(out: str) -> None:
    """One KacAlgebra JSON per (group, construction) pair, fully validated."""
    import json

    groups = [
        ("z2", kc.cyclic_group(2)),
        ("z3", kc.cyclic_group(3)),
        ("z4", kc.cyclic_group(4)),
        ("z2xz2", kc.klein_group()),
        ("s3", kc.symmetric_group_3()),
        ("q8", kc.quaternion_group()),
    ]
    for name, g in groups:
        for kind, builder in (
            ("group", kc.group_algebra),
            ("function", kc.function_algebra),
        ):
            kac = builder(g)
            report = kc.validate_kac(kac, tol=1e-12)
            if not report["passed"]:
                raise SystemExit(f"{name} {kind} algebra failed validation")
            path = os.path.join(out, f"{name}_{kind}.json")
            kc.save_kac(kac, path)
            back = kc.load_kac(path)
            if back.origin != kac.origin or back.group is None:
                raise SystemExit(f"{path} did not round-trip its group origin")
            print(f"wrote {path}")


def write_inclusion(inc, path: str) -> None:
    """An inclusion as the JSON document that ``kacgalois jones`` reads."""
    import json

    def cm(mat: np.ndarray) -> list:
        return [
            [[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)
        ]

    doc = {
        "ambient_dim": inc.big.ambient_dim,
        "M_basis": [cm(b) for b in inc.big.onb()],
        "N_basis": [cm(b) for b in inc.small.onb()],
        "E_matrix": cm(inc.expectation.matrix),
        "omega_density": cm(inc.omega.density),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_inclusion_fixture(out: str) -> None:
    """The two-point inclusion with the 1/3-weighted expectation, as JSON."""
    from kacgalois import jones as jn

    path = os.path.join(out, "scaled_pair_third.json")
    write_inclusion(jn.fixture_scaled_pair(1.0 / 3.0), path)
    print(f"wrote {path}")


def write_kp8(out: str) -> None:
    """The Kac–Paljutkin algebra, checked as the module docstring describes."""
    mult = build_mult()
    delta = build_delta(mult)
    antipode = build_antipode(mult)
    star = build_star(mult)
    counit = np.ones(N)
    unit = np.eye(N)[0]

    haar = solve_haar(delta, unit)
    reg_trace = np.einsum("ijj->i", mult) / N
    if np.abs(haar - reg_trace).max() > 1e-12:
        raise SystemExit("haar does not match the normalized regular trace")

    kac = kc.kac_from_structure(
        LABELS, mult, delta, counit, antipode, star, haar, origin="custom"
    )
    report = kc.validate_kac(kac, tol=1e-12)
    if not report["passed"]:
        bad = {k: v for k, v in report.items() if isinstance(v, float) and v > 1e-12}
        raise SystemExit(f"axiom check failed: {bad}")

    commutative = np.abs(mult - mult.transpose(1, 0, 2)).max() < 1e-12
    cocommutative = np.abs(delta - delta.transpose(0, 2, 1)).max() < 1e-12
    if commutative or cocommutative:
        raise SystemExit("fixture degenerated to a (co)commutative algebra")
    blocks = kac.as_mm().block_dims
    print("block structure:", blocks)
    if sorted(m for m, _ in blocks) != [1, 1, 1, 1, 2]:
        raise SystemExit(f"unexpected block structure {blocks}")

    path = os.path.join(out, "kp8.json")
    kc.save_kac(kac, path)
    print(f"wrote {path}  (max axiom residual {report['max_residual']:.2e})")


def main() -> None:
    out = os.path.join(os.path.dirname(__file__), "..", "src", "kacgalois", "fixtures")
    os.makedirs(out, exist_ok=True)
    write_kp8(out)
    write_group_fixtures(out)
    write_inclusion_fixture(out)


if __name__ == "__main__":
    main()
