"""Dense linear-algebra helpers: kernels, spans, powers, probe draws."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kacgalois import linalg as la

from conftest import project_span, span_residual


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def span_projector(onb) -> np.ndarray:
    """Dense oracle: the d²×d² projector onto an orthonormal matrix span."""
    rows = np.asarray(onb, dtype=complex).reshape(len(onb), -1)
    return la.dagger(rows) @ rows


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("m,n,rank", [(6, 4, 2), (5, 8, 3), (7, 7, 0), (9, 5, 5)])
def test_null_space_matches_constructed_rank(seed, m, n, rank):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, m, rank) @ random_complex(rng, rank, n) if rank else np.zeros((m, n))
    ns = la.null_space(a)
    assert ns.shape == (n, n - rank)
    if ns.shape[1]:
        np.testing.assert_allclose(a @ ns, 0, atol=1e-10)
        np.testing.assert_allclose(la.dagger(ns) @ ns, np.eye(n - rank), atol=1e-10)


@pytest.mark.parametrize("seed", [0, 5])
def test_null_space_survives_svd_nonconvergence(monkeypatch, seed):
    # Regression: when the SVD driver gives up, the Gram-matrix fallback must
    # still find the full kernel despite its squared (hence tiny) spectrum.
    rng = np.random.default_rng(seed)
    m, n, rank = 8, 12, 5
    a = random_complex(rng, m, rank) @ random_complex(rng, rank, n)

    real_svd = np.linalg.svd

    def raising_svd(*args, **kwargs):
        if kwargs.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", raising_svd)
    ns = la.null_space(a)
    assert ns.shape[1] == n - rank
    np.testing.assert_allclose(a @ ns, 0, atol=1e-8)


def test_null_space_of_scaled_matrix_keeps_relative_cutoff():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 6, 3) @ random_complex(rng, 3, 9)
    for scale in (1e-8, 1.0, 1e8):
        assert la.null_space(scale * a).shape[1] == 6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orthonormalize_spans_the_same_space(seed):
    rng = np.random.default_rng(seed)
    mats = [random_complex(rng, 4, 4) for _ in range(3)]
    mats.append(mats[0] + 2.0 * mats[1])  # dependent
    onb = la.orthonormalize(mats)
    assert len(onb) == 3
    gram = np.array([[np.vdot(x, y) for y in onb] for x in onb])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
    for m in mats:
        assert span_residual(m, onb) < 1e-9


@pytest.mark.parametrize("seed", [3, 4])
def test_intersect_spans_recovers_common_subspace(seed):
    rng = np.random.default_rng(seed)
    common = [random_complex(rng, 5, 5) for _ in range(2)]
    left = la.orthonormalize(common + [random_complex(rng, 5, 5)])
    right = la.orthonormalize(common + [random_complex(rng, 5, 5)])
    meet = la.intersect_spans(left, right)
    assert len(meet) == 2
    for m in meet:
        assert span_residual(m, la.orthonormalize(common)) < 1e-8


def test_span_projector_and_distance():
    rng = np.random.default_rng(7)
    onb = la.orthonormalize([random_complex(rng, 3, 3) for _ in range(2)])
    p = span_projector(onb)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    np.testing.assert_allclose(p, la.dagger(p), atol=1e-10)
    assert la.span_distance(onb, onb) < 1e-12
    x = random_complex(rng, 3, 3)
    proj = project_span(x, onb)
    # The projection is the closest span element: the residual is orthogonal.
    for b in onb:
        assert abs(np.vdot(b, x - proj)) < 1e-10


def _rotated_span(rng, onb, angle):
    """An orthonormal span at distance about ``angle`` from span(onb)."""
    return la.orthonormalize([b + angle * random_complex(rng, *b.shape) for b in onb])


@pytest.mark.parametrize(
    "case, seed", [("equal", 21), ("rotated", 22), ("unequal", 23), ("shared", 25)]
)
def test_span_distance_matches_dense_projector_difference(case, seed):
    rng = np.random.default_rng(seed)
    a = la.orthonormalize([random_complex(rng, 4, 4) for _ in range(5)])
    if case == "equal":  # same span, another basis of it
        mix = random_complex(rng, 5, 5)
        b = la.orthonormalize(np.tensordot(mix, a, axes=1))
    elif case == "rotated":
        b = _rotated_span(rng, a, 1e-7)
    elif case == "unequal":
        b = a[:3]
    else:  # two 3-dim spans in M₄ sharing two basis elements
        a = a[:3]
        b = la.orthonormalize([a[0], a[1], random_complex(rng, 4, 4)])
    dense = la.opnorm(span_projector(a) - span_projector(b))
    gap = la.span_distance(a, b)
    assert gap == pytest.approx(la.span_distance(b, a), abs=1e-15)
    if case == "equal":
        assert dense < 1e-14 and gap < 1e-14
    elif case == "rotated":
        assert 1e-8 < dense < 1e-5
        assert gap == pytest.approx(dense, rel=1e-6)
    elif case == "unequal":
        assert dense == pytest.approx(1.0, abs=1e-12)
        assert gap == pytest.approx(1.0, abs=1e-12)
    else:
        assert dense > 0.9
        assert gap == pytest.approx(dense, rel=1e-12)


def test_span_distance_of_unequal_dimensions_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(23)
    a = la.orthonormalize([random_complex(rng, 4, 4) for _ in range(5)])

    def no_svd(*args, **kwargs):
        raise AssertionError("span_distance ran an SVD on spans of unequal dimension")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(la, "opnorm", no_svd)
    assert la.span_distance(a, a[:3]) == 1.0
    assert la.span_distance(a[:1], a) == 1.0


def test_span_distance_of_empty_spans():
    rng = np.random.default_rng(24)
    a = la.orthonormalize([random_complex(rng, 3, 3)])
    assert la.span_distance([], []) == 0.0
    assert la.span_distance(a, []) == 1.0
    assert la.span_distance([], a) == 1.0


def tilted_spans(angles, seed):
    """Two orthonormal spans in M₃ whose principal angles are ``angles``.

    Row i of the second is cos θᵢ·aᵢ + sin θᵢ·wᵢ, with the aᵢ and wᵢ together
    orthonormal, so the gap ‖P₁ − P₂‖ is sin(max θᵢ) and the Frobenius norm
    of each gap matrix is √(Σ sin² θᵢ).
    """
    rng = np.random.default_rng(seed)
    frame = la.orthonormalize([random_complex(rng, 3, 3) for _ in range(2 * len(angles))])
    a, w = frame[: len(angles)], frame[len(angles) :]
    t = np.asarray(angles, dtype=float)[:, None, None]
    return a, np.cos(t) * a + np.sin(t) * w


@pytest.mark.parametrize(
    "angles, svd",
    [
        ((0.0,) * 4, False),
        ((0.4e-8,) * 4, False),  # ‖·‖_F = 0.8e-8: a match, read off the bracket
        ((0.6e-8,) * 4, True),  # gap 0.6e-8 in [SPAN_TOL/√4, SPAN_TOL), ‖·‖_F = 1.2e-8
        ((1.2e-8, 0.0, 0.0, 0.0), True),  # gap 1.2e-8 with ‖·‖_F below SPAN_TOL·√4
        ((1e-3,) * 4, False),
    ],
    ids=["same", "inside", "straddles_match", "straddles_apart", "apart"],
)
def test_spans_match_is_the_span_distance_decision(monkeypatch, angles, svd):
    a, b = tilted_spans(angles, seed=31)
    gap = la.span_distance(a, b)
    assert gap == pytest.approx(np.sin(max(angles)), rel=1e-6, abs=1e-14)
    if svd and gap < la.SPAN_TOL:
        assert la.SPAN_TOL / np.sqrt(len(a)) <= gap
    calls = []
    exact = la.opnorm
    monkeypatch.setattr(la, "opnorm", lambda x: calls.append(1) or exact(x))
    for x, y in ((a, b), (b, a)):
        calls.clear()
        assert la.spans_match(x, y) is (gap < la.SPAN_TOL)
        assert len(calls) == (2 if svd else 0)  # one SVD per gap matrix, or none


def test_spans_match_of_unequal_or_empty_spans_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(32)
    a = la.orthonormalize([random_complex(rng, 3, 3) for _ in range(3)])

    def no_svd(*args, **kwargs):
        raise AssertionError("spans_match ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert la.spans_match(a, a[:2]) is False
    assert la.spans_match([], []) is True
    assert la.spans_match(a, []) is False


@pytest.mark.parametrize("seed", [0, 1])
def test_herm_power_laws(seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, 4, 4)
    h = x @ la.dagger(x) + 0.1 * np.eye(4)
    root = la.herm_power(h, 0.5)
    np.testing.assert_allclose(root @ root, h, atol=1e-9)
    np.testing.assert_allclose(la.herm_power(h, 1.0), h, atol=1e-10)
    np.testing.assert_allclose(la.herm_power(h, -1.0) @ h, np.eye(4), atol=1e-9)
    u = la.herm_power(h, 0.7j)
    np.testing.assert_allclose(la.dagger(u) @ u, np.eye(4), atol=1e-9)


def herm_powers_by_loop(a, powers):
    """Reference: each power from the eigenvalues one at a time, 0 on the kernel."""
    w, u = np.linalg.eigh((a + la.dagger(a)) / 2.0)
    w = np.clip(w.real, 0.0, None)
    return [
        (u * np.array([v**p if v > 0 else 0.0 for v in w], dtype=complex)) @ la.dagger(u)
        for p in powers
    ]


@pytest.mark.parametrize("singular", [False, True])
def test_herm_powers_match_the_eigenvalue_loop(singular):
    rng = np.random.default_rng(6)
    x = random_complex(rng, 5, 3 if singular else 5)
    h = x @ la.dagger(x)
    powers = [0.5, 1.0, 2, 0] + ([] if singular else [-0.5, 0.3j, -1.0 - 0.7j])
    got = la.herm_powers(h, powers)
    assert got.shape == (len(powers), 5, 5)
    for value, want in zip(got, herm_powers_by_loop(h, powers)):
        assert np.abs(value - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    with pytest.raises(np.linalg.LinAlgError):
        la.herm_powers(h if singular else np.zeros((3, 3)), [0.5, 0.5j])


def test_leg_distance_matches_the_kronecker_projector():
    # dist(W, X⊗Y) = ‖W − P·W‖_F with P the projector onto span{x⊗y}, built
    # from np.kron over the two orthonormal bases (its rows are orthonormal
    # because ⟨x⊗y, x′⊗y′⟩ = ⟨x, x′⟩⟨y, y′⟩).
    rng = np.random.default_rng(3)
    n = 3
    home = la.orthonormalize(random_complex(rng, 2, n, n))
    span = la.orthonormalize(random_complex(rng, 4, n, n))
    dense = random_complex(rng, n * n, n * n)
    for side, legs in (("left", (home, span)), ("right", (span, home))):
        prods = [np.kron(a, b) for a in legs[0] for b in legs[1]]
        inside = np.tensordot(random_complex(rng, len(prods)), prods, axes=1)
        near = inside + 1e-6 * random_complex(rng, n * n, n * n)
        stack = np.stack([dense, near])
        got = la.leg_distance(stack, home, span, side)
        assert got.shape == (2,)
        proj = span_projector(prods)
        for w, value in zip(stack, got):
            want = la.frob(w.reshape(-1) - w.reshape(-1) @ proj)  # row-vector convention
            assert abs(value - want) <= 1e-9 * want
        assert got[0] > 1 and 1e-7 < got[1] < 1e-4
        assert la.leg_distance(inside, home, span, side) <= 1e-14 * la.frob(inside)
    with pytest.raises(ValueError, match="side must be"):
        la.leg_distance(dense, home, span, "up")


def test_probe_draws_are_the_stdlib_stream_in_c_order():
    got = la.probe_draws(11, (3, 2, 4))
    stream = random.Random(11)
    want = [2.0 * stream.random() - 1.0 for _ in range(24)]
    assert got.shape == (3, 2, 4) and got.dtype == np.float64
    assert got.reshape(-1).tolist() == want
    assert np.array_equal(la.probe_draws(11, (3, 2, 4)), got)
    assert not np.array_equal(la.probe_draws(12, (3, 2, 4)), got)
    many = la.probe_draws(0, 10000)
    assert -1.0 <= many.min() < -0.99 and 0.99 < many.max() < 1.0


PROBES_IN_A_FRESH_INTERPRETER = """
import sys
from importlib import resources

import kacgalois.cli
from kacgalois import coideals as ci, coreps as cr, duality as du, jones as jn, kac as kc

def loaded():
    return sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules)

kp8 = kc.load_kac(str(resources.files("kacgalois") / "fixtures" / "kp8.json"), validate=False)
assert kc.validate_kac(kp8)["passed"]
v = du.multiplicative_unitary(kp8)
hat = du.hat_algebra(kp8, v)
du.integrals(kp8, hat)
reps = cr.irreducible_coreps(kp8, v, hat)
assert cr.fourier_round_trip(kp8, reps)["round_trip"] < 1e-8
du.dual_kac(kp8)
jn.jones_chain(jn.fixture_scaled_pair())
print(loaded())
ci.galois_lattice_report(du.dual_kac(kc.function_algebra(kc.symmetric_group_3())))
print("numpy.random" in sys.modules)
jn.random_inclusion(3)
print("numpy.random" in sys.modules)
"""


def test_certificate_probes_load_neither_numpy_random_nor_openssl():
    # The probes draw from the stdlib; only the seeded samplers load numpy.random.
    src = Path(la.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", PROBES_IN_A_FRESH_INTERPRETER],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == ["[]", "False", "True"]
