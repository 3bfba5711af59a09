"""Self-checks of the benchmark's tracer and per-layer metrics.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import tracer as tr  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_a_nested_call_tree():
    # a [0, 10] calls b [1, 4] and c [5, 9]; c calls d [6, 7].
    t = tr.Tracer(clock=fake_clock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    d = t.wrap("x.d", lambda: None)
    c = t.wrap("x.c", lambda: d())
    b = t.wrap("x.b", lambda: None)
    a = t.wrap("x.a", lambda: (b(), c()))
    a()
    summary = t.summary()
    assert summary["self_s"] == pytest.approx({"x.a": 3.0, "x.b": 3.0, "x.c": 3.0, "x.d": 1.0})
    assert summary["calls"] == {"x.a": 1, "x.b": 1, "x.c": 1, "x.d": 1}
    parents = {t.names[s[0]]: s[3] for s in t.spans}
    assert parents == {"x.a": -1, "x.b": 0, "x.c": 0, "x.d": 2}


def test_self_time_subtracts_the_union_of_children():
    t = tr.Tracer()
    t.names = ["p", "c"]
    # Two overlapping children cover [1, 7] of the parent's [0, 10].
    t.spans = [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [1, 3.0, 7.0, 0]]
    assert t.self_times() == pytest.approx([4.0, 4.0, 4.0])


def test_span_ends_when_the_function_raises():
    t = tr.Tracer(clock=fake_clock([0.0, 2.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("x.boom", boom)()
    assert t.spans == [[0, 0.0, 2.0, -1]]
    assert t.summary()["self_s"] == {"x.boom": 2.0}


def test_layer_metrics_sum_self_time_per_layer_and_compute_ratios():
    t = tr.Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0]))
    t.wrap("duality.hat_algebra", lambda: None)()
    t.wrap("duality.integrals", lambda: None)()
    t.counts["linalg.hs_inner"] = 7
    t.counts["duality.dual_kac"] = 4
    t.distinct["duality.dual_kac"] = {"a", "b"}
    m = layers.layer_metrics(t.summary(), overhead_frac=0.25)
    assert set(m) == set(layers.PER_LAYER)
    assert m["duality.self_s"] == pytest.approx(2.0)
    assert m["duality.hat_algebra.self_s"] == pytest.approx(1.0)
    assert m["linalg.hs_inner.calls"] == 7
    assert m["duality.dual_kac.unique_ratio"] == pytest.approx(0.5)
    assert m["duality.multiplicative_unitary.unique_ratio"] == 0.0
    assert m["trace.overhead_frac"] == 0.25


def test_pentagon_counters_follow_the_dense_branch():
    t = tr.Tracer()
    t.wrap("duality.pentagon_residual", lambda v, n: 0.0)(None, 12)
    t.wrap("duality.pentagon_residual", lambda v, n: 0.0)(None, 13)
    c = t.summary()["counters"]
    big = 12**3
    assert c["duality.pentagon_residual.dense_calls"] == 1
    assert c["duality.pentagon_residual.sampled_calls"] == 1
    assert c["duality.pentagon_residual.bytes_computed"] == 7 * 16 * big * big
    assert c["duality.pentagon_residual.matmul_flops_computed"] == 3 * 8 * big**3


def test_install_rebinds_every_namespace_and_undoes_it():
    import kacgalois
    from kacgalois import algebra, duality, kac, linalg

    before = (kac.validate_kac, duality.validate_kac, linalg.opnorm, algebra.opnorm)
    onb = algebra.MMAlgebra.onb
    t = tr.Tracer()
    uninstall = tr.install(t, kacgalois)
    try:
        assert kac.validate_kac is duality.validate_kac
        assert kac.validate_kac is not before[0]
        assert algebra.opnorm is linalg.opnorm is not before[2]
        assert algebra.MMAlgebra.onb is not onb
    finally:
        uninstall()
    assert (kac.validate_kac, duality.validate_kac, linalg.opnorm, algebra.opnorm) == before
    assert algebra.MMAlgebra.onb is onb
