"""The per-layer metrics of the traced run, one layer per ``kacgalois`` module.

``PER_LAYER`` holds every metric the traced run reports, as ``BENCHMARK.json``
lists them; ``layer_metrics`` fills them from a tracer summary.  A layer's
``self_s`` sums the self time of all its traced functions, not only the ones
listed there.
"""

from __future__ import annotations

import json
import os

from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
# Name -> unit of every per-layer metric, in the order of BENCHMARK.json.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def layer_metrics(summary: dict, overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` from ``Tracer.summary()``."""
    calls, self_s = summary["calls"], summary["self_s"]
    counters, distinct = summary["counters"], summary["distinct"]
    layer_self = {layer: 0.0 for layer in MODULES}
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    out = {}
    for metric in PER_LAYER:
        head, field = metric.rsplit(".", 1)
        if metric == "trace.overhead_frac":
            value = overhead_frac
        elif head in layer_self:
            value = layer_self[head]
        elif field == "calls":
            value = calls.get(head, 0)
        elif field == "self_s":
            value = self_s.get(head, 0.0)
        elif field == "unique_ratio":
            value = distinct.get(head, 0) / calls[head] if calls.get(head) else 0.0
        else:
            value = counters.get(metric, 0)
        out[metric] = value
    return out
