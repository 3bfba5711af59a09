"""Span tracer that wraps the public functions of the ``kacgalois`` modules.

Each call of a wrapped function records a span ``[name, start, end, parent]``
in memory; nothing is written until the benchmark ends.  A span's self time
is its duration minus the part of it that its child spans cover.  A few hot
helpers (``linalg.hs_inner`` and friends, ``MMAlgebra.onb``) are counted but
get no span: their per-call cost is close to the cost of recording a span,
so a span would mostly measure the tracer.

Wrappers are installed only for a traced pass and removed after it.  They go
into every ``kacgalois`` module namespace that binds the function, because
modules import each other's functions by name (``duality`` binds
``validate_kac``, ``algebra`` binds ``opnorm``).  References held inside
containers, such as the group builders listed in ``cli.GROUP_BUILDERS``, are
not rebound, so those calls are not traced.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "algebra", "kac", "duality", "coreps", "coideals", "jones", "cli")

# Counted only: sub-microsecond helpers called 10^4-10^5 times per pass.
COUNT_ONLY = frozenset(
    {
        "linalg.hs_inner",
        "linalg.dagger",
        "linalg.frob",
        "linalg.vec",
        "linalg.unvec",
        "algebra.MMAlgebra.onb",
    }
)

# duality.pentagon_residual materialises these N x N complex operands on its
# dense path: V12, V23, V13, V12 V13, V12 V13 V23, V23 V12 and the difference.
PENTAGON_DENSE_OPERANDS = 7
PENTAGON_DENSE_MATMULS = 3
# The dense/sampled branch of duality.pentagon_residual: dense when n^3 <= this.
PENTAGON_DENSE_MAX_N3 = 2048


class Tracer:
    """In-memory span recorder plus counters computed from call arguments."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, self.clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A span-recording (or counting) stand-in for ``fn``."""
        hook = HOOKS.get(name)
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            index = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(i, ()), key=lambda k: self.spans[k][1]):
                lo = max(self.spans[c][1], start)
                hi = min(self.spans[c][2], end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict:
        """Per-function calls, self and inclusive seconds, counters, distinct keys."""
        calls: Counter = Counter(self.counts)
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = self.names[span[0]]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += span[2] - span[1]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# -- hooks: counters computed from the arguments of a call ------------------


def _pentagon_hook(tracer: Tracer, args, kwargs) -> None:
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    big = n**3
    if big <= PENTAGON_DENSE_MAX_N3:
        tracer.counters["duality.pentagon_residual.dense_calls"] += 1
        tracer.counters["duality.pentagon_residual.bytes_computed"] += (
            PENTAGON_DENSE_OPERANDS * 16 * big * big
        )
        tracer.counters["duality.pentagon_residual.matmul_flops_computed"] += (
            PENTAGON_DENSE_MATMULS * 8 * big**3
        )
    else:
        tracer.counters["duality.pentagon_residual.sampled_calls"] += 1


def structure_key(kac) -> str:
    """Digest of a Kac algebra's structure tensors (equal algebras, equal keys)."""
    digest = hashlib.sha1()
    for field in ("mult", "delta", "counit", "antipode", "star", "haar"):
        digest.update(getattr(kac, field).tobytes())
    return digest.hexdigest()


def _distinct_hook(name: str):
    def hook(tracer: Tracer, args, kwargs) -> None:
        kac = args[0] if args else kwargs["kac"]
        tracer.distinct[name].add(structure_key(kac))

    return hook


HOOKS = {
    "duality.pentagon_residual": _pentagon_hook,
    "duality.multiplicative_unitary": _distinct_hook("duality.multiplicative_unitary"),
    "duality.dual_kac": _distinct_hook("duality.dual_kac"),
}


# -- installation -----------------------------------------------------------


def public_functions(package) -> dict[str, tuple]:
    """``{"layer.func": (module, attr, fn)}`` for every public function.

    Functions defined in each of :data:`MODULES`, plus ``MMAlgebra.onb``.
    """
    found = {}
    for layer in MODULES:
        module = getattr(package, layer)
        for attr, fn in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = (module, attr, fn)
    found["algebra.MMAlgebra.onb"] = (package.algebra.MMAlgebra, "onb", package.algebra.MMAlgebra.onb)
    return found


def install(tracer: Tracer, package):
    """Bind wrappers everywhere the originals are bound; return an undo callable."""
    namespaces = [getattr(package, layer) for layer in MODULES]
    undo = []
    for name, (owner, attr, fn) in public_functions(package).items():
        wrapped = tracer.wrap(name, fn)
        targets = [owner] if inspect.isclass(owner) else namespaces
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, fn))

    def uninstall() -> None:
        for ns, key, fn in reversed(undo):
            setattr(ns, key, fn)

    return uninstall
