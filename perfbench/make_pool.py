"""Regenerate ``inclusion_pool.json``: draw shapes and the selftest seeds.

``jones.random_inclusion(seed)`` draws inclusions whose cost spans fifty-fold
(GNS dimension 4 to 20) and, at one GNS dimension, still moves by a third
with the dimension of the small algebra.  ``by_shape`` maps each shape
(GNS dim / small-algebra dim) to the draws of the first ``DRAWS`` seeds that
have it; ``jones_family`` picks its draws from it, so that every benchmark
seed runs the same mix of sizes.

``selftest --seed S`` draws inclusions ``2S`` and ``2S + 1`` and seeds the
completeness audit of ``enumerate_coideals_group_case`` with ``S`` on each
of its twelve group-derived algebras.  The audit closes eight seeded pairs
of basis elements per algebra, and the closures' dimensions move its cost
by a quarter.  ``selftest.seeds`` keeps the ``S`` whose two draws have the
shapes ``SELFTEST_SHAPES`` (the commonest pair) and whose audit closure
dimensions sum to the middle half of those seeds' values.

The benchmark checks the shape of every draw it uses against this table, so
a change to the generator shows as a failed op rather than a silently
different workload.  Usage, from the repository root::

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "inclusion_pool.json")
DRAWS = 1000
SELFTEST_SHAPES = ["16/10", "9/5"]


def audit_closure_dims(seed: int, algebras) -> int:
    """Sum of the dimensions of every coideal closure the audit makes at ``seed``."""
    from kacgalois import coideals

    dims = []
    closure = coideals.coideal_closure

    def counted(*args, **kwargs):
        coid = closure(*args, **kwargs)
        dims.append(coid.dim)
        return coid

    coideals.coideal_closure = counted
    try:
        for algebra in algebras:
            coideals.enumerate_coideals_group_case(algebra, side="left", seed=seed)
    finally:
        coideals.coideal_closure = closure
    return sum(dims)


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from kacgalois import cli, jones, kac

    by_shape: dict[str, list[int]] = {}
    shape_of = {}
    for seed in range(DRAWS):
        inc = jones.random_inclusion(seed)
        shape_of[seed] = f"{inc.big.dim}/{inc.small.dim}"
        by_shape.setdefault(shape_of[seed], []).append(seed)

    algebras = []
    for _, builder in cli.GROUP_BUILDERS:
        group = builder()
        algebras += [kac.group_algebra(group), kac.function_algebra(group)]
    work = {
        s: audit_closure_dims(s, algebras)
        for s in range(DRAWS // 2)
        if sorted([shape_of[2 * s], shape_of[2 * s + 1]]) == SELFTEST_SHAPES
    }
    ranked = sorted(work, key=lambda s: (work[s], s))
    quarter = len(ranked) // 4
    middle = ranked[quarter: len(ranked) - quarter]

    doc = {
        "draws": DRAWS,
        "by_shape": by_shape,
        "selftest": {
            "draw_shapes": SELFTEST_SHAPES,
            "seeds": sorted(middle),
            "audit_closure_dims": {str(s): work[s] for s in sorted(middle)},
        },
    }
    with open(POOL_PATH, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
