"""Shared session fixtures: the standard test algebras and cached heavy objects.

The dual construction, corepresentation extraction, and Galois lattice are
the expensive steps, so each is computed once per algebra for the whole run.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from kacgalois import coideals as ci
from kacgalois import coreps as cr
from kacgalois import duality as du
from kacgalois import kac as kc

GROUP_BUILDERS = (
    ("z2", lambda: kc.cyclic_group(2)),
    ("z3", lambda: kc.cyclic_group(3)),
    ("z4", lambda: kc.cyclic_group(4)),
    ("z2xz2", kc.klein_group),
    ("s3", kc.symmetric_group_3),
    ("q8", kc.quaternion_group),
)

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "inclusion_pool.json"

GROUP_NAMES = tuple(name for name, _ in GROUP_BUILDERS)
ALGEBRA_NAMES = tuple(
    f"{name}_{kind}" for name, _ in GROUP_BUILDERS for kind in ("group", "function")
)


def pool_shapes():
    """One ``random_inclusion`` seed per shape of the benchmark's inclusion pool."""
    by_shape = json.loads(POOL.read_text())["by_shape"]
    return [pytest.param(seeds[0], id=shape) for shape, seeds in sorted(by_shape.items())]


@pytest.fixture(scope="session")
def groups():
    return {name: build() for name, build in GROUP_BUILDERS}


@pytest.fixture(scope="session")
def algebras(groups):
    out = {}
    for name, g in groups.items():
        out[f"{name}_group"] = kc.group_algebra(g)
        out[f"{name}_function"] = kc.function_algebra(g)
    return out


@pytest.fixture(scope="session")
def kp8():
    path = resources.files("kacgalois").joinpath("fixtures/kp8.json")
    return kc.load_kac(str(path))


TENSOR_COMBOS = (
    ("z2_group", "z2_group"),
    ("z2_group", "z3_function"),
    ("z4_group", "z3_group"),
    ("s3_function", "z2_group"),
)


@pytest.fixture(scope="session")
def tensor_algebras(algebras):
    return {
        f"{left}*{right}": kc.tensor_kac(algebras[left], algebras[right])
        for left, right in TENSOR_COMBOS
    }


LADDER_PRODUCTS = (
    ("z3_group", "z3_function"),
    ("z2_group", "z5_function"),
    ("s3_function", "z2_group"),
)
LADDER_NAMES = tuple(f"{left}*{right}" for left, right in LADDER_PRODUCTS)


@pytest.fixture(scope="session")
def ladder_algebras(algebras):
    """The tensor products of the benchmark's dual ladder, n = 9, 10, 12."""
    factors = dict(algebras, z5_function=kc.function_algebra(kc.cyclic_group(5)))
    return {
        f"{left}*{right}": kc.tensor_kac(factors[left], factors[right])
        for left, right in LADDER_PRODUCTS
    }


def _cache_by_object(build):
    """Memoise ``build`` per argument object.

    Entries keep the argument alive next to the value, so its id cannot be
    reused by a new object after the old one is garbage-collected.
    """
    cache = {}

    def get(obj):
        if id(obj) not in cache:
            cache[id(obj)] = (obj, build(obj))
        return cache[id(obj)][1]

    return get


@pytest.fixture(scope="session")
def dual_of():
    return _cache_by_object(du.dual_kac)


@pytest.fixture(scope="session")
def coreps_of(dual_of):
    def build(kac):
        dd = dual_of(kac)
        return cr.irreducible_coreps(kac, dd.v, dd.hat)

    return _cache_by_object(build)


@pytest.fixture(scope="session")
def fusion_of(coreps_of):
    return _cache_by_object(lambda kac: ci.fusion_data(kac, coreps_of(kac)))


@pytest.fixture(scope="session")
def lattice_of(algebras, dual_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = ci.galois_lattice_report(dual_of(algebras[name]))
        return cache[name]

    return get
