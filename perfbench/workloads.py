"""The three benchmark workloads: inputs from a seed, the ops, and their gates.

Each workload's ``setup`` builds its inputs from the benchmark seed with the
library's own builders, ``ops`` lists ``(label, callable)`` pairs that make
one pass, and ``check`` compares one op's result with the library's own
report and with answers that do not depend on the program.  Limits are the
ones the CLI and the acceptance tests pin (1e-10, 1e-9, 1e-8); none is
loosened here.
"""

from __future__ import annotations

import json
import os

import numpy as np

from kacgalois import cli, coreps, duality, jones, kac

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "inclusion_pool.json")

LIM_TIGHT = 1e-10
LIM_MID = 1e-9
LIM_LOOSE = 1e-8

# -- answers that do not depend on the program -------------------------------

# Orders of all subgroups of each bundled group.
SUBGROUP_ORDERS = {
    "z2": [1, 2],
    "z3": [1, 3],
    "z4": [1, 2, 4],
    "z2xz2": [1, 2, 2, 2, 4],
    "s3": [1, 2, 2, 2, 3, 6],
    "q8": [1, 2, 4, 4, 4, 8],
}
# Dimensions of the irreducible representations of each group.
IRREP_DIMS = {
    "z2": [1, 1],
    "z3": [1, 1, 1],
    "z4": [1, 1, 1, 1],
    "z2xz2": [1, 1, 1, 1],
    "s3": [1, 1, 2],
    "q8": [1, 1, 1, 1, 2],
    "z5": [1, 1, 1, 1, 1],
}

# The dual_ladder algebras beyond kp8: dims 9, 10 and 12.
LADDER_PRODUCTS = (
    ("z3_group", "z3_function"),
    ("z2_group", "z5_function"),
    ("s3_function", "z2_group"),
)


def _known_answers() -> dict:
    """Dimensions, corepresentation dims and coideal dims of each algebra.

    Irreducible corepresentations of the group algebra C[G] are the group
    elements (all of dimension 1); those of the function algebra C(G) are the
    irreducible representations of G.  Left coideal subalgebras correspond to
    subgroups H, with dimension |H| in C[G] and [G:H] in C(G).  Tensor
    products multiply dimensions.  The Kac-Paljutkin algebra has four
    one-dimensional and one two-dimensional irreducible corepresentation.
    """
    dims, corep_dims, coideal_dims = {}, {}, {}
    for g, orders in SUBGROUP_ORDERS.items():
        order = max(orders)
        dims[f"{g}_group"] = dims[f"{g}_function"] = order
        corep_dims[f"{g}_group"] = [1] * order
        corep_dims[f"{g}_function"] = IRREP_DIMS[g]
        coideal_dims[f"{g}_group"] = sorted(orders)
        coideal_dims[f"{g}_function"] = sorted(order // h for h in orders)
    dims["kp8"] = 8
    corep_dims["kp8"] = [1, 1, 1, 1, 2]
    corep_dims["z5_function"] = IRREP_DIMS["z5"]
    for left, right in LADDER_PRODUCTS:
        corep_dims[f"{left}*{right}"] = sorted(
            a * b for a in corep_dims[left] for b in corep_dims[right]
        )
    return {
        "dim": dims,
        "corep_dims": corep_dims,
        "coideal_dims": coideal_dims,
    }


EXPECTED = _known_answers()


def _fixture_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(kac.__file__)), "fixtures")


def load_pool() -> dict:
    """The table written by ``make_pool.py``.

    ``by_shape`` is ``{"big_dim/small_dim": [draw seeds]}`` for
    ``jones.random_inclusion``, ``big_dim`` being the GNS dimension of a
    draw; ``selftest`` holds the selftest seeds and the shapes of their draws.
    """
    with open(POOL_PATH) as fh:
        return json.load(fh)


def _sorted_dims(values) -> list[int]:
    return sorted(int(v) for v in values)


def _max_abs(residuals: dict) -> float:
    """Largest absolute number in a (nested) residual dict."""
    worst = 0.0
    for v in residuals.values():
        if isinstance(v, dict):
            worst = max(worst, _max_abs(v))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            worst = max(worst, abs(float(v)))
    return worst


def _over(failures: list, label: str, value, limit: float) -> None:
    """Record a failure unless ``value < limit``."""
    if not float(value) < limit:
        failures.append(f"{label}={value!r} not < {limit}")


def _read_report(path: str) -> tuple[bytes, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


# ---------------------------------------------------------------------------
# selftest: the user-facing end-to-end run
# ---------------------------------------------------------------------------


class Selftest:
    """One ``kacgalois selftest --seed S`` through ``cli.main`` per op.

    The selftest seed ``S`` picks two random inclusions, whose size moves
    the run time by half, and seeds the coideal completeness audit, whose
    cost moves by a quarter.  ``S`` is therefore drawn from the pool's
    selftest seeds: the same shapes of draws and nearly the same audit work
    (see ``make_pool.py``).
    """

    name = "selftest"
    min_passes = 2  # the byte-identity gate compares passes
    nominal_pass_s = 7.6  # median pass at the commit that added the benchmark

    def setup(self, seed: int, workdir: str) -> None:
        pool = load_pool()["selftest"]
        rng = np.random.default_rng(seed)
        self.selftest_seed = int(rng.choice(pool["seeds"]))
        self.draw_shapes = pool["draw_shapes"]
        self.output = os.path.join(workdir, "selftest.json")
        self.first_bytes = None

    def ops(self):
        argv = ["selftest", "--seed", str(self.selftest_seed), "--output", self.output]
        return [(f"selftest(seed={self.selftest_seed})", lambda: cli.main(argv))]

    def check(self, label, rc, expected=EXPECTED) -> list[str]:
        failures = []
        if rc != 0:
            failures.append(f"exit code {rc}")
        raw, doc = _read_report(self.output)
        report = doc.get("report", {})
        if doc.get("passed") is not True:
            failures.append("report passed is not true")
        for gname, pair in report.get("groups", {}).items():
            for kind, key in (("group_algebra", "group"), ("function_algebra", "function")):
                name = f"{gname.lower()}_{key}"
                sub = pair[kind]
                if sub["dim"] != expected["dim"][name]:
                    failures.append(f"{name} dim {sub['dim']}")
                if _sorted_dims(sub["corep_dims"]) != expected["corep_dims"][name]:
                    failures.append(f"{name} corep dims {sub['corep_dims']}")
                if sum(d * d for d in sub["corep_dims"]) != sub["dim"]:
                    failures.append(f"{name} sum of squared corep dims")
                if _sorted_dims(sub["coideal_dims"]) != expected["coideal_dims"][name]:
                    failures.append(f"{name} coideal dims {sub['coideal_dims']}")
        if len(report.get("groups", {})) != len(SUBGROUP_ORDERS):
            failures.append("missing group sections")
        kp = report.get("kac_paljutkin", {})
        if _sorted_dims(kp.get("corep_dims", [])) != expected["corep_dims"]["kp8"]:
            failures.append(f"kp8 corep dims {kp.get('corep_dims')}")
        if len(report.get("random_inclusions", {})) != 2:
            failures.append("expected two random inclusions")
        shapes = sorted(
            f"{sub['inclusion']['dim_big']}/{sub['inclusion']['dim_small']}"
            for sub in report.get("random_inclusions", {}).values()
        )
        if shapes != self.draw_shapes:
            failures.append(f"draw shapes {shapes}, pool says {self.draw_shapes}")
        if self.first_bytes is None:
            self.first_bytes = raw
        elif raw != self.first_bytes:
            failures.append("report bytes differ from the first pass")
        return failures


# ---------------------------------------------------------------------------
# dual_ladder: the duality layer at n = 8, 9, 10, 12
# ---------------------------------------------------------------------------


def dual_chain(algebra, seed: int) -> dict:
    """validate -> V -> hat -> integrals -> coreps -> orthogonality -> Fourier -> dual."""
    val = kac.validate_kac(algebra, tol=LIM_TIGHT)
    v = duality.multiplicative_unitary(algebra)
    hat = duality.hat_algebra(algebra, v)
    ints = duality.integrals(algebra, hat)
    reps = coreps.irreducible_coreps(algebra, v, hat)
    count = coreps.dimension_count(algebra, reps)
    orth = coreps.orthogonality_check(algebra, reps)
    four = coreps.fourier_round_trip(algebra, reps, count=10, seed=seed)
    dd = duality.dual_kac(algebra)
    return {
        "dim": algebra.dim,
        "validate_passed": bool(val["passed"]),
        "axioms": val["max_residual"],
        "multiplicative_unitary": _max_abs(v.residuals),
        "integrals": _max_abs(ints.residuals),
        "corep_certificates": max(_max_abs(c.residuals) for c in reps),
        "corep_dims": [c.dim for c in reps],
        "sum_of_squares": count["sum_of_squares"],
        "orthogonality": orth["orthogonality"],
        "fourier": four["round_trip"],
        "fourier_cardinality": bool(four["basis_cardinality_exact"]),
        "dual_reconstruction": _max_abs(dd.residuals),
        "dual_axioms": dd.axiom_report["max_residual"],
    }


class DualLadder:
    """One algebra through the dual chain per op, at n = 8, 9, 10 and 12."""

    name = "dual_ladder"
    min_passes = 1
    nominal_pass_s = 22.0

    def setup(self, seed: int, workdir: str) -> None:
        self.algebras = {"kp8": kac.load_kac(os.path.join(_fixture_dir(), "kp8.json"), validate=False)}
        for left, right in LADDER_PRODUCTS:
            factors = []
            for name in (left, right):
                g, kind = name.split("_")
                table = kac.symmetric_group_3() if g == "s3" else kac.cyclic_group(int(g[1:]))
                build = kac.group_algebra if kind == "group" else kac.function_algebra
                factors.append(build(table))
            self.algebras[f"{left}*{right}"] = kac.tensor_kac(*factors)
        self.seed = seed

    def ops(self):
        return [
            (name, lambda a=alg: dual_chain(a, self.seed))
            for name, alg in self.algebras.items()
        ]

    def check(self, label, row, expected=EXPECTED) -> list[str]:
        failures = []
        if not row["validate_passed"]:
            failures.append("validate_kac did not pass")
        for key in ("axioms", "multiplicative_unitary", "integrals", "corep_certificates", "orthogonality",
                    "dual_reconstruction", "dual_axioms"):
            _over(failures, key, row[key], LIM_TIGHT)
        _over(failures, "fourier", row["fourier"], LIM_MID)
        if not row["fourier_cardinality"]:
            failures.append("Fourier basis cardinality is not exact")
        want = expected["corep_dims"][label]
        if row["sum_of_squares"] != row["dim"] or row["dim"] != sum(d * d for d in want):
            failures.append(f"sum of squared corep dims {row['sum_of_squares']} for n={row['dim']}")
        if _sorted_dims(row["corep_dims"]) != want:
            failures.append(f"corep dims {row['corep_dims']}")
        return failures


# ---------------------------------------------------------------------------
# jones_family: random inclusions through the basic construction
# ---------------------------------------------------------------------------


def jones_chain(inc, var) -> dict:
    """The acceptance criteria 08-10 chain on one draw and its omega variation."""
    bc = jones.basic_extension(inc)
    dw = jones.dual_weight(bc)
    rep = jones.relcomm_report(bc, dw)
    ext = jones.extremality(bc, dw, rep)
    bc_v = jones.basic_extension(var)
    dw_v = jones.dual_weight(bc_v)
    rep_v = jones.relcomm_report(bc_v, dw_v)
    spectrum = np.sort(jones.flow_spectrum(rep))
    spectrum_v = np.sort(jones.flow_spectrum(rep_v))
    return {
        "big_dim": inc.big.dim,
        "small_dim": inc.small.dim,
        "three_way": bc.residuals["three_way_max"],
        "push_down": dw.residuals["push_down"],
        "unit_from_e": dw.residuals["unit_from_e"],
        "index_central": dw.residuals["index_central"],
        "criteria_agree": bool(ext["criteria_agree"]),
        "flow_match": rep.residuals["flow_match"],
        "flow_match_varied": rep_v.residuals["flow_match"],
        "spectrum_shift": float(np.abs(spectrum - spectrum_v).max())
        if spectrum.shape == spectrum_v.shape
        else float("inf"),
    }


class JonesFamily:
    """One random inclusion and its omega variation through the Jones chain per op.

    The cost of a draw grows steeply with its GNS dimension (0.04 s at 4,
    2 s at 20) and moves by a third with the small algebra's dimension, so
    a pass takes a fixed number of draws of each shape (GNS dim / small
    dim); the seed picks which draws.  Six draws have GNS dimension 16, the
    commonest, and three are smaller and three larger, so the median op
    falls in the middle of the 16-dim draws.  In a mix in proportion to how
    often ``random_inclusion`` produces each shape, the median sat at the
    edge of that group, and its ratio to the pass time spread twice as
    much from run to run.
    """

    name = "jones_family"
    min_passes = 1
    nominal_pass_s = 10.0
    QUOTA = {
        "4/2": 1, "9/5": 1, "13/9": 1,
        "16/6": 1, "16/8": 2, "16/10": 3,
        "17/11": 1, "18/14": 1, "20/14": 1,
    }
    VARIATION_OFFSET = 1000  # as in the acceptance family fixture

    def setup(self, seed: int, workdir: str) -> None:
        pool = load_pool()["by_shape"]
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for shape, count in self.QUOTA.items():
            for draw in rng.choice(pool[shape], size=count, replace=False):
                draw = int(draw)
                inc = jones.random_inclusion(draw)
                var = jones.omega_variation(inc, draw + self.VARIATION_OFFSET)
                self.inputs[f"draw{draw}:{shape}"] = (inc, var)

    def ops(self):
        return [
            (label, lambda p=pair: jones_chain(*p)) for label, pair in self.inputs.items()
        ]

    def check(self, label, row) -> list[str]:
        """The label carries the draw's shape from the pool table."""
        failures = []
        shape = f"{row['big_dim']}/{row['small_dim']}"
        if shape != label.split(":")[1]:
            failures.append(f"shape {shape}, pool says {label.split(':')[1]}")
        _over(failures, "three_way", row["three_way"], LIM_LOOSE)
        for key in ("push_down", "unit_from_e", "index_central"):
            _over(failures, key, row[key], LIM_MID)
        for key in ("flow_match", "flow_match_varied", "spectrum_shift"):
            _over(failures, key, row[key], LIM_LOOSE)
        if not row["criteria_agree"]:
            failures.append("extremality criteria disagree")
        return failures


WORKLOADS = {w.name: w for w in (Selftest, DualLadder, JonesFamily)}
