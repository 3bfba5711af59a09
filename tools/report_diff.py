"""Compare the CLI reports of two checkouts, output by output.

Runs the same 73 outputs in each checkout root, with ``PYTHONPATH=<root>/src``:
``validate``, ``dual``, ``coreps`` and ``galois`` on each of the 13 bundled
Kac fixtures, ``jones`` on ``scaled_pair_third.json`` and on each of the three
``JONES_DRAWS``, ``selftest --seed 7``, and the four Kac commands on each of
the four ``GENERAL_BASIS`` inputs.  Each bundled input is read from its own
root's fixtures.  The bundled fixtures are all in bases where the dual basis
is a scaled orthonormal one, so a general basis shows only in the
``GENERAL_BASIS`` inputs, and the one bundled inclusion is 2-dimensional.  The
tool builds the ``GENERAL_BASIS`` and ``JONES_DRAWS`` inputs once, with the
change root's ``tests/conftest.py``, ``tools/gen_fixtures.py`` and package,
in a temporary directory that both roots read.  For every output that is not
byte-identical it prints the changed exit code, the added or removed keys, the
changed non-float values and every float that moved by more than
``FLOAT_TOL``.  Exits 1 if any output shows one of them, 0 otherwise.

Run from anywhere, for example:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/report_diff.py /tmp/parent .
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Largest absolute move of a float that is not reported.
FLOAT_TOL = 1e-13

KAC_COMMANDS = ("validate", "dual", "coreps", "galois")
FIXTURES = "src/kacgalois/fixtures"


#: The general-basis Kac inputs, by file name: kp8 in a unitary and in a
#: condition-30 change of basis, C(S₃)⊗ℂ[ℤ₄] in a unitary one, and the n = 18
#: twist (``write_inputs``).
GENERAL_BASIS = ("rotated_kp8.json", "cond30_kp8.json", "rotated_n24.json", "twist.json")

#: The ``jones`` inputs, by ``random_inclusion`` seed: two draws of the largest
#: shape of ``perfbench/inclusion_pool.json``, GNS dimension 20 over 14 (seed 6
#: with the trace-preserving expectation, seed 91 with a skewed one), and one
#: of the next, 18 over 14 (seed 31, skewed).
JONES_DRAWS = (6, 91, 31)


def draw_name(seed: int) -> str:
    """The file name of the inclusion document of ``random_inclusion(seed)``."""
    return f"draw{seed}.json"


def outputs(root: Path, inputs: Path) -> list[tuple[str, list[str]]]:
    """The (label, CLI arguments) of every output, in a fixed order; the
    ``JONES_DRAWS`` and ``GENERAL_BASIS`` inputs are read from the directory
    ``inputs``, the ``GENERAL_BASIS`` ones last."""
    names = sorted(p.name for p in (root / FIXTURES).glob("*.json"))
    jobs = [
        (f"{cmd} {name}", [cmd, str(root / FIXTURES / name)])
        for name in names
        if name != "scaled_pair_third.json"
        for cmd in KAC_COMMANDS
    ]
    jobs.append(("jones scaled_pair_third.json", ["jones", str(root / FIXTURES / "scaled_pair_third.json")]))
    jobs += [(f"jones {draw_name(seed)}", ["jones", str(inputs / draw_name(seed))]) for seed in JONES_DRAWS]
    jobs.append(("selftest --seed 7", ["selftest", "--seed", "7"]))
    jobs += [(f"{cmd} {name}", [cmd, str(inputs / name)]) for name in GENERAL_BASIS for cmd in KAC_COMMANDS]
    return jobs


def write_inputs(root: Path, inputs: Path) -> None:
    """Write the ``GENERAL_BASIS`` and ``JONES_DRAWS`` inputs into ``inputs``,
    built by ``root``'s ``tests/conftest.py``, ``tools/gen_fixtures.py`` and
    package."""
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "tools")]
    import conftest
    import gen_fixtures
    from kacgalois import jones as jn
    from kacgalois import kac as kc

    kp8 = kc.load_kac(str(root / FIXTURES / "kp8.json"))
    product = kc.tensor_kac(
        kc.function_algebra(kc.symmetric_group_3()), kc.group_algebra(kc.cyclic_group(4))
    )
    built = (
        conftest.rebased(kp8, conftest.rotation(8, 0)),
        conftest.rebased(kp8, conftest.COND30),
        conftest.rebased(product, conftest.rotation(24, 0)),
        conftest.twisted_z3_squared_by_z2(),
    )
    for name, kac in zip(GENERAL_BASIS, built):
        kc.save_kac(kac, str(inputs / name))
    for seed in JONES_DRAWS:
        gen_fixtures.write_inclusion(jn.random_inclusion(seed), str(inputs / draw_name(seed)))


def run(root: Path, args: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one CLI run in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "kacgalois", *args],
        capture_output=True, text=True, env=env, cwd=root,
    )
    return out.returncode, out.stdout


def compare(old, new, path: str = "") -> list[str]:
    """The reportable differences between two parsed documents.

    Key sets, list lengths and non-float values must match exactly; two
    floats may differ by at most ``FLOAT_TOL``.  NaN equals NaN.
    """
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return []
        if abs(new - old) > FLOAT_TOL or not math.isfinite(new - old):
            return [f"{path}: float {old!r} -> {new!r}"]
        return []
    if type(old) is not type(new):
        return [f"{path}: {old!r} -> {new!r}"]
    if isinstance(old, dict):
        diffs = [f"{path}/{k}: key removed" for k in sorted(old.keys() - new.keys())]
        diffs += [f"{path}/{k}: key added" for k in sorted(new.keys() - old.keys())]
        for k in sorted(old.keys() & new.keys()):
            diffs += compare(old[k], new[k], f"{path}/{k}")
        return diffs
    if isinstance(old, list):
        if len(old) != len(new):
            return [f"{path}: list of {len(old)} -> {len(new)} items"]
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in compare(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def parse(stdout: str):
    """The JSON document of an output, or its raw text if it is not JSON."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: report_diff.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        write_inputs(new_root, inputs)
        jobs = list(zip(outputs(old_root, inputs), outputs(new_root, inputs)))
        identical = moved = 0
        for (label, old_args), (new_label, new_args) in jobs:
            if label != new_label:
                print(f"{label}: the two roots bundle different fixtures ({new_label})")
                moved += 1
                continue
            (old_code, old_out), (new_code, new_out) = run(old_root, old_args), run(new_root, new_args)
            if old_code == new_code and old_out == new_out:
                identical += 1
                continue
            diffs = [f"exit code {old_code} -> {new_code}"] if old_code != new_code else []
            diffs += compare(parse(old_out), parse(new_out))
            if diffs:
                moved += 1
                print(f"{label}:")
                print("\n".join(f"  {d}" for d in diffs))
            else:
                print(f"{label}: not byte-identical, every float within {FLOAT_TOL:g}")
    print(
        f"{len(jobs)} outputs: {identical} byte-identical, {moved} with reportable changes "
        f"(float tolerance {FLOAT_TOL:g})"
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
