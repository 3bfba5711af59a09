"""The bundled fixtures are exactly what ``tools/gen_fixtures.py`` writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "src" / "kacgalois" / "fixtures"


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "tools" / "gen_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_every_bundled_fixture(tmp_path):
    gen = load_generator()
    gen.write_kp8(str(tmp_path))
    gen.write_group_fixtures(str(tmp_path))
    gen.write_inclusion_fixture(str(tmp_path))
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in BUNDLED.glob("*.json"))
    assert len(written) == 14
    for name in written:
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name
