"""Every seeded output of tools/seeded_outputs.py, byte for byte against tests/seeded_outputs.

The fixture's build.json names the numpy and BLAS that wrote it; it is not
compared, but a mismatch on another build names both, since floats may
differ between builds.
"""
import json
import runpy
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "seeded_outputs"


def _outputs(root: Path) -> list[str]:
    """The files under `root` but build.json, as sorted relative paths."""
    paths = (path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file())
    return sorted(path for path in paths if path != "build.json")


def test_seeded_outputs_are_byte_identical(tmp_path):
    tool = runpy.run_path(str(TESTS.parent / "tools" / "seeded_outputs.py"))
    tool["write_outputs"](tmp_path)
    recorded, current = json.loads((FIXTURE / "build.json").read_text()), tool["build"]()
    note = "" if recorded == current else f" (fixture written with {recorded}, this build is {current})"
    names = _outputs(FIXTURE)
    assert _outputs(tmp_path) == names, f"the seeded outputs are not the fixture's files{note}"
    differing = [name for name in names if (tmp_path / name).read_bytes() != (FIXTURE / name).read_bytes()]
    assert not differing, f"tests/seeded_outputs/{differing[0]} differs, first of {len(differing)}{note}"
