"""The package surface: the names it exports and the README example that uses them."""

import re
from pathlib import Path
from types import ModuleType

import planepart

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"

EXPORTED = {
    "build_plane",
    "plane_to_doc",
    "construct_partition",
    "is_resolving",
    "lower_bound",
    "estimate_unseparated",
}


def test_public_names_are_pinned():
    public = {name for name in vars(planepart) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(planepart, name), ModuleType)}
    assert public - modules == EXPORTED
    assert modules <= {"analysis", "cli", "construct", "galois", "metric", "plane"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'version = "{planepart.__version__}"' in pyproject


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the class count that the README's comment states
    assert lines[0] == "29"
    assert len(lines) == 3
