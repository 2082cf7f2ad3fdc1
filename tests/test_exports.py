"""Every package export has a user besides the tests.

A name that only its own tests call is surface to maintain with nothing
depending on it; such a name belongs in the tests, or nowhere.
"""

import re
from pathlib import Path

import clustercrypt

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_used_outside_the_tests():
    src = ROOT / "src" / "clustercrypt"
    files = [path for path in src.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    files.append(ROOT / "README.md")
    lines = [line for path in files for line in path.read_text().splitlines()]
    unused = []
    for name in clustercrypt.__all__:
        use = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
