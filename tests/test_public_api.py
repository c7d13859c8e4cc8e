"""The package exports no name that only its tests reach."""

import re
from pathlib import Path

import lexbeam

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_has_a_caller_outside_tests():
    sources = [p for p in sorted((ROOT / "src" / "lexbeam").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in sorted(set(lexbeam.__all__) - {"__version__"}):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:(?:class|def)\s+{re.escape(name)}\b|{re.escape(name)}\s*(?::[^=]*)?=[^=])")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exported but reached only from tests: {unused}"
