"""Static checks on the package source."""

import ast
from pathlib import Path

import perioddomains


def test_no_assert_in_package():
    # invariants must raise typed errors, which `python -O` does not strip
    sources = sorted(Path(perioddomains.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
