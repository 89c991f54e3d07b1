"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulergraph"


def test_absolute_imports_are_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {}
    for path in files:
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        if names - sys.stdlib_module_names:
            outside[path.name] = sorted(names - sys.stdlib_module_names)
    assert outside == {}
