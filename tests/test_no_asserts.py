"""Running under ``python -O`` cannot change what the runtime does."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulergraph"


def test_no_assert_statement_or_debug_flag():
    # -O strips assert statements and sets __debug__ to False, so neither may
    # carry a check the runtime relies on
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
