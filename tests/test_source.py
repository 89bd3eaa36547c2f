"""Guards on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pillowtiled"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and the exact checks must still run
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [
        f"{path.name}:{lineno}"
        for path in files
        for lineno in sorted(
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        )
    ]
    assert not found, "assert statements in src/pillowtiled: " + ", ".join(found)
