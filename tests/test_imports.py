"""Module boundaries: no module reaches into a sibling's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hourglass"


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hourglass"
            )
            if sibling:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert offenders == []
