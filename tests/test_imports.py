"""Every name that a module of the package imports is used in that module.

No linter ships with the project, so this stands in for the one check that
matters most after code is removed: an import left behind. ``__init__``
re-exports names and is not checked; a line marked ``# noqa: F401`` is
exempt, as under flake8.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import receipt_kie

_PACKAGE = Path(receipt_kie.__file__).parent
_MODULES = sorted(path.name for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            imported.setdefault(alias.asname or alias.name.partition(".")[0], alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    assert unused_imports((_PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom typing import Any, Sequence\nx: Any = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 3)"]
