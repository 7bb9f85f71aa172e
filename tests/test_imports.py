"""Every name that a module of the package imports is used in that module,
every private top-level name that a module defines is read somewhere in
the package, and importing the CLI loads no heavy standard-library module.

No linter ships with the project, so this stands in for the checks that
matter most after code is removed: an import or a private helper left
behind. ``__init__`` re-exports names: instead of the import check, its
``__all__`` must list exactly the names it imports, sorted. A line marked
``# noqa: F401`` is exempt, as under flake8.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import receipt_kie

_PACKAGE = Path(receipt_kie.__file__).parent
_SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(_PACKAGE.glob("*.py"))}
_MODULES = [name for name in _SOURCES if name != "__init__.py"]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names (``_x``: a function, class or assigned
    name, not a dunder) that a module of ``sources`` defines and no module
    reads, as ``"module: name"``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread.extend(
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            )
    return unread


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    assert unused_imports(_SOURCES[module]) == []


def test_every_private_name_is_read():
    assert unread_private_names(_SOURCES) == []


def test_the_package_exports_exactly_what_it_imports_in_sorted_order():
    tree = ast.parse(_SOURCES["__init__.py"])
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert receipt_kie.__all__ == sorted(receipt_kie.__all__)
    assert sorted(imported) == receipt_kie.__all__


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom typing import Any, Sequence\nx: Any = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 3)"]


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_used = 1\n_left: int = 2\n__all__ = []\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\n_x, (_y, z) = _helper(), (3, 4)\nclass _Box:\n    pass\n",
        "c.py": "import b\nb._Box()\nprint(_y)\n",
    }
    assert unread_private_names(sources) == ["a.py: _left", "b.py: _x"]


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # A fresh interpreter, and only the modules the import adds: what
    # ``site`` loads at startup does not count.
    code = (
        f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r}); before = set(sys.modules); "
        "import receipt_kie.cli; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    heavy = {"logging", "xml.sax.saxutils", "urllib.request", "http.client", "email.parser", "ssl"}
    assert sorted(added & heavy) == []
