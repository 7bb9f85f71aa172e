"""Every name that a module of the package imports is used in that module,
every private top-level name that a module defines is read somewhere in
the package, every public one and every enum member is read there outside
its own definition (bar a short list of names kept for users, each with
its reason), no dataclass or ``NamedTuple`` wraps a single field, only
``cli._collector_paused`` touches the garbage collector, only
``cli._parse_file`` reads a file, importing the CLI loads no heavy
standard-library module, and only a read of a synth name loads ``synth``.

No linter ships with the project, so this stands in for the checks that
matter most after code is removed: an import, a helper or an enum member
left behind. ``__init__`` re-exports names: instead of the import check, its
``__all__`` must list exactly the names it imports and the names its
``__getattr__`` serves from ``synth``, sorted. A line marked ``# noqa: F401``
is exempt, as under flake8.
"""

from __future__ import annotations

import ast
import importlib
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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a statement defines: a function's or class's own name, or
    every name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def read_names(node: ast.AST) -> set[str]:
    """The names read under ``node``: a loaded name, or an attribute."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names (``_x``: a function, class or assigned
    name, not a dunder) that a module of ``sources`` defines and no module
    reads, as ``"module: name"``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def _name_of(expr: ast.expr) -> str | None:
    """The name ``expr`` ends in: ``Enum`` for ``Enum`` and ``enum.Enum``."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _is_enum(node: ast.stmt) -> bool:
    return isinstance(node, ast.ClassDef) and any(_name_of(base) == "Enum" for base in node.bases)


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """The public top-level names (a function, class or assigned name that
    starts with no underscore) that a module of ``sources`` defines and no
    statement reads but their own definition, and the members of each enum
    that no other statement reads as an attribute, as ``"module: name"`` or
    ``"module: Enum.MEMBER"``. An import is no read."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [read_names(node) for _, node in statements]
    attributes = [
        {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
        for _, node in statements
    ]

    def read_elsewhere(name: str, where: int, table: list[set[str]]) -> bool:
        return any(name in names for i, names in enumerate(table) if i != where)

    unread = []
    for i, (module, node) in enumerate(statements):
        for name in defined_names(node):
            if not name.startswith("_") and not read_elsewhere(name, i, reads):
                unread.append(f"{module}: {name}")
        if _is_enum(node):
            unread.extend(
                f"{module}: {node.name}.{member}"
                for stmt in node.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for member in defined_names(stmt)
                if not member.startswith("_") and not read_elsewhere(member, i, attributes)
            )
    return unread


def single_field_records(sources: dict[str, str]) -> list[str]:
    """The classes of ``sources`` that are a dataclass or a ``NamedTuple``
    with exactly one field (a ``ClassVar`` is no field), as ``"module:
    Class"``: each wraps one value that could be passed as it is."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not {"dataclass", "NamedTuple"} & set(map(_name_of, decorators + node.bases)):
                continue
            annotations = [stmt.annotation for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            fields = [
                a for a in annotations
                if _name_of(a.value if isinstance(a, ast.Subscript) else a) != "ClassVar"
            ]
            if len(fields) == 1:
                found.append(f"{module}: {node.name}")
    return found


def _inside(tree: ast.Module, function: str) -> set[int]:
    """The ids of the nodes of the top-level function ``function`` of ``tree``."""
    return {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == function
        for sub in ast.walk(node)
    }


def collector_uses(sources: dict[str, str]) -> list[str]:
    """Each import of the ``gc`` module in ``sources`` and each read of the
    name ``gc``, as ``"module: line N"``, bar cli's ``import gc`` and the
    reads inside ``cli._collector_paused``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed: set[int] = set()
        if module == "cli.py":
            allowed = _inside(tree, "_collector_paused") | {
                id(node) for node in tree.body
                if isinstance(node, ast.Import) and ast.unparse(node) == "import gc"
            }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (
                isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "gc"
                or isinstance(node, ast.Name) and node.id == "gc"
            ):
                found.append(f"{module}: line {node.lineno}")
    return found


def _reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` reads a file's contents: ``read_bytes``, ``read_text``,
    or ``open`` (the builtin, or a method such as ``Path.open``) in a mode
    that is not a literal that only writes (``w``, ``a`` or ``x``, no ``+``)."""
    name = _name_of(call.func)
    if name in ("read_bytes", "read_text"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:position + 1]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return not isinstance(mode, str) or "+" in mode or not set(mode) & set("wax")


def file_reads(sources: dict[str, str]) -> list[str]:
    """Each call in ``sources`` that reads a file (see ``_reads_a_file``), as
    ``"module: line N"`` in source order, bar the reads inside
    ``cli._parse_file``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = _inside(tree, "_parse_file") if module == "cli.py" else set()
        reads = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed and _reads_a_file(node)
        ]
        reads.sort(key=lambda node: (node.lineno, node.col_offset))
        found.extend(f"{module}: line {node.lineno}" for node in reads)
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    assert unused_imports(_SOURCES[module]) == []


def test_every_private_name_is_read():
    assert unread_private_names(_SOURCES) == []


# Public names the package defines for its users and never reads itself,
# each with its reason.
_READ_ONLY_OUTSIDE = {
    # The in-memory corpus the tests build from; the CLI writes corpora
    # with write_corpus, which generates each document as it writes it.
    "synth.py: generate_corpus",
}


def test_every_public_name_and_enum_member_is_read():
    assert sorted(unread_public_names(_SOURCES)) == sorted(_READ_ONLY_OUTSIDE)


def test_the_package_exports_exactly_what_it_imports_in_sorted_order():
    # Each exported name with the module it comes from: the eager imports,
    # then the names ``__getattr__`` serves from synth on first read.
    tree = ast.parse(_SOURCES["__init__.py"])
    home = {
        alias.asname or alias.name: f"receipt_kie.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    home.update(dict.fromkeys(receipt_kie._SYNTH_EXPORTS, "receipt_kie.synth"))
    assert receipt_kie.__all__ == sorted(receipt_kie.__all__)
    assert sorted(home) == receipt_kie.__all__
    for name in receipt_kie.__all__:
        assert getattr(receipt_kie, name) is getattr(importlib.import_module(home[name]), name)
    assert set(receipt_kie.__all__) <= set(dir(receipt_kie))
    with pytest.raises(AttributeError, match="no attribute 'write_corpora'"):
        receipt_kie.write_corpora


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


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a.py": (
            "from enum import Enum\n"
            "LIMIT = 3\nUNUSED = 4\n__version__ = '1'\n"
            "class Kind(str, Enum):\n    A = 'a'\n    B = 'b'\n    C = 'c'\n"
            "    def other(self):\n        return Kind.C\n"
            "def walk(n):\n    return walk(n - 1) if n else Kind.A\n"
        ),
        "b.py": "from a import UNUSED, walk\nimport a\ndef run():\n    return a.LIMIT, {'B': 1}\n",
    }
    assert unread_public_names(sources) == [
        "a.py: UNUSED", "a.py: Kind.B", "a.py: Kind.C", "a.py: walk", "b.py: run",
    ]


def test_no_record_class_wraps_a_single_field():
    # A one-field dataclass or NamedTuple is a wrapper with no second
    # implementation: the value it holds is passed instead.
    assert single_field_records(_SOURCES) == []


def test_the_check_sees_a_single_field_record():
    sources = {
        "a.py": (
            "import dataclasses, typing\nfrom dataclasses import dataclass\n"
            "from typing import ClassVar, NamedTuple\n"
            "@dataclass(frozen=True)\nclass Threshold:\n    value: float = 0.4\n"
            "    LIMIT: ClassVar[float] = 1.0\n    def check(self):\n        note: str = ''\n"
            "@dataclasses.dataclass\nclass Pair:\n    a: int\n    b: int\n"
            "class Plain:\n    only: int = 0\n"
        ),
        "b.py": (
            "import typing\nfrom typing import NamedTuple\n"
            "class Sep(NamedTuple):\n    chars: str\n"
            "class Point(typing.NamedTuple):\n    x: float\n    y: float\n"
            "class Empty(NamedTuple):\n    pass\n"
        ),
    }
    assert single_field_records(sources) == ["a.py: Threshold", "b.py: Sep"]


def test_only_the_cli_pause_touches_the_garbage_collector():
    # When the collector runs is one decision: the CLI pauses it for each
    # document, and nothing else turns it on or off.
    assert collector_uses(_SOURCES) == []


def test_the_check_sees_a_collector_use_outside_the_pause():
    sources = {
        "cli.py": (
            "import gc\nfrom contextlib import contextmanager\n@contextmanager\n"
            "def _collector_paused():\n    gc.disable()\n    yield\n    gc.enable()\n"
            "def main():\n    gc.collect()\n"
        ),
        "ingest.py": "import gc\nfrom gc import freeze\nimport os, gc as collector\n",
        "layout.py": "def _collector_paused():\n    gc.disable()\n",
    }
    assert collector_uses(sources) == [
        "cli.py: line 9", "ingest.py: line 1", "ingest.py: line 2", "ingest.py: line 3",
        "layout.py: line 2",
    ]


def test_only_parse_file_reads_a_file():
    # A read error names its file in one place: every read goes through
    # cli._parse_file, and the library takes bytes, not paths.
    assert file_reads(_SOURCES) == []


def test_the_check_sees_a_file_read_outside_parse_file():
    sources = {
        "cli.py": (
            "def _parse_file(path, parse):\n    return parse(path.read_bytes())\n"
            "def _decode_one(path):\n    return path.read_bytes()\n"
            "def _write(path, mode):\n"
            "    open(path, 'w'), path.open('a'), path.open(mode='x', encoding='utf-8')\n"
            "    open(path), path.open('rb'), path.open(mode='w+'), path.open(mode)\n"
            "    return path.read_text(encoding='utf-8')\n"
        ),
        "ingest.py": "def _parse_file(path):\n    with open(path, 'rb') as fh:\n        return fh\n",
    }
    assert file_reads(sources) == [
        "cli.py: line 4", "cli.py: line 7", "cli.py: line 7", "cli.py: line 7", "cli.py: line 7",
        "cli.py: line 8", "ingest.py: line 2",
    ]


def modules_added_by(module: str) -> set[str]:
    """The modules that importing ``module`` adds in a fresh interpreter:
    what ``site`` loads at startup does not count."""
    code = (
        f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r}); before = set(sys.modules); "
        f"import {module}; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # ``dataclasses`` brings ``inspect``, ``ast`` and ``dis``; ``hashlib`` and
    # synth serve only ``synth``, which imports them when it runs; ``eval``
    # imports ``pickle`` when it forks its helper.
    heavy = {
        "logging", "xml.sax.saxutils", "urllib.request", "http.client", "email.parser", "ssl",
        "dataclasses", "inspect", "hashlib", "receipt_kie.synth",
        "pickle", "multiprocessing", "concurrent.futures",
    }
    assert sorted(modules_added_by("receipt_kie.cli") & heavy) == []


def test_importing_the_package_does_not_load_synth():
    assert "receipt_kie.synth" not in modules_added_by("receipt_kie")
