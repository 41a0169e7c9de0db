"""Every module of the package uses each name it imports, and every
function and class it defines is read somewhere.

No linter runs on this tree, so this stands in for its unused-import
rule: a name a module imports but never reads is a dead dependency
that survives refactors.  ``__init__`` imports to re-export, and is
left out.  Likewise a top-level function or class that nothing in
``src``, ``tests`` or ``perfbench`` reads is a helper a simplification
left behind.  A public one (no leading underscore) must also be read by
the public surface's users: ``src``, ``perfbench``, the acceptance suite,
or a backticked name in the README; a helper only the unit tests read
stays private.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scmsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom math import inf, pi\nprint(os.sep, pi)\n"
    assert unused_imports(source) == ["inf (line 2)"]


def reads(tree: ast.AST) -> Counter:
    # How often the tree reads each name: as a loaded name, an attribute or an import.
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def unread_definitions(source: str, read: Counter) -> list[str]:
    """The top-level functions and classes of ``source`` that ``read``, the
    name counts of every reading source (``source`` among them), holds only
    inside their own body."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and read[node.name] == reads(node)[node.name]
    ]


@functools.cache
def tree_reads() -> Counter:
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return sum((reads(ast.parse(p.read_text())) for p in paths), Counter())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read(path):
    assert unread_definitions(path.read_text(), tree_reads()) == []


def test_an_unread_definition_is_found():
    source = (
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Kept: pass\n"
        "import m\n"
        "used(); m.Kept\n"
    )
    assert unread_definitions(source, reads(ast.parse(source))) == ["recursive (line 2)"]


@functools.cache
def public_reads() -> Counter:
    paths = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", readme)
    names = Counter(name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span))
    return sum((reads(ast.parse(p.read_text())) for p in paths), names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_has_a_public_reader(path):
    unread = unread_definitions(path.read_text(), public_reads())
    assert [d for d in unread if not d.startswith("_")] == []
