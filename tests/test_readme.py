import importlib
import pkgutil
import re
from pathlib import Path

import scmsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_imports_resolve():
    text = README.read_text()
    imports = re.findall(r"from scmsim import \(([^)]*)\)", text)
    assert imports, "README has no `from scmsim import (...)` example"
    names = [n.strip() for block in imports for n in block.split(",") if n.strip()]
    missing = [n for n in names if not hasattr(scmsim, n)]
    assert not missing, f"README imports names scmsim does not export: {missing}"


def test_readme_constants_exist():
    # A constant named in the README must still be defined in some module,
    # so deleting one makes its stale mention fail here.
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", README.read_text()))
    assert names, "README names no UPPER_CASE constant"
    modules = [
        importlib.import_module(f"scmsim.{info.name}")
        for info in pkgutil.iter_modules(scmsim.__path__)
    ]
    missing = sorted(n for n in names if not any(hasattr(m, n) for m in modules))
    assert not missing, f"README names constants no scmsim module defines: {missing}"
