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
