"""The runtime is standard-library only: every module of the package imports
nothing but the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import dnagraph

PACKAGE = Path(dnagraph.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the imports in source that are neither standard
    library nor dnagraph; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [top for top in (m.split(".")[0] for m in modules)
                  if top not in sys.stdlib_module_names and top != "dnagraph"]
    return found


def test_guard_flags_a_foreign_import():
    source = "import os\nimport numpy as np\nfrom scipy.sparse import csr_matrix\nfrom . import digraph\n"
    assert foreign_imports(source) == ["numpy", "scipy"]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_package_parses_at_the_oldest_supported_python():
    # pyproject.toml requires Python >= 3.10: no module may use later syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))
