"""Export hygiene: every name a module exports exists, and the package
namespace re-exports only names its source modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lln

# __main__ runs the CLI on import and exports nothing
MODULES = sorted(
    f"lln.{info.name}" for info in pkgutil.iter_modules(lln.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__), f"{name}.__all__ repeats a name"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(lln.__file__).read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"lln.{node.module}")
        unexported = [a.name for a in node.names if a.name not in mod.__all__]
        assert not unexported, f"lln imports {unexported} from lln.{node.module}"
