"""Export hygiene: every name a module exports exists and is used, and the
package namespace re-exports only names its source modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lln

ROOT = Path(__file__).resolve().parents[1]
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


def _loaded_names(path):
    """Names a file reads, as bare names or as attributes; definitions,
    imports and the strings of __all__ are not reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_export_is_used():
    used = set()
    for sub in ("src", "tests", "demos"):
        for path in (ROOT / sub).rglob("*.py"):
            used.update(_loaded_names(path))
    unused = [f"{name}.{n}" for name in MODULES
              for n in importlib.import_module(name).__all__ if n not in used]
    assert not unused, f"exported but never used: {unused}"
