"""Export and checkout hygiene: every name a module exports exists and is
used outside the tests (or is one of the paper's objects the library keeps),
the package namespace re-exports only names its source modules export, and a
pytest run under the repository's settings leaves no cache directories."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def _unread_exports(subs, kept=()):
    """module.name of every exported name, other than kept, that no file
    under subs reads."""
    used = set(kept)
    for sub in subs:
        for path in (ROOT / sub).rglob("*.py"):
            used.update(_loaded_names(path))
    return [f"{name}.{n}" for name in MODULES
            for n in importlib.import_module(name).__all__ if n not in used]


def test_every_export_is_used():
    unused = _unread_exports(("src", "tests", "demos"))
    assert not unused, f"exported but never used: {unused}"


# Exports that only tests read, kept in the library because the paper names
# them or because they are the half of an I/O round trip that the CLI does
# not call. Any other test-only helper belongs in the tests.
PAPER_OBJECTS = (
    "dirac_residual",  # the coupled first-order equations of the Pauli pairs
    "current_and_continuity",  # the probability current and its continuity law
    "gauge_transform",  # the vertical gauge map of the Bargmann lift
    "lie_derivative_spinor_density",  # the Kosmann Lie derivative of a spinor density
    "spin_connection",  # the spin connection omega_mu of the Bargmann coframe
    "act",  # the group action on Bargmann events
    "inverse",  # the group inverse
    "exp_element",  # the exponential map from the Lie algebra
    "LieParams",  # a Lie algebra element, the argument of exp_element
    "represent_pair",  # the representation on both Pauli pairs (phi, chi)
    "read_csv",  # reads the charge CSV that write_csv writes
    "save_potentials",  # writes the potential snapshot that load_snapshot reads
    "save_element",  # writes the element JSON that load_element reads
)


def test_every_export_is_used_outside_the_tests():
    exported = {n for name in MODULES for n in importlib.import_module(name).__all__}
    assert set(PAPER_OBJECTS) <= exported, "PAPER_OBJECTS lists a name no module exports"
    unused = _unread_exports(("src", "demos", "perfbench"), PAPER_OBJECTS)
    assert not unused, f"exported but read only by tests: {unused}"


def test_pytest_run_leaves_no_cache_directories(tmp_path):
    # pyproject.toml's addopts turn off the cache provider and the installed
    # pytest-benchmark plugin, each of which makes a directory in the rootdir
    (tmp_path / "pyproject.toml").write_bytes((ROOT / "pyproject.toml").read_bytes())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    left = [p.name for p in tmp_path.iterdir() if p.name in (".benchmarks", ".pytest_cache")]
    assert not left, f"the run left {left}"
