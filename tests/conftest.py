"""Session settings for the test suite: Hypothesis keeps its example database
and caches outside the checkout (an explicit HYPOTHESIS_STORAGE_DIRECTORY
wins), so a test run leaves no byproducts in the tree. numpy's OpenBLAS runs
on one thread, as under `import lln`: the default is set here, before any test
module imports numpy (an explicit OPENBLAS_NUM_THREADS wins)."""

import os
import tempfile

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "lln-hypothesis"))


@pytest.fixture
def jacobian_calls(monkeypatch):
    """A list that grows by one for each spectral Jacobian a GridPotential
    takes of its varpi (each call of `geometry.jacobian`)."""
    from lln import geometry  # numpy only after the OpenBLAS default above

    calls, jacobian = [], geometry.jacobian
    monkeypatch.setattr(geometry, "jacobian", lambda *a: calls.append(1) or jacobian(*a))
    return calls
