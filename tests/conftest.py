"""Session settings for the test suite: Hypothesis keeps its example database
and caches outside the checkout (an explicit HYPOTHESIS_STORAGE_DIRECTORY
wins), so a test run leaves no byproducts in the tree."""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "lln-hypothesis"))
