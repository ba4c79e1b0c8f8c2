"""Numerical workbench for the self-gravitating Levy-Leblond equation.

Each name is imported from its module: `lln.geometry` (the Bargmann lift and
its spinor calculus), `lln.sngroup` (the symmetry group and its projective
spinor representation), `lln.fields`, `lln.gravity`, `lln.evolve`,
`lln.charges` and `lln.cli`. The package holds only `__version__`, so
`import lln` loads neither numpy nor any of its modules.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy: no BLAS thread pools

__version__ = "0.1.0"
