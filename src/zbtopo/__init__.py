"""Quasiparticle oscillation dynamics and topological invariants.

Small multi-band lattice / continuum models, exact center-of-mass
oscillation trajectories, rotation-sense classification at high-symmetry
points, and invariant recovery (Chern, 3D winding, Z2) with
independent global cross-checks.

Importing the package loads numpy with one OpenBLAS thread, so outputs do not
depend on the core count, unless numpy is loaded or OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set; os.environ is left as found.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(_os.environ):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import *  # noqa: F401,F403 - each module's __all__ is its public list
from .spectral import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403

__version__ = "0.1.0"
