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

from .errors import GaplessError, GridSizeError, NotHighSymmetryError
from .spectral import SpectralDecomposition, hermitian_eig
from .generators import spin_matrices, gell_mann, adjacent_amplitude
from .models import (
    BlochModel,
    evaluate,
    gradient,
    spin_j_continuum,
    maxwell_lattice,
    kane_mele,
    kane_mele_spin_sector,
    chiral_ti_3d,
    chiral_symmetry,
)
from .dynamics import (
    Trajectory,
    ZBClosedForm,
    ZBSpectrum,
    WavePacket,
    SelectionRuleReport,
    zb_time_grid,
    pcm_trajectory_exact,
    pcm_trajectories_exact,
    closed_form_spin1,
    closed_form_chiral,
    wavepacket_trajectory,
    rotation_index,
    zb_spectrum,
    selection_rule_check,
)
from .invariants import (
    HSPLinearization,
    InvariantReport,
    linearize_at_hsp,
    chern_from_hsp,
    chern_plaquette,
    zone_degree,
    winding_from_hsp,
    winding_numerical,
    z2_kane_mele,
    z2_spin_chern_parity,
    z2_fu_kane_parity,
    rashba_gap_ramp,
    compute_invariants,
)

__version__ = "0.1.0"
