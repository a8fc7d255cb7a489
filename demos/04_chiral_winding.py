"""3D winding number of a chiral three-band model, two ways.

The cubic-lattice model h(k) = sin kx l4 + sin ky l5 + sin kz l6 +
(M - sum cos) l7 keeps a flat zero band and a chiral symmetry
S = diag(1, 1, -1).  Its winding number follows either from the eight
corner points, w = (1/2) sum sgn(v_x v_y v_z) sgn(m), or from the degree
of the unit coefficient vector over the zone, counted exactly as the signed
preimages of one generic direction, so both columns print integers and no
residual.  The chiral operator S is the null vector of the anticommutation
system {G, S} = 0 over the four generators.  Oscillation trajectories
at a corner distinguish the branches: in-plane spinors rotate at |m|,
axial ones oscillate along z at 2|m|.
"""

import numpy as np

from zbtopo import (
    chiral_symmetry,
    chiral_ti_3d,
    closed_form_chiral,
    winding_from_hsp,
    winding_numerical,
    zb_spectrum,
    zb_time_grid,
)

print("winding number across the phase diagram:")
print(f"{'M':>4} | {'corner formula':>14} | {'preimage count':>15}")
for M in (-4.0, -2.0, 0.0, 2.0, 4.0):
    model = chiral_ti_3d(M)
    print(f"{M:>4.0f} | {winding_from_hsp(model):>14d} | {winding_numerical(model, 40):>15d}")

model = chiral_ti_3d(2.0)
s_op = chiral_symmetry(model)
print("\nchiral operator S =", np.round(s_op.real, 6).tolist())

print("\ntrajectories at k = 0 (m = -1, v = 1):")
in_plane = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
traj, form = closed_form_chiral(1.0, 1.0, 1.0, -1.0, in_plane, zb_time_grid(1.0))
peak = zb_spectrum(traj).peaks[0]
print(f"  in-plane branch: frequency {peak[0]:.3f} = |m|, z stays {np.max(np.abs(traj.pcm[:,2])):.1f}")

axial = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
traj, form = closed_form_chiral(1.0, 1.0, 1.0, -1.0, axial, zb_time_grid(2.0, 2.0))
peak = zb_spectrum(traj).peaks[0]
print(f"  axial branch:    frequency {peak[0]:.3f} = 2|m|, in-plane stays "
      f"{np.max(np.abs(traj.pcm[:,:2])):.1f}")
