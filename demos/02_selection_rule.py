"""Only adjacent band pairs interfere in a spin-J system.

At p = 0 the spin-J Hamiltonian reduces to m Jz, whose velocity operators
Jx and Jy only connect neighbouring Jz levels.  Every gap between
non-adjacent bands (2|m|, 3|m|, ...) is therefore silent: the oscillation
spectrum of any initial spinor contains the single line |m|.
"""

import numpy as np

from zbtopo import (
    pcm_trajectory_exact,
    selection_rule_check,
    spin_j_continuum,
    zb_spectrum,
    zb_time_grid,
)

mass = 1.0
rng = np.random.default_rng(42)

print("random spinor, spin 5/2: spectral lines")
model = spin_j_continuum(2.5, 1.0, 1.0, mass)
raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
traj = pcm_trajectory_exact(model, (0.0, 0.0), raw / np.linalg.norm(raw), zb_time_grid(mass))
for freq, power in zb_spectrum(traj).peaks:
    print(f"  omega = {freq:.6f}  relative power = {power:.3e}")
print(f"  (candidate non-adjacent lines would sit at {2*mass}, {3*mass}, ...)")

print("\nexhaustive check, 100 random spinors per spin value:")
for j in (0.5, 1.0, 1.5, 2.0, 2.5):
    report = selection_rule_check(j, mass)
    print(
        f"  J = {j}: worst non-adjacent relative power = "
        f"{report.max_spurious_power:.2e}  -> {'pass' if report.passed else 'FAIL'}"
    )
