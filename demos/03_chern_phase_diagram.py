"""Chern numbers of the spin-1 lattice model from purely local data.

Each of the four inversion-prone momenta carries a sign
nu = sgn(v_x v_y m) readable off the local linearization (equivalently,
off the rotation sense of a wave packet parked there).  Minus the band
index times the sum of the four signs is the band's Chern number; a
gauge-invariant plaquette integration over the whole zone confirms it.
"""

import numpy as np

from zbtopo import chern_from_hsp, chern_plaquette, linearize_at_hsp, maxwell_lattice

HEADER = f"{'M':>6} | {'nu(0,0)':>8} {'nu(0,pi)':>8} {'nu(pi,0)':>8} {'nu(pi,pi)':>9} | " \
         f"{'Ch(local)':>9} {'Ch(global)':>10}"
print(HEADER)
print("-" * len(HEADER))

for M in np.arange(-3.0, 3.5, 0.5):
    if min(abs(M - c) for c in (-2.0, 0.0, 2.0)) < 1e-9:
        print(f"{M:>6.1f} | {'gap closes: transition point':^46}")
        continue
    model = maxwell_lattice(1.0, M)
    nus = [linearize_at_hsp(model, K).nu for K in model.hsps]
    local = chern_from_hsp(model, -1)       # lowest band, spin index -1
    global_ = chern_plaquette(model, 0, 64)
    print(
        f"{M:>6.1f} | {nus[0]:>8d} {nus[1]:>8d} {nus[2]:>8d} {nus[3]:>9d} | "
        f"{local:>9d} {global_:>10d}"
    )

print("\nPer-band values at M = 1 (indices j = -1, 0, +1):")
model = maxwell_lattice(1.0, 1.0)
plaquette = chern_plaquette(model, (0, 1, 2))  # one zone solve shared by the bands
for band, j in enumerate((-1, 0, 1)):
    print(
        f"  band {band}: local {chern_from_hsp(model, j):+d}, "
        f"plaquette {plaquette[band]:+d}"
    )
