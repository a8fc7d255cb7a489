"""Bloch and continuum Hamiltonians used throughout the package.

Every model writes H(k) = sum_G c_G(k) G over a fixed Hermitian generator
set; the coefficient function ``coeff`` is the only formula it declares, and
the momentum gradient is derived from it (`BlochModel`).  Momenta are
dimensionless (hbar = 1, lattice constant = 1); lattice models are
2*pi-periodic per axis.  The honeycomb model uses reduced coordinates on
the triangular reciprocal basis so that exact periodicity holds there too.

Initial internal states ("spinors") are always expressed in the eigenbasis
of the model's mass generator (`BlochModel.mass_eigenbasis`), read off the
generator itself: columns ordered by ascending eigenvalue, each with its
largest entry real and positive (`hermitian_eig`).  That gives

* spin-1 lattice / cartesian spin-1 continuum:  Jz eigenvectors
  (1,-i,0)/sqrt2, (0,0,1), (1,i,0)/sqrt2 for eigenvalues -1, 0, +1;
* three-band chiral model: fourth-generator eigenvectors (0,1,-i)/sqrt2,
  (1,0,0), (0,1,i)/sqrt2;
* ladder spin-J: the computational basis in reversed order;
* a Kane-Mele spin sector: (sz = -1, sz = +1), the computational basis
  reversed;
* the full Kane-Mele model, which has no mass row: the computational basis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .generators import gell_mann, spin_matrices
from .spectral import hermitian_eig

__all__ = [
    "BlochModel", "evaluate", "gradient", "spin_j_continuum", "maxwell_lattice", "kane_mele",
    "kane_mele_spin_sector", "chiral_ti_3d", "chiral_symmetry",
]

# The complex step of `BlochModel.coeff_grad`: a power of two, so Im / h is exact.
_COMPLEX_STEP = 2.0**-64

# Band-structure paths: (label, momentum) nodes joined by straight segments.
_SQUARE_PATH = (("G", (0.0, 0.0)), ("X", (np.pi, 0.0)), ("M", (np.pi, np.pi)), ("G", (0.0, 0.0)))
_HEX_PATH = (
    ("G", (0.0, 0.0)),
    ("K", (2 * np.pi / 3, 4 * np.pi / 3)),
    ("M", (np.pi, np.pi)),
    ("K'", (4 * np.pi / 3, 2 * np.pi / 3)),
    ("G", (0.0, 0.0)),
)
_CUBIC_PATH = (
    ("G", (0.0, 0.0, 0.0)),
    ("X", (np.pi, 0.0, 0.0)),
    ("M", (np.pi, np.pi, 0.0)),
    ("G", (0.0, 0.0, 0.0)),
    ("R", (np.pi, np.pi, np.pi)),
)


@dataclass(frozen=True)
class BlochModel:
    """A momentum-space Hamiltonian H(k) = sum_G coeff_G(k) * G.

    ``generators`` is the (n_generators, n, n) array of the G, so the model
    has n bands (`band_count`).  ``coeff`` maps (..., momentum_dim) momenta
    to (..., n_generators) coefficients; it is the only formula a model
    declares, built from +, -, x and the sin and cos of the momenta, with its
    output allocated as ``dtype=k.dtype`` so that complex momenta stay
    complex (`coeff_grad` differentiates it).

    The coefficients are the d-vector of H = d(k) . G, and its layout is the
    contract of the local and global routes: a model with D + 1 generators
    (D = ``momentum_dim``) carries the axis-d velocity at a high-symmetry
    point on row d < D and the local gap, the mass, on row D
    (`mass_generator`).  `linearize_at_hsp` reads V and m there, and the
    orientation constants of `invariants._preimage_count` assume it.  A model
    with any other generator count (the full Kane-Mele model) has no mass row.

    Each factory also declares what differs between the systems, so callers
    never switch on ``name``: ``band_path`` holds the (label, momentum)
    nodes of the band-structure path; ``invariant`` names the invariant a
    parameter sweep records (``"chern"``, ``"winding"``, ``"z2"``, or None
    when the model has no sweep); ``sweep_parameters`` lists the parameters
    a sweep may vary, the first being the default.
    """

    name: str
    momentum_dim: int
    generators: np.ndarray
    coeff: Callable[[np.ndarray], np.ndarray]
    hsps: tuple
    params: dict
    periodic: bool
    momentum_cutoff: float | None = None
    band_path: tuple = ()
    invariant: str | None = None
    sweep_parameters: tuple[str, ...] = ()

    @property
    def band_count(self) -> int:
        return self.generators.shape[-1]

    def band_spin(self, band: int) -> float:
        """Spin index of ``band`` counted from the lowest: -J .. J, J = (bands - 1) / 2."""
        return band - (self.band_count - 1) / 2.0

    def coeff_grad(self, k) -> np.ndarray:
        """The (..., n_generators, momentum_dim) gradient of ``coeff`` at real momenta k: Im
        coeff(k + i h e_d) / h per axis d (Squire & Trapp, SIAM Rev. 40, 110 (1998)), exact
        to rounding since h = 2^-64 gives cosh h = 1 and sinh h = h in floating point."""
        steps = k[..., None, :] + _shared(np.eye, self.momentum_dim) * (1j * _COMPLEX_STEP)
        return (self.coeff(steps).imag / _COMPLEX_STEP).swapaxes(-1, -2)

    @property
    def mass_generator(self) -> int | None:
        """The mass row D = ``momentum_dim`` of a D + 1 generator model, else None."""
        dim = self.momentum_dim
        return dim if len(self.generators) == dim + 1 else None

    def mass_eigenbasis(self) -> np.ndarray:
        """Mass-generator eigenvectors as columns (`hermitian_eig`), or the identity; read-only."""
        if self.mass_generator is None:
            return _shared(np.eye, self.band_count, None, 0, complex)
        mass = np.ascontiguousarray(self.generators[self.mass_generator], dtype=complex)
        return _shared(_eigenbasis, mass.shape, mass.tobytes())  # one solve per mass matrix


def _eigenbasis(shape, data):
    return hermitian_eig(np.frombuffer(data, dtype=complex).reshape(shape)).states


def _zone_corners(dim):
    """The 2^dim zone corners, each coordinate 0 or pi, the last axis fastest; read-only."""
    return tuple(_shared(np.array, c) for c in itertools.product((0.0, np.pi), repeat=dim))


def _check_momenta(model: BlochModel, k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape[-1] != model.momentum_dim:
        raise ValueError(f"momentum dimension mismatch: got {k.shape[-1]}, "
                         f"model '{model.name}' expects {model.momentum_dim}")
    return k


def evaluate(model: BlochModel, k) -> np.ndarray:
    """Hamiltonian at momentum k; broadcasts over leading axes of k."""
    k = _check_momenta(model, k)
    c = model.coeff(k)
    return np.einsum("...g,gij->...ij", c.astype(complex), model.generators)


def gradient(model: BlochModel, k) -> np.ndarray:
    """dH/dk_d from `BlochModel.coeff_grad`, shape (..., momentum_dim, n, n)."""
    k = _check_momenta(model, k)
    dc = model.coeff_grad(k)
    return np.einsum("...gd,gij->...dij", dc.astype(complex), model.generators)


# ----------------------------------------------------------------------
# spin-J models: H = d(k) . (Jx, Jy, Jz)
# ----------------------------------------------------------------------

@functools.cache
def _shared(builder, *args) -> np.ndarray:
    """``builder(*args)``, built on first use and shared read-only."""
    out = builder(*args)
    out.setflags(write=False)
    return out


def _spin_model(j, basis: str, **fields) -> BlochModel:
    """A 2D spin-j model with the shared generators `spin_matrices(j, basis)`, so velocities
    on Jx and Jy and mass on Jz, and the square band path; ``fields`` give the rest."""
    gens = _shared(spin_matrices, j, basis) if isinstance(basis, str) else spin_matrices(j, basis)
    return BlochModel(momentum_dim=2, generators=gens, band_path=_SQUARE_PATH, **fields)


def spin_j_continuum(j, v_x: float, v_y: float, m: float, basis: str = "ladder") -> BlochModel:
    """H(p) = v_x p_x Jx + v_y p_y Jy + m Jz for a spin-j quasiparticle.

    The single high-symmetry point sits at p = 0 where the spectrum is
    m * (-j .. j).  ``basis='cartesian'`` (j = 1 only) uses the adjoint
    representation so spinors match the spin-1 lattice model convention.
    """
    def coeff(k, _v=(v_x, v_y), _m=m):
        out = np.empty(k.shape[:-1] + (3,), dtype=k.dtype)
        out[..., :2] = k * _v
        out[..., 2] = _m
        return out

    return _spin_model(
        j, basis,
        name="spin_j",
        coeff=coeff,
        hsps=(np.zeros(2),),
        params={"j": float(j), "v_x": v_x, "v_y": v_y, "m": m, "basis": basis},
        periodic=False,
        momentum_cutoff=10.0,
    )


def maxwell_lattice(t_h: float, M: float) -> BlochModel:
    """Three-band spin-1 lattice model h(k) = J . d(k).

    d = 2 t_h (sin kx, sin ky, M - cos kx - cos ky) on the square lattice,
    with band inversions at the four corner points (0,0), (0,pi), (pi,0),
    (pi,pi) as M crosses 2, 0, 0, -2 respectively.
    """
    if t_h == 0.0:
        raise ValueError("t_h must be nonzero")

    def coeff(k, _t=t_h, _M=M):
        out = np.empty(k.shape[:-1] + (3,), dtype=k.dtype)
        out[..., :2] = 2 * _t * np.sin(k)
        out[..., 2] = 2 * _t * (_M - np.cos(k[..., 0]) - np.cos(k[..., 1]))
        return out

    return _spin_model(
        1, "cartesian",
        name="maxwell",
        coeff=coeff,
        hsps=_zone_corners(2),
        params={"t_h": t_h, "M": M},
        periodic=True,
        invariant="chern",
        sweep_parameters=("M",),
    )


# ----------------------------------------------------------------------
# honeycomb model with spin-orbit coupling (sublattice (x) spin ordering)
# ----------------------------------------------------------------------

_S0 = np.eye(2, dtype=complex)
# (sx, sy, sz): the spin sector's generators, shared read-only
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)
_SX, _SY, _SZ = _PAULI

# Unit vectors of the three nearest-neighbour bonds (A -> B), bond j taken
# with the lattice offset R_j in {0, a1, a2}; a1 = (1, 0), a2 = (1/2, s3/2).
_BOND_HATS = np.array(
    [
        [np.sqrt(3.0) / 2, 0.5],
        [-np.sqrt(3.0) / 2, 0.5],
        [0.0, -1.0],
    ]
)


def _km_generators() -> np.ndarray:
    """The ten honeycomb generators (built once, through `_shared`)."""
    # rows, as sublattice (x) spin: sx s0, sy s0, sz sz, sz s0, then sx m_j, sy m_j per bond j
    mats = [np.kron(_SX, _S0), np.kron(_SY, _S0), np.kron(_SZ, _SZ), np.kron(_SZ, _S0)]
    for hx, hy in _BOND_HATS:
        spin_part = hy * _SX - hx * _SY  # m_j: in-plane spin (x) bond-direction cross product
        mats.append(np.kron(_SX, spin_part))
        mats.append(np.kron(_SY, spin_part))
    return np.stack(mats)


def kane_mele(t: float, lambda_so: float, lambda_r: float, lambda_v: float) -> BlochModel:
    """Honeycomb lattice with intrinsic + Rashba spin-orbit terms and a
    staggered sublattice potential, in reduced momentum coordinates.

    Bloch matrix (sublattice blocks, each 2x2 in spin):

        H_AA =  lambda_v * s0 + 2 lambda_so g(k) * sz
        H_BB = -lambda_v * s0 - 2 lambda_so g(k) * sz
        H_AB =  t (1 + e^{-i k1} + e^{-i k2}) * s0
              + i lambda_r sum_j (sx hy_j - sy hx_j) e^{-i k . R_j}

    with g(k) = sin k1 - sin k2 - sin(k1 - k2), bond offsets R_j in
    {0, a1, a2} and unit bond vectors h_j as in ``_BOND_HATS``.  At
    lambda_r = 0 the model splits into two opposite-mass Haldane sectors.
    t = 0 builds, so the band structure of that limit stays computable, but
    every local route refuses it: the valley velocities vanish.
    """
    def coeff(k, _t=t, _so=lambda_so, _r=lambda_r, _v=lambda_v):
        k1, k2 = k[..., 0], k[..., 1]
        s1, c1, s2, c2 = np.sin(k1), np.cos(k1), np.sin(k2), np.cos(k2)
        out = np.empty(k.shape[:-1] + (10,), dtype=k.dtype)
        out[..., 0] = _t * (1 + c1 + c2)
        out[..., 1] = _t * (s1 + s2)
        out[..., 2] = 2 * _so * (s1 - s2 - np.sin(k1 - k2))  # Haldane g(k)
        out[..., 3] = _v
        out[..., 4] = 0.0        # sin of zero bond phase
        out[..., 5] = -_r
        out[..., 6] = _r * s1
        out[..., 7] = -_r * c1
        out[..., 8] = _r * s2
        out[..., 9] = -_r * c2
        return out

    pi = np.pi
    return BlochModel(
        name="kane_mele",
        momentum_dim=2,
        generators=_shared(_km_generators),
        coeff=coeff,
        hsps=(
            np.array([0.0, 0.0]),                  # Gamma
            np.array([2 * pi / 3, 4 * pi / 3]),    # K
            np.array([4 * pi / 3, 2 * pi / 3]),    # K'
            np.array([pi, 0.0]),                   # M
            np.array([0.0, pi]),                   # M'
            np.array([pi, pi]),                    # M''
        ),
        params={"t": t, "lambda_so": lambda_so, "lambda_r": lambda_r, "lambda_v": lambda_v},
        periodic=True,
        band_path=_HEX_PATH,
        invariant="z2",
        sweep_parameters=("lambda_v", "lambda_so"),
    )


def kane_mele_spin_sector(t: float, lambda_so: float, lambda_v: float, spin: int) -> BlochModel:
    """One decoupled 2x2 spin sector of the honeycomb model at lambda_r = 0.

    Its coefficients are those of ``kane_mele`` with intrinsic coupling
    spin * lambda_so, folded onto (sx, sy, sz): the two hopping rows, and
    the staggered potential plus the Haldane row on sz, the mass generator
    at its high-symmetry points, the valleys K and K'.
    """
    if spin not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    full = kane_mele(t, spin * lambda_so, 0.0, lambda_v)

    def coeff(k, _c=full.coeff):
        c = _c(k)
        out = c[..., [0, 1, 3]]  # a copy: the staggered row takes the Haldane row on sz
        out[..., 2] += c[..., 2]
        return out

    return replace(
        full,
        name="kane_mele_sector",
        generators=_PAULI,
        coeff=coeff,
        hsps=full.hsps[1:3],
        params={"t": t, "lambda_so": lambda_so, "lambda_v": lambda_v, "spin": spin},
        invariant=None,
        sweep_parameters=(),
    )


# ----------------------------------------------------------------------
# three-band chiral model on the cubic lattice
# ----------------------------------------------------------------------

def chiral_ti_3d(M: float) -> BlochModel:
    """h(k) = sin kx l4 + sin ky l5 + sin kz l6 + (M - sum cos) l7.

    Three bands (+|q|, 0, -|q|) protected by the chiral operator returned
    by ``chiral_symmetry``; the eight corner points of the cubic zone carry
    the local data that fixes the integer winding.
    """
    def coeff(k, _M=M):
        out = np.empty(k.shape[:-1] + (4,), dtype=k.dtype)
        out[..., :3] = np.sin(k)
        out[..., 3] = _M - np.cos(k[..., 0]) - np.cos(k[..., 1]) - np.cos(k[..., 2])
        return out

    return BlochModel(
        name="chiral_ti",
        momentum_dim=3,
        generators=_shared(gell_mann)[3:7],  # lambda4 .. lambda7, a read-only view
        coeff=coeff,
        hsps=_zone_corners(3),
        params={"M": M},
        periodic=True,
        band_path=_CUBIC_PATH,
        invariant="winding",
        sweep_parameters=("M",),
    )


def chiral_symmetry(model: BlochModel) -> np.ndarray:
    """Hermitian unitary S with S H(k) S = -H(k): the null vector of the anticommutation
    system (G (x) 1 + 1 (x) G^T) vec(S) = 0, stacked over the model's generators."""
    eye = np.eye(model.band_count)
    system = np.concatenate([np.kron(g, eye) + np.kron(eye, g.T) for g in model.generators])
    _, svals, vh = np.linalg.svd(system)
    if svals[-1] > 1e-6 * max(svals[0], 1.0):
        raise ValueError(f"no chiral symmetry operator found (min singular value {svals[-1]:.3e})")
    s = vh[-1].conj().reshape(eye.shape)
    # with G Hermitian, S^dagger solves the system too: keep the larger Hermitian part
    s = max(s + s.conj().T, 1j * (s - s.conj().T), key=np.linalg.norm)
    # Normalize eigenvalues to exactly +-1 and pin the overall sign.
    w, v = np.linalg.eigh(s)
    s = v @ np.diag(np.sign(w)) @ v.conj().T
    if np.trace(s).real < 0:
        s = -s
    return s
