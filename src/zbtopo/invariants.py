"""Local high-symmetry-point indices and global topological invariants.

Two independent routes exist for every invariant: the sign-count over
high-symmetry points (local, exact) and a zone integral (global, gauge
free).  The lattice field-strength (plaquette) sum plays the global role
in 2D, a unit-vector degree integral in 3D, and the decoupled-sector Chern
parity / inversion-parity products for the honeycomb model.  The sector
Chern number behind that parity is the degree of d/|d| for the two-band
sector H = d(k) . sigma, summed as signed solid angles over the zone mesh
(`degree_2band`), with no eigensolve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessError, NotHighSymmetryError
from .models import BlochModel, _check_momenta, evaluate, kane_mele, kane_mele_spin_sector

__all__ = [
    "HSPLinearization",
    "InvariantReport",
    "linearize_at_hsp",
    "chern_from_hsp",
    "chern_plaquette",
    "degree_2band",
    "winding_from_hsp",
    "winding_numerical",
    "z2_kane_mele",
    "z2_spin_chern_parity",
    "z2_fu_kane_parity",
    "rashba_gap_ramp",
    "compute_invariants",
]

MASS_FLOOR = 1e-9
PROJECTION_TOL = 1e-8
PLAQUETTE_GAP_FLOOR = 1e-6
PLAQUETTE_MAX_GRID = 512

# Orientation of the plaquette field-strength sum and of the 3D degree
# integral.  Both signs are pinned once so that the global integrals and
# the high-symmetry-point sign formulas quote invariants in the same
# convention; the agreement at every other parameter value is then a real
# cross-check.
PLAQUETTE_ORIENTATION = -1.0
DEGREE_ORIENTATION = -1.0


@dataclass(frozen=True)
class HSPLinearization:
    """Local expansion data H(K + p) ~ sum_d v_d p_d G_d + m G_mass.

    ``nu`` = sgn(prod_d v_d) sgn(m): in 2D sgn(v_x v_y m), the rotation
    sense of the local oscillation; in 3D the quantity summed by the
    winding formula.
    """

    hsp: tuple
    velocities: tuple
    mass: float
    nu: int


def linearize_at_hsp(model: BlochModel, K):
    """Extract the velocities, mass and local index at high-symmetry points.

    ``K`` is one point (D,) or a stack (H, D); a stack returns a tuple of
    H linearizations, and the first failing point in stack order raises.
    The data are the model's own coefficients at K: the mass is
    ``coeff(K)[mass_generator]`` and v_d is
    ``coeff_grad(K)[velocity_generators[d], d]``.  Every other coefficient
    of H(K) must vanish (within PROJECTION_TOL), |m| reach MASS_FLOOR (a
    non-finite H(K) does not) and no velocity vanish.
    """
    if model.mass_generator is None:
        raise NotHighSymmetryError(
            f"model '{model.name}' does not declare a mass generator"
        )
    K = np.atleast_1d(np.asarray(K, dtype=float))
    points = _check_momenta(model, np.atleast_2d(K))
    coeffs = model.coeff(points)
    # a NaN off-mass coefficient would pass the off-mass test: a non-finite
    # H(K) has no mass, so it reads NaN and the mass floor refuses the point
    coeffs = np.where(np.isfinite(coeffs).all(axis=-1, keepdims=True), coeffs, np.nan)
    off_mass = np.abs(np.delete(coeffs, model.mass_generator, axis=-1)).max(-1, initial=0.0)
    vels = model.coeff_grad(points)[:, list(model.velocity_generators),
                                    np.arange(model.momentum_dim)]
    lins = []
    for k, off, mass, vel in zip(points, off_mass.tolist(),
                                 coeffs[:, model.mass_generator].tolist(), vels.tolist()):
        hsp = tuple(k.tolist())
        if off > PROJECTION_TOL:
            raise NotHighSymmetryError(f"H at K={hsp} is not proportional to the mass "
                                       f"generator (max off-mass coefficient {off:.3e})")
        if not abs(mass) >= MASS_FLOOR:
            raise GaplessError(f"gapless high-symmetry point K={hsp}: |m| = {abs(mass):.3e}")
        if not all(abs(v) >= 1e-12 for v in vel):
            raise NotHighSymmetryError(f"vanishing velocity at K={hsp}: {vel}")
        nu = (1 if math.prod(vel) > 0 else -1) * (1 if mass > 0 else -1)
        lins.append(HSPLinearization(hsp=hsp, velocities=tuple(vel), mass=mass, nu=nu))
    return tuple(lins) if K.ndim == 2 else lins[0]


def chern_from_hsp(model: BlochModel, j, lins=None):
    """Band Chern number from the four local indices: -j * sum_K nu_K.

    ``j`` is the band's spin index (-J .. J counted from the lowest band).
    The sum of four signs is always even, so the result is integral even
    for half-integer j; integral values are returned as int.  ``lins``
    reuses a linearization of ``model.hsps`` already at hand.
    """
    if model.momentum_dim != 2 or len(model.hsps) != 4:
        raise ValueError(
            "the four-point index formula needs a 2D lattice model with four "
            "high-symmetry points"
        )
    total = sum(lin.nu for lin in lins or linearize_at_hsp(model, model.hsps))
    value = -j * total
    if abs(value - round(value)) < 1e-12:
        return int(round(value))
    return float(value)


def _zone_mesh(n_grid: int, dim: int = 2):
    """The n^dim zone mesh k_d = 2 pi i / n, shape (n, ..., n, dim)."""
    axes = 2 * np.pi * np.arange(n_grid) / n_grid
    return np.stack(np.meshgrid(*[axes] * dim, indexing="ij"), axis=-1)


def _refuse_gap(gap, what: str):
    """GaplessError ``<what> near k = (..): gap g`` at the first point of a zone-mesh
    array ``gap`` (n, ..., n) where it falls below PLAQUETTE_GAP_FLOOR or is NaN."""
    if not gap.min() >= PLAQUETTE_GAP_FLOOR:
        at = np.unravel_index(int(np.argmin(gap)), gap.shape)
        raise GaplessError(f"{what} near k = ({_mesh_k(at, len(gap))}): gap {gap.min():.3e}")


def _refuse_overflow(norms):
    """ValueError ``coefficient norm |d| overflows near k = (..)`` at the first point
    of a zone-mesh array of norms |d| (n, ..., n) that is inf; NaN is `_refuse_gap`'s."""
    if not np.isfinite(norms).all():
        at = np.unravel_index(int(np.argmin(np.isfinite(norms))), norms.shape)
        raise ValueError(f"coefficient norm |d| overflows near k = ({_mesh_k(at, len(norms))})")


def _mesh_k(at, n_grid: int) -> str:
    """The zone-mesh momentum at index tuple ``at``, as ``k_1, k_2, ..`` to 6 places."""
    return ", ".join(f"{2 * np.pi * i / n_grid:.6f}" for i in at)


def _zone_eigh(model: BlochModel, n_grid: int):
    """Eigenvalues and eigenvectors of H on the n x n zone mesh.  A mesh point where
    H holds NaN or inf is refused before the solve, as ``gap nan``: no gap is
    computed there."""
    ham = evaluate(model, _zone_mesh(n_grid))
    _refuse_gap(np.where(np.isfinite(ham).all(axis=(-2, -1)), np.inf, np.nan),
                "Hamiltonian is not finite")
    return np.linalg.eigh(ham)


def _fhs_sum(model: BlochModel, band: int, w, v) -> float:
    """Lattice field-strength sum of one band over a zone solve, in units of 2*pi."""
    gap = np.full(w.shape[:2], np.inf)
    if band > 0:
        gap = np.minimum(gap, w[..., band] - w[..., band - 1])
    if band < model.band_count - 1:
        gap = np.minimum(gap, w[..., band + 1] - w[..., band])
    _refuse_gap(gap, f"band {band} touches a neighbour")
    u = v[..., :, band]
    link_x = np.einsum("xyn,xyn->xy", u.conj(), np.roll(u, -1, axis=0))
    link_y = np.einsum("xyn,xyn->xy", u.conj(), np.roll(u, -1, axis=1))
    plaq = link_x * np.roll(link_y, -1, axis=0) * np.conj(np.roll(link_x, -1, axis=1)) * np.conj(link_y)
    return PLAQUETTE_ORIENTATION * float(np.angle(plaq).sum()) / (2 * np.pi)


def _refine(zone, integral, grid: int, meshes: dict) -> int:
    """Integer value of ``integral`` over zone meshes of ``grid``, doubling (up to
    PLAQUETTE_MAX_GRID) until two successive sizes agree on the rounded integer,
    each within 1e-6 of it.  ``zone(n)`` returns a tuple of (n, n, ...) arrays,
    kept in ``meshes`` by size for later calls."""
    previous = None
    n = grid
    while n <= PLAQUETTE_MAX_GRID:
        if n not in meshes:
            # A value with no agreeing predecessor cannot stop at n: build 2n and
            # take n as its [::2, ::2] subsample, bit-equal to a direct build
            # since 2 * (2 pi i) / (2 n) == 2 pi i / n.
            step = 2 if previous is None and 2 * n <= PLAQUETTE_MAX_GRID else 1
            meshes[step * n] = zone(step * n)
            meshes[n] = tuple(x[::step, ::step] for x in meshes[step * n])
        raw = integral(*meshes[n])
        rounded = int(round(raw))
        good = abs(raw - rounded) < 1e-6
        if good and previous == rounded:
            return rounded
        previous = rounded if good else None
        n *= 2
    raise ValueError(f"plaquette sum did not stabilize on an integer up to grid "
                     f"{PLAQUETTE_MAX_GRID} (last {raw!r})")


def chern_plaquette(model: BlochModel, band, grid: int = 64):
    """Gauge-invariant plaquette Chern number of one band, or a tuple of them.

    ``band`` is one index (returns an int) or a tuple of indices (returns a
    tuple in the same order).  Each band doubles its grid (up to 512 per
    side) until two successive sizes agree on the rounded integer, each
    within 1e-6 of an integer, and is refused where it touches a neighbour
    on a grid; bands go in tuple order, each coarse grid before the finer.
    Every zone mesh is diagonalized at most once per call, for all bands,
    and a band that cannot yet stop at grid n solves 2n and reads n off it.
    """
    if model.momentum_dim != 2:
        raise ValueError("plaquette Chern numbers are defined for 2D models")
    bands = band if isinstance(band, tuple) else (band,)
    for b in bands:
        if not 0 <= b < model.band_count:
            raise ValueError(f"band {b} outside 0..{model.band_count - 1}")
    check_grid(grid, PLAQUETTE_MAX_GRID)
    solves = {}
    values = tuple(_refine(functools.partial(_zone_eigh, model),
                           functools.partial(_fhs_sum, model, b), grid, solves) for b in bands)
    return values if isinstance(band, tuple) else values[0]


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _solid_angle_sum(d) -> float:
    """Degree of d/|d| over one zone mesh d (n, n, 3): the signed solid angles
    of two triangles per plaquette, over 4 pi (Berg & Luscher, Nucl. Phys. B
    190, 412 (1981)).  Refused where the gap 2|d| falls below the floor or |d|
    overflows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d, axis=-1)
    _refuse_gap(2 * norms, "two-band gap closes")
    _refuse_overflow(norms)
    a = d / norms[..., None]
    b, e = np.roll(a, -1, axis=0), np.roll(a, -1, axis=1)
    c = np.roll(b, -1, axis=1)
    total = 0.0
    # counterclockwise triangles (k, k + x, k + x + y) and (k, k + x + y, k + y)
    for p, q, r in ((a, b, c), (a, c, e)):
        volume = np.einsum("...i,...i->...", p, np.cross(q, r))
        cosine = 1.0 + np.einsum("...i,...i->...", p + r, q) + np.einsum("...i,...i->...", r, p)
        total += 2.0 * float(np.arctan2(volume, cosine).sum())
    return total / (4 * np.pi)


def degree_2band(model: BlochModel, grid: int = 32) -> int:
    """Lower-band Chern number of a two-band sector H = d(k) . (sx, sy, sz).

    It is the degree of d/|d| : T^2 -> S^2, in the orientation of
    `chern_plaquette` (which quotes the lower band as +degree).  The
    coefficients are evaluated once on the 2 grid mesh, and ``grid`` is read
    off it as [::2, ::2]; the grid then doubles by the two-grid rule of
    `chern_plaquette`, and a grid point where 2|d| falls below
    PLAQUETTE_GAP_FLOOR is a GaplessError.  Only a periodic 2D model with
    the three Pauli generators (`kane_mele_spin_sector`) is accepted.
    """
    if not (model.momentum_dim == 2 and model.periodic
            and np.array_equal(model.generators.matrices, _PAULI)):
        raise ValueError(f"the two-band degree needs a periodic 2D model with generators "
                         f"(sx, sy, sz), got '{model.name}'")
    check_grid(grid, PLAQUETTE_MAX_GRID)
    return _refine(lambda n: (model.coeff(_zone_mesh(n)),), _solid_angle_sum, grid, {})


def check_grid(grid, upper=None, name="grid"):
    """Refuse a grid size that is not an integer in 1..upper (ValueError naming ``name``)."""
    integer = isinstance(grid, (int, np.integer)) and not isinstance(grid, bool)
    if not integer or grid < 1 or (upper is not None and grid > upper):
        limit = f"an integer in 1..{upper}" if upper is not None else "a positive integer"
        raise ValueError(f"{name} must be {limit}, got {grid!r}")


def winding_from_hsp(model: BlochModel, lins=None) -> int:
    """3D winding number: half the sum of sgn(v_x v_y v_z) sgn(m) over the
    eight corner points (``lins`` as in `chern_from_hsp`)."""
    if model.momentum_dim != 3 or len(model.hsps) != 8:
        raise ValueError("the eight-point winding formula needs a 3D model")
    total = sum(lin.nu for lin in lins or linearize_at_hsp(model, model.hsps))
    if total % 2 != 0:
        raise ValueError(f"odd index sum {total}: inconsistent linearization")
    return total // 2


def winding_numerical(model: BlochModel, grid: int = 40):
    """3D winding number as the degree of the unit coefficient vector.

    The four generator coefficients d(k) are normalized to a unit vector n
    on S^3 and the degree integral (1/2 pi^2) int det[n, dn/dk1, dn/dk2,
    dn/dk3] d^3k is evaluated with spectral derivatives.  Returns the
    rounded integer and the residual distance from it.  Memory is one
    (grid^3, 4, 4) Jacobian [n, dn/dk1, dn/dk2, dn/dk3] plus per-plane FFT
    temporaries.  A grid point where |d| is below PLAQUETTE_GAP_FLOOR or NaN
    is a GaplessError, one where |d| overflows a ValueError.
    """
    if model.momentum_dim != 3:
        raise ValueError("the winding integral needs a 3D model")
    if len(model.generators) != 4:
        raise ValueError("the winding integral expects a four-generator chiral model")
    check_grid(grid)
    d_vec = model.coeff(_zone_mesh(grid, 3))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d_vec, axis=-1)
    _refuse_gap(norms, "spectrum gap closes")
    _refuse_overflow(norms)
    jac = np.empty(norms.shape + (4, 4))
    np.divide(d_vec, norms[..., None], out=jac[..., 0, :])
    del d_vec  # n = d/|d| is row 0 of the Jacobian; free d before the derivatives
    harmonics = np.fft.fftfreq(grid, d=1.0 / grid)
    if grid % 2 == 0:
        harmonics[grid // 2] = 0.0
    mult = (1j * harmonics)[:, None, None]
    # dn/dk_axis one plane at a time across the axis, so each FFT line stays whole
    for axis in range(3):
        n_hat, deriv = (np.moveaxis(jac[..., row, :], axis, 0) for row in (0, 1 + axis))
        for i in range(grid):
            spec = np.fft.fft(n_hat[:, i], axis=0)
            spec *= mult
            deriv[:, i] = np.fft.ifft(spec, axis=0).real
    total = np.linalg.det(jac).sum() * (2 * np.pi / grid) ** 3
    raw = DEGREE_ORIENTATION * total / (2 * np.pi**2)
    value = int(round(raw))
    return value, float(abs(raw - value))


# ----------------------------------------------------------------------
# honeycomb model invariants
# ----------------------------------------------------------------------

# the valleys K and K', and the spin-up sublattice mass projector sz x P_up
_KM_VALLEYS = np.array([[2 * np.pi / 3, 4 * np.pi / 3], [4 * np.pi / 3, 2 * np.pi / 3]])
_KM_UP_MASS = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, 0.0])).astype(complex)


def _km_params(model: BlochModel) -> dict:
    if model.invariant != "z2":
        raise ValueError(f"expected the honeycomb model, got '{model.name}'")
    return model.params


def _km_valley_masses(model: BlochModel):
    """Per-valley spin-up masses from the sublattice-spin mass projection.

    The projector tr[(sz x P_up) H]/2 ignores the Rashba block entirely,
    which is exactly the Rashba-free reduction used to classify the phase;
    its validity is guarded by gap tracking, not assumed.
    """
    hams = evaluate(model, _KM_VALLEYS)
    w = np.linalg.eigvalsh(hams)
    masses = (np.einsum("ij,kji->k", _KM_UP_MASS, hams).real / 2.0).tolist()
    for kpt, gap, mass in zip(_KM_VALLEYS, (w[:, 2] - w[:, 1]).tolist(), masses):
        if gap < MASS_FLOOR:
            raise GaplessError(
                f"honeycomb gap closed at valley k = {tuple(kpt.tolist())}: "
                f"gap {gap:.3e}"
            )
        if abs(mass) < MASS_FLOOR:
            raise GaplessError(f"vanishing valley mass at k = {tuple(kpt.tolist())}")
    return masses


def z2_kane_mele(model: BlochModel) -> int:
    """Z2 index from the valley mass-sign rule: 1 iff the spin-up masses at
    the two valleys have opposite signs."""
    m_k, m_kp = _km_valley_masses(model)
    return 1 if m_k * m_kp < 0 else 0


def z2_spin_chern_parity(model: BlochModel, grid: int = 32) -> int:
    """Z2 as the parity of one decoupled sector's Chern number (lambda_r = 0)."""
    params = _km_params(model)
    if params["lambda_r"] != 0.0:
        raise ValueError("the decoupled-sector parity oracle needs lambda_r = 0")
    sector = kane_mele_spin_sector(
        params["t"], params["lambda_so"], params["lambda_v"], +1
    )
    return abs(degree_2band(sector, grid)) % 2


def z2_fu_kane_parity(model: BlochModel) -> int:
    """Z2 from parity products at the four time-reversal-invariant momenta.

    Defined only on the inversion-symmetric slice lambda_v = 0 (and
    lambda_r = 0), where sublattice exchange commutes with H at those
    momenta; each occupied Kramers doublet contributes one parity sign.
    """
    params = _km_params(model)
    if params["lambda_v"] != 0.0 or params["lambda_r"] != 0.0:
        raise ValueError(
            "the parity oracle needs the inversion-symmetric slice "
            "lambda_v = 0, lambda_r = 0"
        )
    parity_op = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    pi = np.pi
    trims = np.array([[0.0, 0.0], [pi, 0.0], [0.0, pi], [pi, pi]])
    product = 1
    for trim, w, v in zip(trims, *np.linalg.eigh(evaluate(model, trims))):
        if w[2] - w[1] < MASS_FLOOR:
            raise GaplessError(f"gap closed at the invariant momentum {tuple(trim.tolist())}")
        occ = v[:, :2]
        block = occ.conj().T @ parity_op @ occ
        xi = block.trace().real / 2.0
        if abs(abs(xi) - 1.0) > 1e-6 or np.max(np.abs(block - xi * np.eye(2))) > 1e-6:
            raise ValueError(
                f"occupied doublet at {tuple(trim.tolist())} is not a parity eigenspace"
            )
        product *= int(np.sign(xi))
    return (1 - product) // 2


@functools.cache
def _ramp_mesh(grid):
    """Zone mesh and ||R(k)||_F on it, R = dH/dlambda_r: built once per grid, read-only."""
    mesh = _zone_mesh(grid)
    rashba = np.linalg.norm(evaluate(kane_mele(0.0, 0.0, 1.0, 0.0), mesh), axis=(-2, -1))
    mesh.flags.writeable = rashba.flags.writeable = False
    return mesh, rashba


def rashba_gap_ramp(t: float, lambda_so: float, lambda_v: float,
                    lambda_r_max: float, steps: int = 6, grid: int = 33):
    """Track the bulk gap and the Z2 index along a Rashba ramp 0 -> lambda_r_max.

    Returns a list of (lambda_r, min bulk gap, z2).  The grid includes the
    valley momenta exactly when it is a multiple of 3.  At lambda_r = 0 the
    spin sectors decouple with levels +-|d_s(k)|, and H(lambda_r) - H(0) =
    lambda_r R(k); by Weyl's inequality the gap at k lies within
    2 |lambda_r| ||R(k)||_F of 2 min_s |d_s(k)|, so each step solves only the
    points whose lowest possible gap reaches the smallest highest possible
    gap, which hold the same minimum, bit for bit.  A non-finite t,
    lambda_so, lambda_v or lambda_r_max is a ValueError naming it.
    """
    check_grid(grid)
    check_grid(steps, name="steps")
    for name, value in zip(("t", "lambda_so", "lambda_v", "lambda_r_max"),
                           (t, lambda_so, lambda_v, lambda_r_max)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    mesh, rashba = _ramp_mesh(grid)
    levels = np.linalg.norm([kane_mele_spin_sector(t, lambda_so, lambda_v, s).coeff(mesh)
                             for s in (1, -1)], axis=-1)
    gap0, scale = 2 * levels.min(axis=0), 1.0 + levels.max()
    out = []
    for lam_r in np.linspace(0.0, lambda_r_max, steps):
        model = kane_mele(t, lambda_so, float(lam_r), lambda_v)
        delta = abs(lam_r) * rashba
        # 1e-9 of the matrix scale covers the eigensolver's rounding
        spread = 2 * delta + 1e-9 * (scale + delta)
        # skip only the points proven above the minimum (a NaN is not)
        w = np.linalg.eigvalsh(evaluate(model, mesh[~(gap0 - spread > (gap0 + spread).min())]))
        out.append((float(lam_r), float((w[..., 2] - w[..., 1]).min()), z2_kane_mele(model)))
    return out


# ----------------------------------------------------------------------
# aggregated reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Everything the invariant pipeline knows about one model instance."""

    model: str
    params: dict
    hsp: tuple
    chern_hsp: tuple | None
    chern_plaquette: tuple | None
    winding: int | None
    winding_residual: float | None
    z2: int | None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "hsp": [{"k": list(lin.hsp), "v": list(lin.velocities), "m": lin.mass, "nu": lin.nu}
                    for lin in self.hsp],
            "chern_hsp": list(self.chern_hsp) if self.chern_hsp is not None else None,
            "chern_plaquette": (
                list(self.chern_plaquette) if self.chern_plaquette is not None else None
            ),
            "winding": self.winding,
            "winding_residual": self.winding_residual,
            "z2": self.z2,
        }


def compute_invariants(model: BlochModel, plaquette_grid: int = 64,
                       winding_grid: int = 40) -> InvariantReport:
    """Run every invariant that applies to the given model.

    The model's declared ``invariant`` picks the route; every model with a
    mass generator also reports its high-symmetry-point linearizations.
    Each index with a second route is cross-checked against it: the winding
    always, the Z2 index against the sector Chern parity at lambda_r = 0.
    """
    lins = ()
    chern_local = chern_global = winding = winding_residual = z2 = None

    if model.invariant == "z2":
        z2 = z2_kane_mele(model)
        if model.params["lambda_r"] == 0.0:
            parity = z2_spin_chern_parity(model)
            if parity != z2:
                raise ValueError(f"Z2 cross-check failed: valley mass rule {z2}, "
                                 f"sector Chern parity {parity}")
    elif model.mass_generator is not None:
        lins = linearize_at_hsp(model, model.hsps)
    if model.invariant == "chern":
        chern_local = tuple(chern_from_hsp(model, model.band_spin(band), lins)
                            for band in range(model.band_count))
        if model.periodic:
            chern_global = chern_plaquette(model, tuple(range(model.band_count)),
                                           plaquette_grid)
    elif model.invariant == "winding":
        winding = winding_from_hsp(model, lins)
        w_num, winding_residual = winding_numerical(model, winding_grid)
        if w_num != winding:
            raise ValueError(
                f"winding cross-check failed: corner formula {winding}, "
                f"integral {w_num}"
            )
    return InvariantReport(
        model=model.name,
        params=dict(model.params),
        hsp=lins,
        chern_hsp=chern_local,
        chern_plaquette=chern_global,
        winding=winding,
        winding_residual=winding_residual,
        z2=z2,
    )
