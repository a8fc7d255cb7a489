"""Local high-symmetry-point indices and global topological invariants.

Two independent routes exist for every invariant: the sign-count over
high-symmetry points (local, exact) and a zone integral (global, gauge
free).  The lattice field-strength (plaquette) sum plays the global role
in 2D, the degree of d/|d| in 3D, and the decoupled-sector Chern parity /
inversion-parity products for the honeycomb model.  One signed preimage
count, `zone_degree`, reads the degree of d/|d| : T^D -> S^D of every
periodic model with a mass row, D = 2 or 3, with no eigensolve: the 3D
winding number and the sector Chern number behind that parity are both it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessError, NotHighSymmetryError
from .models import BlochModel, _check_momenta, evaluate, kane_mele, kane_mele_spin_sector

__all__ = [
    "HSPLinearization", "InvariantReport", "linearize_at_hsp", "chern_from_hsp", "chern_plaquette",
    "zone_degree", "winding_from_hsp", "winding_numerical", "z2_kane_mele",
    "z2_spin_chern_parity", "z2_fu_kane_parity", "rashba_gap_ramp", "compute_invariants",
]

MASS_FLOOR = 1e-9
PROJECTION_TOL = 1e-8
PLAQUETTE_GAP_FLOOR = 1e-6
PLAQUETTE_MAX_GRID = 512
# The count starts on mesh 8 and doubles, so a ceiling of 16 is the least that admits two
# meshes to agree; every counted mesh is 8 * 2^k, free of the flat cones of n = 2 (mod 4).
WINDING_MIN_GRID = 16
WINDING_MAX_GRID = 64  # one count on the 64^3 mesh peaks at 78 MB traced, 1.2 MB at 16^3
# The direction on S^3 whose signed preimages the 3D winding count sums: generic, and
# not +-e4, whose preimages are the zone corners that the corner formula already reads.
WINDING_TARGET = np.array([2.0, -4.0, 5.0, 6.0]) / 9.0  # unit: 4 + 16 + 25 + 36 = 81
# The direction on S^2 whose preimages the 2D sector count sums: generic, not +-e3 (the valleys).
SECTOR_TARGET = np.array([1.0, -2.0, 2.0]) / 3.0  # unit: 1 + 4 + 4 = 9

# Orientation of the plaquette field-strength sum and of the 2D and 3D preimage
# counts.  The signs are pinned once so that the global integrals and the
# high-symmetry-point sign formulas quote invariants in the same convention;
# the agreement at every other parameter value is then a real cross-check.
PLAQUETTE_ORIENTATION = -1.0
SECTOR_ORIENTATION = 1.0
DEGREE_ORIENTATION = -1.0


@dataclass(frozen=True)
class HSPLinearization:
    """Local expansion data H(K + p) ~ sum_d (V p)_d G_d + m G_D of a model with
    D + 1 generators, G_d (d < D) its velocity rows and G_D its mass row.

    ``velocities`` is the diagonal of the D x D velocity Jacobian V, and
    ``nu`` = sgn(det V) sgn(m): in 2D the rotation sense of the local
    oscillation, in 3D the quantity summed by the winding formula.
    """

    hsp: tuple
    velocities: tuple
    mass: float
    nu: int


def linearize_at_hsp(model: BlochModel, K):
    """Extract the velocities, mass and local index at high-symmetry points.

    ``K`` is one point (D,) or a stack (H, D); a stack returns a tuple of
    H linearizations, and the first failing point in stack order raises.
    The data are the model's own coefficients at K, in the d-vector layout of
    `BlochModel`: the mass is ``coeff(K)[D]`` and V is ``coeff_grad(K)[:D]``.
    Every other coefficient of H(K) must vanish (within PROJECTION_TOL), |m|
    reach MASS_FLOOR (a non-finite H(K) or V does not) and the smallest
    singular value of V reach 1e-12, which for a diagonal V is |v_d| >= 1e-12
    on every axis.  This is the one-row case of the stacked pass that
    `sweep_rows` runs over every row of a phase diagram (`_linearize_rows`).
    """
    if model.mass_generator is None:
        raise NotHighSymmetryError(f"model '{model.name}' does not declare a mass generator")
    K = _check_momenta(model, K)
    points = np.atleast_2d(K)
    mass, vel, nu, errors = _linearize_rows(model.coeff(points)[None],
                                            model.coeff_grad(points)[None], points)
    if errors[0] is not None:
        raise errors[0]
    lins = tuple(HSPLinearization(hsp=tuple(k), velocities=tuple(v), mass=m, nu=n) for k, v, m, n
                 in zip(points.tolist(), vel[0].tolist(), mass[0].tolist(), nu[0].tolist()))
    return lins if K.ndim == 2 else lins[0]


def _linearize_rows(coeffs, grads, points):
    """`linearize_at_hsp` at the points (H, D) of R models with D + 1 generators, from their
    coefficients (R, H, D + 1) and gradients (R, H, D + 1, D) there: mass (R, H), velocities
    (R, H, D), nu (R, H) and per row what its first failing point raises, or None."""
    dim = points.shape[-1]
    jac, mass = grads[..., :dim, :], coeffs[..., dim]
    finite = np.isfinite(coeffs).all(axis=-1) & np.isfinite(jac).all(axis=(-2, -1))
    if not finite.all():  # a non-finite H(K) or V has no mass: NaN, which the mass floor refuses
        mass, jac = np.where(finite, mass, np.nan), np.where(finite[..., None, None], jac, 0.0)
    off_mass = np.abs(coeffs[..., :dim]).max(-1, initial=0.0)
    # sqrt of the least eigenvalue of V^T V: min |v_d| bit for bit when V is diagonal
    floors = np.sqrt(np.linalg.eigvalsh(jac.swapaxes(-1, -2) @ jac)[..., 0].clip(0.0))
    nu = np.where((np.linalg.det(jac) > 0) == (mass > 0), 1, -1)
    ok = (off_mass <= PROJECTION_TOL) & (np.abs(mass) >= MASS_FLOOR) & (floors >= 1e-12)
    errors = [None] * len(coeffs)
    for r, h in zip(*np.nonzero(~ok)) if not ok.all() else ():  # row-major: first failure first
        at, off, m = f"K={tuple(points[h].tolist())}", off_mass[r, h], abs(mass[r, h])
        errors[r] = errors[r] or (
            NotHighSymmetryError(f"H at {at} is not proportional to the mass generator "
                                 f"(max off-mass coefficient {off:.3e})")
            if finite[r, h] and off > PROJECTION_TOL else
            GaplessError(f"gapless high-symmetry point {at}: |m| = {m:.3e}") if not m >= MASS_FLOOR
            else NotHighSymmetryError(f"vanishing velocity at {at}: smallest singular value of "
                                      f"V {floors[r, h]:.3e}"))
    return mass, np.diagonal(jac, axis1=-2, axis2=-1), nu, errors


def chern_from_hsp(model: BlochModel, j, lins=None):
    """Band Chern number from the local indices at ``model.hsps``: -j * sum_K nu_K.

    ``j`` is the band's spin index (-J .. J counted from the lowest band).
    On a two-band model (j = -1/2 for the lower band) this is the Dirac-point
    index (1/2) sum_K sgn(det V_K) sgn(m_K) (Sticlet et al., PRB 85, 165456
    (2012)); the spin-J lattices sum their four zone corners.  Any periodic
    2D model is accepted; integral values are returned as int.  ``lins``
    reuses a linearization of ``model.hsps`` already at hand.
    """
    if model.momentum_dim != 2 or not model.periodic:
        raise ValueError(f"the local Chern formula needs a periodic 2D model, "
                         f"got '{model.name}'")
    return _hsp_index(j, sum(lin.nu for lin in lins or linearize_at_hsp(model, model.hsps)))


def _hsp_index(j, total):
    """-j * total, int when integral: the index of band spin j from its local sum, at j = -1/2
    the two-band Chern number, the 3D winding number and the Kane-Mele valley index."""
    value = -j * total
    return int(round(value)) if abs(value - round(value)) < 1e-12 else float(value)


def sweep_rows(rows) -> list:
    """Phase-diagram entries of the models ``rows`` (one factory's: one layout and one set of
    hsps, with finite coefficients there) from one stacked pass: per row ``[index] + nu`` as
    `chern_from_hsp` (lowest band) or `winding_from_hsp` read them off `linearize_at_hsp`,
    ``[z2]`` as `z2_kane_mele` gives it, or what that one-model route raises for the row."""
    z2 = rows[0].invariant == "z2"
    local = [_km_up_sector(model) for model in rows] if z2 else rows
    closed = _valley_gaps(rows, local[0].hsps) if z2 else [None] * len(rows)
    j = rows[0].band_spin(0) if rows[0].invariant == "chern" else -0.5
    k = np.array(local[0].hsps)
    *_, nus, errors = _linearize_rows(np.array([model.coeff(k) for model in local]),
                                      np.array([model.coeff_grad(k) for model in local]), k)
    return [gap or error or ([_hsp_index(j, sum(nu)) % 2] if z2 else [_hsp_index(j, sum(nu))] + nu)
            for gap, error, nu in zip(closed, errors, nus.tolist())]


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


def _refine(zone, integral, grid: int, meshes: dict, ceiling=PLAQUETTE_MAX_GRID, dim=2) -> int:
    """Integer value of ``integral`` over zone meshes from ``grid``, doubling (up to ``ceiling``)
    until two successive sizes agree on the rounded integer, each within 1e-6 of it; a mesh
    n <= 2 holds only k in {0, pi}^dim, so its value is never the one agreed with.  ``zone(n)``
    returns a tuple of arrays whose first ``dim`` axes span the n^dim mesh, kept in ``meshes``.
    A sum that is not finite is a ValueError naming its grid: no finer grid is tried."""
    previous = None
    n = grid
    while n <= ceiling:
        if n not in meshes:
            # A value with no agreeing predecessor cannot stop at n: build 2n and
            # take n as its [::2, ..., ::2] subsample, bit-equal to a direct build
            # since 2 * (2 pi i) / (2 n) == 2 pi i / n.
            step = 2 if previous is None and 2 * n <= ceiling else 1
            meshes[step * n] = zone(step * n)
            meshes[n] = tuple(x[(slice(None, None, step),) * dim] for x in meshes[step * n])
        raw = integral(*meshes[n])
        if not math.isfinite(raw):
            raise ValueError(f"zone sum is not finite on grid {n}: {raw!r}")
        rounded = int(round(raw))
        good = abs(raw - rounded) < 1e-6
        if good and previous == rounded:
            return rounded
        previous = rounded if good and n > 2 else None
        n *= 2
    raise ValueError(f"zone sum did not stabilize on an integer up to grid {ceiling} "
                     f"(last {raw!r})")


def chern_plaquette(model: BlochModel, band, grid: int = 64):
    """Gauge-invariant plaquette Chern number of one band, or a tuple of them.

    ``band`` is one index (returns an int) or a tuple of indices (returns a
    tuple in the same order).  Each band doubles its grid (up to 512 per
    side) until two successive sizes agree on the rounded integer, each
    within 1e-6 of an integer, and is refused where it touches a neighbour
    on a grid; bands go in tuple order, each coarse grid before the finer.
    Every zone mesh is diagonalized at most once per call, for all bands,
    and a band that cannot yet stop at grid n solves 2n and reads n off it.
    A start ``grid`` above 256 has no finer mesh to agree with: refused before any solve.
    """
    if model.momentum_dim != 2:
        raise ValueError("plaquette Chern numbers are defined for 2D models")
    bands = band if isinstance(band, tuple) else (band,)
    for b in bands:
        if not 0 <= b < model.band_count:
            raise ValueError(f"band {b} outside 0..{model.band_count - 1}")
    check_grid(grid, PLAQUETTE_MAX_GRID // 2)
    solves = {}
    values = tuple(_refine(functools.partial(_zone_eigh, model),
                           functools.partial(_fhs_sum, model, b), grid, solves) for b in bands)
    return values if isinstance(band, tuple) else values[0]


def _cross(a, b):
    """a x b over the first D components of (D + 1)-vectors: a scalar in 2D, a vector in 3D."""
    if a.shape[-1] == 3:
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return np.cross(a[..., :3], b[..., :3])


def _preimage_count(d) -> float:
    """Degree of d/|d| : T^D -> S^D on one zone mesh d (n^D, D + 1), D = 2 or 3: the signed
    preimage count of SECTOR_TARGET (D = 2) or WINDING_TARGET (D = 3).  Each mesh cell splits
    into D! Kuhn simplices, one per axis permutation, with d linear on each.  A Householder
    reflection (det -1) takes the target to e_(D+1), which a reflected cone [r_0 .. r_D] holds
    when its last-row cofactors (the cyclic 2D crosses, or the triple products of the first
    three components) share the sign of its determinant; the cone then adds the permutation's
    sign times sgn det [d_0 .. d_D], minus that sign, and a flat cone adds 0.  `zone_degree`
    scales d so that |d| is the spectrum gap, which `_refuse_gap` refuses; an inf |d| is a
    ValueError.  The cones are read off d scaled by a power of two to max |d| < 1, which
    leaves every sign as it is and keeps the products of D + 1 components from overflowing."""
    dim = d.ndim - 1
    target, orientation = ((SECTOR_TARGET, SECTOR_ORIENTATION) if dim == 2
                           else (WINDING_TARGET, DEGREE_ORIENTATION))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d, axis=-1)
    _refuse_gap(norms, "spectrum gap closes")
    if not np.isfinite(norms).all():
        at = np.unravel_index(int(np.argmin(np.isfinite(norms))), norms.shape)
        raise ValueError(f"coefficient norm |d| overflows near k = ({_mesh_k(at, len(norms))})")
    d = np.ldexp(d, -int(np.frexp(np.abs(d).max())[1]))
    v = target - np.eye(dim + 1)[dim]
    r0 = d @ (np.eye(dim + 1) - 2 * np.outer(v, v) / (v @ v))
    last = np.roll(r0, -1, axis=tuple(range(dim)))
    closing = _cross(last, r0)
    total = 0.0
    for perm in itertools.permutations(range(dim)):
        # vertices k, k + e_a, k + e_a + e_b, .., k + (1, .., 1) for perm = (a, b, ..)
        walk = [r0]
        for axis in perm[:-1]:
            walk.append(np.roll(walk[-1], -1, axis=axis))
        walk.append(last)
        if dim == 2:
            cof = [_cross(walk[1], last), closing, _cross(r0, walk[1])]
        else:
            r12 = _cross(walk[1], walk[2])
            cof = [s * np.einsum("...i,...i->...", r[..., :3], x) for s, r, x in
                   ((-1, last, r12), (1, walk[2], closing), (-1, walk[1], closing), (1, r0, r12))]
        sign = np.sign(sum(r[..., dim] * c for r, c in zip(walk, cof)))
        inside = (np.sign(cof) == sign).all(axis=0)
        total -= np.linalg.det(np.eye(dim)[list(perm)]) * sign[inside].sum()
    return orientation * float(total)


def zone_degree(model: BlochModel, grid: int = 32, ceiling=None) -> int:
    """Degree of d/|d| : T^D -> S^D, D = 2 or 3, of a periodic model with a mass row: the
    signed preimage count `_preimage_count` (Berg & Luscher, Nucl. Phys. B 190, 412 (1981)).
    In 2D band b carries -2 ``band_spin(b)`` deg, in 3D deg is the winding number.  The mesh
    starts at ``grid``, read off mesh 2 ``grid`` <= ``ceiling``, and doubles by the two-grid rule
    of `chern_plaquette` up to ``ceiling`` (default: 2^18 points at most).  A gap s |d(k)|, s the
    mass generator's least level spacing, below PLAQUETTE_GAP_FLOOR or NaN is a GaplessError."""
    dim = model.momentum_dim
    if not (model.periodic and model.mass_generator is not None and dim in (2, 3)):
        raise ValueError(f"the zone degree needs a periodic 2D or 3D model with a mass row, "
                         f"got '{model.name}'")
    top = (PLAQUETTE_MAX_GRID, WINDING_MAX_GRID)[dim - 2]
    ceiling = top if ceiling is None else ceiling
    check_grid(ceiling, top, name="ceiling")
    check_grid(grid, ceiling // 2)
    spacing = np.diff(np.linalg.eigvalsh(model.generators[model.mass_generator])).min()
    return _refine(lambda n: (spacing * model.coeff(_zone_mesh(n, dim)),), _preimage_count,
                   grid, {}, ceiling, dim)


def check_grid(grid, upper, name="grid", lower=1):
    """Refuse a grid size that is not an integer in lower..upper (ValueError naming ``name``)."""
    integer = isinstance(grid, (int, np.integer)) and not isinstance(grid, bool)
    if not integer or grid < lower or grid > upper:
        raise ValueError(f"{name} must be an integer in {lower}..{upper}, got {grid!r}")


def winding_from_hsp(model: BlochModel, lins=None) -> int:
    """3D winding number -j sum_K nu_K at j = -1/2: half the (even) sum of nu = sgn(det V)
    sgn(m) over the eight corner points (``lins`` as in `chern_from_hsp`)."""
    if model.momentum_dim != 3 or len(model.hsps) != 8:
        raise ValueError("the eight-point winding formula needs a 3D model")
    return _hsp_index(-0.5, sum(lin.nu for lin in lins or linearize_at_hsp(model, model.hsps)))


def winding_numerical(model: BlochModel, grid: int = 40) -> int:
    """3D winding number, the `zone_degree` of d/|d| : T^3 -> S^3.  The mesh starts at 8
    and doubles up to ``grid`` (WINDING_MIN_GRID..WINDING_MAX_GRID) until two successive
    meshes agree on the integer count, which is returned."""
    if model.momentum_dim != 3 or model.mass_generator is None:
        raise ValueError("the winding count needs a 3D four-generator chiral model")
    check_grid(grid, WINDING_MAX_GRID, lower=WINDING_MIN_GRID)
    return zone_degree(model, 8, grid)


# ----------------------------------------------------------------------
# honeycomb model invariants
# ----------------------------------------------------------------------

def _km_params(model: BlochModel) -> dict:
    if model.invariant != "z2":
        raise ValueError(f"expected the honeycomb model, got '{model.name}'")
    return model.params


def _km_up_sector(model: BlochModel) -> BlochModel:
    """The honeycomb model's Rashba-free spin-up sector (`kane_mele_spin_sector`)."""
    params = _km_params(model)
    return kane_mele_spin_sector(params["t"], params["lambda_so"], params["lambda_v"], +1)


def z2_kane_mele(model: BlochModel) -> int:
    """Z2 index: the spin-up sector's local Chern number at its valleys,
    ``chern_from_hsp(sector, -1/2)``, mod 2.

    The sector drops the Rashba block entirely, which is exactly the
    Rashba-free reduction used to classify the phase; its validity is guarded
    by the full model's valley gaps, checked first, not assumed (the one-row
    case of `_valley_gaps`, which `sweep_rows` runs over a whole sweep).  t = 0
    is refused as a vanishing velocity at the valley K.
    """
    sector = _km_up_sector(model)
    closed = _valley_gaps([model], sector.hsps)[0]
    if closed is not None:
        raise closed
    return chern_from_hsp(sector, -0.5) % 2


def _valley_gaps(rows, valleys) -> list:
    """Per honeycomb model in ``rows``, the GaplessError of the first of ``valleys`` where the
    full model's gap w_2 - w_1 falls below MASS_FLOOR, or None: one eigvalsh for all R x 2."""
    valleys = np.array(valleys)
    coeffs = np.array([model.coeff(valleys) for model in rows]).astype(complex)
    w = np.linalg.eigvalsh(np.einsum("...g,gij->...ij", coeffs, rows[0].generators))
    gaps, out = w[..., 2] - w[..., 1], [None] * len(rows)
    for r, v in zip(*np.nonzero(gaps < MASS_FLOOR)):
        out[r] = out[r] or GaplessError(f"honeycomb gap closed at valley k = "
                                        f"{tuple(valleys[v].tolist())}: gap {gaps[r, v]:.3e}")
    return out


def z2_spin_chern_parity(model: BlochModel) -> int:
    """Z2 as the parity of one decoupled sector's Chern number, its `zone_degree` (lambda_r = 0)."""
    sector = _km_up_sector(model)
    if model.params["lambda_r"] != 0.0:
        raise ValueError("the decoupled-sector parity oracle needs lambda_r = 0")
    return zone_degree(sector) % 2


def z2_fu_kane_parity(model: BlochModel) -> int:
    """Z2 from parity products at the four time-reversal-invariant momenta.

    Defined only on the inversion-symmetric slice lambda_v = 0 (and
    lambda_r = 0), where sublattice exchange commutes with H at those
    momenta; each occupied Kramers doublet contributes one parity sign.
    """
    params = _km_params(model)
    if params["lambda_v"] != 0.0 or params["lambda_r"] != 0.0:
        raise ValueError("the parity oracle needs the inversion-symmetric slice "
                         "lambda_v = 0, lambda_r = 0")
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
            raise ValueError(f"occupied doublet at {tuple(trim.tolist())} is not a parity "
                             "eigenspace")
        product *= int(np.sign(xi))
    return (1 - product) // 2


# The Rashba ramp's lambda_r values and zone mesh side: 33 is a multiple of 3, so the
# mesh k = 2 pi i / 33 holds both valleys K and K', where the gap is smallest.
RAMP_STEPS = 6
RAMP_GRID = 33


@functools.cache
def _ramp_mesh():
    """Zone mesh and ||R(k)||_F on it, R = dH/dlambda_r: built once, read-only."""
    mesh = _zone_mesh(RAMP_GRID)
    rashba = np.linalg.norm(evaluate(kane_mele(0.0, 0.0, 1.0, 0.0), mesh), axis=(-2, -1))
    mesh.flags.writeable = rashba.flags.writeable = False
    return mesh, rashba


def rashba_gap_ramp(t: float, lambda_so: float, lambda_v: float, lambda_r_max: float):
    """Track the bulk gap along a Rashba ramp 0 -> lambda_r_max.

    Returns RAMP_STEPS (lambda_r, min bulk gap) pairs, the gap minimized over the
    RAMP_GRID^2 zone mesh, which holds both valley momenta.  At lambda_r = 0 the
    spin sectors decouple with levels +-|d_s(k)|, and H(lambda_r) - H(0) =
    lambda_r R(k); by Weyl's inequality the gap at k lies within
    2 |lambda_r| ||R(k)||_F of 2 min_s |d_s(k)|, so each step solves only the
    points whose lowest possible gap reaches the smallest highest possible
    gap, which hold the same minimum, bit for bit.  A non-finite t,
    lambda_so, lambda_v or lambda_r_max is a ValueError naming it.
    """
    for name, value in zip(("t", "lambda_so", "lambda_v", "lambda_r_max"),
                           (t, lambda_so, lambda_v, lambda_r_max)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    mesh, rashba = _ramp_mesh()
    levels = np.linalg.norm([kane_mele_spin_sector(t, lambda_so, lambda_v, s).coeff(mesh)
                             for s in (1, -1)], axis=-1)
    gap0, scale = 2 * levels.min(axis=0), 1.0 + levels.max()
    out = []
    for lam_r in np.linspace(0.0, lambda_r_max, RAMP_STEPS):
        model = kane_mele(t, lambda_so, float(lam_r), lambda_v)
        delta = abs(lam_r) * rashba
        # 1e-9 of the matrix scale covers the eigensolver's rounding
        spread = 2 * delta + 1e-9 * (scale + delta)
        # skip only the points proven above the minimum (a NaN is not)
        w = np.linalg.eigvalsh(evaluate(model, mesh[~(gap0 - spread > (gap0 + spread).min())]))
        out.append((float(lam_r), float((w[..., 2] - w[..., 1]).min())))
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
    z2: int | None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "hsp": [{"k": list(lin.hsp), "v": list(lin.velocities), "m": lin.mass, "nu": lin.nu}
                    for lin in self.hsp],
            "chern_hsp": list(self.chern_hsp) if self.chern_hsp is not None else None,
            "chern_plaquette": (list(self.chern_plaquette) if self.chern_plaquette is not None
                                else None),
            "winding": self.winding,
            # the count is exact; the key stays for the readers of the JSON
            "winding_residual": 0.0 if self.winding is not None else None,
            "z2": self.z2,
        }


def compute_invariants(model: BlochModel, plaquette_grid: int = 64,
                       winding_grid: int = 40) -> InvariantReport:
    """Run every invariant that applies to the given model.

    The model's declared ``invariant`` picks the route; every model with a
    mass generator also reports its high-symmetry-point linearizations.
    Each index with a second route is cross-checked against it: the Chern
    numbers against the plaquette sum, the winding against the preimage
    count, the Z2 index against the sector Chern parity at lambda_r = 0.
    A disagreement is a ValueError.
    """
    lins = ()
    chern_local = chern_global = winding = z2 = None

    if model.invariant == "z2":
        z2 = z2_kane_mele(model)
        if model.params["lambda_r"] == 0.0:
            parity = z2_spin_chern_parity(model)
            if parity != z2:
                raise ValueError(f"Z2 cross-check failed: valley index {z2}, "
                                 f"sector Chern parity {parity}")
    elif model.mass_generator is not None:
        lins = linearize_at_hsp(model, model.hsps)
    if model.invariant == "chern":
        chern_local = tuple(chern_from_hsp(model, model.band_spin(band), lins)
                            for band in range(model.band_count))
        chern_global = chern_plaquette(model, tuple(range(model.band_count)), plaquette_grid)
        if chern_global != chern_local:
            raise ValueError(f"Chern cross-check failed: corner formula {chern_local}, "
                             f"plaquette sum {chern_global}")
    elif model.invariant == "winding":
        winding = winding_from_hsp(model, lins)
        w_num = winding_numerical(model, winding_grid)
        if w_num != winding:
            raise ValueError(f"winding cross-check failed: corner formula {winding}, "
                             f"preimage count {w_num}")
    return InvariantReport(model=model.name, params=dict(model.params), hsp=lins,
                           chern_hsp=chern_local, chern_plaquette=chern_global, winding=winding,
                           z2=z2)
