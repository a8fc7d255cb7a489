"""Center-of-mass oscillation dynamics.

The exact route evaluates the projector double sum

    r_o(t) = i sum_{m != n} e^{i (E_m - E_n) t} <Q_m dH/dp Q_n> / (E_n - E_m)

for the expectation in a fixed initial spinor, Q_m = |m><m| over eigenvectors.
Ascending energies at most ``DEGENERACY_TOL`` apart form one degenerate chain,
whose inner pairs do not oscillate but add to the drift.  Closed forms for
the spin-1 and the three-band chiral families give an independent second
route; both are checked against each other in the test suite.  Single momenta and
Gaussian packets share one momentum-batched path, streamed in chunks so
memory does not grow with the packet grid: stacked eigensolves and einsum
pair amplitudes per chunk of momenta, then phase-factored synthesis per chunk
of pairs, with phase factors per distinct frequency and one chunk's table alive.

Conventions: the constant r(0) offset is dropped, so trajectories carry
only the oscillatory part (plus ``t * <velocity>`` when drift is enabled).
Time grids are uniform, sampled at >= 4 points per fastest oscillation
period and spanning >= 4 periods of the slowest one present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GaplessError, GridSizeError
from .models import BlochModel, evaluate, gradient, spin_j_continuum
from .spectral import hermitian_eig

__all__ = [
    "Trajectory",
    "ZBClosedForm",
    "ZBSpectrum",
    "WavePacket",
    "SelectionRuleReport",
    "zb_time_grid",
    "pcm_trajectory_exact",
    "pcm_trajectories_exact",
    "closed_form_spin1",
    "closed_form_chiral",
    "wavepacket_trajectory",
    "rotation_index",
    "zb_spectrum",
    "selection_rule_check",
]

MIN_SAMPLES_PER_PERIOD = 4
MIN_SPAN_PERIODS = 4
SPINOR_NORM_TOL = 1e-10
DEGENERACY_TOL = 1e-8  # neighbouring energies at most this far apart share a degenerate chain
_MAX_TIME_SAMPLES = 4 * 10**6  # default time grid; `zb zb` peaks near 350 bytes per sample
_CHUNK = 4096  # momenta per stacked eigensolve, level pairs per synthesis matmul
_SPURIOUS_TOL = 1e-10  # selection rule: largest relative power allowed away from the |m| line
SELECTION_TRIALS = 100  # selection rule: random spinors per check
SAMPLES_PER_PERIOD = 64  # default time grid: samples per period of the fastest oscillation
SPAN_PERIODS = 8  # default time grid: periods of the slowest oscillation spanned


@dataclass
class Trajectory:
    """Uniformly sampled center-of-mass track.

    ``pcm[i]`` is the 3-vector (<x>, <y>, <z>) at ``times[i]``.  Metadata
    holds only what the analysis reads: ``include_drift`` (whether
    :func:`zb_spectrum` and :func:`rotation_index` fit out a drift line) and,
    for a packet, its momentum ``grid`` (``half_width`` and ``points``).
    """

    times: np.ndarray
    pcm: np.ndarray
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ZBClosedForm:
    """Per-component amplitude/phase of one oscillating pair.

    Components oscillate as amplitude * cos(omega t + phase); ``omega`` is
    the (positive) energy gap of the generating level pair.
    """

    amplitude: np.ndarray
    phase: np.ndarray
    omega: float


@dataclass(frozen=True)
class ZBSpectrum:
    """Fourier content of a trajectory.

    ``power[b, c]`` is the squared transform magnitude of component c at
    ``omegas[b]``, normalized so the global maximum is 1.  ``peaks`` holds
    (frequency, relative power) for every local maximum above 1e-10 of the
    global one, frequency refined by parabolic interpolation, strongest
    first.  ``resolution`` is the transform bin width 2*pi/span.
    """

    omegas: np.ndarray
    power: np.ndarray
    peaks: tuple
    resolution: float


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet of width d centered at k0 with a fixed internal spinor.

    Momentum weights are |g(k)|^2 ~ exp(-d^2 |k - k0|^2).  ``spinor`` is
    either an array of mass-basis coefficients shared by every k or an
    integer band index meaning "the band eigenstate at each k".
    """

    width: float
    center: np.ndarray
    spinor: object

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"packet width must be positive, got {self.width}")


def zb_time_grid(omega_fast: float, omega_slow: float | None = None,
                 samples_per_period: int = SAMPLES_PER_PERIOD,
                 periods: int = SPAN_PERIODS) -> np.ndarray:
    """Uniform grid resolving omega_fast and spanning ``periods`` of omega_slow;
    refused with GridSizeError, unallocated, above ``_MAX_TIME_SAMPLES`` samples."""
    omega_slow = omega_fast if omega_slow is None else omega_slow
    for name, value in (("omega_fast", omega_fast), ("omega_slow", omega_slow)):
        if not (np.isfinite(value) and value != 0):
            raise ValueError(f"{name} must be finite and nonzero, got {value}")
    omega_fast, omega_slow = abs(float(omega_fast)), abs(float(omega_slow))
    dt = 2 * np.pi / (omega_fast * samples_per_period)
    span = periods * 2 * np.pi / omega_slow
    if span / dt > _MAX_TIME_SAMPLES:
        raise GridSizeError(
            f"{samples_per_period} x {periods} gives a time grid of {span / dt:.3g} samples "
            f"(omega_fast / omega_slow = {omega_fast / omega_slow:.3g}), "
            f"more than {_MAX_TIME_SAMPLES}")
    return np.arange(int(round(span / dt))) * dt


def _check_uniform(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two samples")
    steps = times[1:] - times[:-1]
    if steps[0] <= 0 or np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
        raise ValueError("non-uniform time grid")
    return times


def _validate_sampling(times, omegas_present):
    """Enforce >= 4 samples per fastest period and >= 4 periods of the slowest."""
    times = _check_uniform(times)
    omegas = np.abs(np.asarray(omegas_present, dtype=float))
    omegas = omegas[omegas > 0]
    if omegas.size == 0:
        return times
    dt, span = times[1] - times[0], times[-1] - times[0]
    t_fast, t_slow = 2 * np.pi / omegas.max(), 2 * np.pi / omegas.min()
    if dt > t_fast / MIN_SAMPLES_PER_PERIOD * (1 + 1e-9):
        raise ValueError(
            f"time step {dt:.3g} undersamples the fastest period {t_fast:.3g} "
            f"(need >= {MIN_SAMPLES_PER_PERIOD} samples per period)")
    if span < MIN_SPAN_PERIODS * t_slow * (1 - 1e-9) - dt:
        raise ValueError(
            f"time span {span:.3g} covers fewer than {MIN_SPAN_PERIODS} periods "
            f"of the slowest oscillation ({t_slow:.3g})")
    return times


def _pair_data(hams, grad_mats, psi):
    """Eigenvector-pair oscillation amplitudes and drift at K momenta.

    ``hams`` (K, n, n) go through one stacked :func:`hermitian_eig`; ``psi`` is a
    state (n,) or (K, n), or a band index (one-hot), or at K = 1 a stack of states
    (S, n) or band indices (S,) whose S rows share the eigensolve and replace K.
    With y_g = v_g (v_g^dag psi), returns (omegas (K, P), amps (K, P, 3), drift (K, 3))
    over eigenvector pairs g < h: pair p oscillates as (2 / omega_p) Im(amps_p
    e^{i omega_p t}), omega_p = E_g - E_h at chain-mean energies, amps_p =
    <y_g| dH |y_h>, zero inside a chain.  The drift sums each chain's whole block:
    <psi| P_G dH P_G |psi> over chains G.  Non-finite energies are refused.
    """
    w, v = hermitian_eig(hams)
    if not np.isfinite(w).all():  # NaN gaps would all read as degenerate: one chain
        raise ValueError("eigenvalues are not finite: no level pairs")
    n, psi = hams.shape[-1], np.asarray(psi)
    index = psi.dtype.kind in "iu"  # band indices
    rows = np.broadcast_shapes(hams.shape[:1], psi.shape[:psi.ndim - 1 + index])
    w, v, grad_mats = (np.broadcast_to(x, rows + x.shape[1:]) for x in (w, v, grad_mats))
    y = v * (np.eye(n)[psi] if index else
             np.einsum("kig,ki->kg", v.conj(), np.broadcast_to(psi, rows + (n,))))[..., None, :]
    dh = np.zeros(rows + (3, n, n), dtype=complex)
    dh[:, : grad_mats.shape[1]] = grad_mats
    mat = np.einsum("kig,kdij,kjh->kghd", y.conj(), dh, y)
    chain = np.cumsum(np.diff(w, prepend=w[:, :1]) > DEGENERACY_TOL, axis=-1)
    same = chain[:, :, None] == chain[:, None, :]
    level = np.where(same, w[:, None, :], 0.0).sum(axis=-1) / same.sum(axis=-1)
    g, h = np.triu_indices(n, k=1)
    amps = np.where(same[:, g, h, None], 0.0, mat[:, g, h])
    return level[:, g] - level[:, h], amps, np.einsum("kghd,kgh->kd", mat, same).real


def _present_mask(amps):
    mags = np.max(np.abs(amps), axis=-1)
    scale = np.max(mags, axis=-1, keepdims=True, initial=0.0)
    return mags > 1e-12 * (1.0 + scale)


def _oscillation(times, omegas, amps):
    """sum_p (2 / omega_p) Im(amps_p e^{i omega_p t}) as a (..., T, 3) array for amps (..., P, 3).

    On the uniform grid, with B = ceil(sqrt(T)), e^{i w t_{bB+j}} = e^{i w t_{bB}}
    e^{i w j dt}: a (B, P) base block times one phase row per block, one complex
    matmul per ``_CHUNK`` pairs, added in order (P <= _CHUNK is a single product).
    Factors are taken once per distinct frequency of a chunk and gathered per pair, about
    2 sqrt(T) transcendentals each; only one chunk's weighted table is alive at a time,
    so memory is O(sqrt(T) _CHUNK) for any P.
    Leading (spinor) indices share the phase factors, each in its own matmul.
    """
    n_t = len(times)
    block = int(np.ceil(np.sqrt(n_t)))
    n_blocks = -(-n_t // block)
    dt = (times[-1] - times[0]) / (n_t - 1)
    lead = amps.shape[:-2]
    out = np.zeros(lead + (block, n_blocks * 3), dtype=complex)
    for lo in range(0, omegas.size, _CHUNK):
        w, a = omegas[lo:lo + _CHUNK], amps[..., lo:lo + _CHUNK, :]
        distinct, pick = np.unique(w, return_inverse=True)
        weighted = (np.exp(1j * np.outer(distinct, times[::block]))[pick, :, None]
                    * ((2.0 / w)[:, None] * a)[..., None, :]).reshape(lead + (len(w), -1))
        part = np.exp(1j * np.outer(np.arange(block) * dt, distinct))[:, pick] @ weighted
        del weighted
        out = out + part if lo else part
    pcm = out.imag.reshape(lead + (block, n_blocks, 3)).swapaxes(-3, -2).reshape(lead + (-1, 3))
    return pcm[..., :n_t, :]


def pcm_trajectories_exact(model: BlochModel, k, spinors, times=None,
                           include_drift: bool = False, *,
                           samples_per_period: int = SAMPLES_PER_PERIOD,
                           periods: int = SPAN_PERIODS) -> tuple:
    """Oscillatory center-of-mass trajectories from the eigenvector-pair double sum,
    one per spinor of a stack (S, n) of mass-eigenbasis coefficients at momentum ``k``
    (or of S band indices: energy eigenstates, which do not oscillate).

    With ``include_drift`` the band-diagonal velocity term ``t * <dH/dp>_diag``
    is added.  ``times=None`` builds the default grid from the oscillation
    frequencies actually present.  One eigensolve serves the stack, and spinors
    with the same pairs present share the time grid and phase factors.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if len(spinors) == 0:
        return ()
    sums = _momentum_sum(model, k[None], np.ones(1), spinors, times, include_drift,
                         samples_per_period, periods)
    return tuple(Trajectory(times=t, pcm=pcm, metadata={"include_drift": include_drift})
                 for t, pcm in sums)


def pcm_trajectory_exact(model: BlochModel, k, spinor, times=None,
                         include_drift: bool = False, **grid) -> Trajectory:
    """:func:`pcm_trajectories_exact` for one spinor, or one band index; ``grid`` holds its
    keyword-only time-grid options."""
    return pcm_trajectories_exact(model, k, [spinor], times, include_drift, **grid)[0]


def _momentum_sum(model, ks, weights, spinors, times, include_drift, spp, periods):
    """Weighted pair-sum trajectories over momenta ``ks``, one (times, pcm) per
    spinor; several spinors need a single momentum, so pair rows split as (S, K)."""
    index = [isinstance(s, (int, np.integer)) for s in spinors]
    if index.count(index[0]) != len(index):
        i = index.index(not index[0])
        kinds = ("a spinor", "a band index")
        raise ValueError(f"spinor stack mixes band indices and spinors: entry 0 is "
                         f"{kinds[index[0]]} but entry {i} is {kinds[index[i]]}")
    if not index[0]:
        basis = model.mass_eigenbasis()
        spinors = [basis @ _unit_spinor(s, model.band_count, model.name) for s in spinors]
    psi = np.stack(spinors)
    parts = [_pair_data(evaluate(model, c), gradient(model, c), psi)
             for c in np.split(ks, range(_CHUNK, len(ks), _CHUNK))]
    omegas, amps, drifts = (np.concatenate(x).reshape((len(psi), -1) + x[0].shape[1:])
                            for x in zip(*parts))
    del parts
    mask = _present_mask(amps)
    # only each spinor's weighted present pairs are kept: the full table is released
    amps = {s: (weights[:, None, None] * a)[m] for s, (a, m) in enumerate(zip(amps, mask))}
    groups, out = {}, {}
    for s in range(len(psi)):
        groups.setdefault(mask[s].tobytes(), []).append(s)
    for members in groups.values():
        present = omegas[members[0]][mask[members[0]]]
        if times is None:
            fast, slow = (abs(present).max(), abs(present).min()) if present.size else (1.0, None)
        grid = _validate_sampling(zb_time_grid(fast, slow, spp, periods) if times is None
                                  else times, present)
        stack = np.stack([amps.pop(s) for s in members])
        for s, pcm in zip(members, _oscillation(grid, present, stack)):
            if include_drift:
                pcm = pcm + np.outer(grid, weights @ drifts[s])
            out[s] = (grid, pcm)
    return [out[s] for s in range(len(psi))]


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def _polar(w):
    r = abs(w)
    return r, (float(np.angle(w)) if r > 0 else 0.0)


def _closed_form_input(m, spinor):
    if abs(m) < 1e-12:
        raise GaplessError("mass m = 0: the gap is closed and the oscillation amplitude diverges")
    return _unit_spinor(spinor, 3), (1.0 if m > 0 else -1.0)


def _closed_form(comps, omega, mag, times):
    """Trajectory with components Re(C_c e^{i omega t}) for the complex amplitudes
    ``comps``, plus their (amplitude, phase, omega) summary.  ``times=None`` builds
    the default grid; omega counts as present (for the sampling check) when ``mag`` > 0."""
    times = _validate_sampling(zb_time_grid(omega) if times is None else times,
                               [omega] if mag > 0 else [])
    pcm = np.zeros((len(times), 3))
    for c, amp in enumerate(comps):
        if amp != 0:
            pcm[:, c] = np.real(amp * np.exp(1j * omega * times))
    form = ZBClosedForm(amplitude=np.array([abs(c) for c in comps]),
                        phase=np.array([_polar(c)[1] for c in comps]), omega=omega)
    return Trajectory(times=times, pcm=pcm), form


def closed_form_spin1(v_x: float, v_y: float, m: float, spinor, times=None):
    """Closed-form in-plane trajectory of the spin-1 model at its band-inversion point.

    ``spinor`` = (a, b, c) in the cartesian-Jz eigenbasis.  With
    R = sqrt2 Re[(a - c) b*], I = sqrt2 Im[(a + c) b*] and theta = atan2(I, R):

        <x> =            (v_x/|m|) sqrt(R^2+I^2) sin(|m| t + sgn(m) theta)
        <y> = -sgn(m) *  (v_y/|m|) sqrt(R^2+I^2) cos(|m| t + sgn(m) theta)

    so the sense of rotation flips with the sign of v_x v_y m.  Returns the
    trajectory plus the (amplitude, phase, omega) summary.
    """
    (a, b, c), sgn = _closed_form_input(m, spinor)
    big_r = np.sqrt(2.0) * ((a - c) * np.conj(b)).real
    big_i = np.sqrt(2.0) * ((a + c) * np.conj(b)).imag
    mag = float(np.hypot(big_r, big_i))
    theta = float(np.arctan2(big_i, big_r)) if mag > 0 else 0.0
    omega = abs(m)

    cx = (v_x / omega) * mag * np.exp(1j * (sgn * theta - np.pi / 2))
    cy = -sgn * (v_y / omega) * mag * np.exp(1j * sgn * theta)
    return _closed_form((cx, cy, 0.0), omega, mag, times)


def closed_form_chiral(v_x: float, v_y: float, v_z: float, m: float, spinor, times=None):
    """Closed-form trajectory of the three-band chiral model at a corner point.

    ``spinor`` = (a, b, c) in the mass-generator eigenbasis.  Two branches
    are supported: c = 0 rotates in-plane at |m|,

        <x> = -sqrt2 (v_x/m) R2 cos(m t + th2),  <y> = -sqrt2 (v_y/m) R2 sin(m t + th2)

    with R2 e^{i th2} = a b*; b = 0 oscillates along z at 2|m|,

        <z> = -(v_z/m) R3 cos(2 m t + th3),  R3 e^{i th3} = a c*.

    Mixed spinors must use :func:`pcm_trajectory_exact`.
    """
    (a, b, c), sgn = _closed_form_input(m, spinor)
    if abs(b) > 1e-12 and abs(c) > 1e-12:
        raise ValueError(
            "spinor mixes both closed-form branches (b != 0 and c != 0); "
            "use pcm_trajectory_exact for general spinors"
        )
    if abs(c) <= 1e-12:
        r2, th2 = _polar(a * np.conj(b))
        omega = abs(m)
        cx = -np.sqrt(2.0) * (v_x / m) * r2 * np.exp(1j * sgn * th2)
        cy = -np.sqrt(2.0) * (v_y / abs(m)) * r2 * np.exp(1j * (sgn * th2 - np.pi / 2))
        comps, mag = (cx, cy, 0.0), r2
    else:
        r3, th3 = _polar(a * np.conj(c))
        omega = 2 * abs(m)
        cz = -(v_z / m) * r3 * np.exp(1j * sgn * th3)
        comps, mag = (0.0, 0.0, cz), r3
    return _closed_form(comps, omega, mag, times)


def _unit_spinor(spinor, dim, model_name=None):
    coeffs = np.asarray(spinor, dtype=complex)
    if coeffs.shape != (dim,):
        raise ValueError(
            f"expected a {dim}-component spinor, got shape {coeffs.shape}" if model_name is None
            else f"spinor has {coeffs.shape} components, model '{model_name}' needs {dim}")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > SPINOR_NORM_TOL:
        raise ValueError(f"spinor is not normalized: |coeffs| = {norm:.12g}")
    return coeffs


def _random_spinor(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


# ----------------------------------------------------------------------
# Gaussian packets
# ----------------------------------------------------------------------

def wavepacket_trajectory(model: BlochModel, packet: WavePacket, grid_spec=None,
                          include_drift: bool = True, *,
                          samples_per_period: int = SAMPLES_PER_PERIOD,
                          periods: int = SPAN_PERIODS) -> Trajectory:
    """Momentum-averaged trajectory of a Gaussian packet.

    Per-momentum expectations are weighted by the normalized Gaussian
    |g(k)|^2 ~ exp(-d^2 |k - k0|^2) on a uniform grid.  ``grid_spec`` is an
    optional (half_width, points_per_axis) pair, either of which may be None:
    the default covers |k - k0| <= 5/d with enough points for eight samples
    inside two standard deviations per axis.  The mesh is diagonalized in
    stacked eigensolves of ``_CHUNK`` momenta.  As d grows the result converges to
    :func:`pcm_trajectory_exact` at k0.
    """
    center = _check_center(model, packet.center)
    d = packet.width
    half_width, n_pts = packet_grid(model, d, grid_spec)

    axes = [center[i] + np.linspace(-half_width, half_width, n_pts) for i in range(model.momentum_dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.momentum_dim)
    weights = np.exp(-d * d * np.sum((mesh - center) ** 2, axis=1))
    weights /= weights.sum()

    (times, pcm), = _momentum_sum(model, mesh, weights, [packet.spinor], None,
                                  include_drift, samples_per_period, periods)
    return Trajectory(times=times, pcm=pcm, metadata={
        "include_drift": include_drift, "grid": {"half_width": half_width, "points": n_pts}})


def _check_center(model, center):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (model.momentum_dim,):
        raise ValueError(
            f"packet center has shape {center.shape}, model '{model.name}' "
            f"expects ({model.momentum_dim},)"
        )
    return center


def packet_grid(model, d, grid_spec):
    """(half_width, points per axis) of the momentum grid of a packet of width ``d``;
    ``grid_spec`` as in :func:`wavepacket_trajectory`."""
    half_width, n_pts = grid_spec or (None, None)
    if half_width is None:
        half_width = 5.0 / d
    if model.momentum_cutoff is not None:
        half_width = min(half_width, model.momentum_cutoff)
    sigma = 1.0 / (np.sqrt(2.0) * d)
    if n_pts is None:
        # spacing <= sigma/2 gives >= 8 points inside |dk| <= 2 sigma
        n_pts = int(np.ceil(2 * half_width / (sigma / 2))) + 1
        if n_pts % 2 == 0:
            n_pts += 1
        n_pts = max(n_pts, 9)
    spacing = 2 * half_width / (n_pts - 1)
    if int(4 * sigma / spacing) + 1 < 8:
        raise ValueError(
            f"momentum grid too coarse: {int(4 * sigma / spacing) + 1} points per axis "
            "inside two standard deviations (need >= 8)"
        )
    return half_width, n_pts


# ----------------------------------------------------------------------
# trajectory analysis
# ----------------------------------------------------------------------

def _detrended(traj: Trajectory, width=None):
    """Mean-free signal of ``traj.pcm`` (T, C); only a trajectory that carries a drift has a line
    fitted out, one per block of ``width`` columns, default all C (fitting a line to a pure
    oscillation on a discrete grid would itself leak power into every bin)."""
    if traj.metadata.get("include_drift"):
        basis = np.stack([np.ones_like(traj.times), traj.times], axis=1)
        clean, width = traj.pcm.copy(), width or traj.pcm.shape[1]
        for lo in range(0, clean.shape[1], width):
            x = clean[:, lo:lo + width]
            x -= basis @ np.linalg.lstsq(basis, x, rcond=None)[0]
        return clean
    return traj.pcm - traj.pcm.sum(axis=0) / len(traj.pcm)  # .mean() bit for bit, but leaner


def rotation_index(traj: Trajectory, plane=(0, 1)) -> int:
    """Sense of rotation in a coordinate plane: +1 counterclockwise, -1 clockwise.

    The signed area integral (x dy - y dx)/2 is accumulated over an integer
    number of periods of the dominant oscillation (trapezoidal rule).
    Returns 0 when the detrended in-plane amplitude is at most 1e-9 of max
    |pcm| over all three raw components, the noise reference of
    :func:`zb_spectrum`.  A trajectory with a non-finite position has no
    sense: it is a ValueError.
    """
    times = _check_uniform(traj.times)
    if not np.isfinite(traj.pcm).all():
        raise ValueError("trajectory positions are not finite: no rotation sense")
    clean = _detrended(traj)
    x = clean[:, plane[0]]
    y = clean[:, plane[1]]
    amp = float(np.max(np.hypot(x, y)))
    if amp <= 1e-9 * np.max(np.abs(traj.pcm)):
        return 0

    power = np.abs(np.fft.rfft(x)) ** 2 + np.abs(np.fft.rfft(y)) ** 2
    power[0] = 0.0
    dom_bin = int(np.argmax(power))
    if dom_bin < 1 or power[dom_bin] == 0.0:
        return 0
    n = len(times)
    dt = times[1] - times[0]
    span = n * dt
    shift = 0.0
    if 1 <= dom_bin < len(power) - 1:
        shift = _peak_shift(power[dom_bin - 1 : dom_bin + 2])
    omega_dom = 2 * np.pi * (dom_bin + shift) / span
    full_periods = int(np.floor(span * omega_dom / (2 * np.pi)))
    if full_periods < 1:
        raise ValueError("trajectory spans less than one period of its dominant oscillation")
    n_window = min(n, max(2, int(round(full_periods * (2 * np.pi / omega_dom) / dt))))
    xs, ys = x[:n_window], y[:n_window]
    area = 0.5 * float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys))
    if abs(area) < 1e-12 * np.pi * amp * amp * max(full_periods, 1):
        return 0
    return int(np.sign(area))


def _peak_shift(power3):
    """Bin offsets of peaks from parabolas through sqrt of the three powers
    around each (along axis 0); 0 where the parabola is flat."""
    left, mid, right = np.sqrt(power3)
    denom = left - 2 * mid + right
    return np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0)


def _spectra(traj: Trajectory, width: int):
    """`zb_spectrum` of S trajectories side by side, ``traj.pcm`` (T, S width): omegas, power
    (B, S width) normalized per trajectory, per trajectory its peaks strongest first, unmerged
    (equal powers in component-major, bin-ascending order), and the resolution; the first
    trajectory whose dominant peak spans under four cycles raises.  At S = 1 or ``width`` > 1
    each reads its lone spectrum bit for bit (a lone column's mean is summed pairwise)."""
    times = _check_uniform(traj.times)
    n, dt = len(times), times[1] - times[0]
    power = np.abs(np.fft.rfft(_detrended(traj, width), axis=0)) ** 2
    # per trajectory maxima, its columns laid end to end
    top = power.T.reshape(-1, width * len(power)).max(axis=1)
    # at or below 1e-12 of max |pcm| reads zero power, x / inf = 0 x: |rfft| <= n max|clean|
    top[top <= (1e-12 * n * np.abs(traj.pcm.T).reshape(len(top), -1).max(axis=1)) ** 2] = np.inf
    power /= top.repeat(width)
    resolution = 2 * np.pi / (n * dt)

    # local maxima, column-major (trajectory, then component) and bin-ascending
    mid = power[1:-1]
    col, b = np.nonzero(((mid >= 1e-10) & (mid > power[:-2]) & (mid >= power[2:])).T)
    b = b + 1
    shift = _peak_shift(power[b + np.array([[-1], [0], [1]]), col])
    pairs = list(zip(((b + shift) * resolution).tolist(), power[b, col].tolist()))
    edges = np.searchsorted(col, np.arange(0, power.shape[1] + 1, width)).tolist()
    # a stable sort: of equal powers the first found stays first
    peaks = [sorted(pairs[lo:hi], key=lambda pk: -pk[1]) for lo, hi in zip(edges, edges[1:])]
    if any(line and line[0][0] / resolution < MIN_SPAN_PERIODS for line in peaks):
        raise ValueError("sampling too short: fewer than four cycles of the dominant oscillation")
    return 2 * np.pi * np.fft.rfftfreq(n, d=dt), power, peaks, resolution


def zb_spectrum(traj: Trajectory) -> ZBSpectrum:
    """Per-component Fourier magnitude spectrum with interpolated peak list.

    The mean and any linear drift are removed before the transform; what is
    left at or below 1e-12 of max |pcm| (a pure drift's roundoff) gives zero
    power and no peaks.  Raises if the sampling is non-uniform or spans fewer
    than four cycles of the dominant oscillation.  The one-trajectory case of
    `_spectra`, with each peak within one bin of a stronger one merged into it.
    """
    omegas, power, (peaks,), resolution = _spectra(traj, traj.pcm.shape[1])
    merged = []
    for freq, pw in peaks:
        if all(abs(freq - f0) > resolution for f0, _ in merged):
            merged.append((freq, pw))
    return ZBSpectrum(omegas=omegas, power=power, peaks=tuple(merged), resolution=resolution)


@dataclass(frozen=True)
class SelectionRuleReport:
    """Outcome of the adjacent-pair frequency check for one spin value: the worst spurious
    relative power over the trials (NaN if a trajectory is not finite), and the verdict."""

    max_spurious_power: float
    passed: bool


def selection_rule_check(j, m: float, seed: int = 1234) -> SelectionRuleReport:
    """Verify that SELECTION_TRIALS random spinors of a spin-j system oscillate only at |m|.

    The trials' exact trajectories at p = 0 come from one spinor stack and one `_spectra`
    pass; each trial's dominant line is compared with |m| and every bin away from it with the
    main peak, and the worst relative power over all trials is reported.  A non-finite entry
    fails the check and reports NaN, and a trial with no spectral line fails it too: a random
    spinor always oscillates.
    """
    if j > 3.5:
        raise ValueError("selection-rule check supports j <= 7/2")
    model, omega = spin_j_continuum(j, 1.0, 1.0, m), abs(m)
    times, rng = zb_time_grid(omega), np.random.default_rng(seed)
    spinors = [_random_spinor(rng, model.band_count) for _ in range(SELECTION_TRIALS)]
    pcm = np.hstack([x.pcm for x in pcm_trajectories_exact(model, np.zeros(2), spinors, times)])
    if not np.isfinite(pcm).all():
        return SelectionRuleReport(np.nan, False)
    _, power, peaks, resolution = _spectra(Trajectory(times, pcm), 3)
    bins = np.arange(len(power))  # away from bin 0 and from the two bins each side of |m|
    away = (bins > 0) & (np.abs(bins - int(round(omega / resolution))) > 2)
    spurious = np.max(power[away], axis=0, initial=0.0).reshape(-1, 3).max(axis=1).tolist()
    # each trial with a line: its dominant frequency and spurious power; max() from 0.0 skips NaN
    lines = [(line[0][0], away_max) for line, away_max in zip(peaks, spurious) if line]
    worst_power = max([0.0] + [away_max for _, away_max in lines])
    ok = len(lines) == len(peaks) and not any(abs(freq - omega) > resolution for freq, _ in lines)
    return SelectionRuleReport(worst_power, ok and worst_power < _SPURIOUS_TOL)
