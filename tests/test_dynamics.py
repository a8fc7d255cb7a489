import numpy as np
import pytest

from zbtopo import (
    GaplessError,
    GridSizeError,
    Trajectory,
    WavePacket,
    adjacent_amplitude,
    chiral_ti_3d,
    closed_form_chiral,
    closed_form_spin1,
    evaluate,
    gradient,
    maxwell_lattice,
    pcm_trajectories_exact,
    pcm_trajectory_exact,
    rotation_index,
    selection_rule_check,
    spin_j_continuum,
    wavepacket_trajectory,
    zb_spectrum,
    zb_time_grid,
)
from zbtopo import dynamics
from zbtopo.dynamics import _pair_data

SQ2 = np.sqrt(2.0)
ORIGIN2 = np.zeros(2)
ORIGIN3 = np.zeros(3)


def random_spinor(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


# ---------------------------------------------------------------- exact route

def test_time_grid_is_capped_before_allocation(monkeypatch):
    # 3 / 1 at 64 x 8 is 1536 samples: admitted at a cap of 1536, refused below it
    monkeypatch.setattr(dynamics, "_MAX_TIME_SAMPLES", 1536)
    assert len(zb_time_grid(3.0, 1.0)) == 1536
    monkeypatch.setattr(dynamics, "_MAX_TIME_SAMPLES", 1535)
    with pytest.raises(GridSizeError, match="64 x 8 gives a time grid of 1.54e[+]03 samples"):
        zb_time_grid(3.0, 1.0)
    # a ratio of 1e12 would need 5e14 samples; it is refused, not allocated
    monkeypatch.undo()
    with pytest.raises(GridSizeError, match="5.12e[+]14 samples .* more than 4000000"):
        zb_time_grid(1e6, 1e-6)


@pytest.mark.parametrize("name, args", [
    ("omega_fast", (np.nan,)), ("omega_fast", (np.inf, 1.0)), ("omega_fast", (0.0,)),
    ("omega_slow", (1.0, np.nan)), ("omega_slow", (1.0, 0.0)),
], ids=["nan-fast", "inf-fast", "zero-fast", "nan-slow", "zero-slow"])
def test_time_grid_refuses_a_non_finite_or_zero_frequency_by_name(name, args):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonzero, got "):
        zb_time_grid(*args)


def test_eigenstate_gives_zero_oscillation():
    model = maxwell_lattice(1.0, 1.0)
    traj = pcm_trajectory_exact(model, ORIGIN2, 0, zb_time_grid(2.0))
    assert np.max(np.abs(traj.pcm)) == 0.0
    assert rotation_index(traj) == 0


@pytest.mark.parametrize(
    "model, k",
    [(maxwell_lattice(1.0, 2.7), [0.3, -0.2]), (maxwell_lattice(1.0, 1.3), [2.0, 1.0]),
     (chiral_ti_3d(2.0), [0.3, -0.2, 0.1]), (spin_j_continuum(2.5, 0.9, -1.1, 0.7), [0.3, -0.2])],
    ids=["maxwell-2.7", "maxwell-1.3", "chiral", "spin-5/2"],
)
def test_pure_drift_has_an_empty_spectrum(model, k):
    # an eigenstate only drifts: what the line fit leaves is roundoff, not a peak
    k = np.array(k)
    tracks = [pcm_trajectory_exact(model, k, band, include_drift=True)
              for band in range(model.band_count)]
    tracks.append(wavepacket_trajectory(model, WavePacket(10.0, k, 0), (0.1, 9)))
    for traj in tracks:
        assert np.max(np.abs(traj.pcm)) > 0.0
        spec = zb_spectrum(traj)
        assert spec.peaks == () and not spec.power.any()
        assert rotation_index(traj) == 0


def test_exact_matches_spin1_closed_form():
    model = maxwell_lattice(1.0, 1.0)  # m = -2, v = 2 at the origin
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    times = zb_time_grid(2.0)
    exact = pcm_trajectory_exact(model, ORIGIN2, spinor, times)
    closed, form = closed_form_spin1(2.0, 2.0, -2.0, spinor, times)
    assert np.max(np.abs(exact.pcm - closed.pcm)) < 1e-10
    assert abs(form.omega - 2.0) < 1e-10


def test_spin_half_amplitude_and_single_frequency():
    # (1,1)/sqrt2 at p = 0: x oscillates with amplitude v_x/(2|m|) at |m|
    model = spin_j_continuum(0.5, 1.0, 1.0, 1.0)
    spinor = np.array([1.0, 1.0]) / SQ2
    traj = pcm_trajectory_exact(model, ORIGIN2, spinor, zb_time_grid(1.0))
    assert abs(np.max(np.abs(traj.pcm[:, 0])) - 0.5) < 1e-10
    peaks = zb_spectrum(traj).peaks
    assert len(peaks) == 1
    assert abs(peaks[0][0] - 1.0) < 1e-6


def test_exact_rejects_unnormalized_spinor():
    model = maxwell_lattice(1.0, 1.0)
    with pytest.raises(ValueError, match="not normalized"):
        pcm_trajectory_exact(model, ORIGIN2, np.array([1.0, 1.0, 0.0]), zb_time_grid(2.0))


@pytest.mark.parametrize("spinors, message", [
    ([0, np.array([1.0, 0.0, 0.0])], "entry 0 is a band index but entry 1 is a spinor"),
    ([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 2],
     "entry 0 is a spinor but entry 2 is a band index"),
])
def test_exact_rejects_mixed_spinor_stack(spinors, message):
    with pytest.raises(ValueError, match=f"spinor stack mixes band indices and spinors: {message}"):
        pcm_trajectories_exact(maxwell_lattice(1.0, 1.0), ORIGIN2, spinors)


def test_exact_rejects_undersampled_times():
    model = maxwell_lattice(1.0, 1.0)
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    coarse = np.linspace(0.0, 50.0, 8)  # far fewer than 4 samples per period
    with pytest.raises(ValueError, match="undersamples"):
        pcm_trajectory_exact(model, ORIGIN2, spinor, coarse)
    short = zb_time_grid(2.0)[:32]  # half a period
    with pytest.raises(ValueError, match="fewer than"):
        pcm_trajectory_exact(model, ORIGIN2, spinor, short)


# ---------------------------------------------------------------- closed forms

def test_spin1_no_middle_component_means_no_oscillation():
    traj, form = closed_form_spin1(2.0, 2.0, -2.0, np.array([0.6, 0.0, 0.8]), zb_time_grid(2.0))
    assert np.max(np.abs(traj.pcm)) == 0.0
    assert np.max(form.amplitude) == 0.0


def test_spin1_reference_values():
    # (a,b,c) = (1,1,0)/sqrt2, v = 2, m = -2: R = sqrt2/2, I = 0, theta = 0,
    # so <x> = (sqrt2/2) sin(2t) and <y> = +(sqrt2/2) cos(2t) (sign -sgn(m))
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    times = zb_time_grid(2.0)
    traj, form = closed_form_spin1(2.0, 2.0, -2.0, spinor, times)
    assert np.allclose(traj.pcm[:, 0], (SQ2 / 2) * np.sin(2 * times), atol=1e-12)
    assert np.allclose(traj.pcm[:, 1], (SQ2 / 2) * np.cos(2 * times), atol=1e-12)
    assert np.allclose(np.abs(form.amplitude[:2]), SQ2 / 2, atol=1e-12)
    assert np.max(np.abs(traj.pcm[:, 2])) == 0.0


def test_spin1_gapless_rejected():
    with pytest.raises(GaplessError):
        closed_form_spin1(1.0, 1.0, 0.0, np.array([1.0, 0.0, 0.0]))


def test_spin1_reversal_identity():
    rng = np.random.default_rng(21)
    times = zb_time_grid(2.0)
    for _ in range(100):
        spinor = random_spinor(rng, 3)
        fwd, _ = closed_form_spin1(2.0, 2.0, 2.0, spinor, times)
        rev, _ = closed_form_spin1(2.0, 2.0, -2.0, spinor, -times[::-1])
        assert np.max(np.abs(rev.pcm[::-1] + fwd.pcm)) < 1e-10


def test_rotation_flips_under_mass_sign():
    rng = np.random.default_rng(22)
    times = zb_time_grid(1.5)
    flips = 0
    for _ in range(50):
        spinor = random_spinor(rng, 3)
        plus, _ = closed_form_spin1(1.0, 1.0, 1.5, spinor, times)
        minus, _ = closed_form_spin1(1.0, 1.0, -1.5, spinor, times)
        a, b = rotation_index(plus), rotation_index(minus)
        if a != 0 or b != 0:
            assert a == -b
            flips += 1
    assert flips > 40  # generic spinors do oscillate


def test_chiral_eigenstate_zero():
    traj, _ = closed_form_chiral(1.0, 1.0, 1.0, 1.0, np.array([1.0, 0.0, 0.0]))
    assert np.max(np.abs(traj.pcm)) == 0.0


def test_chiral_in_plane_reference():
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    times = zb_time_grid(1.0)
    traj, form = closed_form_chiral(1.0, 1.0, 1.0, 1.0, spinor, times)
    assert np.allclose(traj.pcm[:, 0], -(SQ2 / 2) * np.cos(times), atol=1e-12)
    assert np.max(np.abs(traj.pcm[:, 2])) == 0.0
    assert abs(form.omega - 1.0) < 1e-12


def test_chiral_axial_reference():
    spinor = np.array([1.0, 0.0, 1.0]) / SQ2
    times = zb_time_grid(2.0)
    traj, form = closed_form_chiral(1.0, 1.0, 1.0, 1.0, spinor, times)
    assert np.allclose(traj.pcm[:, 2], -0.5 * np.cos(2 * times), atol=1e-12)
    assert np.max(np.abs(traj.pcm[:, :2])) == 0.0
    assert abs(form.omega - 2.0) < 1e-12


def test_chiral_mixed_branch_rejected():
    spinor = np.array([0.6, 0.6, np.sqrt(1.0 - 0.72)])
    with pytest.raises(ValueError, match="branch"):
        closed_form_chiral(1.0, 1.0, 1.0, 1.0, spinor)


def test_chiral_gapless_rejected():
    with pytest.raises(GaplessError):
        closed_form_chiral(1.0, 1.0, 1.0, 0.0, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("closed_form, spinor", [
    (lambda s, t: closed_form_spin1(0.0, 0.0, 2.0, s, t), [1.0, 1.0, 0.0]),
    (lambda s, t: closed_form_chiral(0.0, 0.0, 0.0, 2.0, s, t), [1.0, 1.0, 0.0]),
    (lambda s, t: closed_form_chiral(0.0, 0.0, 0.0, 2.0, s, t), [1.0, 0.0, 1.0]),
])
def test_closed_forms_refuse_undersampling_at_zero_velocity(closed_form, spinor):
    # every component vanishes at v = 0, but the level pair still oscillates
    # at the gap frequency, so a step of 1 undersamples it
    with pytest.raises(ValueError, match="undersamples"):
        closed_form(np.array(spinor) / SQ2, np.arange(10.0))


@pytest.mark.parametrize("mass,model_m", [(-2.0, 1.0), (2.0, 3.0)])
def test_oracle_equivalence_spin1(mass, model_m):
    model = maxwell_lattice(1.0, model_m)
    rng = np.random.default_rng(int(10 + mass))
    times = zb_time_grid(abs(mass))
    for _ in range(50):
        spinor = random_spinor(rng, 3)
        closed, _ = closed_form_spin1(2.0, 2.0, mass, spinor, times)
        exact = pcm_trajectory_exact(model, ORIGIN2, spinor, times)
        assert np.max(np.abs(closed.pcm - exact.pcm)) < 1e-8


@pytest.mark.parametrize("branch", ["in_plane", "axial"])
def test_oracle_equivalence_chiral(branch):
    mass = -1.0
    model = chiral_ti_3d(2.0)
    rng = np.random.default_rng(33)
    omega = abs(mass) if branch == "in_plane" else 2 * abs(mass)
    times = zb_time_grid(omega, omega)
    for _ in range(50):
        pair = random_spinor(rng, 2)
        if branch == "in_plane":
            spinor = np.array([pair[0], pair[1], 0.0])
        else:
            spinor = np.array([pair[0], 0.0, pair[1]])
        closed, _ = closed_form_chiral(1.0, 1.0, 1.0, mass, spinor, times)
        exact = pcm_trajectory_exact(model, ORIGIN3, spinor, times)
        assert np.max(np.abs(closed.pcm - exact.pcm)) < 1e-8


# ---------------------------------------------------------------- packets

def test_packet_wide_limit_matches_point_trajectory():
    model = maxwell_lattice(1.0, 1.0)
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    packet = WavePacket(width=1000.0, center=ORIGIN2, spinor=spinor)
    traj = wavepacket_trajectory(model, packet)
    point = pcm_trajectory_exact(model, ORIGIN2, spinor, traj.times)
    rel = np.max(np.abs(traj.pcm - point.pcm)) / np.max(np.abs(point.pcm))
    assert rel < 1e-4


def test_packet_finite_width_decays_within_envelope():
    model = maxwell_lattice(1.0, 1.9)
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    packet = WavePacket(width=20.0, center=ORIGIN2, spinor=spinor)
    traj = wavepacket_trajectory(model, packet)

    # the oscillating part (drift removed) dephases as the packet spreads
    basis = np.stack([np.ones_like(traj.times), traj.times], axis=1)
    coef, *_ = np.linalg.lstsq(basis, traj.pcm, rcond=None)
    osc = traj.pcm - basis @ coef
    radius = np.hypot(osc[:, 0], osc[:, 1])
    quarter = len(radius) // 4
    assert radius[-quarter:].max() < 0.8 * radius[:quarter].max()

    # pointwise bound: ideal point amplitude plus the worst group-velocity drift
    _, form = closed_form_spin1(2.0, 2.0, 2 * (1.9 - 2.0), spinor, traj.times)
    ideal = np.hypot(form.amplitude[0], form.amplitude[1])
    half, npts = traj.metadata["grid"]["half_width"], traj.metadata["grid"]["points"]
    axes = np.linspace(-half, half, npts)[:: npts // 4]
    ks = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    hams, grads = evaluate(model, ks), gradient(model, ks)
    # band velocities are the band-index drifts <n| dH/dk |n>
    vmax = max(np.max(np.abs(_pair_data(hams, grads, band)[2])) for band in range(3))
    total = np.linalg.norm(traj.pcm, axis=1)
    assert np.all(total <= ideal + traj.times * vmax + 1e-9)


def test_packet_eigenstate_is_pure_drift():
    model = maxwell_lattice(1.0, 1.0)
    packet = WavePacket(width=20.0, center=np.array([0.3, 0.1]), spinor=0)
    traj = wavepacket_trajectory(model, packet)
    # pure drift: r(t) exactly linear in t
    slope = traj.pcm[-1] / traj.times[-1]
    assert np.max(np.abs(traj.pcm - np.outer(traj.times, slope))) < 1e-12


def test_packet_grid_too_coarse_rejected():
    model = maxwell_lattice(1.0, 1.0)
    packet = WavePacket(width=20.0, center=ORIGIN2, spinor=0)
    with pytest.raises(ValueError, match="too coarse"):
        wavepacket_trajectory(model, packet, grid_spec=(0.25, 5))


def test_packet_width_must_be_positive():
    with pytest.raises(ValueError, match="width"):
        WavePacket(width=0.0, center=ORIGIN2, spinor=0)


@pytest.mark.parametrize("m_param,expected", [(3.0, 1), (1.0, -1)])
def test_packet_rotation_signs(m_param, expected):
    model = maxwell_lattice(1.0, m_param)
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    packet = WavePacket(width=20.0, center=ORIGIN2, spinor=spinor)
    assert rotation_index(wavepacket_trajectory(model, packet)) == expected


# ---------------------------------------------------------------- analysis

def test_rotation_index_circles():
    t = np.linspace(0.0, 8 * np.pi, 512, endpoint=False)
    ccw = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    cw = np.stack([np.cos(t), -np.sin(t), np.zeros_like(t)], axis=1)
    assert rotation_index(Trajectory(t, ccw)) == 1
    assert rotation_index(Trajectory(t, cw)) == -1


def test_rotation_index_reads_roundoff_beside_a_drift_as_zero():
    # what the fitted line leaves of a drift is noise against the drift itself
    t = np.linspace(0.0, 8 * np.pi, 512, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    pcm = np.outer(t, [0.3, -0.7, 0.2]) + 1e-16 * circle
    assert rotation_index(Trajectory(t, pcm, {"include_drift": True})) == 0


def test_rotation_index_needs_uniform_grid():
    t = np.linspace(0.0, 8 * np.pi, 512, endpoint=False).copy()
    t[100] += 0.01
    pcm = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    with pytest.raises(ValueError, match="non-uniform"):
        rotation_index(Trajectory(t, pcm))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotation_index_refuses_a_non_finite_trajectory(bad):
    # used to leak Python's "cannot convert float NaN to integer"
    t = np.linspace(0.0, 8 * np.pi, 512, endpoint=False)
    pcm = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    pcm[7, 1] = bad
    with pytest.raises(ValueError,
                       match="^trajectory positions are not finite: no rotation sense$"):
        rotation_index(Trajectory(t, pcm))
    with pytest.raises(ValueError, match="^trajectory positions are not finite"):
        rotation_index(Trajectory(t, np.full_like(pcm, np.nan)))


def test_spectrum_pure_tone():
    times = zb_time_grid(2.0)
    pcm = np.zeros((len(times), 3))
    pcm[:, 0] = np.cos(2.0 * times)
    spec = zb_spectrum(Trajectory(times, pcm))
    assert len(spec.peaks) == 1
    freq, power = spec.peaks[0]
    assert abs(freq - 2.0) <= spec.resolution
    assert power == 1.0


def test_spectrum_too_short_rejected():
    t = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)  # 2 cycles of omega=2
    pcm = np.zeros((len(t), 3))
    pcm[:, 0] = np.cos(2.0 * t)
    with pytest.raises(ValueError, match="too short"):
        zb_spectrum(Trajectory(t, pcm))


def test_spectrum_spin_five_half_single_line():
    model = spin_j_continuum(2.5, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    traj = pcm_trajectory_exact(model, ORIGIN2, random_spinor(rng, 6), zb_time_grid(1.0))
    spec = zb_spectrum(traj)
    assert len(spec.peaks) == 1
    assert abs(spec.peaks[0][0] - 1.0) <= spec.resolution
    # non-adjacent content: everything over a bin away from the line
    main_bin = int(round(1.0 / spec.resolution))
    mask = np.ones(spec.power.shape[0], dtype=bool)
    mask[0] = False
    mask[main_bin - 2 : main_bin + 3] = False
    assert spec.power[mask].max() < 1e-10


def test_spectrum_chiral_axial_at_twice_the_gap():
    traj, _ = closed_form_chiral(1.0, 1.0, 1.0, 1.0, np.array([1.0, 0.0, 1.0]) / SQ2,
                                 zb_time_grid(2.0, 2.0))
    spec = zb_spectrum(traj)
    assert len(spec.peaks) == 1
    assert abs(spec.peaks[0][0] - 2.0) <= spec.resolution


@pytest.mark.parametrize("j", [1.0, 2.0])
def test_selection_rule_check(j):
    report = selection_rule_check(j, 1.0, seed=555)
    assert report.passed
    assert report.max_spurious_power < 1e-10


@pytest.mark.parametrize("j, a", [(two_j / 2, a) for two_j in range(1, 8) for a in range(two_j)])
def test_pair_amplitude_is_the_adjacent_amplitude(j, a):
    # the amplitude half of the selection rule: at p = 0 the mass-basis spinor
    # (|a> + |a+1>)/sqrt2 oscillates only in its own band pair (labels a+1, a+2
    # counted from 1), with the pair amplitude adjacent_amplitude / 4
    model = spin_j_continuum(j, 1.0, 1.0, 1.0)
    n, k = model.band_count, np.zeros((1, 2))
    spinor = np.zeros(n)
    spinor[[a, a + 1]] = 1 / SQ2
    psi = model.mass_eigenbasis() @ spinor
    _, amps, _ = _pair_data(evaluate(model, k), gradient(model, k), psi)
    mags = np.abs(amps[0])  # (pairs, 3), pairs (g, h) in np.triu_indices order
    pair = list(zip(*np.triu_indices(n, k=1))).index((a, a + 1))
    assert abs(mags[pair].max() - adjacent_amplitude(j, a + 1, a + 2) / 4) < 1e-14
    assert np.delete(mags, pair, axis=0).max(initial=0.0) < 1e-14


def test_selection_rule_spin_cap():
    with pytest.raises(ValueError, match="7/2"):
        selection_rule_check(4.0, 1.0)


def test_amplitude_inverse_gap_scaling():
    spinor = np.array([1.0, 1.0, 0.0]) / SQ2
    masses = np.array([0.5, 1.0, 2.0, 4.0])
    amps = []
    for m in masses:
        traj, _ = closed_form_spin1(1.0, 1.0, m, spinor, zb_time_grid(m))
        amps.append(np.max(np.hypot(traj.pcm[:, 0], traj.pcm[:, 1])))
    exponent = np.polyfit(np.log(masses), np.log(amps), 1)[0]
    assert abs(exponent + 1.0) <= 0.01


def test_frequency_equals_adjacent_gap():
    rng = np.random.default_rng(8)
    for j in (0.5, 1.0, 1.5):
        model = spin_j_continuum(j, 1.0, 1.0, 1.3)
        traj = pcm_trajectory_exact(
            model, ORIGIN2, random_spinor(rng, model.band_count), zb_time_grid(1.3)
        )
        spec = zb_spectrum(traj)
        freq = max(spec.peaks, key=lambda p: p[1])[0]
        assert abs(freq - 1.3) <= spec.resolution


def test_exact_reversal_identity_at_inversion_point():
    model_plus = maxwell_lattice(1.0, 3.0)   # m = +2
    model_minus = maxwell_lattice(1.0, 1.0)  # m = -2
    rng = np.random.default_rng(13)
    times = zb_time_grid(2.0)
    for _ in range(20):
        spinor = random_spinor(rng, 3)
        fwd = pcm_trajectory_exact(model_plus, ORIGIN2, spinor, times)
        rev = pcm_trajectory_exact(model_minus, ORIGIN2, spinor, -times[::-1])
        assert np.max(np.abs(rev.pcm[::-1] + fwd.pcm)) < 1e-10
