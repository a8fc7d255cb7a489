"""Property tests for Hamiltonian assembly, the complex-step coefficient
gradients, the momentum-batched spectral path, the chunked packet synthesis,
the stacked high-symmetry-point linearization, the stacked phase-diagram rows,
the shared-solve plaquette Chern numbers, the rotation sense, the stacked
honeycomb invariants, the bounded Rashba ramp and the CSV row template.

Each property is checked against a plain reference written here: the real
coefficient einsum, hand-derived gradients, per-matrix ``hermitian_eig``
calls, amplitudes built from explicit eigenvectors and from explicit
degenerate-group projectors, a dense sin/cos sum, a one-shot factored
product, a per-momentum packet loop, per-generator trace projections,
per-row one-model routes, per-band plaquette calls, per-point honeycomb
solves, the full-mesh Rashba ramp and ``io.fmt`` per value.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from zbtopo import (
    GaplessError,
    NotHighSymmetryError,
    Trajectory,
    WavePacket,
    chern_from_hsp,
    chern_plaquette,
    chiral_ti_3d,
    evaluate,
    gradient,
    hermitian_eig,
    kane_mele,
    kane_mele_spin_sector,
    linearize_at_hsp,
    maxwell_lattice,
    pcm_trajectories_exact,
    pcm_trajectory_exact,
    rashba_gap_ramp,
    rotation_index,
    selection_rule_check,
    spin_j_continuum,
    wavepacket_trajectory,
    z2_fu_kane_parity,
    z2_kane_mele,
    zb_spectrum,
    zb_time_grid,
    zone_degree,
)
from zbtopo import dynamics, invariants, io as zio
from zbtopo.dynamics import _CHUNK, _oscillation, _pair_data
from zbtopo.generators import spin_matrices

seeds = st.integers(0, 2**32 - 1)
ORIGIN2 = np.zeros(2)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


def random_stack(rng, shape, dim, degenerate):
    """Hermitian matrices; ``degenerate`` draws integer spectra with repeats."""
    out = np.empty(shape + (dim, dim), dtype=complex)
    for idx in np.ndindex(shape):
        if degenerate:
            levels = np.sort(rng.integers(-2, 3, dim)).astype(float)
            u = random_unitary(rng, dim)
            out[idx] = u @ np.diag(levels) @ u.conj().T
        else:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            out[idx] = 0.5 * (a + a.conj().T)
    return out


def assert_matches_per_matrix(stacked, matrices):
    """The stacked result holds each per-matrix result and rebuilds every matrix."""
    for idx in np.ndindex(matrices.shape[:-2]):
        single = hermitian_eig(matrices[idx])
        np.testing.assert_allclose(stacked.energies[idx], single.energies, atol=1e-12)
        np.testing.assert_allclose(stacked.states[idx], single.states, atol=1e-12)
    v = stacked.states
    rebuilt = (v * stacked.energies[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    np.testing.assert_allclose(rebuilt, matrices, atol=1e-10)


def same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- assembly

def drawn_momenta(seed, count, dim):
    """``count`` momenta in [-2 pi, 2 pi]^dim, about 30% of entries planted at 0, -0 or
    +-pi: exact zeros and pi put signed zeros into the coefficients."""
    rng = np.random.default_rng(seed)
    ks = rng.uniform(-2 * np.pi, 2 * np.pi, (count, dim))
    special = rng.random(ks.shape) < 0.3
    ks[special] = rng.choice([0.0, -0.0, np.pi, -np.pi], special.sum())
    return ks


def reference_coeff_grad(model, k):
    """The (..., n_generators, momentum_dim) gradient of each factory's coefficients,
    differentiated by hand, one formula per factory."""
    p = model.params
    out = np.zeros(k.shape[:-1] + (len(model.generators), model.momentum_dim))
    if model.name == "spin_j":
        out[..., 0, 0] = p["v_x"]
        out[..., 1, 1] = p["v_y"]
    elif model.name == "maxwell":
        t = p["t_h"]
        for d in range(2):
            out[..., d, d] = 2 * t * np.cos(k[..., d])
            out[..., 2, d] = 2 * t * np.sin(k[..., d])
    elif model.name == "chiral_ti":
        for d in range(3):
            out[..., d, d] = np.cos(k[..., d])
            out[..., 3, d] = np.sin(k[..., d])
    else:  # kane_mele, or one spin sector of it: its first three rows at lambda_r = 0
        t, r = p["t"], p.get("lambda_r", 0.0)
        so = p["lambda_so"] * p.get("spin", 1)
        k1, k2 = k[..., 0], k[..., 1]
        s1, c1, s2, c2 = np.sin(k1), np.cos(k1), np.sin(k2), np.cos(k2)
        rows = {(0, 0): -t * s1, (0, 1): -t * s2, (1, 0): t * c1, (1, 1): t * c2,
                (2, 0): 2 * so * (c1 - np.cos(k1 - k2)), (2, 1): 2 * so * (-c2 + np.cos(k1 - k2)),
                (6, 0): r * c1, (7, 0): r * s1, (8, 1): r * c2, (9, 1): r * s2}
        for (g, d), value in rows.items():
            if g < len(model.generators):
                out[..., g, d] = value
    return out


ALL_MODELS = [
    maxwell_lattice(1.0, 1.3),
    spin_j_continuum(1.5, 0.8, -1.1, 0.4),
    spin_j_continuum(1.0, 1.0, 0.7, -0.3, "cartesian"),
    kane_mele(1.0, 0.06, 0.05, 0.1),
    kane_mele_spin_sector(1.0, 0.06, 0.1, -1),
    chiral_ti_3d(2.0),
]
ALL_MODEL_IDS = ["maxwell", "spin-j-ladder", "spin-j-cartesian", "kane-mele",
                 "kane-mele-sector", "chiral"]


@pytest.mark.parametrize("model", ALL_MODELS, ids=ALL_MODEL_IDS)
@given(seed=seeds, count=st.integers(1, 40))
def test_assembly_matches_real_coefficient_einsum(model, seed, count):
    ks = drawn_momenta(seed, count, model.momentum_dim)
    gens = model.generators
    assert same_bits(evaluate(model, ks), np.einsum("...g,gij->...ij", model.coeff(ks), gens))
    assert same_bits(gradient(model, ks),
                     np.einsum("...gd,gij->...dij", model.coeff_grad(ks), gens))
    assert same_bits(evaluate(model, ks[0]), np.einsum("g,gij->ij", model.coeff(ks[0]), gens))


@pytest.mark.parametrize("model", ALL_MODELS, ids=ALL_MODEL_IDS)
@given(seed=seeds, count=st.integers(1, 40))
def test_complex_step_gradient_equals_hand_derivative(model, seed, count):
    # by value: Im sin(x + 0i) = cos(x) * 0 may carry the other sign of zero
    ks = drawn_momenta(seed, count, model.momentum_dim)
    assert np.array_equal(model.coeff_grad(ks), reference_coeff_grad(model, ks))
    assert np.array_equal(model.coeff_grad(ks[0]), reference_coeff_grad(model, ks[0]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=ALL_MODEL_IDS)
def test_coefficients_keep_complex_momenta_complex(model):
    # a float output array would drop the imaginary part with only a ComplexWarning,
    # and every complex-step velocity would read 0
    ks = drawn_momenta(7, 5, model.momentum_dim) + 1j * 2.0**-64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = model.coeff(ks)
    assert coeffs.dtype == complex and coeffs.shape == (5, len(model.generators))


# ---------------------------------------------------------------- eigensolve

@given(seed=seeds, dim=st.integers(2, 8), count=st.integers(1, 12), degenerate=st.booleans())
def test_stacked_eig_matches_per_matrix(seed, dim, count, degenerate):
    rng = np.random.default_rng(seed)
    matrices = random_stack(rng, (count,), dim, degenerate)
    assert_matches_per_matrix(hermitian_eig(matrices), matrices)


@given(seed=seeds, dim=st.integers(2, 5))
def test_stacked_eig_accepts_several_stack_axes(seed, dim):
    rng = np.random.default_rng(seed)
    matrices = random_stack(rng, (2, 3), dim, degenerate=bool(seed % 2))
    stacked = hermitian_eig(matrices)
    assert stacked.energies.shape == (2, 3, dim)
    assert stacked.states.shape == (2, 3, dim, dim)
    assert_matches_per_matrix(stacked, matrices)


@given(seed=seeds, count=st.integers(1, 30))
def test_stacked_eig_keeps_kane_mele_kramers_pairs(seed, count):
    # at lambda_r = lambda_v = 0 every momentum carries two Kramers pairs, and
    # each level of a pair keeps its own eigenvector column
    rng = np.random.default_rng(seed)
    model = kane_mele(1.0, 0.1, 0.0, 0.0)
    hams = evaluate(model, rng.uniform(-np.pi, np.pi, (count, 2)))
    stacked = hermitian_eig(hams)
    gaps = np.diff(stacked.energies, axis=-1)
    assert np.all(gaps[:, [0, 2]] <= dynamics.DEGENERACY_TOL)
    assert np.all(gaps[:, 1] > dynamics.DEGENERACY_TOL)
    overlaps = np.swapaxes(stacked.states.conj(), -1, -2) @ stacked.states
    np.testing.assert_allclose(overlaps, np.broadcast_to(np.eye(4), overlaps.shape), atol=1e-12)
    assert_matches_per_matrix(stacked, hams)


def test_stacked_eig_checks_every_matrix():
    stack = np.stack([np.eye(3), np.triu(np.ones((3, 3)))])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(stack)
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((4, 2, 3)))


@pytest.mark.parametrize("model", [maxwell_lattice(1.0, 1.3), chiral_ti_3d(0.7)],
                         ids=["maxwell", "chiral"])
@given(seed=seeds, count=st.integers(1, 20))
def test_pair_amplitudes_ignore_eigenvector_phases(model, seed, count):
    rng = np.random.default_rng(seed)
    n = model.band_count
    ks = rng.uniform(-np.pi, np.pi, (count, model.momentum_dim))
    hams, grads = evaluate(model, ks), gradient(model, ks)
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = raw / np.linalg.norm(raw)

    # amplitudes from eigenvectors carrying random per-k, per-band phases
    v = hermitian_eig(hams).states * np.exp(2j * np.pi * rng.random((count, 1, n)))
    dh = np.zeros((count, 3, n, n), dtype=complex)
    dh[:, : model.momentum_dim] = grads
    c = np.einsum("kig,i->kg", v.conj(), psi)
    vdv = np.einsum("kig,kdij,kjh->kghd", v.conj(), dh, v)
    expected = c.conj()[:, :, None, None] * c[:, None, :, None] * vdv
    g, h = np.triu_indices(n, k=1)
    _, amps, drift = _pair_data(hams, grads, psi)
    np.testing.assert_allclose(amps, expected[:, g, h], atol=1e-12)
    np.testing.assert_allclose(drift, np.einsum("kggd->kd", expected).real, atol=1e-12)

    # a band-index spinor gives the same data as that eigenvector with any phase
    band = int(rng.integers(n))
    by_index = _pair_data(hams, grads, band)
    by_state = _pair_data(hams, grads, v[..., band])
    for a, b in zip(by_index, by_state):
        np.testing.assert_allclose(a, b, atol=1e-12)


def group_reference(ham, dh, psi):
    """One momentum from explicit group projectors P_G = sum_{g in G} v_g v_g^dag.

    Ascending levels join a group while each lies within ``DEGENERACY_TOL`` of
    the one below.  Returns the energies, the groups, their mean levels and
    table[G, H] = <psi| P_G dH P_H |psi> (``psi`` may be a band index).
    """
    dec = hermitian_eig(ham)
    w, v = dec.energies, dec.states
    psi = v[:, psi] if isinstance(psi, int) else psi
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= dynamics.DEGENERACY_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    proj = [sum(np.outer(v[:, g], v[:, g].conj()) for g in group) @ psi for group in groups]
    table = np.array([[np.einsum("i,dij,j->d", a.conj(), dh, b) for b in proj] for a in proj])
    return w, groups, np.array([w[group].mean() for group in groups]), table


@st.composite
def pair_data_cases(draw):
    """(hams, grads, psi): a random or integer-degenerate stack, Kane-Mele Kramers
    pairs, or stacks holding a three-level chain spaced 0.6e-8 apart; psi is one
    state, one state per momentum or a band index."""
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["random", "degenerate", "kramers", "chain"]))
    count = draw(st.integers(1, 8))
    if kind == "kramers":
        model = kane_mele(1.0, 0.1, 0.0, 0.0)
        ks = rng.uniform(-np.pi, np.pi, (count, 2))
        hams, grads = evaluate(model, ks), gradient(model, ks)
    else:
        dim = draw(st.integers(3, 8))
        if kind == "chain":
            hams = np.empty((count, dim, dim), dtype=complex)
            for k in range(count):
                low = rng.uniform(-1.0, 1.0)
                levels = np.concatenate([low + 0.6e-8 * np.arange(3),
                                         low + rng.uniform(0.5, 2.5, dim - 3)])
                u = random_unitary(rng, dim)
                hams[k] = (u * levels) @ u.conj().T
        else:
            hams = random_stack(rng, (count,), dim, kind == "degenerate")
        grads = random_stack(rng, (count, draw(st.integers(1, 3))), dim, False)
    n = hams.shape[-1]
    form = draw(st.sampled_from(["shared", "per-momentum", "band"]))
    if form == "band":
        return hams, grads, int(rng.integers(n))
    raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    psi = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return hams, grads, psi[0] if form == "shared" else psi


@given(case=pair_data_cases())
def test_pair_data_matches_group_projector_reference(case):
    hams, grads, psi = case
    count, n = hams.shape[:2]
    dh = np.zeros((count, 3, n, n), dtype=complex)
    dh[:, : grads.shape[1]] = grads
    omegas, amps, drift = _pair_data(hams, grads, psi)
    g, h = np.triu_indices(n, k=1)
    times = np.linspace(0.0, 20.0, 41)
    for k in range(count):
        state = psi if isinstance(psi, int) else np.broadcast_to(psi, (count, n))[k]
        w, groups, means, table = group_reference(hams[k], dh[k], state)
        label = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
        tol = 1e-12 * max(1.0, np.max(np.abs(table)))
        # every pair oscillates at the gap of its groups' mean levels
        np.testing.assert_allclose(omegas[k], means[label[g]] - means[label[h]], rtol=0, atol=1e-12)
        # the pairs between two groups sum to the group pair's amplitude, and
        # the pairs inside one group (the diagonal) carry none
        summed = np.zeros_like(table)
        np.add.at(summed, (label[g], label[h]), amps[k])
        expected = np.triu(np.ones(table.shape[:2]), k=1)[..., None] * table
        np.testing.assert_allclose(summed, expected, rtol=0, atol=tol)
        np.testing.assert_allclose(drift[k], np.einsum("ggd->d", table).real, rtol=0, atol=tol)
        # so the oscillation summed over pairs is the one summed over group pairs
        a, b = np.triu_indices(len(groups), k=1)
        if a.size:
            cross = label[g] != label[h]
            ref = dense_oscillation(times, means[a] - means[b], table[a, b])
            got = dense_oscillation(times, omegas[k][cross], amps[k][cross])
            bound = max(1.0, np.sum(np.abs(table[a, b]) / np.abs(means[a] - means[b])[:, None]))
            assert np.max(np.abs(got - ref)) <= 1e-12 * bound


def dense_oscillation(times, omegas, amps):
    arg = np.outer(times, omegas)
    coef = (2.0 / omegas)[:, None]
    return np.sin(arg) @ (coef * amps.real) + np.cos(arg) @ (coef * amps.imag)


@given(seed=seeds, n_t=st.integers(2, 400), n_p=st.integers(1, 40),
       t0=st.floats(-20.0, 20.0))
@example(seed=0, n_t=2, n_p=1, t0=0.0)
@example(seed=1, n_t=2, n_p=5, t0=-7.25)
@example(seed=2, n_t=101, n_p=1, t0=3.5)
@example(seed=3, n_t=399, n_p=17, t0=0.0)
def test_factored_oscillation_matches_dense(seed, n_t, n_p, t0):
    rng = np.random.default_rng(seed)
    times = t0 + rng.uniform(0.01, 0.2) * np.arange(n_t)
    omegas = rng.uniform(0.1, 5.0, n_p) * rng.choice([-1.0, 1.0], n_p)
    amps = rng.standard_normal((n_p, 3)) + 1j * rng.standard_normal((n_p, 3))
    got = _oscillation(times, omegas, amps)
    ref = dense_oscillation(times, omegas, amps)
    assert got.shape == (n_t, 3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def one_shot_oscillation(times, omegas, amps):
    """The phase-factored synthesis with every pair in a single matmul."""
    n_t = len(times)
    block = int(np.ceil(np.sqrt(n_t)))
    n_blocks = -(-n_t // block)
    dt = (times[-1] - times[0]) / (n_t - 1)
    base = np.exp(1j * np.outer(np.arange(block) * dt, omegas))
    rows = np.exp(1j * np.outer(omegas, times[::block]))
    weighted = rows[:, :, None] * ((2.0 / omegas)[:, None] * amps)[:, None, :]
    out = base @ weighted.reshape(len(omegas), n_blocks * 3)
    return out.imag.reshape(block, n_blocks, 3).transpose(1, 0, 2).reshape(-1, 3)[:n_t]


def random_pairs(seed, n_p, n_t):
    rng = np.random.default_rng(seed)
    times = rng.uniform(-5.0, 5.0) + rng.uniform(0.01, 0.2) * np.arange(n_t)
    omegas = rng.uniform(0.1, 5.0, n_p) * rng.choice([-1.0, 1.0], n_p)
    amps = rng.standard_normal((n_p, 3)) + 1j * rng.standard_normal((n_p, 3))
    amps[:, 2] = 0.0  # the z row of an in-plane spinor
    return times, omegas, amps


@pytest.mark.parametrize("n_p", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_pair_chunks_match_dense(n_p):
    times, omegas, amps = random_pairs(n_p, n_p, 57)
    got = _oscillation(times, omegas, amps)
    ref = dense_oscillation(times, omegas, amps)
    assert got.shape == (57, 3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_p", [1, 2, _CHUNK - 1, _CHUNK])
@pytest.mark.parametrize("n_t", [2, 57, 1042])
def test_one_pair_chunk_is_the_one_shot_product(n_p, n_t):
    times, omegas, amps = random_pairs(n_t + n_p, n_p, n_t)
    assert same_bits(_oscillation(times, omegas, amps), one_shot_oscillation(times, omegas, amps))


def test_no_pairs_give_a_zero_track():
    times = 0.1 * np.arange(10)
    assert same_bits(_oscillation(times, np.zeros(0), np.zeros((0, 3), dtype=complex)),
                     np.zeros((10, 3)))


def test_oscillation_memory_is_bounded_by_the_chunk():
    times, omegas, amps = random_pairs(0, 100_000, 1000)
    tracemalloc.start()
    try:
        _oscillation(times, omegas, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def test_oscillation_memory_holds_one_chunk_table():
    # one chunk's weighted table alive at a time: the previous chunk's table,
    # kept alive while the next was built, took the traced peak to 17.3 MB
    times, omegas, amps = random_pairs(0, 100_000, 1000)
    assert np.unique(omegas).size == omegas.size
    tracemalloc.start()
    try:
        _oscillation(times, omegas, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"traced peak {peak / 1e6:.1f} MB"


def per_pair_oscillation(times, omegas, amps):
    """The chunked synthesis with each pair's own phase factors, ``_CHUNK`` pairs per matmul."""
    n_t = len(times)
    block = int(np.ceil(np.sqrt(n_t)))
    n_blocks = -(-n_t // block)
    dt = (times[-1] - times[0]) / (n_t - 1)
    lead = amps.shape[:-2]
    out = np.zeros(lead + (block, n_blocks * 3), dtype=complex)
    for lo in range(0, omegas.size, _CHUNK):
        w, a = omegas[lo:lo + _CHUNK], amps[..., lo:lo + _CHUNK, :]
        base = np.exp(1j * np.outer(np.arange(block) * dt, w))
        rows = np.exp(1j * np.outer(w, times[::block]))
        weighted = rows[:, :, None] * ((2.0 / w)[:, None] * a)[..., None, :]
        part = base @ weighted.reshape(lead + (len(w), n_blocks * 3))
        out = out + part if lo else part
    pcm = out.imag.reshape(lead + (block, n_blocks, 3)).swapaxes(-3, -2).reshape(lead + (-1, 3))
    return pcm[..., :n_t, :]


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
@pytest.mark.parametrize("n_p", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_distinct_frequency_factors_are_the_per_pair_ones(n_p, lead):
    # a pool of 37 magnitudes with both signs: frequencies repeat inside each
    # chunk and across chunk boundaries, as symmetric packet momenta give them
    rng = np.random.default_rng(n_p + len(lead))
    pool = rng.uniform(0.1, 5.0, 37)
    omegas = rng.choice(pool, n_p) * rng.choice([-1.0, 1.0], n_p)
    amps = rng.standard_normal(lead + (n_p, 3)) + 1j * rng.standard_normal(lead + (n_p, 3))
    times = -2.5 + 0.05 * np.arange(1042)
    if n_p > _CHUNK:
        assert np.isin(omegas[:_CHUNK], omegas[_CHUNK:]).any()
    got = _oscillation(times, omegas, amps)
    assert got.shape == lead + (1042, 3)
    assert same_bits(got, per_pair_oscillation(times, omegas, amps))


def reference_packet(model, packet, grid_spec):
    """Per-momentum loop over explicit group projectors with dense synthesis.

    Group pairs oscillate at the gap of the groups' mean levels.
    """
    half_width, n_pts = grid_spec
    axes = [c + np.linspace(-half_width, half_width, n_pts) for c in packet.center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    weights = np.exp(-packet.width**2 * np.sum((mesh - packet.center) ** 2, axis=1))
    weights /= weights.sum()
    n = model.band_count
    omegas, amps, drift = [], [], np.zeros(3)
    for weight, k in zip(weights, mesh):
        ham = evaluate(model, k)
        psi = packet.spinor
        if not isinstance(psi, int):
            psi = model.mass_eigenbasis() @ psi
        dh = np.zeros((3, n, n), dtype=complex)
        dh[: model.momentum_dim] = gradient(model, k)
        w, groups, means, table = group_reference(ham, dh, psi)
        drift += weight * np.einsum("ggd->d", table).real
        pairs = [(means[a] - means[b], table[a, b])
                 for a in range(len(groups)) for b in range(a + 1, len(groups))]
        mags = np.array([np.max(np.abs(amp)) for _, amp in pairs])
        present = [(omega, amp) for (omega, amp), mag in zip(pairs, mags)
                   if mag > 1e-12 * (1.0 + mags.max())]
        omegas += [omega for omega, _ in present]
        amps += [weight * amp for _, amp in present]
    omegas, amps = np.array(omegas), np.array(amps).reshape(-1, 3)
    if omegas.size:
        times = zb_time_grid(np.abs(omegas).max(), np.abs(omegas).min())
    else:
        times = zb_time_grid(1.0)
    pcm = dense_oscillation(times, omegas, amps) if omegas.size else 0.0
    return times, pcm + np.outer(times, drift)


SPINOR3 = np.array([0.6, 0.48j, 0.64])
SPINOR4 = np.array([0.5, -0.5j, 0.5, 0.5])


def assert_packet_matches_reference(model, center, spinor):
    packet = WavePacket(width=10.0, center=np.array(center), spinor=spinor)
    traj = wavepacket_trajectory(model, packet, (0.35, 21))
    times, pcm = reference_packet(model, packet, (0.35, 21))
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.pcm - pcm)) <= 1e-12 * max(1.0, np.max(np.abs(pcm)))


@pytest.mark.parametrize(
    "model, center, spinor",
    [
        (maxwell_lattice(1.0, 1.7), (0.0, 0.0), SPINOR3),
        (maxwell_lattice(1.0, 1.7), (0.0, 0.0), 0),
        (kane_mele(1.0, 0.1, 0.0, 0.0), (2 * np.pi / 3, 4 * np.pi / 3), SPINOR4),
        (kane_mele(1.0, 0.1, 0.05, 0.1), (0.0, 0.0), 1),
    ],
    ids=["maxwell-fixed", "maxwell-eigenstate", "kane-mele-degenerate-fixed",
         "kane-mele-rashba-eigenstate"],
)
def test_packet_matches_per_k_reference(model, center, spinor):
    assert_packet_matches_reference(model, center, spinor)


@pytest.mark.parametrize("model, spinor", [(maxwell_lattice(1.0, 1.7), SPINOR3),
                                           (kane_mele(1.0, 0.1, 0.05, 0.1), 1)],
                         ids=["maxwell-fixed", "kane-mele-rashba-eigenstate"])
def test_chunked_packet_matches_per_k_reference(monkeypatch, model, spinor):
    # 441 momenta in five momentum chunks, their pairs in a dozen or more pair chunks
    monkeypatch.setattr(dynamics, "_CHUNK", 97)
    assert_packet_matches_reference(model, (0.0, 0.0), spinor)


@pytest.mark.parametrize(
    "model, grid, spinor, chunk",
    [
        (maxwell_lattice(1.0, 1.7), (0.35, 21), SPINOR3, 100),
        (chiral_ti_3d(2.0), (0.15, 9), 1, 7),
        (kane_mele(1.0, 0.1, 0.0, 0.0), (0.15, 15), SPINOR4, 50),
        (maxwell_lattice(1.0, 1.7), (0.35, 65), 0, _CHUNK),
    ],
    ids=["maxwell-100", "chiral-eigenstate-7", "kane-mele-kramers-50",
         "maxwell-eigenstate-default-chunk"],
)
def test_momentum_chunks_give_one_shot_pair_data(monkeypatch, model, grid, spinor, chunk):
    momenta, states, parts = [], [], []

    def recording_evaluate(model, ks):
        momenta.append(ks)
        return evaluate(model, ks)

    def recording_pair_data(hams, grads, psi):
        states.append(psi)
        parts.append(_pair_data(hams, grads, psi))
        return parts[-1]

    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    monkeypatch.setattr(dynamics, "evaluate", recording_evaluate)
    monkeypatch.setattr(dynamics, "_pair_data", recording_pair_data)
    packet = WavePacket(width=10.0, center=np.zeros(model.momentum_dim), spinor=spinor)
    wavepacket_trajectory(model, packet, grid)
    n_k = grid[1] ** model.momentum_dim
    assert n_k % chunk
    assert [len(ks) for ks in momenta] == [chunk] * (n_k // chunk) + [n_k % chunk]
    ks = np.concatenate(momenta)
    one_shot = _pair_data(evaluate(model, ks), gradient(model, ks), states[0])
    for chunked, whole in zip(zip(*parts), one_shot):
        assert same_bits(np.concatenate(chunked), whole)


# ---------------------------------------------------------------- linearization

def gapped(value, critical):
    return all(abs(value - c) > 1e-3 for c in critical)


@st.composite
def hsp_models(draw):
    """Random gapped instances of the three models with a mass row."""
    kind = draw(st.sampled_from(["maxwell", "chiral", "spin_j"]))
    if kind == "maxwell":
        mass = draw(st.floats(-3.0, 3.0))
        assume(gapped(mass, (-2.0, 0.0, 2.0)))
        return maxwell_lattice(draw(st.sampled_from([-1.3, 0.4, 1.0])), mass)
    if kind == "chiral":
        mass = draw(st.floats(-4.0, 4.0))
        assume(gapped(mass, (-3.0, -1.0, 1.0, 3.0)))
        return chiral_ti_3d(mass)
    j = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
    basis = draw(st.sampled_from(["ladder", "cartesian"])) if j == 1.0 else "ladder"
    v_x, v_y, mass = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
    assume(gapped(v_x, (0.0,)) and gapped(v_y, (0.0,)) and gapped(mass, (0.0,)))
    return spin_j_continuum(j, v_x, v_y, mass, basis)


def reference_linearization(model, K):
    """Mass and velocities in the d-vector layout: coeff(K)[D] and coeff_grad(K)[d, d], d < D."""
    K = np.asarray(K, dtype=float)
    grad = model.coeff_grad(K)
    dim = model.momentum_dim
    return float(model.coeff(K)[dim]), tuple(float(grad[d, d]) for d in range(dim))


def projected_linearization(model, K):
    """Mass and velocities from one np.trace(G @ M) projection per generator."""
    gens = model.generators

    def project(matrix):
        return [np.trace(g @ matrix).real / np.trace(g @ g).real for g in gens]

    dim = model.momentum_dim
    mass = project(evaluate(model, K))[dim]
    dh = gradient(model, K)
    velocities = tuple(float(project(dh[d])[d]) for d in range(dim))
    return float(mass), velocities


@given(model=hsp_models())
def test_stacked_linearization_matches_per_point(model):
    stacked = linearize_at_hsp(model, model.hsps)
    assert isinstance(stacked, tuple) and len(stacked) == len(model.hsps)
    assert stacked == tuple(linearize_at_hsp(model, K) for K in model.hsps)
    # a stack of repeated points gives each point's record at every slot
    repeated = linearize_at_hsp(model, [model.hsps[-1]] * 3 + [model.hsps[0]])
    assert repeated == (stacked[-1],) * 3 + (stacked[0],)
    for lin, K in zip(stacked, model.hsps):
        assert (lin.mass, lin.velocities) == reference_linearization(model, K)
        # the trace projection of H(K) and dH/dk onto the generators, an
        # independent route that rounds on irrational generator entries
        mass, velocities = projected_linearization(model, K)
        np.testing.assert_array_max_ulp(np.array((lin.mass, *lin.velocities)),
                                        np.array((mass, *velocities)), maxulp=4)
        assert lin.nu == int(np.sign(lin.mass) * np.sign(np.prod(lin.velocities)))


# Each sweepable (factory, parameter) pair, its fixed parameters and its exact closings.
SQRT27 = 3 * np.sqrt(3)
SWEEP_PAIRS = {
    "maxwell M": (maxwell_lattice, "M", (-2.0, 0.0, 2.0)),
    "chiral_ti M": (chiral_ti_3d, "M", (-3.0, -1.0, 1.0, 3.0)),
    "kane_mele lambda_v": (kane_mele, "lambda_v", None),
    "kane_mele lambda_so": (kane_mele, "lambda_so", None),
}


@st.composite
def sweeps(draw):
    """One factory's models over drawn values of one sweepable parameter, about a third of
    them at an exact gap closing (lambda_v = +-3 sqrt3 lambda_so for the honeycomb model), the
    rest spread over every phase; t = 0 leaves the honeycomb valleys no velocity."""
    factory, parameter, closings = SWEEP_PAIRS[draw(st.sampled_from(sorted(SWEEP_PAIRS)))]
    if factory is maxwell_lattice:
        fixed = {"t_h": draw(st.sampled_from([-1.3, 0.4, 1.0]))}
    elif factory is kane_mele:
        fixed = {"t": draw(st.sampled_from([1.0, -0.7, 0.4, 0.0])), "lambda_r": draw(
            st.sampled_from([0.0, 0.05])), "lambda_so": draw(st.floats(0.02, 0.1)),
            "lambda_v": draw(st.floats(-0.6, 0.6))}
        other = fixed.pop(parameter)  # the coupling that fixes where this parameter closes
        closings = ((SQRT27 * other, -SQRT27 * other) if parameter == "lambda_v"
                    else (other / SQRT27, -other / SQRT27))
    else:
        fixed = {}
    span = 1.5 * max(abs(c) for c in closings)
    drawn = st.tuples(st.integers(0, 2), st.sampled_from(closings), st.floats(-span, span))
    values = [closing if kind == 0 else value
              for kind, closing, value in draw(st.lists(drawn, min_size=2, max_size=12))]
    return [factory(**fixed, **{parameter: value}) for value in values]


def one_model_row(model):
    """A sweep row from the one-model routes (`linearize_at_hsp` read by `chern_from_hsp` or
    `winding_from_hsp`, or `z2_kane_mele`), or the type and message of what they raise."""
    try:
        if model.invariant == "z2":
            return [z2_kane_mele(model)]
        lins = linearize_at_hsp(model, model.hsps)
        index = (chern_from_hsp(model, model.band_spin(0), lins) if model.invariant == "chern"
                 else invariants.winding_from_hsp(model, lins))
        return [index] + [lin.nu for lin in lins]
    except ValueError as exc:
        return type(exc), str(exc)


@given(rows=sweeps())
def test_stacked_sweep_rows_match_the_one_model_routes(rows):
    stacked = [(type(row), str(row)) if isinstance(row, Exception) else row
               for row in invariants.sweep_rows(rows)]
    expected = [one_model_row(model) for model in rows]
    # entry types too: an int index stays an int, a nu stays an int
    assert [[(type(x), x) for x in row] for row in stacked] == \
        [[(type(x), x) for x in row] for row in expected]
    # the skipped rows are exactly those whose one-model route finds a closed gap
    assert [row[0] is GaplessError for row in stacked] == \
        [row[0] is GaplessError for row in expected]


@st.composite
def plaquette_models(draw):
    """Random gapped 2D lattice models: the spin-1 lattice and a Kane-Mele spin sector."""
    if draw(st.booleans()):
        mass = draw(st.floats(-3.0, 3.0))
        assume(gapped(mass, (-2.0, 0.0, 2.0)))
        return maxwell_lattice(draw(st.sampled_from([-1.3, 0.4, 1.0])), mass)
    lambda_so, lambda_v = draw(st.floats(0.02, 0.1)), draw(st.floats(0.0, 0.6))
    assume(gapped(lambda_v, (3 * np.sqrt(3) * lambda_so,)))
    return kane_mele_spin_sector(1.0, lambda_so, lambda_v, draw(st.sampled_from([1, -1])))


def recorded_plaquette(model, band, grid):
    """Outcome of one ``chern_plaquette`` call (value, or exception type and
    message), the (band, grid) of every plaquette sum and the grids solved."""
    sums, solved = [], []
    real_sum, real_evaluate = invariants._fhs_sum, invariants.evaluate

    def spy_sum(model, band, w, v):
        sums.append((band, len(w)))
        return real_sum(model, band, w, v)

    def spy_evaluate(model, k):
        solved.append(k.shape[0])
        return real_evaluate(model, k)

    with mock.patch.object(invariants, "_fhs_sum", spy_sum), \
            mock.patch.object(invariants, "evaluate", spy_evaluate):
        try:
            outcome = chern_plaquette(model, band, grid)
        except (GaplessError, ValueError) as exc:
            outcome = (type(exc), str(exc))
    return outcome, sums, solved


@given(model=plaquette_models(), grid=st.sampled_from([1, 2, 3, 5, 7, 8, 16, 33]),
       descending=st.booleans())
def test_plaquette_band_tuple_matches_per_band_calls(model, grid, descending):
    bands = tuple(range(model.band_count))[::-1 if descending else 1]
    joint, joint_sums, joint_solved = recorded_plaquette(model, bands, grid)
    # A loop of single-band calls stops at the first band that raises.
    values, sums = [], []
    for band in bands:
        outcome, band_sums, _ = recorded_plaquette(model, band, grid)
        sums += band_sums
        if isinstance(outcome, tuple):
            values = outcome
            break
        values.append(outcome)
    else:
        values = tuple(values)
    assert joint == values
    # every band keeps its own grids, coarse before fine, in tuple order
    assert joint_sums == sums
    # and each grid is diagonalized at most once per call
    assert len(set(joint_solved)) == len(joint_solved)


# Every periodic model with a mass row, the zone degree's domain
MASS_ROW_MODELS = {
    "maxwell": maxwell_lattice(1.0, 1.3),
    "chiral_ti": chiral_ti_3d(1.7),
    "kane_mele_sector": kane_mele_spin_sector(1.0, 0.06, 0.1, -1),
    "ladder_spin_3/2": dataclasses.replace(maxwell_lattice(0.7, -0.4),
                                           generators=spin_matrices(1.5, "ladder")),
}


@given(name=st.sampled_from(sorted(MASS_ROW_MODELS)),
       k=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3))
def test_least_level_spacing_is_the_mass_spacing_times_norm(name, k):
    # the zone degree's gap rule: H = d . G has least level spacing s |d|, s the least
    # level spacing of the mass generator G_D
    model = MASS_ROW_MODELS[name]
    k = np.array(k[:model.momentum_dim])
    spacing = np.diff(np.linalg.eigvalsh(model.generators[model.mass_generator])).min()
    levels = np.linalg.eigvalsh(evaluate(model, k))
    expected = spacing * np.linalg.norm(model.coeff(k))
    assert np.diff(levels).min() == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(t=st.floats(0.5, 1.5), lambda_so=st.floats(0.02, 0.15), lambda_v=st.floats(-0.8, 0.8),
       spin=st.sampled_from([1, -1]))
def test_sector_degree_equals_plaquette_chern(t, lambda_so, lambda_v, spin):
    # the sector gap 2|d| closes only at the valleys, where |lambda_v| = 3 sqrt(3) lambda_so
    assume(abs(abs(lambda_v) - 3 * np.sqrt(3) * lambda_so) > 0.03)
    sector = kane_mele_spin_sector(t, lambda_so, lambda_v, spin)
    assert zone_degree(sector) == chern_plaquette(sector, 0)


# Unimodular changes of the reduced basis, k = A q: each keeps the torus and the degree
SHEARS = (np.eye(2), np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([[1.0, 1.0], [0.0, 1.0]]),
          np.array([[-1.0, 0.0], [-2.0, -1.0]]), np.array([[2.0, 1.0], [1.0, 1.0]]))


def sheared_sector(sector, shear):
    """The sector written in the coordinates q = A^-1 k; its valleys move to A^-1 K."""
    return dataclasses.replace(
        sector, coeff=lambda q: sector.coeff(q @ shear.T),
        hsps=tuple(np.linalg.solve(shear, K) % (2 * np.pi) for K in sector.hsps))


@given(t=st.floats(0.2, 1.5), t_sign=st.sampled_from([1.0, -1.0]), spin=st.sampled_from([1, -1]),
       lambda_so=st.floats(0.0, 0.3), lambda_v=st.floats(-1.0, 1.0),
       shear=st.sampled_from(range(len(SHEARS))))
@example(t=1.0, t_sign=1.0, spin=1, lambda_so=0.06, lambda_v=0.1, shear=1)
@example(t=1.0, t_sign=-1.0, spin=-1, lambda_so=0.06, lambda_v=-0.1, shear=3)
def test_dirac_point_index_is_the_sector_degree(t, t_sign, spin, lambda_so, lambda_v, shear):
    # (1/2) sum over K, K' of sgn(det V) sgn(m) is the signed degree of d/|d|.  On the
    # plain sector det V = 2 V_11 V_22 at both valleys, but V -> V A on a sheared basis,
    # and for A = +-[[1, 0], [2, 1]] the diagonal product of V A has the sign of -det V
    assume(abs(abs(lambda_v) - 3 * np.sqrt(3) * lambda_so) > 0.03)
    sector = sheared_sector(kane_mele_spin_sector(t_sign * t, lambda_so, lambda_v, spin),
                            SHEARS[shear])
    assert chern_from_hsp(sector, -0.5) == zone_degree(sector)


@st.composite
def oscillating_trajectories(draw):
    """A spin-1 lattice trajectory at a random gapped momentum and spinor, and
    its common period (levels -|d|, 0, |d| make every frequency a multiple of |d|)."""
    model = maxwell_lattice(1.0, draw(st.floats(-3.0, 3.0)))
    k = np.array([draw(st.floats(0.0, 2 * np.pi)) for _ in range(2)])
    levels = np.linalg.eigvalsh(evaluate(model, k))
    assume(levels[-1] > 0.05)
    rng = np.random.default_rng(draw(seeds))
    spinor = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    spinor /= np.linalg.norm(spinor)
    samples = draw(st.sampled_from([16, 64]))
    return model, k, spinor, samples, 2 * np.pi / levels[-1]


@given(case=oscillating_trajectories(), shifts=st.integers(1, 5))
def test_rotation_index_is_unchanged_by_whole_period_shifts(case, shifts):
    model, k, spinor, samples, period = case
    traj = pcm_trajectory_exact(model, k, spinor, samples_per_period=samples)
    later = pcm_trajectory_exact(model, k, spinor, traj.times + shifts * period)
    assert np.allclose(later.pcm, traj.pcm, rtol=0.0, atol=1e-9 * np.max(np.abs(traj.pcm)))
    for plane in ((0, 1), (1, 0)):
        assert rotation_index(later, plane) == rotation_index(traj, plane)


@given(exponent=st.integers(-30, 30), sense=st.sampled_from([-1, 1]),
       axes=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
       phase=st.floats(0.0, 2 * np.pi), periods=st.integers(4, 12))
def test_rotation_sense_of_an_ellipse_is_free_of_its_scale(exponent, sense, axes, phase, periods):
    # the noise floor is relative to the trajectory, so no unit turns a
    # rotation into noise
    t = np.linspace(0.0, periods * 2 * np.pi, 64 * periods, endpoint=False)
    pcm = 10.0**exponent * np.stack([axes[0] * np.cos(t + phase),
                                     sense * axes[1] * np.sin(t + phase), np.zeros_like(t)], axis=1)
    assert rotation_index(Trajectory(t, pcm)) == sense


# The paper's claim: the rotation sense of the oscillation at a high-symmetry point is
# its local index nu = sgn(det V) sgn(m), at every gapped parameter, close to a closing too
@given(t_h=st.floats(0.2, 1.5), t_sign=st.sampled_from([1.0, -1.0]),
       closing=st.sampled_from([-2.0, 0.0, 2.0]), side=st.sampled_from([1.0, -1.0]),
       offset=st.floats(0.01, 1.0))
@example(t_h=1.0, t_sign=1.0, closing=2.0, side=-1.0, offset=0.01)
@example(t_h=0.2, t_sign=-1.0, closing=0.0, side=1.0, offset=0.01)
def test_maxwell_rotation_sense_is_the_local_index(t_h, t_sign, closing, side, offset):
    model = maxwell_lattice(t_sign * t_h, closing + side * offset)
    spinor = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    for K, lin in zip(model.hsps, linearize_at_hsp(model, model.hsps)):
        assert rotation_index(pcm_trajectory_exact(model, K, spinor)) == lin.nu


@given(t=st.floats(0.2, 1.5), t_sign=st.sampled_from([1.0, -1.0]), spin=st.sampled_from([1, -1]),
       lambda_so=st.floats(0.0, 0.3), lambda_v=st.floats(-1.0, 1.0))
@example(t=1.0, t_sign=1.0, spin=1, lambda_so=0.06, lambda_v=3 * np.sqrt(3) * 0.06 + 0.01)
def test_sector_rotation_sense_is_the_valley_index(t, t_sign, spin, lambda_so, lambda_v):
    # the valley masses are lambda_v -+ 3 sqrt(3) lambda_so
    assume(abs(abs(lambda_v) - 3 * np.sqrt(3) * lambda_so) >= 0.01)
    sector = kane_mele_spin_sector(t_sign * t, lambda_so, lambda_v, spin)
    spinor = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for K, lin in zip(sector.hsps, linearize_at_hsp(sector, sector.hsps)):
        assert rotation_index(pcm_trajectory_exact(sector, K, spinor)) == lin.nu


# ---------------------------------------------------------------- honeycomb

def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (GaplessError, ValueError) as exc:
        return type(exc), str(exc)


VALLEYS = (np.array([2 * np.pi / 3, 4 * np.pi / 3]), np.array([4 * np.pi / 3, 2 * np.pi / 3]))


def reference_valley_masses(model):
    """Spin-up masses from one solve per valley, K before K': first the gap of the
    full model at both valleys, then per valley the mass (a projection of H) and
    the hopping velocity, whose least singular value is |t| / sqrt(2)."""
    proj = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, 0.0])).astype(complex)
    hams = [evaluate(model, kpt) for kpt in VALLEYS]
    for kpt, ham in zip(VALLEYS, hams):
        w = np.linalg.eigvalsh(ham)
        if w[2] - w[1] < invariants.MASS_FLOOR:
            raise GaplessError(f"honeycomb gap closed at valley k = {tuple(kpt.tolist())}: "
                               f"gap {w[2] - w[1]:.3e}")
    masses = []
    for kpt, ham in zip(VALLEYS, hams):
        mass = float(np.einsum("ij,ji->", proj, ham).real) / 2.0
        if abs(mass) < invariants.MASS_FLOOR:
            raise GaplessError(f"vanishing valley mass at k = {tuple(kpt.tolist())}")
        if not abs(model.params["t"]) / np.sqrt(2.0) >= 1e-12:
            raise NotHighSymmetryError(f"vanishing velocity at k = {tuple(kpt.tolist())}")
        masses.append(mass)
    return masses


def reference_z2(model):
    """The valley mass-sign rule: 1 iff the spin-up masses at K and K' differ in sign."""
    m_k, m_kp = reference_valley_masses(model)
    return 1 if m_k * m_kp < 0 else 0


def named_outcome(fn, model):
    """fn(model), or the type of what it raised and the momentum its message names."""
    try:
        return fn(model)
    except ValueError as exc:
        return type(exc), re.search(r"\(([^)]*)\)", str(exc)).group(1)


def reference_fu_kane(model):
    """Parity product from one solve per invariant momentum, in the library's order."""
    parity_op = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    product = 1
    for trim in ([0.0, 0.0], [np.pi, 0.0], [0.0, np.pi], [np.pi, np.pi]):
        trim = np.array(trim)
        w, v = np.linalg.eigh(evaluate(model, trim))
        if w[2] - w[1] < invariants.MASS_FLOOR:
            raise GaplessError(f"gap closed at the invariant momentum {tuple(trim.tolist())}")
        block = v[:, :2].conj().T @ parity_op @ v[:, :2]
        xi = block.trace().real / 2.0
        if abs(abs(xi) - 1.0) > 1e-6 or np.max(np.abs(block - xi * np.eye(2))) > 1e-6:
            raise ValueError(f"occupied doublet at {tuple(trim.tolist())} "
                             f"is not a parity eigenspace")
        product *= int(np.sign(xi))
    return (1 - product) // 2


BOUNDARY = 3 * np.sqrt(3)


@given(t=st.sampled_from([0.0, 1.0]) | st.floats(-1.5, 1.5), lambda_so=st.floats(0.0, 0.3),
       side=st.sampled_from([1.0, -1.0, None]), lambda_v=st.floats(-1.0, 1.0),
       lambda_r=st.sampled_from([0.0]) | st.floats(0.0, 0.5))
@example(t=1.0, lambda_so=0.06, side=1.0, lambda_v=0.0, lambda_r=0.0)
@example(t=1.0, lambda_so=0.06, side=-1.0, lambda_v=0.0, lambda_r=0.0)
@example(t=1.0, lambda_so=0.06, side=1.0, lambda_v=0.0, lambda_r=0.05)
@example(t=1.0, lambda_so=0.06, side=-1.0, lambda_v=0.0, lambda_r=0.05)
def test_stacked_valley_masses_match_per_valley_solves(t, lambda_so, side, lambda_v, lambda_r):
    # side puts lambda_v on the phase boundary lambda_v = +-3 sqrt(3) lambda_so:
    # without Rashba coupling both valleys close their gap (time reversal maps
    # K to K'), with it the mass of K' (side +1) or K (side -1) vanishes; t = 0
    # leaves no velocity at either valley.  The stacked sector linearization
    # refuses the same valley, or reads the mass-sign rule's Z2
    if side is not None:
        lambda_v = side * BOUNDARY * lambda_so
    model = kane_mele(t, lambda_so, lambda_r, lambda_v)
    assert named_outcome(z2_kane_mele, model) == named_outcome(reference_z2, model)


@pytest.mark.parametrize("lambda_r, message", [
    (0.0, "honeycomb gap closed at valley k = "),
    (0.05, "vanishing valley mass at k = "),
])
def test_valley_masses_refuse_the_phase_boundary(lambda_r, message):
    model = kane_mele(1.0, 0.06, lambda_r, BOUNDARY * 0.06)
    expected = outcome(reference_valley_masses, model)
    assert expected[0] is GaplessError and expected[1].startswith(message)
    assert named_outcome(z2_kane_mele, model) == named_outcome(reference_z2, model)


@given(t=st.sampled_from([0.0]) | st.floats(-1.5, 1.5), lambda_so=st.floats(0.0, 0.3))
@example(t=0.0, lambda_so=0.06)
def test_stacked_parity_products_match_per_momentum_solves(t, lambda_so):
    # t = 0 closes the gap at every invariant momentum; the first one is named
    model = kane_mele(t, lambda_so, 0.0, 0.0)
    assert outcome(z2_fu_kane_parity, model) == outcome(reference_fu_kane, model)


def reference_ramp(t, lambda_so, lambda_v, lambda_r_max):
    """Every one of the six steps diagonalizes the whole 33^2 mesh."""
    axes = 2 * np.pi * np.arange(33) / 33
    mesh = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1)
    out = []
    for lam_r in np.linspace(0.0, lambda_r_max, 6):
        model = kane_mele(t, lambda_so, float(lam_r), lambda_v)
        w = np.linalg.eigvalsh(evaluate(model, mesh))
        out.append((float(lam_r), float((w[..., 2] - w[..., 1]).min())))
    return out


@st.composite
def verify_ramps(draw):
    """The ramps of `zb verify`'s Kane-Mele check."""
    lambda_so, lambda_v = draw(st.floats(0.03, 0.10)), draw(st.floats(0.0, 0.45))
    assume(abs(lambda_v - BOUNDARY * lambda_so) > 0.03)
    return 1.0, lambda_so, lambda_v, 0.05


@st.composite
def broad_ramps(draw):
    """Strong ramps, which move the minimum."""
    return (draw(st.floats(0.5, 1.5)), draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 1.0)),
            draw(st.floats(0.0, 1.0)))


@given(args=verify_ramps() | broad_ramps())
# the minimum moves off the lambda_r = 0 argmin on the second and third ramps
@example(args=(1.0, 0.06, 0.1, 0.05))
@example(args=(0.5449673550017765, 0.11611483994518985, 0.7263565217141167, 0.8682551861790878))
@example(args=(0.528319671145463, 0.037284982949869185, 0.6706244146936303, 0.6471895115742501))
# cases the strategies never draw: no hopping, negative hopping, no intrinsic
# coupling, a negative ramp and the phase boundary
@example(args=(0.0, 0.06, 0.1, 0.05))
@example(args=(-1.0, 0.06, 0.1, 0.05))
@example(args=(1.0, 0.0, 0.1, 0.05))
@example(args=(1.0, 0.06, 0.1, -0.05))
@example(args=(1.0, 0.06, BOUNDARY * 0.06, 0.05))
def test_bounded_ramp_matches_full_mesh_ramp(args):
    assert outcome(rashba_gap_ramp, *args) == outcome(reference_ramp, *args)


def test_bounded_ramp_refuses_the_phase_boundary():
    # the 33^2 mesh holds the valleys, where the gap closes at lambda_r = 0
    args = (1.0, 0.06, BOUNDARY * 0.06, 0.05)
    expected = outcome(reference_ramp, *args)
    assert expected[0][0] == 0.0 and expected[0][1] < invariants.MASS_FLOOR
    assert outcome(rashba_gap_ramp, *args) == expected


@given(t=st.floats(-1.5, 1.5), lambda_so=st.floats(0.0, 0.3), lambda_v=st.floats(-1.0, 1.0),
       lambda_r=st.floats(-1.0, 1.0), grid=st.integers(1, 40))
@example(t=0.0, lambda_so=0.0, lambda_v=0.0, lambda_r=0.0, grid=3)
@example(t=1.0, lambda_so=0.06, lambda_v=BOUNDARY * 0.06, lambda_r=0.05, grid=33)
def test_ramp_bound_premises(t, lambda_so, lambda_v, lambda_r, grid):
    # the ramp's reference gap: at lambda_r = 0 the levels are +-|d_s| of the
    # two spin sectors, so the middle gap is 2 min_s |d_s|
    axes = 2 * np.pi * np.arange(grid) / grid
    mesh = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1)
    levels = np.stack([np.linalg.norm(kane_mele_spin_sector(t, lambda_so, lambda_v, s).coeff(mesh),
                                      axis=-1) for s in (1, -1)])
    scale = 1.0 + levels.max()
    w = np.linalg.eigvalsh(evaluate(kane_mele(t, lambda_so, 0.0, lambda_v), mesh))
    assert np.abs(w[..., 2] - w[..., 1] - 2 * levels.min(axis=0)).max() <= 1e-9 * scale
    # its shift: the Rashba term is lambda_r R(k), with R free of the other couplings
    shift = (evaluate(kane_mele(t, lambda_so, lambda_r, lambda_v), mesh)
             - evaluate(kane_mele(t, lambda_so, 0.0, lambda_v), mesh))
    rashba = evaluate(kane_mele(0.0, 0.0, 1.0, 0.0), mesh)
    assert np.abs(shift - lambda_r * rashba).max() <= 1e-12 * scale


def test_bounded_ramp_solves_a_fraction_of_the_mesh(monkeypatch):
    solved, assembled = [], []
    real_eigvalsh, real_evaluate = np.linalg.eigvalsh, invariants.evaluate

    def counting_eigvalsh(matrices):
        solved.append(matrices.shape[:-2])
        return real_eigvalsh(matrices)

    def counting_evaluate(model, k):
        assembled.append((model.params, k.shape[:-1]))
        return real_evaluate(model, k)

    monkeypatch.setattr(invariants.np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(invariants, "evaluate", counting_evaluate)
    rashba_gap_ramp(1.0, 0.06, 0.1, 0.05)
    # the whole mesh is assembled once, for the Rashba term that bounds every step
    rashba = {"t": 0.0, "lambda_so": 0.0, "lambda_r": 1.0, "lambda_v": 0.0}
    assert assembled[0] == (rashba, (33, 33))
    steps = [shape for _, shape in assembled[1:]]
    assert len(solved) == len(steps) == 6 and solved == steps
    # no step assembles or solves the whole mesh, lambda_r = 0 included
    assert all(len(shape) == 1 and shape[0] < 33**2 for shape in solved)
    assert sum(math.prod(shape) for shape in solved) < 0.2 * 33**2


csv_values = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
              | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
              | st.integers(-10**300, 10**300)
              | st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                 5e-324, -5e-324, 2.2250738585072009e-308, 0, -1, 2**53 + 1]))


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 8))
    return width, draw(st.lists(st.tuples(*[csv_values] * width), max_size=20))


@given(table=csv_tables())
def test_csv_rows_spell_every_value_as_fmt(tmp_path_factory, table):
    width, rows = table
    header = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    zio.write_sweep_csv(path, header, rows)
    expected = ",".join(header) + "\n" + "".join(",".join(map(zio.fmt, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------- spinor stacks

STACK_MODELS = {
    "maxwell": lambda rng: maxwell_lattice(1.0, rng.uniform(-3.5, 3.5)),
    "spin_j": lambda rng: spin_j_continuum(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.5]), 1.0,
                                           rng.uniform(0.5, 1.5), rng.choice([-1, 1]) * 1.3),
    "spin1_cartesian": lambda rng: spin_j_continuum(1.0, 1.0, 0.8, rng.uniform(-2.0, 2.0),
                                                    basis="cartesian"),
    "chiral_ti": lambda rng: chiral_ti_3d(rng.uniform(-4.0, 4.0)),
    # lambda_r = lambda_v = 0 keeps every level doubly degenerate: Kramers chains
    "kane_mele": lambda rng: kane_mele(1.0, rng.uniform(0.03, 0.1), 0.0, 0.0),
}


@st.composite
def spinor_stacks(draw):
    """A model, a momentum, S in 1..120 spinors (zero components make the pairs
    present differ inside one stack; some stacks are band indices), a time grid
    or None, and the drift flag."""
    rng = np.random.default_rng(draw(seeds))
    model = STACK_MODELS[draw(st.sampled_from(sorted(STACK_MODELS)))](rng)
    n, dim = model.band_count, model.momentum_dim
    k = np.zeros(dim) if draw(st.booleans()) else rng.uniform(-np.pi, np.pi, dim)
    count = draw(st.integers(1, 120))
    if draw(st.integers(0, 5)) == 0:
        spinors = [int(b) for b in rng.integers(0, n, count)]
    else:
        raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        raw *= rng.random((count, n)) >= draw(st.sampled_from([0.0, 0.3, 0.6]))
        raw[~raw.any(axis=1), rng.integers(n)] = 1.0
        spinors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    times = None
    if draw(st.booleans()):
        levels = np.linalg.eigvalsh(evaluate(model, k))
        gaps = np.abs(levels[:, None] - levels[None, :])
        gaps = gaps[gaps > 1e-6]
        fast, slow = (gaps.max(), gaps.min()) if gaps.size else (1.0, 1.0)
        times = rng.uniform(-5.0, 5.0) + zb_time_grid(fast, slow, 16, 4)
    return model, k, spinors, times, draw(st.booleans())


@given(case=spinor_stacks())
def test_spinor_stack_matches_single_calls(case):
    model, k, spinors, times, drift = case
    try:
        singles = [pcm_trajectory_exact(model, k, s, times, drift) for s in spinors]
    except ValueError as exc:  # the stack refuses with the first single call's error
        with pytest.raises(type(exc)) as raised:
            pcm_trajectories_exact(model, k, spinors, times, drift)
        assert str(raised.value) == str(exc)
        return
    stack = pcm_trajectories_exact(model, k, spinors, times, drift)
    assert len(stack) == len(singles)
    for got, want in zip(stack, singles):
        assert same_bits(got.times, want.times) and same_bits(got.pcm, want.pcm)
        assert got.metadata == want.metadata


def test_spinor_stack_shares_phase_factors_per_present_pairs(monkeypatch):
    # at Gamma the spin-1 mass basis diagonalizes H and the velocity links only
    # adjacent levels: one-component spinors have no pair present, (a, b, 0) and
    # (0, b, c) one pair each, a full spinor both, so four groups in stack order
    model = maxwell_lattice(1.0, 1.0)
    spinors = [np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8j, 0.0]),
               np.array([0.6, 0.48j, 0.64]), np.array([0.0, 0.8, 0.6j]),
               np.array([0.8, 0.6, 0.0]), np.array([0.0, 1.0, 0.0])]
    calls = []

    def counting_oscillation(times, omegas, amps):
        calls.append(amps.shape)
        return _oscillation(times, omegas, amps)

    monkeypatch.setattr(dynamics, "_oscillation", counting_oscillation)
    for times in (None, zb_time_grid(4.0, 2.0)):
        calls.clear()
        stack = pcm_trajectories_exact(model, ORIGIN2, spinors, times)
        assert calls == [(2, 0, 3), (2, 1, 3), (1, 2, 3), (1, 1, 3)]
        for spinor, got in zip(spinors, stack):
            want = pcm_trajectory_exact(model, ORIGIN2, spinor, times)
            assert same_bits(got.pcm, want.pcm) and same_bits(got.times, want.times)
    assert pcm_trajectories_exact(model, ORIGIN2, []) == ()


def reference_selection_rule(j, m, trials, seed):
    """The selection-rule check with one exact trajectory per trial, as a report tuple."""
    model = spin_j_continuum(j, 1.0, 1.0, m)
    omega, times = abs(m), zb_time_grid(abs(m))
    rng = np.random.default_rng(seed)
    worst_power = 0.0
    ok = True
    for _ in range(trials):
        raw = rng.standard_normal(model.band_count) + 1j * rng.standard_normal(model.band_count)
        spec = zb_spectrum(pcm_trajectory_exact(model, ORIGIN2, raw / np.linalg.norm(raw), times))
        if not spec.peaks:  # a random spinor always oscillates
            ok = False
            continue
        main_bin = int(round(omega / spec.resolution))
        freq, _ = max(spec.peaks, key=lambda pk: pk[1])
        ok &= abs(freq - omega) <= spec.resolution
        away = np.ones(spec.power.shape[0], dtype=bool)
        away[:1] = False
        away[max(0, main_bin - 2):main_bin + 3] = False
        worst_power = max(worst_power, float(spec.power[away].max()) if away.any() else 0.0)
    return (worst_power, bool(ok and worst_power < 1e-10))


@pytest.mark.parametrize("m", [-1.0, 1.0])
@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
def test_selection_rule_stack_matches_per_trial_reference(j, m):
    report = selection_rule_check(j, m, seed=int(20 * j + m))
    assert dataclasses.astuple(report) == reference_selection_rule(j, m, 100, int(20 * j + m))


# ---------------------------------------------------------------- spectrum peaks

def scalar_peak_shift(power3):
    left, mid, right = np.sqrt(power3)
    denom = left - 2 * mid + right
    return 0.5 * (left - right) / denom if denom != 0 else 0.0


def reference_spectrum(traj):
    """``zb_spectrum`` with the peaks found bin by bin in a Python loop."""
    times = traj.times
    n, dt = len(times), times[1] - times[0]
    spec = np.fft.rfft(dynamics._detrended(traj), axis=0)
    omegas = 2 * np.pi * np.fft.rfftfreq(n, d=dt)
    power = np.abs(spec) ** 2
    top = power.max()
    resolution = 2 * np.pi / (n * dt)
    if top <= (1e-12 * n * np.max(np.abs(traj.pcm))) ** 2:
        return omegas, 0.0 * power, (), resolution
    power = power / top
    peaks = []
    for comp in range(power.shape[1]):
        p = power[:, comp]
        for b in range(1, len(p) - 1):
            if p[b] >= 1e-10 and p[b] > p[b - 1] and p[b] >= p[b + 1]:
                peaks.append(((b + scalar_peak_shift(p[b - 1:b + 2])) * resolution, float(p[b])))
    if peaks and max(peaks, key=lambda pk: pk[1])[0] / resolution < 4:
        raise ValueError("sampling too short: fewer than four cycles of the dominant oscillation")
    merged = []
    for freq, pw in sorted(peaks, key=lambda pk: -pk[1]):
        if all(abs(freq - f0) > resolution for f0, _ in merged):
            merged.append((float(freq), pw))
    return omegas, power, tuple(merged), resolution


def spectrum_outcome(fn, traj, transform):
    """``fn(traj)`` with the Fourier transform replaced by ``transform``, as comparable data."""
    with mock.patch.object(np.fft, "rfft", lambda x, axis=-1: transform):
        try:
            result = fn(traj)
        except ValueError as exc:
            return str(exc)
    omegas, power, peaks, resolution = (
        (result.omegas, result.power, result.peaks, result.resolution)
        if isinstance(result, dynamics.ZBSpectrum) else result)
    return omegas.tobytes(), power.tobytes(), power.shape, peaks, resolution


# |1|^2 / |1e5|^2 is exactly 1e-10, the peak floor; small integers make ties and plateaus
transform_values = st.sampled_from([0.0, 1.0, 2.0, 3.0, 3.0, 1e5, 2e4j, 1.0 + 1.0j])


@st.composite
def designed_transforms(draw):
    bins = draw(st.integers(2, 14))
    comps = draw(st.integers(1, 3))
    cells = draw(st.lists(transform_values, min_size=bins * comps, max_size=bins * comps))
    return np.array(cells, dtype=complex).reshape(bins, comps)


@given(transform=designed_transforms(), dt=st.sampled_from([0.05, 0.3, 1.0]))
@example(transform=np.array([[0.0], [1e5], [0.0]], dtype=complex), dt=0.3)  # three bins
@example(transform=np.array([[0, 0], [1, 3], [3, 3], [3, 1], [1e5, 0], [0, 1e5], [1, 0],
                             [1, 1], [0, 0]], dtype=complex), dt=0.05)  # plateaus, ties
@example(transform=np.array([[0], [0], [1], [0], [0], [1], [1e5], [0], [1], [0]],
                            dtype=complex), dt=0.05)  # peaks exactly at the 1e-10 floor
def test_vectorized_peaks_match_the_per_bin_loop(transform, dt):
    n = 2 * (len(transform) - 1)
    traj = Trajectory(dt * np.arange(n), np.ones((n, transform.shape[1])))
    assert spectrum_outcome(zb_spectrum, traj, transform) == spectrum_outcome(
        reference_spectrum, traj, transform)


@pytest.mark.parametrize("model, k", [(maxwell_lattice(1.0, 2.7), [0.3, -0.2]),
                                      (spin_j_continuum(2.5, 0.9, -1.1, 0.7), [0.3, -0.2])])
def test_pure_drift_spectrum_matches_the_per_bin_loop(model, k):
    for band in range(model.band_count):
        traj = pcm_trajectory_exact(model, np.array(k), band, include_drift=True)
        spec = zb_spectrum(traj)
        omegas, power, peaks, resolution = reference_spectrum(traj)
        assert peaks == spec.peaks == () and same_bits(power, spec.power)
        assert same_bits(omegas, spec.omegas) and resolution == spec.resolution


@given(seed=seeds, j=st.sampled_from([0.5, 1.0, 1.5, 2.5, 3.5]), comps=st.integers(1, 3))
def test_trajectory_peaks_match_the_per_bin_loop(seed, j, comps):
    rng = np.random.default_rng(seed)
    model = spin_j_continuum(j, 1.0, rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0))
    k = rng.uniform(-1.0, 1.0, 2)
    traj = pcm_trajectory_exact(model, k, random_unitary(rng, model.band_count)[0])
    traj = Trajectory(traj.times, traj.pcm[:, :comps], traj.metadata)
    spec = zb_spectrum(traj)
    omegas, power, peaks, resolution = reference_spectrum(traj)
    assert peaks == spec.peaks and same_bits(power, spec.power)


# ---------------------------------------------------------------- stacked spectra

def per_trajectory_spectrum(traj):
    """``zb_spectrum`` of one trajectory as it was written before the stacked core: its own
    detrend, transform, normalization and vectorized peak search, merged peaks strongest first."""
    times, pcm = traj.times, traj.pcm
    n, dt = len(times), times[1] - times[0]
    if traj.metadata.get("include_drift"):
        basis = np.stack([np.ones_like(times), times], axis=1)
        clean = pcm - basis @ np.linalg.lstsq(basis, pcm, rcond=None)[0]
    else:
        clean = pcm - pcm.mean(axis=0)
    power = np.abs(np.fft.rfft(clean, axis=0)) ** 2
    omegas = 2 * np.pi * np.fft.rfftfreq(n, d=dt)
    top, resolution = power.max(), 2 * np.pi / (n * dt)
    if top <= (1e-12 * n * np.max(np.abs(pcm))) ** 2:
        return omegas, 0.0 * power, (), resolution
    power = power / top
    mid = power[1:-1]
    comp, b = np.nonzero(((mid >= 1e-10) & (mid > power[:-2]) & (mid >= power[2:])).T)
    b = b + 1
    left, centre, right = np.sqrt(power[b + np.array([[-1], [0], [1]]), comp])
    denom = left - 2 * centre + right
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0)
    peaks = list(zip(((b + shift) * resolution).tolist(), power[b, comp].tolist()))
    if peaks and max(peaks, key=lambda pk: pk[1])[0] / resolution < 4:
        raise ValueError("sampling too short: fewer than four cycles of the dominant oscillation")
    return omegas, power, merge_peaks(sorted(peaks, key=lambda pk: -pk[1]), resolution), resolution


def merge_peaks(peaks, resolution):
    merged = []
    for freq, pw in peaks:
        if all(abs(freq - f0) > resolution for f0, _ in merged):
            merged.append((freq, pw))
    return tuple(merged)


def stacked_outcome(pcms, times, drift):
    """Per trajectory (omegas, power, merged peaks, resolution) from one `_spectra` pass over
    the trajectories side by side, or the message of what it raises."""
    width = pcms[0].shape[1]
    try:
        omegas, power, peaks, resolution = dynamics._spectra(
            Trajectory(times, np.hstack(pcms), {"include_drift": drift}), width)
    except ValueError as exc:
        return str(exc)
    return [(omegas.tobytes(), power[:, s * width:(s + 1) * width].tobytes(),
             merge_peaks(line, resolution), resolution) for s, line in enumerate(peaks)]


def per_trajectory_outcome(pcms, times, drift):
    out = []
    for pcm in pcms:
        try:
            omegas, power, peaks, resolution = per_trajectory_spectrum(
                Trajectory(times, pcm, {"include_drift": drift}))
        except ValueError as exc:
            return str(exc)
        out.append((omegas.tobytes(), power.tobytes(), peaks, resolution))
    return out


@given(seed=seeds, drift=st.booleans(), count=st.integers(1, 5), comps=st.integers(2, 3),
       silent=st.booleans(), noise=st.booleans())
def test_stacked_spectra_match_the_per_trajectory_spectrum(seed, drift, count, comps, silent,
                                                           noise):
    # random spin-j trajectories on one grid, with or without a drift line, and optionally a
    # silent band eigenstate and a noise trajectory rich in peaks, at random positions; one
    # column alone is summed pairwise by its mean, so stacks carry two or three components
    rng = np.random.default_rng(seed)
    model = spin_j_continuum(rng.choice([0.5, 1.0, 1.5, 2.5]), 1.0, rng.uniform(0.5, 1.5),
                             rng.uniform(0.5, 2.0))
    k, times = rng.uniform(-1.0, 1.0, 2), zb_time_grid(rng.uniform(4.0, 6.0), 0.5)
    spinors = [random_unitary(rng, model.band_count)[0] for _ in range(count)]
    stack = pcm_trajectories_exact(model, k, spinors, times, drift)
    pcms = [traj.pcm[:, :comps] for traj in stack]
    if silent:
        band = pcm_trajectory_exact(model, k, int(rng.integers(model.band_count)), times, drift)
        pcms.insert(int(rng.integers(len(pcms) + 1)), band.pcm[:, :comps])
    if noise:
        line = np.outer(times, rng.uniform(-1.0, 1.0, comps))
        pcms.insert(int(rng.integers(len(pcms) + 1)),
                    rng.standard_normal((len(times), comps)) + line)
    outcome = stacked_outcome(pcms, times, drift)
    assert outcome == per_trajectory_outcome(pcms, times, drift)
    if silent and not isinstance(outcome, str):
        assert any(peaks == () for _, _, peaks, _ in outcome)


@pytest.mark.parametrize("drift", [False, True])
def test_stacked_spectra_raise_on_a_too_short_trajectory(drift):
    # two periods of the dominant line are under the four that the peak search needs: the
    # stack raises what the per-trajectory spectrum raises for that trajectory alone
    model = spin_j_continuum(1.5, 1.0, 1.0, 1.0)
    times = zb_time_grid(4.0, 0.5)
    spinors = list(random_unitary(np.random.default_rng(8), model.band_count)[:2])
    pcms = [traj.pcm for traj in pcm_trajectories_exact(model, np.array([0.2, -0.1]), spinors,
                                                         times, drift)]
    pcms.insert(1, np.stack([np.cos(4 * np.pi * times / times[-1])] * 3, axis=1))
    message = "sampling too short: fewer than four cycles of the dominant oscillation"
    assert isinstance(per_trajectory_outcome(pcms[:1], times, drift), list)
    assert per_trajectory_outcome(pcms, times, drift) == message
    assert stacked_outcome(pcms, times, drift) == message
