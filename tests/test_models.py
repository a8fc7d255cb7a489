import dataclasses

import numpy as np
import pytest

from zbtopo import (
    BlochModel,
    chiral_symmetry,
    chiral_ti_3d,
    evaluate,
    gradient,
    kane_mele,
    kane_mele_spin_sector,
    maxwell_lattice,
    spin_j_continuum,
)
from zbtopo.dynamics import _pair_data

RNG = np.random.default_rng(314)

ALL_MODELS = [
    ("maxwell", lambda: maxwell_lattice(1.0, 1.3)),
    ("kane_mele", lambda: kane_mele(1.0, 0.06, 0.05, 0.1)),
    ("chiral", lambda: chiral_ti_3d(1.7)),
    ("spin_j", lambda: spin_j_continuum(1.5, 0.7, 1.2, 0.5)),
    ("km_sector", lambda: kane_mele_spin_sector(1.0, 0.06, 0.1, +1)),
]


@pytest.mark.parametrize("name,factory", ALL_MODELS)
def test_hermitian_everywhere(name, factory):
    model = factory()
    ks = RNG.uniform(-np.pi, np.pi, (200, model.momentum_dim))
    h = evaluate(model, ks)
    assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-12


@pytest.mark.parametrize("name,factory,bands", [
    entry + (bands,) for entry, bands in zip(ALL_MODELS, (3, 4, 3, 4, 2))])
def test_band_count_is_the_generator_dimension(name, factory, bands):
    # read off the generator array, so no model can declare another count
    model = factory()
    assert model.band_count == model.generators.shape[-1] == bands
    assert "band_count" not in {f.name for f in dataclasses.fields(BlochModel)}
    with pytest.raises(TypeError):
        dataclasses.replace(model, band_count=bands + 1)


@pytest.mark.parametrize("name,factory", ALL_MODELS)
def test_gradient_matches_central_difference(name, factory):
    model = factory()
    step = 1e-5
    for _ in range(100):
        k = RNG.uniform(-np.pi, np.pi, model.momentum_dim)
        grad = gradient(model, k)
        for d in range(model.momentum_dim):
            offset = np.zeros(model.momentum_dim)
            offset[d] = step
            fd = (evaluate(model, k + offset) - evaluate(model, k - offset)) / (2 * step)
            assert np.max(np.abs(grad[d] - fd)) < 1e-6


@pytest.mark.parametrize(
    "factory",
    [lambda: maxwell_lattice(1.0, 1.3),
     lambda: kane_mele(1.0, 0.06, 0.05, 0.1),
     lambda: chiral_ti_3d(0.7)],
)
def test_zone_periodicity(factory):
    model = factory()
    ks = RNG.uniform(-np.pi, np.pi, (50, model.momentum_dim))
    for axis in range(model.momentum_dim):
        shift = np.zeros(model.momentum_dim)
        shift[axis] = 2 * np.pi
        dev = np.max(np.abs(evaluate(model, ks + shift) - evaluate(model, ks)))
        assert dev < 1e-12


def test_momentum_dimension_mismatch():
    model = maxwell_lattice(1.0, 1.0)
    with pytest.raises(ValueError, match="momentum dimension"):
        evaluate(model, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="momentum dimension"):
        gradient(model, [0.0])


# ---------------------------------------------------------------- spin-J

def test_spin_j_at_origin_is_mass_term():
    model = spin_j_continuum(1, 2.0, 3.0, 0.7)
    _, _, jz = model.generators
    assert np.allclose(evaluate(model, [0.0, 0.0]), 0.7 * jz)


def test_spin_half_eigenvalues_at_unit_momentum():
    model = spin_j_continuum(0.5, 1.0, 1.0, 1.0)
    w = np.linalg.eigvalsh(evaluate(model, [1.0, 0.0]))
    assert np.allclose(w, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
def test_spin_j_spectrum_pattern(j):
    model = spin_j_continuum(j, 0.8, 1.1, 0.6)
    for _ in range(10):
        p = RNG.uniform(-2, 2, 2)
        norm = np.sqrt((0.8 * p[0]) ** 2 + (1.1 * p[1]) ** 2 + 0.6**2)
        expected = norm * (np.arange(-j, j + 1))
        w = np.linalg.eigvalsh(evaluate(model, p))
        assert np.allclose(w, expected, atol=1e-10)


def test_spin_j_gradient_is_constant_velocity():
    model = spin_j_continuum(1.5, 0.4, 0.9, 0.2)
    grad = gradient(model, [0.3, -0.8])
    jx, jy, _ = model.generators
    assert np.allclose(grad[0], 0.4 * jx)
    assert np.allclose(grad[1], 0.9 * jy)


# ---------------------------------------------------------------- spin-1 lattice

def test_maxwell_gap_closes_at_transition():
    model = maxwell_lattice(1.0, 2.0)
    assert np.max(np.abs(evaluate(model, [0.0, 0.0]))) < 1e-14


def test_maxwell_m1_spectrum_at_origin():
    model = maxwell_lattice(1.0, 1.0)
    h = evaluate(model, [0.0, 0.0])
    _, _, jz = model.generators
    assert np.allclose(h, -2.0 * jz)
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, 0.0, 2.0])


def test_maxwell_rejects_zero_hopping():
    with pytest.raises(ValueError):
        maxwell_lattice(0.0, 1.0)


def test_maxwell_hsps_proportional_to_mass_generator():
    model = maxwell_lattice(1.0, 0.7)
    _, _, jz = model.generators
    for K in model.hsps:
        h = evaluate(model, K)
        coef = np.trace(jz @ h).real / 2.0
        assert np.max(np.abs(h - coef * jz)) < 1e-12


def test_maxwell_gradient_at_origin():
    model = maxwell_lattice(1.0, 1.0)
    grad = gradient(model, [0.0, 0.0])
    jx, jy, _ = model.generators
    assert np.allclose(grad[0], 2.0 * jx)
    assert np.allclose(grad[1], 2.0 * jy)


def test_band_drift_matches_band_slopes():
    # the band-index drift <n| dH/dk |n> is the group velocity dE_n/dk
    model = maxwell_lattice(1.0, 1.3)
    k = np.array([0.4, -1.1])
    hams, grads = evaluate(model, k[None]), gradient(model, k[None])
    velocities = np.array([_pair_data(hams, grads, band)[2][0] for band in range(3)])
    step = 1e-6
    for d in range(2):
        offset = np.zeros(2)
        offset[d] = step
        wp = np.linalg.eigvalsh(evaluate(model, k + offset))
        wm = np.linalg.eigvalsh(evaluate(model, k - offset))
        fd = (wp - wm) / (2 * step)
        assert np.allclose(velocities[:, d], fd, atol=1e-5)


# ---------------------------------------------------------------- honeycomb

def test_kane_mele_spin_conserved_without_rashba():
    model = kane_mele(1.0, 0.06, 0.0, 0.1)
    sz = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    ks = RNG.uniform(-np.pi, np.pi, (100, 2))
    h = evaluate(model, ks)
    comm = np.einsum("ij,kjl->kil", sz, h) - np.einsum("kij,jl->kil", h, sz)
    assert np.max(np.abs(comm)) < 1e-14


def test_kane_mele_graphene_limit_dirac_point():
    model = kane_mele(1.0, 0.0, 0.0, 0.0)
    K = np.array([2 * np.pi / 3, 4 * np.pi / 3])
    assert np.max(np.abs(np.linalg.eigvalsh(evaluate(model, K)))) < 1e-12


def test_kane_mele_pure_staggered_potential():
    model = kane_mele(0.0, 0.0, 0.0, 1.0)
    ks = RNG.uniform(-np.pi, np.pi, (20, 2))
    w = np.linalg.eigvalsh(evaluate(model, ks))
    assert np.allclose(w, np.broadcast_to([-1.0, -1.0, 1.0, 1.0], w.shape))


def test_kane_mele_time_reversed_spectra():
    model = kane_mele(1.0, 0.06, 0.0, 0.1)
    ks = RNG.uniform(-np.pi, np.pi, (100, 2))
    w1 = np.linalg.eigvalsh(evaluate(model, ks))
    w2 = np.linalg.eigvalsh(evaluate(model, -ks))
    assert np.max(np.abs(w1 - w2)) < 1e-12


def test_kane_mele_sector_matches_full_model():
    # at lambda_r = 0 the full spectrum is the union of the two sector spectra
    t, so, v = 1.0, 0.06, 0.1
    full = kane_mele(t, so, 0.0, v)
    up = kane_mele_spin_sector(t, so, v, +1)
    down = kane_mele_spin_sector(t, so, v, -1)
    for _ in range(20):
        k = RNG.uniform(-np.pi, np.pi, 2)
        w_full = np.sort(np.linalg.eigvalsh(evaluate(full, k)))
        w_split = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(evaluate(up, k)), np.linalg.eigvalsh(evaluate(down, k))]
            )
        )
        assert np.allclose(w_full, w_split, atol=1e-12)
    # and each sector is the full model's spin block (sublattice (x) spin order)
    ks = RNG.uniform(-7.0, 7.0, (50, 2))
    for sector, block in ((up, [0, 2]), (down, [1, 3])):
        for fn in (evaluate, gradient):
            h_full = fn(full, ks)[..., block, :][..., block]
            assert np.allclose(fn(sector, ks), h_full, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------- chiral 3D

# rows of `chiral_ti_3d`'s generators, which are lambda4 .. lambda7
CHIRAL_LAMBDA4, CHIRAL_LAMBDA7 = 0, 3

def test_chiral_corner_hamiltonians():
    model = chiral_ti_3d(1.2)
    lam7 = model.generators[CHIRAL_LAMBDA7]
    assert np.allclose(evaluate(model, [0.0, 0.0, 0.0]), (1.2 - 3) * lam7)
    pi = np.pi
    assert np.allclose(evaluate(model, [pi, pi, pi]), (1.2 + 3) * lam7)


def test_chiral_corners_proportional_to_mass_generator():
    model = chiral_ti_3d(0.4)
    lam7 = model.generators[CHIRAL_LAMBDA7]
    for K in model.hsps:
        h = evaluate(model, K)
        coef = np.trace(lam7 @ h).real / 2.0
        assert np.max(np.abs(h - coef * lam7)) < 1e-12


def test_chiral_symmetry_operator():
    model = chiral_ti_3d(2.0)
    s = chiral_symmetry(model)
    assert np.allclose(s, np.diag([1.0, 1.0, -1.0]), atol=1e-9)
    assert np.allclose(s @ s, np.eye(3), atol=1e-12)
    ks = RNG.uniform(-np.pi, np.pi, (100, 3))
    h = evaluate(model, ks)
    anti = np.einsum("ij,kjl,lm->kim", s, h, s) + h
    assert np.max(np.abs(anti)) < 1e-12


@pytest.mark.parametrize("model", [
    maxwell_lattice(1.0, 1.0),
    kane_mele(1.0, 0.06, 0.1, 0.1),
], ids=["maxwell", "kane_mele"])
def test_chiral_symmetry_refuses_a_model_without_one(model):
    # no S anticommutes with all three spin-1 generators, nor with the
    # honeycomb model's ten
    with pytest.raises(ValueError, match="no chiral symmetry operator found"):
        chiral_symmetry(model)


def test_chiral_gradient_at_corner():
    model = chiral_ti_3d(2.0)
    grad = gradient(model, [np.pi, 0.0, 0.0])
    assert np.allclose(grad[0], -model.generators[CHIRAL_LAMBDA4], atol=1e-12)


def test_chiral_middle_band_flat():
    model = chiral_ti_3d(1.7)
    ks = RNG.uniform(-np.pi, np.pi, (50, 3))
    w = np.linalg.eigvalsh(evaluate(model, ks))
    assert np.max(np.abs(w[:, 1])) < 1e-12


# ---------------------------------------------------------------- mass eigenbasis

R2 = 1 / np.sqrt(2.0)
# the module docstring's vectors, columns for mass eigenvalues -1, 0, +1
SPIN1_BASIS = np.array([[R2, 0, R2], [-1j * R2, 0, 1j * R2], [0, 1, 0]])
CHIRAL_BASIS = np.array([[0, 1, 0], [R2, 0, R2], [-1j * R2, 0, 1j * R2]])
# Jz and sz are diagonal and descending, so their ascending basis is the
# reversed identity: a sector spinor reads (sz = -1, sz = +1)
MASS_ROW_MODELS = [
    ("maxwell", lambda: maxwell_lattice(1.0, 1.3), SPIN1_BASIS),
    ("chiral", lambda: chiral_ti_3d(1.7), CHIRAL_BASIS),
    ("spin_j-cartesian", lambda: spin_j_continuum(1.0, 0.7, 1.2, 0.5, "cartesian"), SPIN1_BASIS),
] + [
    (f"spin_j-ladder-{j}", lambda j=j: spin_j_continuum(j, 0.7, 1.2, 0.5),
     np.eye(int(2 * j) + 1)[:, ::-1])
    for j in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
] + [
    (f"km_sector{spin:+d}", lambda spin=spin: kane_mele_spin_sector(1.0, 0.06, 0.1, spin),
     np.eye(2)[:, ::-1])
    for spin in (1, -1)
]


@pytest.mark.parametrize("name,factory,expected", MASS_ROW_MODELS,
                         ids=[entry[0] for entry in MASS_ROW_MODELS])
def test_mass_eigenbasis_ascends_through_the_mass_row(name, factory, expected):
    model = factory()
    assert model.mass_generator == model.momentum_dim == len(model.generators) - 1
    mass = model.generators[model.mass_generator]
    basis = model.mass_eigenbasis()
    assert np.allclose(basis.conj().T @ basis, np.eye(model.band_count), rtol=0.0, atol=1e-14)
    # each column is an eigenvector of the mass generator, eigenvalues ascending
    levels = np.einsum("in,ij,jn->n", basis.conj(), mass, basis).real
    assert np.allclose(mass @ basis, basis * levels, rtol=0.0, atol=1e-14)
    assert (np.diff(levels) > 0.5).all()
    assert np.allclose(basis, expected, rtol=0.0, atol=1e-15)


def test_full_kane_mele_has_no_mass_row():
    model = kane_mele(1.0, 0.06, 0.05, 0.1)
    assert model.mass_generator is None
    assert np.array_equal(model.mass_eigenbasis(), np.eye(4))
