import numpy as np
import pytest

from zbtopo import hermitian_eig, spin_matrices


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def rebuild(dec):
    """sum_i E_i v_i v_i^dag from the eigenvector columns."""
    return (dec.states * dec.energies) @ dec.states.conj().T


@pytest.mark.parametrize("dim", range(2, 9))
def test_projector_invariants_random(dim):
    rng = np.random.default_rng(100 + dim)
    eye = np.eye(dim)
    for _ in range(1000):
        h = random_hermitian(rng, dim)
        dec = hermitian_eig(h)
        projectors = np.einsum("ig,jg->gij", dec.states, dec.states.conj())
        total = projectors.sum(axis=0)
        assert np.max(np.abs(total - eye)) < 1e-10
        for i, qi in enumerate(projectors):
            for j, qj in enumerate(projectors):
                expect = qi if i == j else 0.0
                assert np.max(np.abs(qi @ qj - expect)) < 1e-10
        assert np.max(np.abs(rebuild(dec) - h)) < 1e-10
        assert np.all(np.diff(dec.energies) >= -1e-12)


def test_pauli_z_pattern():
    dec = hermitian_eig(np.diag([1.0, -1.0]))
    assert np.allclose(dec.energies, [-1.0, 1.0])
    assert np.allclose(np.outer(dec.states[:, 0], dec.states[:, 0].conj()), np.diag([0.0, 1.0]))
    assert np.allclose(np.outer(dec.states[:, 1], dec.states[:, 1].conj()), np.diag([1.0, 0.0]))


def test_spin1_jz_spectrum():
    _, _, jz = spin_matrices(1, "ladder")
    dec = hermitian_eig(jz)
    assert np.allclose(dec.energies, [-1.0, 0.0, 1.0])


def test_random_5x5_reconstruction_seed42():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 5)
    dec = hermitian_eig(h)
    assert np.linalg.norm(rebuild(dec) - h) < 1e-10


def test_degenerate_levels_grouped():
    u = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4))
                     + 1j * np.random.default_rng(6).standard_normal((4, 4)))[0]
    h = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
    dec = hermitian_eig(h)
    # one column per level; the degenerate pair's columns span its eigenspace
    assert np.allclose(dec.energies, [1.0, 1.0, 2.0, 3.0])
    pair = dec.states[:, :2] @ dec.states[:, :2].conj().T
    assert abs(np.trace(pair).real - 2.0) < 1e-10
    assert np.max(np.abs(pair - u[:, :2] @ u[:, :2].conj().T)) < 1e-10


def test_phase_convention_deterministic():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    a = hermitian_eig(h)
    b = hermitian_eig(h.copy())
    assert np.array_equal(a.states, b.states)
    for col in a.states.T:
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12


def test_non_hermitian_rejected_with_norm():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(bad)


@pytest.mark.parametrize("dim", [1, 9])
def test_dimension_range_enforced(dim):
    with pytest.raises(ValueError, match="dimension"):
        hermitian_eig(np.eye(dim))


def test_eigenvalues_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(77)
    for dim in range(2, 9):
        for _ in range(50):
            h = random_hermitian(rng, dim)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            w1 = hermitian_eig(h).energies
            w2 = hermitian_eig(q @ h @ q.conj().T).energies
            assert np.max(np.abs(w1 - w2)) < 1e-9

