import numpy as np
import pytest

from zbtopo import adjacent_amplitude, gell_mann, spin_matrices

SPINS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]


def test_spin_half_is_half_pauli():
    jx, jy, jz = spin_matrices(0.5)
    assert np.allclose(jx, np.array([[0, 1], [1, 0]]) / 2)
    assert np.allclose(jy, np.array([[0, -1j], [1j, 0]]) / 2)
    assert np.allclose(jz, np.array([[1, 0], [0, -1]]) / 2)


def test_spin1_cartesian_matrices():
    jx, jy, jz = spin_matrices(1, "cartesian")
    assert np.array_equal(jz, np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]))
    assert np.array_equal(jx, np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]))
    assert np.array_equal(jy, np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]))


def test_spin_three_half_top_element():
    jx, _, _ = spin_matrices(1.5)
    assert abs(jx[0, 1] - np.sqrt(3.0) / 2) < 1e-12


def test_ladder_jz_descending():
    _, _, jz = spin_matrices(2.5)
    assert np.allclose(np.diag(jz).real, [2.5, 1.5, 0.5, -0.5, -1.5, -2.5])


@pytest.mark.parametrize("j", SPINS)
def test_commutation_and_casimir_ladder(j):
    gens = spin_matrices(j)
    jx, jy, jz = gens
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-12
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-12
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(gens.shape[-1]))) < 1e-12
    for g in gens:
        assert abs(np.trace(g)) < 1e-12
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_commutation_and_casimir_cartesian():
    jx, jy, jz = spin_matrices(1, "cartesian")
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    assert np.max(np.abs(jx @ jx + jy @ jy + jz @ jz - 2 * np.eye(3))) < 1e-12


def test_spin1_bases_unitarily_equivalent():
    ladder = spin_matrices(1, "ladder")
    cart = spin_matrices(1, "cartesian")
    for a, b in zip(ladder, cart):
        assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-12)


def test_cartesian_requires_spin1():
    with pytest.raises(ValueError, match="cartesian"):
        spin_matrices(1.5, "cartesian")


def test_bad_spin_rejected():
    with pytest.raises(ValueError):
        spin_matrices(0.7)
    with pytest.raises(ValueError):
        spin_matrices(0.0)


def test_gell_mann_normalization():
    mats = gell_mann()
    for a in range(8):
        for b in range(8):
            val = np.trace(mats[a] @ mats[b]).real
            assert abs(val - (2.0 if a == b else 0.0)) < 1e-12


def test_lambda7_convention_and_eigenvectors():
    lam7 = gell_mann()[6]  # rows are lambda1 .. lambda8
    assert np.array_equal(lam7, np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]))
    plus = np.array([0, 1, 1j]) / np.sqrt(2.0)
    minus = np.array([0, 1, -1j]) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0, 0.0])
    assert np.allclose(lam7 @ plus, plus)
    assert np.allclose(lam7 @ minus, -minus)
    assert np.allclose(lam7 @ zero, 0.0)


def test_lambda4_through_7_spectra():
    for g in gell_mann()[3:7]:  # lambda4 .. lambda7
        assert abs(np.trace(g)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(g), [-1.0, 0.0, 1.0], atol=1e-12)


def test_structure_constants_antisymmetric():
    mats = gell_mann()
    f = np.zeros((8, 8, 8))
    for a in range(8):
        for b in range(8):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            for c in range(8):
                f[a, b, c] = np.trace(comm @ mats[c]).imag / 4.0
    assert np.max(np.abs(f + np.transpose(f, (1, 0, 2)))) < 1e-12
    assert np.max(np.abs(f + np.transpose(f, (0, 2, 1)))) < 1e-12


def test_adjacent_amplitude_values():
    assert abs(adjacent_amplitude(0.5, 1, 2) - 1.0) < 1e-15
    assert adjacent_amplitude(1, 1, 3) == 0.0
    assert abs(adjacent_amplitude(1, 1, 2) - np.sqrt(2.0)) < 1e-15
    assert adjacent_amplitude(1, 2, 2) == 0.0


@pytest.mark.parametrize("j", SPINS)
def test_adjacent_amplitude_symmetric_and_nonnegative(j):
    dim = int(round(2 * j)) + 1
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            val = adjacent_amplitude(j, a, b)
            assert val >= 0.0
            assert val == adjacent_amplitude(j, b, a)
            if abs(a - b) != 1:
                assert val == 0.0


def test_adjacent_amplitude_label_range():
    with pytest.raises(ValueError, match="label"):
        adjacent_amplitude(1, 0, 1)
    with pytest.raises(ValueError, match="label"):
        adjacent_amplitude(1, 1, 4)


def test_amplitude_tracks_ladder_matrix_element():
    # one J-independent constant relates the pair amplitude to |<a|Jx|a+1>|;
    # measured once here: the ratio is exactly 2 for every (J, a)
    ratios = []
    for j in SPINS:
        jx, _, _ = spin_matrices(j)
        dim = int(round(2 * j)) + 1
        for a in range(1, dim):
            element = abs(jx[dim - a, dim - a - 1])  # ladder rows are descending m
            ratios.append(adjacent_amplitude(j, a, a + 1) / element)
    assert np.allclose(ratios, ratios[0], atol=1e-12)
    assert abs(ratios[0] - 2.0) < 1e-12
