"""Generators: spin-J matrices and the SU(3) Gell-Mann basis.

Each builder returns a plain (count, n, n) array of Hermitian traceless
matrices, in a fixed row order; a model's band count is its n.  Two spin-1
representations are supported.  The ladder basis orders states by
descending Jz so that Jz = diag(J, J-1, ..., -J); the "cartesian" basis is
the 3x3 adjoint representation (Ji)_jk = -i eps_ijk used by the spin-1
lattice model in this package.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spin_matrices", "gell_mann", "adjacent_amplitude"]


def _check_spin(j) -> int:
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-9 or j < 0.5:
        raise ValueError(f"j must be a half-integer >= 1/2, got {j}")
    return int(round(two_j))


def spin_matrices(j, basis: str = "ladder") -> np.ndarray:
    """Spin-j angular momentum matrices as the (3, n, n) stack (Jx, Jy, Jz),
    [Ji, Jj] = i eps_ijk Jk."""
    two_j = _check_spin(j)
    if basis == "cartesian":
        if two_j != 2:
            raise ValueError("cartesian basis is only defined for j = 1")
        jx = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
        jy = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], dtype=complex)
        jz = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    elif basis == "ladder":
        dim = two_j + 1
        m = j - np.arange(dim)  # descending J .. -J
        jplus = np.zeros((dim, dim), dtype=complex)
        for i in range(1, dim):
            jplus[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
        jx = 0.5 * (jplus + jplus.conj().T)
        jy = -0.5j * (jplus - jplus.conj().T)
        jz = np.diag(m).astype(complex)
    else:
        raise ValueError(f"unknown basis {basis!r}; expected 'ladder' or 'cartesian'")
    return np.stack([jx, jy, jz])


def gell_mann() -> np.ndarray:
    """The eight 3x3 Gell-Mann matrices lambda1 .. lambda8 as an (8, 3, 3) stack,
    tr(la lb) = 2 delta_ab."""
    s3 = 1.0 / np.sqrt(3.0)
    return np.array(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
            [[s3, 0, 0], [0, s3, 0], [0, 0, -2 * s3]],
        ],
        dtype=complex,
    )


def adjacent_amplitude(j, a: int, b: int) -> float:
    """Oscillation amplitude factor for the band pair (a, b) of a spin-j system.

    Bands are labelled 1..2j+1 counted from the lowest.  Non-adjacent pairs
    return 0: only neighbouring bands interfere in these models.  For
    adjacent pairs the value is sqrt((j+1)(a+b-1) - ab), which equals twice
    the |<a|Jx|a+1>| ladder matrix element.
    """
    two_j = _check_spin(j)
    dim = two_j + 1
    for label in (a, b):
        if not isinstance(label, (int, np.integer)) or not 1 <= label <= dim:
            raise ValueError(f"band label {label} outside 1..{dim}")
    if abs(a - b) != 1:
        return 0.0
    return float(np.sqrt((j + 1) * (a + b - 1) - a * b))
