"""Dense Hermitian eigensolves for small matrices (dim 2..8), one or a stack.

Eigenvalues come back ascending with a fixed eigenvector phase convention
(largest-magnitude component made real and positive) so repeated runs emit
byte-identical numbers.  Degenerate eigenvalues are not merged here: callers
that sum over level pairs decide what counts as degenerate (see
:mod:`zbtopo.dynamics`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SpectralDecomposition", "hermitian_eig"]

HERMITICITY_TOL = 1e-9
MAX_DIM = 8


class SpectralDecomposition(NamedTuple):
    """Ascending ``energies`` (..., n) and eigenvector columns ``states`` (..., n, n)."""

    energies: np.ndarray
    states: np.ndarray


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix or a stack (..., n, n) in one ``eigh`` call.

    ``states[..., :, i]`` is the eigenvector of ``energies[..., i]``.  Raises
    ``ValueError`` if the input is further than ``HERMITICITY_TOL`` from
    Hermitian (the defect norm is included in the message) or if the
    dimension is outside 2..8.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if not 2 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside the supported range 2..{MAX_DIM}")
    a_dag = np.swapaxes(a.conj(), -1, -2)
    defect = float(np.max(np.abs(a - a_dag), initial=0.0))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max|A - A^dag| = {defect:.3e}")

    w, v = np.linalg.eigh(0.5 * (a + a_dag))
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    v = v * np.divide(np.abs(pivot), pivot, out=np.ones_like(pivot), where=pivot != 0)
    return SpectralDecomposition(w, v)
