"""Dense Hermitian spectral decompositions for small matrices (dim 2..8).

Eigenvalues come back ascending with a fixed eigenvector phase convention
(largest-magnitude component made real and positive) so repeated runs emit
byte-identical numbers.  Levels closer than ``DEGENERACY_TOL`` are merged
into a single rank-g projector, which keeps downstream band algebra from
dividing by a vanishing gap at exactly degenerate points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["SpectralDecomposition", "hermitian_eig"]

HERMITICITY_TOL = 1e-9
DEGENERACY_TOL = 1e-8
MAX_DIM = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-data of one Hermitian matrix or a stack (layouts: :func:`hermitian_eig`).

    ``energies``/``states`` hold the raw ascending eigensystem; ``levels``
    and ``projectors`` hold the degeneracy-merged version (projector i has
    rank ``group_sizes[i]``).  ``group_velocities`` is a (levels, 3) array
    filled by callers that hold the momentum gradient of the matrix.
    """

    energies: np.ndarray
    states: np.ndarray
    levels: np.ndarray
    projectors: np.ndarray
    group_sizes: tuple[int, ...] | np.ndarray
    group_velocities: np.ndarray | None = None

    def reconstruct(self) -> np.ndarray:
        return np.einsum("...g,...gij->...ij", self.levels, self.projectors)

    def with_velocities(self, velocities) -> "SpectralDecomposition":
        return replace(self, group_velocities=np.asarray(velocities, dtype=float))


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix or a stack (..., n, n) into merged levels and projectors.

    One matrix gets the compact layout: ``levels`` (G,), ``projectors`` (G, n, n)
    and a ``group_sizes`` tuple, one entry per merged group.  A stack gets the
    padded layout, n slots per matrix (``levels`` (..., n), ``projectors``
    (..., n, n, n), integer ``group_sizes`` (..., n)): a degenerate group's mean
    level and projector sit in its first slot, and the slots it absorbs keep
    the mean level with size 0 and a zero projector.  Only matrices with a gap
    below ``DEGENERACY_TOL`` are merged in a Python loop.

    Raises ``ValueError`` if the input is further than ``HERMITICITY_TOL``
    from Hermitian (the defect norm is included in the message) or if the
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

    levels = w.copy()
    projectors = np.einsum("...ig,...jg->...gij", v, v.conj())
    sizes = np.ones(w.shape, dtype=int)
    split = np.diff(w, axis=-1) > DEGENERACY_TOL
    for idx in map(tuple, np.argwhere(~split.all(axis=-1))):
        for g in np.split(np.arange(n), np.nonzero(split[idx])[0] + 1):
            levels[idx][g], sizes[idx][g], projectors[idx][g] = w[idx][g].mean(), 0, 0.0
            sizes[idx][g[0]] = len(g)
            projectors[idx][g[0]] = v[idx][:, g] @ v[idx][:, g].conj().T
    if a.ndim == 2:
        keep = sizes > 0
        levels, projectors, sizes = levels[keep], projectors[keep], tuple(map(int, sizes[keep]))
    return SpectralDecomposition(w, v, levels, projectors, sizes)

