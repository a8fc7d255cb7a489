"""Exceptions shared across the package."""

__all__ = ["GaplessError", "NotHighSymmetryError", "GridSizeError"]


class GaplessError(ValueError):
    """A band gap required by the computation is closed (phase-transition point)."""


class NotHighSymmetryError(ValueError):
    """The requested momentum does not have the structure of a mass-type high-symmetry point."""


class GridSizeError(ValueError):
    """A sampling grid would hold more points than the package allocates."""
