"""CSV and JSON emission with a reproducibility contract.

Numeric series go to CSV with 17-significant-digit floats (enough to
round-trip a double exactly), UTF-8, LF line endings; reports are JSON.
Identical inputs always produce byte-identical files.  Both are emitted,
not read: any CSV reader gets the doubles back, e.g. ``np.loadtxt(path,
delimiter=",", skiprows=1, ndmin=2)``.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import Trajectory, ZBSpectrum

__all__ = [
    "fmt",
    "write_trajectory_csv",
    "write_spectrum_csv",
    "write_bands_csv",
    "write_sweep_csv",
    "report_json",
]

_ROW_BLOCK = 1024  # array rows turned into Python floats at a time: they format faster


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_rows(path, header, rows) -> None:
    """Write the header line, then each row through one template that spells values as fmt."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _column_rows(*columns):
    """Rows of arrays sharing their first axis, as lists of Python floats."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        yield from np.column_stack([c[lo:lo + _ROW_BLOCK] for c in columns]).tolist()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per sample: t,x,y,z."""
    _write_rows(path, ["t", "x", "y", "z"], _column_rows(traj.times, traj.pcm))


def write_spectrum_csv(spectrum: ZBSpectrum, path) -> None:
    """One row per frequency bin: omega,px,py,pz (relative power)."""
    _write_rows(path, ["omega", "px", "py", "pz"], _column_rows(spectrum.omegas, spectrum.power))


def write_bands_csv(path, arc, momenta, energies) -> None:
    """Band energies along a momentum path: s,k1..kd,E1..En."""
    header = (["s"] + [f"k{i + 1}" for i in range(momenta.shape[1])]
              + [f"E{i + 1}" for i in range(energies.shape[1])])
    _write_rows(path, header, _column_rows(arc, momenta, energies))


def write_sweep_csv(path, header, rows) -> None:
    _write_rows(path, header, rows)


def report_json(payload: dict) -> str:
    """Deterministic JSON text for reports (insertion-ordered keys)."""
    return json.dumps(payload, indent=2, separators=(",", ": "), allow_nan=False) + "\n"
