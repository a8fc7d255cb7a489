"""Seeded job lists for the three benchmark workloads, and their oracles.

A workload is a list of ``zb`` jobs.  The seed picks spinors, mass values
and the ``zb verify`` seed; grids, time sampling and job counts are fixed,
so a workload's cost does not depend on the seed.  Every job carries an
oracle that checks the program's output against answers derived here from
the model formulas and the published tables, never from the program's own
second route.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

SQRT27 = 3.0 * math.sqrt(3.0)

# Why each workload exists, in one line (mirrored in BENCHMARK.json).
WHY = {
    "packets": "Gaussian-packet zb runs: the per-k eigensolve loop and T x P "
               "oscillation synthesis do nearly all the work",
    "sweeps": "phase diagrams, invariants and a long band path: many small "
              "linearizations and grid integrals, no eigensolve loop",
    "verify": "the zb verify release gate: thousands of tiny trajectory, "
              "spectrum and model-build calls",
}

# Spans that must record calls on the workload they dominate.  A traced run
# fails its coverage self-check when one of them reads zero.
DOMINANT_SPANS = {
    "packets": (
        "spectral.hermitian_eig", "models.evaluate", "models.gradient",
        "models.factory", "dynamics.wavepacket_trajectory", "dynamics.zb_spectrum",
        "dynamics.rotation_index", "io.write_csv", "cli.load_config",
        "cli.build_model", "cli.cmd_zb",
    ),
    "sweeps": (
        "models.evaluate", "models.factory", "invariants.linearize_at_hsp",
        "invariants.chern_from_hsp", "invariants.chern_plaquette",
        "invariants.winding_from_hsp", "invariants.winding_numerical",
        "invariants.compute_invariants", "io.write_csv", "io.report_json",
        "cli.cmd_phase_diagram", "cli.cmd_invariants", "cli.cmd_bands",
    ),
    "verify": (
        "spectral.hermitian_eig", "models.evaluate", "models.factory",
        "generators.spin_matrices", "generators.gell_mann",
        "dynamics.pcm_trajectory_exact", "dynamics.wavepacket_trajectory",
        "dynamics.closed_form_spin1", "dynamics.closed_form_chiral",
        "dynamics.zb_spectrum", "dynamics.rotation_index",
        "dynamics.selection_rule_check", "invariants.linearize_at_hsp",
        "invariants.chern_plaquette", "invariants.winding_numerical",
        "invariants.z2_kane_mele", "invariants.z2_spin_chern_parity",
        "invariants.z2_fu_kane_parity", "invariants.rashba_gap_ramp",
        "verify.check_phase_table", "verify.check_closed_form_oracle",
        "verify.check_direction_reversal", "verify.check_selection_rule",
        "verify.check_winding", "verify.check_kane_mele_z2",
        "verify.check_scaling_laws", "cli.cmd_verify",
    ),
}
# Spans that must record nothing: sweeps is the bypass workload for every
# spectral change.
ABSENT_SPANS = {"sweeps": ("spectral.hermitian_eig",)}

NAMES = tuple(WHY)


def sign(x: float) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Job:
    """One ``zb`` invocation: its command, config and oracle."""

    name: str
    command: str
    config: dict
    check: Callable[[str, str], list]  # (stdout, out_dir) -> error strings

    def argv(self, config_path, out_dir):
        return [self.command, "--config", config_path, "--out", out_dir]


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return {"packets": _packets, "sweeps": _sweeps, "verify": _verify}[workload](rng)


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

def _spinor(rng, components):
    """Random unit spinor as [re, im] pairs, zero where ``components`` is 0."""
    raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) if c else 0j for c in components]
    norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    return [[z.real / norm, z.imag / norm] for z in raw]


def _maxwell_sense(t_h, m_param, center):
    """sgn(v_x v_y m) of h = 2 t_h (sin kx, sin ky, M - cos kx - cos ky)."""
    kx, ky = center
    v_x, v_y = 2 * t_h * math.cos(kx), 2 * t_h * math.cos(ky)
    return sign(v_x * v_y * 2 * t_h * (m_param - math.cos(kx) - math.cos(ky)))


def _chiral_sense(m_param, center):
    """sgn(v_x v_y m) of the chiral model, h = (sin k, M - sum cos k)."""
    v_x, v_y = math.cos(center[0]), math.cos(center[1])
    return sign(v_x * v_y * (m_param - sum(math.cos(k) for k in center)))


def _check_sense(expected):
    def check(stdout, out_dir):
        errors = _check_files(out_dir, ("trajectory.csv", "spectrum.csv"))
        lines = stdout.split()
        if not lines or lines[-1] not in ("-1", "0", "1"):
            return errors + [f"no rotation sense printed: {stdout[-80:]!r}"]
        if int(lines[-1]) != expected:
            errors.append(f"rotation sense {lines[-1]}, expected {expected:+d}")
        return errors
    return check


def _packet_job(name, model, dynamics, expected):
    config = {"model": model, "dynamics": dynamics}
    return Job(name, "zb", config, _check_sense(expected))


def _packets(rng):
    jobs = []
    # Spin-1 lattice packets on both sides of the M = 2 inversion at Gamma;
    # any spinor fixes the sense there.  The time grid follows the spread of
    # band gaps over the packet, so |M - 2| stays in a narrow band to keep
    # the cost independent of the seed.
    for side in (-1, +1):
        m_param = 2.0 + side * rng.uniform(0.44, 0.46)
        center = (0.0, 0.0)
        jobs.append(_packet_job(
            f"maxwell_packet_{'below' if side < 0 else 'above'}",
            {"name": "maxwell", "params": {"t_h": 1.0, "M": m_param}},
            {"packet": {"width": 20.0, "center": list(center), "grid_points": 61},
             "spinor": _spinor(rng, (1, 1, 1))},
            _maxwell_sense(1.0, m_param, center),
        ))
    # Chiral packet at a gapped Gamma, spinor on the c = 0 (in-plane) branch
    # where the closed form fixes the sense.  Only the M < 3 side is used:
    # above M = 3 the gap spread, and so the time grid, is 30% larger.
    m_param = rng.uniform(2.0, 2.05)
    center = (0.0, 0.0, 0.0)
    jobs.append(_packet_job(
        "chiral_packet",
        {"name": "chiral_ti", "params": {"M": m_param}},
        {"packet": {"width": 10.0, "center": list(center), "half_width": 0.35,
                    "grid_points": 21},
         "spinor": _spinor(rng, (1, 1, 0))},
        _chiral_sense(m_param, center),
    ))
    return jobs


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def maxwell_chern(m_param):
    """Published lowest-band Chern number of the spin-1 lattice (t_h = 1)."""
    if abs(m_param) > 2:
        return 0
    return 2 if m_param < 0 else -2


def chiral_winding(m_param):
    """Published 3D winding number of the chiral model."""
    if abs(m_param) > 3:
        return 0
    return 2 if abs(m_param) < 1 else -1


def _corner_nu(corner, m_param):
    """sgn(prod v_d * m) at a zone corner of the spin-1 or chiral lattice.

    Both models have v_d proportional to cos k_d and m proportional to
    M - sum cos k_d there, with positive factors.
    """
    velocity = math.prod(math.cos(k) for k in corner)
    return sign(velocity * (m_param - sum(math.cos(k) for k in corner)))


def _corners(dim):
    if dim == 0:
        return [()]
    return [(k,) + rest for k in (0.0, math.pi) for rest in _corners(dim - 1)]


def _nu_header(corner):
    return "nu_" + "_".join("pi" if k else "0" for k in corner)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _check_files(out_dir, names):
    return [f"missing or empty output {name}" for name in names
            if not os.path.isfile(os.path.join(out_dir, name))
            or os.path.getsize(os.path.join(out_dir, name)) == 0]


def _check_sweep(values, invariant, expected, dim):
    """Phase-diagram CSV against the published table and the corner formula."""
    def check(stdout, out_dir):
        errors = _check_files(out_dir, ("phase_diagram.csv",))
        if errors:
            return errors
        header, rows = _read_csv(os.path.join(out_dir, "phase_diagram.csv"))
        corners = _corners(dim)
        want_header = [header[0], invariant] + [_nu_header(c) for c in corners]
        if header != want_header:
            return [f"header {header}, expected {want_header}"]
        if len(rows) != len(values):
            return [f"{len(rows)} rows, expected {len(values)}"]
        for value, row in zip(values, rows):
            want = [expected(value)] + [_corner_nu(c, value) for c in corners]
            if abs(row[0] - value) > 1e-9 or row[1:] != want:
                errors.append(f"row {row} != expected {[value] + want}")
        return errors[:5]
    return check


def _sweep_values(rng, start, count, step):
    # An offset off the step lattice keeps every value at least 0.002 away
    # from the integer gap closings, so no value is skipped as critical.
    offset = rng.uniform(0.002, step - 0.002)
    return [start + offset + i * step for i in range(count)]


def _phase_job(name, model, values, step, check):
    config = {"model": model,
              "sweep": {"parameter": "M" if model["name"] != "kane_mele" else "lambda_v",
                        "start": values[0], "stop": values[-1], "step": step}}
    return Job(name, "phase-diagram", config, check)


def _check_km_sweep(values, lambda_so):
    def check(stdout, out_dir):
        errors = _check_files(out_dir, ("phase_diagram.csv",))
        if errors:
            return errors
        header, rows = _read_csv(os.path.join(out_dir, "phase_diagram.csv"))
        if header != ["lambda_v", "z2"] or len(rows) != len(values):
            return [f"header {header} with {len(rows)} rows, expected {len(values)}"]
        for value, (got_v, z2) in zip(values, rows):
            want = 1 if value < SQRT27 * lambda_so else 0
            if abs(got_v - value) > 1e-9 or z2 != want:
                errors.append(f"lambda_v={value}: z2={z2}, expected {want}")
        return errors[:5]
    return check


def _check_invariants(expected_chern=None, expected_winding=None, m_param=None):
    def check(stdout, out_dir):
        errors = _check_files(out_dir, ("invariants.json",))
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return errors + ["stdout is not the invariants JSON"]
        if expected_chern is not None:
            want = [expected_chern, 0, -expected_chern]
            if not report["chern_hsp"] == report["chern_plaquette"] == want:
                errors.append(f"chern_hsp {report['chern_hsp']}, chern_plaquette "
                              f"{report['chern_plaquette']}, expected {want}")
        if expected_winding is not None:
            if report["winding"] != expected_winding:
                errors.append(f"winding {report['winding']}, expected {expected_winding}")
            if not report["winding_residual"] < 0.05:
                errors.append(f"winding residual {report['winding_residual']}")
        for entry in report["hsp"]:
            want_nu = _corner_nu(entry["k"], m_param)
            if entry["nu"] != want_nu:
                errors.append(f"nu at {entry['k']} is {entry['nu']}, expected {want_nu}")
        return errors
    return check


def _check_bands(points, t, lambda_so, lambda_v):
    """Kane-Mele bands at lambda_r = 0: closed forms at Gamma and K."""
    gamma = math.hypot(lambda_v, 3 * t)
    at_gamma = [-gamma, -gamma, gamma, gamma]
    at_k = sorted([lambda_v + SQRT27 * lambda_so, lambda_v - SQRT27 * lambda_so,
                   -lambda_v + SQRT27 * lambda_so, -lambda_v - SQRT27 * lambda_so])

    def check(stdout, out_dir):
        errors = _check_files(out_dir, ("bands.csv",))
        if errors:
            return errors
        header, rows = _read_csv(os.path.join(out_dir, "bands.csv"))
        if header != ["s", "k1", "k2", "E1", "E2", "E3", "E4"] or len(rows) != 4 * points + 1:
            return [f"header {header} with {len(rows)} rows, expected {4 * points + 1}"]
        if any(row[3:] != sorted(row[3:]) for row in rows):
            errors.append("band energies are not ascending")
        for label, row, want in (("G", rows[0], at_gamma), ("K", rows[points], at_k),
                                 ("G", rows[-1], at_gamma)):
            if max(abs(a - b) for a, b in zip(row[3:], want)) > 1e-9:
                errors.append(f"energies at {label} {row[3:]}, expected {want}")
        return errors
    return check


def _sweeps(rng):
    jobs = []
    step = 0.02
    values = _sweep_values(rng, -3.0, 300, step)
    jobs.append(_phase_job(
        "maxwell_phase_diagram", {"name": "maxwell", "params": {"t_h": 1.0, "M": 0.5}},
        values, step, _check_sweep(values, "chern", maxwell_chern, 2)))
    values = _sweep_values(rng, -4.0, 400, step)
    jobs.append(_phase_job(
        "chiral_phase_diagram", {"name": "chiral_ti", "params": {"M": 0.5}},
        values, step, _check_sweep(values, "winding", chiral_winding, 3)))

    # Kane-Mele lambda_v sweep across the Z2 transition at 3 sqrt(3) lambda_so;
    # lambda_so is redrawn until no value lies within 1e-6 of the transition.
    km_step = 0.005
    while True:
        lambda_so = rng.uniform(0.05, 0.08)
        values = _sweep_values(rng, 0.0, 120, km_step)
        if min(abs(v - SQRT27 * lambda_so) for v in values) > 1e-6:
            break
    jobs.append(_phase_job(
        "kane_mele_phase_diagram",
        {"name": "kane_mele",
         "params": {"t": 1.0, "lambda_so": lambda_so, "lambda_r": 0.0, "lambda_v": 0.0}},
        values, km_step, _check_km_sweep(values, lambda_so)))

    m_param = rng.choice((-1.0, 1.0)) + rng.uniform(-0.3, 0.3)
    jobs.append(Job(
        "maxwell_invariants", "invariants",
        {"model": {"name": "maxwell", "params": {"t_h": 1.0, "M": m_param}},
         "topology": {"plaquette_grid": 64}},
        _check_invariants(expected_chern=maxwell_chern(m_param), m_param=m_param)))
    m_param = rng.choice((-2.0, 0.0, 2.0)) + rng.uniform(-0.3, 0.3)
    jobs.append(Job(
        "chiral_invariants", "invariants",
        {"model": {"name": "chiral_ti", "params": {"M": m_param}},
         "topology": {"winding_grid": 60}},
        _check_invariants(expected_winding=chiral_winding(m_param), m_param=m_param)))

    points = 2000
    lambda_so, lambda_v = rng.uniform(0.03, 0.1), rng.uniform(0.0, 0.4)
    jobs.append(Job(
        "kane_mele_bands", "bands",
        {"model": {"name": "kane_mele",
                   "params": {"t": 1.0, "lambda_so": lambda_so, "lambda_r": 0.0,
                              "lambda_v": lambda_v}},
         "bands_path": {"points_per_segment": points}},
        _check_bands(points, 1.0, lambda_so, lambda_v)))
    return jobs


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _check_verify(stdout, out_dir):
    errors = _check_files(out_dir, ("verify_report.txt",))
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "summary: 8/8 checks passed":
        errors.append(f"verify summary {lines[-1] if lines else ''!r}")
    return errors


def _verify(rng):
    return [Job("verify", "verify", {"seed": rng.randrange(2**31)}, _check_verify)]
