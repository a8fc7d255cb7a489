"""Command-line front end.

    zb [--debug] bands|zb|invariants|phase-diagram|verify --config FILE [--out DIR]

Configs are strict JSON: unknown keys, and sections that the command does not
read, are rejected.  Numeric series land in CSV, reports in JSON, all
byte-reproducible for a fixed config (whose ``seed`` only `verify` reads), on
any core count: `zbtopo` loads numpy with one OpenBLAS thread unless the caller
sets one of its thread variables, which lets packet CSVs differ in the last bits.
``FACTORIES`` is the one list of model names: a model's parameters are its
factory's arguments, and its band path, sweep invariant and sweep parameters
are read off the ``BlochModel`` the factory returns.  A sweep computes its rows
in stacked passes (`invariants.sweep_rows`) and reports them in row order: a
row whose one-model route raises `GaplessError` (a gap closing) is skipped with
a ``skipping critical point`` line on stderr, any other refusal ends the run.
Time-grid, drift, rotation-plane and topology options a config leaves out take the library's
defaults.
The environment variable ZB_SEED overrides the config seed of `verify`.
Exit codes: 0 success, 1 runtime error (``--debug`` adds its traceback),
2 config error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import traceback

import numpy as np

from . import io as zio
from . import models
from .dynamics import (MIN_SAMPLES_PER_PERIOD, MIN_SPAN_PERIODS, SAMPLES_PER_PERIOD,
                       SPAN_PERIODS, SPINOR_NORM_TOL, WavePacket, packet_grid,
                       pcm_trajectory_exact, rotation_index, wavepacket_trajectory, zb_spectrum)
from .errors import GaplessError, GridSizeError
from .invariants import (PLAQUETTE_MAX_GRID, WINDING_MAX_GRID, WINDING_MIN_GRID, check_grid,
                         compute_invariants, sweep_rows)
from .models import evaluate
from .spectral import MAX_DIM
from .verify import run_verify

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# Config model name -> factory in ``zbtopo.models``.  Factories are looked up
# on the module at call time, so a wrapper bound there is the one called.
FACTORIES = {
    "maxwell": "maxwell_lattice",
    "spin_j": "spin_j_continuum",
    "kane_mele": "kane_mele",
    "chiral_ti": "chiral_ti_3d",
}
# Each factory's parameters, read once: the config keys a model accepts.
_PARAMETERS = {name: inspect.signature(getattr(models, factory)).parameters
               for name, factory in FACTORIES.items()}

SECTION_KEYS = {
    "model": {"name", "params"},
    "dynamics": {"momentum", "packet", "spinor", "samples_per_period", "periods",
                 "include_drift", "plane"},
    "packet": {"width", "center", "grid_points", "half_width"},
    "topology": {"plaquette_grid", "winding_grid"},
    "bands_path": {"points_per_segment"},
    "sweep": {"parameter", "start", "stop", "step"},
}

# a start grid must leave the zone integral a doubled mesh to agree with
_TOPOLOGY_GRIDS = {"plaquette_grid": (1, PLAQUETTE_MAX_GRID // 2),
                   "winding_grid": (WINDING_MIN_GRID, WINDING_MAX_GRID)}
MAX_SWEEP_VALUES = 10**6
# Sweep rows built and computed together: memory stays flat up to MAX_SWEEP_VALUES.
_SWEEP_BLOCK = 32
# Size caps for `zb zb`, checked before anything is allocated: time samples
# scale with samples_per_period x periods (the library's defaults when left out)
# and a packet sums over points ** momentum_dim momenta (at most 31^3 by default).
_MAX_PERIOD_SAMPLES = 10**5
_MAX_PACKET_MOMENTA = 10**5

COMMAND_SECTIONS = {
    "bands": {"required": {"model"}, "optional": {"bands_path"}},
    "zb": {"required": {"model", "dynamics"}, "optional": set()},
    "invariants": {"required": {"model"}, "optional": {"topology"}},
    "phase-diagram": {"required": {"model", "sweep"}, "optional": set()},
    "verify": {"required": {"seed"}, "optional": set()},
}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, name, positive=False):
    """``value`` if it is a finite (positive) JSON number, else a ConfigError naming ``name``."""
    bad = isinstance(value, bool) or not isinstance(value, (int, float))
    if bad or not abs(value) <= sys.float_info.max or (positive and value <= 0):
        raise ConfigError(f"{name} must be a {'positive' if positive else 'finite'} "
                          f"number, got {value!r}")
    return value


def _vector(value, name, dim):
    """``value`` as a float array if it is a list of ``dim`` finite numbers, else a ConfigError."""
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"{name} must be a list of {dim} numbers, got {value!r}")
    return np.array([_number(x, f"{name}[{i}]") for i, x in enumerate(value)], dtype=float)


def _integer(value, name, lower):
    if isinstance(value, bool) or not isinstance(value, int) or value < lower:
        raise ConfigError(f"{name} must be an integer >= {lower}, got {value!r}")
    return value


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")

    spec = COMMAND_SECTIONS[command]
    _check_keys(config, spec["required"] | spec["optional"], "config root")
    missing = spec["required"] - set(config)
    if missing:
        raise ConfigError(f"missing config sections for '{command}': {sorted(missing)}")
    for name in ("model", "dynamics", "topology", "bands_path", "sweep"):
        if name in config:
            if not isinstance(config[name], dict):
                raise ConfigError(f"section '{name}' must be an object")
            _check_keys(config[name], SECTION_KEYS[name], f"section '{name}'")
    dyn = config.get("dynamics", {})
    if "packet" in dyn:
        packet = dyn["packet"]
        if not isinstance(packet, dict):
            raise ConfigError(f"dynamics.packet must be an object, got {packet!r}")
        _check_keys(packet, SECTION_KEYS["packet"], "dynamics.packet")
        if "width" not in packet:
            raise ConfigError("dynamics.packet.width is required")
        for key in ("width", "half_width"):
            if key in packet:
                _number(packet[key], f"dynamics.packet.{key}", positive=True)
        if "grid_points" in packet:
            _integer(packet["grid_points"], "dynamics.packet.grid_points", 2)
    plane = dyn.get("plane")
    if "plane" in dyn and (not isinstance(plane, list) or len(plane) != 2 or plane[0] == plane[1]
            or any(type(p) is not int or not 0 <= p <= 2 for p in plane)):
        raise ConfigError(f"dynamics.plane must be two distinct integers in 0..2, got {plane!r}")
    if not isinstance(dyn.get("include_drift", False), bool):
        raise ConfigError(f"dynamics.include_drift must be a boolean, got {dyn['include_drift']!r}")
    spp = _integer(dyn.get("samples_per_period", SAMPLES_PER_PERIOD),
                   "dynamics.samples_per_period", MIN_SAMPLES_PER_PERIOD)
    periods = _integer(dyn.get("periods", SPAN_PERIODS), "dynamics.periods", MIN_SPAN_PERIODS)
    if spp * periods > _MAX_PERIOD_SAMPLES:
        raise ConfigError(f"dynamics.samples_per_period x dynamics.periods must be at most "
                          f"{_MAX_PERIOD_SAMPLES}, got {spp} x {periods}")
    _integer(config.get("seed", 0), "seed", 0)
    try:
        for key, value in config.get("topology", {}).items():
            lower, upper = _TOPOLOGY_GRIDS[key]
            check_grid(value, upper, f"topology.{key}", lower)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def build_model(section: dict):
    """The model a config ``model`` section names; parameters annotated ``str`` are passed
    as given, every other one must be a finite number that keeps |d|^2 finite at the hsps."""
    name = section.get("name")
    if name not in FACTORIES:
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(FACTORIES)}")
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model params must be an object")
    signature = _PARAMETERS[name]
    _check_keys(params, set(signature), f"model '{name}' params")
    for key, value in params.items():
        if signature[key].annotation != "str":
            _number(value, f"model.params.{key}")
    for key, parameter in signature.items():
        if parameter.default is parameter.empty and key not in params:
            raise ConfigError(f"model '{name}' is missing parameter {key!r}")
    built, error = _build_rows(name, [params])
    if error is not None:
        raise error
    return built[0]


def _build_rows(name: str, rows: list):
    """The models that the factory of ``name``, looked up on `models` at call time, builds from
    the params dicts ``rows``, up to the first row refused, and that row's ConfigError or None:
    a factory ValueError, or a |d| or |d|^2 not finite at an hsp (one check over all rows)."""
    factory, built, error = getattr(models, FACTORIES[name]), [], None
    for params in rows:
        try:
            built.append(factory(**params))
        except ValueError as exc:
            error = ConfigError(f"model '{name}': {exc}")
            break
    if not built:
        return built, error
    hsps = np.array(built[0].hsps)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.array([m.coeff(hsps) for m in built])
        for r, h in zip(*np.nonzero(~np.isfinite(np.linalg.norm(d, axis=-1)))):
            k, dk, scale = ", ".join(f"{x:.6f}" for x in hsps[h]), d[r, h], np.abs(d[r, h]).max()
            size = (f"|d| = {scale * np.linalg.norm(dk / scale):.6e} (its square overflows)"
                    if np.isfinite(dk).all() else "a non-finite |d|")
            return built[:r], ConfigError(f"model.params {rows[r]} give {size} at k = ({k})")
    return built, error


def _parse_spinor(raw, dim):
    if isinstance(raw, dict):
        _check_keys(raw, {"eigenstate"}, "dynamics.spinor")
        band = _integer(raw.get("eigenstate"), "dynamics.spinor.eigenstate", 0)
        if band >= dim:
            raise ConfigError(f"dynamics.spinor.eigenstate must be in 0..{dim - 1}, got {band}")
        return band
    if not isinstance(raw, list) or len(raw) != dim:
        raise ConfigError(f"spinor must be a list of {dim} [re, im] pairs")
    pairs = [_vector(pair, f"dynamics.spinor[{i}]", 2) for i, pair in enumerate(raw)]
    coeffs = np.array([complex(re, im) for re, im in pairs])
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > SPINOR_NORM_TOL:
        raise ConfigError(f"dynamics.spinor must have unit norm, got |spinor| = {norm:.12g}")
    return coeffs


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_bands(config, out_dir):
    model = build_model(config["model"])
    points = _integer(config.get("bands_path", {}).get("points_per_segment", 60),
                      "bands_path.points_per_segment", 2)
    nodes = model.band_path
    seg = np.linspace(0.0, 1.0, points, endpoint=False)
    ks, arc, s = [], [], 0.0
    for (_, a), (_, b) in zip(nodes[:-1], nodes[1:]):
        a, b = np.asarray(a), np.asarray(b)
        length = np.linalg.norm(b - a)
        ks.append(a + seg[:, None] * (b - a))
        arc.append(s + seg * length)
        s += float(length)
    ks = np.concatenate(ks + [np.asarray([nodes[-1][1]], dtype=float)])
    energies = np.linalg.eigvalsh(evaluate(model, ks))
    path = os.path.join(out_dir, "bands.csv")
    zio.write_bands_csv(path, np.concatenate(arc + [[s]]), ks, energies)
    print(path)
    return 0


def cmd_zb(config, out_dir):
    model = build_model(config["model"])
    if model.band_count > MAX_DIM:  # only spin_j's band count, 2j + 1, is set by a parameter
        raise ConfigError(f"model.params.j = {model.params['j']!r} gives {model.band_count} "
                          f"bands; zb zb solves at most {MAX_DIM} (j <= {(MAX_DIM - 1) / 2})")
    dyn = config["dynamics"]
    if ("momentum" in dyn) == ("packet" in dyn):
        raise ConfigError("dynamics needs exactly one of 'momentum' or 'packet'")
    options = {key: dyn[key] for key in ("samples_per_period", "periods", "include_drift")
               if key in dyn}
    spinor = _parse_spinor(dyn.get("spinor"), model.band_count) if "spinor" in dyn else None
    if spinor is None:
        raise ConfigError("dynamics.spinor is required")

    try:
        if "momentum" in dyn:
            k = _vector(dyn["momentum"], "dynamics.momentum", model.momentum_dim)
            traj = pcm_trajectory_exact(model, k, spinor, **options)
        else:
            pk = dyn["packet"]
            center = _vector(pk.get("center", [0.0] * model.momentum_dim), "dynamics.packet.center",
                             model.momentum_dim)
            packet = WavePacket(width=pk["width"], center=center, spinor=spinor)
            grid_spec = (pk.get("half_width"), pk.get("grid_points"))
            try:
                points = packet_grid(model, pk["width"], grid_spec)[1]
            except ValueError as exc:
                raise ConfigError(f"dynamics.packet.grid_points: {exc}") from exc
            if points ** model.momentum_dim > _MAX_PACKET_MOMENTA:
                field = "grid_points" if "grid_points" in pk else "half_width"
                raise ConfigError(f"dynamics.packet.{field} gives {points}^{model.momentum_dim} "
                                  f"momenta, more than {_MAX_PACKET_MOMENTA}")
            traj = wavepacket_trajectory(model, packet, grid_spec, **options)
    except GridSizeError as exc:
        raise ConfigError(f"dynamics.samples_per_period x dynamics.periods: {exc}") from exc

    spectrum = zb_spectrum(traj)
    sense = rotation_index(traj, tuple(dyn["plane"])) if "plane" in dyn else rotation_index(traj)
    zio.write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    zio.write_spectrum_csv(spectrum, os.path.join(out_dir, "spectrum.csv"))
    print(sense)
    return 0


def cmd_invariants(config, out_dir):
    model = build_model(config["model"])
    report = compute_invariants(model, **config.get("topology", {}))
    text = zio.report_json(report.to_dict())
    path = os.path.join(out_dir, "invariants.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def _sweep_rows(section, parameter, values):
    """The CSV row of each sweep value, from one stacked pass (`sweep_rows`) per block of
    values, walked in value order: a closed gap is skipped on stderr, any other refusal raised."""
    rows, params = [], section.get("params", {})
    for start in range(0, len(values), _SWEEP_BLOCK):
        block = values[start:start + _SWEEP_BLOCK]
        built, error = _build_rows(section["name"], [{**params, parameter: v} for v in block])
        for value, row in zip(block, (sweep_rows(built) if built else []) + [error]):
            if isinstance(row, GaplessError):
                print(f"skipping critical point {parameter}={value:.6g}", file=sys.stderr)
            elif isinstance(row, Exception):
                raise row
            else:
                rows.append([value] + row)
    return rows


def cmd_phase_diagram(config, out_dir):
    model_section = config["model"]
    model = build_model(model_section)
    if model.invariant is None:
        raise ConfigError(f"phase-diagram sweep not defined for model '{model.name}'")
    sweep = config["sweep"]
    parameter = sweep.get("parameter", model.sweep_parameters[0])
    if parameter not in model.sweep_parameters:
        raise ConfigError(f"sweep.parameter must be one of {list(model.sweep_parameters)} "
                          f"for model '{model.name}', got {parameter!r}")
    try:
        start, stop = _number(sweep["start"], "sweep.start"), _number(sweep["stop"], "sweep.stop")
        step = _number(sweep["step"], "sweep.step", positive=True)
    except KeyError as exc:
        raise ConfigError(f"sweep is missing {exc}") from exc
    if stop < start:
        raise ConfigError("sweep needs stop >= start")
    if (stop - start) / step >= MAX_SWEEP_VALUES:
        raise ConfigError(f"sweep.step {step!r} gives more than {MAX_SWEEP_VALUES} values")
    if not np.isfinite(stop + step / 2):
        raise ConfigError(f"sweep.stop + sweep.step / 2 overflows: stop {stop!r}, step {step!r}")
    values = np.arange(start, stop + step / 2, step)
    if values.size == 0:
        raise ConfigError("empty sweep range")
    rows = _sweep_rows(model_section, parameter, values.tolist())
    if not rows:
        raise ConfigError("sweep contains only critical points")

    nus = [] if model.invariant == "z2" else [_nu_col(K) for K in model.hsps]
    header = [parameter, model.invariant] + nus
    path = os.path.join(out_dir, "phase_diagram.csv")
    zio.write_sweep_csv(path, header, rows)
    print(path)
    return 0


def _nu_col(K):
    tags = ["pi" if abs(x - np.pi) < 1e-12 else "0" for x in K]
    return "nu_" + "_".join(tags)


def cmd_verify(config, out_dir):
    seed = config["seed"]
    env_seed = os.environ.get("ZB_SEED")
    if env_seed is not None:
        try:
            seed = _integer(int(env_seed), "ZB_SEED", 0)  # a ConfigError is a ValueError
        except ValueError as exc:
            raise ConfigError(f"ZB_SEED must be an integer >= 0, got {env_seed!r}") from exc
    text, ok = run_verify(seed)
    sys.stdout.write(text)
    path = os.path.join(out_dir, "verify_report.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zb",
        description="oscillation dynamics and topological invariants for small band models",
    )
    parser.add_argument("--debug", action="store_true", help="print the traceback on exit 1")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_SECTIONS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.command)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "bands":
            return cmd_bands(config, args.out)
        if args.command == "zb":
            return cmd_zb(config, args.out)
        if args.command == "invariants":
            return cmd_invariants(config, args.out)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(config, args.out)
        return cmd_verify(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if args.debug:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
