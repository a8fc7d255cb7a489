import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zbtopo import cli, models
from zbtopo import chern_from_hsp, compute_invariants, spin_matrices
from zbtopo.cli import main
from zbtopo.dynamics import Trajectory
from zbtopo.io import (
    read_csv_table,
    read_spectrum_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)

SQH = 0.7071067811865476


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def maxwell_config(m_param, extra=None):
    cfg = {"model": {"name": "maxwell", "params": {"t_h": 1.0, "M": m_param}}}
    if extra:
        cfg.update(extra)
    return cfg


PACKET_DYNAMICS = {
    "dynamics": {
        "packet": {"width": 20.0, "center": [0.0, 0.0]},
        "spinor": [[SQH, 0.0], [SQH, 0.0], [0.0, 0.0]],
    }
}


# ---------------------------------------------------------------- config validation

def test_unknown_root_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(1.0, {"bogus": 1}))
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_param_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"name": "maxwell", "params": {"t_h": 1.0, "M": 1.0, "x": 2}}}
    )
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_model_rejected(tmp_path):
    cfg = write_config(tmp_path, {"model": {"name": "nope", "params": {}}})
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_section_rejected(tmp_path):
    cfg = write_config(tmp_path, {"model": {"name": "maxwell", "params": {"t_h": 1, "M": 1}}})
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["invariants", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_bad_spinor_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        maxwell_config(1.0, {"dynamics": {"momentum": [0.0, 0.0], "spinor": [[1.0, 0.0]]}}),
    )
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "spinor, message",
    [({}, "dynamics.spinor.eigenstate must be an integer >= 0, got None"),
     ({"eigenstate": True}, "dynamics.spinor.eigenstate must be an integer >= 0, got True"),
     ({"eigenstate": 1.0}, "dynamics.spinor.eigenstate must be an integer >= 0, got 1.0"),
     ({"eigenstate": -1}, "dynamics.spinor.eigenstate must be an integer >= 0, got -1"),
     ({"eigenstate": 3}, "dynamics.spinor.eigenstate must be in 0..2, got 3")],
)
def test_bad_eigenstate_is_config_error(tmp_path, capsys, spinor, message):
    dynamics = {"momentum": [0.0, 0.0], "spinor": spinor}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "spinor, message",
    [([[SQH, 0.0, 0.0], [SQH, 0.0], [0.0, 0.0]],
      "dynamics.spinor[0] must be a list of 2 numbers, got [0.7071067811865476, 0.0, 0.0]"),
     ([[SQH, 0.0], [SQH], [0.0, 0.0]], "dynamics.spinor[1] must be a list of 2 numbers, got "),
     ([[SQH, 0.0], [SQH, 0.0], "ab"], "dynamics.spinor[2] must be a list of 2 numbers, got 'ab'"),
     ([["a", 0.0], [SQH, 0.0], [0.0, 0.0]], "dynamics.spinor[0][0] must be a finite number, got 'a'"),
     ([[SQH, 0.0], [SQH, None], [0.0, 0.0]],
      "dynamics.spinor[1][1] must be a finite number, got None"),
     ([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
      "dynamics.spinor must have unit norm, got |spinor| = 1.41421356237"),
     ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "dynamics.spinor must have unit norm, got |spinor| = 0")],
)
def test_bad_spinor_list_is_config_error(tmp_path, capsys, spinor, message):
    dynamics = {"momentum": [0.0, 0.0], "spinor": spinor}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------- per-model data

# Every model the CLI accepts: parameters, band-path labels, sweep invariant
# and sweep parameters (the first is the default).
MODEL_CASES = {
    "maxwell": ({"t_h": 1.0, "M": 1.0}, "G X M G", "chern", ("M",)),
    "spin_j": ({"j": 1.0, "v_x": 1.0, "v_y": 1.0, "m": 0.5}, "G X M G", None, ()),
    "kane_mele": ({"t": 1.0, "lambda_so": 0.06, "lambda_r": 0.0, "lambda_v": 0.1},
                  "G K M K' G", "z2", ("lambda_v", "lambda_so")),
    "chiral_ti": ({"M": 2.0}, "G X M G R", "winding", ("M",)),
}


def test_model_cases_cover_every_cli_model():
    assert set(MODEL_CASES) == set(cli.FACTORIES)


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_bands_follow_declared_path(tmp_path, capsys, name):
    params, labels, _, _ = MODEL_CASES[name]
    model = cli.build_model({"name": name, "params": params})
    assert " ".join(label for label, _ in model.band_path) == labels
    cfg = write_config(tmp_path, {"model": {"name": name, "params": params},
                                  "bands_path": {"points_per_segment": 4}})
    assert main(["bands", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, data = read_csv_table(tmp_path / "bands.csv")
    assert len(data) == 4 * (len(model.band_path) - 1) + 1
    for i, (_, node) in enumerate(model.band_path):
        np.testing.assert_array_equal(data[4 * i, 1:1 + model.momentum_dim], node)


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_phase_diagram_follows_declared_sweep_data(tmp_path, capsys, name):
    params, _, invariant, parameters = MODEL_CASES[name]
    model = cli.build_model({"name": name, "params": params})
    assert (model.invariant, model.sweep_parameters) == (invariant, parameters)
    span = {"start": 0.5, "stop": 1.5, "step": 0.5}

    def run(out, **sweep):
        cfg = write_config(tmp_path, {"model": {"name": name, "params": params},
                                      "sweep": {**span, **sweep}})
        code = main(["phase-diagram", "--config", cfg, "--out", str(tmp_path / out)])
        return code, capsys.readouterr().err

    if invariant is None:
        for sweep in ({}, {"parameter": "m"}):
            assert run("none", **sweep) == (
                2, f"config error: phase-diagram sweep not defined for model '{name}'\n")
        return
    assert run("default")[0] == 0  # no parameter: the first declared one
    assert run("explicit", parameter=parameters[0])[0] == 0
    default = (tmp_path / "default" / "phase_diagram.csv").read_bytes()
    assert default == (tmp_path / "explicit" / "phase_diagram.csv").read_bytes()
    assert default.decode().splitlines()[0].split(",")[:2] == [parameters[0], invariant]
    for outside in ("t_h", "lambda_r", "bogus"):
        code, err = run("outside", parameter=outside)
        assert code == 2
        assert (f"sweep.parameter must be one of {list(parameters)} for model '{name}', "
                f"got '{outside}'") in err


# ---------------------------------------------------------------- bands

def test_bands_triple_point_at_transition(tmp_path):
    cfg = write_config(tmp_path, maxwell_config(2.0))
    assert main(["bands", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, data = read_csv_table(tmp_path / "bands.csv")
    assert header == ["s", "k1", "k2", "E1", "E2", "E3"]
    arc = data[:, 0]
    assert np.all(np.diff(arc) > 0)
    gamma_rows = data[np.hypot(data[:, 1], data[:, 2]) < 1e-12]
    assert np.max(np.abs(gamma_rows[:, 3:])) < 1e-12  # E = 0 triple point


def test_bands_gap_at_gamma(tmp_path):
    cfg = write_config(tmp_path, maxwell_config(3.0))
    assert main(["bands", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv_table(tmp_path / "bands.csv")
    row = data[np.hypot(data[:, 1], data[:, 2]) < 1e-12][0]
    adjacent_gap = row[4] - row[3]
    assert abs(adjacent_gap - 2.0) < 1e-12  # 2 |t_h (M - 2)| at M = 3


# ---------------------------------------------------------------- zb

def test_zb_packet_prints_rotation(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(1.0, PACKET_DYNAMICS))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    cfg3 = write_config(tmp_path, maxwell_config(3.0, PACKET_DYNAMICS), "m3.json")
    assert main(["zb", "--config", cfg3, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_zb_eigenstate_prints_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        maxwell_config(
            1.0, {"dynamics": {"momentum": [0.0, 0.0], "spinor": {"eigenstate": 0}}}
        ),
    )
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_zb_drifting_eigenstate_prints_zero(tmp_path, capsys):
    # the roundoff left after the drift line is fitted out has no sense
    dynamics = {"momentum": [0.3, 0.2], "spinor": {"eigenstate": 0}, "include_drift": True}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_zb_csv_round_trip(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        maxwell_config(
            1.0,
            {"dynamics": {"momentum": [0.0, 0.0],
                          "spinor": [[SQH, 0.0], [SQH, 0.0], [0.0, 0.0]]}},
        ),
    )
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    traj = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert traj.pcm.shape[1] == 3
    omegas, power = read_spectrum_csv(tmp_path / "spectrum.csv")
    assert omegas.shape[0] == power.shape[0]
    # 17-significant-digit floats round-trip exactly: re-writing is identical
    write_trajectory_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "trajectory.csv").read_bytes()


def test_trajectory_csv_is_written_as_it_streams(tmp_path):
    # building the file as a list of lines took ~132 bytes of traced peak per
    # 76-byte row (6.8 MB here); written as rows arrive it stays near the buffer
    n = 50_000
    traj = Trajectory(times=np.linspace(0.0, 1.0, n),
                      pcm=np.random.default_rng(0).standard_normal((n, 3)))
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"traced peak {peak / 1e6:.2f} MB"
    assert np.array_equal(read_trajectory_csv(tmp_path / "long.csv").pcm, traj.pcm)


def test_chiral_packet_run_memory(tmp_path, capsys):
    # the 21^3 chiral packet of the benchmark: its synthesis held the previous
    # chunk's weighted table and the per-chunk pair data, 21.8 MB traced
    cfg = write_config(tmp_path, {
        "model": {"name": "chiral_ti", "params": {"M": 2.02}},
        "dynamics": {"packet": {"width": 10.0, "center": [0.0, 0.0, 0.0], "half_width": 0.35,
                                "grid_points": 21},
                     "spinor": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]}})
    argv = ["zb", "--config", cfg, "--out", str(tmp_path)]
    assert main(argv) == 0  # imports and first-call caches stay out of the traced peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 15e6, f"traced peak {peak / 1e6:.1f} MB"


def test_zb_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(1.0, PACKET_DYNAMICS))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["zb", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["zb", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


ZB_MOMENTUM = {"momentum": [0.3, 0.1], "spinor": [[SQH, 0.0], [SQH, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("command, implicit, explicit", [
    ("invariants", maxwell_config(1.0),
     maxwell_config(1.0, {"topology": {"plaquette_grid": 64, "winding_grid": 40}})),
    ("invariants", {"model": {"name": "chiral_ti", "params": {"M": 2.0}}},
     {"model": {"name": "chiral_ti", "params": {"M": 2.0}},
      "topology": {"plaquette_grid": 64, "winding_grid": 40}}),
    ("zb", maxwell_config(1.0, {"dynamics": {**PACKET_DYNAMICS["dynamics"],
                                             "packet": {"width": 20.0, "grid_points": 41}}}),
     maxwell_config(1.0, {"dynamics": {**PACKET_DYNAMICS["dynamics"], "packet": {
         "width": 20.0, "grid_points": 41, "half_width": 5 / 20.0}}})),
    ("zb", maxwell_config(1.0, {"dynamics": ZB_MOMENTUM}),
     maxwell_config(1.0, {"dynamics": {**ZB_MOMENTUM, "samples_per_period": 64, "periods": 8,
                                       "include_drift": False}})),
])
def test_omitted_options_take_the_library_defaults(tmp_path, capsys, command, implicit,
                                                    explicit):
    # exit code, stdout and stderr, and the bytes of every file each run writes
    outputs = []
    for name, payload in (("implicit", implicit), ("explicit", explicit)):
        out = tmp_path / name
        code = main([command, "--config", write_config(tmp_path, payload, f"{name}.json"),
                     "--out", str(out)])
        outputs.append((code, capsys.readouterr(),
                        {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert outputs[0][0] == 0 and outputs[0][2]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- invariants

def test_invariants_json_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(1.0))
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "model", "params", "hsp", "chern_hsp", "chern_plaquette",
        "winding", "winding_residual", "z2",
    }
    assert payload["chern_hsp"] == [-2, 0, 2]
    assert payload["chern_plaquette"] == [-2, 0, 2]
    assert payload["z2"] is None
    assert [entry["nu"] for entry in payload["hsp"]] == [-1, -1, -1, 1]
    on_disk = json.loads((tmp_path / "invariants.json").read_text(encoding="utf-8"))
    assert on_disk == payload


def test_invariants_chiral_winding(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"name": "chiral_ti", "params": {"M": 4.0}},
                   "topology": {"winding_grid": 20}}
    )
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winding"] == 0
    assert payload["chern_hsp"] is None


def test_invariants_kane_mele_trivial(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"name": "kane_mele",
                   "params": {"t": 1.0, "lambda_so": 0.01, "lambda_r": 0.0,
                              "lambda_v": 1.0}}},
    )
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["z2"] == 0


@pytest.mark.parametrize("grid", [0, -2, 2.5, "64", True, 1024, 257, 300, 512])
def test_invariants_bad_plaquette_grid_is_config_error(tmp_path, capsys, grid):
    # a start grid above 256 leaves the plaquette sum no second mesh below 512
    cfg = write_config(tmp_path, maxwell_config(1.0, {"topology": {"plaquette_grid": grid}}))
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "topology.plaquette_grid must be an integer in 1..256" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [0, -1, 8, 15, 40.0, 65, 100000])
def test_invariants_bad_winding_grid_is_config_error(tmp_path, capsys, grid):
    cfg = write_config(
        tmp_path,
        {"model": {"name": "chiral_ti", "params": {"M": 1.0}},
         "topology": {"winding_grid": grid}},
    )
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "topology.winding_grid must be an integer in 16..64" in capsys.readouterr().err


def test_invariants_at_transition_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(2.0))
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, params, size, k", [
    ({"name": "chiral_ti", "params": {"M": 1e308}}, "{'M': 1e+308}",
     "|d| = 1.000000e+308 (its square overflows)", "0.000000, 0.000000, 0.000000"),
    ({"name": "kane_mele",
      "params": {"t": 1e200, "lambda_so": 0.06, "lambda_r": 0.0, "lambda_v": 0.1}},
     "{'t': 1e+200, 'lambda_so': 0.06, 'lambda_r': 0.0, 'lambda_v': 0.1}",
     "|d| = 3.000000e+200 (its square overflows)", "0.000000, 0.000000"),
    # 2 t_h overflows in the coefficients themselves
    ({"name": "maxwell", "params": {"t_h": 1e308, "M": 1e308}}, "{'t_h': 1e+308, 'M': 1e+308}",
     "a non-finite |d|", "0.000000, 0.000000"),
], ids=["chiral_ti", "kane_mele", "non_finite_coefficients"])
def test_invariants_with_an_overflowing_norm_is_config_error(tmp_path, capsys, model, params,
                                                             size, k):
    # |d|^2 overflows at a high-symmetry point: the parameters are refused before any
    # zone mesh is built, with the max-abs-scaled |d| when the coefficients are finite
    cfg = write_config(tmp_path, {"model": model})
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: model.params {params} give {size} at k = ({k})\n"


# ---------------------------------------------------------------- phase diagram

SWEEP = {"sweep": {"parameter": "M", "start": -3.0, "stop": 3.0, "step": 0.25}}


def test_phase_diagram_reproduces_intervals(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(0.0, SWEEP))
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, data = read_csv_table(tmp_path / "phase_diagram.csv")
    assert header == ["M", "chern", "nu_0_0", "nu_0_pi", "nu_pi_0", "nu_pi_pi"]
    # critical points -2, 0, 2 skipped
    assert not np.any(np.isin(data[:, 0], [-2.0, 0.0, 2.0]))
    for m_val, chern in zip(data[:, 0], data[:, 1]):
        if m_val < -2:
            assert chern == 0
        elif m_val < 0:
            assert chern == 2
        elif m_val < 2:
            assert chern == -2
        else:
            assert chern == 0
    # piecewise constant inside each interval
    for lo, hi in ((-3.0, -2.0), (-2.0, 0.0), (0.0, 2.0), (2.0, 3.1)):
        rows = data[(data[:, 0] > lo) & (data[:, 0] < hi)]
        assert len(set(rows[:, 1])) == 1


def test_phase_diagram_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(0.0, SWEEP))
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["phase-diagram", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "phase_diagram.csv").read_bytes() == (out2 / "phase_diagram.csv").read_bytes()


def test_jobs_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, maxwell_config(0.0, SWEEP))
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bands", "zb", "invariants", "verify"])
def test_allow_critical_outside_phase_diagram_is_a_usage_error(tmp_path, capsys, command):
    # only phase-diagram reads the flag; the command never starts
    cfg = write_config(tmp_path, {"seed": 1})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path), "--allow-critical"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-critical" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.txt").exists()


def test_phase_diagram_empty_range_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        maxwell_config(0.0, {"sweep": {"parameter": "M", "start": 1.0, "stop": 0.0,
                                       "step": 0.25}}),
    )
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_phase_diagram_of_only_critical_points_is_refused(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        maxwell_config(0.0, {"sweep": {"parameter": "M", "start": 2.0, "stop": 2.0,
                                       "step": 0.5}}),
    )
    # the one row closes the gap at Gamma: nothing is left to write
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("skipping critical point M=2\n"
                   "config error: sweep contains only critical points\n")
    assert not (tmp_path / "phase_diagram.csv").exists()
    # the flag that once forced such rows through is gone
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "--config", cfg, "--out", str(tmp_path), "--allow-critical"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-critical" in capsys.readouterr().err


def test_phase_diagram_skips_only_the_closing_itself(tmp_path, capsys):
    # M = 2 -+ 5e-7 leaves |m| = 1e-6 at Gamma, a gapped row; only the
    # closing at M = 2 (within rounding of the step) raises and is skipped
    cfg = write_config(
        tmp_path,
        maxwell_config(0.0, {"sweep": {"parameter": "M", "start": 2.0 - 5e-7,
                                       "stop": 2.0 + 5e-7, "step": 5e-7}}),
    )
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "skipping critical point M=2\n"
    header, data = read_csv_table(tmp_path / "phase_diagram.csv")
    assert data[:, 0].tolist() == [2.0 - 5e-7, 2.0 - 5e-7 + 2 * 5e-7]
    assert data[:, 1].tolist() == [-2, 0]
    assert data[:, 2].tolist() == [-1, 1]  # nu at Gamma turns with the mass


KANE_MELE_T0 = {"name": "kane_mele",
                "params": {"t": 0.0, "lambda_so": 0.06, "lambda_r": 0.0, "lambda_v": 0.0}}
T0_REFUSAL = ("error: vanishing velocity at K=(2.0943951023931953, 4.1887902047863905): "
              "smallest singular value of V 0.000e+00\n")


def test_phase_diagram_refuses_a_kane_mele_sweep_at_t_zero(tmp_path, capsys):
    # gapless on a line for |lambda_v| < 3 sqrt(3) lambda_so: no row may claim a Z2
    cfg = write_config(tmp_path, {"model": KANE_MELE_T0, "sweep": {
        "parameter": "lambda_v", "start": 0.0, "stop": 0.3, "step": 0.05}})
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == T0_REFUSAL
    assert not (tmp_path / "phase_diagram.csv").exists()


def test_phase_diagram_skips_then_refuses_an_overflowing_row(tmp_path, capsys):
    # rows are reported in value order: the closing at M = 2 is skipped before the
    # last row's overflowing |d| is refused as a config error
    cfg = write_config(tmp_path, maxwell_config(0.0, {"sweep": {
        "parameter": "M", "start": 2.0, "stop": 1e200, "step": 1e200}}))
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "skipping critical point M=2\n"
        "config error: model.params {'t_h': 1.0, 'M': 1e+200} give |d| = 2.000000e+200 "
        "(its square overflows) at k = (0.000000, 0.000000)\n")
    assert not (tmp_path / "phase_diagram.csv").exists()


def test_phase_diagram_skips_then_refuses_a_kane_mele_row_at_t_zero(tmp_path, capsys):
    # the first row closes the valley gap (skipped), the second has no valley velocity
    closing = 3 * math.sqrt(3) * 0.06
    cfg = write_config(tmp_path, {"model": KANE_MELE_T0, "sweep": {
        "parameter": "lambda_v", "start": closing, "stop": 0.4, "step": 0.05}})
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "skipping critical point lambda_v=0.311769\n" + T0_REFUSAL
    assert not (tmp_path / "phase_diagram.csv").exists()


@pytest.mark.parametrize("block", [1, 2, 5])
def test_phase_diagram_output_is_free_of_the_row_block(tmp_path, capsys, monkeypatch, block):
    # blocks are walked one after another in value order: the skip lines, the CSV bytes
    # and the refusal that ends a run do not depend on where the blocks split
    runs = {}
    for size in (cli._SWEEP_BLOCK, block):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", size)
        for name, config in (
                ("maxwell", maxwell_config(0.0, {"sweep": {
                    "parameter": "M", "start": -3.0, "stop": 3.0, "step": 0.5}})),
                ("t0", {"model": KANE_MELE_T0, "sweep": {
                    "parameter": "lambda_v", "start": 3 * math.sqrt(3) * 0.06, "stop": 0.5,
                    "step": 0.05}})):
            out = tmp_path / f"{name}-{size}"
            code = main(["phase-diagram", "--config", write_config(tmp_path, config),
                         "--out", str(out)])
            csv = out / "phase_diagram.csv"
            runs.setdefault(name, []).append(
                (code, capsys.readouterr().err, csv.read_bytes() if csv.exists() else None))
    assert runs["maxwell"][0] == runs["maxwell"][1]
    assert runs["maxwell"][0][1].count("skipping critical point") == 3
    assert runs["t0"][0] == runs["t0"][1] == (
        1, "skipping critical point lambda_v=0.311769\n" + T0_REFUSAL, None)


@pytest.mark.parametrize("lambda_v", [0.1, 0.4], ids=["gapless", "gapped"])
def test_invariants_refuse_kane_mele_at_t_zero(tmp_path, capsys, lambda_v):
    # gapped or not, t = 0 has no valley velocity to read a local index from
    model = {**KANE_MELE_T0, "params": {**KANE_MELE_T0["params"], "lambda_v": lambda_v}}
    cfg = write_config(tmp_path, {"model": model})
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == T0_REFUSAL
    assert not (tmp_path / "invariants.json").exists()


@pytest.mark.parametrize("command, config, code", [
    ("invariants", maxwell_config(1.0), 0),
    ("invariants", {"model": KANE_MELE_T0}, 1),
    ("invariants", maxwell_config(1.0, {"bogus": 1}), 2),
], ids=["ok", "runtime-error", "config-error"])
def test_debug_adds_the_traceback_on_exit_one_only(tmp_path, capsys, command, config, code):
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
    plain = capsys.readouterr()
    assert main(["--debug", command, "--config", cfg, "--out", str(tmp_path)]) == code
    debug = capsys.readouterr()
    assert debug.out == plain.out
    if code != 1:
        assert debug.err == plain.err
        return
    assert plain.err == T0_REFUSAL
    assert debug.err.startswith("Traceback (most recent call last):\n")
    assert "in linearize_at_hsp\n" in debug.err and debug.err.endswith("\n" + T0_REFUSAL)


def test_chiral_phase_diagram_winding_column(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"name": "chiral_ti", "params": {"M": 0.0}},
         "sweep": {"parameter": "M", "start": -4.0, "stop": 4.0, "step": 1.0}},
    )
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, data = read_csv_table(tmp_path / "phase_diagram.csv")
    assert header[:2] == ["M", "winding"]
    lookup = dict(zip(data[:, 0], data[:, 1]))
    assert lookup == {-4.0: 0, -2.0: -1, 0.0: 2, 2.0: -1, 4.0: 0}


@pytest.mark.parametrize("field", ["start", "stop", "step"])
@pytest.mark.parametrize("bad", ["a", None, True, float("nan")])
def test_phase_diagram_non_numeric_sweep_field_is_config_error(tmp_path, capsys, field, bad):
    cfg = write_config(tmp_path, maxwell_config(0.0, {"sweep": {**SWEEP["sweep"], field: bad}}))
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    kind = "positive" if field == "step" else "finite"
    assert f"sweep.{field} must be a {kind} number, got {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize("step", [1e-300, 1e-6])
def test_phase_diagram_too_small_step_is_config_error(tmp_path, capsys, step):
    cfg = write_config(tmp_path, maxwell_config(0.0, {"sweep": {**SWEEP["sweep"], "step": step}}))
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"sweep.step {step!r} gives more than 1000000 values" in capsys.readouterr().err


@pytest.mark.parametrize("start, stop, step", [
    (1.7e308, 1.7e308, 1e308), (1.0, 1.7e308, 1e308), (1.797e308, 1.797e308, 2e305)])
def test_phase_diagram_overflowing_sweep_end_is_config_error(tmp_path, capsys, start, stop, step):
    # stop + step / 2, the end that np.arange is given, overflows to inf
    cfg = write_config(tmp_path, maxwell_config(0.0, {"sweep": {
        "parameter": "M", "start": start, "stop": stop, "step": step}}))
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"config error: sweep.stop + sweep.step / 2 overflows: "
                                       f"stop {stop!r}, step {step!r}\n")
    assert not (tmp_path / "phase_diagram.csv").exists()


def test_sweep_chern_column_uses_the_models_lowest_band_spin(monkeypatch):
    # a two-band (spin-1/2) lattice under the maxwell name: the lowest band has
    # spin -1/2, so its Chern number is half the spin-1 value of -1 * sum nu
    spin1 = models.maxwell_lattice
    half_gens = spin_matrices(0.5, "ladder")

    def spin_half_lattice(t_h, M):
        return replace(spin1(t_h, M), generators=half_gens)

    monkeypatch.setattr(models, "maxwell_lattice", spin_half_lattice)
    section = {"name": "maxwell", "params": {"t_h": 1.0}}
    for mass, expected in ((-1.0, 1), (1.0, -1), (3.0, 0)):
        (row,) = cli._sweep_rows(section, "M", [mass])
        model = spin_half_lattice(1.0, mass)
        assert row[1] == expected == compute_invariants(model).chern_hsp[0]
        assert row[1] == chern_from_hsp(model, -0.5)


def test_phase_diagram_without_sweep_invariant_refused_up_front(tmp_path, capsys, monkeypatch):
    def no_value(*args):
        raise AssertionError("a sweep value was computed")

    monkeypatch.setattr(cli, "_sweep_rows", no_value)
    cfg = write_config(
        tmp_path,
        {"model": {"name": "spin_j", "params": {"j": 1.0, "v_x": 1.0, "v_y": 1.0, "m": 0.5}},
         "sweep": {"parameter": "m", "start": 0.5, "stop": 1.0, "step": 0.25}},
    )
    assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "phase-diagram sweep not defined for model 'spin_j'" in capsys.readouterr().err


# ---------------------------------------------------------------- typed config fields

@pytest.mark.parametrize(
    "command, extra",
    [("bands", {}), ("zb", PACKET_DYNAMICS), ("invariants", {}), ("phase-diagram", SWEEP)],
)
def test_string_model_parameter_is_config_error(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, {"model": {"name": "maxwell", "params": {"t_h": "x", "M": 1.0}},
                                  **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "model.params.t_h must be a finite number, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, message",
    [({"name": "maxwell", "params": {"t_h": 0.0, "M": 1.0}}, "t_h must be nonzero"),
     ({"name": "spin_j", "params": {"j": 0.7, "v_x": 1.0, "v_y": 1.0, "m": 0.5}},
      "j must be a half-integer"),
     ({"name": "spin_j", "params": {"j": 1.0, "v_x": 1.0, "v_y": 1.0, "m": 0.5, "basis": 3}},
      "unknown basis 3")],
)
def test_model_constructor_refusal_is_config_error(tmp_path, capsys, model, message):
    cfg = write_config(tmp_path, {"model": model})
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("packet", [5, "wide", [20.0], None])
def test_zb_packet_not_an_object_is_config_error(tmp_path, capsys, packet):
    dynamics = {"packet": packet, "spinor": PACKET_DYNAMICS["dynamics"]["spinor"]}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"dynamics.packet must be an object, got {packet!r}" in capsys.readouterr().err


def test_zb_packet_without_width_is_config_error(tmp_path, capsys):
    dynamics = {"packet": {"center": [0.0, 0.0]}, "spinor": PACKET_DYNAMICS["dynamics"]["spinor"]}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "dynamics.packet.width is required" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0, -2.0, "20"])
def test_zb_packet_bad_width_is_config_error(tmp_path, capsys, width):
    dynamics = {"packet": {"width": width}, "spinor": PACKET_DYNAMICS["dynamics"]["spinor"]}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"dynamics.packet.width must be a positive number, got {width!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "field, value",
    [("samples_per_period", 0), ("samples_per_period", 3), ("samples_per_period", 64.0),
     ("periods", "8"), ("periods", 2), ("periods", True)],
)
def test_zb_bad_time_sampling_is_config_error(tmp_path, capsys, field, value):
    dynamics = {"momentum": [0.0, 0.0], "spinor": {"eigenstate": 0}, field: value}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"dynamics.{field} must be an integer >= 4, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sampling, product",
    [({"samples_per_period": 1000, "periods": 101}, "1000 x 101"),
     ({"samples_per_period": 100001}, "100001 x 8"),
     ({"periods": 1563}, "64 x 1563")],
)
def test_zb_too_many_time_samples_is_config_error(tmp_path, capsys, monkeypatch, sampling,
                                                  product):
    # refused while the config is read, before any model or trajectory exists
    monkeypatch.setattr(cli, "build_model", None)
    dynamics = {"momentum": [0.0, 0.0], "spinor": {"eigenstate": 0}, **sampling}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert ("dynamics.samples_per_period x dynamics.periods must be at most 100000, "
            f"got {product}") in capsys.readouterr().err


def test_zb_too_long_time_grid_is_config_error(tmp_path, capsys, monkeypatch):
    # next to the M = 2 band inversion the packet's slowest pair is 3.5e5 times
    # slower than its fastest, so 64 x 8 would need 1.8e8 time samples
    def unreachable(*args):
        raise AssertionError("the oversized time grid reached the synthesis")

    monkeypatch.setattr("zbtopo.dynamics._oscillation", unreachable)
    cfg = write_config(tmp_path, maxwell_config(2.000001, PACKET_DYNAMICS))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("config error: dynamics.samples_per_period x dynamics.periods: 64 x 8 gives a "
            "time grid of 1.82e+08 samples") in err
    assert "more than 4000000" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "model, packet, message",
    [({"name": "maxwell", "params": {"t_h": 1.0, "M": 1.0}}, {"grid_points": 317},
      "dynamics.packet.grid_points gives 317^2 momenta, more than 100000"),
     ({"name": "chiral_ti", "params": {"M": 2.0}}, {"grid_points": 47},
      "dynamics.packet.grid_points gives 47^3 momenta, more than 100000"),
     ({"name": "maxwell", "params": {"t_h": 1.0, "M": 1.0}}, {"half_width": 3.0},
      "dynamics.packet.half_width gives 341^2 momenta, more than 100000")],
)
def test_zb_too_many_packet_momenta_is_config_error(tmp_path, capsys, monkeypatch, model, packet,
                                                    message):
    # refused before the packet is built
    monkeypatch.setattr(cli, "wavepacket_trajectory", None)
    dynamics = {"packet": {"width": 20.0, **packet}, "spinor": {"eigenstate": 0}}
    cfg = write_config(tmp_path, {"model": model, "dynamics": dynamics})
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


MOMENTUM_DYNAMICS = {"momentum": [0.0, 0.0], "spinor": PACKET_DYNAMICS["dynamics"]["spinor"]}


@pytest.mark.parametrize(
    "dynamics, message",
    [({"momentum": ["x", 0.0]}, "dynamics.momentum[0] must be a finite number, got 'x'"),
     ({"momentum": [0.0, float("inf")]}, "dynamics.momentum[1] must be a finite number, got inf"),
     ({"momentum": [0.0]}, "dynamics.momentum must be a list of 2 numbers, got [0.0]"),
     ({"momentum": "ab"}, "dynamics.momentum must be a list of 2 numbers, got 'ab'")],
)
def test_zb_bad_momentum_is_config_error(tmp_path, capsys, dynamics, message):
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": {**MOMENTUM_DYNAMICS,
                                                                   **dynamics}}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "packet, message",
    [({"center": "ab"}, "dynamics.packet.center must be a list of 2 numbers, got 'ab'"),
     ({"center": [0.0, 0.0, 0.0]},
      "dynamics.packet.center must be a list of 2 numbers, got [0.0, 0.0, 0.0]"),
     ({"center": [0.0, None]}, "dynamics.packet.center[1] must be a finite number, got None"),
     ({"grid_points": "x"}, "dynamics.packet.grid_points must be an integer >= 2, got 'x'"),
     ({"grid_points": 61.0}, "dynamics.packet.grid_points must be an integer >= 2, got 61.0"),
     ({"grid_points": 1}, "dynamics.packet.grid_points must be an integer >= 2, got 1"),
     ({"half_width": -1}, "dynamics.packet.half_width must be a positive number, got -1"),
     ({"half_width": 0.0}, "dynamics.packet.half_width must be a positive number, got 0.0"),
     ({"half_width": "0.25"},
      "dynamics.packet.half_width must be a positive number, got '0.25'"),
     ({"width": 5.0, "grid_points": 9}, "dynamics.packet.grid_points: momentum grid too "
      "coarse: 3 points per axis inside two standard deviations (need >= 8)")],
)
def test_zb_bad_packet_field_is_config_error(tmp_path, capsys, packet, message):
    dynamics = {"packet": {"width": 20.0, **packet},
                "spinor": PACKET_DYNAMICS["dynamics"]["spinor"]}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("plane", [[0, 7], [1, 1], [-1, 0], [0, 1.0], [0, True], [0, 1, 2],
                                   "xy"])
def test_zb_bad_plane_is_config_error(tmp_path, capsys, plane):
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": {**MOMENTUM_DYNAMICS,
                                                                   "plane": plane}}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"dynamics.plane must be two distinct integers in 0..2, got {plane!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["yes", 1, None])
def test_zb_non_boolean_include_drift_is_config_error(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": {**MOMENTUM_DYNAMICS,
                                                                   "include_drift": flag}}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"dynamics.include_drift must be a boolean, got {flag!r}" in capsys.readouterr().err


def test_zb_accepts_valid_plane_and_drift(tmp_path, capsys):
    dynamics = {**MOMENTUM_DYNAMICS, "momentum": [0, 0.0], "plane": [1, 0],
                "include_drift": True}
    cfg = write_config(tmp_path, maxwell_config(1.0, {"dynamics": dynamics}))
    assert main(["zb", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "1"  # swapped axes flip the x-y sense -1


@pytest.mark.parametrize("command, extra, key", [
    ("bands", {}, "seed"),
    ("zb", {"dynamics": ZB_MOMENTUM}, "seed"),
    ("invariants", {}, "seed"),
    ("phase-diagram", SWEEP, "seed"),
    ("phase-diagram", SWEEP, "topology"),
])
def test_section_the_command_does_not_read_is_config_error(tmp_path, capsys, command, extra, key):
    # only verify reads a seed, and sweep rows read no zone grid: neither is accepted and ignored
    value = {"seed": 1, "topology": {"plaquette_grid": 64}}[key]
    cfg = write_config(tmp_path, maxwell_config(1.0, {**extra, key: value}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: unknown keys in config root: ['{key}']\n"


# ---------------------------------------------------------------- verify

def test_verify_requires_seed(tmp_path):
    cfg = write_config(tmp_path, {})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("seed", [-1, True, "3"])
def test_verify_bad_seed_is_config_error(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, {"seed": seed})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"seed must be an integer >= 0, got {seed!r}" in capsys.readouterr().err


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    # the battery is exercised end-to-end elsewhere; here only the header
    monkeypatch.setenv("ZB_SEED", "not-a-number")
    cfg = write_config(tmp_path, {"seed": 3})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "ZB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("env_seed", ["-4", "-0x1", "1.5"])
def test_env_seed_must_be_non_negative_integer(tmp_path, capsys, monkeypatch, env_seed):
    monkeypatch.setenv("ZB_SEED", env_seed)
    cfg = write_config(tmp_path, {"seed": 3})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"ZB_SEED must be an integer >= 0, got {env_seed!r}" in capsys.readouterr().err
