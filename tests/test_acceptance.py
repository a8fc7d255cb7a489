"""Acceptance gate: one test per release criterion, one printed line each.

The checks live in zbtopo.verify so that `zb verify` and this suite can
never drift apart; every tolerance is pinned inside the check itself.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from zbtopo import GaplessError, cli, dynamics, invariants, models, verify
from zbtopo.spectral import SpectralDecomposition
from zbtopo.verify import (
    check_closed_form_oracle,
    check_direction_reversal,
    check_kane_mele_z2,
    check_phase_table,
    check_scaling_laws,
    check_selection_rule,
    check_winding,
    run_battery,
)

SEED = 20260809


def _run(check, number, label):
    result = check(np.random.default_rng(SEED + number))
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label}")
    for line in result.lines:
        print(f"    {line}")
    assert result.passed, f"criterion {number} ({label}) failed"


def test_criterion_1_phase_table():
    # exact integer match for the published table, both Chern routes, < 30 s
    _run(check_phase_table, 1, "phase table and lowest-band Chern (both methods)")


def test_criterion_2_closed_form_oracle():
    # closed forms vs projector sum within 1e-8, 100 random spinors each
    _run(check_closed_form_oracle, 2, "closed forms match the exact trajectory")


def test_criterion_3_direction_reversal():
    # rotation flips across M = 2 for packet (d = 20) and exact routes, < 10 s
    _run(check_direction_reversal, 3, "rotation sense flips at the transition")


def test_criterion_4_selection_rule():
    # non-adjacent spectral content < 1e-10 for J = 1/2 .. 5/2, 100 spinors each
    _run(check_selection_rule, 4, "only the adjacent gap frequency appears")


def test_criterion_5_winding_cross_check():
    # corner formula equals the signed preimage count (meshes up to N = 40)
    # at five masses, < 2 min
    _run(check_winding, 5, "3D winding: corner signs vs preimage count")


def test_criterion_6_kane_mele_z2():
    # mass-sign rule vs parity oracles, 50 open-gap samples + Rashba ramp
    _run(check_kane_mele_z2, 6, "Z2: valley masses vs parity oracles")


def test_criterion_7_scaling_laws():
    # amplitude exponent -1 +- 0.01, gap-frequency law, reversal at 1e-10
    _run(check_scaling_laws, 7, "amplitude, frequency and reversal laws")


def test_criterion_8_verify_determinism(tmp_path):
    # `zb verify` twice with one seed emits byte-identical reports
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"seed": SEED}), encoding="utf-8")
    reports = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "zbtopo.cli", "verify",
             "--config", str(config), "--out", str(out)],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append((proc.stdout, (out / "verify_report.txt").read_bytes()))
    identical = reports[0] == reports[1]
    print(f"ACCEPTANCE 8 [{'PASS' if identical else 'FAIL'}] byte-identical verify reports")
    assert identical
    assert b"summary: 8/8 checks passed" in reports[0][0]


def test_non_finite_trajectories_fail_the_oracle_and_selection_rule(monkeypatch):
    # a NaN never wins a max() and a NaN spectrum has no peak to compare:
    # both checks must fail on the reading itself and say so
    real = dynamics._oscillation
    monkeypatch.setattr(dynamics, "_oscillation", lambda *args: np.full_like(real(*args), np.nan))
    for check in (check_closed_form_oracle, check_selection_rule):
        result = check(np.random.default_rng(SEED))
        assert not result.passed
        assert any("(non-finite reading)" in line for line in result.lines)


def test_reports_name_the_sample_counts_their_loops_run(monkeypatch):
    # each count is one constant, read by the loop and by its report line
    calls = {"spinors": 0, "ramps": 0, "parities": 0}

    def counting(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    for name, attr in (("spinors", "_random_spinor"), ("ramps", "rashba_gap_ramp"),
                       ("parities", "z2_fu_kane_parity")):
        monkeypatch.setattr(verify, attr, counting(name, getattr(verify, attr)))
    monkeypatch.setattr(verify, "ORACLE_SPINORS", 12)
    monkeypatch.setattr(verify, "Z2_SAMPLES", 3)
    monkeypatch.setattr(verify, "PARITY_SAMPLES", 2)
    oracle = check_closed_form_oracle(np.random.default_rng(SEED))
    assert oracle.lines[0].startswith("spin-1 closed form vs exact, 12 spinors: max |dr| = ")
    assert oracle.lines[1].startswith("chiral closed forms vs exact, 12 spinors: max |dr| = ")
    z2 = check_kane_mele_z2(np.random.default_rng(SEED))
    assert z2.lines[0] == ("mass rule vs sector-Chern parity, 3 random (lambda_v, lambda_so): "
                           "0 mismatches")
    assert z2.lines[2] == ("mass rule vs inversion-parity products (lambda_v = 0), 2 samples: "
                           "0 mismatches")
    assert oracle.passed and z2.passed and calls == {"spinors": 24, "ramps": 3, "parities": 2}


def test_sign_flipped_winding_count_fails_the_battery(monkeypatch):
    # the count is the only global route to the 3D winding: flipping its sign
    # must fail check_winding on the masses with a nonzero winding, and with
    # it the battery; in 2D it flips the phase table's degree, while the Z2
    # parity and every other check still pass
    real = invariants._preimage_count
    monkeypatch.setattr(invariants, "_preimage_count", lambda d: -real(d))
    result = check_winding(np.random.default_rng(SEED))
    assert not result.passed
    assert "M=+2: corners=-1 count=1 expected=-1" in result.lines
    failed = [res.name for res in run_battery(SEED) if not res.passed]
    assert failed == ["phase_table", "winding_3d"]


def test_sign_flipped_2d_count_fails_the_phase_table(monkeypatch):
    # the phase table reads C = 2 deg off the 2D count, signed; the Z2 parity reads only
    # deg mod 2, so without the table no check would see this fault
    real = invariants._preimage_count
    monkeypatch.setattr(invariants, "_preimage_count",
                        lambda d: -real(d) if d.ndim == 3 else real(d))
    result = check_phase_table(np.random.default_rng(SEED))
    assert "M=-1: 2 x zone_degree=-2 expected=2" in result.lines
    assert "M=+1: 2 x zone_degree=2 expected=-2" in result.lines
    assert sum("zone_degree" in line for line in result.lines) == 2
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["phase_table"]


def test_negated_velocities_fail_the_oracle_and_winding(monkeypatch):
    # the exact trajectories take dH/dk from coeff_grad and turn against the closed forms,
    # and the eight 3D corner signs sgn(v_x v_y v_z m) all flip; in 2D sgn(v_x v_y m) and
    # every rotation sense survive a flip of both velocities, so phase_table and
    # direction_reversal cannot see this fault
    real = models.BlochModel.coeff_grad
    monkeypatch.setattr(models.BlochModel, "coeff_grad", lambda self, k: -real(self, k))
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["closed_form_oracle", "winding_3d"]


def _patch_evaluate(monkeypatch, fault):
    # every module that imported evaluate holds its own binding
    real = models.evaluate
    for module in (dynamics, invariants, cli):
        monkeypatch.setattr(module, "evaluate", lambda model, k: fault(real(model, k)))


def test_non_finite_hamiltonians_are_refused_by_the_first_zone_solve(monkeypatch):
    _patch_evaluate(monkeypatch, lambda h: np.full_like(h, np.nan))
    with pytest.raises(GaplessError, match=r"^Hamiltonian is not finite near "
                       r"k = \(0\.000000, 0\.000000\): gap nan$"):
        run_battery(1)


def test_negated_hamiltonians_fail_the_table_oracle_and_reversal(monkeypatch):
    # -H flips the mass and both 2D velocities, so every sgn(v_x v_y m) and
    # rotation sense; the 3D corners and the preimage count read coeff, and the
    # Kane-Mele gaps, the spectra and the closed forms are blind to the sign
    _patch_evaluate(monkeypatch, lambda h: -h)
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["phase_table", "closed_form_oracle", "direction_reversal"]


def test_negated_energies_fail_the_oracle_and_reversal(monkeypatch):
    # energies negated, with the columns reversed to keep them ascending: the
    # pair frequencies keep their magnitudes, so only the senses and the
    # trajectories that the closed forms check turn
    real = dynamics.hermitian_eig

    def negated(hams):
        w, v = real(hams)
        return SpectralDecomposition(-w[..., ::-1], v[..., ::-1])

    monkeypatch.setattr(dynamics, "hermitian_eig", negated)
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["closed_form_oracle", "direction_reversal"]


@pytest.mark.parametrize("states", ["finite-states", "nan-states"])
def test_non_finite_eigensolve_is_refused_before_level_pairs(monkeypatch, states):
    # NaN energies compare as no gap: unrefused, they fold into one degenerate
    # chain and every trajectory reads a silent drift instead of NaN
    real = dynamics.hermitian_eig

    def non_finite(hams):
        w, v = real(hams)
        return SpectralDecomposition(np.full_like(w, np.nan),
                                     v if states == "finite-states" else np.full_like(v, np.nan))

    monkeypatch.setattr(dynamics, "hermitian_eig", non_finite)
    with pytest.raises(ValueError, match="^eigenvalues are not finite: no level pairs$"):
        run_battery(1)


def test_silent_oscillation_fails_every_trajectory_check(monkeypatch):
    # a random spinor always oscillates: a trial with no spectral line is a
    # failure, not a skip, and no check leaks an empty max()
    real = dynamics._oscillation
    monkeypatch.setattr(dynamics, "_oscillation", lambda *args: np.zeros_like(real(*args)))
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["closed_form_oracle", "direction_reversal", "selection_rule",
                      "scaling_laws"]


def test_negated_plaquette_sum_fails_the_phase_table(monkeypatch):
    # the plaquette sum is the phase table's global route and no other check's
    real = invariants._fhs_sum
    monkeypatch.setattr(invariants, "_fhs_sum", lambda *args: -real(*args))
    failed = [res.name for res in run_battery(1) if not res.passed]
    assert failed == ["phase_table"]


@pytest.mark.parametrize("layer, grid", [("_fhs_sum", 64), ("_preimage_count", 32)])
def test_non_finite_zone_sum_is_refused_on_its_first_grid(monkeypatch, layer, grid):
    # refused at once, naming the grid, with no refinement towards grid 512
    real = invariants._preimage_count
    nan = {"_fhs_sum": lambda *args: float("nan"),
           # NaN on 2D meshes only, so winding_3d still counts
           "_preimage_count": lambda d: float("nan") if d.ndim == 3 else real(d)}
    monkeypatch.setattr(invariants, layer, nan[layer])
    with pytest.raises(ValueError, match=f"^zone sum is not finite on grid {grid}: nan$"):
        run_battery(1)


Z2_LINES = ("mass rule vs sector-Chern parity, 50 random (lambda_v, lambda_so): {} mismatches",
            "Rashba ramp to 0.05 with tracked gap: {} failures",
            "mass rule vs inversion-parity products (lambda_v = 0), 10 samples: {} mismatches")


def test_a_flipped_valley_row_fails_the_z2_check(monkeypatch):
    # the valley indices come from one stacked pass, each compared with its sector parity:
    # a pass that flips one row reads one mismatch
    assert check_kane_mele_z2(np.random.default_rng(SEED)).lines[0] == Z2_LINES[0].format(0)
    real = verify.sweep_rows

    def flip_one(rows):
        out = real(rows)
        out[7] = [1 - out[7][0]]
        return out

    monkeypatch.setattr(verify, "sweep_rows", flip_one)
    result = check_kane_mele_z2(np.random.default_rng(SEED))
    assert not result.passed
    assert result.lines[0] == Z2_LINES[0].format(1)


def test_a_closing_sample_raises_what_the_one_model_route_raises(monkeypatch):
    # a sample on the boundary lambda_v = 3 sqrt3 lambda_so is refused with the error that
    # z2_kane_mele raises for it, at its turn: after the ramps of the samples before it
    closing = (0.06, verify.SQRT27 * 0.06)
    with pytest.raises(GaplessError) as one_model:
        invariants.z2_kane_mele(models.kane_mele(1.0, closing[0], 0.0, closing[1]))
    draws = iter([(0.05, 0.1), (0.08, 0.3), (0.04, 0.05), closing])
    monkeypatch.setattr(verify, "_km_sample", lambda rng: next(draws, (0.05, 0.1)))
    ramps, real = [], verify.rashba_gap_ramp
    monkeypatch.setattr(verify, "rashba_gap_ramp", lambda *args: ramps.append(args) or real(*args))
    with pytest.raises(GaplessError) as stacked:
        check_kane_mele_z2(np.random.default_rng(SEED))
    assert str(stacked.value) == str(one_model.value)
    assert len(ramps) == 3


def test_an_earlier_sample_error_comes_before_a_later_valley_error(monkeypatch):
    draws = iter([(0.05, 0.1), (0.08, 0.3), (0.06, verify.SQRT27 * 0.06)])
    monkeypatch.setattr(verify, "_km_sample", lambda rng: next(draws, (0.05, 0.1)))

    def failing_ramp(t, lambda_so, lambda_v, lambda_r_max):
        if lambda_so == 0.08:
            raise RuntimeError("ramp of sample 1")
        return [(0.0, 1.0)]

    monkeypatch.setattr(verify, "rashba_gap_ramp", failing_ramp)
    with pytest.raises(RuntimeError, match="^ramp of sample 1$"):
        check_kane_mele_z2(np.random.default_rng(SEED))


def test_seed_653558843_fails_the_z2_ramp_alone():
    # the one known verify failure: one Rashba ramp closes its tracked gap
    results = run_battery(653558843)
    assert [res.name for res in results if not res.passed] == ["kane_mele_z2"]
    z2 = next(res for res in results if res.name == "kane_mele_z2")
    assert z2.lines == tuple(line.format(count) for line, count in zip(Z2_LINES, (0, 1, 0)))
