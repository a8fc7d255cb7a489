"""One-shot verification battery behind ``zb verify``.

Each check re-derives a published or independently computable fact through
two routes and reports deterministic detail lines, so two runs with the
same seed emit byte-identical reports.  The same check functions back the
pytest acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _SPURIOUS_TOL,
    WavePacket,
    _random_spinor,
    closed_form_chiral,
    closed_form_spin1,
    pcm_trajectories_exact,
    pcm_trajectory_exact,
    rotation_index,
    selection_rule_check,
    wavepacket_trajectory,
    zb_spectrum,
    zb_time_grid,
)
from .invariants import (
    chern_from_hsp,
    chern_plaquette,
    linearize_at_hsp,
    rashba_gap_ramp,
    sweep_rows,
    winding_from_hsp,
    winding_numerical,
    z2_fu_kane_parity,
    z2_kane_mele,
    z2_spin_chern_parity,
    zone_degree,
)
from .models import chiral_ti_3d, kane_mele, maxwell_lattice, spin_j_continuum

__all__ = ["CheckResult", "run_battery", "render_report", "run_verify"]

SQRT27 = 3.0 * np.sqrt(3.0)
ORACLE_SPINORS = 100  # closed forms: random spinors per family, half of them at each mass sign
Z2_SAMPLES = 50  # Kane-Mele: random (lambda_so, lambda_v) for the sector parity and the ramp
PARITY_SAMPLES = 10  # Kane-Mele: random lambda_so on the inversion-symmetric slice

# Published phase table of the spin-1 lattice model (t_h = 1): per-interval
# local indices at the four inversion points and the lowest-band Chern number.
PHASE_TABLE = {
    -3.0: {"chern": 0, "nu": (-1, +1, +1, -1)},
    -1.0: {"chern": 2, "nu": (-1, +1, +1, +1)},
    1.0: {"chern": -2, "nu": (-1, -1, -1, +1)},
    3.0: {"chern": 0, "nu": (+1, -1, -1, +1)},
}
# nu order follows the model's hsps tuple: (0,0), (0,pi), (pi,0), (pi,pi).

WINDING_TABLE = {4.0: 0, 2.0: -1, 0.0: 2, -2.0: -1, -4.0: 0}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lines: tuple


def _result(name, passed, lines):
    return CheckResult(name=name, passed=bool(passed), lines=tuple(lines))


def _reading(value) -> str:
    """A deviation for a report line, flagged when it is not finite."""
    return f"{value:.3e}" + ("" if np.isfinite(value) else " (non-finite reading)")


def _within_budget(lines, t0, seconds) -> bool:
    """Whether the check begun at ``t0`` took under ``seconds``; appends the report line."""
    within = time.perf_counter() - t0 < seconds
    lines.append(f"runtime within {seconds} s budget: {'yes' if within else 'no'}")
    return within


def check_phase_table(rng) -> CheckResult:
    """Per-interval local indices and lowest-band Chern: corners, plaquettes, 2 x degree."""
    t0 = time.perf_counter()
    lines, ok = [], True
    for m_param, expected in PHASE_TABLE.items():
        model = maxwell_lattice(1.0, m_param)
        lins = linearize_at_hsp(model, model.hsps)
        nus, local = tuple(lin.nu for lin in lins), chern_from_hsp(model, -1, lins)
        global_ = chern_plaquette(model, 0)
        degree = 2 * zone_degree(model)
        good = nus == expected["nu"] and local == global_ == degree == expected["chern"]
        ok &= good
        lines.append(
            f"M={m_param:+.0f}: nu={nus} chern_hsp={local} "
            f"chern_plaquette={global_} expected={expected['chern']}"
        )
        if degree != expected["chern"]:
            lines.append(f"M={m_param:+.0f}: 2 x zone_degree={degree} expected={expected['chern']}")
    ok &= _within_budget(lines, t0, 30)
    return _result("phase_table", ok, lines)


def check_closed_form_oracle(rng) -> CheckResult:
    """Closed forms against the projector double sum, ORACLE_SPINORS random spinors each."""
    tol, n = 1e-8, ORACLE_SPINORS
    # spinors drawn trial by trial, then solved in one stack per model and branch
    spin1 = [_random_spinor(rng, 3) for _ in range(n)]
    pairs = [_random_spinor(rng, 2) for _ in range(n)]
    # np.max over the kept deviations propagates a NaN that max() would drop
    devs_spin1, devs_chiral = [], []
    for parity, mass in enumerate((-2.0, 2.0)):  # even trials at -2, odd at +2
        model, times = maxwell_lattice(1.0, 1.0 if mass < 0 else 3.0), zb_time_grid(abs(mass))
        stack = spin1[parity::2]
        for s, exact in zip(stack, pcm_trajectories_exact(model, np.zeros(2), stack, times)):
            closed, _ = closed_form_spin1(2.0, 2.0, mass, s, times)
            devs_spin1.append(np.max(np.abs(closed.pcm - exact.pcm)))

    for parity, mass in enumerate((-1.0, 1.0)):
        model = chiral_ti_3d(3.0 + mass)
        for first, omega in ((0, abs(mass)), (n // 2, 2 * abs(mass))):  # in-plane, then axial
            stack = [np.array([a, b, 0.0] if first == 0 else [a, 0.0, b])
                     for a, b in pairs[first + parity:first + n // 2:2]]
            times = zb_time_grid(omega, omega)
            for s, exact in zip(stack, pcm_trajectories_exact(model, np.zeros(3), stack, times)):
                closed, _ = closed_form_chiral(1.0, 1.0, 1.0, mass, s, times)
                devs_chiral.append(np.max(np.abs(closed.pcm - exact.pcm)))
    worst_spin1, worst_chiral = float(np.max(devs_spin1)), float(np.max(devs_chiral))

    # Measured phase convention of the in-plane pattern, reported not hidden:
    # with theta = 0 the x component is sine-like, i.e. offset -pi/2 from a
    # pure cosine of the same phase angle.
    _, form = closed_form_spin1(2.0, 2.0, 2.0, np.array([1, 1, 0]) / np.sqrt(2), zb_time_grid(2.0))
    offset = form.phase[0]
    ok = worst_spin1 < tol and worst_chiral < tol
    lines = [
        f"spin-1 closed form vs exact, {n} spinors: max |dr| = {_reading(worst_spin1)}",
        f"chiral closed forms vs exact, {n} spinors: max |dr| = {_reading(worst_chiral)}",
        f"measured x phase offset vs pure-cosine convention: {offset:+.6f} rad (-pi/2: sine-like)",
        "pair amplitude convention: twice the ladder |<a|Jx|a+1>| matrix element",
    ]
    return _result("closed_form_oracle", ok, lines)


def check_direction_reversal(rng) -> CheckResult:
    """Rotation sense flips across the band inversion, packet and exact route."""
    t0 = time.perf_counter()
    spinor = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    lines, ok = [], True
    for m_param, expected in ((1.9, -1), (2.1, +1)):
        model = maxwell_lattice(1.0, m_param)
        packet = WavePacket(width=20.0, center=np.zeros(2), spinor=spinor)
        sense_packet = rotation_index(wavepacket_trajectory(model, packet))
        mass = 2.0 * (m_param - 2.0)
        exact = pcm_trajectory_exact(model, np.zeros(2), spinor, zb_time_grid(abs(mass)))
        sense_exact = rotation_index(exact)
        good = sense_packet == sense_exact == expected
        ok &= good
        lines.append(
            f"M={m_param}: packet={sense_packet:+d} exact={sense_exact:+d} "
            f"expected={expected:+d}"
        )
    ok &= _within_budget(lines, t0, 10)
    return _result("direction_reversal", ok, lines)


def check_selection_rule(rng) -> CheckResult:
    """Only the adjacent-gap frequency appears, spins 1/2 .. 5/2."""
    lines, ok = [], True
    for j in (0.5, 1.0, 1.5, 2.0, 2.5):
        seed = int(rng.integers(2**31))
        report = selection_rule_check(j, 1.0, seed=seed)
        ok &= report.passed
        lines.append(
            f"J={j}: max spurious relative power = {_reading(report.max_spurious_power)} "
            f"(tolerance {_SPURIOUS_TOL:g})"
        )
    return _result("selection_rule", ok, lines)


def check_winding(rng) -> CheckResult:
    """Corner sign formula against the signed preimage count at five mass values."""
    t0 = time.perf_counter()
    lines, ok = [], True
    for m_param, expected in WINDING_TABLE.items():
        model = chiral_ti_3d(m_param)
        local = winding_from_hsp(model)
        count = winding_numerical(model)
        ok &= local == count == expected
        lines.append(f"M={m_param:+.0f}: corners={local} count={count} expected={expected}")
    ok &= _within_budget(lines, t0, 120)
    return _result("winding_3d", ok, lines)


def _km_sample(rng):
    while True:
        lam_so = rng.uniform(0.03, 0.10)
        lam_v = rng.uniform(0.0, 0.45)
        if abs(lam_v - SQRT27 * lam_so) > 0.03:
            return lam_so, lam_v


def check_kane_mele_z2(rng) -> CheckResult:
    """Valley mass rule vs sector-Chern parity, parity products, Rashba ramp.  The valley
    indices come from one `sweep_rows` pass; a sample's refusal (`z2_kane_mele`'s error) is
    raised at its turn, after the parity and ramp of every earlier sample."""
    samples = [_km_sample(rng) for _ in range(Z2_SAMPLES)]
    rows = [kane_mele(1.0, lam_so, 0.0, lam_v) for lam_so, lam_v in samples]
    mismatches = ramp_failures = 0
    for (lam_so, lam_v), model, valley in zip(samples, rows, sweep_rows(rows)):
        if isinstance(valley, Exception):
            raise valley
        if valley[0] != z2_spin_chern_parity(model):
            mismatches += 1
        # the lambda_r = 0 index carries over only while the gap stays open
        ramp = rashba_gap_ramp(1.0, lam_so, lam_v, 0.05)
        if not all(gap > 1e-3 for _, gap in ramp):
            ramp_failures += 1

    parity_mismatches = 0
    for _ in range(PARITY_SAMPLES):
        lam_so = rng.uniform(0.03, 0.10)
        model = kane_mele(1.0, lam_so, 0.0, 0.0)
        if z2_kane_mele(model) != z2_fu_kane_parity(model):
            parity_mismatches += 1

    ok = mismatches == 0 and ramp_failures == 0 and parity_mismatches == 0
    lines = [
        f"mass rule vs sector-Chern parity, {Z2_SAMPLES} random (lambda_v, lambda_so): "
        f"{mismatches} mismatches",
        f"Rashba ramp to 0.05 with tracked gap: {ramp_failures} failures",
        f"mass rule vs inversion-parity products (lambda_v = 0), {PARITY_SAMPLES} samples: "
        f"{parity_mismatches} mismatches",
    ]
    return _result("kane_mele_z2", ok, lines)


def check_scaling_laws(rng) -> CheckResult:
    """Amplitude ~ 1/gap, frequency = adjacent gap, trajectory reversal."""
    spinor = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    masses = np.array([0.5, 1.0, 2.0, 4.0])
    amplitudes = []
    for mass in masses:
        traj, _ = closed_form_spin1(1.0, 1.0, mass, spinor, zb_time_grid(mass))
        amplitudes.append(np.max(np.hypot(traj.pcm[:, 0], traj.pcm[:, 1])))
    exponent = float(np.polyfit(np.log(masses), np.log(amplitudes), 1)[0])
    exponent_ok = abs(exponent + 1.0) <= 0.01

    freq_ok = True
    for j in (0.5, 1.5, 2.5):
        model = spin_j_continuum(j, 1.0, 1.0, 1.3)
        traj = pcm_trajectory_exact(model, np.zeros(2), _random_spinor(rng, model.band_count),
                                    zb_time_grid(1.3))
        spec = zb_spectrum(traj)
        # a spectrum with no line reads a NaN frequency, which matches nothing
        freq = max(spec.peaks, key=lambda p: p[1], default=(float("nan"), 0.0))[0]
        freq_ok &= abs(freq - 1.3) <= spec.resolution

    reversal_worst = 0.0
    times = zb_time_grid(2.0)
    for _ in range(20):
        spin3 = _random_spinor(rng, 3)
        forward, _ = closed_form_spin1(2.0, 2.0, 2.0, spin3, times)
        backward, _ = closed_form_spin1(2.0, 2.0, -2.0, spin3, -times[::-1])
        reversal_worst = max(
            reversal_worst, float(np.max(np.abs(backward.pcm[::-1] + forward.pcm)))
        )
    reversal_ok = reversal_worst < 1e-10

    ok = exponent_ok and freq_ok and reversal_ok
    lines = [
        f"amplitude-vs-gap fitted exponent: {exponent:+.6f} (want -1 +- 0.01)",
        f"dominant frequency equals the adjacent gap within resolution: "
        f"{'yes' if freq_ok else 'no'}",
        f"reversal identity r_-m(t) = -r_m(-t): max dev {reversal_worst:.3e}",
    ]
    return _result("scaling_laws", ok, lines)


CHECKS = (
    check_phase_table,
    check_closed_form_oracle,
    check_direction_reversal,
    check_selection_rule,
    check_winding,
    check_kane_mele_z2,
    check_scaling_laws,
)


def run_battery(seed: int):
    """Run every check against one deterministic random stream."""
    rng = np.random.default_rng(seed)
    return [check(rng) for check in CHECKS]


def render_report(results, seed: int) -> str:
    lines = [f"verification report (seed={seed})"]
    for res in results:
        lines.append(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}")
        for detail in res.lines:
            lines.append(f"    {detail}")
    passed = sum(res.passed for res in results)
    lines.append(f"summary: {passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def run_verify(seed: int):
    """Full battery plus a same-seed determinism re-run; returns (text, ok)."""
    first = run_battery(seed)
    second = run_battery(seed)
    identical = render_report(first, seed) == render_report(second, seed)
    results = list(first) + [
        _result(
            "determinism",
            identical,
            [f"re-run with seed {seed} is byte-identical: {'yes' if identical else 'no'}"],
        )
    ]
    text = render_report(results, seed)
    return text, all(res.passed for res in results)
