"""Spans around the public entry points of each zbtopo module.

The tracer is installed from outside the package, after ``zbtopo.cli`` is
imported.  Each traced function is rebound in every zbtopo module that
holds it, because ``from .x import y`` makes a copy of the reference in the
importing module, and ``verify.CHECKS`` is rebuilt because it holds the
original check functions.  Per-value helpers such as ``io.fmt`` are not
wrapped: they are called tens of thousands of times per workload and would
inflate the tracing overhead.

Spans opened inside the phase-diagram pool's forked workers are lost with
the worker; the pool's wall time lands in ``cli.cmd_phase_diagram.self_s``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_matrices(tracer, args, result):
    n = result.shape[-1]
    tracer.counts["models.evaluate.matrices"] += result.size // (n * n)
    if tracer.active["invariants.chern_plaquette"]:
        tracer.counts["plaquette_evaluates"] += 1


def _pairs(model):
    return model.band_count * (model.band_count - 1) // 2


def _count_packet(tracer, args, result):
    model = args[0]
    kpoints = result.metadata["grid"]["points"] ** model.momentum_dim
    tracer.counts["dynamics.packet_kpoints"] += kpoints
    tracer.counts["dynamics.synthesis_tp"] += len(result.times) * kpoints * _pairs(model)


def _count_trajectory(tracer, args, result):
    tracer.counts["dynamics.synthesis_tp"] += len(result.times) * _pairs(args[0])


# (module, function, span name, counter hook).  The model factories share
# one span, as do the CSV writers.
ENTRY_POINTS = (
    ("spectral", "hermitian_eig", "spectral.hermitian_eig", None),
    ("models", "spin_j_continuum", "models.factory", None),
    ("models", "maxwell_lattice", "models.factory", None),
    ("models", "kane_mele", "models.factory", None),
    ("models", "kane_mele_spin_sector", "models.factory", None),
    ("models", "chiral_ti_3d", "models.factory", None),
    ("models", "evaluate", "models.evaluate", _count_matrices),
    ("models", "gradient", "models.gradient", None),
    ("generators", "spin_matrices", "generators.spin_matrices", None),
    ("generators", "gell_mann", "generators.gell_mann", None),
    ("dynamics", "pcm_trajectory_exact", "dynamics.pcm_trajectory_exact", _count_trajectory),
    ("dynamics", "wavepacket_trajectory", "dynamics.wavepacket_trajectory", _count_packet),
    ("dynamics", "closed_form_spin1", "dynamics.closed_form_spin1", None),
    ("dynamics", "closed_form_chiral", "dynamics.closed_form_chiral", None),
    ("dynamics", "zb_spectrum", "dynamics.zb_spectrum", None),
    ("dynamics", "rotation_index", "dynamics.rotation_index", None),
    ("dynamics", "selection_rule_check", "dynamics.selection_rule_check", None),
) + tuple(
    ("invariants", fn, f"invariants.{fn}", None)
    for fn in ("linearize_at_hsp", "chern_from_hsp", "chern_plaquette", "winding_from_hsp",
               "winding_numerical", "z2_kane_mele", "z2_spin_chern_parity",
               "z2_fu_kane_parity", "rashba_gap_ramp", "compute_invariants")
) + tuple(
    ("verify", fn, f"verify.{fn}", None)
    for fn in ("check_phase_table", "check_closed_form_oracle", "check_direction_reversal",
               "check_selection_rule", "check_winding", "check_kane_mele_z2",
               "check_scaling_laws")
) + tuple(
    ("io", fn, "io.write_csv", None)
    for fn in ("write_trajectory_csv", "write_spectrum_csv", "write_bands_csv",
               "write_sweep_csv")
) + (("io", "report_json", "io.report_json", None),) + tuple(
    ("cli", fn, f"cli.{fn}", None)
    for fn in ("load_config", "build_model", "cmd_bands", "cmd_zb", "cmd_invariants",
               "cmd_phase_diagram", "cmd_verify")
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in ENTRY_POINTS))


class Tracer:
    """Per-span call counts, total and self time, plus counters from array sizes.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.
    """

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._open = []  # child time accumulated by each open span

    def wrap(self, name, fn, hook):
        open_spans, active = self._open, self.active

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] -= 1
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return span

    def install(self):
        """Rebind every entry point in every loaded zbtopo module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "zbtopo" or key.startswith("zbtopo.")]
        for module, attr, name, hook in ENTRY_POINTS:
            # An entry point a later version removed records no calls.
            original = getattr(sys.modules[f"zbtopo.{module}"], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        verify = sys.modules["zbtopo.verify"]
        verify.CHECKS = tuple(getattr(verify, fn.__name__) for fn in verify.CHECKS)

    def report(self) -> dict:
        spans = {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                        "self_s": self.self_s[name]} for name in SPAN_NAMES}
        return {"spans": spans, "counts": dict(self.counts)}
