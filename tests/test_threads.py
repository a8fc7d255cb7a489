"""The one-thread OpenBLAS pin that ``import zbtopo`` applies.

Each test runs a fresh interpreter: OpenBLAS reads its thread count once,
when numpy loads it, and this process has loaded numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The seed-1818 `maxwell_packet_below` job of bench/workloads.py: a 61^2 packet whose
# CSVs differ in the last bits between one and two OpenBLAS threads.
PACKET = {
    "model": {"name": "maxwell", "params": {"t_h": 1.0, "M": 1.547963406613487}},
    "dynamics": {"packet": {"width": 20.0, "center": [0.0, 0.0], "grid_points": 61},
                 "spinor": [[-0.08360983872373176, -0.19787224461653066],
                            [-0.9149515135916191, -0.21347118485305952],
                            [-0.26448315577204345, -0.03461807339677698]]},
}


def run_python(args, cwd=None, **preset):
    """Run ``python args`` with ``src`` importable, no thread variable set but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True, timeout=300).stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to spin a second")
def test_matmul_after_import_runs_on_one_thread():
    ratio = float(run_python(["-c", """
import time
import zbtopo
import numpy as np
a = np.random.default_rng(0).random((1024, 1024))
a @ a
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(3):
    a @ a
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""]))
    assert ratio <= 1.3, f"matmul CPU time is {ratio:.2f} x its wall time"


@pytest.mark.parametrize("preset", [{}] + [{var: "2"} for var in THREAD_VARS],
                         ids=["none"] + list(THREAD_VARS))
def test_import_leaves_the_environment_unchanged(preset):
    seen = json.loads(run_python(["-c", """
import json, os
before = dict(os.environ)
import zbtopo
print(json.dumps([before, dict(os.environ)]))
"""], **preset))
    assert seen[0] == seen[1]
    assert {var: seen[1].get(var) for var in THREAD_VARS} == {
        var: preset.get(var) for var in THREAD_VARS}


def test_packet_bytes_equal_the_one_thread_bytes(tmp_path):
    config = tmp_path / "packet.json"
    config.write_text(json.dumps(PACKET), encoding="utf-8")
    outputs = []
    for name, preset in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        run_python(["-m", "zbtopo.cli", "zb", "--config", str(config), "--out", name],
                   cwd=tmp_path, **preset)
        outputs.append([(tmp_path / name / csv).read_bytes()
                        for csv in ("trajectory.csv", "spectrum.csv")])
    assert outputs[0] == outputs[1]
