"""zbtopo benchmark: run one workload's zb jobs and print its metrics.

    python3 bench/run.py --workload packets|sweeps|verify|all --seed N
                         [--seconds S] [--trace 0|1]

Each pass of a workload is a fresh process (bench/child.py) that imports
``zbtopo.cli`` and runs the workload's job list back to back, in-process,
through ``zbtopo.cli.main``: a closed loop with one client.  Passes repeat
until ``--seconds`` have elapsed; a few import-only processes add samples
of the set-up time.  Every job's output is checked against the oracles in
bench/workloads.py and hashed; the hashes must repeat across passes.

``--trace 0`` reports the end-to-end metrics as medians over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of bench/spans.py.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCE = os.path.join(ROOT, "src", "zbtopo")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 2          # import-only processes before each pass, for setup_s
CHILD_TIMEOUT_S = 120.0   # a pass that takes longer is killed and failed

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Pass:
    """Measurements of one workload process."""

    def __init__(self, traced):
        self.traced = traced
        self.wall_s = self.setup_s = self.cpu_s = self.peak_rss_mb = None
        self.jobs = []       # per job: name, errors, output SHA-256s, seconds
        self.trace = None
        self.bytes_written = 0


def spawn(argv, timeout):
    """Run a child in its own process group; return (spawn time, status, rusage)."""
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
                         setpgroup=0)
    try:
        while True:
            done, status, rusage = os.wait4(pid, os.WNOHANG)
            if done:
                return spawned, status, rusage
            if time.monotonic() - spawned > timeout:
                os.killpg(pid, signal.SIGKILL)
                _, status, rusage = os.wait4(pid, 0)
                return spawned, status, rusage
            time.sleep(0.005)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise


def run_child(plan_path, result_path, traced):
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [os.path.join(BENCH, "child.py"), plan_path, result_path]
    spawned, status, rusage = spawn(argv + (["--trace"] if traced else []), CHILD_TIMEOUT_S)
    result = None
    if os.waitstatus_to_exitcode(status) == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if os.path.dirname(os.path.abspath(result["source"])) != SOURCE:
            raise SystemExit(f"zbtopo was imported from {result['source']}, not {SOURCE}")
    # On Linux the rusage of a waited-for child includes the descendants it
    # waited for (the phase-diagram pool), and ru_maxrss is the larger of
    # the child's own peak and its largest descendant's.
    cpu = rusage.ru_utime + rusage.ru_stime
    return spawned, result, cpu, rusage.ru_maxrss / 1024.0


def file_digests(out_dir):
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def run_pass(jobs, plan_path, out_dirs, result_path, traced):
    for out_dir in out_dirs:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
    spawned, result, cpu, rss = run_child(plan_path, result_path, traced)
    record = Pass(traced)
    record.cpu_s, record.peak_rss_mb = cpu, rss
    outcomes = result["jobs"] if result else [None] * len(jobs)
    for job, out_dir, outcome in zip(jobs, out_dirs, outcomes):
        digests, size = file_digests(out_dir)
        record.bytes_written += size
        if outcome is None:
            errors = ["workload process died before reporting"]
        elif outcome["exit"] != 0:
            errors = [f"exit code {outcome['exit']}: {outcome['stderr'].strip()[-200:]}"]
        else:
            try:
                errors = job.check(outcome["stdout"], out_dir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        record.jobs.append({"name": job.name, "errors": errors, "sha256": digests,
                            "seconds": outcome["seconds"] if outcome else None})
    if result:
        record.wall_s = result["wall_s"]
        record.setup_s = result["imported"] - spawned
        record.trace = result["trace"]
    return record


def check_determinism(passes):
    """Outputs of one seed must be byte-identical across passes."""
    first = passes[0].jobs
    for record in passes[1:]:
        for ref, job in zip(first, record.jobs):
            if job["sha256"] != ref["sha256"] and not job["errors"]:
                job["errors"].append("output differs from the first pass of this run")


def probe_setup(work):
    """Time until zbtopo.cli is imported, in an import-only process."""
    plan = os.path.join(work, "empty_plan.json")
    spawned, result, _, _ = run_child(plan, os.path.join(work, "probe.json"), False)
    if result is None:
        raise SystemExit("the import-only workload process failed")
    return result["imported"] - spawned


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(passes, setups):
    runs = [p for p in passes if not p.traced]
    return {
        "wall_s": median(p.wall_s for p in runs),
        "cpu_s": median(p.cpu_s for p in runs if p.wall_s is not None),
        "peak_rss_mb": median(p.peak_rss_mb for p in runs if p.wall_s is not None),
        "setup_s": median(setups + [p.setup_s for p in runs]),
    }


def per_layer(workload, passes):
    """Per-layer metrics from the traced passes, and coverage errors."""
    traced = [p for p in passes if p.traced and p.trace]
    if not traced:
        return None, ["no traced pass completed"]
    spans = traced[-1].trace["spans"]
    counts = traced[-1].trace["counts"]
    metrics = {}
    for name in spans:
        metrics[f"{name}.calls"] = (spans[name]["calls"], "count")
        for kind in ("total_s", "self_s"):
            metrics[f"{name}.{kind}"] = (median(p.trace["spans"][name][kind] for p in traced), "s")
    eig_calls = spans["spectral.hermitian_eig"]["calls"]
    kpoints = counts.get("dynamics.packet_kpoints", 0)
    plaquettes = spans["invariants.chern_plaquette"]["calls"]
    metrics.update({
        "models.evaluate.matrices": (counts.get("models.evaluate.matrices", 0), "count"),
        "spectral.eig_calls_per_kpoint": (eig_calls / kpoints if kpoints else 0.0,
                                          "calls/kpoint"),
        "dynamics.packet_kpoints": (kpoints, "count"),
        "dynamics.synthesis_tp": (counts.get("dynamics.synthesis_tp", 0), "count"),
        "invariants.plaquette_refinements": (
            counts.get("plaquette_evaluates", 0) / plaquettes if plaquettes else 0.0,
            "grids/call"),
        "io.bytes_written": (traced[-1].bytes_written, "bytes"),
        # Passes alternate untraced, traced: each traced pass is compared
        # with the untraced pass just before it.
        "trace.overhead_s": (median(t.wall_s - u.wall_s for u, t in zip(passes[::2], passes[1::2])
                                    if t.wall_s is not None and u.wall_s is not None), "s"),
    })
    errors = [f"span {name} recorded no calls on {workload}"
              for name in workloads.DOMINANT_SPANS[workload] if spans[name]["calls"] == 0]
    errors += [f"span {name} recorded {spans[name]['calls']} calls on {workload}, expected 0"
               for name in workloads.ABSENT_SPANS.get(workload, ()) if spans[name]["calls"]]
    return metrics, errors


def stamp():
    """Where the numbers were taken: code, interpreter, BLAS, threads, cores."""
    import platform

    import numpy

    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False, timeout=30)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var) for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = workloads.build(workload, seed)
    plan, out_dirs = [], []
    for job in jobs:
        config_path = os.path.join(work, f"{job.name}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)
        out_dirs.append(os.path.join(work, "out", job.name))
        plan.append({"name": job.name, "argv": job.argv(config_path, out_dirs[-1])})
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(os.path.join(work, "empty_plan.json"), "w", encoding="utf-8") as fh:
        json.dump([], fh)
    result_path = os.path.join(work, "pass.json")

    # Set-up probes are spread between the passes so that both sample the
    # same stretch of machine time.
    setups, passes = [], []
    deadline = time.monotonic() + seconds
    while True:
        setups += [probe_setup(work) for _ in range(SETUP_PROBES)]
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, plan_path, out_dirs, result_path, traced))
        if time.monotonic() >= deadline and len(passes) >= (2 if trace else 1):
            break
    check_determinism(passes)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(bool(job["errors"]) for p in passes for job in p.jobs)
    problems = [f"{job['name']}: {err}" for p in passes for job in p.jobs for err in job["errors"]]
    if trace:
        metrics, coverage = per_layer(workload, passes)
        problems += coverage
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(passes, setups).items()}
    if metrics is None or any(value is None for value, _ in metrics.values()):
        for line in problems:
            print(f"  FAIL {line}", file=sys.stderr)
        raise SystemExit(f"{workload}: no pass completed, nothing to report")

    record = {"workload": workload, "seed": seed, "trace": trace, "stamp": stamp(),
              "setup_probes_s": setups,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "setup_s": p.setup_s,
                          "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb, "jobs": p.jobs,
                          "trace": p.trace} for p in passes],
              "metrics": {name: value for name, (value, _) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload} (seed {seed}, trace {int(trace)}): {len(passes)} passes, "
          f"{len(setups)} set-up probes; {workloads.WHY[workload]}")
    print(f"  stamp {json.dumps(record['stamp'])}")
    for job in passes[0].jobs:
        hashes = " ".join(f"{name}={digest[:16]}" for name, digest in job["sha256"].items())
        print(f"  job {job['name']}: {hashes}")
    for line in problems:
        print(f"  FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted} jobs)")
    if trace and metrics["cli.cmd_phase_diagram.calls"][0]:
        print("  note: spans inside the phase-diagram pool's forked workers are lost; "
              "their wall time is in cli.cmd_phase_diagram.self_s")
    print(f"  record {os.path.relpath(os.path.join(work, 'result.json'), ROOT)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running pass's
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"no zbtopo sources at {SOURCE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}.{metric}": value for name, r in results.items()
                               for metric, value in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
