"""One workload process: import ``zbtopo.cli``, then run a job list in-process.

    python3 bench/child.py PLAN RESULT [--trace]

PLAN is a JSON list of ``{"name", "argv"}`` jobs, each run through
``zbtopo.cli.main(argv)`` so it takes the same path as the ``zb`` command;
an empty list only measures the import.  RESULT receives the monotonic
time at which the import finished, the job-list wall time, each job's exit
code and captured output, and the span report when ``--trace`` is given.
"""

import time  # noqa: I001 - nothing may be imported before the clock starts

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import zbtopo.cli  # noqa: E402

IMPORTED = time.monotonic()


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = zbtopo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            code = -1
            err.write(f"raised {type(exc).__name__}: {exc}\n")
    return {"exit": code, "seconds": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(plan_path, result_path, trace):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    jobs = [{"name": job["name"], **run_job(job["argv"])} for job in plan]
    wall = time.perf_counter() - start
    result = {"imported": IMPORTED, "source": zbtopo.cli.__file__, "wall_s": wall,
              "jobs": jobs, "trace": tracer.report() if tracer else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], "--trace" in sys.argv[3:])
