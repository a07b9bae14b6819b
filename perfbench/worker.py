"""One fresh interpreter's share of a benchmark run; started by run.py.

    python3 perfbench/worker.py {setup,job,traced} WORKLOAD SEED

The worker imports permuta from the checkout's ``src``, builds and validates
the workload's families and notes the monotonic clock.  ``setup`` stops
there; ``job`` then runs the task list untraced and ``traced`` runs it with
spans.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports permuta: part of the timed set-up)


def host_probe_s() -> float:
    """Median time of three runs of a fixed pure-Python loop: how fast this
    host runs the interpreter right now.  No permuta code is involved."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_task(task, rec) -> dict:
    """Run one operation; a statistical miss is confirmed on the task's second seed."""
    t0 = time.perf_counter()
    out = _attempt(task, rec)
    out["seconds"] = time.perf_counter() - t0
    return out


def _attempt(task, rec) -> dict:
    out = {"task": task.name, "verdict": "fail", "attempts": 0, "error": None}
    for attempt, seed in enumerate(task.seeds):
        out["attempts"] = attempt + 1
        try:
            with rec.task(task.name if attempt == 0 else f"{task.name}.confirm") as span:
                ok = task.fn(rec, seed)
                if span is not None:
                    span.failed = not ok
        except Exception as e:  # every raise is a failed operation, reported by type
            known = task.known_defect is not None and isinstance(e, task.known_defect)
            out.update(verdict="known-defect" if known else "fail",
                       error=f"{type(e).__name__}: {e}")
            return out
        if ok:
            out["verdict"] = "pass"
            return out
    return out


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode not in ("setup", "job", "traced"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    rec = tracing.Tracer() if mode == "traced" else tracing.Recorder()
    if mode == "traced":
        with rec.span("bench.setup"):
            fams = workloads.setup(workload, rec)
    else:
        fams = workloads.setup(workload)
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC),
              "probe_after_setup_s": host_probe_s()}
    if mode != "setup":
        tasks = workloads.tasks(workload, fams, seed)
        rec.work.clear()  # compare the job's work only, not the set-up's
        probes = [host_probe_s()]
        outcomes = []
        for task in tasks:
            outcomes.append(run_task(task, rec))
            probes.append(host_probe_s())
        result["job_s"] = sum(o["seconds"] for o in outcomes)
        result["probes_s"] = probes
        result["outcomes"] = outcomes
        result["work"] = rec.work
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode == "traced":
        result["spans"] = rec.to_records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
