"""permuta benchmark: run one workload on one seed and print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads (see workloads.py): cli_defaults, sparse_unbounded, dense_long,
exact_oracles.  One closed-loop caller drives the package from one process
at a time: each task waits for the previous one, and ``threads`` stays at
its default of 1.

--trace 0 measures the end-to-end metrics with tracing off.  Fresh
interpreters run the whole task list again and again until ``--seconds`` of
job time are spent (at least once), and more fresh interpreters only do the
set-up until there are SETUP_SAMPLES set-up times.  Reported:
  setup_s      median over fresh interpreters of the time from process start
               to imported, built and validated families (before any task)
  job_s        median time of the whole task list
  peak_rss_mb  median peak resident memory of the interpreters that ran it

On a shared host the speed of every process can drift by up to 2x within
minutes (seen on a 2-CPU Xeon VM).  So both timings are given at a reference
host speed: the worker times a fixed pure-Python loop (the probe) after its
set-up and between tasks, and each set-up time and task time is multiplied
by PROBE_REF_S / (the probe time next to it).  The plain wall-clock medians
are in the report and the record as wall.setup_s and wall.job_s.

--trace 1 runs the task list once untraced and once with a span around every
task and every layer call, checks that both did the same work (identical
work counts and verdicts), and reports the per-layer metrics of the traced
run plus the tracing overhead.

Every task is a checked operation.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a readable report goes to
standard error, and a full record (environment stamp, verdicts, spans) to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Span, percentile, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("cli_defaults", "sparse_unbounded", "dense_long", "exact_oracles")
SETUP_SAMPLES = 9
PROBE_REF_S = 0.010  # the probe's time on the reference host the timings are scaled to
DEADLINE_S = 170.0  # a run must end within 180 s; workers still running then are killed

# layer throughputs: span name, unit of work.  Metric "<span>.<work>_per_s",
# 0 where the workload makes no call into that layer.
LAYER_RATES = (
    ("process.duality_mc.event", "replicas"),
    ("process.duality_mc.vector", "replicas"),
    ("process.run_config", "events"),
    ("process.run_finite", "events"),
    ("coupling.estimate_g.z1", "runs"),
    ("coupling.estimate_g.z3", "runs"),
    ("coupling.estimate_g.torus", "runs"),
    ("coupling.run_triple", "events"),
    ("coupling.run_recurrent_coupling", "events"),
    ("coupling.run_general_coupling", "events"),
    ("coupling.success_bound_check", "runs"),
    ("coupling.lemma_cover_existence", "checks"),
    ("coupling.lemma_D_monotone", "checks"),
    ("exact.build_generator.dense", "states"),
    ("exact.build_generator.sparse", "states"),
    ("exact.stationarity_residual", "states"),
    ("exact.sector_stationary", "states"),
    ("exact.duality_exact", "states"),
    ("exact.asymmetric_duality_falsifier", "checks"),
)


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result, with the
    set-up time measured from just before the process was started."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker exceeded the time limit") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - t0
    return result


def scaled_setup_s(worker: dict) -> float:
    """Set-up seconds rescaled to a host that runs the probe in PROBE_REF_S."""
    return worker["setup_s"] * PROBE_REF_S / worker["probe_after_setup_s"]


def scaled_job_s(worker: dict) -> float:
    """Job seconds rescaled task by task to a host that runs the probe in
    PROBE_REF_S, using the probes taken just before and just after each task."""
    p = worker["probes_s"]
    return sum(o["seconds"] * PROBE_REF_S * 2 / (p[i] + p[i + 1])
               for i, o in enumerate(worker["outcomes"]))


def count_ops(worker: dict) -> tuple:
    """(attempted, failed); a known-defect task that still raises counts as neither."""
    counted = [o for o in worker["outcomes"] if o["verdict"] != "known-defect"]
    return len(counted), sum(o["verdict"] == "fail" for o in counted)


def _verdicts(worker: dict) -> list:
    return [(o["task"], o["verdict"], o["attempts"]) for o in worker["outcomes"]]


def same_work(a: dict, b: dict) -> bool:
    return a["work"] == b["work"] and _verdicts(a) == _verdicts(b)


def layer_metrics(stats: dict, overhead_s: float) -> dict:
    out = {}
    v = stats["rates.validate_family"]
    out["rates.validate_family.ms_per_call"] = (v.busy_s * 1e3 / v.calls, "ms")
    for span, work in LAYER_RATES:
        st = stats.get(span)
        rate = st.units / st.busy_s if st is not None and st.busy_s > 0 else 0.0
        out[f"{span}.{work}_per_s"] = (rate, f"{work}/s")
    out["bench.task.self_s"] = (stats["bench.task"].self_s, "s")
    out["bench.trace_overhead_s"] = (overhead_s, "s")
    return out


def span_table(spans: list, stats: dict) -> dict:
    """Every span name's calls, busy_s, self_s, failed and work units, the
    recurrent coupling's call-time percentiles and each module's busy time."""
    table = {name: vars(st) for name, st in sorted(stats.items())}
    rec_ms = [(s.end - s.start) * 1e3 for s in spans if s.name == "coupling.run_recurrent_coupling"]
    extra = {}
    if rec_ms:
        extra["coupling.run_recurrent_coupling.call_ms.p50"] = percentile(rec_ms, 50)
        extra["coupling.run_recurrent_coupling.call_ms.p99"] = percentile(rec_ms, 99)
        extra["coupling.run_recurrent_coupling.call_ms.n"] = len(rec_ms)
    for module in ("rates", "process", "coupling", "exact"):
        extra[f"{module}.busy_s"] = sum(st["busy_s"] for name, st in table.items()
                                        if name.startswith(module + "."))
    return {"spans": table, "extra": extra}


def environment(args) -> dict:
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or None, "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_sha": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            stamp["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                stamp["cpu_model"])
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            stamp["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stamp["source_sha256"] = digest.hexdigest()
    return stamp


def check_declared(trace: int, metric_names) -> None:
    """The metrics printed must be exactly the ones BENCHMARK.json declares
    for this mode: end_to_end untraced, per_layer traced."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metric_names):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(declared ^ set(metric_names))}")


def run(args) -> tuple:
    """Returns (correct, attempted, failed, metrics, record)."""
    deadline = time.monotonic() + DEADLINE_S
    record = {"environment": environment(args)}
    if args.trace == 0:
        jobs = [spawn("job", args.workload, args.seed, deadline)]
        while (sum(j["job_s"] for j in jobs) + statistics.median(j["job_s"] for j in jobs)
               <= args.seconds):
            jobs.append(spawn("job", args.workload, args.seed, deadline))
        setups = list(jobs)
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn("setup", args.workload, args.seed, deadline))
        metrics = {
            "setup_s": (statistics.median(map(scaled_setup_s, setups)), "s"),
            "job_s": (statistics.median(map(scaled_job_s, jobs)), "s"),
            "peak_rss_mb": (statistics.median(j["maxrss_mb"] for j in jobs), "MB"),
        }
        record.update(setup_samples_s=[w["setup_s"] for w in setups],
                      setup_scaled_s=[scaled_setup_s(w) for w in setups],
                      job_samples_s=[j["job_s"] for j in jobs],
                      job_scaled_s=[scaled_job_s(j) for j in jobs],
                      rss_samples_mb=[j["maxrss_mb"] for j in jobs],
                      extra={"wall.setup_s": statistics.median(w["setup_s"] for w in setups),
                             "wall.job_s": statistics.median(j["job_s"] for j in jobs)})
    else:
        plain = spawn("job", args.workload, args.seed, deadline)
        traced = spawn("traced", args.workload, args.seed, deadline)
        jobs = [plain, traced]
        spans = [Span(**s) for s in traced["spans"]]
        stats = summarize(spans)
        metrics = layer_metrics(stats, traced["job_s"] - plain["job_s"])
        record.update(span_table(spans, stats), job_samples_s=[plain["job_s"], traced["job_s"]],
                      raw_spans=traced["spans"])
    totals = {}
    for _, layer, units in jobs[0]["work"]:
        totals[layer] = totals.get(layer, 0) + units
    record.update(work_totals=totals, task_seconds={
        o["task"]: statistics.median(j["outcomes"][i]["seconds"] for j in jobs)
        for i, o in enumerate(jobs[0]["outcomes"])})
    consistent = all(same_work(jobs[0], j) for j in jobs[1:])
    attempted = sum(count_ops(j)[0] for j in jobs)
    failed = sum(count_ops(j)[1] for j in jobs)
    record["environment"].update(jobs[0]["versions"])
    record.update(same_work=consistent, outcomes=jobs[0]["outcomes"],
                  attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted if attempted else 0.0)
    return failed == 0 and consistent, attempted, failed, metrics, record


def report(args, correct, attempted, failed, metrics, record) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"source {env['git_sha'] or env['source_sha256'][:16]}", file=err)
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}", file=err)
    for o in record["outcomes"]:
        note = f"  ({o['error']})" if o["error"] else ""
        note += "  (confirmed on second seed)" if o["attempts"] > 1 else ""
        print(f"  {o['verdict']:12s} {o['task']}{note}", file=err)
    for layer, units in record["work_totals"].items():
        print(f"  work {layer:47s} {units:14d}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}", file=err)
    print(f"  {'failed_ratio':52s} {record['failed_ratio']:14.6g} 1"
          f"  (ops_attempted {attempted}, failed {failed})", file=err)
    for name, value in record.get("extra", {}).items():
        print(f"  {name:52s} {value:14.6g}", file=err)
    print(f"same work in every run: {record['same_work']}  correct: {correct}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permuta" / "__init__.py").is_file():
        print("perfbench: no permuta sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics, record = run(args)
        check_declared(args.trace, metrics)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    report(args, correct, attempted, failed, metrics, record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
