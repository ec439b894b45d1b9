"""pavelab benchmark: four CLI workloads, checked outputs, job-level metrics.

    python3 perfbench/run.py --workload pave_large|scan_exact|scan_mc|verify_small|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  Inputs are generated from --seed by the
program's own `gen` command during set-up.  One worker process then runs CLI
jobs through `pavelab.cli.main` in a closed loop (one job at a time) for
--seconds; every job's output is checked afterwards against references
computed here with plain numpy.  BLAS thread variables are set only in the
environment of the child processes.

Times are reported at a nominal host speed: each job's wall time and each
set-up's is divided by the host factor of the workload's fixed reference
work, timed just before and just after it (see hostref.py).  The raw wall times are printed on
the report lines too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 traces
every second job and prints the per-layer metrics derived from the spans,
plus the tracing overhead (traced job_s against untraced job_s).  The last line of stdout is the JSON result; everything
before it is for people.  Work files go to .bench_build/perfbench/ and are
removed at exit, except the span file of a traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracer as tracing
from hostref import SETUP_REF, host_factor
from workloads import SETUP_RUNS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
MAX_JOBS = 1000
MIN_JOBS = 3            # measured jobs at least; traced runs: of each kind
BLAS_THREADS = 1
CHILD_TIMEOUT = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def _worker(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": {k: str(BLAS_THREADS) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload_seed": seed,
        "git_commit": _git_commit(),
    }


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    rank = len(values) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(values), sorted(values)[rank - 1]


def job_failure(work, j, rec, out_text):
    if rec["error"] is not None:
        return rec["error"].strip().splitlines()[-1]
    return work.check(j, rec["rc"], rec["stdout"], out_text)


def _read(path):
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        return fh.read()


def run_workload(name, seed, seconds, trace, spec):
    dirs = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    work = WORKLOADS[name](dirs, seed)
    for sub in ("in", "out"):
        os.makedirs(os.path.join(dirs, sub), exist_ok=True)
    try:
        return _measure(work, seed, seconds, trace, spec, dirs)
    finally:
        shutil.rmtree(dirs, ignore_errors=True)


def _measure(work, seed, seconds, trace, spec, dirs):
    runs = []
    for i in range(SETUP_RUNS + 1):
        argvs = [work.gen_argv(i)] if work.pool else []
        runs.append(json.loads(_worker(["setup", json.dumps(argvs)])))
    # run i is scaled by the references timed at the end of runs i-1 and i
    setup = [(runs[i]["setup_s"], host_factor(SETUP_REF, runs[i - 1]["ref"], runs[i]["ref"]))
             for i in range(1, len(runs))]
    setup_s = statistics.median(wall / factor for wall, factor in setup)
    work.prepare()

    plan_path = os.path.join(dirs, "plan.json")
    result_path = os.path.join(dirs, "result.json")
    with open(plan_path, "w") as fh:
        json.dump({"jobs": [work.argv(j) for j in range(MAX_JOBS)], "seconds": seconds,
                   "ref": work.ref,
                   "trace": bool(trace), "min_jobs": MIN_JOBS * (2 if trace else 1)}, fh)
    _worker(["loop", plan_path, result_path])
    with open(result_path) as fh:
        result = json.load(fh)

    jobs, failures, first_ok = result["jobs"], [], None
    for j, rec in enumerate(jobs):
        out_text = _read(work.out_path(j))
        reason = job_failure(work, j, rec, out_text)
        if reason is None:
            first_ok = first_ok if first_ok is not None else (j, rec, out_text)
        else:
            failures.append((j, reason))
    notes = [f"job {j} failed: {reason}" for j, reason in failures[:5]]
    # self-test: a corrupted copy of a correct output must count as a failed job
    selftest_ok = False
    if first_ok is not None:
        j, rec, out_text = first_ok
        bad_stdout, bad_out = work.corrupt(rec["stdout"], out_text)
        selftest_ok = job_failure(work, j, dict(rec, stdout=bad_stdout), bad_out) is not None
        notes.append("self-test: corrupted output " +
                     ("counted as a failed job" if selftest_ok else "PASSED THE CHECK"))

    report = {"name": work.name, "unit": work.unit, "attempted": len(jobs),
              "failed": len(failures), "notes": notes}
    measured = range(1, len(jobs))      # job 0 is the warm-up
    untraced = [j for j in measured if not jobs[j]["traced"]]
    traced = [j for j in measured if jobs[j]["traced"]]
    factor = {j: host_factor(work.ref, jobs[j - 1]["ref"], jobs[j]["ref"]) for j in measured}
    nominal = {j: jobs[j]["wall"] / factor[j] for j in measured}
    passed = set(measured) - {j for j, _ in failures}
    report["job_walls"] = [nominal[j] for j in untraced]
    report["raw"] = {"job_s": statistics.median(jobs[j]["wall"] for j in untraced),
                     "setup_s": statistics.median(wall for wall, _ in setup),
                     "host_factor": statistics.median(factor[j] for j in untraced)}
    metrics = {
        "job_s": statistics.median(report["job_walls"]),
        "units_per_s": len(passed & set(untraced)) * work.units_per_job
                       / sum(report["job_walls"]),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    missing = []
    if trace:
        spans = result["spans"]
        missing = tracing.missing_layers(spans, work.name, traced)
        if missing:
            notes.append(f"traced run recorded no span for: {', '.join(missing)}")
        names = [m["name"] for m in spec["per_layer"]]
        layer = tracing.per_layer_metrics(spans, traced, traced[:MIN_JOBS], names)
        layer["trace.job_s"] = statistics.median(nominal[j] for j in traced)
        layer["host.factor"] = statistics.median(factor[j] for j in measured)
        layer["trace.untraced_job_s"] = metrics["job_s"]
        layer["trace.overhead"] = layer["trace.job_s"] / metrics["job_s"] - 1.0
        metrics = {n: layer[n] for n in names}
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{work.name}-{seed}.json"), "w") as fh:
            json.dump({"jobs": [{k: r[k] for k in ("traced", "wall", "ref")} for r in jobs],
                       "spans": spans}, fh)
    report["metrics"] = metrics
    report["correct"] = not failures and selftest_ok and not missing
    return report


def print_report(rep, units):
    print(f"== workload {rep['name']}  (work unit: {rep['unit']})")
    walls = rep["job_walls"]
    tail = tail_percentile(walls)
    tail_txt = (f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail
                else "no percentile has 10 samples above it")
    print(f"   job_s        median={statistics.median(walls):.4f} s  {tail_txt}  "
          f"(n={len(walls)} jobs, at nominal host speed)")
    raw = rep["raw"]
    print(f"   raw wall     job median={raw['job_s']:.4f} s  setup median={raw['setup_s']:.4f} s"
          f"  host factor={raw['host_factor']:.4f}")
    for name, value in rep["metrics"].items():
        if name != "job_s":
            print(f"   {name:<12} {value:.6g} {units.get(name, '')}")
    print(f"   fail_frac    {rep['failed'] / rep['attempted']:.4g} "
          f"({rep['failed']} of {rep['attempted']} jobs)")
    for note in rep["notes"]:
        print(f"   {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "pavelab", "cli.py")):
        print(f"error: no pavelab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(args.seed)))
    started = time.perf_counter()
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names]
    except Exception:
        traceback.print_exc()
        return 1
    for rep in reports:
        print_report(rep, units)
    print(f"total wall {time.perf_counter() - started:.1f} s")
    metrics = {}
    for rep in reports:
        prefix = "" if len(reports) == 1 else rep["name"] + "."
        for name, value in rep["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
