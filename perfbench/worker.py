"""Child process of the benchmark: the only process that runs pavelab.

    worker.py setup <gen argv json>       time `import pavelab.cli` plus the
                                          given `gen` calls, then the "mixed"
                                          host reference; print {"setup_s", "ref"}
    worker.py loop <plan.json> <out.json> run CLI jobs in a closed loop

The loop calls `pavelab.cli.main` for one job at a time and starts the next
only when the previous one has returned.  One warm-up job runs first, so
first-call costs inside the process are not timed; then jobs run until the
plan's seconds are spent and at least min_jobs have run.  In a traced plan
every second job runs with the tracer's wrappers in place and the others
without, so traced and untraced jobs see the same machine conditions; the
spans are written out with the job records at the end.  After every job,
with tracing off, the worker times `hostref.reference()`; the parent scales
each job by the references on both sides of it.
"""
import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup(gen_argvs):
    import pavelab.cli

    for argv in gen_argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pavelab.cli.main(argv)
        if rc != 0:
            raise SystemExit(f"set-up call {argv} exited {rc}")
    setup_s = time.perf_counter() - _T0
    import hostref

    hostref.reference(hostref.SETUP_REF)     # first-call costs
    print(json.dumps({"setup_s": setup_s, "ref": hostref.reference(hostref.SETUP_REF)}))


def _run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = -1
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    return {"wall": wall, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def _peak_rss_kb() -> int:
    # getrusage's ru_maxrss would also count the parent's peak from before exec
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _loop(plan_path, out_path):
    import hostref
    import pavelab.cli as cli

    with open(plan_path) as fh:
        plan = json.load(fh)
    jobs, kind, tracer = plan["jobs"], plan["ref"], None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        binds = tracing.bindings(tracer)
    hostref.reference(kind)     # first-call costs
    records = [dict(_run_job(cli, jobs[0]), traced=False, ref=hostref.reference(kind))]
    start = time.perf_counter()
    while len(records) < len(jobs) and (
        time.perf_counter() - start < plan["seconds"] or len(records) <= plan["min_jobs"]
    ):
        j = len(records)
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracer.job = j
            tracing.switch(binds, True)
        try:
            rec = dict(_run_job(cli, jobs[j]), traced=traced)
        finally:
            if traced:
                tracing.switch(binds, False)
        rec["ref"] = hostref.reference(kind)
        records.append(rec)
    result = {
        "jobs": records,
        "peak_rss_kb": _peak_rss_kb(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(json.loads(sys.argv[2]))
    elif sys.argv[1] == "loop":
        _loop(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
