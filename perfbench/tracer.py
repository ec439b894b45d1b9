"""Span tracer for the benchmark worker.

`bindings(tracer)` wraps every binding of the traced pavelab functions: the
defining module's global, every re-import of it in another pavelab module
(`paving.masked_norms`, `cli.exact_moment`, `pavelab.random_pave`, ...),
the `Seed.rng` method, and the numpy.linalg factorizations the package calls
through the `np.linalg` attribute.  Each call records one span
[name, start, end, parent, job, attrs] in memory; `aggregate` turns the
spans written out at the end of a run into per-layer metrics.

Counters marked `computed` are derived from argument shapes, so they repeat
exactly from run to run:
  flops of a singular-value-only SVD of an r x c matrix (r >= c):
      4 r c^2 - floor(4 c^3 / 3)                      (Golub-Van Loan)
  masked_norms, per pattern: that SVD plus 2 r c for the two mask products
  masked_norms bytes, per pattern: 8 (r c + r + c), the masked stack written
      plus the two mask rows read
  random_pave mask bytes: 8 trials m n, its dense (trials m) x n mask array
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

# Layers a workload must reach; a traced run that records no span for one of
# them fails, so a binding the tracer missed shows as an error, not a zero.
EXPECTED_SPANS = {
    "pave_large": (
        "cli.main", "fileio.read_matrix", "fileio.write", "paving.random_pave",
        "moments.masked_norms", "matrices.paving_quality", "matrices.spectral_norm",
        "sampling.Seed.rng", "linalg.svd",
    ),
    "scan_exact": (
        "cli.main", "fileio.read_matrix", "moments.exact_moment",
        "moments.exact_pattern_values.bernoulli", "moments.masked_norms", "bounds",
        "matrices.spectral_norm", "linalg.svd",
    ),
    "scan_mc": (
        "cli.main", "fileio.read_matrix", "moments.mc_moment", "moments.masked_norms",
        "sampling.Seed.rng", "bounds", "matrices.spectral_norm", "linalg.svd",
    ),
    "verify_small": (
        "cli.main", "inequalities.verify_inequality", "moments.exact_moment",
        "moments.exact_pattern_values.bernoulli", "moments.exact_pattern_values.pair",
        "moments.exact_pattern_values.uniformk", "moments.sign_sum_norms",
        "moments.masked_norms", "polynomials.check_polynomial_sandwich",
        "polynomials.check_extrapolation", "polynomials.check_markov",
        "polynomials.subset_traces_and_norms", "suites.instances", "sampling.Seed.rng",
        "bounds", "matrices.spectral_norm", "linalg.svd", "linalg.other",
    ),
}

_MODEL_KIND = {
    "Bernoulli": "bernoulli",
    "BernoulliPair": "pair",
    "UniformK": "uniformk",
    "RademacherSigns": "signs",
}


def svd_flops(r: int, c: int) -> int:
    r, c = max(r, c), min(r, c)
    return 4 * r * c * c - (4 * c ** 3) // 3


class Tracer:
    """In-memory span recorder; `job` tags every span with the current job."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def wrap(self, fn, name, counts=None):
        """Wrap `fn`; `name` is a string or a function of the bound arguments."""
        sig = inspect.signature(fn) if counts or callable(name) else None
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            label = name(bound) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = time.perf_counter()
                rec[5] = {"errors": 1}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if counts is not None:
                rec[5] = counts(bound, result)
            return result

        return traced


def _counts_masked(bound, result):
    a, rows = bound["a"], bound["row_bits"]
    r, c = a.shape
    pats = int(rows.shape[0])
    return {
        "patterns": pats,
        "flops_computed": pats * (svd_flops(r, c) + 2 * r * c),
        "bytes_computed": pats * 8 * (r * c + r + c),
    }


def _counts_pave(bound, result):
    trials, m, n = int(bound["trials"]), int(bound["m"]), int(bound["a"].n_rows)
    return {
        "trials": trials,
        "blocks_factorized": trials * m,
        "mask_bytes_computed": 8 * trials * m * n,
    }


def _counts_svd(bound, result):
    shape = np.shape(bound["a"])
    return {"matrices": int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1}


def _name_epv(bound):
    return "moments.exact_pattern_values." + _MODEL_KIND[type(bound["model"]).__name__]


def _targets(mods):
    """(module, attribute, span name, counts) for every traced function."""
    out = [
        (mods.cli, "main", "cli.main", None),
        (mods.fileio, "read_matrix", "fileio.read_matrix",
         lambda b, r: {"bytes": os.path.getsize(b["path"])}),
        (mods.fileio, "write_matrix", "fileio.write", None),
        (mods.fileio, "write_partition", "fileio.write", None),
        (mods.paving, "random_pave", "paving.random_pave", _counts_pave),
        (mods.moments, "masked_norms", "moments.masked_norms", _counts_masked),
        (mods.moments, "exact_pattern_values", _name_epv,
         lambda b, r: {"patterns": int(r[0].shape[0])}),
        (mods.moments, "exact_moment", "moments.exact_moment", None),
        (mods.moments, "mc_moment", "moments.mc_moment",
         lambda b, r: {"draws": int(b["trials"])}),
        (mods.moments, "sign_sum_norms", "moments.sign_sum_norms",
         lambda b, r: {"patterns": int(b["signs"].shape[0])}),
        (mods.inequalities, "verify_inequality", "inequalities.verify_inequality",
         lambda b, r: {"case": b["case_id"]}),
        (mods.polynomials, "check_polynomial_sandwich",
         "polynomials.check_polynomial_sandwich", None),
        (mods.polynomials, "check_extrapolation", "polynomials.check_extrapolation", None),
        (mods.polynomials, "check_markov", "polynomials.check_markov", None),
        (mods.polynomials, "subset_traces_and_norms", "polynomials.subset_traces_and_norms",
         lambda b, r: {"patterns": int(r[0].shape[0])}),
        (mods.suites, "suite_instances", "suites.instances", None),
        (mods.suites, "sandwich_instances", "suites.instances", None),
        (mods.matrices, "spectral_norm", "matrices.spectral_norm", None),
        (mods.matrices, "paving_quality", "matrices.paving_quality", None),
    ]
    for fn_name in (
        "paving_size_bound", "mu_bound", "step3_bound", "khintchine_constant",
        "haagerup_constant", "rudelson_bound", "delta_sufficient", "theorem_pipeline",
    ):
        out.append((mods.bounds, fn_name, "bounds", None))
    return out


def bindings(tracer: Tracer) -> list[tuple]:
    """(holder, attribute, original, wrapper) for every binding of the traced
    functions; `switch` puts the wrappers or the originals in place."""
    import pavelab
    import pavelab.cli  # noqa: F401  (loads the last module that holds bindings)

    package_modules = [m for k, m in sys.modules.items()
                       if k == "pavelab" or k.startswith("pavelab.")]
    out = []
    for module, attr, name, counts in _targets(pavelab):
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, counts)
        for mod in package_modules:
            out.extend((mod, key, original, wrapper)
                       for key, value in vars(mod).items() if value is original)
    seed_cls = pavelab.sampling.Seed
    out.append((seed_cls, "rng", seed_cls.rng, tracer.wrap(seed_cls.rng, "sampling.Seed.rng")))
    out.append((np.linalg, "svd", np.linalg.svd,
                tracer.wrap(np.linalg.svd, "linalg.svd", _counts_svd)))
    for attr in ("eigvalsh", "eigh", "norm", "solve"):
        original = getattr(np.linalg, attr)
        out.append((np.linalg, attr, original, tracer.wrap(original, "linalg.other")))
    return out


def switch(binds, traced: bool) -> None:
    for holder, attr, original, wrapper in binds:
        setattr(holder, attr, wrapper if traced else original)


# ---------------------------------------------------------------------------
# Aggregation of written-out spans into per-layer metrics
# ---------------------------------------------------------------------------

def _ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1


def aggregate(spans, time_jobs, count_jobs):
    """Per-layer metrics from spans.

    Times are per-job means over the jobs in `time_jobs`; counts are per-job
    means over `count_jobs`, a fixed job prefix, so they repeat exactly.
    `s` is inclusive time of the outermost span of a name, `self_s` that time
    minus the time covered by child spans.
    """
    time_jobs, count_jobs = set(time_jobs), set(count_jobs)
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    t: dict[str, float] = {}
    c: dict[str, int] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for idx, (name, start, end, parent, job, attrs) in enumerate(spans):
        dur = end - start
        timed, counted = job in time_jobs, job in count_jobs
        outer = _ancestor(spans, idx, name) < 0
        if timed:
            if outer:
                add(t, name + ".s", dur)
            add(t, name + ".self_s", dur - child_time[idx])
        if counted:
            add(c, name + ".calls", 1)
        attrs = attrs or {}
        layer = name.split(".")[0]
        if counted and attrs.get("errors"):
            add(c, layer + ".errors", 1)
        if name == "inequalities.verify_inequality" and timed and "case" in attrs:
            add(t, f"inequalities.{attrs['case']}.s", dur)
        for key, value in attrs.items():
            if key not in ("case", "errors") and counted:
                add(c, f"{name}.{key}", value)
        if name == "linalg.svd" and counted and _ancestor(spans, idx, "moments.mc_moment") >= 0:
            add(c, "moments.mc_moment.factorized", attrs.get("matrices", 0))
    nt, nc = max(1, len(time_jobs)), max(1, len(count_jobs))
    out = {k: v / nt for k, v in t.items()}
    out.update({k: v / nc for k, v in c.items()})
    return out


def per_layer_metrics(spans, time_jobs, count_jobs, names):
    """Every metric in `names`, derived ratios included; unreached ones read 0."""
    raw = aggregate(spans, time_jobs, count_jobs)
    trials = raw.get("paving.random_pave.trials", 0.0)
    raw["paving.random_pave.s_per_trial"] = (
        raw.get("paving.random_pave.s", 0.0) / trials if trials else 0.0
    )
    draws = raw.get("moments.mc_moment.draws", 0.0)
    raw["moments.mc_moment.factorized_per_draw"] = (
        raw.get("moments.mc_moment.factorized", 0.0) / draws if draws else 0.0
    )
    job_s = raw.get("cli.main.s", 0.0)
    raw["linalg.svd.share"] = raw.get("linalg.svd.s", 0.0) / job_s if job_s else 0.0
    return {name: float(raw.get(name, 0.0)) for name in names}


def missing_layers(spans, workload, jobs):
    jobs = set(jobs)
    seen = {rec[0] for rec in spans if rec[4] in jobs}
    return [name for name in EXPECTED_SPANS[workload] if name not in seen]
