"""Host-speed references: fixed work that pavelab does not run.

On a shared host the same job runs up to twice as fast in some minutes as in
others, and the speed drifts over minutes, so a longer run does not average
it out.  The worker therefore times a reference between jobs: fixed inputs
built here, independent of the workload seed and of the code under test.
Dividing a job's wall time by the host factor of the references timed just
before and just after it gives its time at the nominal host speed, where the
reference takes its nominal seconds.

Each workload names the reference whose speed follows its own jobs best:
  mixed  batched 12 x 12 SVDs, 200 x 200 SVDs and interpreter work, for jobs
         made of many small numpy calls and Python (scan_exact, verify_small)
  blas   200 x 200 SVDs only, for jobs dominated by LAPACK on large matrices
         (pave_large, scan_mc)
Set-up runs of every workload use `mixed`.
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20080101)
_SMALL = _RNG.standard_normal((1024, 12, 12))
_MID = _RNG.standard_normal((200, 200))


def _mixed() -> None:
    for _ in range(4):
        np.linalg.svd(_SMALL, compute_uv=False)
    for _ in range(12):
        np.linalg.svd(_MID, compute_uv=False)
    counts = {}
    for i in range(120000):
        counts[i % 97] = counts.get(i % 97, 0) + len(f"{i:.3f}")


def _blas() -> None:
    for _ in range(12):
        np.linalg.svd(_MID, compute_uv=False)


# name -> (work, nominal seconds)
REFERENCES = {"mixed": (_mixed, 0.2), "blas": (_blas, 0.04)}
# Set-up is imports, RNG and text output in a fresh interpreter, whatever the
# workload, so it is scaled by the reference made of small calls and Python.
SETUP_REF = "mixed"


def reference(kind: str) -> float:
    """Wall seconds of one pass over the fixed reference work `kind`."""
    work = REFERENCES[kind][0]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def host_factor(kind: str, ref_before: float, ref_after: float) -> float:
    """How much slower than nominal the host ran around one timed piece of work."""
    return (ref_before + ref_after) / (2.0 * REFERENCES[kind][1])
