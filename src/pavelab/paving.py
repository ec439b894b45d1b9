"""Paving construction: randomized permutation search and exhaustive oracle.

Both engines encode a candidate partition as a label row giving each
coordinate's block in 0..m-1, and share one scorer, `_search`: it turns
label rows into bool block masks in one step, norms them with one
`masked_norms` call, and keeps the first minimum of each row's largest
block norm.  The randomized engine keeps the best of `trials`
permutation-induced balanced partitions (existence-by-expectation made
constructive), drawn by `sampling.permutation_labels` and scored in rounds
against the running best.  The exhaustive engine enumerates the whole
partition class at small n with one generator of restricted-growth label
rows, `_partition_labels`, and is the oracle the randomized path is tested
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments  # for the round size, read at call time
from .errors import CapacityError, ParameterError
from .matrices import DenseMatrix, Partition, paving_quality, spectral_norm
from .moments import masked_norms
from .sampling import Seed, permutation_labels

EXHAUSTIVE_BALANCED_MAX_N = 12
EXHAUSTIVE_GENERAL_MAX_N = 10


@dataclass(frozen=True)
class PavingResult:
    partition: Partition
    quality: float
    trials_used: int
    best_trial_index: int
    seed: Seed | None


@dataclass(frozen=True)
class PavingCheck:
    holds: bool
    quality: float
    norm: float
    eps: float
    threshold: float

    def __bool__(self) -> bool:
        return self.holds


def _search(a: np.ndarray, m: int, rounds, seed: Seed | None) -> PavingResult:
    """First minimum-quality partition over `rounds` of label rows.

    Each round is a (trials, n) array giving every coordinate's block in
    0..m-1; its rows become m bool masks each in one step and are normed by
    one `masked_norms` call.  Each block norm depends only on its own block,
    so the result does not depend on how the trials are split into rounds.
    """
    best = quality = index = None
    used = 0
    for labels in rounds:
        masks = (labels[:, None, :] == np.arange(m)[:, None]).reshape(-1, labels.shape[1])
        qualities = masked_norms(a, masks, masks).reshape(-1, m).max(axis=1)
        i = int(np.argmin(qualities))
        if quality is None or qualities[i] < quality:
            best, quality, index = labels[i], float(qualities[i]), used + i
        used += len(labels)
    return PavingResult(Partition.from_labels(best), quality, used, index, seed)


def random_pave(a: DenseMatrix, m: int, trials: int, seed: Seed) -> PavingResult:
    """Best permutation-induced balanced m-partition over seeded trials.

    Deterministic given the seed; the quality is non-increasing in `trials`
    for a fixed seed (trial draws form a prefix-stable stream), and ties go
    to the first trial achieving the minimum.  Trials are drawn and scored
    in rounds of max(1, moments._BATCH // m), which bounds memory in `trials`.
    """
    if not a.is_square:
        raise ParameterError("paving needs a square matrix")
    n = a.n_rows
    if n == 0:
        raise ParameterError("paving needs a nonempty matrix")
    if m <= 0 or n % m != 0:
        raise ParameterError(f"m={m} must divide n={n}; pad with pad_to_multiple first")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = seed.rng("random_pave")
    step = max(1, moments._BATCH // m)
    rounds = (
        permutation_labels(rng, min(step, trials - start), n, m)
        for start in range(0, trials, step)
    )
    return _search(a.data, m, rounds, seed)


def _partition_labels(n: int, m: int, size: int | None):
    """Every partition of range(n) into m nonempty blocks, each once.

    Blocks all have `size` coordinates unless it is None.  Rows are
    restricted-growth labels (blocks numbered by smallest element), in
    lexicographic order.
    """
    labels = [0] * n
    fill = [0] * m

    def rec(i: int, opened: int):
        if n - i < m - opened:
            return
        if i == n:
            yield tuple(labels)
            return
        for j in range(min(opened + 1, m)):
            if size is None or fill[j] < size:
                labels[i] = j
                fill[j] += 1
                yield from rec(i + 1, max(opened, j + 1))
                fill[j] -= 1

    return rec(0, 0)


def _stirling2(n: int, m: int) -> int:
    row = [1] + [0] * m
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, m + 1)]
    return row[m]


def balanced_partition_count(n: int, m: int) -> int:
    k = n // m
    return math.factorial(n) // (math.factorial(k) ** m * math.factorial(m))


def exhaustive_pave(a: DenseMatrix, m: int, balanced_only: bool = True) -> PavingResult:
    """Global optimum over all (balanced) m-block partitions; small n only."""
    if not a.is_square:
        raise ParameterError("paving needs a square matrix")
    n = a.n_rows
    if m <= 0 or m > n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}")
    if balanced_only:
        if n % m != 0:
            raise ParameterError(f"balanced paving needs m | n, got m={m}, n={n}")
        count = balanced_partition_count(n, m)
        if n > EXHAUSTIVE_BALANCED_MAX_N:
            raise CapacityError(
                f"balanced enumeration of n={n}, m={m} needs {count} partitions"
            )
        size = n // m
    else:
        count = _stirling2(n, m)
        if n > EXHAUSTIVE_GENERAL_MAX_N:
            raise CapacityError(
                f"set-partition enumeration of n={n}, m={m} needs {count} partitions"
            )
        size = None
    labels = np.array(list(_partition_labels(n, m, size)))
    assert labels.shape[0] == count
    return _search(a.data, m, [labels], None)


def pad_to_multiple(a: DenseMatrix, m: int) -> DenseMatrix:
    """Zero-pad a square matrix so m divides its dimension; norm unchanged."""
    if not a.is_square:
        raise ParameterError("padding needs a square matrix")
    if m <= 0:
        raise ParameterError("m must be positive")
    n = a.n_rows
    n_pad = ((n + m - 1) // m) * m
    if n_pad == n:
        return a
    out = np.zeros((n_pad, n_pad))
    out[:n, :n] = a.data
    return DenseMatrix(out)


def verify_paving(a: DenseMatrix, part: Partition, eps: float) -> PavingCheck:
    """Check quality <= eps * ||a||; the report carries both sides."""
    quality = paving_quality(a, part)
    norm = spectral_norm(a)
    threshold = eps * norm
    return PavingCheck(
        holds=bool(quality <= threshold),
        quality=quality,
        norm=norm,
        eps=eps,
        threshold=threshold,
    )
