"""Paving construction: randomized permutation search and exhaustive oracle.

The randomized engine keeps the best of `trials` permutation-induced balanced
partitions (existence-by-expectation made constructive); the exhaustive
engine enumerates the whole partition class at small n and is the oracle the
randomized path is tested against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .matrices import DenseMatrix, Partition, paving_quality, spectral_norm
from .moments import masked_norms
from .sampling import Seed, permutation_draws

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


def _quality_argmin(a: np.ndarray, block_masks: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Index of the first minimum-quality partition among stacked block masks.

    `block_masks` has one row per block, m consecutive rows per partition.
    """
    norms = masked_norms(a, block_masks, block_masks)
    qualities = norms.reshape(-1, m).max(axis=1)
    return int(np.argmin(qualities)), qualities


def random_pave(a: DenseMatrix, m: int, trials: int, seed: Seed) -> PavingResult:
    """Best permutation-induced balanced m-partition over seeded trials.

    Deterministic given the seed; the quality is non-increasing in `trials`
    for a fixed seed (trial draws form a prefix-stable stream), and ties go
    to the first trial achieving the minimum.
    """
    if not a.is_square:
        raise ParameterError("paving needs a square matrix")
    n = a.n_rows
    if m <= 0 or n % m != 0:
        raise ParameterError(f"m={m} must divide n={n}; pad with pad_to_multiple first")
    if trials < 1:
        raise ParameterError("need at least one trial")
    k = n // m
    # consecutive k-slices of each permutation are its blocks
    perms = permutation_draws(seed.rng("random_pave"), trials, n)
    block_of = np.repeat(np.arange(trials * m), k)
    masks = np.zeros((trials * m, n), dtype=bool)
    masks[block_of, perms.reshape(-1)] = True
    best, qualities = _quality_argmin(a.data, masks, m)
    return PavingResult(
        partition=Partition.from_blocks(n, perms[best].reshape(m, k)),
        quality=float(qualities[best]),
        trials_used=trials,
        best_trial_index=best,
        seed=seed,
    )


def _balanced_partitions(n: int, m: int):
    """All partitions of range(n) into m blocks of size n/m, each once."""
    k = n // m

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        anchor, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, k - 1):
            block = (anchor,) + combo
            taken = set(combo)
            tail = tuple(x for x in rest if x not in taken)
            for others in rec(tail):
                yield (block,) + others

    return rec(tuple(range(n)))


def _set_partitions(n: int, m: int):
    """All partitions of range(n) into exactly m nonempty blocks, each once."""
    blocks: list[list[int]] = []

    def rec(i: int):
        if i == n:
            if len(blocks) == m:
                yield tuple(tuple(b) for b in blocks)
            return
        left = n - i
        for b in blocks:
            if len(blocks) + left - 1 >= m:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        if len(blocks) < m:
            blocks.append([i])
            yield from rec(i + 1)
            blocks.pop()

    return rec(0)


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
        partitions = list(_balanced_partitions(n, m))
    else:
        count = _stirling2(n, m)
        if n > EXHAUSTIVE_GENERAL_MAX_N:
            raise CapacityError(
                f"set-partition enumeration of n={n}, m={m} needs {count} partitions"
            )
        partitions = list(_set_partitions(n, m))
    assert len(partitions) == count
    masks = np.zeros((count * m, n), dtype=bool)
    for row, part in enumerate(partitions):
        for j, block in enumerate(part):
            masks[row * m + j, list(block)] = True
    best, qualities = _quality_argmin(a.data, masks, m)
    return PavingResult(
        partition=Partition.from_blocks(n, partitions[best]),
        quality=float(qualities[best]),
        trials_used=count,
        best_trial_index=best,
        seed=None,
    )


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
