"""Exact and Monte Carlo moments of restricted-matrix norms.

The exact path enumerates the full pattern space of a projector model
(coordinate masks, mask pairs, or sign vectors) with probability weights
computed in log-space; the Monte Carlo path samples patterns from one seeded
stream per call, dedupes them at small dimension, and reports a delta-method
standard error for the 1/p power of the sample mean.

Patterns are ordered by a binary counter on coordinate masks (or by first
occurrence for sampled draws), and all reductions run in that fixed order, so
results are bitwise reproducible.

Cost model: a restricted norm ||A_{sigma,tau}|| is the largest singular value
of the gathered |sigma| x |tau| submatrix, so a pattern with r selected rows
and c selected columns costs O(r c min(r, c)), not O(n^3).  Patterns of equal
(r, c) are factored together in stacks of at most `_chunk_rows(r, c)`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .matrices import DenseMatrix
from .sampling import (
    Bernoulli,
    BernoulliPair,
    ProjectorModel,
    RademacherSigns,
    Seed,
    UniformK,
)

_BATCH = 8192

EXACT_BERNOULLI_MAX_N = 14
EXACT_PAIR_MAX_N = 8
EXACT_SIGNS_MAX_N = 14
EXACT_UNIFORMK_MAX_PATTERNS = 10 ** 6


def _chunk_rows(r: int, c: int) -> int:
    # cap temporary stacks at ~32 MB of float64
    return max(1, min(_BATCH, (1 << 22) // max(1, r * c)))


@dataclass(frozen=True)
class MomentEstimate:
    """(E ||.||^p)^(1/p) with provenance; trials == 0 means exact."""

    value: float
    p: float
    trials: int
    stderr: float
    seed: Seed | None
    model: ProjectorModel

    @property
    def exact(self) -> bool:
        return self.trials == 0


# ---------------------------------------------------------------------------
# Pattern-space building blocks (shared with the inequality registry)
# ---------------------------------------------------------------------------

def mask_bits(n: int) -> np.ndarray:
    """All 2^n coordinate masks as rows of 0.0/1.0, binary-counter order."""
    codes = np.arange(1 << n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)


def bernoulli_weights(bits: np.ndarray, rate: float) -> np.ndarray:
    """Probability of each mask row under iid selection; log-space interior."""
    n = bits.shape[1]
    counts = bits.sum(axis=1)
    if rate == 0.0:
        return (counts == 0).astype(np.float64)
    if rate == 1.0:
        return (counts == n).astype(np.float64)
    logw = counts * math.log(rate) + (n - counts) * math.log1p(-rate)
    return np.exp(logw)


def subset_bits(n: int, k: int) -> np.ndarray:
    """All C(n, k) masks of weight k, lexicographic order."""
    combos = list(itertools.combinations(range(n), k))
    bits = np.zeros((len(combos), n), dtype=np.float64)
    for row, combo in enumerate(combos):
        bits[row, list(combo)] = 1.0
    return bits


def batch_spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value per matrix of a (B, r, c) stack."""
    if stack.shape[0] == 0:
        return np.zeros(0)
    step = _chunk_rows(stack.shape[1], stack.shape[2])
    out = np.empty(stack.shape[0])
    for start in range(0, stack.shape[0], step):
        part = stack[start:start + step]
        out[start:start + part.shape[0]] = np.linalg.svd(part, compute_uv=False)[:, 0]
    return out


def masked_norms(a: np.ndarray, row_bits: np.ndarray, col_bits: np.ndarray) -> np.ndarray:
    """||P_sigma A P_tau|| for each (row mask, column mask) pair of rows.

    The norm is that of the gathered |sigma| x |tau| submatrix.  Patterns are
    bucketed by (row count, column count), and each bucket's submatrices are
    factored as one stack, chunked as in `batch_spectral_norms`; patterns with
    an empty side are 0.  Results come back in input order.
    """
    rows = np.asarray(row_bits) != 0
    cols = np.asarray(col_bits) != 0
    out = np.zeros(rows.shape[0])
    if out.size == 0:
        return out
    r_count = rows.sum(axis=1)
    c_count = cols.sum(axis=1)
    key = r_count * (cols.shape[1] + 1) + c_count
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    for bucket in np.split(order, starts[1:]):
        r, c = int(r_count[bucket[0]]), int(c_count[bucket[0]])
        if r == 0 or c == 0:
            continue
        step = _chunk_rows(r, c)
        for start in range(0, bucket.size, step):
            sel = bucket[start:start + step]
            ri = np.nonzero(rows[sel])[1].reshape(-1, r)
            ci = np.nonzero(cols[sel])[1].reshape(-1, c)
            out[sel] = batch_spectral_norms(a[ri[:, :, None], ci[:, None, :]])
    return out


def sign_sum_norms(a: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """||sum_j eps_j x_j x_j^T|| per sign row, x_j the columns of a."""
    out = np.empty(signs.shape[0])
    step = _chunk_rows(a.shape[0], max(a.shape))
    for start in range(0, signs.shape[0], step):
        sg = signs[start:start + step]
        stack = (a[None, :, :] * sg[:, None, :]) @ a.T
        out[start:start + sg.shape[0]] = np.linalg.svd(stack, compute_uv=False)[:, 0]
    return out


def power_mean(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_i w_i v_i^p)^(1/p), scaled by max(v) for stability."""
    if values.size == 0:
        return 0.0
    vmax = float(values.max())
    if vmax == 0.0:
        return 0.0
    return vmax * float(np.sum(weights * (values / vmax) ** p)) ** (1.0 / p)


def weighted_moment_stats(
    values: np.ndarray, counts: np.ndarray, trials: int, p: float
) -> tuple[float, float]:
    """Sample (E v^p)^(1/p) and its delta-method standard error.

    `values` are the distinct observed values with multiplicities `counts`
    (counts sum to trials).
    """
    if values.size == 0:
        return 0.0, 0.0
    vmax = float(values.max())
    if vmax == 0.0:
        return 0.0, 0.0
    ys = (values / vmax) ** p
    mean = float(np.sum(counts * ys)) / trials
    est = vmax * mean ** (1.0 / p)
    if trials < 2 or mean == 0.0:
        return est, 0.0
    ss = float(np.sum(counts * (ys - mean) ** 2))
    var_mean = ss / (trials - 1) / trials
    se = vmax * (1.0 / p) * mean ** (1.0 / p - 1.0) * math.sqrt(max(var_mean, 0.0))
    return est, se


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def _require_square(a: DenseMatrix, what: str) -> None:
    if not a.is_square:
        raise ParameterError(f"{what} needs a square matrix, got {a.n_rows}x{a.n_cols}")


def _check_model_dim(a: DenseMatrix, model: ProjectorModel) -> None:
    want = a.n_cols if isinstance(model, RademacherSigns) else a.n_rows
    if model.n != want:
        raise ParameterError(f"model dimension {model.n} does not match matrix")


def exact_pattern_values(a: DenseMatrix, model: ProjectorModel):
    """(values, weights) over the model's full pattern space."""
    _check_model_dim(a, model)
    n = model.n
    if isinstance(model, Bernoulli):
        _require_square(a, "two-sided restriction")
        if n > EXACT_BERNOULLI_MAX_N:
            raise CapacityError(f"exact Bernoulli enumeration needs 2^{n} patterns")
        bits = mask_bits(n)
        return masked_norms(a.data, bits, bits), bernoulli_weights(bits, model.rate)
    if isinstance(model, UniformK):
        _require_square(a, "two-sided restriction")
        count = math.comb(n, model.k)
        if count > EXACT_UNIFORMK_MAX_PATTERNS:
            raise CapacityError(f"exact uniform-k enumeration needs {count} patterns")
        bits = subset_bits(n, model.k)
        weights = np.full(count, 1.0 / count)
        return masked_norms(a.data, bits, bits), weights
    if isinstance(model, BernoulliPair):
        _require_square(a, "two-sided restriction")
        if n > EXACT_PAIR_MAX_N:
            raise CapacityError(f"exact pair enumeration needs 4^{n} patterns")
        bits = mask_bits(n)
        w1 = bernoulli_weights(bits, model.rate)
        reps = np.repeat(np.arange(1 << n), 1 << n)
        tile = np.tile(np.arange(1 << n), 1 << n)
        values = masked_norms(a.data, bits[reps], bits[tile])
        return values, (w1[reps] * w1[tile])
    if isinstance(model, RademacherSigns):
        if n > EXACT_SIGNS_MAX_N:
            raise CapacityError(f"exact sign enumeration needs 2^{n} patterns")
        signs = 2.0 * mask_bits(n) - 1.0
        weights = np.full(1 << n, 1.0 / (1 << n))
        return sign_sum_norms(a.data, signs), weights
    raise ParameterError(f"unknown model {model!r}")


def exact_moment(a: DenseMatrix, model: ProjectorModel, p: float) -> MomentEstimate:
    """Exact (E ||.||^p)^(1/p) by full pattern-space enumeration.

    For restriction models the value is the norm of the restricted matrix;
    for RademacherSigns it is the norm of the signed column outer-product sum.
    """
    if p <= 0:
        raise ParameterError(f"p must be positive, got {p}")
    values, weights = exact_pattern_values(a, model)
    return MomentEstimate(
        value=power_mean(values, weights, p),
        p=p, trials=0, stderr=0.0, seed=None, model=model,
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _pack_codes(mask_bool: np.ndarray) -> np.ndarray:
    n = mask_bool.shape[1]
    pows = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return mask_bool.astype(np.uint64) @ pows


def _unpack_codes(codes: np.ndarray, n: int) -> np.ndarray:
    return ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(
        np.float64
    )


def _draw_masks(model: ProjectorModel, rng: np.random.Generator, trials: int):
    n = model.n
    if isinstance(model, Bernoulli):
        return (rng.random((trials, n)) < model.rate,)
    if isinstance(model, BernoulliPair):
        rows = rng.random((trials, n)) < model.rate
        cols = rng.random((trials, n)) < model.rate
        return rows, cols
    if isinstance(model, UniformK):
        mask = np.zeros((trials, n), dtype=bool)
        if model.k > 0:
            keys = rng.random((trials, n))
            picks = np.argpartition(keys, model.k - 1, axis=1)[:, : model.k]
            mask[np.repeat(np.arange(trials), model.k), picks.ravel()] = True
        return (mask,)
    if isinstance(model, RademacherSigns):
        return (rng.integers(0, 2, size=(trials, n)).astype(bool),)
    raise ParameterError(f"unknown model {model!r}")


def _mc_values(a: DenseMatrix, model: ProjectorModel, masks) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pattern values and multiplicities for the drawn masks."""
    n = model.n
    dedupe = n <= 20
    if isinstance(model, BernoulliPair):
        if dedupe:
            codes = (_pack_codes(masks[0]) << np.uint64(n)) | _pack_codes(masks[1])
            uniq, counts = np.unique(codes, return_counts=True)
            rb = _unpack_codes(uniq >> np.uint64(n), n)
            cb = _unpack_codes(uniq & np.uint64((1 << n) - 1), n)
            return masked_norms(a.data, rb, cb), counts
        return masked_norms(a.data, masks[0], masks[1]), np.ones(masks[0].shape[0])
    mask = masks[0]
    if dedupe:
        uniq, counts = np.unique(_pack_codes(mask), return_counts=True)
        bits = _unpack_codes(uniq, n)
    else:
        bits, counts = mask, np.ones(mask.shape[0])
    if isinstance(model, RademacherSigns):
        return sign_sum_norms(a.data, 2.0 * bits - 1.0), counts
    return masked_norms(a.data, bits, bits), counts


def mc_moment(
    a: DenseMatrix,
    model: ProjectorModel,
    p: float,
    trials: int,
    seed: Seed,
    index: int = 0,
) -> MomentEstimate:
    """Monte Carlo (E ||.||^p)^(1/p); deterministic given (seed, index)."""
    if p <= 0:
        raise ParameterError(f"p must be positive, got {p}")
    if trials < 2:
        raise ParameterError(f"need trials >= 2, got {trials}")
    _check_model_dim(a, model)
    if not isinstance(model, RademacherSigns):
        _require_square(a, "two-sided restriction")
    masks = _draw_masks(model, seed.rng("mc_moment", index), trials)
    values, counts = _mc_values(a, model, masks)
    est, se = weighted_moment_stats(values, counts, trials, p)
    return MomentEstimate(
        value=est, p=p, trials=trials, stderr=se, seed=seed, model=model
    )
