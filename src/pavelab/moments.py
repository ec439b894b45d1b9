"""The pattern layer: exact and Monte Carlo moments of restricted-matrix norms.

Every moment of the paving argument is E f(pattern)^p under one projector
law, and is formed here for every caller (inequality registry, polynomial
checks, CLI): `exact_patterns` enumerates a law's pattern space with
log-space weights and holds the capacity caps (sign enumeration: at most
EXACT_SIGNS_MAX_N = 14 terms); `sampled_patterns` dedupes the draws of
`sampling.draw_patterns` at n <= 20; `pattern_norms` is the per-model norm,
`weighted_moment_stats` the one reduction (exact weighted power mean, or
sample mean with a delta-method standard error) and `moment` the one
exact/Monte Carlo dispatch.

Patterns are ordered by a binary counter on coordinate masks (or by packed
code for deduped draws), and all reductions run in that fixed order, so
results are bitwise reproducible.

Cost model: a restricted norm ||A_{sigma,tau}|| is the norm of the gathered
|sigma| x |tau| submatrix, so a pattern with r selected rows and c selected
columns costs O(r c k), k = min(r, c), not O(n^3).  Patterns of equal (r, c)
are gathered together in stacks of at most `_chunk_rows(r, c)` and normed by
`matrices.block_norms`: the top eigenvalue of each block's k x k Gram (closed
form for k <= 2), except the whole matrix and k > 64, which take the SVD so
that a rate-1 pattern equals `spectral_norm` bit for bit and no result
depends on the BLAS thread count.  The whole BernoulliPair space is a
product of row sets and column sets, so `pair_space_norms` forms one n x n
Gram per row set (A_S^T A_S) or column set (A_T A_T^T) and then one k x k
symmetric eigenproblem per pattern through the same `top_eigenvalues`.
`exact_pattern_values` picks that kernel by model and never builds the 4^n
pair mask rows; only `exact_patterns` expands one side's 2^n masks into
them, for callers that read the rows.  Sampled pair patterns always go
through `masked_norms`.  The pair kernel and the subset traces of
`polynomials` gather per-size stacks from `size_index_rows`.  The norms of
an exact pattern space depend on neither the rate nor p, so
`exact_pattern_values` keeps the last matrix's norms (with the mask
popcounts its weights need) and exact moments of one matrix share one
enumeration per pattern space.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .matrices import DenseMatrix, block_norms, top_eigenvalues
from .sampling import (
    Bernoulli,
    BernoulliPair,
    ProjectorModel,
    RademacherSigns,
    Seed,
    UniformK,
    draw_patterns,
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
# Pattern-space building blocks
# ---------------------------------------------------------------------------

def mask_bits(n: int) -> np.ndarray:
    """All 2^n coordinate masks as rows of 0.0/1.0, binary-counter order."""
    codes = np.arange(1 << n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)


def size_index_rows(n: int) -> tuple[np.ndarray, list, list]:
    """(mask_bits(n), codes, idx): per size k, the weight-k mask codes and their
    C(n, k) x k coordinate array."""
    bits = mask_bits(n)
    counts = bits.sum(axis=1)
    codes = [np.flatnonzero(counts == k) for k in range(n + 1)]
    idx = [np.nonzero(bits[c])[1].reshape(c.size, k) for k, c in enumerate(codes)]
    return bits, codes, idx


def bernoulli_weights(bits: np.ndarray, rate: float) -> np.ndarray:
    """Probability of each mask row under iid selection; log-space interior."""
    return _count_weights(bits.sum(axis=1), bits.shape[1], rate)


def _count_weights(counts: np.ndarray, n: int, rate: float) -> np.ndarray:
    """Probability of a mask of each popcount in `counts` under iid selection."""
    if rate == 0.0:
        return (counts == 0).astype(np.float64)
    if rate == 1.0:
        return (counts == n).astype(np.float64)
    logw = counts * math.log(rate) + (n - counts) * math.log1p(-rate)
    return np.exp(logw)


def subset_bits(n: int, k: int) -> np.ndarray:
    """All C(n, k) masks of weight k, lexicographic order."""
    combos = itertools.combinations(range(n), k)
    idx = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp)
    bits = np.zeros((math.comb(n, k), n))
    np.put_along_axis(bits, idx.reshape(len(bits), k), 1.0, axis=1)
    return bits


# Scaled squared norms below this go through `masked_norms`: the Gram of a
# block this far below the matrix's largest entry (scaled to [1/2, 1)) may
# hold subnormal or flushed-to-zero squares.
_TINY_GRAM = 2.0 ** -500


def _top_eigenvalues(grams: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """lambda_max of grams[g][t, t] for every Gram g and index set t = idx[j],
    as a (len(grams), len(idx)) array.

    The blocks of a run of Grams are gathered with one `take` of their
    positions in the raveled Grams and handed to `top_eigenvalues`, about
    `_chunk_rows(k, k)` blocks at a time (all of them for k <= 2).
    """
    n_grams, n = grams.shape[:2]
    n_sets, k = idx.shape
    flat = grams.reshape(n_grams, n * n)
    pos = (idx[:, :, None] * n + idx[:, None, :]).reshape(n_sets, k * k)
    step = n_grams if k <= 2 else max(1, _chunk_rows(k, k) // n_sets)
    out = np.empty((n_grams, n_sets))
    for start in range(0, n_grams, step):
        blocks = flat[start:start + step].take(pos, axis=1).reshape(-1, k, k)
        out[start:start + step] = top_eigenvalues(blocks).reshape(-1, n_sets)
    return out


def pair_space_norms(a: np.ndarray) -> np.ndarray:
    """||A_{S,T}|| for every (row set S, column set T) of a square matrix.

    Results come in `exact_patterns` order for BernoulliPair (row code major,
    column code minor; bit i of a code selects coordinate i), so pattern
    S_code * 2^n + T_code.  For each row count r the Grams A_S^T A_S of all
    row sets come from one batched matmul, and likewise A_T A_T^T per column
    count c; ||A_{S,T}||^2 is the top eigenvalue of the c x c block [T, T] of
    the first when c <= r, else of the r x r block [S, S] of the second.  The
    matrix is scaled by a power of two first so that the Grams neither
    overflow nor underflow; a pattern whose scaled squared norm is below
    `_TINY_GRAM` is recomputed by `masked_norms`.  Empty sides are 0.
    """
    n = a.shape[0]
    size = 1 << n
    out = np.zeros((size, size))
    amax = float(np.abs(a).max()) if a.size else 0.0
    if amax == 0.0:
        return out.ravel()
    shift = math.frexp(amax)[1]
    b = np.ldexp(a, -shift)
    bits, codes, idx = size_index_rows(n)

    def grams(m: np.ndarray, k: int) -> np.ndarray:
        rows = m[idx[k]]
        return np.matmul(rows.transpose(0, 2, 1), rows)

    row_grams = [None] + [grams(b, k) for k in range(1, n + 1)]
    col_grams = [None] + [grams(b.T, k) for k in range(1, n + 1)]
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if c <= r:
                lam = _top_eigenvalues(row_grams[r], idx[c])
            else:
                lam = _top_eigenvalues(col_grams[c], idx[r]).T
            out[codes[r][:, None], codes[c][None, :]] = lam
    tiny = out < _TINY_GRAM
    tiny[0, :] = tiny[:, 0] = False
    out = np.ldexp(np.sqrt(np.maximum(out, 0.0)), shift)
    s_code, t_code = np.nonzero(tiny)
    if s_code.size:
        out[s_code, t_code] = masked_norms(a, bits[s_code], bits[t_code])
    return out.ravel()


def masked_norms(a: np.ndarray, row_bits: np.ndarray, col_bits: np.ndarray) -> np.ndarray:
    """||P_sigma A P_tau|| for each (row mask, column mask) pair of rows.

    The norm is that of the gathered |sigma| x |tau| submatrix.  Patterns are
    bucketed by (row count, column count), and each bucket's submatrices are
    normed by `block_norms` as one stack in chunks of `_chunk_rows(r, c)`
    (the bucket that selects all of A as the whole matrix); patterns with an
    empty side are 0.  Results come back in input order.
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
        whole = (r, c) == a.shape
        step = _chunk_rows(r, c)
        for start in range(0, bucket.size, step):
            sel = bucket[start:start + step]
            ri = np.nonzero(rows[sel])[1].reshape(-1, r)
            ci = np.nonzero(cols[sel])[1].reshape(-1, c)
            out[sel] = block_norms(a[ri[:, :, None], ci[:, None, :]], whole)
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


def weighted_moment_stats(
    values: np.ndarray, weights: np.ndarray, trials: int, p: float
) -> tuple[float, float]:
    """((E v^p)^(1/p), stderr) over patterns, scaled by max(v) for stability.

    trials == 0 means `weights` are exact probabilities (stderr 0); otherwise
    they are the multiplicities of distinct sampled values, summing to
    `trials`, and the stderr is the delta-method one.
    """
    if values.size == 0:
        return 0.0, 0.0
    vmax = float(values.max())
    if vmax == 0.0:
        return 0.0, 0.0
    ys = (values / vmax) ** p
    mean = float(np.sum(weights * ys)) / max(trials, 1)
    est = vmax * mean ** (1.0 / p)
    if trials < 2 or mean == 0.0:
        return est, 0.0
    ss = float(np.sum(weights * (ys - mean) ** 2))
    var_mean = ss / (trials - 1) / trials
    se = vmax * (1.0 / p) * mean ** (1.0 / p - 1.0) * math.sqrt(max(var_mean, 0.0))
    return est, se


# ---------------------------------------------------------------------------
# Pattern spaces, norms and the reduction
# ---------------------------------------------------------------------------

def _exact_space(model: ProjectorModel) -> tuple[tuple, np.ndarray]:
    """(patterns, counts): the model's full pattern space as in
    `exact_patterns` (one side's 2^n masks for BernoulliPair), and the
    popcounts of the masks its weights are built from.  Raises CapacityError
    past the enumeration caps."""
    n = model.n
    if isinstance(model, Bernoulli):
        if n > EXACT_BERNOULLI_MAX_N:
            raise CapacityError(f"exact Bernoulli enumeration needs 2^{n} patterns")
        bits = mask_bits(n)
        return (bits,), bits.sum(axis=1)
    if isinstance(model, UniformK):
        count = math.comb(n, model.k)
        if count > EXACT_UNIFORMK_MAX_PATTERNS:
            raise CapacityError(f"exact uniform-k enumeration needs {count} patterns")
        bits = subset_bits(n, model.k)
        return (bits,), bits.sum(axis=1)
    if isinstance(model, BernoulliPair):
        if n > EXACT_PAIR_MAX_N:
            raise CapacityError(f"exact pair enumeration needs 4^{n} patterns")
        bits = mask_bits(n)
        return (bits,), bits.sum(axis=1)
    if isinstance(model, RademacherSigns):
        if n > EXACT_SIGNS_MAX_N:
            raise CapacityError(f"exact sign enumeration needs 2^{n} patterns")
        bits = mask_bits(n)
        return (2.0 * bits - 1.0,), bits.sum(axis=1)
    raise ParameterError(f"unknown model {model!r}")


def _exact_weights(model: ProjectorModel, counts: np.ndarray) -> np.ndarray:
    """Weights of the model's full pattern space from `_exact_space` counts."""
    if isinstance(model, Bernoulli):
        return _count_weights(counts, model.n, model.rate)
    if isinstance(model, BernoulliPair):
        w1 = _count_weights(counts, model.n, model.rate)
        return np.outer(w1, w1).ravel()
    return np.full(counts.size, 1.0 / counts.size)


def exact_patterns(model: ProjectorModel) -> tuple[tuple, np.ndarray]:
    """(patterns, weights) over the model's full pattern space.

    `patterns` is (masks,) of 0/1 rows, (row_masks, col_masks) for
    BernoulliPair (row mask major), or (signs,) of +-1 rows for
    RademacherSigns; weights sum to one.  Raises CapacityError past the
    enumeration caps.
    """
    patterns, counts = _exact_space(model)
    if isinstance(model, BernoulliPair):
        bits, size = patterns[0], counts.size
        patterns = (np.repeat(bits, size, axis=0), np.tile(bits, (size, 1)))
    return patterns, _exact_weights(model, counts)


def sampled_patterns(
    model: ProjectorModel, rng: np.random.Generator, trials: int
) -> tuple[tuple, np.ndarray]:
    """(patterns, counts) for `trials` draws of the model's law from `rng`.

    Patterns are laid out as in `exact_patterns`.  At n <= 20 the draws are
    deduped into distinct patterns in packed-code order with their
    multiplicities; above that each draw is its own pattern with count one.
    Counts sum to `trials`.
    """
    n = model.n
    masks = draw_patterns(model, rng, trials)
    if n > 20:
        counts = np.ones(trials)
    else:
        # pack each draw into one code, the last mask in the low bits (a
        # pair's code is row code << n | column code), dedupe, and unpack
        joined = np.hstack(masks[::-1])
        place = np.arange(joined.shape[1], dtype=np.uint64)
        codes = joined.astype(np.uint64) @ (np.uint64(1) << place)
        uniq, counts = np.unique(codes, return_counts=True)
        bits = ((uniq[:, None] >> place) & np.uint64(1)).astype(np.float64)
        masks = tuple(bits[:, j * n:(j + 1) * n] for j in reversed(range(len(masks))))
    if isinstance(model, RademacherSigns):
        masks = (2.0 * masks[0] - 1.0,)
    return masks, counts


def pattern_norms(a: np.ndarray, model: ProjectorModel, patterns: tuple) -> np.ndarray:
    """The model's norm per pattern: ||P_sigma A P_tau|| by `masked_norms`,
    or for RademacherSigns the norm of the signed column outer-product sum."""
    if isinstance(model, RademacherSigns):
        return sign_sum_norms(a, patterns[0])
    return masked_norms(a, patterns[0], patterns[-1])


SLACK = 1e-12  # rounding slack of every exact comparison


def verdict(lhs: float, rhs: float, se: float, exact: bool) -> tuple[bool, float]:
    """(holds, lhs / rhs) for a moment inequality lhs <= rhs.

    Exact sides compare strictly up to a relative slack of SLACK; Monte Carlo
    sides only fail when the gap exceeds three combined standard errors.
    """
    if exact:
        holds = lhs <= rhs + SLACK * max(1.0, abs(rhs))
    else:
        holds = (lhs - rhs) <= 3.0 * se
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return bool(holds), float(ratio)


# ---------------------------------------------------------------------------
# Exact enumeration and Monte Carlo
# ---------------------------------------------------------------------------

def _check_model_dim(a: DenseMatrix, model: ProjectorModel) -> None:
    signs = isinstance(model, RademacherSigns)
    if model.n != (a.n_cols if signs else a.n_rows):
        raise ParameterError(f"model dimension {model.n} does not match matrix")
    if not signs and not a.is_square:
        raise ParameterError(
            f"two-sided restriction needs a square matrix, got {a.n_rows}x{a.n_cols}"
        )


# The pattern norms of the last exact enumeration, as one (key, norms, counts)
# tuple, so no reader (in any thread) pairs one matrix's key with another's
# norms.  They depend only on the matrix and the pattern space, not on the
# rate or p, so a scan over rates or p (or the two rates of an extrapolation
# check) enumerates once; `counts` are the `_exact_space` popcounts, from
# which each call builds its weights.  `_BATCH` is in the key so that a run
# at another chunk size recomputes instead of reusing.  The key holds a copy
# of the matrix bytes (`data.nbytes`, 8 n^2), so each call copies the matrix
# once and the entry retains that copy beside the norms.
_last_norms: tuple | None = None


def exact_pattern_values(a: DenseMatrix, model: ProjectorModel):
    """(values, weights) over the model's full pattern space.

    The values come back read-only: they are reused by the next call on the
    same matrix bytes and pattern space (model type, n, and k for UniformK).
    Weights are built per call.  The whole BernoulliPair space goes through
    `pair_space_norms`, every other space through `pattern_norms`.
    """
    global _last_norms
    _check_model_dim(a, model)
    data = a.data
    k = model.k if isinstance(model, UniformK) else None
    key = (type(model), model.n, k, _BATCH, data.shape, data.tobytes())
    entry = _last_norms
    if entry is None or entry[0] != key:
        patterns, counts = _exact_space(model)
        if isinstance(model, BernoulliPair):
            norms = pair_space_norms(data)
        else:
            norms = pattern_norms(data, model, patterns)
        norms.flags.writeable = False
        entry = _last_norms = (key, norms, counts)
    return entry[1], _exact_weights(model, entry[2])


def exact_moment(a: DenseMatrix, model: ProjectorModel, p: float) -> MomentEstimate:
    """Exact (E ||.||^p)^(1/p) by full pattern-space enumeration.

    For restriction models the value is the norm of the restricted matrix;
    for RademacherSigns it is the norm of the signed column outer-product sum.
    """
    if p <= 0:
        raise ParameterError(f"p must be positive, got {p}")
    values, weights = exact_pattern_values(a, model)
    return MomentEstimate(
        value=weighted_moment_stats(values, weights, 0, p)[0],
        p=p, trials=0, stderr=0.0, seed=None, model=model,
    )


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
    patterns, counts = sampled_patterns(model, seed.rng("mc_moment", index), trials)
    est, se = weighted_moment_stats(pattern_norms(a.data, model, patterns), counts, trials, p)
    return MomentEstimate(
        value=est, p=p, trials=trials, stderr=se, seed=seed, model=model
    )


def moment(
    a: DenseMatrix,
    model: ProjectorModel,
    p: float,
    method: str,
    trials: int = 0,
    seed: Seed | None = None,
    index: int = 0,
) -> MomentEstimate:
    """`exact_moment` for method 'exact', `mc_moment` on stream `index` for 'mc'."""
    if method == "exact":
        return exact_moment(a, model, p)
    if method != "mc":
        raise ParameterError(f"method must be 'exact' or 'mc', got {method!r}")
    if seed is None:
        raise ParameterError("mc method needs a seed")
    return mc_moment(a, model, p, trials, seed, index)
