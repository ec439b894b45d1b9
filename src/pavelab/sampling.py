"""Seeded randomness: projector models, permutation partitions, ensembles.

Every draw is a pure function of (master seed, stream label, index), so
trials can be generated in any order, or in parallel, and reproduce bitwise.
Each projector law has one batched sampler (`draw_patterns`, and
`permutation_labels` for permutation partitions); single draws are batches
of one.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, PavelabError
from .matrices import CoordinateSet, DenseMatrix, Partition, spectral_norm

_MASTER_MAX = 1 << 64


@dataclass(frozen=True)
class Seed:
    """Master seed; per-draw streams are keyed by (master, label, index)."""

    master: int

    def __post_init__(self):
        if not 0 <= int(self.master) < _MASTER_MAX:
            raise ParameterError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "master", int(self.master))

    def rng(self, label: str, index: int = 0) -> np.random.Generator:
        if index < 0:
            raise ParameterError(f"stream index must be nonnegative, got {index}")
        key = int.from_bytes(
            hashlib.blake2b(label.encode("utf8"), digest_size=8).digest(), "big"
        )
        return np.random.default_rng(
            np.random.SeedSequence([self.master, key, int(index)])
        )


def parse_seed(text: str) -> Seed:
    """Accepts decimal or 0x-prefixed hex."""
    try:
        return Seed(int(str(text), 0))
    except ValueError as exc:
        raise ParameterError(f"cannot parse seed {text!r}") from exc


# ---------------------------------------------------------------------------
# Projector models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformK:
    """Projector onto exactly k coordinates, uniform over all k-subsets."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ParameterError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class Bernoulli:
    """Each coordinate kept independently with the given rate."""

    n: int
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(f"rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class BernoulliPair:
    """Two independent Bernoulli coordinate draws (row and column sides)."""

    n: int
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(f"rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class RademacherSigns:
    """Vector of n independent +-1 signs."""

    n: int


ProjectorModel = Union[UniformK, Bernoulli, BernoulliPair, RademacherSigns]


def _model_label(model: ProjectorModel) -> str:
    return f"subset:{type(model).__name__}"


def draw_patterns(model: ProjectorModel, rng: np.random.Generator, trials: int) -> tuple:
    """`trials` draws from the model's law, one bool mask row per draw.

    Returns (masks,) for UniformK, Bernoulli and RademacherSigns (True is a
    +1 sign) and (row_masks, col_masks) for BernoulliPair.
    """
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


def permutation_labels(rng: np.random.Generator, trials: int, n: int, m: int) -> np.ndarray:
    """`trials` balanced m-partitions of range(n) as label rows.

    Each row cuts a uniform permutation into consecutive n/m slices and gives
    every coordinate the index of its slice.  Row-major key generation keeps
    the draws prefix-stable: rows drawn in several calls equal one call's.
    """
    perms = np.argsort(rng.random((trials, n)), axis=1)
    # a coordinate's position in its permutation, over n/m, is its slice
    return np.argsort(perms, axis=1) // (n // m)


def sample_subset(model: ProjectorModel, seed: Seed, index: int = 0):
    """One draw from the model's law: row 0 of a `draw_patterns` batch of one.

    UniformK/Bernoulli return a CoordinateSet, BernoulliPair a pair of them,
    RademacherSigns an array of +-1 ints.
    """
    masks = [m[0] for m in draw_patterns(model, seed.rng(_model_label(model), index), 1)]
    if isinstance(model, RademacherSigns):
        return 2 * masks[0].astype(np.int64) - 1
    sets = tuple(CoordinateSet.from_iterable(model.n, np.flatnonzero(m)) for m in masks)
    return sets if isinstance(model, BernoulliPair) else sets[0]


def sample_permutation_partition(n: int, m: int, seed: Seed, index: int = 0) -> Partition:
    """Balanced partition into m blocks cut from a uniform random permutation."""
    if m <= 0 or n % m != 0:
        raise ParameterError(f"m={m} must divide n={n}")
    labels = permutation_labels(seed.rng("permutation_partition", index), 1, n, m)
    return Partition.from_labels(labels[0])


# ---------------------------------------------------------------------------
# Binomial median bracket
# ---------------------------------------------------------------------------

def binomial_median_set(n: int, k: int) -> tuple[int, int]:
    """Endpoints of the median set of Binomial(n, k/n), exact integer CDF."""
    # weights w_j = C(n, j) k^j (n-k)^(n-j); total = n^n
    total = n ** n
    weights = [math.comb(n, j) * k ** j * (n - k) ** (n - j) for j in range(n + 1)]
    cdf = 0
    lower = upper = None
    for j, w in enumerate(weights):
        tail = total - cdf  # P(X >= j) * n^n
        cdf += w
        if lower is None and 2 * cdf >= total:
            lower = j
        if 2 * tail >= total:
            upper = j
    assert lower is not None and upper is not None
    return lower, upper


def binomial_median_bracket(n: int, rate: float) -> tuple[int, int]:
    """Median set of Binomial(n, rate) with rate = k/n; checked against [k-1, k]."""
    if n <= 0:
        raise ParameterError("n must be positive")
    k_real = rate * n
    k = round(k_real)
    if abs(k_real - k) > 1e-9 or k < 1 or k > n:
        raise ParameterError(f"rate must be k/n for an integer 1 <= k <= n, got {rate}")
    lower, upper = binomial_median_set(n, k)
    if not (k - 1 <= lower and upper <= k):
        raise PavelabError(
            f"median set [{lower}, {upper}] escapes [{k - 1}, {k}] for n={n}, k={k}"
        )
    return lower, upper


# ---------------------------------------------------------------------------
# Test-matrix ensembles
# ---------------------------------------------------------------------------

def _sylvester_hadamard(n: int) -> np.ndarray:
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"hadamard ensembles need n a power of 2, got {n}")
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(n)


ENSEMBLE_KINDS = (
    "sign_normalized",
    "hadamard",
    "hadamard_hollow",
    "bounded_random",
    "diagonal_free_random",
)


def gen_ensemble(
    kind: str,
    n: int,
    seed: Seed,
    *,
    mu: float | None = None,
    index: int = 0,
) -> DenseMatrix:
    """Named test-matrix ensembles.

    sign_normalized      random +-1 entries divided by the spectral norm
    hadamard             orthonormal Sylvester matrix, entries +-n^(-1/2)
    hadamard_hollow      hollow part of the above
    bounded_random       iid uniform in [-mu, mu], rescaled to norm <= 1
                         without increasing any entry
    diagonal_free_random uniform entries, zero diagonal, norm <= 1
    """
    if n <= 0:
        raise ParameterError("ensemble dimension must be positive")
    rng = seed.rng(f"ensemble:{kind}", index)
    if kind == "sign_normalized":
        signs = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
        return DenseMatrix(signs / spectral_norm(DenseMatrix(signs)))
    if kind == "hadamard":
        return DenseMatrix(_sylvester_hadamard(n))
    if kind == "hadamard_hollow":
        h = _sylvester_hadamard(n).copy()
        np.fill_diagonal(h, 0.0)
        return DenseMatrix(h)
    if kind == "bounded_random":
        if mu is None or mu <= 0:
            raise ParameterError("bounded_random needs a positive mu")
        if not math.isfinite(2.0 * mu):  # the width of [-mu, mu] must be a float
            raise ParameterError(f"bounded_random needs 2 * mu finite, got mu={mu!r}")
        entries = rng.uniform(-mu, mu, size=(n, n))
        scale = max(1.0, spectral_norm(DenseMatrix(entries)))
        return DenseMatrix(entries / scale)
    if kind == "diagonal_free_random":
        entries = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(entries, 0.0)
        scale = max(1.0, spectral_norm(DenseMatrix(entries)))
        out = entries / scale
        np.fill_diagonal(out, 0.0)
        return DenseMatrix(out)
    raise ParameterError(f"unknown ensemble kind {kind!r}; known: {ENSEMBLE_KINDS}")
