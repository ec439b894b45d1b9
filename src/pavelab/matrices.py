"""Dense real matrices, coordinate sets/partitions, and the four norms.

Everything here is immutable and pure: values can be shared freely between
threads.  Spectral quantities come from LAPACK via numpy; tests cross-check
them against an independent one-sided Jacobi SVD.

`block_norms` is the one rule for the norm of a restricted block, used by
`paving_quality` here and by `moments.masked_norms` for every pattern space,
sampler and paver.  A proper r x c block is scaled by its own power of two
(its largest entry lands in [1/2, 1), so its Gram can neither overflow nor
lose the norm to underflow) and its norm is the square root of the top
eigenvalue of the smaller Gram, B^T B or B B^T: O(r c k) for the Gram plus
O(k^3) for the eigenvalue, k = min(r, c), in closed form for k <= 2.  Two
cases keep the singular-value-only SVD:
- the whole matrix, so every "nothing removed" pattern (rate 1, a one-block
  paving) equals `spectral_norm` bit for bit;
- k > GRAM_MAX_K = 64: numpy's `syrk` Gram of a 100 x 100 block and
  `eigvalsh` at 512 x 512 give bits that change with the BLAS thread count,
  while Grams and eigenvalues up to k = 64 do not.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense real matrix (64-bit floats, row-major)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ParameterError("matrix entries must be finite")
        object.__setattr__(self, "data", _frozen(arr))

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries) -> "DenseMatrix":
        flat = np.asarray(entries, dtype=np.float64).ravel()
        if flat.size != n_rows * n_cols:
            raise DimensionError(
                f"entry count {flat.size} != {n_rows}x{n_cols}"
            )
        return cls(flat.reshape(n_rows, n_cols))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int | None = None) -> "DenseMatrix":
        if n_cols is None:
            n_cols = n_rows
        return cls(np.zeros((n_rows, n_cols)))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def entries(self) -> np.ndarray:
        """Row-major flat view of the entries (read-only)."""
        return self.data.reshape(-1)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_empty(self) -> bool:
        return self.data.size == 0

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.data.T)

    def same_entries(self, other: "DenseMatrix", tol: float = 0.0) -> bool:
        if self.shape != other.shape:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.data, other.data))
        return bool(np.allclose(self.data, other.data, rtol=0.0, atol=tol))

    def __repr__(self):
        return f"DenseMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class CoordinateSet:
    """Strictly increasing subset of {0, ..., n-1}."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError("ambient dimension must be >= 0")
        idx = tuple(int(i) for i in self.indices)
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise ParameterError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.n):
            raise ParameterError(f"indices must lie in [0, {self.n})")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_iterable(cls, n: int, it) -> "CoordinateSet":
        return cls(n, tuple(sorted(int(i) for i in it)))

    @classmethod
    def full(cls, n: int) -> "CoordinateSet":
        return cls(n, tuple(range(n)))

    @classmethod
    def empty(cls, n: int) -> "CoordinateSet":
        return cls(n, ())

    @property
    def size(self) -> int:
        return len(self.indices)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        if self.indices:
            m[list(self.indices)] = True
        return m

    def __contains__(self, i) -> bool:
        return int(i) in set(self.indices)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty coordinate blocks covering {0, ..., n-1}.

    Blocks are canonicalized by increasing smallest element, so two
    partitions of the same set compare equal by value.
    """

    n: int
    blocks: tuple[CoordinateSet, ...] = field(default=())

    def __post_init__(self):
        blocks = tuple(self.blocks)
        seen: set[int] = set()
        total = 0
        for b in blocks:
            if b.n != self.n:
                raise DimensionError("block ambient dimension mismatch")
            if b.size == 0:
                raise ParameterError("partition blocks must be nonempty")
            total += b.size
            seen.update(b.indices)
        if total != self.n or len(seen) != self.n:
            raise ParameterError("blocks must be disjoint and cover all coordinates")
        blocks = tuple(sorted(blocks, key=lambda b: b.indices[0]))
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        return cls(n, tuple(CoordinateSet.from_iterable(n, b) for b in blocks))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Partition of range(len(labels)) with one block per distinct label."""
        blocks: dict = {}
        for i, label in enumerate(np.asarray(labels).tolist()):
            blocks.setdefault(label, []).append(i)
        return cls.from_blocks(len(labels), blocks.values())

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_blocks(n, [[i] for i in range(n)])

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls.from_blocks(n, [range(n)])

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def balanced(self) -> bool:
        sizes = {b.size for b in self.blocks}
        return len(sizes) <= 1


# ---------------------------------------------------------------------------
# Norms.  Empty (zero-dimensional) matrices have every norm equal to 0 by
# convention; a Bernoulli draw may select no coordinates at all.
# ---------------------------------------------------------------------------

UNIT_NORM_TOL = 1e-9  # |norm - 1| within which a matrix counts as unit norm


def spectral_norm(a: DenseMatrix) -> float:
    """Largest singular value (operator norm on Euclidean space)."""
    if a.is_empty:
        return 0.0
    return float(np.linalg.svd(a.data, compute_uv=False)[0])


GRAM_MAX_K = 64


def top_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """lambda_max of each symmetric matrix of a (B, k, k) stack, k >= 1.

    k = 1 and 2 use closed forms; larger k go through `eigvalsh`, which
    reads the lower triangle.  Each value depends only on its own block.
    """
    k = blocks.shape[-1]
    if k == 1:
        return blocks[:, 0, 0]
    if k == 2:
        p, q, s = blocks[:, 0, 0], blocks[:, 1, 0], blocks[:, 1, 1]
        return 0.5 * (p + s) + np.hypot(0.5 * (p - s), q)
    return np.linalg.eigvalsh(blocks)[:, -1]


def block_norms(blocks: np.ndarray, whole: bool) -> np.ndarray:
    """Spectral norm of each block of a nonempty (B, r, c) stack.

    `whole` says the blocks are the whole matrix: those, and blocks with
    min(r, c) > GRAM_MAX_K, take the SVD; every other block the top
    eigenvalue of its smaller Gram after scaling by its own power of two
    (see the module docstring).  Each norm depends only on its own block,
    whatever stack it sits in.
    """
    r, c = blocks.shape[1:]
    if whole or min(r, c) > GRAM_MAX_K:
        return np.linalg.svd(blocks, compute_uv=False)[:, 0]
    shift = np.frexp(np.abs(blocks).max(axis=(1, 2)))[1]
    b = np.ldexp(blocks, -shift[:, None, None])
    bt = b.transpose(0, 2, 1)
    lam = top_eigenvalues(bt @ b if c <= r else b @ bt)
    return np.ldexp(np.sqrt(lam), shift)


def batch_schatten_norms(stack: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of the singular-value vector per matrix of a (B, r, c) stack,
    scaled by the largest singular value for stability."""
    svs = np.linalg.svd(stack, compute_uv=False)
    top = svs[:, 0]
    out = np.zeros(stack.shape[0])
    ok = top > 0
    if np.any(ok):
        scaled = svs[ok] / top[ok, None]
        out[ok] = top[ok] * np.sum(scaled ** p, axis=1) ** (1.0 / p)
    return out


def schatten_norm(a: DenseMatrix, p: float) -> float:
    """l_p norm of the singular-value vector."""
    if p < 1:
        raise ParameterError(f"Schatten norm needs p >= 1, got {p}")
    if a.is_empty:
        return 0.0
    return float(batch_schatten_norms(a.data[None], p)[0])


def max_column_norm(a: DenseMatrix) -> float:
    """Largest Euclidean column norm (the l1 -> l2 operator norm)."""
    if a.is_empty:
        return 0.0
    return float(np.sqrt(np.max(np.sum(a.data * a.data, axis=0))))


def max_abs_entry(a: DenseMatrix) -> float:
    if a.is_empty:
        return 0.0
    return float(np.max(np.abs(a.data)))


# ---------------------------------------------------------------------------
# Restriction and paving quality
# ---------------------------------------------------------------------------

def restrict(a: DenseMatrix, rows: CoordinateSet, cols: CoordinateSet) -> DenseMatrix:
    """Submatrix on rows x cols; same spectral norm as the projected matrix."""
    if rows.n != a.n_rows or cols.n != a.n_cols:
        raise IndexError(
            f"coordinate sets for {rows.n}x{cols.n} applied to {a.n_rows}x{a.n_cols}"
        )
    sub = a.data[np.ix_(list(rows.indices), list(cols.indices))]
    return DenseMatrix(sub.reshape(rows.size, cols.size))


def hollow_rescale(a: DenseMatrix, mu: float) -> DenseMatrix:
    """Remove the diagonal and divide by 1 + mu.

    If ||a|| <= 1 the output has norm <= 1, and entries bounded by mu stay
    strictly below mu.  The output diagonal is exactly zero.
    """
    if not a.is_square:
        raise DimensionError("hollow_rescale needs a square matrix")
    if mu <= 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    out = a.data / (1.0 + mu)
    np.fill_diagonal(out, 0.0)
    return DenseMatrix(out)


def paving_quality(a: DenseMatrix, part: Partition) -> float:
    """Norm of the block-diagonal compression: max block restriction norm."""
    if not a.is_square:
        raise DimensionError("paving quality needs a square matrix")
    if part.n != a.n_rows:
        raise DimensionError(f"partition of {part.n} applied to {a.n_rows}x{a.n_cols}")
    return max(
        float(block_norms(restrict(a, b, b).data[None], b.size == part.n)[0])
        for b in part.blocks
    )
