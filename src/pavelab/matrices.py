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
O(k^3) for the eigenvalue, k = min(r, c).  `top_eigenvalues` picks the
eigenvalue kernel by k alone: closed forms for k <= 3, Laguerre's method for
k = 4, `eigvalsh` above; a 3 x 3 or 4 x 4 block takes `eigvalsh` only by its
own state (a near-double top eigenvalue, a scale out of range, a value that
is zero or not finite).  Two cases keep the singular-value-only SVD:
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


def _frozen(arr, copy: bool = True) -> np.ndarray:
    """`arr` checked (2-d, finite) as a read-only C-ordered float64 array: a
    copy, or with copy=False `arr` itself where it already is one."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParameterError("matrix entries must be finite")
    out = np.array(arr, order="C", copy=True) if copy else np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense real matrix (64-bit floats, row-major)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "DenseMatrix":
        """The matrix over `arr` itself, frozen in place instead of copied,
        for an array just built that no one else holds (a parsed file)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "data", _frozen(arr, copy=False))
        return out

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
    """Largest singular value (operator norm on Euclidean space).  The entries
    are finite, so an infinite value can only be an overflow, and raises."""
    if a.is_empty:
        return 0.0
    norm = float(np.linalg.svd(a.data, compute_uv=False)[0])
    if norm == np.inf:
        raise ParameterError(
            f"the spectral norm of this {a.n_rows} x {a.n_cols} matrix overflows float64"
        )
    return norm


GRAM_MAX_K = 64

# A 3 x 3 block whose r (see `_top_eigenvalues_3`) lies within this of -1 has
# a near-double top eigenvalue, gap about 1.6 p sqrt(1 + r), and goes to
# `eigvalsh`: there arccos amplifies the rounding of r.
_NEAR_DOUBLE = 1e-3
# p outside (2^-330, 2^330) goes to `eigvalsh` too, so that p^3 and every
# product of three entries of D - mu I (each at most 4.5 p) is a normal float.
_P_RANGE = 2.0 ** -330, 2.0 ** 330


def _top_eigenvalues_3(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max of each symmetric 3 x 3 block (lower triangle), in closed
    form (O. K. Smith, CACM 4(4), 1961).

    With q = trace / 3 and D = A - qI, p^2 = ||D||_F^2 / 6 and
    r = det(D) / (2 p^3), lambda_max = q + 2p cos(arccos(r) / 3); one Newton
    step on det(D - mu I) then polishes mu = lambda_max - q.  D is made
    traceless again after q's rounding, so that the start lies above the
    second eigenvalue even for a near-scalar block.  Returns (lam, ok): a
    block with p == 0, p out of range, a near-double top eigenvalue or a
    non-finite value is not ok, and `top_eigenvalues` gives it `eigvalsh`.
    """
    a00, a10, a11 = blocks[:, 0, 0], blocks[:, 1, 0], blocks[:, 1, 1]
    a20, a21, a22 = blocks[:, 2, 0], blocks[:, 2, 1], blocks[:, 2, 2]
    with np.errstate(all="ignore"):  # blocks that divide by 0 or overflow fall back
        q = (a00 + a11 + a22) / 3.0
        d0, d1, d2 = a00 - q, a11 - q, a22 - q
        s = (d0 + d1 + d2) / 3.0
        d0, d1, d2 = d0 - s, d1 - s, d2 - s
        s10, s20, s21 = a10 * a10, a20 * a20, a21 * a21
        off = s10 + s20 + s21
        t = 2.0 * a10 * a20 * a21
        p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * off) / 6.0
        p = np.sqrt(p2)
        r = (d0 * d1 * d2 - d0 * s21 - d1 * s20 - d2 * s10 + t) / (2.0 * p * p2)
        ok = (r > _NEAR_DOUBLE - 1.0) & (p > _P_RANGE[0]) & (p < _P_RANGE[1])
        mu = 2.0 * p * np.cos(np.arccos(np.minimum(r, 1.0)) / 3.0)
        e0, e1, e2 = d0 - mu, d1 - mu, d2 - mu
        e01 = e0 * e1
        f = e01 * e2 - e0 * s21 - e1 * s20 - e2 * s10 + t  # det(D - mu I)
        lam = q + (s + (mu + f / (e01 + (e0 + e1) * e2 - off)))
    return lam, ok


# The k = 4 kernel reads a block's lower triangle as the rows of a (10, B)
# array: the diagonal, then a10, a20, a30, a21, a31, a32.  Its 2 x 2 minors
# of rows (0, 1), u01 u02 u03 u12 u13 u23, and of rows (2, 3), v02 v03 v12
# v13 v23 (v01 = u23 by symmetry), are x[i] x[j] - x[k] x[l]: i and j are
# the first 11 entries of the two index arrays of _MINOR_ROWS, k and l the
# last 11.
_LOWER_4 = np.array([0, 5, 10, 15, 4, 8, 12, 9, 13, 14])
_MINOR_ROWS = (np.array([0, 0, 0, 4, 4, 5, 5, 5, 7, 7, 2, 4, 5, 6, 5, 6, 6, 2, 9, 2, 9, 9]),
               np.array([1, 7, 8, 7, 8, 8, 9, 3, 9, 3, 3, 4, 4, 4, 1, 1, 7, 6, 6, 8, 8, 9]))
# det = u01 v23 + u03 v12 + u12 v03 + u23 u23 - u02 v13 - u13 v02, as
# products of the minors in the order above
_DET_MINORS = np.array([0, 2, 3, 5, 1, 4]), np.array([10, 8, 7, 5, 9, 6])
# the principal 3 x 3 minors, each a row expansion such as d1 v23 - a21 v13
# + a31 v12: entry rows times minors, first terms, then third, then second
_COFACTOR_TERMS = (np.array([1, 0, 6, 5, 8, 6, 3, 2, 7, 5, 8, 7]),
                   np.array([10, 10, 4, 3, 8, 6, 0, 0, 9, 7, 2, 1]))
# A block whose polishing step is not within _CONVERGED_4 times the start has
# not converged (a near-double top eigenvalue slows Laguerre down; a NaN
# step fails too) and takes `eigvalsh`, as does a block whose D has its
# largest entry outside _D_RANGE: below it D may hold subnormal entries (a
# zero D, a scalar block, among them), above it q + mu may overflow.
_CONVERGED_4 = 2.0 ** -32
_D_RANGE = 2.0 ** -1000, 2.0 ** 1000


def _det_and_adjugate_trace(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(det, trace of the adjugate) of each symmetric 4 x 4 block of a
    `_LOWER_4`-ordered (10, B) entry array, from its 2 x 2 minors."""
    m = x.take(_MINOR_ROWS[0], axis=0) * x.take(_MINOR_ROWS[1], axis=0)
    m = m[:11] - m[11:]
    t = m.take(_DET_MINORS[0], axis=0) * m.take(_DET_MINORS[1], axis=0)
    c = x.take(_COFACTOR_TERMS[0], axis=0) * m.take(_COFACTOR_TERMS[1], axis=0)
    c = c[:4] + c[4:8] - c[8:]
    return ((t[0] + t[1]) + (t[2] + t[3])) - (t[4] + t[5]), (c[0] + c[1]) + (c[2] + c[3])


def _top_eigenvalues_4(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max of each symmetric 4 x 4 block (lower triangle) by Laguerre's
    method on its characteristic polynomial.

    With q = trace / 4 and D = A - qI, scaled by its own power of two (largest
    entry in [1/2, 1)) and made traceless again after q's rounding, the
    polynomial is det(D - mu I) = mu^4 - ||D||_F^2 mu^2 / 2 - tr adj(D) mu +
    det(D).  Its roots are real, so four Laguerre steps from the traceless
    upper bound sqrt(3/4) ||D||_F descend monotonically to the largest, and
    one Newton step polishes it with a determinant and derivative formed
    from the entries of D - mu I.  Returns (lam, ok): a block whose step
    has not converged (a near-double top eigenvalue, a value that is not
    finite) or whose D is zero or out of range is not ok, and
    `top_eigenvalues` gives it `eigvalsh`.
    """
    x = blocks.reshape(-1, 16).T[_LOWER_4]
    with np.errstate(all="ignore"):  # blocks that divide by 0 or overflow fall back
        d0, d1, d2, d3 = x[:4]
        q = ((d0 + d1) + (d2 + d3)) * 0.25
        x[:4] -= q
        size = np.abs(x).max(axis=0)
        e = np.frexp(size)[1]
        x = np.ldexp(x, -e)
        d0, d1, d2, d3 = d = x[:4]
        s = ((d0 + d1) + (d2 + d3)) * 0.25
        d -= s
        sq = x * x
        off = sq[4:7] + sq[7:]
        n2 = ((sq[0] + sq[1]) + (sq[2] + sq[3])) + 2.0 * ((off[0] + off[1]) + off[2])
        c0, adj = _det_and_adjugate_trace(x)
        c2, c2x24 = -0.5 * n2, -12.0 * n2
        mu = start = np.sqrt(0.75 * n2)
        for _ in range(4):  # mu -= 4p / (p' + sqrt(9p'^2 - 12 p p''))
            mu2 = mu * mu
            p = (mu2 + c2) * mu2 + (c0 - adj * mu)
            dp = (4.0 * mu2 - n2) * mu - adj
            mu = mu - 4.0 * p / (dp + np.sqrt(9.0 * (dp * dp) - p * (144.0 * mu2 + c2x24)))
        d -= mu
        f, adj = _det_and_adjugate_trace(x)  # det(D - mu I) and minus its derivative
        step = f / adj
        lam = q + np.ldexp(s + (mu + step), e)
        ok = (np.abs(step) <= _CONVERGED_4 * start) & (size > _D_RANGE[0]) & (size < _D_RANGE[1])
    return lam, ok


def top_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """lambda_max of each symmetric matrix of a (B, k, k) stack, k >= 1.

    k <= 3 use closed forms (k = 3 `_top_eigenvalues_3`), k = 4 the Laguerre
    kernel `_top_eigenvalues_4`.  The blocks either kernel does not mark ok,
    and every block of larger k, go through `eigvalsh`, which reads the lower
    triangle.  The kernel depends on k alone and each value only on its own
    block.
    """
    k = blocks.shape[-1]
    if k == 1:
        return blocks[:, 0, 0]
    if k == 2:
        p, q, s = blocks[:, 0, 0], blocks[:, 1, 0], blocks[:, 1, 1]
        return 0.5 * (p + s) + np.hypot(0.5 * (p - s), q)
    if k > 4:
        return np.linalg.eigvalsh(blocks)[:, -1]
    lam, ok = (_top_eigenvalues_3 if k == 3 else _top_eigenvalues_4)(blocks)
    if not ok.all():
        bad = ~ok
        lam[bad] = np.linalg.eigvalsh(blocks[bad])[:, -1]
    return lam


def gram_kernel(r: int, c: int, whole: bool) -> bool:
    """Whether `block_norms` norms r x c blocks by their Gram (else the SVD)."""
    return not whole and min(r, c) <= GRAM_MAX_K


def block_norms(blocks: np.ndarray, whole: bool) -> np.ndarray:
    """Spectral norm of each block of a nonempty (B, r, c) stack.

    `whole` says the blocks are the whole matrix: those, and blocks with
    min(r, c) > GRAM_MAX_K, take the SVD; every other block the top
    eigenvalue of its smaller Gram after scaling by its own power of two
    (see the module docstring).  Each norm depends only on its own block,
    whatever stack it sits in.
    """
    r, c = blocks.shape[1:]
    if not gram_kernel(r, c, whole):
        return np.linalg.svd(blocks, compute_uv=False)[:, 0]
    shift = np.frexp(np.abs(blocks).max(axis=(1, 2)))[1]
    b = np.ldexp(blocks, -shift[:, None, None])
    bt = b.transpose(0, 2, 1)
    return np.ldexp(np.sqrt(top_eigenvalues(bt @ b if c <= r else b @ bt)), shift)


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
