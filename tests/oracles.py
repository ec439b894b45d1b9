"""Independent test oracles: one-sided Jacobi SVD and brute-force helpers.

These deliberately avoid np.linalg.svd so the production norm path is
cross-checked against a different algorithm.  The matrix text reference
parser and writer are the plain per-token loops the bulk `fileio` code must
match bit for bit and byte for byte.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from pavelab import DenseMatrix, FormatError


def jacobi_singular_values(a, tol=1e-14, max_sweeps=100) -> np.ndarray:
    """Singular values via cyclic one-sided Jacobi column orthogonalization."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError("need a 2-d array")
    if m.size == 0:
        return np.zeros(0)
    if m.shape[0] < m.shape[1]:
        m = m.T.copy()
    cols = m.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                ci, cj = m[:, i].copy(), m[:, j].copy()
                aii = float(ci @ ci)
                ajj = float(cj @ cj)
                aij = float(ci @ cj)
                if aij == 0.0:
                    continue
                denom = math.sqrt(aii * ajj)
                if denom > 0.0 and abs(aij) <= tol * denom:
                    continue
                off = max(off, abs(aij) / denom if denom > 0 else 0.0)
                tau = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                m[:, i] = c * ci - s * cj
                m[:, j] = s * ci + c * cj
        if off <= tol:
            break
    sv = np.sqrt(np.sum(m * m, axis=0))
    return np.sort(sv)[::-1]


def jacobi_spectral_norm(a) -> float:
    sv = jacobi_singular_values(a)
    return float(sv[0]) if sv.size else 0.0


def jacobi_schatten_norm(a, p) -> float:
    sv = jacobi_singular_values(a)
    return float(np.sum(sv ** p) ** (1.0 / p)) if sv.size else 0.0


def _fraction_det(m) -> Fraction:
    """Determinant of a square list of lists of Fractions (Laplace expansion)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _fraction_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def above_every_eigenvalue(a, x) -> bool:
    """Whether x exceeds every eigenvalue of the symmetric k x k matrix `a`
    (lower triangle), in exact rational arithmetic.

    The roots of det((x + t) I - a) are lambda_i - x, all real, so they are
    all negative exactly when its coefficients are all positive (Descartes'
    rule of signs).  The coefficient of t^(k - j) is the sum of the principal
    j x j minors of xI - a.
    """
    k = len(a)
    m = [[(Fraction(float(x)) if i == j else 0) - Fraction(float(a[max(i, j)][min(i, j)]))
          for j in range(k)] for i in range(k)]
    return all(
        sum(_fraction_det([[m[i][j] for j in rows] for i in rows])
            for rows in itertools.combinations(range(k), size)) > 0
        for size in range(1, k + 1)
    )


def brute_force_pair_moment(a: np.ndarray, rate: float, p: float) -> float:
    """(E ||R a R'||^p)^(1/p) by a plain double loop over index subsets."""
    n = a.shape[0]
    total = 0.0
    for rows in itertools.product([0, 1], repeat=n):
        w_r = rate ** sum(rows) * (1 - rate) ** (n - sum(rows))
        ridx = [i for i, b in enumerate(rows) if b]
        for cols in itertools.product([0, 1], repeat=n):
            w_c = rate ** sum(cols) * (1 - rate) ** (n - sum(cols))
            cidx = [i for i, b in enumerate(cols) if b]
            if ridx and cidx:
                v = jacobi_spectral_norm(a[np.ix_(ridx, cidx)])
            else:
                v = 0.0
            total += w_r * w_c * v ** p
    return total ** (1.0 / p)


def brute_force_sign_moment(a: np.ndarray, p: float) -> float:
    """(E ||sum_j eps_j x_j x_j^T||^p)^(1/p) over all sign patterns, Jacobi norms."""
    n = a.shape[1]
    total = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=n):
        s = (a * np.array(signs)) @ a.T
        total += jacobi_spectral_norm(s) ** p
    return (total / 2 ** n) ** (1.0 / p)


def interpolated_trace_polynomial(x, p: int) -> np.ndarray:
    """c_1..c_p of s -> E trace (R_s X R_s)^p by interpolation (reference).

    Exact trace moments of the entry-normalized matrix are evaluated at p+1
    Chebyshev nodes in (0, 1) and fitted by a Vandermonde solve; the node
    residual must stay below 1e-8 and the fitted constant term must vanish.
    """
    x = np.array(x, dtype=float)
    n = x.shape[0]
    scale = max(1.0, float(np.abs(x).max()))
    bits = np.array(list(itertools.product([0.0, 1.0], repeat=n))).reshape(-1, n)
    stack = (x / scale)[None, :, :] * bits[:, :, None] * bits[:, None, :]
    traces = np.einsum("bii->b", np.linalg.matrix_power(stack, p))
    sizes = bits.sum(axis=1)
    i = np.arange(p + 1)
    nodes = (np.cos((2 * i + 1) * math.pi / (2 * (p + 1))) + 1.0) / 2.0
    values = np.array([np.sum(s ** sizes * (1 - s) ** (n - sizes) * traces) for s in nodes])
    vander = np.vander(nodes, p + 1, increasing=True)
    coeffs = np.linalg.solve(vander, values)
    residual = float(np.max(np.abs(vander @ coeffs - values)))
    assert residual < 1e-8, f"interpolation residual {residual:g} exceeds 1e-8"
    assert abs(coeffs[0]) < 1e-8, f"constant term {coeffs[0]:g} should vanish"
    return coeffs[1:] * scale ** p


def all_set_partitions(n: int, m: int):
    """Every partition of range(n) into exactly m nonempty blocks (reference)."""
    if m == 0:
        if n == 0:
            yield ()
        return
    items = list(range(n))

    def rec(i, blocks):
        if i == n:
            if len(blocks) == m:
                yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([items[i]])
            yield from rec(i + 1, blocks)
            blocks.pop()

    seen = set()
    for part in rec(0, []):
        key = tuple(sorted(tuple(sorted(b)) for b in part))
        if key not in seen:
            seen.add(key)
            yield key


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def matrix_to_text(a: DenseMatrix) -> str:
    """The matrix file text, one `format_float` per entry (reference)."""
    lines = [f"{a.n_rows} {a.n_cols}"]
    for row in a.data:
        lines.append(" ".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> DenseMatrix:
    """The matrix file parsed row by row, one `float()` per token (reference)."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n_rows n_cols', got {lines[0]!r}")
    try:
        n_rows, n_cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n_rows < 0 or n_cols < 0:
        raise FormatError("negative dimensions")
    body = lines[1:]
    if len(body) < n_rows:
        raise FormatError(f"expected {n_rows} rows, found {len(body)}")
    rows = []
    for i in range(n_rows):
        toks = body[i].split()
        if len(toks) != n_cols:
            raise FormatError(f"row {i}: expected {n_cols} entries, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise FormatError(f"row {i}: non-numeric entry") from exc
    return DenseMatrix(np.array(rows, dtype=float).reshape(n_rows, n_cols))
