"""Trace-moment polynomial machinery and the extrapolation check.

For a symmetric contraction X and even p, the map s -> E trace(R_s X R_s)^p
is a degree-p polynomial with no constant term that sandwiches the moment
E ||R_s X R_s||^p between itself and an e^p multiple.  Markov's coefficient
bound applied to that polynomial is what lets a moment measured at a small
selection rate be extrapolated to a constant rate.  Its coefficients are
built exactly from per-size sums of subset traces, not fitted.

Subset traces come from per-size stacks under the pattern layer's Bernoulli cap,
and `_contraction_p` is the one contraction check.  `extrapolation_hypotheses`
states when the extrapolation bound holds and its constant C; `check_extrapolation`,
the EXTRAP inequality case and the `extrap_bound` column of `scan` all call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import extrapolation_bound, extrapolation_constant
from .errors import CapacityError, ParameterError, PreconditionError
from .matrices import UNIT_NORM_TOL, DenseMatrix, spectral_norm
from .moments import (
    EXACT_BERNOULLI_MAX_N,
    SLACK,
    bernoulli_weights,
    exact_pattern_values,
    masked_norms,
    moment,
    size_index_rows,
    verdict,
)
from .sampling import Bernoulli, Seed

TRACE_POLY_MAX_P = 12


@dataclass(frozen=True)
class PolyCoefficients:
    """Coefficients c_1..c_degree of a polynomial with zero constant term."""

    degree: int
    coeffs: tuple[float, ...]

    def evaluate(self, s: float) -> float:
        return float(np.polynomial.polynomial.polyval(s, (0.0, *self.coeffs)))


@dataclass(frozen=True)
class SandwichReport:
    s_grid: tuple[float, ...]
    norm_moments: tuple[float, ...]   # F(s) = E ||R_s X R_s||^p
    trace_moments: tuple[float, ...]  # E trace (R_s X R_s)^p
    p: int
    holds: bool
    monotone: bool


@dataclass(frozen=True)
class MarkovReport:
    degree: int
    max_abs: float
    coeff_abs: tuple[float, ...]
    coeff_bounds: tuple[float, ...]
    exp_bound: float
    holds: bool


@dataclass(frozen=True)
class ExtrapolationReport:
    lhs: float
    rhs: float
    ratio: float
    constant: float
    delta: float
    rho: float
    lam: float
    p: int
    method: str
    trials: int
    stderr: float
    holds: bool


def _is_symmetric(a: DenseMatrix) -> bool:
    return a.is_square and bool(np.array_equal(a.data, a.data.T))


def _contraction_p(x: DenseMatrix, norm: float, p) -> int:
    """p as an int if X is nonempty and square, ||X|| = `norm` <= 1 and p is
    even >= 2 log n."""
    if not x.is_square or x.is_empty:
        raise PreconditionError(f"needs a nonempty square matrix, got {x.n_rows}x{x.n_cols}")
    if norm > 1.0 + UNIT_NORM_TOL:
        raise PreconditionError(f"needs ||X|| <= 1, got {norm}")
    if int(p) != p or int(p) % 2 != 0 or p < 2:
        raise PreconditionError(f"p must be a positive even integer, got {p}")
    if p < 2 * math.log(x.n_rows):
        raise PreconditionError(f"needs p >= 2 log n (p={p}, n={x.n_rows})")
    return int(p)


def subset_traces(x: DenseMatrix, p: int):
    """(masks, trace((X_S)^p)) over all 2^n masks S; trace 0 at S = {}."""
    n = x.n_rows
    if n > EXACT_BERNOULLI_MAX_N:
        raise CapacityError(f"trace enumeration needs 2^{n} patterns")
    bits, codes, idx = size_index_rows(n)
    traces = np.zeros(bits.shape[0])
    for k in range(1, n + 1):
        block = x.data[idx[k][:, :, None], idx[k][:, None, :]]
        traces[codes[k]] = np.einsum("bii->b", np.linalg.matrix_power(block, p))
    return bits, traces


def subset_traces_and_norms(x: DenseMatrix, p: int):
    """(masks, trace((X_S)^p), ||X_S||) over all 2^n masks S; trace 0 at S = {}."""
    bits, traces = subset_traces(x, p)
    return bits, traces, masked_norms(x.data, bits, bits)


def restricted_trace_moment(x: DenseMatrix, p: int, s: float) -> float:
    """Exact E trace (R_s X R_s)^p by pattern enumeration."""
    bits, traces = subset_traces(x, p)
    return float(np.sum(bernoulli_weights(bits, s) * traces))


def restricted_norm_moment_pth(x: DenseMatrix, p: int, s: float) -> float:
    """Exact F(s) = E ||R_s X R_s||^p (the p-th power, not its root)."""
    norms, weights = exact_pattern_values(x, Bernoulli(x.n_rows, s))
    return float(np.sum(weights * norms ** p))


def trace_moment_polynomial(x: DenseMatrix, p) -> PolyCoefficients:
    """Exact coefficients c_1..c_p of s -> E trace (R_s X R_s)^p.

    With H_j the sum of trace((X_S)^p) over the subsets S of size j,
    E trace (R_s X R_s)^p = sum_j H_j s^j (1 - s)^(n - j), so
    c_m = sum_{j <= min(m, n)} (-1)^(m - j) C(n - j, m - j) H_j.  H_0 = 0, and
    c_m = 0 for m > p because a closed walk of length p visits at most p
    coordinates, so the degree-p truncation is exact.
    """
    if not x.is_square:
        raise ParameterError("trace moments need a square matrix")
    if int(p) != p or p % 2 != 0 or p < 2 or p > TRACE_POLY_MAX_P:
        raise ParameterError(f"p must be even with 2 <= p <= {TRACE_POLY_MAX_P}")
    p, n = int(p), x.n_rows
    bits, traces = subset_traces(x, p)
    sums = np.bincount(bits.sum(axis=1).astype(np.intp), weights=traces, minlength=n + 1)
    coeffs = tuple(
        float(sum((-1) ** (m - j) * math.comb(n - j, m - j) * sums[j]
                  for j in range(1, min(m, n) + 1)))
        for m in range(1, p + 1)
    )
    return PolyCoefficients(degree=p, coeffs=coeffs)


def check_polynomial_sandwich(x: DenseMatrix, p, s_grid) -> SandwichReport:
    """Verify F(s) <= E trace (R_s X R_s)^p <= e^p F(s) and F monotone.

    Requires a symmetric matrix that passes `_contraction_p` (the trace lower
    bound fails for non-normal inputs).
    """
    if not _is_symmetric(x):
        raise PreconditionError("sandwich: needs a symmetric matrix")
    p = _contraction_p(x, spectral_norm(x), p)
    grid = tuple(sorted(float(s) for s in s_grid))
    if not grid or grid[0] < 0.0 or grid[-1] > 1.0:
        raise PreconditionError("sandwich: grid must lie in [0, 1]")
    bits, traces, norms = subset_traces_and_norms(x, p)
    weights = [bernoulli_weights(bits, s) for s in grid]
    f_vals = [float(np.sum(w * norms ** p)) for w in weights]
    t_vals = [float(np.sum(w * traces)) for w in weights]
    scale = math.exp(p)
    holds = all(
        f <= t + SLACK and t <= scale * f + SLACK
        for f, t in zip(f_vals, t_vals)
    )
    monotone = all(
        f_vals[i] <= f_vals[i + 1] + SLACK for i in range(len(f_vals) - 1)
    )
    return SandwichReport(
        s_grid=grid,
        norm_moments=tuple(f_vals),
        trace_moments=tuple(t_vals),
        p=p,
        holds=holds,
        monotone=monotone,
    )


def polynomial_sup_unit_interval(coeffs, grid_points: int = 10001) -> float:
    """max |r(t)| over [-1, 1]: dense grid plus refinement around the argmax."""
    c = np.asarray(coeffs, dtype=float)
    ts = np.linspace(-1.0, 1.0, grid_points)
    vals = np.abs(np.polynomial.polynomial.polyval(ts, c))
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, grid_points - 1)]
    fine = np.linspace(lo, hi, 1001)
    best = np.max(np.abs(np.polynomial.polynomial.polyval(fine, c)))
    return float(max(vals[i], best))


def check_markov(coeffs, d: int) -> MarkovReport:
    """Verify |c_k| <= (d^k / k!) max|r| <= e^d max|r| for every coefficient.

    `coeffs` lists c_0..c_deg of r(t); d bounds the degree.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        raise ParameterError("empty coefficient list")
    if d < c.size - 1:
        raise ParameterError(f"degree bound d={d} below polynomial degree {c.size - 1}")
    sup = polynomial_sup_unit_interval(c)
    bounds = [d ** k / math.factorial(k) * sup for k in range(c.size)]
    exp_bound = math.exp(d) * sup
    holds = all(
        abs(ck) <= bk + SLACK * max(1.0, bk) and bk <= exp_bound + SLACK * max(1.0, exp_bound)
        for ck, bk in zip(c, bounds)
    )
    return MarkovReport(
        degree=d,
        max_abs=sup,
        coeff_abs=tuple(abs(v) for v in c),
        coeff_bounds=tuple(bounds),
        exp_bound=exp_bound,
        holds=holds,
    )


def chebyshev_coefficients(d: int) -> list[int]:
    """Monomial coefficients c_0..c_d of the degree-d Chebyshev polynomial."""
    if d < 0:
        raise ParameterError("degree must be >= 0")
    return [int(c) for c in np.polynomial.chebyshev.cheb2poly([0] * d + [1])]


def extrapolation_hypotheses(
    x: DenseMatrix, norm: float, delta: float, rho: float, lam: float, p
) -> tuple[int, float]:
    """(even p, C) for the extrapolation bound, or PreconditionError.

    The bound needs delta in (0, 1), rho in (0, 1/2), lam in (0, 1), and X,
    `norm` = ||X|| and p to pass `_contraction_p`; C = 60, halved for
    symmetric X.
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"extrapolation: delta must be in (0, 1), got {delta}")
    if not 0.0 < rho < 0.5:
        raise PreconditionError(f"extrapolation: rho must be in (0, 0.5), got {rho}")
    if not 0.0 < lam < 1.0:
        raise PreconditionError(f"extrapolation: lambda must be in (0, 1), got {lam}")
    return _contraction_p(x, norm, p), extrapolation_constant(_is_symmetric(x))


def check_extrapolation(
    x: DenseMatrix,
    delta: float,
    rho: float,
    lam: float,
    p,
    method: str = "exact",
    trials: int = 0,
    seed: Seed | None = None,
) -> ExtrapolationReport:
    """Check the rate-extrapolation bound on restricted-norm moments.

    lhs = (E ||R_delta X R_delta||^p)^(1/p) against
    rhs = C [delta^lam + rho^(-lam) (E ||R_rho X R_rho||^p)^(1/p)],
    under `extrapolation_hypotheses`.
    """
    p, constant = extrapolation_hypotheses(x, spectral_norm(x), delta, rho, lam, p)
    n = x.n_rows
    est_l = moment(x, Bernoulli(n, delta), p, method, trials, seed, index=0)
    est_r = moment(x, Bernoulli(n, rho), p, method, trials, seed, index=1)
    lhs, trials = est_l.value, est_l.trials
    se = math.hypot(est_l.stderr, constant * rho ** (-lam) * est_r.stderr)
    rhs = extrapolation_bound(constant, delta, rho, lam, est_r.value)
    holds, ratio = verdict(lhs, rhs, se, method == "exact")
    return ExtrapolationReport(
        lhs=lhs, rhs=rhs, ratio=ratio, constant=constant,
        delta=delta, rho=rho, lam=lam, p=p,
        method=method, trials=trials, stderr=se, holds=holds,
    )
