"""Registry of the nine verifiable moment inequalities.

Each case is one function, `run(inst, method, trials, seed)`: it checks the
case's hypotheses in order (a failed one raises PreconditionError
"<CASE>: hypothesis failed: <what>"), then evaluates both sides by exact
(full pattern enumeration) or Monte Carlo means, and returns the report's
n, params, lhs, rhs, standard error and notes.  Exact verdicts use strict
comparison with a `moments.SLACK` slack; Monte Carlo verdicts only flag a
violation when the gap exceeds three combined standard errors.

Patterns, weights and moments come from the pattern layer in `moments`:
restriction moments through its exact/Monte Carlo dispatch `moment`, and the
cases with their own per-pattern quantity (RESTRICT_RV, COLNORM and the two
Khintchine cases) through `exact_patterns`/`sampled_patterns` on the stream
"ineq:<CASE>" and the reduction `weighted_moment_stats` (trials 0 when
exact).  Exact pair moments take the layer's whole-space pair kernel, chosen
by model.  Exact sign enumeration shares the layer's cap of
EXACT_SIGNS_MAX_N = 14 terms; NC_KHINTCHINE's Schatten norms come from
`matrices.batch_schatten_norms`.  EXTRAP itself only asks for a square
matrix and the rates and exponent; `polynomials.check_extrapolation` checks
the bound's hypotheses through `polynomials.extrapolation_hypotheses`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import haagerup_constant, khintchine_constant, rudelson_bound, step3_bound
from .errors import ParameterError, PreconditionError
from .matrices import (
    UNIT_NORM_TOL,
    DenseMatrix,
    batch_schatten_norms,
    max_abs_entry,
    max_column_norm,
    spectral_norm,
)
from .moments import (
    SLACK,
    exact_patterns,
    masked_norms,
    moment,
    sampled_patterns,
    verdict,
    weighted_moment_stats,
)
from .polynomials import check_extrapolation
from .sampling import (
    Bernoulli,
    BernoulliPair,
    ProjectorModel,
    RademacherSigns,
    Seed,
    UniformK,
)


@dataclass(frozen=True)
class InequalityInstance:
    """Inputs for one inequality check; unused fields stay None."""

    matrix: DenseMatrix | None = None
    matrices: tuple[DenseMatrix, ...] | None = None
    vector: tuple[float, ...] | None = None
    p: float = 2.0
    rate: float | None = None
    k: int | None = None
    mu: float | None = None
    delta: float | None = None
    rho: float | None = None
    lam: float | None = None


@dataclass(frozen=True)
class InequalityReport:
    case: str
    n: int
    p: float
    params: tuple[tuple[str, float], ...]
    lhs: float
    rhs: float
    ratio: float
    method: str
    trials: int
    seed: int | None
    holds: bool
    notes: tuple[tuple[str, float], ...] = field(default=())


def format_report(rep: InequalityReport) -> str:
    params = ",".join(f"{k}:{'%.12g' % v}" for k, v in rep.params) or "-"
    seed = "-" if rep.seed is None else str(rep.seed)
    fields = [
        f"case={rep.case}",
        f"n={rep.n}",
        f"p={'%.12g' % rep.p}",
        f"params={params}",
        f"lhs={'%.17g' % rep.lhs}",
        f"rhs={'%.17g' % rep.rhs}",
        f"ratio={'%.12g' % rep.ratio}",
        f"method={rep.method}",
        f"trials={rep.trials}",
        f"seed={seed}",
        f"holds={'yes' if rep.holds else 'no'}",
    ]
    for key, value in rep.notes:
        fields.append(f"{key}={'%.12g' % value}")
    return " ".join(fields)


# ---------------------------------------------------------------------------
# Per-pattern helpers
# ---------------------------------------------------------------------------

def _patterns(model: ProjectorModel, case: str, method: str, trials: int, seed):
    """(patterns, weights, trials) from the pattern layer; trials is 0 when exact.

    Sampled patterns come from the case's own stream "ineq:<case>".
    """
    if method == "exact":
        patterns, weights = exact_patterns(model)
        return patterns, weights, 0
    patterns, counts = sampled_patterns(model, seed.rng(f"ineq:{case}"), trials)
    return patterns, counts, trials


def _need(cond: bool, case: str, what: str) -> None:
    if not cond:
        raise PreconditionError(f"{case}: hypothesis failed: {what}")


def _square_matrix(inst: InequalityInstance, case: str) -> DenseMatrix:
    _need(inst.matrix is not None, case, "matrix required")
    _need(inst.matrix.is_square, case, "matrix must be square")
    return inst.matrix


# ---------------------------------------------------------------------------
# Case definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCase:
    """`run(inst, method, trials, seed)` checks the case's hypotheses, then
    evaluates both sides: (n, params, lhs, rhs, stderr, notes)."""

    id: str
    description: str
    run: Callable[[InequalityInstance, str, int, Seed | None], tuple]


def _compare(a, left, right, factor, p, method, trials, seed):
    """lhs = moment under `left` (stream 0) vs rhs = factor * moment under
    `right` (stream 1)."""
    est_l = moment(a, left, p, method, trials, seed, index=0)
    est_r = moment(a, right, p, method, trials, seed, index=1)
    se = math.hypot(est_l.stderr, factor * est_r.stderr)
    return est_l.value, factor * est_r.value, se, ()


def _model_equiv(inst, method, trials, seed):
    a = _square_matrix(inst, "MODEL_EQUIV")
    n, k, p = a.n_rows, inst.k, inst.p
    _need(k is not None and 1 <= k <= n, "MODEL_EQUIV", "1 <= k <= n")
    _need(n % k == 0, "MODEL_EQUIV", "k must divide n")
    _need(p > 0, "MODEL_EQUIV", "p > 0")
    return n, (("k", float(k)), ("rate", k / n)), *_compare(
        a, UniformK(n, k), Bernoulli(n, k / n), 2.0 ** (1.0 / p), p, method, trials, seed
    )


def _decoupling(inst, method, trials, seed):
    b = _square_matrix(inst, "DECOUPLING")
    diag = np.abs(np.diag(b.data)).max() if b.n_rows else 0.0
    _need(diag == 0.0, "DECOUPLING", "zero diagonal")
    _need(inst.p >= 1, "DECOUPLING", "p >= 1")
    _need(inst.rate is not None and 0.0 <= inst.rate <= 1.0, "DECOUPLING", "rate in [0, 1]")
    n, rate = b.n_rows, inst.rate
    return n, (("rate", rate),), *_compare(
        b, Bernoulli(n, rate), BernoulliPair(n, rate), 20.0, inst.p, method, trials, seed
    )


def _check_rate_and_log_p(inst, case: str, floor: float) -> DenseMatrix:
    """The matrix, once it is square with 2 log n >= floor, p >= 2 log n and
    rate in [0, 1]."""
    a = _square_matrix(inst, case)
    n = a.n_rows
    _need(2.0 * math.log(n) >= floor if n else False, case, f"2 log n >= {floor:g}")
    _need(inst.p >= 2.0 * math.log(n), case, "p >= 2 log n")
    _need(inst.rate is not None and 0.0 <= inst.rate <= 1.0, case, "rate in [0, 1]")
    return a


def _restrict_rv(inst, method, trials, seed):
    a = _check_rate_and_log_p(inst, "RESTRICT_RV", 2.0)
    x, rate, p = a.data, inst.rate, inst.p
    (bits,), weights, t = _patterns(Bernoulli(a.n_rows, rate), "RESTRICT_RV", method, trials, seed)
    spec_vals = masked_norms(x, np.ones_like(bits), bits)
    # largest Euclidean norm over the selected columns, per pattern
    col_vals = np.sqrt(np.max(bits * np.sum(x * x, axis=0)[None, :], axis=1))
    lhs, se_l = weighted_moment_stats(spec_vals, weights, t, p)
    colm, se_c = weighted_moment_stats(col_vals, weights, t, p)
    factor = 3.0 * math.sqrt(p)
    rhs = factor * colm + math.sqrt(rate) * spectral_norm(a)
    return a.n_rows, (("rate", rate),), lhs, rhs, math.hypot(se_l, factor * se_c), ()


def _colnorm(inst, method, trials, seed):
    a = _check_rate_and_log_p(inst, "COLNORM", 4.0)
    x, rate, p = a.data, inst.rate, inst.p
    (bits,), weights, t = _patterns(Bernoulli(a.n_rows, rate), "COLNORM", method, trials, seed)
    # largest column norm of the row-restricted matrix, per pattern
    lhs, se = weighted_moment_stats(np.sqrt(np.max(bits @ (x * x), axis=1)), weights, t, p)
    tail = math.sqrt(rate) * max_column_norm(a)
    rhs = 3.0 * math.sqrt(p) * max_abs_entry(a) + tail
    rhs_proof = 2.0 ** 1.5 * math.sqrt(p) * max_abs_entry(a) + tail
    notes = (
        ("rhs_proof_constant", rhs_proof),
        ("holds_proof_constant", 1.0 if lhs <= rhs_proof + SLACK * max(1.0, rhs_proof) else 0.0),
    )
    return a.n_rows, (("rate", rate),), lhs, rhs, se, notes


def _rudelson(inst, method, trials, seed):
    x, p = inst.matrix, inst.p
    _need(x is not None, "RUDELSON", "matrix required")
    _need(x.n_cols >= 1, "RUDELSON", "at least one column")
    _need(p >= 2.0, "RUDELSON", "p >= 2")
    _need(p >= 2.0 * math.log(x.n_cols), "RUDELSON", "p >= 2 log n_cols")
    est = moment(x, RademacherSigns(x.n_cols), p, method, trials, seed)
    rhs = rudelson_bound(p, max_column_norm(x), spectral_norm(x))
    return x.n_rows, (), est.value, rhs, est.stderr, ()


def _nc_khintchine(inst, method, trials, seed):
    _need(bool(inst.matrices), "NC_KHINTCHINE", "matrix sequence required")
    _need(len({m.shape for m in inst.matrices}) == 1, "NC_KHINTCHINE",
          "matrices must share one shape")
    _need(inst.p >= 2, "NC_KHINTCHINE", "p >= 2")
    mats = np.stack([m.data for m in inst.matrices])
    p = inst.p
    (signs,), weights, t = _patterns(
        RademacherSigns(mats.shape[0]), "NC_KHINTCHINE", method, trials, seed
    )
    sums = np.einsum("sj,jrc->src", signs, mats)
    lhs, se = weighted_moment_stats(batch_schatten_norms(sums, p), weights, t, p)
    gram_left = np.einsum("jrc,jsc->rs", mats, mats)
    gram_right = np.einsum("jrc,jrs->cs", mats, mats)
    sides = []
    for gram in (gram_left, gram_right):
        eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        sides.append(float(np.sum(eig ** (p / 2.0)) ** (1.0 / p)))
    square_fn = max(sides)
    exact_const, bound_const = khintchine_constant(p)
    notes = (("rhs_exact_constant", exact_const * square_fn),) if exact_const else ()
    n = inst.matrices[0].n_rows
    return n, (("count", float(len(inst.matrices))),), lhs, bound_const * square_fn, se, notes


def _scalar_khintchine(inst, method, trials, seed):
    _need(bool(inst.vector), "SCALAR_KHINTCHINE", "coefficient vector required")
    _need(inst.p >= 2, "SCALAR_KHINTCHINE", "q >= 2")
    a = np.asarray(inst.vector, dtype=float)
    q = inst.p
    (signs,), weights, t = _patterns(
        RademacherSigns(a.size), "SCALAR_KHINTCHINE", method, trials, seed
    )
    lhs, se = weighted_moment_stats(np.abs(signs @ a), weights, t, q)
    rhs = haagerup_constant(q) * float(np.sqrt(np.sum(a * a)))
    return len(inst.vector), (), lhs, rhs, se, ()


def _step3(inst, method, trials, seed):
    a = _square_matrix(inst, "STEP3")
    n, mu, rate, p = a.n_rows, inst.mu, inst.rate, inst.p
    _need(n >= 8, "STEP3", "n >= 8")
    _need(abs(spectral_norm(a) - 1.0) <= UNIT_NORM_TOL, "STEP3", "unit spectral norm")
    _need(mu is not None and mu > 0, "STEP3", "mu > 0")
    _need(max_abs_entry(a) <= mu * (1.0 + SLACK), "STEP3", "entries bounded by mu")
    _need(rate is not None and 0.0 < rate < 1.0, "STEP3", "rate in (0, 1)")
    _need(p == 2 * math.ceil(math.log(n)), "STEP3", "p = 2 ceil(log n)")
    est = moment(a, Bernoulli(n, rate), p, method, trials, seed)
    return n, (("mu", mu), ("rate", rate)), est.value, step3_bound(mu, rate, n), est.stderr, ()


def _extrap(inst, method, trials, seed):
    x = _square_matrix(inst, "EXTRAP")
    _need(None not in (inst.delta, inst.rho, inst.lam), "EXTRAP", "delta, rho, lambda required")
    rep = check_extrapolation(
        x, inst.delta, inst.rho, inst.lam, inst.p, method=method, trials=trials, seed=seed,
    )
    params = (("delta", inst.delta), ("rho", inst.rho), ("lambda", inst.lam))
    return x.n_rows, params, rep.lhs, rep.rhs, rep.stderr, (("constant", rep.constant),)


CASES: dict[str, InequalityCase] = {
    cid: InequalityCase(cid, description, run) for cid, run, description in (
        ("MODEL_EQUIV", _model_equiv,
         "uniform-k restriction moment vs doubled independent-rate moment"),
        ("DECOUPLING", _decoupling,
         "one-projector restriction moment vs 20x decoupled pair moment"),
        ("RESTRICT_RV", _restrict_rv,
         "column-restriction spectral moment vs column-norm term plus sqrt(rate) tail"),
        ("COLNORM", _colnorm,
         "row-restriction max-column-norm moment vs entry and column bounds"),
        ("RUDELSON", _rudelson,
         "Rademacher column outer-product sum vs 1.5 sqrt(p) norm product"),
        ("NC_KHINTCHINE", _nc_khintchine,
         "matrix Rademacher sum Schatten moment vs square-function bound"),
        ("SCALAR_KHINTCHINE", _scalar_khintchine,
         "scalar Rademacher sum moment vs Euclidean norm bound"),
        ("STEP3", _step3,
         "restricted moment of a unit-norm bounded matrix vs closed-form bound"),
        ("EXTRAP", _extrap,
         "constant-rate moment vs extrapolation from a small rate"),
    )
}

CASE_IDS = tuple(CASES)


def verify_inequality(
    case_id: str,
    instance: InequalityInstance,
    method: str = "exact",
    trials: int = 0,
    seed: Seed | None = None,
) -> InequalityReport:
    """Evaluate one registered inequality on one instance."""
    if case_id not in CASES:
        raise ParameterError(f"unknown inequality case {case_id!r}; known: {CASE_IDS}")
    if method not in ("exact", "mc"):
        raise ParameterError(f"method must be 'exact' or 'mc', got {method!r}")
    if method == "mc":
        if trials < 2:
            raise ParameterError("mc method needs trials >= 2")
        if seed is None:
            raise ParameterError("mc method needs a seed")
    n, params, lhs, rhs, se, notes = CASES[case_id].run(instance, method, trials, seed)
    holds, ratio = verdict(lhs, rhs, se, method == "exact")
    return InequalityReport(
        case=case_id,
        n=n,
        p=instance.p,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=ratio,
        method=method,
        trials=0 if method == "exact" else trials,
        seed=None if seed is None else seed.master,
        holds=holds,
        notes=notes,
    )
