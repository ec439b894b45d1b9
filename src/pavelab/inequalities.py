"""Registry of the nine verifiable moment inequalities.

Each case packages its hypotheses and an exact (full pattern enumeration) or
Monte Carlo evaluation of both sides.  Exact verdicts use strict comparison
with a 1e-12 slack; Monte Carlo verdicts only flag a violation when the gap
exceeds three combined standard errors.

Patterns, weights and moments come from the pattern layer in `moments`:
restriction moments through its exact/Monte Carlo dispatch `moment`, and the
cases with their own per-pattern quantity (RESTRICT_RV, COLNORM and the two
Khintchine cases) through `exact_patterns`/`sampled_patterns` on the stream
"ineq:<CASE>" and the reduction `weighted_moment_stats` (trials 0 when
exact).  Exact pair moments take the layer's whole-space pair kernel, chosen
by model.  Exact sign enumeration shares the layer's cap of
EXACT_SIGNS_MAX_N = 14 terms; NC_KHINTCHINE's Schatten norms come from
`matrices.batch_schatten_norms`.  EXTRAP's own check only asks for a square
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
    DenseMatrix,
    batch_schatten_norms,
    max_abs_entry,
    max_column_norm,
    spectral_norm,
)
from .moments import (
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

_SLACK = 1e-12


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

def _matrix_dims(inst):
    return inst.matrix.n_rows


@dataclass(frozen=True)
class InequalityCase:
    id: str
    description: str
    check: Callable[[InequalityInstance], None]
    evaluate: Callable[[InequalityInstance, str, int, Seed | None], tuple]
    params: Callable[[InequalityInstance], tuple]
    dims: Callable[[InequalityInstance], int] = _matrix_dims


def _compare(a, left, right, factor, p, method, trials, seed):
    """lhs = moment under `left` (stream 0) vs rhs = factor * moment under
    `right` (stream 1)."""
    est_l = moment(a, left, p, method, trials, seed, index=0)
    est_r = moment(a, right, p, method, trials, seed, index=1)
    se = math.hypot(est_l.stderr, factor * est_r.stderr)
    return est_l.value, factor * est_r.value, se, ()


def _check_model_equiv(inst):
    a = _square_matrix(inst, "MODEL_EQUIV")
    _need(inst.k is not None and 1 <= inst.k <= a.n_rows, "MODEL_EQUIV", "1 <= k <= n")
    _need(a.n_rows % inst.k == 0, "MODEL_EQUIV", "k must divide n")
    _need(inst.p > 0, "MODEL_EQUIV", "p > 0")


def _eval_model_equiv(inst, method, trials, seed):
    a, k, p = inst.matrix, inst.k, inst.p
    n = a.n_rows
    return _compare(
        a, UniformK(n, k), Bernoulli(n, k / n), 2.0 ** (1.0 / p), p, method, trials, seed
    )


def _check_decoupling(inst):
    b = _square_matrix(inst, "DECOUPLING")
    diag = np.abs(np.diag(b.data)).max() if b.n_rows else 0.0
    _need(diag == 0.0, "DECOUPLING", "zero diagonal")
    _need(inst.p >= 1, "DECOUPLING", "p >= 1")
    _need(inst.rate is not None and 0.0 <= inst.rate <= 1.0, "DECOUPLING", "rate in [0, 1]")


def _eval_decoupling(inst, method, trials, seed):
    b, rate, p = inst.matrix, inst.rate, inst.p
    n = b.n_rows
    return _compare(
        b, Bernoulli(n, rate), BernoulliPair(n, rate), 20.0, p, method, trials, seed
    )


def _check_rate_and_log_p(inst, case: str, floor: float):
    """Square matrix with 2 log n >= floor, p >= 2 log n and rate in [0, 1]."""
    n = _square_matrix(inst, case).n_rows
    _need(2.0 * math.log(n) >= floor if n else False, case, f"2 log n >= {floor:g}")
    _need(inst.p >= 2.0 * math.log(n), case, "p >= 2 log n")
    _need(inst.rate is not None and 0.0 <= inst.rate <= 1.0, case, "rate in [0, 1]")


def _eval_restrict_rv(inst, method, trials, seed):
    x, rate, p = inst.matrix.data, inst.rate, inst.p
    (bits,), weights, t = _patterns(
        Bernoulli(x.shape[0], rate), "RESTRICT_RV", method, trials, seed
    )
    spec_vals = masked_norms(x, np.ones_like(bits), bits)
    # largest Euclidean norm over the selected columns, per pattern
    col_vals = np.sqrt(np.max(bits * np.sum(x * x, axis=0)[None, :], axis=1))
    lhs, se_l = weighted_moment_stats(spec_vals, weights, t, p)
    colm, se_c = weighted_moment_stats(col_vals, weights, t, p)
    factor = 3.0 * math.sqrt(p)
    rhs = factor * colm + math.sqrt(rate) * spectral_norm(inst.matrix)
    return lhs, rhs, math.hypot(se_l, factor * se_c), ()


def _eval_colnorm(inst, method, trials, seed):
    x, rate, p = inst.matrix.data, inst.rate, inst.p
    (bits,), weights, t = _patterns(
        Bernoulli(x.shape[0], rate), "COLNORM", method, trials, seed
    )
    # largest column norm of the row-restricted matrix, per pattern
    lhs, se = weighted_moment_stats(np.sqrt(np.max(bits @ (x * x), axis=1)), weights, t, p)
    tail = math.sqrt(rate) * max_column_norm(inst.matrix)
    rhs = 3.0 * math.sqrt(p) * max_abs_entry(inst.matrix) + tail
    rhs_proof = 2.0 ** 1.5 * math.sqrt(p) * max_abs_entry(inst.matrix) + tail
    notes = (
        ("rhs_proof_constant", rhs_proof),
        ("holds_proof_constant", 1.0 if lhs <= rhs_proof + _SLACK * max(1.0, rhs_proof) else 0.0),
    )
    return lhs, rhs, se, notes


def _check_rudelson(inst):
    _need(inst.matrix is not None, "RUDELSON", "matrix required")
    cols = inst.matrix.n_cols
    _need(cols >= 1, "RUDELSON", "at least one column")
    _need(inst.p >= 2.0, "RUDELSON", "p >= 2")
    _need(inst.p >= 2.0 * math.log(cols), "RUDELSON", "p >= 2 log n_cols")


def _eval_rudelson(inst, method, trials, seed):
    x, p = inst.matrix, inst.p
    est = moment(x, RademacherSigns(x.n_cols), p, method, trials, seed)
    rhs = rudelson_bound(p, max_column_norm(x), spectral_norm(x))
    return est.value, rhs, est.stderr, ()


def _check_nc_khintchine(inst):
    _need(bool(inst.matrices), "NC_KHINTCHINE", "matrix sequence required")
    shapes = {m.shape for m in inst.matrices}
    _need(len(shapes) == 1, "NC_KHINTCHINE", "matrices must share one shape")
    _need(inst.p >= 2, "NC_KHINTCHINE", "p >= 2")


def _eval_nc_khintchine(inst, method, trials, seed):
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
    rhs = bound_const * square_fn
    notes = (("rhs_exact_constant", exact_const * square_fn),) if exact_const else ()
    return lhs, rhs, se, notes


def _check_scalar_khintchine(inst):
    _need(bool(inst.vector), "SCALAR_KHINTCHINE", "coefficient vector required")
    _need(inst.p >= 2, "SCALAR_KHINTCHINE", "q >= 2")


def _eval_scalar_khintchine(inst, method, trials, seed):
    a = np.asarray(inst.vector, dtype=float)
    q = inst.p
    (signs,), weights, t = _patterns(
        RademacherSigns(a.size), "SCALAR_KHINTCHINE", method, trials, seed
    )
    lhs, se = weighted_moment_stats(np.abs(signs @ a), weights, t, q)
    rhs = haagerup_constant(q) * float(np.sqrt(np.sum(a * a)))
    return lhs, rhs, se, ()


def _check_step3(inst):
    a = _square_matrix(inst, "STEP3")
    n = a.n_rows
    _need(n >= 8, "STEP3", "n >= 8")
    norm = spectral_norm(a)
    _need(abs(norm - 1.0) <= 1e-9, "STEP3", "unit spectral norm")
    _need(inst.mu is not None and inst.mu > 0, "STEP3", "mu > 0")
    _need(
        max_abs_entry(a) <= inst.mu * (1.0 + _SLACK),
        "STEP3",
        "entries bounded by mu",
    )
    _need(inst.rate is not None and 0.0 < inst.rate < 1.0, "STEP3", "rate in (0, 1)")
    _need(inst.p == 2 * math.ceil(math.log(n)), "STEP3", "p = 2 ceil(log n)")


def _eval_step3(inst, method, trials, seed):
    a, rate, p = inst.matrix, inst.rate, inst.p
    n = a.n_rows
    est = moment(a, Bernoulli(n, rate), p, method, trials, seed)
    return est.value, step3_bound(inst.mu, rate, n), est.stderr, ()


def _check_extrap(inst):
    _square_matrix(inst, "EXTRAP")
    _need(None not in (inst.delta, inst.rho, inst.lam), "EXTRAP", "delta, rho, lambda required")


def _eval_extrap(inst, method, trials, seed):
    rep = check_extrapolation(
        inst.matrix, inst.delta, inst.rho, inst.lam, inst.p,
        method=method, trials=trials, seed=seed,
    )
    return rep.lhs, rep.rhs, rep.stderr, (("constant", rep.constant),)


CASES: dict[str, InequalityCase] = {case.id: case for case in (
    InequalityCase(
        id="MODEL_EQUIV",
        description="uniform-k restriction moment vs doubled independent-rate moment",
        check=_check_model_equiv,
        evaluate=_eval_model_equiv,
        params=lambda i: (("k", float(i.k)), ("rate", i.k / i.matrix.n_rows)),
    ),
    InequalityCase(
        id="DECOUPLING",
        description="one-projector restriction moment vs 20x decoupled pair moment",
        check=_check_decoupling,
        evaluate=_eval_decoupling,
        params=lambda i: (("rate", i.rate),),
    ),
    InequalityCase(
        id="RESTRICT_RV",
        description="column-restriction spectral moment vs column-norm term plus sqrt(rate) tail",
        check=lambda i: _check_rate_and_log_p(i, "RESTRICT_RV", 2.0),
        evaluate=_eval_restrict_rv,
        params=lambda i: (("rate", i.rate),),
    ),
    InequalityCase(
        id="COLNORM",
        description="row-restriction max-column-norm moment vs entry and column bounds",
        check=lambda i: _check_rate_and_log_p(i, "COLNORM", 4.0),
        evaluate=_eval_colnorm,
        params=lambda i: (("rate", i.rate),),
    ),
    InequalityCase(
        id="RUDELSON",
        description="Rademacher column outer-product sum vs 1.5 sqrt(p) norm product",
        check=_check_rudelson,
        evaluate=_eval_rudelson,
        params=lambda i: (),
    ),
    InequalityCase(
        id="NC_KHINTCHINE",
        description="matrix Rademacher sum Schatten moment vs square-function bound",
        check=_check_nc_khintchine,
        evaluate=_eval_nc_khintchine,
        dims=lambda i: i.matrices[0].n_rows,
        params=lambda i: (("count", float(len(i.matrices))),),
    ),
    InequalityCase(
        id="SCALAR_KHINTCHINE",
        description="scalar Rademacher sum moment vs Euclidean norm bound",
        check=_check_scalar_khintchine,
        evaluate=_eval_scalar_khintchine,
        dims=lambda i: len(i.vector),
        params=lambda i: (),
    ),
    InequalityCase(
        id="STEP3",
        description="restricted moment of a unit-norm bounded matrix vs closed-form bound",
        check=_check_step3,
        evaluate=_eval_step3,
        params=lambda i: (("mu", i.mu), ("rate", i.rate)),
    ),
    InequalityCase(
        id="EXTRAP",
        description="constant-rate moment vs extrapolation from a small rate",
        check=_check_extrap,
        evaluate=_eval_extrap,
        params=lambda i: (("delta", i.delta), ("rho", i.rho), ("lambda", i.lam)),
    ),
)}

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
    case = CASES[case_id]
    case.check(instance)
    lhs, rhs, se, notes = case.evaluate(instance, method, trials, seed)
    holds, ratio = verdict(lhs, rhs, se, method == "exact")
    return InequalityReport(
        case=case_id,
        n=case.dims(instance),
        p=instance.p,
        params=case.params(instance),
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=ratio,
        method=method,
        trials=0 if method == "exact" else trials,
        seed=None if seed is None else seed.master,
        holds=holds,
        notes=notes,
    )
