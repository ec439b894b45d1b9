"""Versioned instance manifests for the verification suites.

The master seeds below are fixtures: changing them changes every suite
instance, so CI results stay stable only while they stay put.  Instance i of
a suite is generated from Seed(master).rng("suite:<case>", i), which makes
the suites order-independent and reproducible.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .inequalities import InequalityInstance
from .matrices import DenseMatrix, max_abs_entry, spectral_norm
from .sampling import Seed

SUITE_MASTER_SEEDS = {
    "MODEL_EQUIV": 2301,
    "DECOUPLING": 2302,
    "RESTRICT_RV": 2303,
    "COLNORM": 2304,
    "RUDELSON": 2305,
    "NC_KHINTCHINE": 2306,
    "SCALAR_KHINTCHINE": 2307,
    "STEP3": 2308,
    "EXTRAP": 2309,
    "SANDWICH": 2310,
    "MARKOV": 2311,
    "ORACLE": 44,
    "ORACLE_MC": 108,
    "PAVING_BRIDGE": 2313,
    "PAVING_RANDOM": 2314,
}

SIZE_COUNTS = {"smoke": 1, "tiny": 10, "small": 25}


def _rand_matrix(rng, n, *, symmetric=False, hollow=False, unit_norm=False):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    if symmetric:
        m = (m + m.T) / 2.0
    if hollow:
        np.fill_diagonal(m, 0.0)
    a = DenseMatrix(m)
    if unit_norm:
        a = DenseMatrix(m / spectral_norm(a))
    return a


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _pick(rng, seq):
    return seq[int(rng.integers(0, len(seq)))]


def make_instance(case_id: str, rng) -> InequalityInstance:
    """One random instance satisfying the case's hypotheses."""
    if case_id == "MODEL_EQUIV":
        n = _pick(rng, [4, 6, 8])
        return InequalityInstance(
            matrix=_rand_matrix(rng, n),
            k=_pick(rng, _divisors(n)),
            p=float(_pick(rng, [2, 4, 6])),
        )
    if case_id == "DECOUPLING":
        n = int(rng.integers(3, 9))
        return InequalityInstance(
            matrix=_rand_matrix(rng, n, hollow=True),
            rate=float(rng.uniform(0.1, 0.9)),
            p=float(_pick(rng, [2, 4, 6])),
        )
    if case_id == "RESTRICT_RV":
        p = _pick(rng, [4, 6])
        n_max = 7 if p == 4 else 8
        n = int(rng.integers(3, n_max + 1))
        return InequalityInstance(
            matrix=_rand_matrix(rng, n),
            rate=float(rng.uniform(0.1, 0.9)),
            p=float(p),
        )
    if case_id == "COLNORM":
        return InequalityInstance(
            matrix=_rand_matrix(rng, 8),
            rate=float(rng.uniform(0.1, 0.9)),
            p=6.0,
        )
    if case_id == "RUDELSON":
        p = _pick(rng, [2, 4, 6])
        n_max = {2: 2, 4: 7, 6: 8}[p]
        n = int(rng.integers(2, n_max + 1))
        return InequalityInstance(matrix=_rand_matrix(rng, n), p=float(p))
    if case_id == "NC_KHINTCHINE":
        count = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        mats = tuple(_rand_matrix(rng, n) for _ in range(count))
        return InequalityInstance(matrices=mats, p=float(_pick(rng, [2, 4, 6])))
    if case_id == "SCALAR_KHINTCHINE":
        count = int(rng.integers(2, 11))
        vec = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=count))
        return InequalityInstance(vector=vec, p=float(_pick(rng, [2, 4, 6])))
    if case_id == "STEP3":
        a = _rand_matrix(rng, 8, unit_norm=True)
        return InequalityInstance(
            matrix=a,
            mu=max_abs_entry(a),
            rate=float(rng.uniform(0.05, 0.95)),
            p=2.0 * math.ceil(math.log(8)),
        )
    if case_id == "EXTRAP":
        p = _pick(rng, [4, 6])
        n_max = 7 if p == 4 else 8
        n = int(rng.integers(3, n_max + 1))
        symmetric = bool(rng.integers(0, 2))
        return InequalityInstance(
            matrix=_rand_matrix(rng, n, symmetric=symmetric, unit_norm=True),
            delta=float(rng.uniform(0.1, 0.9)),
            rho=float(rng.uniform(0.05, 0.45)),
            lam=float(rng.uniform(0.1, 0.9)),
            p=float(p),
        )
    raise ParameterError(f"no instance recipe for case {case_id!r}")


def smoke_instance(case_id: str) -> InequalityInstance:
    """Degenerate deterministic instance (zero matrix where hypotheses allow)."""
    if case_id == "MODEL_EQUIV":
        return InequalityInstance(matrix=DenseMatrix.zeros(4), k=2, p=4.0)
    if case_id == "DECOUPLING":
        return InequalityInstance(matrix=DenseMatrix.zeros(4), rate=0.5, p=2.0)
    if case_id == "RESTRICT_RV":
        return InequalityInstance(matrix=DenseMatrix.zeros(4), rate=0.3, p=6.0)
    if case_id == "COLNORM":
        return InequalityInstance(matrix=DenseMatrix.zeros(8), rate=0.3, p=6.0)
    if case_id == "RUDELSON":
        return InequalityInstance(matrix=DenseMatrix.zeros(3), p=4.0)
    if case_id == "NC_KHINTCHINE":
        mats = (DenseMatrix.zeros(3), DenseMatrix.zeros(3))
        return InequalityInstance(matrices=mats, p=2.0)
    if case_id == "SCALAR_KHINTCHINE":
        return InequalityInstance(vector=(0.0, 0.0), p=2.0)
    if case_id == "STEP3":
        # the zero matrix cannot satisfy the unit-norm hypothesis; use identity
        return InequalityInstance(
            matrix=DenseMatrix.identity(8), mu=1.0, rate=0.3,
            p=2.0 * math.ceil(math.log(8)),
        )
    if case_id == "EXTRAP":
        return InequalityInstance(
            matrix=DenseMatrix.zeros(4), delta=0.5, rho=0.25, lam=0.5, p=6.0
        )
    raise ParameterError(f"no smoke instance for case {case_id!r}")


def _seeded(label: str, count: int, master: int | None, make) -> list:
    """[(i, *make(rng_i)) for i < count], rng_i = Seed(master).rng("suite:<label>", i);
    `master` defaults to the label's manifest seed."""
    seed = Seed(SUITE_MASTER_SEEDS[label] if master is None else master)
    return [(i, *make(seed.rng(f"suite:{label}", i))) for i in range(count)]


def suite_instances(case_id: str, count: int, master: int | None = None):
    """(label_seed, instance) pairs; label_seed identifies the offending draw."""
    return _seeded(case_id, count, master, lambda rng: (make_instance(case_id, rng),))


def _sandwich_draw(rng):
    p = _pick(rng, [4, 6])
    n = int(rng.integers(3, (7 if p == 4 else 8) + 1))
    return _rand_matrix(rng, n, symmetric=True, unit_norm=True), p


def sandwich_instances(count: int, master: int | None = None):
    """(index, matrix, p) for the trace/norm sandwich: symmetric contractions."""
    return _seeded("SANDWICH", count, master, _sandwich_draw)
