import dataclasses
import itertools
import math

import numpy as np
import pytest

from pavelab import DenseMatrix, ParameterError, PreconditionError, Seed
from pavelab.inequalities import (
    CASE_IDS,
    CASES,
    InequalityInstance,
    format_report,
    verify_inequality,
)
from pavelab.suites import smoke_instance, suite_instances

from .oracles import jacobi_schatten_norm


def test_registry_is_closed():
    assert CASE_IDS == (
        "MODEL_EQUIV",
        "DECOUPLING",
        "RESTRICT_RV",
        "COLNORM",
        "RUDELSON",
        "NC_KHINTCHINE",
        "SCALAR_KHINTCHINE",
        "STEP3",
        "EXTRAP",
    )
    assert all(CASES[cid].description for cid in CASE_IDS)


def test_unknown_case_rejected():
    with pytest.raises(ParameterError):
        verify_inequality("NOPE", smoke_instance("DECOUPLING"))


def test_method_validation():
    inst = smoke_instance("DECOUPLING")
    with pytest.raises(ParameterError):
        verify_inequality("DECOUPLING", inst, method="magic")
    with pytest.raises(ParameterError):
        verify_inequality("DECOUPLING", inst, method="mc", trials=1, seed=Seed(0))
    with pytest.raises(ParameterError):
        verify_inequality("DECOUPLING", inst, method="mc", trials=100)


class TestTrivialExamples:
    def test_decoupling_zero_matrix(self):
        rep = verify_inequality("DECOUPLING", smoke_instance("DECOUPLING"))
        assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0

    def test_rudelson_single_column(self, rng):
        x = np.zeros((5, 5))
        x[:, 2] = rng.uniform(-1, 1, 5)
        inst = InequalityInstance(matrix=DenseMatrix(x), p=4.0)
        rep = verify_inequality("RUDELSON", inst)
        norm = float(np.sqrt(np.sum(x[:, 2] ** 2)))
        # the sign cancels under the norm: lhs is exactly ||x||^2
        assert rep.lhs == pytest.approx(norm ** 2, rel=1e-12)
        assert rep.rhs == pytest.approx(1.5 * 2.0 * norm * norm, rel=1e-12)
        assert rep.holds

    def test_all_smoke_instances_hold(self):
        for cid in CASE_IDS:
            rep = verify_inequality(cid, smoke_instance(cid))
            assert rep.holds, cid


class TestModelEquiv:
    def test_seeded_ratio_fixture(self):
        rng = Seed(72).rng("fixture:model_equiv", 0)
        a = DenseMatrix(rng.uniform(-1.0, 1.0, size=(6, 6)))
        rep = verify_inequality(
            "MODEL_EQUIV", InequalityInstance(matrix=a, k=3, p=4.0)
        )
        assert rep.holds
        assert rep.ratio == pytest.approx(0.8020350586851408, rel=1e-12)

    def test_requires_divisor(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        with pytest.raises(PreconditionError, match="divide"):
            verify_inequality("MODEL_EQUIV", InequalityInstance(matrix=a, k=4, p=2.0))

    def test_mc_agrees_with_exact(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        inst = InequalityInstance(matrix=a, k=2, p=2.0)
        exact = verify_inequality("MODEL_EQUIV", inst)
        mc = verify_inequality("MODEL_EQUIV", inst, method="mc", trials=20000, seed=Seed(5))
        assert mc.holds
        assert mc.lhs == pytest.approx(exact.lhs, abs=0.05)
        assert mc.trials == 20000 and mc.seed == 5


class TestDecoupling:
    def test_requires_hollow(self, rng):
        a = DenseMatrix(rng.uniform(0.5, 1, (4, 4)))
        with pytest.raises(PreconditionError, match="diagonal"):
            verify_inequality(
                "DECOUPLING", InequalityInstance(matrix=a, rate=0.5, p=2.0)
            )

    def test_mc_holds(self, rng):
        m = rng.uniform(-1, 1, (5, 5))
        np.fill_diagonal(m, 0.0)
        inst = InequalityInstance(matrix=DenseMatrix(m), rate=0.4, p=2.0)
        rep = verify_inequality("DECOUPLING", inst, method="mc", trials=5000, seed=Seed(8))
        assert rep.holds and rep.method == "mc"


class TestColnorm:
    def test_notes_record_proof_constant(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (8, 8)))
        rep = verify_inequality(
            "COLNORM", InequalityInstance(matrix=a, rate=0.3, p=6.0)
        )
        names = dict(rep.notes)
        assert "rhs_proof_constant" in names
        assert names["rhs_proof_constant"] < rep.rhs  # 2^{1.5} < 3

    def test_requires_large_n(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        with pytest.raises(PreconditionError, match="2 log n >= 4"):
            verify_inequality("COLNORM", InequalityInstance(matrix=a, rate=0.3, p=6.0))


class TestRudelson:
    def test_requires_p_at_least_two_log_n(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (8, 8)))
        with pytest.raises(PreconditionError, match="2 log"):
            verify_inequality("RUDELSON", InequalityInstance(matrix=a, p=2.0))


class TestNcKhintchine:
    def test_three_seeded_matrices_match_jacobi_enumeration(self, rng):
        mats = tuple(DenseMatrix(rng.uniform(-1, 1, (4, 4))) for _ in range(3))
        p = 4.0
        rep = verify_inequality(
            "NC_KHINTCHINE", InequalityInstance(matrices=mats, p=p)
        )
        total = 0.0
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            s = sum(e * m.data for e, m in zip(signs, mats))
            total += jacobi_schatten_norm(s, p) ** p
        lhs_oracle = (total / 8.0) ** (1.0 / p)
        assert rep.lhs == pytest.approx(lhs_oracle, abs=1e-9)
        assert rep.holds

    def test_exact_constant_note_for_even_p(self, rng):
        mats = tuple(DenseMatrix(rng.uniform(-1, 1, (3, 3))) for _ in range(2))
        rep = verify_inequality("NC_KHINTCHINE", InequalityInstance(matrices=mats, p=4.0))
        names = dict(rep.notes)
        assert "rhs_exact_constant" in names
        assert rep.lhs <= names["rhs_exact_constant"] + 1e-9

    def test_shape_mismatch_rejected(self):
        mats = (DenseMatrix.zeros(2), DenseMatrix.zeros(3))
        with pytest.raises(PreconditionError, match="shape"):
            verify_inequality("NC_KHINTCHINE", InequalityInstance(matrices=mats, p=2.0))


class TestScalarKhintchine:
    def test_two_point_exact(self):
        # (E|e1 a + e2 b|^2)^(1/2) = sqrt(a^2 + b^2): equality at q = 2 scaled
        inst = InequalityInstance(vector=(3.0, 4.0), p=2.0)
        rep = verify_inequality("SCALAR_KHINTCHINE", inst)
        assert rep.lhs == pytest.approx(5.0, rel=1e-12)
        assert rep.holds


class TestStep3:
    def test_requires_unit_norm(self, rng):
        a = DenseMatrix(rng.uniform(-0.1, 0.1, (8, 8)))
        with pytest.raises(PreconditionError, match="unit"):
            verify_inequality(
                "STEP3",
                InequalityInstance(matrix=a, mu=0.2, rate=0.3, p=6.0),
            )

    def test_requires_matching_p(self, rng):
        m = rng.uniform(-1, 1, (8, 8))
        a = DenseMatrix(m / np.linalg.norm(m, 2))
        with pytest.raises(PreconditionError, match="ceil"):
            verify_inequality(
                "STEP3",
                InequalityInstance(matrix=a, mu=1.0, rate=0.3, p=4.0),
            )


class TestExtrap:
    def test_constant_halved_for_symmetric(self, rng):
        m = rng.uniform(-1, 1, (5, 5))
        m = (m + m.T) / 2.0
        x = DenseMatrix(m / np.linalg.norm(m, 2))
        rep = verify_inequality(
            "EXTRAP",
            InequalityInstance(matrix=x, delta=0.5, rho=0.25, lam=0.5, p=4.0),
        )
        assert dict(rep.notes)["constant"] == 30.0
        assert rep.holds

    @pytest.mark.parametrize("change", [
        {"matrix": DenseMatrix(np.ones((4, 5)) / 5.0)},
        {"matrix": DenseMatrix(2.0 * np.eye(4))},
        {"delta": None}, {"delta": 0.0}, {"delta": 1.0},
        {"rho": None}, {"rho": 0.0}, {"rho": 0.5},
        {"lam": None}, {"lam": 0.0}, {"lam": 1.0},
        {"p": 3.0}, {"p": 4.5}, {"p": 0.0}, {"p": 2.0},
    ])
    def test_each_failed_hypothesis_raises(self, change):
        # p = 2 < 2 log 4; every other field is in range
        fields = {"matrix": DenseMatrix(np.eye(4) / 2.0), "delta": 0.5, "rho": 0.25,
                  "lam": 0.5, "p": 4.0}
        with pytest.raises(PreconditionError):
            verify_inequality("EXTRAP", InequalityInstance(**{**fields, **change}))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_twenty_seeded_instances_hold(case_id):
    for label, inst in suite_instances(case_id, 20):
        rep = verify_inequality(case_id, inst, method="exact")
        assert rep.holds, f"{case_id} instance {label}: lhs={rep.lhs} rhs={rep.rhs}"


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_mc_method_runs_on_every_case(case_id):
    label, inst = suite_instances(case_id, 1)[0]
    rep = verify_inequality(case_id, inst, method="mc", trials=3000, seed=Seed(77))
    assert rep.method == "mc" and rep.trials == 3000 and rep.seed == 77
    assert rep.holds


def test_report_format_fields(rng):
    a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
    rep = verify_inequality("MODEL_EQUIV", InequalityInstance(matrix=a, k=3, p=4.0))
    line = format_report(rep)
    for key in ("case=MODEL_EQUIV", "n=6", "p=4", "lhs=", "rhs=", "ratio=",
                "method=exact", "trials=0", "seed=-", "holds=yes"):
        assert key in line


def _valid_instances():
    """One instance per case that meets every hypothesis of that case."""
    rng = np.random.default_rng(3)
    hollow = rng.uniform(-1, 1, (4, 4))
    np.fill_diagonal(hollow, 0.0)
    return {
        "MODEL_EQUIV": InequalityInstance(
            matrix=DenseMatrix(rng.uniform(-1, 1, (4, 4))), k=2, p=2.0),
        "DECOUPLING": InequalityInstance(matrix=DenseMatrix(hollow), rate=0.5, p=2.0),
        "RESTRICT_RV": InequalityInstance(
            matrix=DenseMatrix(rng.uniform(-1, 1, (4, 4))), rate=0.5, p=4.0),
        "COLNORM": InequalityInstance(
            matrix=DenseMatrix(rng.uniform(-1, 1, (8, 8))), rate=0.5, p=6.0),
        "RUDELSON": InequalityInstance(matrix=DenseMatrix(rng.uniform(-1, 1, (4, 4))), p=4.0),
        "NC_KHINTCHINE": InequalityInstance(
            matrices=(DenseMatrix.identity(3), DenseMatrix.zeros(3)), p=2.0),
        "SCALAR_KHINTCHINE": InequalityInstance(vector=(3.0, 4.0), p=2.0),
        "STEP3": InequalityInstance(matrix=DenseMatrix.identity(8), mu=1.0, rate=0.3, p=6.0),
        "EXTRAP": InequalityInstance(
            matrix=DenseMatrix(np.eye(4) / 2.0), delta=0.5, rho=0.25, lam=0.5, p=4.0),
    }


# (case, change to the valid instance, the one hypothesis that change breaks)
_FAILED_HYPOTHESES = [
    ("MODEL_EQUIV", {"matrix": None}, "matrix required"),
    ("MODEL_EQUIV", {"matrix": DenseMatrix.zeros(4, 5)}, "matrix must be square"),
    ("MODEL_EQUIV", {"k": None}, "1 <= k <= n"),
    ("MODEL_EQUIV", {"k": 5}, "1 <= k <= n"),
    ("MODEL_EQUIV", {"k": 3}, "k must divide n"),
    ("MODEL_EQUIV", {"p": 0.0}, "p > 0"),
    ("DECOUPLING", {"matrix": None}, "matrix required"),
    ("DECOUPLING", {"matrix": DenseMatrix.zeros(4, 3)}, "matrix must be square"),
    ("DECOUPLING", {"matrix": DenseMatrix.identity(4)}, "zero diagonal"),
    ("DECOUPLING", {"p": 0.5}, "p >= 1"),
    ("DECOUPLING", {"rate": None}, "rate in [0, 1]"),
    ("DECOUPLING", {"rate": 1.5}, "rate in [0, 1]"),
    ("RESTRICT_RV", {"matrix": None}, "matrix required"),
    ("RESTRICT_RV", {"matrix": DenseMatrix.zeros(4, 5)}, "matrix must be square"),
    ("RESTRICT_RV", {"matrix": DenseMatrix.identity(2)}, "2 log n >= 2"),
    ("RESTRICT_RV", {"matrix": DenseMatrix.zeros(0)}, "2 log n >= 2"),
    ("RESTRICT_RV", {"p": 2.0}, "p >= 2 log n"),
    ("RESTRICT_RV", {"rate": -0.1}, "rate in [0, 1]"),
    ("COLNORM", {"matrix": None}, "matrix required"),
    ("COLNORM", {"matrix": DenseMatrix.zeros(8, 7)}, "matrix must be square"),
    ("COLNORM", {"matrix": DenseMatrix.identity(7)}, "2 log n >= 4"),
    ("COLNORM", {"p": 4.0}, "p >= 2 log n"),
    ("COLNORM", {"rate": None}, "rate in [0, 1]"),
    ("RUDELSON", {"matrix": None}, "matrix required"),
    ("RUDELSON", {"matrix": DenseMatrix.zeros(3, 0)}, "at least one column"),
    ("RUDELSON", {"matrix": DenseMatrix.zeros(4, 1), "p": 1.5}, "p >= 2"),
    ("RUDELSON", {"p": 2.0}, "p >= 2 log n_cols"),
    ("NC_KHINTCHINE", {"matrices": None}, "matrix sequence required"),
    ("NC_KHINTCHINE", {"matrices": ()}, "matrix sequence required"),
    ("NC_KHINTCHINE", {"matrices": (DenseMatrix.zeros(2), DenseMatrix.zeros(2, 3))},
     "matrices must share one shape"),
    ("NC_KHINTCHINE", {"p": 1.0}, "p >= 2"),
    ("SCALAR_KHINTCHINE", {"vector": None}, "coefficient vector required"),
    ("SCALAR_KHINTCHINE", {"vector": ()}, "coefficient vector required"),
    ("SCALAR_KHINTCHINE", {"p": 1.0}, "q >= 2"),
    ("STEP3", {"matrix": None}, "matrix required"),
    ("STEP3", {"matrix": DenseMatrix.zeros(8, 9)}, "matrix must be square"),
    ("STEP3", {"matrix": DenseMatrix.identity(4), "p": 4.0}, "n >= 8"),
    ("STEP3", {"matrix": DenseMatrix(np.eye(8) / 2.0)}, "unit spectral norm"),
    ("STEP3", {"mu": None}, "mu > 0"),
    ("STEP3", {"mu": 0.0}, "mu > 0"),
    ("STEP3", {"mu": 0.5}, "entries bounded by mu"),
    ("STEP3", {"rate": 0.0}, "rate in (0, 1)"),
    ("STEP3", {"rate": 1.0}, "rate in (0, 1)"),
    ("STEP3", {"p": 4.0}, "p = 2 ceil(log n)"),
    ("EXTRAP", {"matrix": None}, "matrix required"),
    ("EXTRAP", {"matrix": DenseMatrix(np.ones((4, 5)) / 5.0)}, "matrix must be square"),
    ("EXTRAP", {"delta": None}, "delta, rho, lambda required"),
    ("EXTRAP", {"rho": None}, "delta, rho, lambda required"),
    ("EXTRAP", {"lam": None}, "delta, rho, lambda required"),
    ("RUDELSON", {"matrix": DenseMatrix.zeros(0, 3)}, "at least one row"),
    ("NC_KHINTCHINE", {"matrices": (DenseMatrix.zeros(0, 3),)}, "nonempty matrices"),
    ("NC_KHINTCHINE", {"matrices": (DenseMatrix.zeros(3, 0),)}, "nonempty matrices"),
    ("NC_KHINTCHINE", {"matrices": (DenseMatrix.zeros(0), DenseMatrix.zeros(0))},
     "nonempty matrices"),
    ("SCALAR_KHINTCHINE", {"vector": (1.0, math.nan)}, "finite coefficients"),
    ("SCALAR_KHINTCHINE", {"vector": (1.0, math.inf)}, "finite coefficients"),
    ("SCALAR_KHINTCHINE", {"vector": (-math.inf, 1.0)}, "finite coefficients"),
]


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_valid_instances_pass_their_hypotheses(method):
    for cid, inst in _valid_instances().items():
        verify_inequality(cid, inst, method=method, trials=50, seed=Seed(1))


@pytest.mark.parametrize(
    "case_id, change, what", _FAILED_HYPOTHESES,
    ids=[f"{cid}-{i}" for i, (cid, _, _) in enumerate(_FAILED_HYPOTHESES)],
)
def test_each_case_hypothesis_names_itself(case_id, change, what):
    inst = dataclasses.replace(_valid_instances()[case_id], **change)
    for method in ("exact", "mc"):
        with pytest.raises(PreconditionError) as info:
            verify_inequality(case_id, inst, method=method, trials=50, seed=Seed(1))
        assert str(info.value) == f"{case_id}: hypothesis failed: {what}"
