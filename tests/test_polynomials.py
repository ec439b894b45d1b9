import math

import numpy as np
import pytest

import pavelab.polynomials

from pavelab import (
    CapacityError,
    DenseMatrix,
    ParameterError,
    PreconditionError,
    Seed,
    check_extrapolation,
    check_markov,
    check_polynomial_sandwich,
    chebyshev_coefficients,
    spectral_norm,
    trace_moment_polynomial,
)
from pavelab.polynomials import polynomial_sup_unit_interval, subset_traces_and_norms

from .helpers import restricted_norm_moment_pth, restricted_trace_moment
from .oracles import interpolated_trace_polynomial


def _symmetric_contraction(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    m = (m + m.T) / 2.0
    return DenseMatrix(m / np.linalg.norm(m, 2))


@pytest.mark.parametrize("n", range(15))
def test_subset_traces_match_per_mask_matrix_power(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    for x in (m, (m + m.T) / 2.0):
        for p in (3, 6):
            bits, traces, _ = subset_traces_and_norms(DenseMatrix(x), p)
            assert bits.shape == (1 << n, n) and traces.shape == (1 << n,)
            for mask, got in zip(bits, traces):
                sel = np.flatnonzero(mask)
                block = x[np.ix_(sel, sel)]
                want = np.trace(np.linalg.matrix_power(block, p)) if sel.size else 0.0
                # rounding scale: the same walk sum over |entries|
                scale = np.trace(np.linalg.matrix_power(np.abs(block), p)) if sel.size else 0.0
                assert abs(got - want) <= 1e-13 * scale, (n, p, sel)


def test_trace_only_callers_compute_no_norms(monkeypatch, rng):
    def fail(*args):
        raise AssertionError("masked_norms called")

    monkeypatch.setattr(pavelab.polynomials, "masked_norms", fail)
    x = _symmetric_contraction(rng, 6)
    pc = trace_moment_polynomial(x, 4)
    assert restricted_trace_moment(x, 4, 0.3) == pytest.approx(pc.evaluate(0.3), rel=1e-12)


class TestTraceMomentPolynomial:
    def test_scalar(self):
        pc = trace_moment_polynomial(DenseMatrix([[3.0]]), 2)
        assert pc.coeffs[0] == pytest.approx(9.0, abs=1e-10)
        assert abs(pc.coeffs[1]) < 1e-10

    def test_diagonal_commutes(self):
        # diagonal matrices: E trace = sum_i a_i^p P(i selected) = (a^p + b^p) s
        pc = trace_moment_polynomial(DenseMatrix(np.diag([2.0, 3.0])), 4)
        assert pc.coeffs[0] == pytest.approx(2.0 ** 4 + 3.0 ** 4, abs=1e-9)
        assert all(abs(c) < 1e-9 for c in pc.coeffs[1:])

    def test_out_of_sample_oracle(self, rng):
        x = DenseMatrix(rng.uniform(-1, 1, (3, 3)))
        pc = trace_moment_polynomial(x, 4)
        for s in rng.uniform(0.0, 1.0, 10):
            fresh = restricted_trace_moment(x, 4, float(s))
            assert pc.evaluate(float(s)) == pytest.approx(fresh, abs=1e-8)

    def test_out_of_sample_oracle_high_degree(self, rng):
        x = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        pc = trace_moment_polynomial(x, 12)
        for s in rng.uniform(0.0, 1.0, 10):
            fresh = restricted_trace_moment(x, 12, float(s))
            assert pc.evaluate(float(s)) == pytest.approx(fresh, abs=1e-8)

    def test_value_at_one_is_full_trace(self, rng):
        x = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        p = 6
        pc = trace_moment_polynomial(x, p)
        full = float(np.trace(np.linalg.matrix_power(x.data, p)))
        assert sum(pc.coeffs) == pytest.approx(full, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_interpolation_oracle(self, rng, n):
        x = rng.uniform(-1, 1, (n, n))
        for p in range(2, 13, 2):
            got = np.array(trace_moment_polynomial(DenseMatrix(x), p).coeffs)
            want = interpolated_trace_polynomial(x, p)
            tol = 1e-6 * max(1.0, float(np.abs(want).max()))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol), (n, p)

    @pytest.mark.parametrize("n,p", [(1, 2), (1, 12), (3, 8), (5, 12), (11, 12)])
    def test_coefficients_past_n_are_exactly_zero(self, rng, n, p):
        pc = trace_moment_polynomial(DenseMatrix(rng.uniform(-1, 1, (n, n))), p)
        assert pc.degree == p and len(pc.coeffs) == p
        assert all(c == 0.0 for c in pc.coeffs[n:])
        assert pc.coeffs[min(n, p) - 1] != 0.0

    def test_runs_at_n_13(self, rng):
        x = DenseMatrix(rng.uniform(-1, 1, (13, 13)) / 13.0)
        pc = trace_moment_polynomial(x, 4)
        full = float(np.trace(np.linalg.matrix_power(x.data, 4)))
        assert sum(pc.coeffs) == pytest.approx(full, rel=1e-10, abs=1e-12)
        assert pc.evaluate(0.3) == pytest.approx(
            restricted_trace_moment(x, 4, 0.3), rel=1e-10, abs=1e-12
        )
        assert restricted_norm_moment_pth(x, 4, 1.0) == pytest.approx(
            spectral_norm(x) ** 4, rel=1e-12
        )
        assert restricted_norm_moment_pth(x, 4, 0.0) == 0.0

    def test_rejects_odd_p(self):
        with pytest.raises(ParameterError):
            trace_moment_polynomial(DenseMatrix.identity(2), 3)

    def test_rejects_large_p(self):
        with pytest.raises(ParameterError):
            trace_moment_polynomial(DenseMatrix.identity(2), 14)


class TestSandwich:
    def test_zero_matrix(self):
        rep = check_polynomial_sandwich(DenseMatrix.zeros(3), 4, [0.2, 0.5, 0.8])
        assert rep.holds and rep.monotone
        assert rep.norm_moments == (0.0, 0.0, 0.0)

    def test_identity(self):
        # F(s) = P(at least one coordinate selected); trace multiplies by count
        rep = check_polynomial_sandwich(DenseMatrix.identity(4), 4, [0.3, 0.6])
        assert rep.holds and rep.monotone
        for s, f in zip(rep.s_grid, rep.norm_moments):
            assert f == pytest.approx(1 - (1 - s) ** 4, rel=1e-12)

    def test_seeded_symmetric(self, rng):
        x = _symmetric_contraction(rng, 6)
        rep = check_polynomial_sandwich(x, 4, [0.1 * i for i in range(1, 10)])
        assert rep.holds and rep.monotone

    def test_rejects_asymmetric(self, rng):
        x = DenseMatrix(rng.uniform(-0.1, 0.1, (4, 4)))
        with pytest.raises(PreconditionError):
            check_polynomial_sandwich(x, 4, [0.5])

    def test_rejects_large_norm(self, rng):
        x = DenseMatrix(2.0 * np.eye(3))
        with pytest.raises(PreconditionError):
            check_polynomial_sandwich(x, 4, [0.5])

    def test_rejects_small_p(self):
        # p = 2 < 2 log 8
        with pytest.raises(PreconditionError):
            check_polynomial_sandwich(DenseMatrix.zeros(8), 2, [0.5])

    def test_rejects_empty_matrix(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            check_polynomial_sandwich(DenseMatrix.zeros(0), 4, [0.5])

    def test_capacity_past_bernoulli_cap(self, rng):
        # n = 15 passes every hypothesis (p = 6 >= 2 log 15) and hits the 2^n cap
        with pytest.raises(CapacityError):
            check_polynomial_sandwich(_symmetric_contraction(rng, 15), 6, [0.5])

    def test_lower_bound_is_trace_vs_norm(self, rng):
        x = _symmetric_contraction(rng, 5)
        rep = check_polynomial_sandwich(x, 4, [0.4])
        assert rep.norm_moments[0] <= rep.trace_moments[0]
        assert rep.trace_moments[0] <= math.exp(4) * rep.norm_moments[0]


class TestMarkov:
    def test_pure_power(self):
        d = 5
        coeffs = [0.0] * d + [1.0]
        rep = check_markov(coeffs, d)
        assert rep.holds
        assert rep.coeff_bounds[d] == pytest.approx(d ** d / math.factorial(d), rel=1e-12)

    def test_constant(self):
        rep = check_markov([1.0], 0)
        assert rep.holds and rep.max_abs == 1.0
        assert rep.coeff_bounds[0] == 1.0

    def test_chebyshev_three(self):
        rep = check_markov(chebyshev_coefficients(3), 3)
        assert rep.holds
        assert rep.coeff_abs[3] == 4.0
        assert rep.coeff_bounds[3] == pytest.approx(4.5)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_chebyshev_family(self, d):
        rep = check_markov(chebyshev_coefficients(d), d)
        assert rep.holds
        assert rep.max_abs == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", range(0, 30))
    def test_chebyshev_coefficients_are_ints_of_cos_d_theta(self, d):
        coeffs = chebyshev_coefficients(d)
        assert len(coeffs) == d + 1 and all(type(c) is int for c in coeffs)
        assert coeffs[-1] == (1 if d == 0 else 2 ** (d - 1))
        theta = np.linspace(0.0, np.pi, 41)
        got = np.polynomial.polynomial.polyval(np.cos(theta), coeffs)
        # Horner's rounding scale is the sum of |c_k| (|cos theta| <= 1)
        assert np.all(np.abs(got - np.cos(d * theta)) <= 1e-13 * sum(abs(c) for c in coeffs))

    def test_chebyshev_rejects_negative_degree(self):
        with pytest.raises(ParameterError):
            chebyshev_coefficients(-1)

    def test_rejects_degree_overflow(self):
        with pytest.raises(ParameterError):
            check_markov([0.0, 1.0, 1.0], 1)

    def test_sup_grid_hits_interior_maximum(self):
        # r(t) = 1 - t^2 peaks at t = 0 with value 1
        assert polynomial_sup_unit_interval([1.0, 0.0, -1.0]) == pytest.approx(1.0)


def test_markov_bound_transfers_to_trace_coefficients(rng):
    # coefficient bound under the change of variables s = rho t^2:
    # |c_k| rho^k <= e^{3p} F(rho)
    x = _symmetric_contraction(rng, 5)
    p = 4
    pc = trace_moment_polynomial(x, p)
    for rho in (0.1, 0.3):
        f_rho = restricted_norm_moment_pth(x, p, rho)
        for k, ck in enumerate(pc.coeffs, start=1):
            assert abs(ck) * rho ** k <= math.exp(3 * p) * f_rho + 1e-12


class TestExtrapolation:
    def test_zero_matrix(self):
        rep = check_extrapolation(DenseMatrix.zeros(4), 0.5, 0.25, 0.5, 6)
        assert rep.holds and rep.lhs == 0.0

    def test_vacuous_when_delta_term_dominates(self, rng):
        # 60 delta^lam >= 1 >= lhs for any contraction
        x = _symmetric_contraction(rng, 4)
        rep = check_extrapolation(x, 0.9, 0.25, 0.1, 6)
        assert rep.constant * rep.delta ** rep.lam >= 1.0
        assert rep.holds

    def test_seeded_symmetric_fixture(self):
        rng = Seed(73).rng("fixture:extrap", 0)
        m = rng.uniform(-1.0, 1.0, size=(8, 8))
        m = (m + m.T) / 2.0
        x = DenseMatrix(m / np.linalg.norm(m, 2))
        rep = check_extrapolation(x, 0.5, 0.25, 0.5, 6)
        assert rep.holds and rep.constant == 30.0
        assert rep.ratio == pytest.approx(0.013489583645913045, rel=1e-9)

    def test_general_matrix_uses_60(self, rng):
        m = rng.uniform(-1, 1, (5, 5))
        x = DenseMatrix(m / np.linalg.norm(m, 2))
        rep = check_extrapolation(x, 0.4, 0.2, 0.5, 4)
        assert rep.constant == 60.0 and rep.holds

    def test_mc_method(self, rng):
        x = _symmetric_contraction(rng, 6)
        rep = check_extrapolation(x, 0.5, 0.3, 0.4, 4, method="mc", trials=4000, seed=Seed(3))
        assert rep.holds and rep.trials == 4000 and rep.stderr > 0.0

    def test_hypothesis_violations(self, rng):
        x = _symmetric_contraction(rng, 4)
        with pytest.raises(PreconditionError):
            check_extrapolation(x, 0.5, 0.6, 0.5, 4)  # rho too large
        with pytest.raises(PreconditionError):
            check_extrapolation(x, 1.5, 0.25, 0.5, 4)  # delta out of range
        with pytest.raises(PreconditionError):
            check_extrapolation(x, 0.5, 0.25, 0.5, 3)  # odd p
        with pytest.raises(PreconditionError):
            check_extrapolation(DenseMatrix(2 * np.eye(4)), 0.5, 0.25, 0.5, 4)

    def test_rejects_empty_matrix(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            check_extrapolation(DenseMatrix.zeros(0), 0.5, 0.25, 0.5, 4)

    def test_mc_without_seed(self, rng):
        x = _symmetric_contraction(rng, 4)
        with pytest.raises(ParameterError):
            check_extrapolation(x, 0.5, 0.25, 0.5, 4, method="mc", trials=100)
