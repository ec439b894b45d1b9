import math

import numpy as np
import pytest

from pavelab import (
    ParameterError,
    delta_sufficient,
    haagerup_constant,
    khintchine_constant,
    mu_bound,
    paving_size_bound,
    rudelson_bound,
    step3_bound,
    theorem_pipeline,
)


class TestPavingSizeBound:
    def test_reference_value(self):
        assert paving_size_bound(2.0, 0.5) == pytest.approx(0.005 ** -3, rel=1e-12)
        assert paving_size_bound(2.0, 0.5) == pytest.approx(8e6, rel=1e-12)

    def test_large_gamma_limit(self):
        eps = 0.3
        limit = (0.01 * eps) ** -2
        assert paving_size_bound(1e6, eps) == pytest.approx(limit, rel=1e-3)

    def test_monotone_decreasing_in_eps(self):
        values = [paving_size_bound(1.0, e) for e in np.linspace(0.05, 0.95, 10)]
        assert all(u > v for u, v in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            paving_size_bound(0.0, 0.5)
        with pytest.raises(ParameterError):
            paving_size_bound(1.0, 1.0)


class TestStep3Bound:
    def test_zero_inputs(self):
        assert step3_bound(0.0, 0.0, 100) == 0.0

    def test_additive_split(self):
        mu, rho, n = 1e-2, 3e-3, 64
        total = step3_bound(mu, rho, n)
        assert total == pytest.approx(step3_bound(mu, 0.0, n) + step3_bound(0.0, rho, n))

    def test_reference_value(self):
        n, mu, rho = 10 ** 6, 1e-3, 1e-4
        ln = math.log(n)
        assert step3_bound(mu, rho, n) == pytest.approx(
            550 * mu * ln + 250 * math.sqrt(rho * ln), rel=1e-14
        )

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            step3_bound(0.1, 0.1, 7)

    def test_rejects_rate_above_one(self):
        assert step3_bound(0.1, 1.0, 16) > 0.0
        with pytest.raises(ParameterError):
            step3_bound(0.1, 1.5, 16)


class TestKhintchineConstant:
    def test_p2_is_one(self):
        exact, bound = khintchine_constant(2)
        assert exact == pytest.approx(1.0, rel=1e-15)
        assert bound >= exact

    def test_p4_is_fourth_root_of_three(self):
        exact, bound = khintchine_constant(4)
        assert exact == pytest.approx(3 ** 0.25, rel=1e-14)
        assert bound == pytest.approx(2 ** -0.25 * math.sqrt(math.pi / math.e) * 2, rel=1e-14)
        assert bound > exact

    def test_even_p_up_to_forty(self):
        for p in range(2, 41, 2):
            exact, bound = khintchine_constant(p)
            half = p // 2
            ratio = math.factorial(p) // (2 ** half * math.factorial(half))
            assert exact == pytest.approx(ratio ** (1.0 / p), rel=1e-12)
            assert exact <= bound

    def test_odd_p_has_no_exact_value(self):
        exact, bound = khintchine_constant(3)
        assert exact is None and bound > 0

    def test_rejects_small_p(self):
        with pytest.raises(ParameterError):
            khintchine_constant(1.5)


class TestHaagerupConstant:
    def test_reference_value(self):
        assert haagerup_constant(2) == pytest.approx(
            2 ** 0.25 * math.exp(-0.5) * math.sqrt(2), rel=1e-14
        )
        assert haagerup_constant(2) == pytest.approx(1.02, abs=1e-3)

    def test_monotone(self):
        qs = np.linspace(2, 20, 10)
        vals = [haagerup_constant(q) for q in qs]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_sqrt_scaling(self):
        assert haagerup_constant(8) == pytest.approx(2 * haagerup_constant(2), rel=1e-14)

    def test_rejects_small_q(self):
        with pytest.raises(ParameterError):
            haagerup_constant(1.0)


class TestRudelsonBound:
    def test_zero(self):
        assert rudelson_bound(4, 0.0, 0.0) == 0.0

    def test_unit_norms(self):
        assert rudelson_bound(4, 1.0, 1.0) == pytest.approx(3.0)

    def test_homogeneity(self):
        base = rudelson_bound(6, 1.3, 0.7)
        assert rudelson_bound(6, 2.6, 0.7) == pytest.approx(2 * base)
        assert rudelson_bound(6, 1.3, 1.4) == pytest.approx(2 * base)

    @pytest.mark.parametrize("col_norm, spec_norm", [(-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative_norms(self, col_norm, spec_norm):
        with pytest.raises(ParameterError):
            rudelson_bound(4, col_norm, spec_norm)


class TestMuBound:
    def test_strictly_decreasing_in_n(self):
        vals = [mu_bound(n, 1.0) for n in (3, 10, 100, 10 ** 4)]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_reference_value(self):
        assert mu_bound(16, 1.0) == pytest.approx(math.log(16) ** -2, rel=1e-14)

    def test_small_gamma_limit(self):
        assert mu_bound(100, 1e-9) == pytest.approx(1 / math.log(100), rel=1e-6)

    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError):
            mu_bound(2, 1.0)


class TestTheoremPipeline:
    def test_gamma_one_reference(self):
        rep = theorem_pipeline(1024, 1.0, m=16)
        assert rep.lam == pytest.approx(0.25, abs=0)
        assert rep.rho == pytest.approx(math.log(1024) ** -3, rel=1e-14)
        assert rep.mu == pytest.approx(math.log(1024) ** -2, rel=1e-14)
        assert rep.p == 2 * math.ceil(math.log(1024))

    def test_log_exponent_negative_on_gamma_grid(self):
        for gamma in np.geomspace(1e-3, 1e3, 25):
            rep = theorem_pipeline(64, float(gamma), delta=0.1)
            assert rep.log_exponent < 0.0
            assert rep.log_exponent == pytest.approx(-gamma / (2 + 2 * gamma), rel=1e-12)

    def test_log_exponent_is_minus_lambda_exactly(self):
        # lambda (1 + 2 gamma) - gamma = -lambda, evaluated without cancelling
        for gamma in [*np.geomspace(1e-300, 1e300, 61), 0.1, 1.0 / 3.0, 7.0]:
            rep = theorem_pipeline(1024, float(gamma), m=16)
            assert rep.log_exponent == -rep.lam < 0.0, gamma

    def test_sufficient_delta_achieves_eps(self):
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
            for eps in (0.1, 0.3, 0.5, 0.7):
                delta = delta_sufficient(gamma, eps)
                rep = theorem_pipeline(256, gamma, delta=delta)
                assert rep.final_bound == pytest.approx(eps, rel=1e-12)

    def test_composed_with_paving_size_bound(self):
        for gamma in (0.5, 1.0, 3.0):
            for eps in (0.2, 0.4, 0.8):
                m = math.ceil(paving_size_bound(gamma, eps))
                rep = theorem_pipeline(128, gamma, m=m)
                assert rep.final_bound <= eps * (1 + 1e-12)

    def test_chain_values_finite_positive_and_decreasing_in_n(self):
        prev = None
        for n in (8, 64, 512, 4096):
            rep = theorem_pipeline(n, 1.5, delta=0.05)
            for v in (rep.mu, rep.rho, rep.rho_moment_bound, rep.extrap_bound,
                      rep.final_bound, rep.eps_achieved):
                assert math.isfinite(v) and v > 0
            if prev is not None:
                assert rep.rho_moment_bound < prev
            prev = rep.rho_moment_bound

    def test_m_and_delta_are_exclusive(self):
        with pytest.raises(ParameterError):
            theorem_pipeline(64, 1.0)
        with pytest.raises(ParameterError):
            theorem_pipeline(64, 1.0, delta=0.1, m=10)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            theorem_pipeline(4, 1.0, delta=0.1)
        with pytest.raises(ParameterError):
            theorem_pipeline(64, -1.0, delta=0.1)
        with pytest.raises(ParameterError):
            theorem_pipeline(64, 1.0, m=1)

    def test_report_lines_cover_chain(self):
        lines = theorem_pipeline(64, 1.0, m=4).as_lines()
        text = "\n".join(lines)
        for key in ("mu =", "rho =", "lambda =", "extrap_bound =", "final_bound =",
                    "log2_n_threshold ="):
            assert key in text


@pytest.mark.parametrize("call, message", [
    (lambda: step3_bound(-0.1, 0.1, 64), "mu and rho must be nonnegative"),
    (lambda: step3_bound(0.1, -0.1, 64), "mu and rho must be nonnegative"),
    (lambda: delta_sufficient(0.0, 0.5), "gamma must be positive, got 0.0"),
    (lambda: delta_sufficient(1.0, 0.0), "eps must be in (0, 1), got 0.0"),
    (lambda: delta_sufficient(1.0, 1.0), "eps must be in (0, 1), got 1.0"),
    (lambda: theorem_pipeline(64, 1.0, delta=0.0), "delta must be in (0, 1), got 0.0"),
    (lambda: theorem_pipeline(64, 1.0, delta=1.5), "delta must be in (0, 1), got 1.5"),
], ids=["step3-mu", "step3-rho", "delta-gamma", "delta-eps-0", "delta-eps-1",
        "pipeline-delta-0", "pipeline-delta-1.5"])
def test_refusals(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert type(exc.value) is ParameterError and str(exc.value) == message
