"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on success)
and then asserts.  All randomness is driven by the frozen manifest seeds in
pavelab.suites, so these results are reproducible bit for bit.
"""
import math
import time

import numpy as np

from pavelab import (
    Bernoulli,
    Seed,
    UniformK,
    check_markov,
    check_polynomial_sandwich,
    chebyshev_coefficients,
    exact_moment,
    exhaustive_pave,
    khintchine_constant,
    mc_moment,
    random_pave,
    theorem_pipeline,
    trace_moment_polynomial,
)
from pavelab.bounds import delta_sufficient
from pavelab.cli import main
from pavelab.inequalities import CASE_IDS, verify_inequality
from pavelab.suites import SUITE_MASTER_SEEDS, sandwich_instances, suite_instances

from .helpers import hollow_instances, oracle_instances, restricted_trace_moment

MC_TRIALS = 10 ** 5
ORACLE_MC_SEED = Seed(SUITE_MASTER_SEEDS["ORACLE_MC"])


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_oracle_equivalence():
    start = time.time()
    worst = 0.0
    violations = 0
    for idx, a, k, rate in oracle_instances(50):
        n = a.n_rows
        for mi, model in enumerate((Bernoulli(n, rate), UniformK(n, k))):
            for pi, p in enumerate((2.0, 4.0, 6.0)):
                exact = exact_moment(a, model, p).value
                est = mc_moment(a, model, p, MC_TRIALS, ORACLE_MC_SEED,
                                index=idx * 6 + mi * 3 + pi)
                if est.stderr == 0.0:
                    dev = 0.0 if est.value == exact else math.inf
                else:
                    dev = abs(est.value - exact) / est.stderr
                worst = max(worst, dev)
                violations += dev > 3.0
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 300.0
    _report(1, "oracle-equivalence", ok,
            f"300 comparisons, worst {worst:.2f} se, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 300.0


def test_criterion_2_inequality_suite():
    start = time.time()
    violations = []
    for case_id in CASE_IDS:
        for label, inst in suite_instances(case_id, 100):
            rep = verify_inequality(case_id, inst, method="exact")
            if not rep.holds:
                violations.append((case_id, label))
    elapsed = time.time() - start
    ok = not violations and elapsed < 600.0
    _report(2, "inequality-suite", ok,
            f"9 cases x 100 instances, {len(violations)} violations, {elapsed:.1f}s")
    assert violations == []
    assert elapsed < 600.0


def test_criterion_3_paving_bridge():
    failures = 0
    for idx, a in hollow_instances(100, 8, SUITE_MASTER_SEEDS["PAVING_BRIDGE"]):
        eps = exact_moment(a, UniformK(8, 4), 4.0).value
        optimum = exhaustive_pave(a, 2).quality
        failures += optimum > 3.0 * eps + 1e-12
    _report(3, "paving-bridge", failures == 0, f"{100 - failures}/100 within 3 eps")
    assert failures == 0


def test_criterion_4_random_matches_exhaustive():
    hits = 0
    for idx, a in hollow_instances(100, 8, SUITE_MASTER_SEEDS["PAVING_RANDOM"]):
        optimum = exhaustive_pave(a, 2).quality
        found = random_pave(a, 2, 10 ** 4, Seed(500 + idx)).quality
        hits += abs(found - optimum) <= 1e-12
    _report(4, "random-vs-exhaustive", hits >= 95, f"{hits}/100 hit the optimum")
    assert hits >= 95


def test_criterion_5_polynomial_machinery():
    worst_residual = 0.0
    sandwich_ok = True
    for idx, x, p in sandwich_instances(50):
        poly = trace_moment_polynomial(x, p)
        rng = np.random.default_rng(900 + idx)
        for s in rng.uniform(0.0, 1.0, 10):
            fresh = restricted_trace_moment(x, p, float(s))
            worst_residual = max(worst_residual, abs(poly.evaluate(float(s)) - fresh))
        rep = check_polynomial_sandwich(x, p, [0.1 * i for i in range(1, 10)])
        scale = math.exp(p)
        for s, f in zip(rep.s_grid, rep.norm_moments):
            v = poly.evaluate(s)
            if not (f <= v + 1e-9 and v <= scale * f + 1e-9):
                sandwich_ok = False
        sandwich_ok = sandwich_ok and rep.holds and rep.monotone
    markov_ok = all(check_markov(chebyshev_coefficients(d), d).holds for d in range(11))
    cheb3 = check_markov(chebyshev_coefficients(3), 3)
    exact_case = cheb3.coeff_abs[3] == 4.0 and cheb3.coeff_bounds[3] == 4.5
    ok = worst_residual < 1e-8 and sandwich_ok and markov_ok and exact_case
    _report(5, "polynomial-machinery", ok,
            f"residual {worst_residual:.2e}, sandwich {sandwich_ok}, markov {markov_ok}")
    assert worst_residual < 1e-8
    assert sandwich_ok and markov_ok and exact_case


def test_criterion_6_constant_arithmetic():
    exact2, _ = khintchine_constant(2)
    exact4, _ = khintchine_constant(4)
    constants_ok = (
        abs(exact2 - 1.0) < 1e-14 and abs(exact4 - 3.0 ** 0.25) < 1e-14
    )
    for p in range(2, 41, 2):
        exact, bound = khintchine_constant(p)
        half = p // 2
        ratio = math.factorial(p) // (2 ** half * math.factorial(half))
        constants_ok &= abs(exact - ratio ** (1.0 / p)) <= 1e-12 * exact
        constants_ok &= exact <= bound
    pipeline_ok = True
    gammas = (0.5, 1.0, 2.0, 4.0, 8.0)
    epss = (0.1, 0.3, 0.5, 0.7)
    assert len(gammas) * len(epss) == 20
    for gamma in gammas:
        for eps in epss:
            rep = theorem_pipeline(256, gamma, delta=delta_sufficient(gamma, eps))
            pipeline_ok &= abs(rep.lam - gamma / (2 + 2 * gamma)) <= 1e-12 * rep.lam
            pipeline_ok &= abs(rep.final_bound - eps) <= 1e-12 * eps
    ok = constants_ok and pipeline_ok
    _report(6, "constant-arithmetic", ok,
            f"factorial constants {constants_ok}, pipeline grid {pipeline_ok}")
    assert constants_ok
    assert pipeline_ok


def test_criterion_7_cli_determinism(tmp_path, capsys):
    matrix_path = tmp_path / "m.txt"

    def artifacts(tag):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        m = out_dir / "m.txt"
        part = out_dir / "p.txt"
        csv = out_dir / "s.csv"
        runs = [
            ["gen", "sign", "8", "--seed", "21", "--out", str(m)],
            ["pave", str(m), "-m", "2", "--trials", "400", "--seed", "4",
             "--eps", "0.5", "--out", str(part)],
            ["verify", "DECOUPLING", "--size", "tiny"],
            ["scan", str(m), "--vary", "rho", "--grid", "0.2,0.4", "--p", "6",
             "--seed", "8", "--out", str(csv)],
            ["bound", "pipeline", "--n", "512", "--gamma", "1", "--m", "8"],
        ]
        stdout = []
        for argv in runs:
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        # stdout echoes per-run paths; strip the tag-dependent prefix
        cleaned = [s.replace(str(out_dir), "<out>") for s in stdout]
        return cleaned, m.read_bytes(), part.read_bytes(), csv.read_bytes()

    first = artifacts("run1")
    second = artifacts("run2")
    ok = first == second
    _report(7, "cli-determinism", ok, "5 commands, bitwise-identical artifacts")
    assert ok
