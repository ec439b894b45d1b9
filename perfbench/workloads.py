"""The four benchmark workloads: job argument lists, references and checks.

Every reference is computed here with plain numpy, independently of pavelab,
once per input before the timed loop.  A check returns None for a correct
job output and a reason string otherwise; `corrupt` returns a damaged copy
of a correct output, which the run's self-test feeds back through the check.
"""
from __future__ import annotations

import itertools
import math
import os

import numpy as np

SCAN_HEADER = "param,value,p,estimate,stderr,trials,seed,step3_bound,extrap_bound"
REL_TOL = 1e-9
SETUP_RUNS = 5          # timed set-up runs, after one untimed warm-up run
# Suites of `verify all` in report order, with their instance totals at --size small.
VERIFY_SUITES = (
    ("MODEL_EQUIV", 25), ("DECOUPLING", 25), ("RESTRICT_RV", 25), ("COLNORM", 25),
    ("RUDELSON", 25), ("NC_KHINTCHINE", 25), ("SCALAR_KHINTCHINE", 25), ("STEP3", 25),
    ("EXTRAP", 25), ("MARKOV", 11), ("SANDWICH", 25),
)
# One suite seed for every verify_small job: the cost of `verify all` moves
# from 0.8 s to 4.1 s with the suite seed, which would swamp any change in
# the code if the seed followed the workload seed.
VERIFY_SEED = 0


def job_seed(seed: int, j: int) -> int:
    return (seed * 1_000_003 + j) % (1 << 63)


def read_matrix_text(path: str) -> np.ndarray:
    with open(path) as fh:
        toks = fh.read().split()
    rows, cols = int(toks[0]), int(toks[1])
    return np.array(toks[2:], dtype=np.float64).reshape(rows, cols)


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        for tok in line.split():
            if "=" in tok:
                key, value = tok.split("=", 1)
                out.setdefault(key, value)
    return out


def _csv_rows(text: str):
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


class Workload:
    name = ""
    unit = ""
    pool = SETUP_RUNS + 1   # distinct inputs: set-up run i generates input i
    units_per_job = 0
    ref = "mixed"           # host-speed reference, see hostref.py

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed

    def input_path(self, i: int) -> str:
        return os.path.join(self.work, "in", f"a-{i}.txt")

    def out_path(self, j: int) -> str:
        return os.path.join(self.work, "out", f"job-{j}.txt")

    def gen_argv(self, i: int) -> list[str]:
        """The `gen` call one set-up run makes: the inputs of one job."""
        return ["gen", "sign", str(self.n), "--seed", str(self.seed), "--index", str(i),
                "--out", self.input_path(i)]

    def prepare(self) -> None:
        """Untimed references, one per input."""

    def argv(self, j: int) -> list[str]:
        raise NotImplementedError

    def check(self, j: int, rc: int, stdout: str, out_text: str):
        raise NotImplementedError

    def corrupt(self, stdout: str, out_text: str) -> tuple[str, str]:
        raise NotImplementedError


class PaveLarge(Workload):
    name = "pave_large"
    unit = "paving trials"
    n, m, trials = 512, 8, 2
    units_per_job = trials
    ref = "blas"

    def prepare(self):
        self.mats = [read_matrix_text(self.input_path(i)) for i in range(self.pool)]
        self.norms = [float(np.linalg.norm(a, 2)) for a in self.mats]

    def argv(self, j):
        return ["pave", self.input_path(j % self.pool), "-m", str(self.m),
                "--trials", str(self.trials), "--seed", str(job_seed(self.seed, j)),
                "--out", self.out_path(j)]

    def check(self, j, rc, stdout, out_text):
        if rc != 0:
            return f"exit code {rc}"
        a, norm = self.mats[j % self.pool], self.norms[j % self.pool]
        kv = _kv(stdout)
        try:
            quality = float(kv["quality"])
            blocks = [[int(t) for t in line.split()] for line in out_text.splitlines()]
        except (KeyError, ValueError):
            return "unparsable output"
        k = self.n // self.m
        if len(blocks) != self.m or any(len(b) != k for b in blocks):
            return "partition is not m blocks of n/m"
        if sorted(itertools.chain.from_iterable(blocks)) != list(range(self.n)):
            return "partition does not cover 0..n-1 once"
        want = max(float(np.linalg.norm(a[np.ix_(b, b)], 2)) for b in blocks)
        if not _rel_close(quality, want):
            return f"quality {quality!r} != block-wise norm {want!r}"
        if quality > norm * (1 + REL_TOL):
            return "quality exceeds ||A||"
        return None

    def corrupt(self, stdout, out_text):
        quality = _kv(stdout)["quality"]
        bad = repr(float(quality) * (1 + 1e-6))
        return stdout.replace(f"quality={quality}", f"quality={bad}", 1), out_text


def _power_mean(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    vmax = float(values.max())
    if vmax == 0.0:
        return 0.0
    return vmax * float(np.sum(weights * (values / vmax) ** p)) ** (1.0 / p)


class ScanExact(Workload):
    name = "scan_exact"
    unit = "grid rows"
    n, p = 12, 6
    grid = tuple(round(0.05 * i, 2) for i in range(1, 20))
    units_per_job = len(grid)

    def prepare(self):
        # brute force over the 2^n gathered submatrices A[S, S]
        subsets = [s for k in range(self.n + 1) for s in itertools.combinations(range(self.n), k)]
        sizes = np.array([len(s) for s in subsets], dtype=np.float64)
        self.refs = []
        for i in range(self.pool):
            a = read_matrix_text(self.input_path(i))
            norms = np.array([float(np.linalg.norm(a[np.ix_(s, s)], 2)) if s else 0.0
                              for s in subsets])
            self.refs.append([
                _power_mean(norms, rate ** sizes * (1 - rate) ** (self.n - sizes), self.p)
                for rate in self.grid
            ])

    def argv(self, j):
        return ["scan", self.input_path(j % self.pool), "--vary", "rho",
                "--grid", ",".join(repr(r) for r in self.grid), "--p", str(self.p),
                "--method", "exact", "--seed", str(job_seed(self.seed, j)),
                "--out", self.out_path(j)]

    def check(self, j, rc, stdout, out_text):
        if rc != 0:
            return f"exit code {rc}"
        header, rows = _csv_rows(out_text)
        if header != SCAN_HEADER or len(rows) != len(self.grid):
            return "wrong header or row count"
        for row, rate, want in zip(rows, self.grid, self.refs[j % self.pool]):
            try:
                ok = (len(row) == 9 and row[0] == "rho" and float(row[1]) == rate
                      and float(row[2]) == self.p and _rel_close(float(row[3]), want)
                      and float(row[4]) == 0.0 and row[5] == "0")
            except ValueError:
                ok = False
            if not ok:
                return f"row {','.join(row)!r} != brute-force estimate {want!r}"
        return None

    def corrupt(self, stdout, out_text):
        lines = out_text.splitlines()
        cols = lines[1].split(",")
        cols[3] = repr(float(cols[3]) * (1 + 1e-6))
        lines[1] = ",".join(cols)
        return stdout, "\n".join(lines) + "\n"


class ScanMC(Workload):
    name = "scan_mc"
    unit = "Monte Carlo draws"
    n, p, trials = 200, 12, 50
    grid = (0.05, 0.1, 0.2)
    # each row draws `trials` masks for its estimate and `trials` more for the
    # extrapolation column's reference estimate at rho_ref = ln(n)^-3
    units_per_job = 2 * len(grid) * trials
    ref = "blas"

    def prepare(self):
        self.norms = [float(np.linalg.norm(read_matrix_text(self.input_path(i)), 2))
                      for i in range(self.pool)]

    def argv(self, j):
        return ["scan", self.input_path(j % self.pool), "--vary", "rho",
                "--grid", ",".join(repr(r) for r in self.grid), "--p", str(self.p),
                "--method", "mc", "--trials", str(self.trials),
                "--seed", str(job_seed(self.seed, j)), "--out", self.out_path(j)]

    def check(self, j, rc, stdout, out_text):
        if rc != 0:
            return f"exit code {rc}"
        header, rows = _csv_rows(out_text)
        if header != SCAN_HEADER or len(rows) != len(self.grid):
            return "wrong header or row count"
        norm = self.norms[j % self.pool]
        for row, rate in zip(rows, self.grid):
            try:
                est, se = float(row[3]), float(row[4])
                ok = (len(row) == 9 and row[0] == "rho" and float(row[1]) == rate
                      and float(row[2]) == self.p
                      and math.isfinite(est) and 0.0 <= est <= norm * (1 + REL_TOL)
                      and math.isfinite(se) and se >= 0.0
                      and row[5] == str(self.trials)
                      and row[6] == str(job_seed(self.seed, j))
                      and math.isfinite(float(row[8])))
            except ValueError:
                ok = False
            if not ok:
                return f"bad row {','.join(row)!r}"
        return None

    def corrupt(self, stdout, out_text):
        lines = out_text.splitlines()
        cols = lines[1].split(",")
        cols[3] = repr(2.0 * max(self.norms) + 1.0)
        lines[1] = ",".join(cols)
        return stdout, "\n".join(lines) + "\n"


class VerifySmall(Workload):
    name = "verify_small"
    unit = "inequality instances"
    pool = 0
    units_per_job = sum(count for _, count in VERIFY_SUITES)

    def argv(self, j):
        return ["verify", "all", "--size", "small", "--seed", str(VERIFY_SEED)]

    def check(self, j, rc, stdout, out_text):
        if rc != 0:
            return f"exit code {rc}"
        lines = stdout.splitlines()
        want = [f"suite={case} passed={count}/{count}" for case, count in VERIFY_SUITES]
        got = [line for line in lines if line.startswith("suite=")]
        if got != want:
            return f"suite totals {got!r}"
        if "all_hold=yes" not in lines:
            return "all_hold is not yes"
        reports = [line for line in lines if line.startswith("case=")]
        if len(reports) != self.units_per_job or any("holds=yes" not in r for r in reports):
            return "instance reports missing or failing"
        return None

    def corrupt(self, stdout, out_text):
        return stdout.replace("passed=25/25", "passed=24/25", 1), out_text


WORKLOADS = {w.name: w for w in (PaveLarge, ScanExact, ScanMC, VerifySmall)}
