import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelab import (
    Bernoulli,
    BernoulliPair,
    CapacityError,
    DenseMatrix,
    ParameterError,
    RademacherSigns,
    Seed,
    UniformK,
    exact_moment,
    mc_moment,
    spectral_norm,
)

from pavelab import forks, matrices, moments, random_pave
from pavelab.moments import masked_norms, weighted_moment_stats
from pavelab.paving import random_pave_share

from .conftest import square_matrices
from .oracles import brute_force_pair_moment, brute_force_sign_moment, jacobi_spectral_norm


class TestExactMoment:
    def test_zero_matrix(self):
        for model in (Bernoulli(4, 0.3), UniformK(4, 2), BernoulliPair(4, 0.5)):
            assert exact_moment(DenseMatrix.zeros(4), model, 4.0).value == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0])
    def test_scalar_matrix(self, p):
        # single coordinate: kept with probability delta, norm |a|
        delta, a = 0.37, -2.5
        est = exact_moment(DenseMatrix([[a]]), Bernoulli(1, delta), p)
        assert est.value == pytest.approx(delta ** (1 / p) * abs(a), rel=1e-14)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_two_by_two_identity(self, p):
        # norm is 1 unless no coordinate survives: value (delta(2-delta))^(1/p)
        delta = 0.3
        est = exact_moment(DenseMatrix.identity(2), Bernoulli(2, delta), p)
        assert est.value == pytest.approx((delta * (2 - delta)) ** (1 / p), rel=1e-14)

    def test_full_selection_equals_spectral_norm(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        norm = spectral_norm(a)
        assert exact_moment(a, UniformK(5, 5), 4.0).value == pytest.approx(norm, rel=1e-14)
        assert exact_moment(a, Bernoulli(5, 1.0), 6.0).value == pytest.approx(norm, rel=1e-14)

    def test_estimate_fields(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        est = exact_moment(a, Bernoulli(4, 0.5), 2.0)
        assert est.trials == 0 and est.stderr == 0.0 and est.exact

    def test_rate_monotonicity(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        values = [
            exact_moment(a, Bernoulli(6, r), 4.0).value
            for r in (0.1, 0.25, 0.5, 0.75, 0.9)
        ]
        assert all(u <= v + 1e-12 for u, v in zip(values, values[1:]))

    def test_p_monotonicity(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        for model in (Bernoulli(5, 0.4), UniformK(5, 2)):
            values = [exact_moment(a, model, p).value for p in (1.0, 2.0, 4.0, 8.0)]
            assert all(u <= v + 1e-12 for u, v in zip(values, values[1:]))

    def test_value_bounded_by_spectral_norm(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        norm = spectral_norm(a)
        for model in (Bernoulli(5, 0.6), UniformK(5, 3), BernoulliPair(5, 0.6)):
            assert exact_moment(a, model, 6.0).value <= norm + 1e-12

    def test_pair_matches_brute_force(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        got = exact_moment(DenseMatrix(a), BernoulliPair(3, 0.35), 4.0).value
        assert got == pytest.approx(brute_force_pair_moment(a, 0.35, 4.0), abs=1e-10)

    def test_signs_match_brute_force(self, rng):
        a = rng.uniform(-1, 1, (4, 4))
        got = exact_moment(DenseMatrix(a), RademacherSigns(4), 4.0).value
        assert got == pytest.approx(brute_force_sign_moment(a, 4.0), abs=1e-10)

    def test_uniform_k_matches_brute_force(self, rng):
        a = rng.uniform(-1, 1, (5, 5))
        k, p = 2, 4.0
        vals = []
        for combo in itertools.combinations(range(5), k):
            sub = a[np.ix_(combo, combo)]
            vals.append(np.linalg.norm(sub, 2) ** p)
        expect = (sum(vals) / len(vals)) ** (1 / p)
        got = exact_moment(DenseMatrix(a), UniformK(5, k), p).value
        assert got == pytest.approx(expect, rel=1e-12)

    def test_capacity_errors(self):
        big = DenseMatrix.zeros(15)
        with pytest.raises(CapacityError):
            exact_moment(big, Bernoulli(15, 0.5), 2.0)
        with pytest.raises(CapacityError):
            exact_moment(big, RademacherSigns(15), 2.0)
        with pytest.raises(CapacityError):
            exact_moment(DenseMatrix.zeros(9), BernoulliPair(9, 0.5), 2.0)
        with pytest.raises(CapacityError):
            exact_moment(DenseMatrix.zeros(30), UniformK(30, 15), 2.0)

    def test_uniform_k_mask_bytes_are_capped_before_allocating(self):
        """UniformK(1000, 2) has 499,500 patterns, under the pattern cap, but
        its float64 masks would take 4 GB."""
        a = DenseMatrix.zeros(1000)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="499500 patterns and 3996000000 bytes"):
                exact_moment(a, UniformK(1000, 2), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        patterns, counts = moments._exact_space(UniformK(20, 10))
        assert patterns[0].shape == (math.comb(20, 10), 20) and np.all(counts == 10)

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            exact_moment(DenseMatrix.identity(2), Bernoulli(2, 0.5), 0.0)

    def test_rejects_model_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            exact_moment(DenseMatrix.identity(3), Bernoulli(4, 0.5), 2.0)


class TestMcMoment:
    def test_zero_matrix(self):
        est = mc_moment(DenseMatrix.zeros(4), Bernoulli(4, 0.3), 4.0, 100, Seed(1))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_rate_one_is_exact(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        est = mc_moment(a, Bernoulli(6, 1.0), 4.0, 500, Seed(2))
        assert est.value == spectral_norm(a)
        assert est.stderr == 0.0

    def test_within_three_stderr_of_exact(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (10, 10)))
        exact = exact_moment(a, Bernoulli(10, 0.3), 4.0).value
        est = mc_moment(a, Bernoulli(10, 0.3), 4.0, 10 ** 5, Seed(5))
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_uniform_k_within_three_stderr(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (8, 8)))
        exact = exact_moment(a, UniformK(8, 3), 4.0).value
        est = mc_moment(a, UniformK(8, 3), 4.0, 5 * 10 ** 4, Seed(6))
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_pair_within_three_stderr(self, rng):
        a = rng.uniform(-1, 1, (5, 5))
        np.fill_diagonal(a, 0.0)
        b = DenseMatrix(a)
        exact = exact_moment(b, BernoulliPair(5, 0.4), 2.0).value
        est = mc_moment(b, BernoulliPair(5, 0.4), 2.0, 5 * 10 ** 4, Seed(7))
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_signs_within_three_stderr(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        exact = exact_moment(a, RademacherSigns(6), 4.0).value
        est = mc_moment(a, RademacherSigns(6), 4.0, 5 * 10 ** 4, Seed(8))
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_deterministic_given_seed(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (7, 7)))
        e1 = mc_moment(a, Bernoulli(7, 0.4), 4.0, 1000, Seed(9), index=2)
        e2 = mc_moment(a, Bernoulli(7, 0.4), 4.0, 1000, Seed(9), index=2)
        assert e1.value == e2.value and e1.stderr == e2.stderr

    def test_metadata(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        est = mc_moment(a, Bernoulli(4, 0.5), 2.0, 250, Seed(10))
        assert est.trials == 250 and not est.exact and est.seed == Seed(10)

    def test_rejects_too_few_trials(self):
        with pytest.raises(ParameterError):
            mc_moment(DenseMatrix.identity(2), Bernoulli(2, 0.5), 2.0, 1, Seed(0))

    def test_large_matrix_path(self, rng):
        # n > 20 skips the dedupe path; result should still be sane
        a = DenseMatrix(rng.uniform(-1, 1, (24, 24)) / 24)
        est = mc_moment(a, Bernoulli(24, 0.5), 2.0, 64, Seed(11))
        assert 0.0 < est.value <= spectral_norm(a) + 1e-12
        assert est.stderr > 0.0


def test_weighted_stats_match_flat_formula(rng):
    values = rng.uniform(0.0, 2.0, 40)
    counts = rng.integers(1, 5, 40)
    trials = int(counts.sum())
    p = 4.0
    est, se = weighted_moment_stats(values, counts.astype(float), trials, p)
    flat = np.repeat(values, counts) ** p
    mean = flat.mean()
    assert est == pytest.approx(mean ** (1 / p), rel=1e-12)
    se_mean = math.sqrt(flat.var(ddof=1) / trials)
    assert se == pytest.approx((1 / p) * mean ** (1 / p - 1) * se_mean, rel=1e-12)


@given(square_matrices(min_n=1, max_n=5), st.floats(0.05, 0.95),
       st.sampled_from([1.0, 2.0, 4.0]))
@settings(max_examples=30, deadline=None)
def test_exact_moment_dominated_by_full_norm(a, rate, p):
    value = exact_moment(a, Bernoulli(a.n_rows, rate), p).value
    assert value <= spectral_norm(a) + 1e-12


@given(square_matrices(min_n=1, max_n=5), st.floats(0.05, 0.45),
       st.sampled_from([2.0, 4.0]))
@settings(max_examples=30, deadline=None)
def test_exact_moment_rate_monotone(a, rate, p):
    low = exact_moment(a, Bernoulli(a.n_rows, rate), p).value
    high = exact_moment(a, Bernoulli(a.n_rows, 2 * rate), p).value
    assert low <= high + 1e-12


def _one_blas_thread_env() -> dict:
    """This process's environment at one BLAS thread, with pavelab's source
    first on PYTHONPATH, for a child process."""
    src = os.path.dirname(os.path.dirname(moments.__file__))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class TestMaskedNorms:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_jacobi_on_zero_masked_matrix(self, n):
        rng = np.random.default_rng(1000 + n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        rate_r, rate_c = rng.uniform(0.2, 0.8, 2)
        rows = rng.random((8, n)) < rate_r
        cols = rng.random((8, n)) < rate_c
        none, full = np.zeros((1, n), dtype=bool), np.ones((1, n), dtype=bool)
        some = rng.random((1, n)) < 0.5
        # empty rows, empty columns, full masks, ones x bits (RESTRICT_RV)
        rows = np.vstack([rows, none, some, full, full, rows[:3]])
        cols = np.vstack([cols, some, none, full, cols[:1], cols[3:6]])
        got = masked_norms(a, rows.astype(np.float64), cols.astype(np.float64))
        want = [jacobi_spectral_norm(a * rb[:, None] * cb[None, :])
                for rb, cb in zip(rows, cols)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert got[8] == 0.0 and got[9] == 0.0
        assert np.array_equal(masked_norms(a, rows, cols), got)

    def test_rectangular_matrix_and_buckets(self, rng):
        a = rng.uniform(-1.0, 1.0, (5, 7))
        rows = rng.random((30, 5)) < 0.6
        cols = rng.random((30, 7)) < 0.4
        got = masked_norms(a, rows, cols)
        want = [jacobi_spectral_norm(a[np.ix_(rb, cb)]) for rb, cb in zip(rows, cols)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_no_patterns(self):
        assert masked_norms(np.eye(3), np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("shape", [(12, 13), (13, 12)])
    def test_every_bucket_up_to_12_matches_jacobi(self, rng, shape):
        """One pattern per (r, c), 1 <= r, c <= 12, of a rectangular matrix."""
        a = rng.uniform(-1.0, 1.0, shape)
        rc = list(itertools.product(range(1, 13), repeat=2))
        rows = np.zeros((len(rc), shape[0]), dtype=bool)
        cols = np.zeros((len(rc), shape[1]), dtype=bool)
        for j, (r, c) in enumerate(rc):
            rows[j, rng.choice(shape[0], r, replace=False)] = True
            cols[j, rng.choice(shape[1], c, replace=False)] = True
        got = masked_norms(a, rows, cols)
        want = [jacobi_spectral_norm(a[np.ix_(rb, cb)]) for rb, cb in zip(rows, cols)]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 2.0 ** -1060, 1e-310])
    def test_scale_extremes_match_jacobi(self, rng, scale):
        """Tiny, huge and subnormal entries; the oracle runs on the matrix
        moved to unit scale by an exact power of two."""
        a = rng.uniform(-1.0, 1.0, (9, 9)) * scale
        rows, cols = rng.random((60, 9)) < 0.5, rng.random((60, 9)) < 0.6
        rows[:, 0] = cols[:, 0] = True
        got = masked_norms(a, rows, cols)
        shift = math.frexp(float(np.abs(a).max()))[1]
        want = [math.ldexp(jacobi_spectral_norm(np.ldexp(a[np.ix_(rb, cb)], -shift)), shift)
                for rb, cb in zip(rows, cols)]
        assert np.all(got > 0.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_block_and_single_entry(self):
        a = np.zeros((8, 8))
        a[6, 7] = -3.0e-200
        rows = np.zeros((4, 8), dtype=bool)
        cols = np.zeros((4, 8), dtype=bool)
        rows[0, :5] = cols[0, 1:6] = True          # inside the zero block
        rows[1, 4:] = cols[1, 3:] = True           # holds the one entry, 4 x 5
        rows[2, 6] = cols[2, 7] = True             # the entry alone
        rows[3, [0, 6]] = cols[3, [2, 5, 7]] = True
        got = masked_norms(a, rows, cols)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert list(got[1:]) == [3.0e-200] * 3

    def test_one_kernel_call_per_gram_size(self, monkeypatch, rng):
        """The masked kernel makes one eigenvalue stack per (r, c) bucket,
        and the pair space one per k = min(r, c) (its stacks fit one chunk
        at n = 5); the masked norms are the bits of one call per block."""
        a = rng.uniform(-1.0, 1.0, (9, 9))
        shapes = [(3, 4), (4, 3), (3, 5), (4, 5), (5, 4), (2, 2)]
        rows, cols = np.zeros((60, 9), dtype=bool), np.zeros((60, 9), dtype=bool)
        for j in range(60):
            r, c = shapes[j % len(shapes)]
            rows[j, rng.choice(9, r, replace=False)] = True
            cols[j, rng.choice(9, c, replace=False)] = True
        alone = [masked_norms(a, rows[j:j + 1], cols[j:j + 1])[0] for j in range(60)]
        calls = []
        real = matrices.top_eigenvalues

        def top_eigenvalues(blocks):
            calls.append(blocks.shape)
            return real(blocks)

        monkeypatch.setattr(matrices, "top_eigenvalues", top_eigenvalues)
        monkeypatch.setattr(moments, "top_eigenvalues", top_eigenvalues)
        assert np.array_equal(masked_norms(a, rows, cols), alone)
        assert sorted(calls) == [(10, 2, 2)] + [(10, 3, 3)] * 3 + [(10, 4, 4)] * 2
        calls.clear()
        moments.pair_space_norms(a[:5, :5])
        assert sorted(shape[1] for shape in calls) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("n", [8, 16])
    def test_sampled_pair_spaces_bitwise_across_blas_thread_counts(self, monkeypatch, rng, tmp_path, n):
        """A sampled BernoulliPair space holds several (r, c) buckets of each
        k = min(r, c); its norms are the bits of one call per pattern at the
        default `_BATCH` and at 1, here at the inherited BLAS thread setting
        and in a child process at one thread.  The +-1 entries make integer
        Grams, whose double top eigenvalues take the kernels' fallbacks."""
        a = rng.choice([-1.0, 1.0], (n, n))
        (rows, cols), _ = moments.sampled_patterns(BernoulliPair(n, 0.5), Seed(6).rng("pairs"), 2000)
        r, c = rows.sum(axis=1), cols.sum(axis=1)
        assert len(set(zip(r, c))) > len(set(np.minimum(r, c))) + n
        alone = [masked_norms(a, rows[j:j + 1], cols[j:j + 1])[0] for j in range(len(rows))]
        default = masked_norms(a, rows, cols)
        monkeypatch.setattr(moments, "_BATCH", 1)
        assert np.array_equal(default, alone) and np.array_equal(masked_norms(a, rows, cols), alone)
        for name, array in (("a", a), ("rows", rows), ("cols", cols)):
            np.save(tmp_path / f"{name}.npy", array)
        script = (
            "import sys, numpy as np\n"
            "from pavelab import moments\n"
            "a, rows, cols = (np.load(f'{sys.argv[1]}/{x}.npy') for x in ('a', 'rows', 'cols'))\n"
            "np.save(sys.argv[1] + '/single.npy', moments.masked_norms(a, rows, cols))\n"
        )
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=_one_blas_thread_env(), check=True)
        assert np.array_equal(np.load(tmp_path / "single.npy"), default)


class TestSizeIndexTable:
    """`size_index_rows` builds one read-only table per n, and `masked_norms`
    given its very `bits` on both sides norms the table's size-k stacks
    (`_table_chunks`) with the bits of the bucketed path."""

    @pytest.fixture(autouse=True)
    def table_calls(self, monkeypatch):
        """No table or exact norms built yet, and a list of the
        `_table_chunks` calls."""
        monkeypatch.setattr(moments, "_TABLES", {})
        monkeypatch.setattr(moments, "_last_norms", None)
        calls = []
        real = moments._table_chunks

        def counting(table):
            calls.append(len(table[1]) - 1)
            return real(table)

        monkeypatch.setattr(moments, "_table_chunks", counting)
        return calls

    @staticmethod
    def _both(a, n):
        """(table path, bucketed path on a writable copy of the table)."""
        bits = moments.mask_bits(n)
        copy = bits.copy()
        return masked_norms(a, bits, bits), masked_norms(a, copy, copy)

    @pytest.mark.parametrize("n", range(1, moments.EXACT_BERNOULLI_MAX_N + 1))
    def test_table_path_equals_the_bucketed_path(self, rng, table_calls, n):
        """Uniform entries at even n, +-1 entries (whose integer Grams send
        double top eigenvalues to the fallbacks) at odd n, each also scaled
        by 2^-1040 (subnormal) and 2^1000."""
        base = rng.uniform(-1.0, 1.0, (n, n)) if n % 2 == 0 else rng.choice([-1.0, 1.0], (n, n))
        for scale in (1.0, 2.0 ** -1040, 2.0 ** 1000):
            table, bucketed = self._both(base * scale, n)
            assert np.array_equal(table, bucketed)
            assert table[-1] == spectral_norm(DenseMatrix(base * scale))
        assert table_calls == [n] * 3

    @pytest.mark.parametrize("n", [3, 8, 11])
    def test_table_path_at_batch_one(self, monkeypatch, rng, table_calls, n):
        a = rng.uniform(-1.0, 1.0, (n, n))
        default = self._both(a, n)[0]
        monkeypatch.setattr(moments, "_BATCH", 1)
        table, bucketed = self._both(a, n)
        assert np.array_equal(table, bucketed) and np.array_equal(table, default)
        assert table_calls == [n, n]

    @pytest.mark.parametrize("batch", [moments._BATCH, 100, 1])
    def test_same_kernel_stacks_as_the_bucketed_path(self, monkeypatch, rng, batch):
        """The table path cuts each size's stack into the bucketed path's
        chunks: the same `top_eigenvalues` stacks and SVD blocks."""
        a = rng.uniform(-1.0, 1.0, (12, 12))
        bits = moments.mask_bits(12)
        monkeypatch.setattr(moments, "_BATCH", batch)
        stacks = []
        real_top, real_svd = matrices.top_eigenvalues, np.linalg.svd

        def top_eigenvalues(blocks):
            stacks.append(blocks.shape)
            return real_top(blocks)

        def svd(blocks, **kwargs):
            stacks.append(("svd", blocks.shape))
            return real_svd(blocks, **kwargs)

        monkeypatch.setattr(matrices, "top_eigenvalues", top_eigenvalues)
        monkeypatch.setattr(np.linalg, "svd", svd)
        masked_norms(a, bits, bits)
        table = sorted(stacks, key=str)
        stacks.clear()
        copy = bits.copy()
        masked_norms(a, copy, copy)
        assert table == sorted(stacks, key=str) and ("svd", (1, 12, 12)) in table

    def test_larger_and_rectangular_matrices(self, rng, table_calls):
        """The table's masks select among the leading n coordinates of any
        matrix at least that large."""
        for shape in ((9, 9), (6, 11), (11, 6)):
            a = rng.uniform(-1.0, 1.0, shape)
            table, bucketed = self._both(a, 6)
            assert np.array_equal(table, bucketed)
        assert table_calls == [6] * 3

    def test_one_read_only_table_per_n(self):
        for n in (0, 1, 5, moments.EXACT_BERNOULLI_MAX_N):
            bits, codes, idx = moments.size_index_rows(n)
            assert moments.size_index_rows(n)[0] is bits and moments.mask_bits(n) is bits
            assert bits.shape == (1 << n, n)
            assert [c.size for c in codes] == [math.comb(n, k) for k in range(n + 1)]
            for array in (bits, *codes, *idx):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        bits, codes, idx = moments.size_index_rows(moments.EXACT_BERNOULLI_MAX_N)
        assert sum(x.nbytes for x in (bits, *codes, *idx)) < 3 << 20

    def test_past_the_cap_is_a_capacity_error(self):
        with pytest.raises(CapacityError):
            moments.size_index_rows(moments.EXACT_BERNOULLI_MAX_N + 1)
        assert moments._TABLES == {}

    def test_monte_carlo_builds_no_table(self, rng, table_calls):
        """A sampled Bernoulli moment at n = 10 neither builds a table nor
        takes the table path; an exact one builds the n = 10 table once."""
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (10, 10)))
        mc_moment(a, Bernoulli(10, 0.3), 4.0, 500, Seed(3))
        assert moments._TABLES == {} and table_calls == []
        exact_moment(a, Bernoulli(10, 0.3), 4.0)
        assert list(moments._TABLES) == [10] and table_calls == [10]

    def test_table_path_bitwise_across_blas_thread_counts(self, rng, tmp_path):
        """The n = 14 table path in a child process at one BLAS thread, here
        at the inherited setting, and the bucketed path give the same bits."""
        a = rng.uniform(-1.0, 1.0, (14, 14))
        np.save(tmp_path / "a.npy", a)
        script = (
            "import sys, numpy as np\n"
            "from pavelab import moments\n"
            "a, bits = np.load(sys.argv[1]), moments.mask_bits(14)\n"
            "np.save(sys.argv[2], moments.masked_norms(a, bits, bits))\n"
        )
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.npy"), str(tmp_path / "single.npy")],
                       env=_one_blas_thread_env(), check=True)
        table, bucketed = self._both(a, 14)
        assert np.array_equal(np.load(tmp_path / "single.npy"), table)
        assert np.array_equal(table, bucketed)


class TestChunkSizeDeterminism:
    """Outputs are bitwise identical whatever the batch size of the kernels."""

    def _both(self, monkeypatch, fn):
        default = fn()
        monkeypatch.setattr(moments, "_BATCH", 1)
        return default, fn()

    def test_masked_norms(self, monkeypatch, rng):
        a = rng.uniform(-1.0, 1.0, (9, 9))
        rows, cols = rng.random((300, 9)) < 0.5, rng.random((300, 9)) < 0.5
        default, single = self._both(monkeypatch, lambda: masked_norms(a, rows, cols))
        assert np.array_equal(default, single)

    def test_masked_norms_at_the_gram_limit(self, monkeypatch, rng):
        """Buckets at k = 64 (the Gram kernel's largest) and k = 65 (SVD)."""
        a = rng.uniform(-1.0, 1.0, (70, 70))
        rows = np.zeros((16, 70), dtype=bool)
        cols = np.zeros((16, 70), dtype=bool)
        for j, (r, c) in enumerate(itertools.product((64, 65), repeat=2)):
            for row in range(4 * j, 4 * j + 4):
                rows[row, rng.choice(70, r, replace=False)] = True
                cols[row, rng.choice(70, c, replace=False)] = True
        default, single = self._both(monkeypatch, lambda: masked_norms(a, rows, cols))
        assert np.array_equal(default, single)

    @pytest.mark.parametrize("model", [Bernoulli(8, 0.3), BernoulliPair(4, 0.4)])
    def test_exact_moment(self, monkeypatch, rng, model):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (model.n, model.n)))
        default, single = self._both(monkeypatch, lambda: exact_moment(a, model, 4.0))
        assert default.value == single.value

    @pytest.mark.parametrize("model", [Bernoulli(24, 0.3), BernoulliPair(24, 0.3)])
    def test_mc_moment_without_dedupe(self, monkeypatch, rng, model):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (24, 24)) / 24)
        default, single = self._both(
            monkeypatch, lambda: mc_moment(a, model, 4.0, 64, Seed(5))
        )
        assert (default.value, default.stderr) == (single.value, single.stderr)

    def test_random_pave(self, monkeypatch, rng):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (24, 24)))
        default, single = self._both(monkeypatch, lambda: random_pave(a, 3, 40, Seed(8)))
        assert default.quality == single.quality
        assert default.best_trial_index == single.best_trial_index
        assert default.partition == single.partition

    def test_random_pave_with_a_partial_last_round(self, monkeypatch, rng):
        """1001 trials: one round at the default batch, 4 rounds of 300 and a
        partial one at 900 (rounds of 900 // m), one trial per round at 1.
        On the identity every trial ties, and the first one wins."""
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (24, 24)))
        results = []
        for batch in (moments._BATCH, 900, 1):
            monkeypatch.setattr(moments, "_BATCH", batch)
            res = random_pave(a, 3, 1001, Seed(8))
            results.append((res.quality, res.best_trial_index, res.partition, res.trials_used))
            assert random_pave(DenseMatrix.identity(24), 3, 1001, Seed(8)).best_trial_index == 0
        assert results[0] == results[1] == results[2]
        assert results[0][3] == 1001


def _started_threads(monkeypatch) -> list:
    """A list that grows by one for every thread started from now on."""
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _gram_buckets(rng, n, sizes):
    """(rows, cols) masks of an n x n matrix: sizes[j] patterns of j + 1
    rows and j + 2 columns (one Gram-kernel bucket per entry)."""
    total = sum(sizes)
    rows, cols = np.zeros((total, n), dtype=bool), np.zeros((total, n), dtype=bool)
    at = 0
    for j, count in enumerate(sizes):
        for row in range(at, at + count):
            rows[row, rng.choice(n, j + 1, replace=False)] = True
            cols[row, rng.choice(n, j + 2, replace=False)] = True
        at += count
    return rows, cols


class TestWorkerCounts:
    """`masked_norms`, the pair space and `random_pave` norm on the calling
    thread at any `forks.CPUS`, with the same bits; a paving search split
    into process shares gives the serial result."""

    def _each(self, monkeypatch, fn):
        """fn() at 1, 2 and 3 CPUs; no thread starts at any of them."""
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(forks, "CPUS", workers)
            monkeypatch.setattr(moments, "_last_norms", None)
            started = _started_threads(monkeypatch)
            results.append(fn())
            assert started == []
        return results

    def test_exact_spaces_bitwise_across_worker_counts(self, monkeypatch, rng):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (12, 12)))
        bern = self._each(
            monkeypatch, lambda: moments.exact_pattern_values(a, Bernoulli(12, 0.3))[0]
        )
        pair_matrix = rng.uniform(-1.0, 1.0, (8, 8))
        pair = self._each(monkeypatch, lambda: moments.pair_space_norms(pair_matrix))
        for got in (bern, pair):
            assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])

    def test_masked_norms_bitwise_across_worker_counts(self, monkeypatch, rng):
        """1,920 Gram blocks, stacks of 700 and 900 among them, and no
        thread starts."""
        a = rng.uniform(-1.0, 1.0, (16, 16))
        rows, cols = _gram_buckets(rng, 16, [300, 700, 20, 900])
        got = self._each(monkeypatch, lambda: masked_norms(a, rows, cols))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])

    @pytest.mark.parametrize("kind", ["uniform", "sign"])
    def test_closed_form_stacks_bitwise_across_worker_counts(self, monkeypatch, rng, kind):
        """Buckets of 3 x c and r x 3 patterns, 300 each: every Gram is 3 x 3.
        A +-1 matrix has integer Grams, many of them with a double top
        eigenvalue, so fallback blocks sit among closed-form ones, and each
        block of the stack has the bits it has alone."""
        n = 12
        a = rng.uniform(-1.0, 1.0, (n, n)) if kind == "uniform" else rng.choice([-1.0, 1.0], (n, n))
        shapes = [(3, c) for c in range(3, 9)] + [(r, 3) for r in range(4, 9)]
        rows, cols = np.zeros((300 * len(shapes), n), dtype=bool), np.zeros((300 * len(shapes), n), dtype=bool)
        for j, (r, c) in enumerate(shapes):
            for row in range(300 * j, 300 * j + 300):
                rows[row, rng.choice(n, r, replace=False)] = True
                cols[row, rng.choice(n, c, replace=False)] = True
        got = self._each(monkeypatch, lambda: masked_norms(a, rows, cols))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])
        alone = [masked_norms(a, rows[j:j + 1], cols[j:j + 1])[0] for j in range(0, len(rows), 7)]
        assert np.array_equal(got[0][::7], alone)

    @pytest.mark.parametrize("kind", ["uniform", "sign"])
    def test_k4_stacks_bitwise_across_worker_counts(self, monkeypatch, rng, kind):
        """Buckets of 4 x c and r x 4 patterns, 300 each, make one stack of
        4 x 4 Grams; a +-1 matrix sends some of them to the fallback.  The
        pair space of an 8 x 8 matrix holds 17,920 blocks of 4 x 4."""
        n = 12
        a = rng.uniform(-1.0, 1.0, (n, n)) if kind == "uniform" else rng.choice([-1.0, 1.0], (n, n))
        shapes = [(4, c) for c in range(4, 10)] + [(r, 4) for r in range(5, 10)]
        rows, cols = np.zeros((300 * len(shapes), n), dtype=bool), np.zeros((300 * len(shapes), n), dtype=bool)
        for j, (r, c) in enumerate(shapes):
            for row in range(300 * j, 300 * j + 300):
                rows[row, rng.choice(n, r, replace=False)] = True
                cols[row, rng.choice(n, c, replace=False)] = True
        got = self._each(monkeypatch, lambda: masked_norms(a, rows, cols))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])
        alone = [masked_norms(a, rows[j:j + 1], cols[j:j + 1])[0] for j in range(0, len(rows), 7)]
        assert np.array_equal(got[0][::7], alone)
        pair = self._each(monkeypatch, lambda: moments.pair_space_norms(a[:8, :8]))
        assert np.array_equal(pair[0], pair[1]) and np.array_equal(pair[0], pair[2])

    def test_random_pave_bitwise_across_worker_counts(self, monkeypatch, rng):
        """2,000 trials in one round of 1,024 and one of 976: the least
        (quality, trial index) over 2 or 3 shares is the one-share search,
        and each share's best trial is its own."""
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (64, 64)))
        want = random_pave(a, 8, 2000, Seed(4))
        assert want.trials_used == 2000
        for shares in (1, 2, 3):
            got = [random_pave_share(a, 8, 2000, Seed(4), j, shares) for j in range(shares)]
            assert [res.best_trial_index % shares for res in got] == list(range(shares))
            best = min(got, key=lambda res: (res.quality, res.best_trial_index))
            assert best == want
        assert self._each(monkeypatch, lambda: random_pave(a, 8, 2000, Seed(4))) == [want] * 3

    def test_svd_stays_on_the_calling_thread_at_worker_counts_above_one(self, monkeypatch, rng):
        """Whole-matrix and k = 65 buckets of 300 patterns each beside large
        Gram stacks at 3 CPUs."""
        n = 70
        a = rng.uniform(-1.0, 1.0, (n, n))
        gram_rows, gram_cols = _gram_buckets(rng, n, [0, 0, 0, 600, 500])
        svd_rows, svd_cols = np.ones((600, n), dtype=bool), np.ones((600, n), dtype=bool)
        for row in range(300, 600):  # whole-matrix patterns, then 65 x 65 ones
            svd_rows[row, rng.choice(n, n - 65, replace=False)] = False
            svd_cols[row, rng.choice(n, n - 65, replace=False)] = False
        rows, cols = np.vstack([gram_rows, svd_rows]), np.vstack([gram_cols, svd_cols])
        want = masked_norms(a, rows, cols)
        caller, base = threading.get_ident(), threading.active_count()
        svd_calls = []
        real_svd = np.linalg.svd

        def svd(*args, **kwargs):
            svd_calls.append((threading.get_ident(), threading.active_count()))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(forks, "CPUS", 3)
        started = _started_threads(monkeypatch)
        assert np.array_equal(masked_norms(a, rows, cols), want)
        assert started == []
        assert svd_calls and set(svd_calls) == {(caller, base)}

    def test_small_stacks_start_no_thread_at_any_worker_counts(self, monkeypatch, rng):
        a = rng.uniform(-1.0, 1.0, (16, 16))
        rows, cols = _gram_buckets(rng, 16, [255, 200, 255, 100])
        pair_matrix = rng.uniform(-1.0, 1.0, (5, 5))  # at most 10 x 10 = 100 blocks a run
        self._each(monkeypatch, lambda: masked_norms(a, rows, cols))
        self._each(monkeypatch, lambda: moments.pair_space_norms(pair_matrix))
        self._each(monkeypatch, lambda: random_pave(DenseMatrix(a), 4, 60, Seed(1)))


def _subset_norms(a: np.ndarray) -> np.ndarray:
    """||A[S, S]|| for every subset S by mask code (bit i selects i), one
    `np.linalg.svd` of each gathered submatrix (reference)."""
    n = a.shape[0]
    out = np.zeros(1 << n)
    for code in range(1, 1 << n):
        s = [i for i in range(n) if code >> i & 1]
        out[code] = np.linalg.svd(a[np.ix_(s, s)], compute_uv=False)[0]
    return out


@pytest.mark.parametrize("n", range(1, moments.EXACT_BERNOULLI_MAX_N + 1))
def test_exact_bernoulli_and_uniform_k_match_per_subset_brute_force(rng, n):
    """Every enumerable n, every k: exact moments against a float sum over
    the per-subset norms.  Odd n use a +-1 matrix, whose integer Grams
    send double top eigenvalues through the k = 3 fallback."""
    a = rng.uniform(-1.0, 1.0, (n, n)) if n % 2 == 0 else rng.choice([-1.0, 1.0], (n, n))
    norms = _subset_norms(a)
    sizes = np.array([bin(code).count("1") for code in range(1 << n)])
    matrix, p, rate = DenseMatrix(a), 4.0, 0.3
    weights = rate ** sizes * (1.0 - rate) ** (n - sizes)
    want = float(np.sum(weights * norms ** p)) ** (1.0 / p)
    assert exact_moment(matrix, Bernoulli(n, rate), p).value == pytest.approx(want, rel=1e-12)
    for k in range(1, n + 1):
        want = float(np.mean(norms[sizes == k] ** p)) ** (1.0 / p)
        assert exact_moment(matrix, UniformK(n, k), p).value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", range(1, moments.EXACT_SIGNS_MAX_N + 1))
def test_exact_sign_moment_matches_brute_force_at_every_n(rng, n):
    """The exact RademacherSigns moment of an m x n matrix (m = 2, 3, 4):
    against the Jacobi brute force up to n = 10, above that against a float
    sum over one `np.linalg.svd` per sign pattern."""
    a = rng.uniform(-1.0, 1.0, (2 + n % 3, n))
    p = 4.0
    got = exact_moment(DenseMatrix(a), RademacherSigns(n), p).value
    if n <= 10:
        want = brute_force_sign_moment(a, p)
    else:
        total = 0.0
        for signs in itertools.product([-1.0, 1.0], repeat=n):
            total += np.linalg.svd((a * np.array(signs)) @ a.T, compute_uv=False)[0] ** p
        want = (total / 2 ** n) ** (1.0 / p)
    assert got == pytest.approx(want, rel=1e-12)


_LAYER_MODELS = [Bernoulli(6, 0.3), UniformK(6, 2), BernoulliPair(4, 0.4), RademacherSigns(7)]


class TestPatternLayer:
    @pytest.mark.parametrize("model", _LAYER_MODELS)
    def test_exact_weights_sum_to_one(self, model):
        patterns, weights = moments.exact_patterns(model)
        assert all(p.shape == (weights.size, model.n) for p in patterns)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        _LAYER_MODELS + [Bernoulli(24, 0.3), UniformK(24, 5), BernoulliPair(24, 0.2),
                         RademacherSigns(24)],
    )
    def test_sampled_counts_sum_to_trials(self, model):
        trials = 500
        patterns, counts = moments.sampled_patterns(model, Seed(3).rng("layer"), trials)
        assert int(np.sum(counts)) == trials
        assert all(p.shape == (counts.size, model.n) for p in patterns)
        if model.n <= 20:
            assert counts.size < trials  # deduped
        else:
            assert np.all(counts == 1)


class TestPatternNormReuse:
    """`exact_pattern_values` reuses the last matrix's pattern norms."""

    @staticmethod
    def _fresh(a, model):
        if isinstance(model, BernoulliPair):
            return moments.pair_space_norms(a.data)
        return moments.pattern_norms(a.data, model, moments.exact_patterns(model)[0])

    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(moments, "_last_norms", None)
        calls = []
        real, real_pair = moments.pattern_norms, moments.pair_space_norms

        def counting(a, model, patterns):
            calls.append(model)
            return real(a, model, patterns)

        def counting_pair(a):
            calls.append("pair")
            return real_pair(a)

        monkeypatch.setattr(moments, "pattern_norms", counting)
        monkeypatch.setattr(moments, "pair_space_norms", counting_pair)
        return calls

    @pytest.mark.parametrize("model", _LAYER_MODELS)
    def test_cold_and_warm_calls_bitwise_equal(self, counted, rng, model):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (model.n, model.n)))
        cold, w_cold = moments.exact_pattern_values(a, model)
        cold_est = exact_moment(a, model, 4.0)
        warm, w_warm = moments.exact_pattern_values(a, model)
        assert len(counted) == 1
        assert warm is cold and np.array_equal(w_cold, w_warm)
        assert np.array_equal(warm, self._fresh(a, model))
        assert exact_moment(a, model, 4.0).value == cold_est.value

    def test_rate_and_p_share_one_enumeration(self, counted, rng):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (7, 7)))
        for rate in (0.0, 0.2, 0.7, 1.0):
            for p in (2.0, 5.0):
                exact_moment(a, Bernoulli(7, rate), p)
        assert len(counted) == 1

    @pytest.mark.parametrize("case", ["entries", "uniform_k", "signs", "mutated"])
    def test_no_stale_hit(self, counted, rng, case):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (6, 6)))
        first, second = Bernoulli(6, 0.3), Bernoulli(6, 0.3)
        b = a
        if case == "entries":
            b = DenseMatrix(rng.uniform(-1.0, 1.0, (6, 6)))
        elif case == "uniform_k":
            first, second = UniformK(6, 2), UniformK(6, 3)
        elif case == "signs":
            second = RademacherSigns(6)
        moments.exact_pattern_values(a, first)
        if case == "mutated":  # the key is the bytes, not the object
            a.data.flags.writeable = True
            a.data[2, 3] += 0.5
        values, weights = moments.exact_pattern_values(b, second)
        assert len(counted) == 2
        assert values.shape == weights.shape
        assert np.array_equal(values, self._fresh(b, second))

    def test_values_are_read_only(self, rng):
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (5, 5)))
        values, _ = moments.exact_pattern_values(a, Bernoulli(5, 0.4))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


def _pair_case(rng, n, kind):
    a = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "hollow":
        np.fill_diagonal(a, 0.0)
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "rank_one":
        a = np.outer(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
    elif kind == "tiny":
        a *= 1e-160
    elif kind == "huge":
        a *= 1e150
    elif kind == "vast":  # squares overflow without the power-of-two prescale
        a *= 1e200
    elif kind == "mixed":  # one block far below the rest
        h = max(1, n // 2)
        a[:h, :h] *= 1e-200
    return a


class TestPairSpaceNorms:
    """`pair_space_norms` against the gathered-submatrix SVD of every pattern."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "kind", ["random", "hollow", "zero", "rank_one", "tiny", "huge", "vast", "mixed"]
    )
    def test_matches_gathered_svd(self, rng, n, kind):
        a = _pair_case(rng, n, kind)
        rows, cols = moments.exact_patterns(BernoulliPair(n, 0.5))[0]
        want = masked_norms(a, rows, cols)  # one SVD per gathered submatrix
        got = moments.pair_space_norms(a)
        assert got.shape == want.shape
        assert np.all(got[want == 0.0] == 0.0)
        nz = want != 0.0
        assert np.all(np.abs(got[nz] - want[nz]) <= 1e-13 * want[nz])
        empty = (rows.sum(axis=1) == 0) | (cols.sum(axis=1) == 0)
        assert np.all(got[empty] == 0.0)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_each_pattern_is_its_submatrix_norm(self, rng, n):
        a = rng.uniform(-1.0, 1.0, (n, n))
        got = moments.pair_space_norms(a)
        size = 1 << n
        for s_code in range(size):
            for t_code in range(size):
                s = [i for i in range(n) if s_code >> i & 1]
                t = [j for j in range(n) if t_code >> j & 1]
                sub = a[np.ix_(s, t)]
                want = np.linalg.svd(sub, compute_uv=False)[0] if s and t else 0.0
                assert got[s_code * size + t_code] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mixed_range_block_is_not_lost(self, rng):
        a = _pair_case(rng, 6, "mixed")
        got = moments.pair_space_norms(a).reshape(64, 64)
        inner = a[:3, :3]
        assert got[0b111, 0b111] == pytest.approx(
            np.linalg.svd(inner, compute_uv=False)[0], rel=1e-13
        )
        assert 1e-201 < got[0b111, 0b111] < 1e-199

    @pytest.mark.parametrize("kind", ["tiny", "vast"])
    def test_scaled_matrices_need_no_fallback(self, monkeypatch, rng, kind):
        a = _pair_case(rng, 6, kind)
        want = moments.pair_space_norms(a / np.abs(a).max()) * np.abs(a).max()
        monkeypatch.setattr(moments, "masked_norms", None)
        got = moments.pair_space_norms(a)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_kernel_is_chosen_by_model(self, monkeypatch, rng):
        a = rng.uniform(-1.0, 1.0, (5, 5))
        model = BernoulliPair(5, 0.3)
        rows, cols = moments.exact_patterns(model)[0]
        layouts = [(rows, cols), (rows[::-1], cols[::-1]), (rows, cols[::-1]), (rows[::-1], cols)]
        for part in layouts:  # patterns alone never select the pair kernel
            assert np.array_equal(
                moments.pattern_norms(a, model, part), masked_norms(a, *part)
            )
        monkeypatch.setattr(moments, "_last_norms", None)
        values, _ = moments.exact_pattern_values(DenseMatrix(a), model)
        assert np.array_equal(values, moments.pair_space_norms(a))

    def test_cold_exact_pair_call_builds_no_pair_rows(self, monkeypatch, rng):
        monkeypatch.setattr(moments, "_last_norms", None)
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (8, 8)))
        tracemalloc.start()
        try:
            moments.exact_pattern_values(a, BernoulliPair(8, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # the two 4^8 x 8 float64 pair mask arrays take 8.4 MB

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_exact_moment_matches_brute_force(self, rng, n):
        a = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        got = exact_moment(DenseMatrix(a), BernoulliPair(n, 0.4), 4.0).value
        assert got == pytest.approx(brute_force_pair_moment(a, 0.4, 4.0), rel=1e-12)

    def test_bitwise_at_batch_one(self, monkeypatch, rng):
        a = rng.uniform(-1.0, 1.0, (7, 7))
        default = moments.pair_space_norms(a)
        monkeypatch.setattr(moments, "_BATCH", 1)
        assert np.array_equal(default, moments.pair_space_norms(a))

    def test_cold_and_warm_bitwise_equal_and_warm_skips_enumeration(self, monkeypatch, rng):
        monkeypatch.setattr(moments, "_last_norms", None)
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (7, 7)))
        cold, w_cold = moments.exact_pattern_values(a, BernoulliPair(7, 0.3))
        cold_est = exact_moment(a, BernoulliPair(7, 0.3), 6.0).value
        spaces = []
        real = moments._exact_space
        monkeypatch.setattr(
            moments, "_exact_space", lambda model: spaces.append(model) or real(model)
        )
        warm, w_warm = moments.exact_pattern_values(a, BernoulliPair(7, 0.3))
        _, w_other = moments.exact_pattern_values(a, BernoulliPair(7, 0.6))
        assert spaces == []
        assert warm is cold and np.array_equal(w_cold, w_warm)
        assert exact_moment(a, BernoulliPair(7, 0.3), 6.0).value == cold_est
        assert np.array_equal(w_other, moments.exact_patterns(BernoulliPair(7, 0.6))[1])


class TestWarmWeights:
    """A warm hit builds the weights alone, bitwise equal to a fresh build."""

    @pytest.mark.parametrize("model", _LAYER_MODELS + [Bernoulli(6, 0.0), Bernoulli(6, 1.0)])
    def test_weights_match_exact_patterns(self, monkeypatch, rng, model):
        monkeypatch.setattr(moments, "_last_norms", None)
        a = DenseMatrix(rng.uniform(-1.0, 1.0, (model.n, model.n)))
        want = moments.exact_patterns(model)[1]
        moments.exact_pattern_values(a, model)
        monkeypatch.setattr(moments, "_exact_space", None)  # a warm hit must not enumerate
        _, weights = moments.exact_pattern_values(a, model)
        assert np.array_equal(weights, want)

    def test_pair_weights_are_products_of_one_side(self):
        n, rate = 5, 0.3
        w1 = moments.bernoulli_weights(moments.mask_bits(n), rate)
        reps, tile = np.repeat(np.arange(1 << n), 1 << n), np.tile(np.arange(1 << n), 1 << n)
        assert np.array_equal(
            moments.exact_patterns(BernoulliPair(n, rate))[1], w1[reps] * w1[tile]
        )
