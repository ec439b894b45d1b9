import math
import sys

import numpy as np
import pytest
from scipy import stats

from pavelab import (
    Bernoulli,
    BernoulliPair,
    CoordinateSet,
    DenseMatrix,
    ParameterError,
    RademacherSigns,
    Seed,
    UniformK,
    binomial_median_bracket,
    gen_ensemble,
    max_abs_entry,
    mc_moment,
    parse_seed,
    sample_permutation_partition,
    sample_subset,
    spectral_norm,
)
from pavelab import sampling
from pavelab.sampling import binomial_median_set, draw_patterns

CHI2_ALPHA = 1e-3


class TestSeed:
    def test_parse_decimal_and_hex(self):
        assert parse_seed("123").master == 123
        assert parse_seed("0xDEADBEEF").master == 0xDEADBEEF

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_seed("not-a-seed")

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Seed(-1)
        with pytest.raises(ParameterError):
            Seed(1 << 64)

    def test_streams_reproduce_bitwise(self):
        a = Seed(99).rng("label", 7).random(100)
        b = Seed(99).rng("label", 7).random(100)
        assert np.array_equal(a, b)

    def test_streams_differ_by_label_and_index(self):
        base = Seed(99).rng("label", 7).random(4)
        assert not np.array_equal(base, Seed(99).rng("label", 8).random(4))
        assert not np.array_equal(base, Seed(99).rng("other", 7).random(4))

    def test_negative_index_rejected_on_every_stream(self):
        with pytest.raises(ParameterError, match="stream index"):
            Seed(1).rng("label", -1)
        with pytest.raises(ParameterError, match="stream index"):
            gen_ensemble("sign_normalized", 4, Seed(1), index=-1)
        with pytest.raises(ParameterError, match="stream index"):
            sample_subset(Bernoulli(4, 0.5), Seed(1), index=-1)
        with pytest.raises(ParameterError, match="stream index"):
            mc_moment(DenseMatrix(np.eye(4)), Bernoulli(4, 0.5), 2.0, 10, Seed(1), index=-1)


class TestSampleSubset:
    def test_uniform_k_full(self):
        for seed in (0, 1, 2):
            got = sample_subset(UniformK(5, 5), Seed(seed))
            assert got == CoordinateSet.full(5)

    def test_bernoulli_degenerate_rates(self):
        assert sample_subset(Bernoulli(6, 0.0), Seed(3)) == CoordinateSet.empty(6)
        assert sample_subset(Bernoulli(6, 1.0), Seed(3)) == CoordinateSet.full(6)

    def test_uniform_k_cardinality(self):
        for i in range(200):
            assert sample_subset(UniformK(9, 4), Seed(5), i).size == 4

    def test_determinism(self):
        a = sample_subset(Bernoulli(8, 0.4), Seed(11), 3)
        b = sample_subset(Bernoulli(8, 0.4), Seed(11), 3)
        assert a == b

    def test_rademacher_values(self):
        signs = sample_subset(RademacherSigns(10), Seed(2))
        assert set(np.unique(signs)) <= {-1, 1}
        assert len(signs) == 10

    def test_bernoulli_frequency_and_pattern_law(self):
        n, rate, draws = 6, 0.3, 10 ** 5
        counts = np.zeros(n)
        pattern_counts = np.zeros(1 << n)
        seed = Seed(314)
        for i in range(draws):
            s = sample_subset(Bernoulli(n, rate), seed, i)
            code = 0
            for j in s.indices:
                counts[j] += 1
                code |= 1 << j
            pattern_counts[code] += 1
        se = math.sqrt(rate * (1 - rate) / draws)
        assert np.all(np.abs(counts / draws - rate) < 4 * se)
        probs = np.array(
            [
                rate ** bin(c).count("1") * (1 - rate) ** (n - bin(c).count("1"))
                for c in range(1 << n)
            ]
        )
        chi2 = np.sum((pattern_counts - draws * probs) ** 2 / (draws * probs))
        assert chi2 < stats.chi2.ppf(1 - CHI2_ALPHA, (1 << n) - 1)

    def test_bernoulli_pair_independence(self):
        n, rate, draws = 6, 0.4, 2 * 10 ** 4
        joint = np.zeros((n, 4))
        seed = Seed(2718)
        for i in range(draws):
            rows, cols = sample_subset(BernoulliPair(n, rate), seed, i)
            rmask, cmask = rows.mask(), cols.mask()
            for j in range(n):
                joint[j, 2 * int(rmask[j]) + int(cmask[j])] += 1
        probs = np.array(
            [(1 - rate) ** 2, (1 - rate) * rate, rate * (1 - rate), rate ** 2]
        )
        crit = stats.chi2.ppf(1 - CHI2_ALPHA, 3)
        for j in range(n):
            chi2 = np.sum((joint[j] - draws * probs) ** 2 / (draws * probs))
            assert chi2 < crit


class TestSingleDrawIsBatchOfOne:
    @pytest.mark.parametrize(
        "model", [Bernoulli(9, 0.3), BernoulliPair(7, 0.4), RademacherSigns(10)]
    )
    def test_sample_subset_is_row_zero_of_draw_patterns(self, model):
        for index in range(20):
            got = sample_subset(model, Seed(5), index)
            rng = Seed(5).rng(sampling._model_label(model), index)
            rows = [m[0] for m in draw_patterns(model, rng, 1)]
            if isinstance(model, RademacherSigns):
                assert np.array_equal(got, np.where(rows[0], 1, -1))
            else:
                sets = got if isinstance(model, BernoulliPair) else (got,)
                assert len(sets) == len(rows)
                assert all(np.array_equal(s.mask(), r) for s, r in zip(sets, rows))

    def test_uniform_k_single_draw_law(self):
        from itertools import combinations

        n, k, draws = 6, 2, 3 * 10 ** 4
        index_of = {c: i for i, c in enumerate(combinations(range(n), k))}
        counts = np.zeros(len(index_of))
        for i in range(draws):
            counts[index_of[sample_subset(UniformK(n, k), Seed(271), i).indices]] += 1
        expected = draws / len(index_of)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(1 - CHI2_ALPHA, len(index_of) - 1)


class TestPermutationPartition:
    def test_single_block(self):
        part = sample_permutation_partition(6, 1, Seed(0))
        assert part.m == 1 and part.blocks[0] == CoordinateSet.full(6)

    def test_singletons(self):
        part = sample_permutation_partition(5, 5, Seed(0))
        assert part.m == 5 and all(b.size == 1 for b in part.blocks)

    def test_rejects_non_divisor(self):
        with pytest.raises(ParameterError):
            sample_permutation_partition(6, 4, Seed(0))

    def test_block_marginal_is_uniform_k_subset(self):
        # each block is marginally uniform over C(6,2); sampling the block at
        # canonical position i % m (independent of content) realizes exactly
        # that marginal because every 2-set occupies one canonical slot
        n, m, draws = 6, 3, 10 ** 5
        from itertools import combinations

        index_of = {c: i for i, c in enumerate(combinations(range(n), 2))}
        counts = np.zeros(len(index_of))
        seed = Seed(1618)
        for i in range(draws):
            part = sample_permutation_partition(n, m, seed, i)
            counts[index_of[part.blocks[i % m].indices]] += 1
        expected = draws / len(index_of)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(1 - CHI2_ALPHA, len(index_of) - 1)


class TestBinomialMedian:
    def test_half_rate_two(self):
        assert binomial_median_bracket(2, 0.5) == (1, 1)

    def test_degenerate_full(self):
        assert binomial_median_bracket(1, 1.0) == (1, 1)

    def test_bracket_sweep_up_to_30(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                lower, upper = binomial_median_bracket(n, k / n)
                assert k - 1 <= lower <= upper <= k

    def test_rejects_zero_k(self):
        with pytest.raises(ParameterError):
            binomial_median_bracket(5, 0.0)

    def test_rejects_non_integer_k(self):
        with pytest.raises(ParameterError):
            binomial_median_bracket(5, 0.3)

    def test_median_set_matches_definition(self):
        # P(X <= lo) >= 1/2 and P(X >= hi) >= 1/2, tight on both sides
        lo, hi = binomial_median_set(7, 3)
        dist = stats.binom(7, 3 / 7)
        assert dist.cdf(lo) >= 0.5 and (1 - dist.cdf(hi - 1)) >= 0.5
        if lo > 0:
            assert dist.cdf(lo - 1) < 0.5


class TestEnsembles:
    def test_hadamard_2(self):
        a = gen_ensemble("hadamard", 2, Seed(0))
        r = 1 / math.sqrt(2)
        assert np.allclose(a.data, [[r, r], [r, -r]], atol=0, rtol=0)
        assert spectral_norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            gen_ensemble("hadamard", 3, Seed(0))
        with pytest.raises(ParameterError):
            gen_ensemble("hadamard_hollow", 6, Seed(0))

    def test_hadamard_hollow(self):
        a = gen_ensemble("hadamard_hollow", 8, Seed(0))
        assert all(a.data[i, i] == 0.0 for i in range(8))
        off = a.data[~np.eye(8, dtype=bool)]
        assert np.all(np.abs(off) == pytest.approx(8 ** -0.5))

    def test_sign_normalized_unit_norm(self):
        a = gen_ensemble("sign_normalized", 12, Seed(7))
        assert abs(spectral_norm(a) - 1.0) <= 1e-12

    def test_bounded_random(self):
        a = gen_ensemble("bounded_random", 16, Seed(3), mu=0.2)
        assert max_abs_entry(a) <= 0.2
        assert spectral_norm(a) <= 1.0 + 1e-12

    def test_bounded_random_needs_mu(self):
        with pytest.raises(ParameterError):
            gen_ensemble("bounded_random", 4, Seed(0))

    @pytest.mark.parametrize("mu", [1e308, math.nextafter(sys.float_info.max / 2, math.inf)])
    def test_bounded_random_needs_finite_width(self, mu):
        """rng.uniform(-mu, mu) needs 2 * mu finite; past that it would raise
        OverflowError, which is no pavelab error."""
        with pytest.raises(ParameterError, match=r"2 \* mu finite"):
            gen_ensemble("bounded_random", 4, Seed(0), mu=mu)

    def test_bounded_random_widest_mu(self):
        a = gen_ensemble("bounded_random", 1, Seed(0), mu=sys.float_info.max / 2)
        assert abs(a.data[0, 0]) == 1.0

    def test_diagonal_free(self):
        a = gen_ensemble("diagonal_free_random", 9, Seed(5))
        assert all(a.data[i, i] == 0.0 for i in range(9))
        assert spectral_norm(a) <= 1.0 + 1e-12

    def test_determinism(self):
        a = gen_ensemble("sign_normalized", 8, Seed(42), index=3)
        b = gen_ensemble("sign_normalized", 8, Seed(42), index=3)
        assert a.same_entries(b)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            gen_ensemble("mystery", 4, Seed(0))
