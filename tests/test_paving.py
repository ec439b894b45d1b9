import tracemalloc

import numpy as np
import pytest

import pavelab.paving
from pavelab import (
    CapacityError,
    DenseMatrix,
    ParameterError,
    Partition,
    Seed,
    UniformK,
    exact_moment,
    exhaustive_pave,
    pad_to_multiple,
    paving_quality,
    random_pave,
    restrict,
    spectral_norm,
    verify_paving,
)
from pavelab.matrices import CoordinateSet
from pavelab.paving import balanced_partition_count

from .oracles import all_set_partitions


def _hollow(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    np.fill_diagonal(m, 0.0)
    return DenseMatrix(m)


class TestRandomPave:
    def test_single_block_equals_spectral_norm(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        res = random_pave(a, 1, 5, Seed(1))
        assert res.quality == spectral_norm(a)
        assert res.partition == Partition.single_block(6)

    def test_hollow_singletons_zero(self, rng):
        a = _hollow(rng, 6)
        assert random_pave(a, 6, 3, Seed(1)).quality == 0.0

    def test_rejects_non_divisor(self):
        with pytest.raises(ParameterError):
            random_pave(DenseMatrix.identity(5), 2, 10, Seed(0))

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            random_pave(DenseMatrix.identity(4), 2, 0, Seed(0))

    @pytest.mark.parametrize("m", [1, 2])
    def test_rejects_empty_matrix(self, m):
        with pytest.raises(ParameterError, match="nonempty"):
            random_pave(DenseMatrix.zeros(0), m, 3, Seed(0))

    def test_deterministic(self, rng):
        a = _hollow(rng, 8)
        r1 = random_pave(a, 2, 50, Seed(13))
        r2 = random_pave(a, 2, 50, Seed(13))
        assert r1.quality == r2.quality and r1.partition == r2.partition

    def test_quality_nonincreasing_in_trials(self, rng):
        a = _hollow(rng, 8)
        qualities = [random_pave(a, 2, t, Seed(21)).quality for t in (1, 5, 25, 125)]
        assert all(u >= v - 1e-15 for u, v in zip(qualities, qualities[1:]))

    def test_quality_recheckable(self, rng):
        a = _hollow(rng, 8)
        res = random_pave(a, 4, 30, Seed(3))
        assert res.quality == paving_quality(a, res.partition)
        assert res.quality <= spectral_norm(a) + 1e-12

    @pytest.mark.parametrize("n, m", [(8, 4), (12, 3), (64, 8)])
    def test_quality_taken_from_the_search(self, monkeypatch, rng, n, m):
        """Both engines report the winning trial's quality as computed in the
        search, bitwise equal to refactoring its blocks."""
        a = DenseMatrix(rng.uniform(-1, 1, (n, n)))

        def refactor(*args):
            raise AssertionError("paving engine refactored the best partition")

        monkeypatch.setattr(pavelab.paving, "paving_quality", refactor, raising=False)
        results = [random_pave(a, m, 20, Seed(4))]
        if n <= 8:
            results.append(exhaustive_pave(a, m))
        for res in results:
            assert type(res.quality) is float
            assert res.quality == paving_quality(a, res.partition)

    def test_memory_is_bounded_in_trials(self):
        """Trials are drawn and scored in rounds, so 20,000 trials at n = 64
        never hold all 160,000 block masks (and their keys) at once."""
        a = DenseMatrix(np.random.default_rng(3).uniform(-1, 1, (64, 64)))
        tracemalloc.start()
        try:
            random_pave(a, 8, 20_000, Seed(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_transpose_same_quality(self, rng):
        a = _hollow(rng, 6)
        res = random_pave(a, 2, 40, Seed(5))
        assert paving_quality(a.transpose(), res.partition) == pytest.approx(
            res.quality, abs=1e-12
        )


class TestExhaustivePave:
    def test_two_by_two_swap(self):
        a = DenseMatrix([[0.0, 1.0], [1.0, 0.0]])
        res = exhaustive_pave(a, 2)
        assert res.quality == 0.0
        assert res.partition == Partition.singletons(2)

    def test_diagonal_is_partition_invariant(self):
        a = DenseMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        res = exhaustive_pave(a, 2, balanced_only=True)
        assert res.quality == 4.0

    def test_balanced_count_8x8(self, rng):
        res = exhaustive_pave(_hollow(rng, 8), 2)
        assert res.trials_used == 35  # C(8,4)/2

    def test_regression_fixture(self):
        rng = Seed(71).rng("fixture:paving", 0)
        m = rng.uniform(-1.0, 1.0, size=(8, 8))
        np.fill_diagonal(m, 0.0)
        res = exhaustive_pave(DenseMatrix(m), 2)
        assert res.quality == pytest.approx(1.302474177025342, abs=1e-12)
        assert [b.indices for b in res.partition.blocks] == [(0, 1, 2, 4), (3, 5, 6, 7)]

    def test_unbalanced_matches_reference_enumeration(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        res = exhaustive_pave(a, 2, balanced_only=False)
        best = min(
            max(
                spectral_norm(restrict(a, CoordinateSet.from_iterable(5, b),
                                       CoordinateSet.from_iterable(5, b)))
                for b in part
            )
            for part in all_set_partitions(5, 2)
        )
        assert res.quality == pytest.approx(best, abs=1e-12)
        assert res.trials_used == 15  # S(5, 2)

    def test_capacity_errors_carry_counts(self):
        with pytest.raises(CapacityError) as exc:
            exhaustive_pave(DenseMatrix.zeros(14), 2, balanced_only=True)
        assert str(balanced_partition_count(14, 2)) in str(exc.value)
        with pytest.raises(CapacityError):
            exhaustive_pave(DenseMatrix.zeros(12), 2, balanced_only=False)

    def test_oracle_dominance(self, rng):
        a = _hollow(rng, 6)
        opt = exhaustive_pave(a, 3).quality
        for trials in (1, 10, 100):
            assert random_pave(a, 3, trials, Seed(2)).quality >= opt - 1e-15

    def test_random_hits_optimum_with_many_trials(self, rng):
        # 15 balanced 3-partitions of 6 coordinates; 2000 draws cover them
        a = _hollow(rng, 6)
        opt = exhaustive_pave(a, 3).quality
        got = random_pave(a, 3, 2000, Seed(4)).quality
        assert got == pytest.approx(opt, abs=1e-12)


class TestExhaustiveAgainstOracle:
    """Both exhaustive classes against `all_set_partitions`, every n <= 8 and m."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sweep(self, rng, n):
        a = DenseMatrix(rng.uniform(-1, 1, (n, n)))
        for m in range(1, n + 1):
            oracle = list(all_set_partitions(n, m))
            quality = {p: paving_quality(a, Partition.from_blocks(n, p)) for p in oracle}
            classes = [(False, None, oracle)]
            if n % m == 0:
                k = n // m
                classes.append((True, k, [p for p in oracle if {len(b) for b in p} == {k}]))
            for balanced_only, size, parts in classes:
                keys = [
                    tuple(b.indices for b in Partition.from_labels(row).blocks)
                    for row in pavelab.paving._partition_labels(n, m, size)
                ]
                # the oracle's partitions are distinct, so this is each once
                assert sorted(keys) == sorted(parts)
                res = exhaustive_pave(a, m, balanced_only=balanced_only)
                assert res.trials_used == len(parts)
                assert res.quality == min(quality[p] for p in parts)


class TestPadToMultiple:
    def test_no_padding_needed(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        assert pad_to_multiple(a, 2) is a

    def test_pads_with_zeros(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        padded = pad_to_multiple(a, 2)
        assert padded.shape == (6, 6)
        assert np.array_equal(padded.data[:5, :5], a.data)
        assert np.all(padded.data[5, :] == 0.0) and np.all(padded.data[:, 5] == 0.0)
        assert spectral_norm(padded) == pytest.approx(spectral_norm(a), abs=1e-12)

    def test_restricted_paving_no_worse(self, rng):
        # dropping padded coordinates from the blocks cannot raise the quality
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        padded = pad_to_multiple(a, 3)
        res = random_pave(padded, 3, 20, Seed(6))
        blocks = [
            [i for i in b.indices if i < 5] for b in res.partition.blocks
        ]
        part = Partition.from_blocks(5, [b for b in blocks if b])
        assert paving_quality(a, part) <= res.quality + 1e-12


class TestVerifyPaving:
    def test_hollow_singletons_any_eps(self, rng):
        a = _hollow(rng, 5)
        check = verify_paving(a, Partition.singletons(5), 1e-9)
        assert check.holds and check.quality == 0.0

    def test_one_block_equality(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        check = verify_paving(a, Partition.single_block(4), 1.0)
        assert check.holds and check.quality == check.threshold

    def test_exhaustive_optimum_with_slack(self, rng):
        a = _hollow(rng, 8)
        res = exhaustive_pave(a, 2)
        eps = res.quality / spectral_norm(a) + 1e-9
        assert verify_paving(a, res.partition, eps).holds

    @pytest.mark.parametrize("eps", [0.0, -0.0, -1.0, float("nan")])
    def test_nonpositive_eps_raises(self, rng, eps):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        with pytest.raises(ParameterError, match="eps must be positive"):
            verify_paving(a, Partition.single_block(4), eps)

    def test_report_carries_both_sides(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        check = verify_paving(a, Partition.single_block(4), 0.5)
        assert check.threshold == pytest.approx(0.5 * check.norm)
        assert not check.holds and not bool(check)


@pytest.mark.parametrize("m,p", [(2, 2.0), (2, 4.0), (4, 2.0), (4, 4.0)])
def test_moment_to_paving_bridge(rng, m, p):
    # if the exact uniform-k moment is eps, some balanced partition achieves
    # m^(1/p) eps <= 3 eps, so the exhaustive optimum does too
    n = 8
    for _ in range(5):
        raw = rng.uniform(-1, 1, (n, n))
        np.fill_diagonal(raw, 0.0)
        a = DenseMatrix(raw)
        eps = exact_moment(a, UniformK(n, n // m), p).value
        assert m ** (1.0 / p) <= 3.0
        assert exhaustive_pave(a, m).quality <= 3.0 * eps + 1e-12


_WIDE = DenseMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: random_pave(_WIDE, 1, 1, Seed(0)), "paving needs a square matrix"),
    (lambda: exhaustive_pave(_WIDE, 1), "paving needs a square matrix"),
    (lambda: exhaustive_pave(DenseMatrix.identity(4), 0), "need 1 <= m <= n, got m=0"),
    (lambda: exhaustive_pave(DenseMatrix.identity(4), 5), "need 1 <= m <= n, got m=5"),
    (lambda: exhaustive_pave(DenseMatrix.identity(4), 3),
     "balanced paving needs m | n, got m=3, n=4"),
    (lambda: pad_to_multiple(_WIDE, 2), "padding needs a square matrix"),
    (lambda: pad_to_multiple(DenseMatrix.identity(4), 0), "m must be positive"),
], ids=["random-wide", "exhaustive-wide", "exhaustive-m-0", "exhaustive-m-past-n",
        "exhaustive-m-not-dividing", "pad-wide", "pad-m-0"])
def test_refusals(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert type(exc.value) is ParameterError and str(exc.value) == message
