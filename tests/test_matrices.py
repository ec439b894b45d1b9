import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelab import (
    CoordinateSet,
    DenseMatrix,
    DimensionError,
    ParameterError,
    Partition,
    hollow_rescale,
    max_abs_entry,
    max_column_norm,
    paving_quality,
    restrict,
    schatten_norm,
    spectral_norm,
)

from pavelab.matrices import block_norms, top_eigenvalues
from pavelab.moments import masked_norms

from .conftest import square_matrices
from .oracles import (
    above_every_eigenvalue,
    jacobi_schatten_norm,
    jacobi_singular_values,
    jacobi_spectral_norm,
)


class TestDenseMatrix:
    def test_from_entries_shape_mismatch(self):
        with pytest.raises(DimensionError):
            DenseMatrix.from_entries(2, 2, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            DenseMatrix([[0.0, float("nan")], [0.0, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ParameterError):
            DenseMatrix([[float("inf")]])

    def test_entries_row_major(self):
        a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert list(a.entries) == [1.0, 2.0, 3.0, 4.0]
        assert a.n_rows == a.n_cols == 2

    def test_immutable(self):
        a = DenseMatrix([[1.0]])
        with pytest.raises(ValueError):
            a.data[0, 0] = 2.0

    def test_copies_the_callers_array(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = DenseMatrix(arr)
        arr[0, 0] = 9.0
        assert a.data[0, 0] == 1.0 and arr.flags.writeable

    def test_adopt_freezes_the_array_in_place(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = DenseMatrix._adopt(arr)
        assert a.data is arr and not arr.flags.writeable

    @pytest.mark.parametrize("arr, error", [
        (np.zeros(3), DimensionError),
        (np.array([[0.0, np.nan]]), ParameterError),
        (np.array([[np.inf]]), ParameterError),
    ])
    def test_adopt_checks_like_the_constructor(self, arr, error):
        with pytest.raises(error):
            DenseMatrix._adopt(arr)
        assert arr.flags.writeable


class TestCoordinateSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            CoordinateSet(4, (1, 1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            CoordinateSet(4, (0, 4))

    def test_from_iterable_sorts(self):
        s = CoordinateSet.from_iterable(5, [3, 0, 2])
        assert s.indices == (0, 2, 3)
        assert s.size == 3
        assert list(s.mask()) == [True, False, True, True, False]


class TestPartition:
    def test_must_cover(self):
        with pytest.raises(ParameterError):
            Partition.from_blocks(3, [[0], [1]])

    def test_must_be_disjoint(self):
        with pytest.raises(ParameterError):
            Partition.from_blocks(3, [[0, 1], [1, 2]])

    def test_canonical_block_order(self):
        p1 = Partition.from_blocks(4, [[2, 3], [0, 1]])
        p2 = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert p1 == p2
        assert p1.blocks[0].indices == (0, 1)

    def test_balanced_flag(self):
        assert Partition.from_blocks(4, [[0, 1], [2, 3]]).balanced
        assert not Partition.from_blocks(3, [[0], [1, 2]]).balanced

    def test_rejects_empty_block(self):
        with pytest.raises(ParameterError):
            Partition(2, (CoordinateSet.full(2), CoordinateSet.empty(2)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(DenseMatrix.identity(3)) == 1.0

    def test_rank_one(self):
        assert spectral_norm(DenseMatrix([[0.0, 2.0], [0.0, 0.0]])) == 2.0

    def test_empty_is_zero(self):
        assert spectral_norm(DenseMatrix.zeros(0, 0)) == 0.0

    def test_overflow_raises(self):
        signs = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
        assert spectral_norm(DenseMatrix(1e307 * signs)) == pytest.approx(2e307)
        with pytest.raises(ParameterError, match="3 x 3 matrix overflows float64"):
            spectral_norm(DenseMatrix(1e308 * signs))

    def test_matches_jacobi_oracle(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        assert spectral_norm(a) == pytest.approx(jacobi_spectral_norm(a.data), abs=1e-10)

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariant(self, a):
        assert spectral_norm(a.transpose()) == pytest.approx(spectral_norm(a), abs=1e-12)


class TestSchattenNorm:
    def test_diagonal_frobenius(self):
        assert schatten_norm(DenseMatrix([[3.0, 0.0], [0.0, 4.0]]), 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 6.0])
    def test_identity(self, p):
        n = 4
        assert schatten_norm(DenseMatrix.identity(n), p) == pytest.approx(n ** (1.0 / p))

    def test_matches_jacobi_oracle(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        assert schatten_norm(a, 4) == pytest.approx(jacobi_schatten_norm(a.data, 4), abs=1e-9)

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            schatten_norm(DenseMatrix.identity(2), 0.5)


class TestEntrywiseNorms:
    def test_max_column_norm_identity(self):
        assert max_column_norm(DenseMatrix.identity(3)) == 1.0

    def test_max_column_norm_345(self):
        assert max_column_norm(DenseMatrix([[3.0, 0.0], [4.0, 0.0]])) == 5.0

    def test_max_column_norm_equals_direct_scan(self, rng):
        a = DenseMatrix(rng.uniform(-2, 2, (8, 8)))
        direct = max(
            math.sqrt(sum(a.data[i, j] ** 2 for i in range(8))) for j in range(8)
        )
        assert max_column_norm(a) == pytest.approx(direct, abs=0.0)

    def test_max_abs_entry(self):
        assert max_abs_entry(DenseMatrix.zeros(3)) == 0.0
        assert max_abs_entry(DenseMatrix([[-7.0, 1.0], [0.0, 2.0]])) == 7.0

    def test_max_abs_entry_equals_scan(self, rng):
        a = DenseMatrix(rng.uniform(-5, 5, (6, 4)))
        assert max_abs_entry(a) == max(abs(v) for v in a.entries)


class TestHollowRescale:
    def test_identity_becomes_zero(self):
        b = hollow_rescale(DenseMatrix.identity(3), 1.0)
        assert np.array_equal(b.data, np.zeros((3, 3)))

    def test_direct_formula(self):
        b = hollow_rescale(DenseMatrix([[0.5, 0.2], [0.3, 0.5]]), 0.5)
        expect = np.array([[0.0, 0.2 / 1.5], [0.3 / 1.5, 0.0]])
        assert np.array_equal(b.data, expect)

    def test_postconditions_on_random_input(self, rng):
        mu = 0.3
        raw = rng.uniform(-mu, mu, (7, 7))
        raw /= max(1.0, np.linalg.norm(raw, 2))
        a = DenseMatrix(raw)
        b = hollow_rescale(a, mu)
        assert all(b.data[i, i] == 0.0 for i in range(7))  # bitwise zero diagonal
        assert spectral_norm(b) <= 1.0
        assert max_abs_entry(b) < mu

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            hollow_rescale(DenseMatrix.zeros(2, 3), 0.5)

    def test_requires_positive_mu(self):
        with pytest.raises(ParameterError):
            hollow_rescale(DenseMatrix.identity(2), 0.0)


class TestRestrict:
    def test_full_restriction_is_identity_op(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        r = restrict(a, CoordinateSet.full(4), CoordinateSet.full(4))
        assert r.same_entries(a)

    def test_empty_restriction_norm_zero(self):
        a = DenseMatrix.identity(3)
        r = restrict(a, CoordinateSet.empty(3), CoordinateSet.empty(3))
        assert r.shape == (0, 0)
        assert spectral_norm(r) == 0.0

    def test_matches_zero_padding_oracle(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (4, 4)))
        sigma = CoordinateSet.from_iterable(4, [0, 2])
        padded = a.data * sigma.mask()[:, None] * sigma.mask()[None, :]
        assert spectral_norm(restrict(a, sigma, sigma)) == pytest.approx(
            jacobi_spectral_norm(padded), abs=1e-12
        )

    def test_dimension_mismatch(self):
        a = DenseMatrix.identity(3)
        with pytest.raises(IndexError):
            restrict(a, CoordinateSet.full(4), CoordinateSet.full(3))


class TestPavingQuality:
    def test_hollow_singletons_zero(self, rng):
        m = rng.uniform(-1, 1, (5, 5))
        np.fill_diagonal(m, 0.0)
        assert paving_quality(DenseMatrix(m), Partition.singletons(5)) == 0.0

    def test_one_block_is_spectral_norm(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (5, 5)))
        assert paving_quality(a, Partition.single_block(5)) == spectral_norm(a)

    def test_singletons_pick_max_diagonal(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        got = paving_quality(a, Partition.singletons(6))
        assert got == max(abs(a.data[i, i]) for i in range(6))

    def test_matches_block_diagonal_assembly(self, rng):
        a = DenseMatrix(rng.uniform(-1, 1, (6, 6)))
        part = Partition.from_blocks(6, [[0, 2, 5], [1, 3, 4]])
        assembled = np.zeros((6, 6))
        for b in part.blocks:
            mask = b.mask()
            assembled += a.data * mask[:, None] * mask[None, :]
        assert paving_quality(a, part) == pytest.approx(
            jacobi_spectral_norm(assembled), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            paving_quality(DenseMatrix.identity(3), Partition.singletons(4))

    def test_unequal_blocks_equal_their_masked_norms(self, rng):
        """Each block is normed alone; the max equals the pattern layer's
        norms of the same blocks bit for bit."""
        a = DenseMatrix(rng.uniform(-1, 1, (9, 9)))
        part = Partition.from_blocks(9, [[0, 4], [1, 2, 5, 8], [3], [6, 7]])
        masks = np.array([b.mask() for b in part.blocks])
        assert paving_quality(a, part) == float(np.max(masked_norms(a.data, masks, masks)))


class TestBlockNorms:
    """The one rule for a restricted block: SVD for the whole matrix and for
    min(r, c) > GRAM_MAX_K, the smaller Gram's top eigenvalue otherwise."""

    @staticmethod
    def _no_svd(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("svd called")
        monkeypatch.setattr(np.linalg, "svd", fail)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (9, 4), (64, 64),
                                       (64, 90), (90, 64)])
    def test_proper_blocks_take_the_gram_kernel(self, monkeypatch, rng, shape):
        blocks = rng.uniform(-1, 1, (3, *shape))
        want = [jacobi_spectral_norm(b) for b in blocks]
        self._no_svd(monkeypatch)
        assert block_norms(blocks, False) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape, whole", [((5, 5), True), ((65, 65), False), ((65, 80), False)])
    def test_svd_cases_equal_spectral_norm(self, rng, shape, whole):
        blocks = rng.uniform(-1, 1, (2, *shape))
        got = block_norms(blocks, whole)
        assert [float(v) for v in got] == [spectral_norm(DenseMatrix(b)) for b in blocks]

    def test_whole_matrix_equals_spectral_norm_bit_for_bit(self, rng):
        """Masks or a partition that remove nothing give `spectral_norm`'s
        bits, which the Gram kernel would miss for most of these matrices."""
        gram_differs = 0
        for n in range(2, 13):
            a = DenseMatrix(rng.uniform(-1, 1, (n, n + n % 3)))
            norm = spectral_norm(a)
            full = np.ones((1, n), dtype=bool), np.ones((1, a.n_cols), dtype=bool)
            assert masked_norms(a.data, *full)[0] == norm
            if a.is_square:
                assert paving_quality(a, Partition.single_block(n)) == norm
            gram_differs += block_norms(a.data[None], False)[0] != norm
        assert gram_differs >= 3

    def test_each_norm_depends_only_on_its_block(self, rng):
        for shape in [(2, 2), (3, 5), (6, 4), (12, 12)]:
            blocks = rng.uniform(-1, 1, (40, *shape)) * np.logspace(-200, 200, 40)[:, None, None]
            alone = np.concatenate([block_norms(b[None], False) for b in blocks])
            assert np.array_equal(block_norms(blocks, False), alone)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_top_eigenvalues(self, rng, k):
        m = rng.uniform(-1, 1, (20, k, k))
        sym = m + m.transpose(0, 2, 1)
        assert top_eigenvalues(sym) == pytest.approx(np.linalg.eigvalsh(sym)[:, -1], rel=1e-14, abs=1e-14)


def _rotated(rng, lams):
    """Symmetric k x k blocks Q diag(lams[j]) Q^T for random orthogonal Q."""
    k = np.shape(lams)[1]
    q = np.linalg.qr(rng.standard_normal((len(lams), k, k)))[0]
    blocks = (q * np.asarray(lams, dtype=float)[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def _eigvalsh_top(blocks):
    """`eigvalsh`'s top eigenvalue of each block, every block on its own."""
    return np.array([np.linalg.eigvalsh(b)[-1] for b in blocks])


class TestTopEigenvaluesThree:
    """The closed-form k = 3 kernel against the Jacobi oracle and `eigvalsh`,
    within 1e-14 of the block's spectral radius, and its `eigvalsh` fallback
    bit for bit."""

    @staticmethod
    def _assert_close(got, blocks):
        want = np.linalg.eigvalsh(blocks)
        radius = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want[:, -1]) <= 1e-14 * radius)

    @staticmethod
    def _assert_exact_within(got, blocks, n_eps):
        """|got - lambda_max| < n_eps * eps * spectral radius, decided exactly."""
        for block, value in zip(blocks, got):
            tol = n_eps * 2.0 ** -52 * np.abs(np.linalg.eigvalsh(block)).max()
            assert above_every_eigenvalue(block, value + tol)
            assert not above_every_eigenvalue(block, value - tol)

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 64])
    def test_grams_match_jacobi(self, rng, c):
        """Rank 1 and 2 Grams at c = 1, 2; full rank above."""
        x = rng.uniform(-1, 1, (150, 3, c))
        grams = x @ x.transpose(0, 2, 1)
        got = top_eigenvalues(grams)
        want = np.array([jacobi_singular_values(b)[0] ** 2 for b in x])
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        self._assert_close(got, grams)

    def test_mixed_signs_match_jacobi(self, rng):
        """lambda_max(S) = sigma_max(S + cI) - c once S + cI is positive."""
        lams = rng.uniform(-1, 1, (300, 3)) * 10.0 ** rng.uniform(-3, 0, (300, 3))
        blocks = _rotated(rng, lams)
        got = top_eigenvalues(blocks)
        self._assert_close(got, blocks)
        shift = np.abs(lams).sum(axis=1)
        want = [jacobi_singular_values(b + c * np.eye(3))[0] - c for b, c in zip(blocks, shift)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(lams).max(axis=1))
        assert np.any(got < 0)  # some blocks have only negative eigenvalues

    @pytest.mark.parametrize("gap", [10.0 ** -e for e in range(1, 17)])
    def test_near_double_top_eigenvalue(self, rng, gap):
        blocks = _rotated(rng, np.column_stack([
            np.ones(100), np.full(100, 1 - gap), rng.uniform(-1, 0.5, 100)
        ]))
        got = top_eigenvalues(blocks)
        self._assert_close(got, blocks)
        if gap <= 1e-4:  # far inside the near-double fallback: eigvalsh's bits
            assert np.array_equal(got, _eigvalsh_top(blocks))

    # Entries (hex) of a near-scalar block whose trigonometric start lies
    # between its two top eigenvalues unless D is made traceless again after
    # q's rounding, and of a block with 1 + r = 1.8e-3 whose trigonometric
    # value alone is 16 eps off.
    _POLISH_CASES = [
        ["0x1.0000000000005p+0", "0x1.c10fb072fdd0ap-53", "-0x1.61fdb472e4557p-51",
         "0x1.c10fb072fdd0ap-53", "0x1.0000000000003p+0", "0x1.4912e6a0bd1dap-50",
         "-0x1.61fdb472e4557p-51", "0x1.4912e6a0bd1dap-50", "0x1.ffffffffffffdp-1"],
        ["0x1.3ce58e201b78fp-1", "0x1.14a928217825ap-3", "0x1.651cb0e9f25f2p-1",
         "0x1.14a928217825ap-3", "0x1.e304742b8a336p-1", "-0x1.be5d4a114a555p-3",
         "0x1.651cb0e9f25f2p-1", "-0x1.be5d4a114a555p-3", "-0x1.8037e15c04815p-2"],
    ]

    def test_within_a_few_eps_of_the_exact_top_eigenvalue(self, rng):
        cases = np.array([[float.fromhex(v) for v in case] for case in self._POLISH_CASES])
        cases = cases.reshape(-1, 3, 3)
        self._assert_exact_within(top_eigenvalues(cases), cases, 2)
        x = rng.uniform(-1, 1, (200, 3, 5))
        grams = x @ x.transpose(0, 2, 1)
        self._assert_exact_within(top_eigenvalues(grams), grams, 4)

    @pytest.mark.parametrize("spread", [10.0 ** -e for e in range(1, 17)])
    def test_near_scalar_blocks(self, rng, spread):
        centre = rng.uniform(-2, 2, (100, 1))
        blocks = _rotated(rng, centre * (1 + spread * rng.uniform(-1, 1, (100, 3))))
        self._assert_close(top_eigenvalues(blocks), blocks)

    def test_exact_cases(self):
        """Bottom-double blocks in closed form; p == 0 and a double top
        eigenvalue through the fallback; a NaN block fails as in `eigvalsh`."""
        bottom_double = np.stack([np.ones((3, 3)), np.ones((3, 3)) - 2 * np.eye(3)])
        assert np.array_equal(top_eigenvalues(bottom_double), [3.0, 1.0])
        fallback = np.stack([np.zeros((3, 3)), 2.5 * np.eye(3), np.diag([1.0, 1.0, 0.0])])
        got = top_eigenvalues(fallback)
        assert np.array_equal(got, [0.0, 2.5, 1.0]) and not np.signbit(got[0])
        assert np.array_equal(got, _eigvalsh_top(fallback))
        with pytest.raises(np.linalg.LinAlgError):
            top_eigenvalues(np.full((1, 3, 3), np.nan))

    @pytest.mark.parametrize("e", [-300, 300])
    def test_power_of_two_scaling_is_exact(self, rng, e):
        lams = np.column_stack([np.full(200, 1.0), rng.uniform(0.1, 0.6, 200), rng.uniform(-1, 0, 200)])
        blocks = _rotated(rng, lams * 10.0 ** rng.uniform(-4, 4, (200, 1)))
        scaled = np.ldexp(blocks, e)
        got = top_eigenvalues(scaled)
        assert np.array_equal(got, np.ldexp(top_eigenvalues(blocks), e))
        self._assert_close(got, scaled)

    @pytest.mark.parametrize("e", [-1000, -345, 340, 1000])
    def test_out_of_range_blocks_take_eigvalsh(self, rng, e):
        x = rng.uniform(-1, 1, (50, 3, 4))
        blocks = np.ldexp(x @ x.transpose(0, 2, 1), e)
        assert np.array_equal(top_eigenvalues(blocks), _eigvalsh_top(blocks))

    def test_separated_blocks_never_call_eigvalsh(self, monkeypatch, rng):
        """The closed form serves every stack size, one block included."""
        lams = np.column_stack([np.full(1000, 1.0), rng.uniform(0, 0.8, 1000), rng.uniform(-1, 0, 1000)])
        blocks = _rotated(rng, lams)
        want = top_eigenvalues(blocks)
        _forbid_eigvalsh(monkeypatch)
        for size in (1, 2, 10, 1000):
            assert np.array_equal(top_eigenvalues(blocks[:size]), want[:size])

    def test_each_value_depends_only_on_its_block(self, rng):
        x = rng.uniform(-1, 1, (60, 3, 5))
        blocks = np.concatenate([
            x @ x.transpose(0, 2, 1),
            _rotated(rng, np.column_stack([np.ones(30), 1 - 10.0 ** -rng.uniform(1, 16, 30),
                                           rng.uniform(-1, 0.5, 30)])),
            np.zeros((2, 3, 3)), 4.0 * np.ones((2, 3, 3)),
            np.ldexp(x[:10] @ x[:10].transpose(0, 2, 1), 400),
        ])
        order = rng.permutation(len(blocks))
        alone = np.concatenate([top_eigenvalues(b[None]) for b in blocks])
        assert np.array_equal(top_eigenvalues(blocks), alone)
        assert np.array_equal(top_eigenvalues(blocks[order]), alone[order])


def _forbid_eigvalsh(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


class TestTopEigenvaluesFour:
    """The k = 4 Laguerre kernel against the Jacobi oracle, `eigvalsh` (within
    1e-14 of the block's spectral radius) and the exact rational oracle, and
    its `eigvalsh` fallback bit for bit."""

    _assert_close = staticmethod(TestTopEigenvaluesThree._assert_close)
    _assert_exact_within = staticmethod(TestTopEigenvaluesThree._assert_exact_within)

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 64])
    def test_grams_match_jacobi(self, rng, c):
        """Rank 1, 2 and 3 Grams at c = 1, 2, 3; full rank above."""
        x = rng.uniform(-1, 1, (150, 4, c))
        grams = x @ x.transpose(0, 2, 1)
        got = top_eigenvalues(grams)
        want = np.array([jacobi_singular_values(b)[0] ** 2 for b in x])
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        self._assert_close(got, grams)

    def test_mixed_signs_match_jacobi(self, rng):
        """lambda_max(S) = sigma_max(S + cI) - c once S + cI is positive."""
        lams = rng.uniform(-1, 1, (300, 4)) * 10.0 ** rng.uniform(-3, 0, (300, 4))
        blocks = _rotated(rng, lams)
        got = top_eigenvalues(blocks)
        self._assert_close(got, blocks)
        shift = np.abs(lams).sum(axis=1)
        want = [jacobi_singular_values(b + c * np.eye(4))[0] - c for b, c in zip(blocks, shift)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(lams).max(axis=1))
        assert np.any(got < 0)  # some blocks have only negative eigenvalues

    def test_all_negative_blocks(self, rng):
        x = rng.uniform(-1, 1, (200, 4, 5))
        blocks = -(x @ x.transpose(0, 2, 1))
        got = top_eigenvalues(blocks)
        self._assert_close(got, blocks)
        assert np.all(got < 0)

    @pytest.mark.parametrize("gap", [10.0 ** -e for e in range(1, 17)])
    def test_near_double_top_eigenvalue(self, rng, gap):
        blocks = _rotated(rng, np.column_stack([
            np.ones(100), np.full(100, 1 - gap), rng.uniform(-1, 0.5, (100, 2))
        ]))
        got = top_eigenvalues(blocks)
        self._assert_close(got, blocks)
        if gap <= 1e-3:  # far inside the near-double fallback: eigvalsh's bits
            assert np.array_equal(got, _eigvalsh_top(blocks))

    # Entries (hex) of a near-scalar block (spread 1e-8) whose value is 5 eps
    # off unless D is made traceless again after q's rounding.
    _RECENTRE_CASE = [
        "-0x1.4f777e667196ap-1", "-0x1.9c57f7c19614ap-29", "0x1.d6696c174c516p-32",
        "0x1.f282c6cb2dbf2p-33", "-0x1.9c57f7c19614ap-29", "-0x1.4f777e5752938p-1",
        "-0x1.2c3997d8cdb16p-30", "0x1.876231a98cddfp-31", "0x1.d6696c174c516p-32",
        "-0x1.2c3997d8cdb16p-30", "-0x1.4f777e69ab140p-1", "-0x1.a037633043419p-30",
        "0x1.f282c6cb2dbf2p-33", "0x1.876231a98cddfp-31", "-0x1.a037633043419p-30",
        "-0x1.4f777e76c1295p-1",
    ]

    def test_within_a_few_eps_of_the_exact_top_eigenvalue(self, rng):
        case = np.array([float.fromhex(v) for v in self._RECENTRE_CASE]).reshape(1, 4, 4)
        self._assert_exact_within(top_eigenvalues(case), case, 2)
        x = rng.uniform(-1, 1, (200, 4, 5))
        grams = x @ x.transpose(0, 2, 1)
        self._assert_exact_within(top_eigenvalues(grams), grams, 4)

    @pytest.mark.parametrize("spread", [10.0 ** -e for e in range(1, 17)])
    def test_near_scalar_blocks(self, rng, spread):
        centre = rng.uniform(-2, 2, (100, 1))
        blocks = _rotated(rng, centre * (1 + spread * rng.uniform(-1, 1, (100, 4))))
        self._assert_close(top_eigenvalues(blocks), blocks)

    def test_exact_cases(self):
        """A rank-one block in closed form; a zero, scalar or exactly double
        block through the fallback; a NaN block fails as in `eigvalsh`."""
        assert np.array_equal(top_eigenvalues(np.ones((1, 4, 4))), [4.0])
        fallback = np.stack([np.zeros((4, 4)), 2.5 * np.eye(4), np.diag([1.0, 1.0, 0.0, -1.0])])
        got = top_eigenvalues(fallback)
        assert np.array_equal(got, [0.0, 2.5, 1.0]) and not np.signbit(got[0])
        assert np.array_equal(got, _eigvalsh_top(fallback))
        with pytest.raises(np.linalg.LinAlgError):
            top_eigenvalues(np.full((1, 4, 4), np.nan))

    @pytest.mark.parametrize("e", [-300, 300])
    def test_power_of_two_scaling_is_exact(self, rng, e):
        lams = np.column_stack([np.full(200, 1.0), rng.uniform(0.1, 0.6, 200),
                                rng.uniform(-1, 0, (200, 2))])
        blocks = _rotated(rng, lams * 10.0 ** rng.uniform(-4, 4, (200, 1)))
        scaled = np.ldexp(blocks, e)
        got = top_eigenvalues(scaled)
        assert np.array_equal(got, np.ldexp(top_eigenvalues(blocks), e))
        self._assert_close(got, scaled)

    @pytest.mark.parametrize("e", [-1060, -1010, 1010, 1021])
    def test_out_of_range_blocks_take_eigvalsh(self, rng, e):
        x = rng.uniform(-1, 1, (50, 4, 5))
        blocks = np.ldexp(x @ x.transpose(0, 2, 1), e)
        assert np.array_equal(top_eigenvalues(blocks), _eigvalsh_top(blocks))

    def test_separated_blocks_never_call_eigvalsh(self, monkeypatch, rng):
        """The kernel serves every stack size, one block included."""
        lams = np.column_stack([np.full(1000, 1.0), rng.uniform(0, 0.8, 1000),
                                rng.uniform(-1, 0, (1000, 2))])
        blocks = _rotated(rng, lams)
        want = top_eigenvalues(blocks)
        _forbid_eigvalsh(monkeypatch)
        for size in (1, 2, 10, 1000):
            assert np.array_equal(top_eigenvalues(blocks[:size]), want[:size])

    def test_each_value_depends_only_on_its_block(self, rng):
        x = rng.uniform(-1, 1, (60, 4, 5))
        blocks = np.concatenate([
            x @ x.transpose(0, 2, 1),
            _rotated(rng, np.column_stack([np.ones(30), 1 - 10.0 ** -rng.uniform(1, 16, 30),
                                           rng.uniform(-1, 0.5, (30, 2))])),
            np.zeros((2, 4, 4)), 4.0 * np.ones((2, 4, 4)),
            np.ldexp(x[:10] @ x[:10].transpose(0, 2, 1), 400),
            np.ldexp(x[:10] @ x[:10].transpose(0, 2, 1), 1010),
        ])
        order = rng.permutation(len(blocks))
        alone = np.concatenate([top_eigenvalues(b[None]) for b in blocks])
        assert np.array_equal(top_eigenvalues(blocks), alone)
        assert np.array_equal(top_eigenvalues(blocks[order]), alone[order])


@given(square_matrices(min_n=2, max_n=6), st.data())
@settings(max_examples=40, deadline=None)
def test_submatrix_monotonicity(a, data):
    n = a.n_rows
    tau_set = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    sigma_set = data.draw(st.sets(st.sampled_from(sorted(tau_set))))
    tau = CoordinateSet.from_iterable(n, tau_set)
    sigma = CoordinateSet.from_iterable(n, sigma_set)
    small = spectral_norm(restrict(a, sigma, sigma))
    big = spectral_norm(restrict(a, tau, tau))
    assert small <= big + 1e-12


@given(square_matrices(min_n=1, max_n=6), st.sampled_from([1.0, 2.0, 4.0]))
@settings(max_examples=60, deadline=None)
def test_norm_chain(a, p):
    n = a.n_rows
    tol = 1e-10
    assert max_abs_entry(a) <= max_column_norm(a) + tol
    assert max_column_norm(a) <= spectral_norm(a) + tol
    assert spectral_norm(a) <= schatten_norm(a, p) + tol
    assert schatten_norm(a, p) <= n ** (1.0 / p) * spectral_norm(a) + tol
