"""Tests for the generic LinearGradientCode."""

import numpy as np
import pytest

from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import LinearGradientCode
from repro.coding.reed_solomon import ReedSolomonStyleCode
from repro.exceptions import DecodingError


@pytest.fixture
def simple_code():
    # 3 workers, 2 partitions: B = [[1, 0], [0, 1], [1, 1]].
    return LinearGradientCode(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), name="demo")


class TestConstruction:
    def test_shape_properties(self, simple_code):
        assert simple_code.num_workers == 3
        assert simple_code.num_partitions == 2
        assert simple_code.computational_load() == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(DecodingError):
            LinearGradientCode(np.array([[np.nan, 1.0]]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            LinearGradientCode(np.eye(2), decoding_tolerance=0.0)

    def test_support(self, simple_code):
        np.testing.assert_array_equal(simple_code.support(0), [0])
        np.testing.assert_array_equal(simple_code.support(2), [0, 1])

    def test_to_assignment(self, simple_code):
        assignment = simple_code.to_assignment()
        assert assignment.num_workers == 3
        assert assignment.loads.tolist() == [1, 1, 2]


class TestEncodeDecode:
    @pytest.fixture
    def partition_gradients(self, rng):
        return rng.standard_normal((2, 4))

    def test_encode_uses_only_support(self, simple_code, partition_gradients):
        message = simple_code.encode(0, partition_gradients)
        np.testing.assert_allclose(message, partition_gradients[0])
        combined = simple_code.encode(2, partition_gradients)
        np.testing.assert_allclose(combined, partition_gradients.sum(axis=0))

    def test_encode_shape_check(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.encode(0, np.zeros((3, 4)))

    def test_decodable_subsets(self, simple_code):
        assert simple_code.is_decodable([0, 1])
        assert simple_code.is_decodable([2])
        assert simple_code.is_decodable([0, 1, 2])
        assert not simple_code.is_decodable([0])
        assert not simple_code.is_decodable([1])

    def test_decode_recovers_total(self, simple_code, partition_gradients):
        total = partition_gradients.sum(axis=0)
        for workers in ([0, 1], [2], [1, 2]):
            messages = np.vstack(
                [simple_code.encode(w, partition_gradients) for w in workers]
            )
            np.testing.assert_allclose(
                simple_code.decode(workers, messages), total, atol=1e-10
            )

    def test_decode_requires_matching_shapes(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decode([0, 1], np.zeros((3, 4)))

    def test_decoding_vector_residual_check(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0])

    def test_duplicate_workers_rejected(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0, 0])

    def test_worker_index_bounds(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.support(5)
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0, 7])

    @pytest.mark.parametrize(
        "workers",
        [
            [0, 1.9],  # would truncate to [0, 1], which decodes
            [0.2, 1.7, 2.9],
            [True, False],
            np.array([True, True, True]),
            [0, 3],
            [-1, 0],
            [0, 1, 1],
            [],
        ],
    )
    def test_invalid_worker_indices_rejected(self, simple_code, workers):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector(workers)
        assert not simple_code.is_decodable(workers)
        with pytest.raises(DecodingError):
            simple_code.decode(workers, np.zeros((len(workers), 2)))

    def test_integer_arrays_of_any_width_accepted(self, simple_code):
        for dtype in (np.int8, np.uint16, np.int64):
            assert simple_code.is_decodable(np.array([1, 0], dtype=dtype))

    def test_minimum_decodable_size(self, simple_code):
        assert simple_code.minimum_decodable_size() == 1  # worker 2 alone decodes

    def test_identity_code_needs_all_workers(self):
        code = LinearGradientCode(np.eye(4))
        assert not code.is_decodable([0, 1, 2])
        assert code.is_decodable([0, 1, 2, 3])
        assert code.minimum_decodable_size() == 4


# --------------------------------------------------------------------------- #
# Stacked decodability: one call decides a (rows, w) stack of subsets.
# --------------------------------------------------------------------------- #
def lstsq_decodable(code, workers):
    """The one-solve reference rule: least squares, then the residual test."""
    system = code.encoding_matrix[workers].T
    solution, *_ = np.linalg.lstsq(system, np.ones(code.num_partitions), rcond=None)
    return bool(np.max(np.abs(system @ solution - 1)) <= code.decoding_tolerance)


def arrival_orders(num_workers, rows, seed):
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((rows, num_workers)), axis=1)


STACK_CODES = {
    "cyclic-repetition": lambda: CyclicRepetitionCode(16, 3, seed=2),
    "reed-solomon": lambda: ReedSolomonStyleCode(16, 3),
    "identity": lambda: LinearGradientCode(np.eye(8)),
    # The fractional-repetition matrix as a plain linear code: it has only
    # four distinct rows, so most prefixes are rank deficient (exact zero
    # pivots), and a prefix decodes only once all four have arrived; a code
    # claiming s = 8 (first checkpoint at 4 arrivals) usually fails there.
    "first-checkpoint-fails": lambda: LinearGradientCode(
        FractionalRepetitionCode(12, 2).encoding_matrix
    ),
}


class TestStackedDecisions:
    @pytest.mark.parametrize("name", sorted(STACK_CODES))
    def test_stack_matches_one_subset_at_a_time(self, name):
        code = STACK_CODES[name]()
        orders = arrival_orders(code.num_workers, rows=12, seed=5)
        decided = []
        # Every prefix width, so the stacks include the rank-deficient
        # prefixes past the n - s threshold.
        for width in range(1, code.num_workers + 1):
            stack = orders[:, :width]
            solutions = code.decoding_vector(stack)
            assert solutions.shape == stack.shape
            stacked = ~np.isnan(solutions[:, 0])
            assert stacked.tolist() == [code.is_decodable(row) for row in stack]
            assert stacked.tolist() == [lstsq_decodable(code, row) for row in stack]
            for row, solution in zip(stack[stacked], solutions[stacked]):
                np.testing.assert_allclose(
                    solution, code.decoding_vector(row), rtol=0, atol=1e-12
                )
                residual = code.encoding_matrix[row].T @ solution - 1
                assert np.max(np.abs(residual)) <= code.decoding_tolerance
            assert np.isnan(solutions[~stacked]).all()
            decided.extend(stacked)
        assert any(decided) and not all(decided)

    @pytest.mark.parametrize("name", ["cyclic-repetition", "reed-solomon"])
    def test_rank_deficient_prefixes_decode(self, name):
        code = STACK_CODES[name]()
        threshold = code.num_workers - code.num_stragglers
        assert np.linalg.matrix_rank(code.encoding_matrix) == threshold
        orders = arrival_orders(code.num_workers, rows=6, seed=1)
        for width in range(threshold + 1, code.num_workers + 1):
            assert not np.isnan(code.decoding_vector(orders[:, :width])).any()

    def test_tolerance_decides_near_misses(self):
        # One worker, two partitions: the best candidate misses 1 by ~5e-5.
        matrix = np.array([[1.0, 1.0 + 1e-4]])
        strict = LinearGradientCode(matrix)
        assert np.isnan(strict.decoding_vector(np.array([[0]]))).all()
        assert not strict.is_decodable([0])
        loose = LinearGradientCode(matrix, decoding_tolerance=1e-4)
        assert not np.isnan(loose.decoding_vector(np.array([[0]]))).any()
        assert loose.is_decodable([0])

    def test_blocking_does_not_change_results(self, monkeypatch):
        code = STACK_CODES["first-checkpoint-fails"]()
        stack = arrival_orders(12, rows=10, seed=3)[:, :5]
        whole = code.decoding_vector(stack)
        assert np.isnan(whole[:, 0]).any() and not np.isnan(whole[:, 0]).all()
        monkeypatch.setattr(code, "_SOLVE_BLOCK_CELLS", 3 * 6 * 12)  # 3 rows a block
        np.testing.assert_array_equal(code.decoding_vector(stack), whole)

    def test_wide_subsets_take_the_least_squares_candidate(self):
        # w > k: the QR candidate does not apply; least squares decides.
        code = LinearGradientCode(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        solutions = code.decoding_vector(np.array([[0, 1, 2], [2, 1, 0]]))
        assert not np.isnan(solutions).any()
        for row, solution in zip([[0, 1, 2], [2, 1, 0]], solutions):
            np.testing.assert_allclose(solution @ code.encoding_matrix[row], [1.0, 1.0])

    @pytest.mark.parametrize("load", [5, 10, 25, 50])
    @pytest.mark.parametrize("family", ["cyclic-repetition", "reed-solomon"])
    def test_paper_codes_decide_far_from_the_tolerance(self, family, load):
        n, s = 100, load - 1
        if family == "cyclic-repetition":
            code = CyclicRepetitionCode(n, s, seed=load)
        else:
            code = ReedSolomonStyleCode(n, s)
        tolerance = code.decoding_tolerance
        orders = arrival_orders(n, rows=8, seed=load)

        decodable = orders[:, : n - s]
        solutions = code.decoding_vector(decodable)
        systems = np.swapaxes(code.encoding_matrix[decodable], 1, 2)
        residuals = np.abs(np.matmul(systems, solutions[..., np.newaxis])[..., 0] - 1)
        assert residuals.max() <= tolerance / 100

        short = orders[:, : n - s - 1]
        assert np.isnan(code.decoding_vector(short)).all()
        for row in short:
            # The least-squares residual bounds every candidate's from below:
            # max|B[W]^T a - 1| >= ||r_ls||_2 / sqrt(k) for all a.
            system = code.encoding_matrix[row].T
            solution, *_ = np.linalg.lstsq(system, np.ones(n), rcond=None)
            floor = np.linalg.norm(system @ solution - 1) / np.sqrt(n)
            assert floor >= tolerance * 100

    def test_rows_may_share_workers(self, simple_code):
        solutions = simple_code.decoding_vector(np.array([[2], [0], [2]]))
        np.testing.assert_allclose(solutions[[0, 2]], [[1.0], [1.0]])
        assert np.isnan(solutions[1]).all()

    @pytest.mark.parametrize(
        "workers",
        [
            np.zeros((2, 2, 2), dtype=int),  # neither one subset nor a stack
            np.array([[0.0, 1.0], [1.0, 2.0]]),  # float indices
            np.array([[True, False], [False, True]]),
            np.array([[0, 1], [2, 2]]),  # duplicate within a row
            np.array([[0, 1], [1, 3]]),  # out of range
            np.array([[0, 1], [-1, 2]]),
            [[0, 1], [2]],  # ragged rows
            np.empty((0, 2), dtype=int),
        ],
    )
    def test_malformed_stacks_raise(self, simple_code, workers):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector(workers)
        assert not simple_code.is_decodable(workers)

    def test_single_subset_calls_reject_stacks(self, simple_code):
        stack = np.array([[0, 1]])
        assert not simple_code.is_decodable(stack)
        with pytest.raises(DecodingError):
            simple_code.decode(stack, np.zeros((1, 2)))
