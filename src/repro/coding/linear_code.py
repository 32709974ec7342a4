"""Generic linear gradient codes.

A linear gradient code over ``k`` data partitions is an encoding matrix
``B`` of shape ``(n, k)``: worker ``i`` computes the partial-gradient sums
``g_1, ..., g_k`` of the partitions in its support (the nonzero entries of
row ``i``) and transmits the single vector ``sum_j B[i, j] * g_j``. The
master, having received messages from a worker subset ``W``, recovers the
total gradient whenever the all-ones row vector lies in the row space of
``B[W]``: it finds coefficients ``a`` with ``a^T B[W] = 1^T`` and outputs
``sum_{i in W} a_i z_i``.

This captures the cyclic-repetition scheme of Tandon et al., the
Reed-Solomon construction of Halbawi et al., and the cyclic-MDS construction
of Raviv et al.; they differ only in how ``B`` is built.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coding.assignment import DataAssignment
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.validation import check_array_2d

__all__ = ["LinearGradientCode"]


class LinearGradientCode:
    """A linear gradient code defined by its encoding matrix ``B``.

    Parameters
    ----------
    encoding_matrix:
        Real matrix of shape ``(num_workers, num_partitions)``.
    name:
        Identifier used in reports.
    decoding_tolerance:
        Maximum allowed residual ``||a^T B_W - 1||_inf`` for a worker subset
        to be considered decodable.
    """

    def __init__(
        self,
        encoding_matrix: np.ndarray,
        name: str = "linear-code",
        decoding_tolerance: float = 1e-6,
    ) -> None:
        matrix = check_array_2d(encoding_matrix, "encoding_matrix")
        if not np.all(np.isfinite(matrix)):
            raise DecodingError("the encoding matrix must contain only finite entries")
        self.encoding_matrix = matrix
        self.name = name
        self.decoding_tolerance = float(decoding_tolerance)
        if self.decoding_tolerance <= 0:
            raise ConfigurationError("decoding_tolerance must be positive")

    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Number of workers ``n`` (rows of ``B``)."""
        return self.encoding_matrix.shape[0]

    @property
    def num_partitions(self) -> int:
        """Number of data partitions ``k`` (columns of ``B``)."""
        return self.encoding_matrix.shape[1]

    def support(self, worker: int) -> np.ndarray:
        """Data-partition indices worker ``worker`` must process (nonzero columns)."""
        self._check_worker(worker)
        return np.flatnonzero(self.encoding_matrix[worker])

    def computational_load(self) -> int:
        """Maximum support size across workers (in partitions)."""
        return int(np.max(np.count_nonzero(self.encoding_matrix, axis=1)))

    def to_assignment(self) -> DataAssignment:
        """The placement implied by the code's supports, at partition granularity."""
        assignments = tuple(self.support(i) for i in range(self.num_workers))
        return DataAssignment(num_examples=self.num_partitions, assignments=assignments)

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def encode(self, worker: int, partition_gradients: np.ndarray) -> np.ndarray:
        """Compute worker ``worker``'s coded message.

        Parameters
        ----------
        partition_gradients:
            Array of shape ``(k, p)`` whose row ``j`` is the summed partial
            gradient of partition ``j``. Only the rows in the worker's
            support are read; the others may contain garbage (a real worker
            never computes them).
        """
        self._check_worker(worker)
        gradients = np.asarray(partition_gradients, dtype=float)
        if gradients.ndim != 2 or gradients.shape[0] != self.num_partitions:
            raise DecodingError(
                "partition_gradients must have shape (num_partitions, p), got "
                f"{gradients.shape}"
            )
        support = self.support(worker)
        coefficients = self.encoding_matrix[worker, support]
        return coefficients @ gradients[support]

    def decoding_vector(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        """Coefficients ``a`` with ``a^T B[W] = 1^T`` for a subset or a stack of subsets.

        ``workers`` is either one subset ``W`` (a 1-D index sequence) or a
        ``(rows, w)`` stack of equal-size subsets, one per row. A subset
        decodes when its candidate ``a`` passes the residual test
        ``max |B[W]^T a - 1| <= decoding_tolerance``; see :meth:`_solve` for
        how candidates are found.

        Returns
        -------
        numpy.ndarray
            For one subset, its coefficient vector of length ``w``. For a
            stack, a ``(rows, w)`` array whose row is NaN wherever that
            subset does not decode.

        Raises
        ------
        DecodingError
            If a single subset is not decodable, or the indices are malformed
            (wrong dimension, non-integer, duplicated within a subset, or out
            of range).
        """
        indices = self._check_workers(workers)
        if indices.ndim == 2:
            return self._solve(indices)[0]
        solutions, residuals = self._solve(indices[np.newaxis])
        if np.isnan(solutions[0, 0]):
            raise DecodingError(
                f"worker subset of size {indices.size} is not decodable for "
                f"code {self.name!r} (residual {residuals[0]:.2e})"
            )
        return solutions[0]

    def is_decodable(self, workers: Sequence[int] | np.ndarray) -> bool:
        """True when the master can recover the gradient from one subset's messages.

        A malformed subset, including a 2-D stack, is not decodable.
        """
        try:
            return self.decoding_vector(workers).ndim == 1
        except DecodingError:
            return False

    def decode(
        self, workers: Sequence[int] | np.ndarray, messages: np.ndarray
    ) -> np.ndarray:
        """Reconstruct the *sum* of all partition gradients from received messages.

        Parameters
        ----------
        workers:
            Indices of the workers whose messages were received, in the same
            order as the rows of ``messages``.
        messages:
            Array of shape ``(len(workers), p)``.
        """
        workers = self._check_workers(workers)
        if workers.ndim != 1:
            raise DecodingError("decode takes one worker subset, not a stack")
        received = np.asarray(messages, dtype=float)
        if received.ndim != 2 or received.shape[0] != len(workers):
            raise DecodingError(
                f"messages must have shape (len(workers), p), got {received.shape}"
            )
        coefficients = self.decoding_vector(workers)
        return coefficients @ received

    # ------------------------------------------------------------------ #
    def minimum_decodable_size(self) -> int:
        """Smallest ``w`` such that some cyclic window of ``w`` workers decodes.

        Used by tests on small codes. Only the ``n`` cyclically contiguous
        subsets of each size are tried, so the result is an upper bound on
        the minimum over all subsets (exact for codes whose decodability
        depends only on the subset size).
        """
        for size in range(1, self.num_workers + 1):
            for start in range(self.num_workers):
                subset = [(start + offset) % self.num_workers for offset in range(size)]
                if self.is_decodable(subset):
                    return size
        raise DecodingError(f"code {self.name!r} is never decodable")

    # ------------------------------------------------------------------ #
    #: A stacked solve factors its rows in blocks whose ``(rows, k, w + 1)``
    #: augmented systems hold at most about ``2**22`` float64 cells (32 MiB),
    #: so any stack height fits in bounded memory. Rows are independent, so
    #: the blocking cannot change a decision.
    _SOLVE_BLOCK_CELLS = 1 << 22

    def _solve(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Certified coefficients for a ``(rows, w)`` stack of valid subsets.

        Each row's candidate solves ``R a = Q^T 1`` for the QR factorization
        ``B[W]^T = QR``, batched over the stack. One R-only factorization of
        the augmented system ``[B[W]^T | 1]`` yields both: its triangular
        factor holds ``R`` and, in its last column, ``Q^T 1``, so ``Q`` is
        never formed. A row whose candidate fails the residual test (rank
        deficient, ``w > k``, or a non-finite solve) gets the minimum-norm
        least-squares candidate instead, under the same test. Every accepted
        row therefore carries a verified residual. Returns the ``(rows, w)``
        coefficients (NaN rows where no candidate passes) and each row's
        residual.
        """
        rows, width = stack.shape
        k = self.num_partitions
        solutions = np.full((rows, width), np.nan)
        residuals = np.full(rows, np.inf)
        # Row n of the extended matrix is the all-ones target, so one gather
        # builds every augmented system, already laid out as LAPACK reads it.
        extended = np.vstack((self.encoding_matrix, np.ones(k)))
        targets = np.full((rows, 1), self.num_workers)
        block = max(1, self._SOLVE_BLOCK_CELLS // ((width + 1) * k))
        for start in range(0, rows if width <= k else 0, block):
            chunk = slice(start, start + block)
            augmented = np.swapaxes(
                extended[np.hstack((stack[chunk], targets[chunk]))], 1, 2
            )
            factor = np.linalg.qr(augmented, mode="r")
            candidates = _back_substitute(
                factor[:, :width, :width], factor[:, :width, width]
            )
            solutions[chunk], residuals[chunk] = self._certify(
                augmented[:, :, :width], candidates
            )
        target = np.ones(k)
        for row in np.flatnonzero(np.isnan(solutions[:, 0])):
            system = self.encoding_matrix[stack[row]].T
            candidate, *_ = np.linalg.lstsq(system, target, rcond=None)
            certified, residual = self._certify(system[np.newaxis], candidate[np.newaxis])
            solutions[row], residuals[row] = certified[0], residual[0]
        return solutions, residuals

    def _certify(
        self, systems: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual test of ``candidates`` against ``systems @ a = 1``.

        Returns the candidates with every row that misses the tolerance
        replaced by NaN, and the residuals (infinite for a non-finite one).
        """
        with np.errstate(invalid="ignore", over="ignore"):
            errors = np.matmul(systems, candidates[..., np.newaxis])[..., 0] - 1.0
            residuals = np.max(np.abs(errors), axis=1)
        residuals[~np.isfinite(residuals)] = np.inf
        certified = np.where(
            (residuals <= self.decoding_tolerance)[:, np.newaxis], candidates, np.nan
        )
        return certified, residuals

    def _check_worker(self, worker: int) -> None:
        if not (0 <= worker < self.num_workers):
            raise DecodingError(
                f"worker index must lie in [0, {self.num_workers}), got {worker}"
            )

    def _check_workers(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        """Validate one subset (1-D) or a ``(rows, w)`` stack of subsets (2-D)."""
        try:
            indices = np.asarray(workers)
        except ValueError as error:  # ragged rows
            raise DecodingError(
                "a stack of worker subsets must have equal-size rows"
            ) from error
        if indices.ndim not in (1, 2) or indices.size == 0:
            raise DecodingError(
                "workers must be a non-empty 1-D index sequence or a 2-D "
                f"(rows, w) stack of subsets, got shape {indices.shape}"
            )
        if indices.dtype.kind not in "iu":
            # No truncating cast: a float or boolean index is a caller bug.
            raise DecodingError(
                f"worker indices must be integers, got {indices.dtype} values"
            )
        ordered = np.sort(indices, axis=-1)
        if np.any(ordered[..., 1:] == ordered[..., :-1]):
            raise DecodingError("a worker subset must not contain duplicates")
        if indices.min() < 0 or indices.max() >= self.num_workers:
            raise DecodingError(
                f"worker indices must lie in [0, {self.num_workers}), got "
                f"{indices.min()}..{indices.max()}"
            )
        return indices

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, n={self.num_workers}, "
            f"k={self.num_partitions})"
        )


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked upper-triangular systems ``upper @ x = rhs``.

    Column by column from the last, batched over the leading axis. A zero or
    tiny pivot yields an infinite or NaN row instead of an error, which the
    residual test then rejects.
    """
    solution = np.zeros_like(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(rhs.shape[1] - 1, -1, -1):
            tail = np.einsum("rj,rj->r", upper[:, j, j + 1 :], solution[:, j + 1 :])
            solution[:, j] = (rhs[:, j] - tail) / upper[:, j, j]
    return solution
