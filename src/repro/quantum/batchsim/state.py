"""Batched dense statevectors: ``(batch, 2**n)`` state evolved in lockstep.

The batch axis must not perturb numerics.  Batched executions feed the same
content-addressed result cache as serial ones, so a batch result that differs
from its serial twin — even in the last ulp, which shifts sampled counts —
would poison every later lookup.  The kernel here therefore mirrors
:func:`repro.quantum.statevector.apply_matrix` *exactly* and adds the batch as
a gufunc stack dimension: after moving the target axes to the front of each
row's qubit tensor, the rows are packed contiguously as ``(batch, 2**k,
rest)`` and multiplied with one ``np.matmul`` call.  Every 2-D slice of that
stacked matmul is the identical GEMM shape the serial kernel issues, so BLAS
takes the same code path per row and the results match bit for bit.

The tempting alternative — folding the batch into the matmul's *column*
dimension, ``matrix @ (2**k, batch * rest)`` — is measurably **not**
bit-identical per column: widening the GEMM changes the kernel BLAS selects
and with it the floating-point summation order (~1e-16 deviations on a third
of random trials).  Do not "simplify" the kernel into that form.

:func:`batch_measure` follows the same rule for measurement: each row's
probability sum and norm keep the summation order of the serial
``measure_probabilities`` and ``collapse``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.statevector import _ATOL


def batch_apply_matrix(
    states: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply one ``2^k x 2^k`` unitary to ``targets`` of every batched state.

    ``states`` is ``(batch, 2**num_qubits)``; returns a new array of the same
    shape whose row ``i`` equals ``apply_matrix(states[i], matrix, targets,
    num_qubits)`` bit for bit.
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    batch = states.shape[0]
    tensor = states.reshape([batch] + [2] * num_qubits)
    # Same axis arithmetic as the serial kernel, shifted right by the batch
    # axis: tensor axis 1+j is qubit (num_qubits - 1 - j) of each row.
    src_axes = [1 + num_qubits - 1 - t for t in reversed(targets)]
    tensor = np.moveaxis(tensor, src_axes, range(1, 1 + k))
    stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
    stacked = np.matmul(matrix, stacked)
    tensor = stacked.reshape([batch] + [2] * num_qubits)
    tensor = np.moveaxis(tensor, range(1, 1 + k), src_axes)
    return tensor.reshape(batch, 2**num_qubits)


def batch_measure(
    states: np.ndarray, qubit: int, num_qubits: int, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``qubit`` of every batched state with one uniform per row.

    Returns ``(collapsed, outcomes)``.  Row ``s`` is bit for bit what the
    serial trajectory computes: ``outcomes[s]`` is 1 exactly when
    ``draws[s] < measure_probabilities(states[s], qubit, num_qubits)``, and
    ``collapsed[s]`` equals ``collapse(states[s], qubit, outcomes[s],
    num_qubits)``.  Each reduction keeps the serial one's summation order:

    * P(1) is a 1-D ``.sum()`` per row of the gathered ``|amp|**2`` block,
      i.e. numpy's pairwise sum.  ``sum(axis=1)`` is not pairwise and drifts
      by an ulp on most rows from 4 qubits up.
    * The norm is ``sqrt(re.re + im.im)`` with each dot a stacked row-vector
      ``np.matmul``, which issues per row the same strided BLAS dot that
      ``np.linalg.norm`` does.  ``einsum`` or a sum of squares does not.

    Raises the serial :class:`SimulationError` when a row collapses onto a
    zero-probability branch.
    """
    ones = (np.arange(2**num_qubits) & (1 << qubit)) != 0
    block = np.abs(states[:, ones]) ** 2
    p1 = np.fromiter(
        (row.sum() for row in block), dtype=np.float64, count=len(block)
    )
    del block  # freed before the collapse copy: one tile of temporaries
    outcomes = (draws < p1).astype(np.int64)
    collapsed = np.where(ones == (outcomes[:, None] == 1), states, 0.0)
    re, im = collapsed.real[:, None, :], collapsed.imag[:, None, :]
    squared = np.matmul(re, re.transpose(0, 2, 1)) + np.matmul(
        im, im.transpose(0, 2, 1)
    )
    norm = np.sqrt(squared[:, 0, 0])
    lost = np.flatnonzero(norm < _ATOL)
    if lost.size:
        raise SimulationError(
            f"collapse onto qubit {qubit}={int(outcomes[lost[0]])} has zero "
            "probability"
        )
    collapsed /= norm[:, None]
    return collapsed, outcomes


class BatchStatevector:
    """A stack of dense n-qubit states evolved gate-by-gate in lockstep."""

    __slots__ = ("_data", "_num_qubits")

    def __init__(self, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(data, dtype=np.complex128)
        if arr.ndim != 2:
            raise SimulationError(
                f"batched statevector must be 2-D (batch, 2**n), got {arr.ndim}-D"
            )
        n = int(round(math.log2(arr.shape[1]))) if arr.shape[1] else 0
        if arr.shape[1] == 0 or 2**n != arr.shape[1]:
            raise SimulationError(
                f"batched statevector row length {arr.shape[1]} is not a "
                "power of two"
            )
        self._data = arr
        self._num_qubits = n

    @classmethod
    def zero_states(cls, batch: int, num_qubits: int) -> "BatchStatevector":
        """``batch`` copies of |0...0>, ready to evolve."""
        data = np.zeros((batch, 2**num_qubits), dtype=np.complex128)
        data[:, 0] = 1.0
        return cls(data)

    @property
    def batch_size(self) -> int:
        return self._data.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def apply(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """Apply one unitary to every row in place."""
        self._data = batch_apply_matrix(
            self._data, matrix, targets, self._num_qubits
        )

    def apply_rows(
        self, rows: Sequence[int], matrix: np.ndarray, targets: Sequence[int]
    ) -> None:
        """Apply one unitary to a subset of rows (gather, evolve, scatter).

        The gathered sub-batch is a fresh contiguous block, so the kernel's
        per-row GEMM shape — and with it bit-identity — is unchanged.
        """
        if not len(rows):
            return
        sub = self._data[rows]
        self._data[rows] = batch_apply_matrix(
            sub, matrix, targets, self._num_qubits
        )

    def measure(self, qubit: int, draws: np.ndarray) -> np.ndarray:
        """Measure ``qubit`` of every row in place; see :func:`batch_measure`."""
        self._data, outcomes = batch_measure(
            self._data, qubit, self._num_qubits, draws
        )
        return outcomes

    def row(self, index: int) -> np.ndarray:
        """A copy of one row's flat amplitudes."""
        return self._data[index].copy()

    def __repr__(self) -> str:
        return (
            f"BatchStatevector(batch={self.batch_size}, "
            f"num_qubits={self._num_qubits})"
        )
