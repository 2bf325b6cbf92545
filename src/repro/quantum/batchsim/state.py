"""The one gate kernel: ``(batch, 2**n)`` dense states evolved in lockstep.

The batch axis must not perturb numerics.  Every execution feeds one
content-addressed result cache, whose entries must not depend on the batch
that computed them, and must equal the ones the flat-state serial engine
(kept as the parity reference in ``tests/serial_engine.py``) wrote; a batch
result that differs from its flat-state twin — even in the last ulp, which
shifts sampled counts — would poison every later lookup.  The kernel here
therefore mirrors that engine's flat ``apply_matrix`` *exactly* and adds the
batch as a gufunc stack dimension: one ``transpose`` brings the target axes
to the front of each row's qubit tensor, the rows are packed contiguously
as ``(batch, 2**k, rest)`` and multiplied with one ``np.matmul`` call, and
the inverse ``transpose`` puts the axes back.  Both orders come from
:func:`_axis_orders`, which the flat kernel calls with no batch axis, so
each row's view is the flat one.  Every 2-D slice of that stacked matmul is
the identical GEMM shape the flat kernel issues, so BLAS takes the same
code path per row and the results match bit for bit.  The matrix may be one
``2^k x 2^k`` unitary broadcast over the rows or a ``(batch, 2^k, 2^k)``
stack with one matrix per row (a parametric gate across a sweep's points):
either way slice ``i`` multiplies row ``i`` with the same GEMM.

The tempting alternative — folding the batch into the matmul's *column*
dimension, ``matrix @ (2**k, batch * rest)`` — is measurably **not**
bit-identical per column: widening the GEMM changes the kernel BLAS selects
and with it the floating-point summation order (~1e-16 deviations on a third
of random trials).  Do not "simplify" the kernel into that form.

Measurement follows the same rule in two halves, :func:`batch_p1` and
:func:`batch_collapse`: each row's probability sum and norm keep the
summation order of the flat-state ``measure_probabilities`` and
``collapse`` of the serial reference (``tests/serial_engine.py``).  A row's
P(1) is numpy's pairwise sum of its ``|amp|**2`` block, and
:func:`_pairwise_row_sums` keeps that order per row while adding whole
columns, so a tile's probabilities cost a few dozen array operations rather
than one ``.sum()`` call per row.  The halves never see a draw: the engine
compares each shot's uniform with its row's P(1) and collapses each row
onto the outcome its shots drew.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.statevector import _ATOL


@functools.lru_cache(maxsize=1024)
def _axis_orders(
    targets: tuple[int, ...], num_qubits: int, lead: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(forward, inverse)`` transpose orders for a gate on ``targets``.

    The tensor has ``lead`` batch axes, then one axis per qubit: axis
    ``lead + j`` is qubit ``num_qubits - 1 - j``.  The row index after
    ``reshape(2**k, -1)`` treats the first axis after the batch axes as its
    MSB, and the matrices treat ``targets[0]`` as the LSB, so ``forward``
    moves the *reversed* target axes right behind the batch axes and keeps
    every other axis in order; ``inverse`` puts them back.  That is the
    permutation a move-axes call derives, so the view, the GEMM shape and
    every output bit are unchanged; caching it saves re-deriving it on each
    gate, which cost more than the small matmuls themselves.

    Raises :class:`SimulationError` for a target outside ``0..num_qubits-1``
    or a repeated one.  The check runs once per cached key, and the cache
    keeps no exception, so bad targets raise on every call.
    """
    if len(set(targets)) != len(targets) or not all(
        0 <= t < num_qubits for t in targets
    ):
        raise SimulationError(
            f"targets {list(targets)} are not distinct qubits of a "
            f"{num_qubits}-qubit state"
        )
    src_axes = tuple(lead + num_qubits - 1 - t for t in reversed(targets))
    rest = tuple(a for a in range(lead, lead + num_qubits) if a not in src_axes)
    forward = tuple(range(lead)) + src_axes + rest
    inverse = [0] * len(forward)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    return forward, tuple(inverse)


def batch_apply_matrix(
    states: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to ``targets`` of every batched state.

    ``states`` is ``(batch, 2**num_qubits)``; ``matrix`` is one ``(2**k,
    2**k)`` unitary for every row, or a ``(batch, 2**k, 2**k)`` stack whose
    slice ``i`` acts on row ``i``.  Returns a new array of the same shape
    as ``states`` whose row ``i`` equals the flat ``apply_matrix(states[i],
    m_i, targets, num_qubits)`` bit for bit, ``m_i`` being row ``i``'s
    matrix: either way matmul multiplies one contiguous ``2^k x 2^k`` slice
    by one row's block, the GEMM the flat kernel issues.  The axis shuffles
    are plain transposes by orders cached per ``(targets, num_qubits, 1)``:
    the flat kernel's permutation with the batch axis kept in front, so
    every row sees the flat view and GEMM shape.  Deriving the orders per
    call cost more than the matmul on the small states this engine batches.
    """
    k = len(targets)
    batch = states.shape[0]
    if matrix.shape not in ((2**k, 2**k), (batch, 2**k, 2**k)):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
            f" and {batch} row(s)"
        )
    shape = [batch] + [2] * num_qubits
    forward, inverse = _axis_orders(tuple(targets), num_qubits, 1)
    tensor = states.reshape(shape).transpose(forward)
    stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
    stacked = np.matmul(matrix, stacked)
    return stacked.reshape(shape).transpose(inverse).reshape(batch, 2**num_qubits)


def _pairwise_row_sums(block: np.ndarray) -> np.ndarray:
    """Each row's ``.sum()``, bit for bit, computed as whole-column adds.

    ``block`` is ``(rows, width)`` with non-negative entries and a
    power-of-two ``width`` (one qubit's half of a state, ``2**(n-1)``).
    A 1-D ``.sum()`` is numpy's pairwise summation, whose order this
    replays for every row at once:

    * under 8 entries, a left-to-right sum;
    * up to 128, eight lane accumulators (lane ``j`` adds entries ``j``,
      ``j + 8``, ... in turn) folded as ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``;
    * above 128, the sums of the two halves, added.  For a power-of-two
      width the halving stops at 128-entry leaves, so every leaf's lanes
      run at once and the leaf sums are added in pairs, level by level.

    ``sum(axis=1)`` is no substitute: on the column-major block that
    ``states[:, ones]`` gathers it adds column after column, and drifts by
    an ulp on many rows from 8 columns (4 qubits) up.
    """
    columns = block.T  # (width, rows); C-contiguous for a gathered block
    width = len(columns)
    if width < 8:
        total = columns[0].copy()
        for column in columns[1:]:
            total += column
        return total
    leaves = columns.reshape(-1, min(width, 128), columns.shape[1])
    lanes = leaves[:, :8].copy()
    for start in range(8, leaves.shape[1], 8):
        lanes += leaves[:, start:start + 8]
    l0, l1, l2, l3, l4, l5, l6, l7 = lanes.transpose(1, 0, 2)
    sums = ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


def _qubit_mask(qubit: int, num_qubits: int) -> np.ndarray:
    """The amplitudes of a ``num_qubits`` state where ``qubit`` reads 1.

    Raises :class:`SimulationError` for a ``qubit`` outside
    ``0..num_qubits-1``: a qubit the state lacks must not read as P(1) = 0.
    """
    if not 0 <= qubit < num_qubits:
        raise SimulationError(
            f"qubit {qubit} is not a qubit of a {num_qubits}-qubit state"
        )
    return (np.arange(2**num_qubits) & (1 << qubit)) != 0


def batch_p1(states: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """P(``qubit`` = 1) of every batched state, bit for bit the serial value.

    Entry ``i`` equals the flat-state ``measure_probabilities(states[i],
    qubit, num_qubits)`` of the serial reference: each row's pairwise sum of
    its gathered ``|amp|**2`` block, the order of the serial 1-D ``.sum()``,
    taken for all rows at once as whole-column adds
    (:func:`_pairwise_row_sums`).  A shot measures outcome 1 exactly when
    its uniform is below its row's entry.  Raises :class:`SimulationError`
    for a ``qubit`` outside ``0..num_qubits-1``.
    """
    ones = _qubit_mask(qubit, num_qubits)
    return _pairwise_row_sums(np.abs(states[:, ones]) ** 2)


def batch_collapse(
    states: np.ndarray, qubit: int, num_qubits: int, outcomes: np.ndarray
) -> np.ndarray:
    """Collapse row ``i`` onto ``qubit`` = ``outcomes[i]`` and renormalise.

    Returns a new array whose row ``i`` equals the flat-state
    ``collapse(states[i], qubit, outcomes[i], num_qubits)`` of the serial
    reference bit for bit: the norm is ``sqrt(re.re + im.im)`` with each dot
    a stacked row-vector ``np.matmul``, which issues per row the same
    strided BLAS dot that ``np.linalg.norm`` does.  ``einsum`` or a sum of
    squares does not.

    Raises :class:`SimulationError` for a ``qubit`` outside
    ``0..num_qubits-1``, for ``outcomes`` that are not one per row, and
    (the serial error) when a row collapses onto a zero-probability branch.
    """
    ones = _qubit_mask(qubit, num_qubits)
    if np.shape(outcomes) != (len(states),):
        raise SimulationError(
            f"outcomes of shape {np.shape(outcomes)} for {len(states)} row(s): "
            "collapse takes one outcome per row"
        )
    collapsed = np.where(ones == outcomes[:, None], states, 0.0)
    re, im = collapsed.real[:, None, :], collapsed.imag[:, None, :]
    squared = np.matmul(re, re.transpose(0, 2, 1)) + np.matmul(
        im, im.transpose(0, 2, 1)
    )
    norm = np.sqrt(squared[:, 0, 0])
    lost = (norm < _ATOL).nonzero()[0]
    if lost.size:
        raise SimulationError(
            f"collapse onto qubit {qubit}={int(outcomes[lost[0]])} has zero "
            "probability"
        )
    collapsed /= norm[:, None]
    return collapsed


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
        """Apply one unitary, or a per-row stack, to every row in place."""
        self._data = batch_apply_matrix(
            self._data, matrix, targets, self._num_qubits
        )

    def row(self, index: int) -> np.ndarray:
        """A copy of one row's flat amplitudes."""
        return self._data[index].copy()

    def __repr__(self) -> str:
        return (
            f"BatchStatevector(batch={self.batch_size}, "
            f"num_qubits={self._num_qubits})"
        )
