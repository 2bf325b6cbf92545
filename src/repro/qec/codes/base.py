"""CSS stabilizer-code base class.

A CSS code is defined by two binary parity-check matrices: ``hx`` (X-type
stabilizers, detecting Z errors) and ``hz`` (Z-type stabilizers, detecting X
errors), with ``hx @ hz.T = 0`` over GF(2).  The class derives Pauli-string
stabilizers, validates commutation relations, and builds the decoder matching
graphs that MWPM and union-find operate on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeConstructionError
from repro.stabilizer.pauli import PauliString
from repro.utils.graphs import add_edge

#: The virtual boundary vertex in matching graphs.
BOUNDARY = "boundary"


class CSSCode:
    """A CSS stabilizer code [[n, k, d]].

    Args:
        name: human-readable identifier.
        hx: bool array (mx, n) — X-stabilizer supports.
        hz: bool array (mz, n) — Z-stabilizer supports.
        logical_x: bool vector (n,) — support of one logical X operator.
        logical_z: bool vector (n,) — support of one logical Z operator.
        distance: claimed code distance (validated empirically in tests).
        data_coords: optional (n, 2) float coordinates for visualisation.
        x_check_coords / z_check_coords: optional check coordinates.
    """

    def __init__(
        self,
        name: str,
        hx: np.ndarray,
        hz: np.ndarray,
        logical_x: np.ndarray,
        logical_z: np.ndarray,
        distance: int,
        data_coords: np.ndarray | None = None,
        x_check_coords: np.ndarray | None = None,
        z_check_coords: np.ndarray | None = None,
    ) -> None:
        self.name = name
        self.hx = np.asarray(hx, dtype=bool)
        self.hz = np.asarray(hz, dtype=bool)
        self.logical_x = np.asarray(logical_x, dtype=bool)
        self.logical_z = np.asarray(logical_z, dtype=bool)
        self.distance = int(distance)
        self.data_coords = data_coords
        self.x_check_coords = x_check_coords
        self.z_check_coords = z_check_coords
        self._validate()

    # -- structure -----------------------------------------------------------

    @property
    def num_data_qubits(self) -> int:
        return self.hx.shape[1]

    @property
    def num_x_checks(self) -> int:
        return self.hx.shape[0]

    @property
    def num_z_checks(self) -> int:
        return self.hz.shape[0]

    @property
    def num_logical_qubits(self) -> int:
        rank_x = _gf2_rank(self.hx.copy())
        rank_z = _gf2_rank(self.hz.copy())
        return self.num_data_qubits - rank_x - rank_z

    def _validate(self) -> None:
        n = self.num_data_qubits
        if self.hz.shape[1] != n:
            raise CodeConstructionError(
                f"hx has {n} columns but hz has {self.hz.shape[1]}"
            )
        if self.logical_x.shape != (n,) or self.logical_z.shape != (n,):
            raise CodeConstructionError("logical operator support has wrong length")
        # CSS condition: every X check commutes with every Z check.
        overlap = (self.hx.astype(int) @ self.hz.astype(int).T) % 2
        if overlap.any():
            raise CodeConstructionError(
                f"{self.name}: hx and hz do not commute (CSS condition violated)"
            )
        # Logical X commutes with Z checks iff hz @ lx = 0; anticommutes rule.
        if ((self.hz.astype(int) @ self.logical_x.astype(int)) % 2).any():
            raise CodeConstructionError(
                f"{self.name}: logical X anticommutes with a Z stabilizer"
            )
        if ((self.hx.astype(int) @ self.logical_z.astype(int)) % 2).any():
            raise CodeConstructionError(
                f"{self.name}: logical Z anticommutes with an X stabilizer"
            )
        if int(self.logical_x.astype(int) @ self.logical_z.astype(int)) % 2 != 1:
            raise CodeConstructionError(
                f"{self.name}: logical X and Z must anticommute"
            )

    # -- stabilizers as Pauli strings ------------------------------------------

    def x_stabilizers(self) -> list[PauliString]:
        n = self.num_data_qubits
        return [
            PauliString.from_sparse(n, [(q, "X") for q in np.flatnonzero(row)])
            for row in self.hx
        ]

    def z_stabilizers(self) -> list[PauliString]:
        n = self.num_data_qubits
        return [
            PauliString.from_sparse(n, [(q, "Z") for q in np.flatnonzero(row)])
            for row in self.hz
        ]

    def stabilizers(self) -> list[PauliString]:
        return self.x_stabilizers() + self.z_stabilizers()

    def logical_x_operator(self) -> PauliString:
        n = self.num_data_qubits
        return PauliString.from_sparse(
            n, [(q, "X") for q in np.flatnonzero(self.logical_x)]
        )

    def logical_z_operator(self) -> PauliString:
        n = self.num_data_qubits
        return PauliString.from_sparse(
            n, [(q, "Z") for q in np.flatnonzero(self.logical_z)]
        )

    # -- syndromes ------------------------------------------------------------------

    def syndrome(self, error_bits: np.ndarray, error_type: str) -> np.ndarray:
        """Syndrome of a pure-X or pure-Z error pattern.

        ``error_type='x'`` means the data qubits in ``error_bits`` suffered X
        flips, detected by the Z checks; ``'z'`` errors are detected by X
        checks.
        """
        checks = self._checks_for(error_type)
        return (checks.astype(int) @ np.asarray(error_bits, dtype=int)) % 2 == 1

    def _checks_for(self, error_type: str) -> np.ndarray:
        if error_type == "x":
            return self.hz
        if error_type == "z":
            return self.hx
        raise CodeConstructionError(f"error_type must be 'x' or 'z', got '{error_type}'")

    def logical_flipped(self, error_bits: np.ndarray, error_type: str) -> bool:
        """Does this residual error anticommute with the conjugate logical?

        An X error flips the stored logical-Z eigenvalue when its support
        overlaps logical Z oddly (and vice versa).
        """
        conjugate = self.logical_z if error_type == "x" else self.logical_x
        return bool(int(conjugate.astype(int) @ np.asarray(error_bits, int)) % 2)

    def logical_flips(self, errors: np.ndarray, error_type: str) -> np.ndarray:
        """:meth:`logical_flipped` of every row of a (shots, n) error array,
        as a (shots,) bool array."""
        conjugate = self.logical_z if error_type == "x" else self.logical_x
        parity = np.asarray(errors, np.int64) @ conjugate.astype(np.int64)
        return parity % 2 == 1

    # -- matching graph ---------------------------------------------------------------

    def matching_graph(self, error_type: str) -> dict:
        """Decoder graph for one error type, as ``{node: {neighbour: fault}}``.

        Nodes are the virtual :data:`BOUNDARY` node, then the check indices
        (ints).  Each data qubit becomes an edge between the (at most two)
        checks that see it; qubits seen by a single check connect that check
        to the boundary.  An edge's value, its ``fault``, is the data qubit
        index; every edge has unit length.  Nodes and neighbours are in
        insertion order (:mod:`repro.utils.graphs`).

        Raises:
            CodeConstructionError: if some qubit triggers more than two
                checks (not a matchable code for this error type).
        """
        checks = self._checks_for(error_type)
        graph: dict = {BOUNDARY: {}}
        graph.update((check, {}) for check in range(checks.shape[0]))
        for qubit in range(checks.shape[1]):
            touching = np.flatnonzero(checks[:, qubit])
            if len(touching) == 0:
                continue  # undetectable by this check type
            if len(touching) == 1:
                add_edge(graph, int(touching[0]), BOUNDARY, qubit)
            elif len(touching) == 2:
                add_edge(graph, int(touching[0]), int(touching[1]), qubit)
            else:
                raise CodeConstructionError(
                    f"{self.name}: qubit {qubit} touches {len(touching)} "
                    f"{error_type}-detecting checks; matching decoders need <= 2"
                )
        return graph

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name='{self.name}', "
            f"n={self.num_data_qubits}, k={self.num_logical_qubits}, "
            f"d={self.distance})"
        )


def _gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a boolean matrix over GF(2), by Gaussian elimination."""
    m = matrix.astype(np.uint8) % 2
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank
