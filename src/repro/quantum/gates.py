"""Gate definitions for the quantum SDK.

Every gate is described by a :class:`GateSpec` (arity, parameter count, and a
matrix builder).  The specs live in a single registry, :data:`GATE_SPECS`, that
the circuit builder, simulators, transpiler and QASM exporter all share, so a
gate added here is immediately usable everywhere.

A fixed gate's builder returns its one matrix.  A parametric gate's builder
returns the matrix's *entries*, nested lists of Python numbers, and the spec
wraps them: :meth:`GateSpec.matrix` makes one ``complex128`` array, and
:meth:`GateSpec.stack` makes the ``(rows, 2**k, 2**k)`` stack of many
parameter rows with one ``np.array`` call, each slice byte for byte that row's
matrix.  Both apply the same arity and unbound-parameter checks to every row.

Matrix conventions: qubit 0 is the *least significant* bit of the state index
(little-endian, matching Qiskit).  For multi-qubit gates the matrix is given in
the order ``(q0, q1, ...)`` = (control, target) for controlled gates.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import GateError
from repro.quantum import parameters as _params

Matrix = np.ndarray
#: A matrix as nested lists of Python numbers, row by row.
Entries = list[list[complex]]
MatrixBuilder = Callable[..., Matrix | Entries]

_SQ2 = 1.0 / math.sqrt(2.0)


def _mat(entries: Entries | Sequence[Entries]) -> Matrix:
    return np.array(entries, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Fixed single-qubit matrices
# ---------------------------------------------------------------------------

I_MATRIX = _mat([[1, 0], [0, 1]])
X_MATRIX = _mat([[0, 1], [1, 0]])
Y_MATRIX = _mat([[0, -1j], [1j, 0]])
Z_MATRIX = _mat([[1, 0], [0, -1]])
H_MATRIX = _mat([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
S_MATRIX = _mat([[1, 0], [0, 1j]])
SDG_MATRIX = _mat([[1, 0], [0, -1j]])
T_MATRIX = _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])
TDG_MATRIX = _mat([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])
SX_MATRIX = 0.5 * _mat([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
SXDG_MATRIX = SX_MATRIX.conj().T


# ---------------------------------------------------------------------------
# Parameterised single-qubit entries
# ---------------------------------------------------------------------------


def rx_entries(theta: float) -> Entries:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [[c, -1j * s], [-1j * s, c]]


def ry_entries(theta: float) -> Entries:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [[c, -s], [s, c]]


def rz_entries(theta: float) -> Entries:
    return [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]]


def phase_entries(lam: float) -> Entries:
    return [[1, 0], [0, cmath.exp(1j * lam)]]


def u_entries(theta: float, phi: float, lam: float) -> Entries:
    """General single-qubit rotation U(theta, phi, lambda)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [
        [c, -cmath.exp(1j * lam) * s],
        [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
    ]


# ---------------------------------------------------------------------------
# Multi-qubit matrices and entries
# ---------------------------------------------------------------------------


def controlled(base: Matrix | Entries) -> Entries:
    """Entries of the controlled version of a single-qubit matrix.

    Qubit order is (control, target) with the control the *first* qubit in the
    instruction's qubit list.  In little-endian indexing, basis index
    ``b = t*2 + c`` for qubits (c, t), so the control bit is bit 0: ``base``
    acts on indices 1 and 3, and indices 0 and 2 stay put.
    """
    (a, b), (c, d) = base
    return [[1, 0, 0, 0], [0, a, 0, b], [0, 0, 1, 0], [0, c, 0, d]]


CX_MATRIX = _mat(controlled(X_MATRIX))
CY_MATRIX = _mat(controlled(Y_MATRIX))
CZ_MATRIX = _mat(controlled(Z_MATRIX))
CH_MATRIX = _mat(controlled(H_MATRIX))
CSX_MATRIX = _mat(controlled(SX_MATRIX))
CSXDG_MATRIX = _mat(controlled(SXDG_MATRIX))

SWAP_MATRIX = _mat(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
)
ISWAP_MATRIX = _mat(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]
)


def crx_entries(theta: float) -> Entries:
    return controlled(rx_entries(theta))


def cry_entries(theta: float) -> Entries:
    return controlled(ry_entries(theta))


def crz_entries(theta: float) -> Entries:
    return controlled(rz_entries(theta))


def cp_entries(lam: float) -> Entries:
    return controlled(phase_entries(lam))


def rxx_entries(theta: float) -> Entries:
    c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
    return [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]]


def ryy_entries(theta: float) -> Entries:
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return [
        [c, 0, 0, 1j * s],
        [0, c, -1j * s, 0],
        [0, -1j * s, c, 0],
        [1j * s, 0, 0, c],
    ]


def rzz_entries(theta: float) -> Entries:
    e_minus = cmath.exp(-1j * theta / 2)
    e_plus = cmath.exp(1j * theta / 2)
    return [
        [e_minus, 0, 0, 0],
        [0, e_plus, 0, 0],
        [0, 0, e_plus, 0],
        [0, 0, 0, e_minus],
    ]


def _ccx_matrix() -> Matrix:
    # Qubits (c1, c2, t); little-endian index b = t*4 + c2*2 + c1.
    out = np.eye(8, dtype=np.complex128)
    # Both controls set: indices with bits 0 and 1 set -> 3 (t=0) and 7 (t=1).
    out[3, 3] = 0.0
    out[7, 7] = 0.0
    out[3, 7] = 1.0
    out[7, 3] = 1.0
    return out


CCX_MATRIX = _ccx_matrix()


def _cswap_matrix() -> Matrix:
    # Qubits (c, a, b); swap a<->b when c (bit 0) is 1.
    out = np.eye(8, dtype=np.complex128)
    # c=1, a=1, b=0 -> index 0b011=3 ; c=1, a=0, b=1 -> index 0b101=5.
    out[3, 3] = 0.0
    out[5, 5] = 0.0
    out[3, 5] = 1.0
    out[5, 3] = 1.0
    return out


CSWAP_MATRIX = _cswap_matrix()


def ccz_matrix() -> Matrix:
    out = np.eye(8, dtype=np.complex128)
    out[7, 7] = -1.0
    return out


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: canonical lower-case gate name.
        num_qubits: arity.
        num_params: number of float parameters.
        builder: callable returning the unitary given the parameters: the
            matrix of a fixed gate, the entries of a parametric one.
        self_inverse: whether ``G @ G == I`` (used by the gate-cancellation
            optimizer).
        hermitian_pair: name of the gate that is this gate's inverse, when that
            inverse is itself a named gate (e.g. ``s`` <-> ``sdg``).
    """

    name: str
    num_qubits: int
    num_params: int
    builder: MatrixBuilder
    self_inverse: bool = False
    hermitian_pair: str | None = None
    aliases: tuple[str, ...] = field(default_factory=tuple)

    def matrix(self, params: tuple[float, ...] = ()) -> Matrix:
        self._check(params)
        if self.num_params == 0:
            return self.builder()
        return _mat(self.builder(*params))

    def stack(self, rows: Sequence[tuple[float, ...]]) -> Matrix:
        """The ``(len(rows), 2**k, 2**k)`` stack of a parametric gate's
        matrices, one per parameter row, built with one ``np.array`` call.

        Every row passes :meth:`matrix`'s checks, and each slice equals its
        row's :meth:`matrix` byte for byte.
        """
        for params in rows:
            self._check(params)
        return _mat([self.builder(*params) for params in rows])

    def _check(self, params: tuple[float, ...]) -> None:
        if len(params) != self.num_params:
            raise GateError(
                f"gate '{self.name}' takes {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        if any(_params.is_symbolic(p) for p in params):
            raise GateError(
                f"[{_params.UNBOUND_PARAMETER_CODE}] gate '{self.name}' has "
                "unbound symbolic parameter(s); bind the circuit before "
                "requesting a matrix"
            )


def _const(matrix: Matrix) -> MatrixBuilder:
    return lambda: matrix


GATE_SPECS: dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    GATE_SPECS[spec.name] = spec
    for alias in spec.aliases:
        GATE_SPECS[alias] = spec


for _spec in [
    GateSpec("id", 1, 0, _const(I_MATRIX), self_inverse=True),
    GateSpec("x", 1, 0, _const(X_MATRIX), self_inverse=True),
    GateSpec("y", 1, 0, _const(Y_MATRIX), self_inverse=True),
    GateSpec("z", 1, 0, _const(Z_MATRIX), self_inverse=True),
    GateSpec("h", 1, 0, _const(H_MATRIX), self_inverse=True),
    GateSpec("s", 1, 0, _const(S_MATRIX), hermitian_pair="sdg"),
    GateSpec("sdg", 1, 0, _const(SDG_MATRIX), hermitian_pair="s"),
    GateSpec("t", 1, 0, _const(T_MATRIX), hermitian_pair="tdg"),
    GateSpec("tdg", 1, 0, _const(TDG_MATRIX), hermitian_pair="t"),
    GateSpec("sx", 1, 0, _const(SX_MATRIX), hermitian_pair="sxdg"),
    GateSpec("sxdg", 1, 0, _const(SXDG_MATRIX), hermitian_pair="sx"),
    GateSpec("rx", 1, 1, rx_entries),
    GateSpec("ry", 1, 1, ry_entries),
    GateSpec("rz", 1, 1, rz_entries),
    GateSpec("p", 1, 1, phase_entries, aliases=("phase",)),
    GateSpec("u", 1, 3, u_entries),
    GateSpec("cx", 2, 0, _const(CX_MATRIX), self_inverse=True, aliases=("cnot",)),
    GateSpec("cy", 2, 0, _const(CY_MATRIX), self_inverse=True),
    GateSpec("cz", 2, 0, _const(CZ_MATRIX), self_inverse=True),
    GateSpec("ch", 2, 0, _const(CH_MATRIX), self_inverse=True),
    GateSpec("csx", 2, 0, _const(CSX_MATRIX), hermitian_pair="csxdg"),
    GateSpec("csxdg", 2, 0, _const(CSXDG_MATRIX), hermitian_pair="csx"),
    GateSpec("swap", 2, 0, _const(SWAP_MATRIX), self_inverse=True),
    GateSpec("iswap", 2, 0, _const(ISWAP_MATRIX)),
    GateSpec("crx", 2, 1, crx_entries),
    GateSpec("cry", 2, 1, cry_entries),
    GateSpec("crz", 2, 1, crz_entries),
    GateSpec("cp", 2, 1, cp_entries, aliases=("cphase",)),
    GateSpec("rxx", 2, 1, rxx_entries),
    GateSpec("ryy", 2, 1, ryy_entries),
    GateSpec("rzz", 2, 1, rzz_entries),
    GateSpec("ccx", 3, 0, _const(CCX_MATRIX), self_inverse=True),
    GateSpec("ccz", 3, 0, ccz_matrix, self_inverse=True),
    GateSpec("cswap", 3, 0, _const(CSWAP_MATRIX), self_inverse=True),
]:
    _register(_spec)


#: Instruction names that are not unitary gates.
NON_UNITARY = frozenset({"measure", "reset", "barrier"})


def get_spec(name: str) -> GateSpec:
    """Look up a gate spec by (case-insensitive) name.

    Raises:
        GateError: if the gate is unknown.
    """
    spec = GATE_SPECS.get(name.lower())
    if spec is None:
        raise GateError(
            f"unknown gate '{name}'. Known gates: "
            + ", ".join(sorted({s.name for s in GATE_SPECS.values()}))
        )
    return spec


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> Matrix:
    """Return the unitary matrix for a named gate."""
    return get_spec(name).matrix(tuple(params))


def inverse_params(name: str, params: tuple[float, ...]) -> tuple[str, tuple[float, ...]]:
    """Return ``(name, params)`` of the inverse of a gate application."""
    spec = get_spec(name)
    if spec.self_inverse:
        return spec.name, params
    if spec.hermitian_pair is not None:
        return spec.hermitian_pair, params
    if spec.name == "u":
        theta, phi, lam = params
        return "u", (-theta, -lam, -phi)
    if spec.name == "iswap":
        # iswap^-1 has no named gate here; undo with three applications
        # is wrong, so express via parameters of xx+yy rotation instead.
        raise GateError("iswap has no named inverse; decompose it first")
    if spec.num_params >= 1:
        # All remaining parameterised gates are rotations: negate the angle(s).
        return spec.name, tuple(-p for p in params)
    raise GateError(f"cannot invert gate '{name}'")
