"""Gate decomposition: rewrite arbitrary gates into a target basis.

Two layers:

* :func:`expand_instruction` — structural identities that rewrite multi-qubit
  gates into {1-qubit gates, cx} (e.g. ``swap -> 3 cx``, the 6-cx Toffoli).
* :func:`one_qubit_to_basis` — numeric ZYZ extraction of (theta, phi, lambda)
  from any single-qubit unitary, then either a single ``u`` gate or the
  hardware sequence ``rz(phi+pi) sx rz(theta+pi) sx rz(lam)``.

All identities are verified numerically in the test suite against the gate
matrices, so a wrong rule cannot survive.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.errors import TranspilerError
from repro.quantum.circuit import Instruction
from repro.quantum.parameters import is_symbolic

_PI = math.pi
_ATOL = 1e-9


def zyz_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """Extract U(theta, phi, lam) angles from a 2x2 unitary, up to phase.

    Returns (theta, phi, lam) such that ``gate_matrix("u", (theta, phi,
    lam))`` equals ``matrix`` up to a global phase.
    """
    if matrix.shape != (2, 2):
        raise TranspilerError(f"zyz_angles needs a 2x2 matrix, got {matrix.shape}")
    # Remove global phase by making the matrix special-unitary.
    det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    su = matrix / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    # In SU(2), su = [[e^{-i(p+l)/2} cos, -e^{-i(p-l)/2} sin],
    #                 [e^{+i(p-l)/2} sin,  e^{+i(p+l)/2} cos]]
    # with cos(t/2), sin(t/2) >= 0 for t in [0, pi], so a single entry's
    # phase *is* half the angle sum/difference.  (Differencing the phases
    # of opposite corners — the old formulation — loses a 2*pi whenever an
    # entry's phase lands exactly on the -pi/+pi branch cut, e.g. the real
    # negative cosine of ry(t) for t > pi, which shifted both phi and lam
    # by pi: a different unitary, not a global phase.)
    if abs(su[1, 0]) <= _ATOL:
        # theta == 0: only phi+lam is defined; fold it all into lam.
        phi = 0.0
        lam = 2.0 * cmath.phase(su[1, 1])
    elif abs(su[0, 0]) <= _ATOL:
        # theta == pi: only phi-lam is defined; fold into phi.
        lam = 0.0
        phi = 2.0 * cmath.phase(su[1, 0])
    else:
        phi_plus_lam = 2.0 * cmath.phase(su[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su[1, 0])
        phi = (phi_plus_lam + phi_minus_lam) / 2.0
        lam = (phi_plus_lam - phi_minus_lam) / 2.0
    return theta, phi, lam


def one_qubit_to_basis(
    matrix: np.ndarray, qubit: int, basis: tuple[str, ...]
) -> list[Instruction]:
    """Rewrite a single-qubit unitary into instructions from ``basis``."""
    theta, phi, lam = zyz_angles(matrix)
    if "u" in basis:
        if abs(theta) < _ATOL and abs(phi) < _ATOL and abs(lam) < _ATOL:
            return []
        return [Instruction("u", (qubit,), params=(theta, phi, lam))]
    if "rz" in basis and "sx" in basis:
        return _u_to_zsx(theta, phi, lam, qubit)
    raise TranspilerError(
        f"cannot express a 1-qubit unitary in basis {basis}; "
        "need 'u' or ('rz' and 'sx')"
    )


def _wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(angle + _PI, 2 * _PI)
    if wrapped <= 0:
        wrapped += 2 * _PI
    return wrapped - _PI


def _u_to_zsx(theta: float, phi: float, lam: float, qubit: int) -> list[Instruction]:
    """U(theta, phi, lam) = RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam), up to phase.

    Degenerate angles collapse to shorter sequences (pure RZ when theta = 0).
    """
    def rz(angle: float) -> Instruction | None:
        angle = _wrap_angle(angle)
        if abs(angle) < _ATOL:
            return None
        return Instruction("rz", (qubit,), params=(angle,))

    theta_w = _wrap_angle(theta)
    if abs(theta_w) < _ATOL:
        only = rz(phi + lam)
        return [only] if only else []
    seq: list[Instruction | None] = [
        rz(lam),
        Instruction("sx", (qubit,)),
        rz(theta + _PI),
        Instruction("sx", (qubit,)),
        rz(phi + _PI),
    ]
    return [inst for inst in seq if inst is not None]


# ---------------------------------------------------------------------------
# Structural expansions: name -> builder(params, qubits) -> list[Instruction]
# ---------------------------------------------------------------------------


def _i(name: str, qubits: tuple[int, ...], *params: float) -> Instruction:
    return Instruction(name, qubits, params=tuple(params))


def _expand_swap(params, qs):
    a, b = qs
    return [_i("cx", (a, b)), _i("cx", (b, a)), _i("cx", (a, b))]


def _expand_cz(params, qs):
    a, b = qs
    return [_i("h", (b,)), _i("cx", (a, b)), _i("h", (b,))]


def _expand_cy(params, qs):
    a, b = qs
    return [_i("sdg", (b,)), _i("cx", (a, b)), _i("s", (b,))]


def _expand_ch(params, qs):
    a, b = qs
    return [
        _i("s", (b,)),
        _i("h", (b,)),
        _i("t", (b,)),
        _i("cx", (a, b)),
        _i("tdg", (b,)),
        _i("h", (b,)),
        _i("sdg", (b,)),
    ]


def _expand_crz(params, qs):
    (theta,) = params
    a, b = qs
    return [
        _i("rz", (b,), theta / 2),
        _i("cx", (a, b)),
        _i("rz", (b,), -theta / 2),
        _i("cx", (a, b)),
    ]


def _expand_cry(params, qs):
    (theta,) = params
    a, b = qs
    return [
        _i("ry", (b,), theta / 2),
        _i("cx", (a, b)),
        _i("ry", (b,), -theta / 2),
        _i("cx", (a, b)),
    ]


def _expand_crx(params, qs):
    (theta,) = params
    a, b = qs
    return [_i("h", (b,))] + _expand_crz(params, qs) + [_i("h", (b,))]


def _expand_cp(params, qs):
    (lam,) = params
    a, b = qs
    return [
        _i("p", (a,), lam / 2),
        _i("cx", (a, b)),
        _i("p", (b,), -lam / 2),
        _i("cx", (a, b)),
        _i("p", (b,), lam / 2),
    ]


def _expand_csx(params, qs):
    a, b = qs
    return [_i("p", (a,), _PI / 4)] + _expand_crx((_PI / 2,), qs)


def _expand_csxdg(params, qs):
    a, b = qs
    return [_i("p", (a,), -_PI / 4)] + _expand_crx((-_PI / 2,), qs)


def _expand_rzz(params, qs):
    (theta,) = params
    a, b = qs
    return [_i("cx", (a, b)), _i("rz", (b,), theta), _i("cx", (a, b))]


def _expand_rxx(params, qs):
    a, b = qs
    return (
        [_i("h", (a,)), _i("h", (b,))]
        + _expand_rzz(params, qs)
        + [_i("h", (a,)), _i("h", (b,))]
    )


def _expand_ryy(params, qs):
    a, b = qs
    return (
        [_i("rx", (a,), _PI / 2), _i("rx", (b,), _PI / 2)]
        + _expand_rzz(params, qs)
        + [_i("rx", (a,), -_PI / 2), _i("rx", (b,), -_PI / 2)]
    )


def _expand_iswap(params, qs):
    a, b = qs
    return [
        _i("s", (a,)),
        _i("s", (b,)),
        _i("h", (a,)),
        _i("cx", (a, b)),
        _i("cx", (b, a)),
        _i("h", (b,)),
    ]


def _expand_ccx(params, qs):
    a, b, c = qs
    return [
        _i("h", (c,)),
        _i("cx", (b, c)),
        _i("tdg", (c,)),
        _i("cx", (a, c)),
        _i("t", (c,)),
        _i("cx", (b, c)),
        _i("tdg", (c,)),
        _i("cx", (a, c)),
        _i("t", (b,)),
        _i("t", (c,)),
        _i("h", (c,)),
        _i("cx", (a, b)),
        _i("t", (a,)),
        _i("tdg", (b,)),
        _i("cx", (a, b)),
    ]


def _expand_ccz(params, qs):
    a, b, c = qs
    return [_i("h", (c,))] + _expand_ccx(params, qs) + [_i("h", (c,))]


def _expand_cswap(params, qs):
    a, b, c = qs
    return [_i("cx", (c, b))] + _expand_ccx(params, (a, b, c)) + [_i("cx", (c, b))]


_EXPANSIONS = {
    "swap": _expand_swap,
    "cz": _expand_cz,
    "cy": _expand_cy,
    "ch": _expand_ch,
    "crx": _expand_crx,
    "cry": _expand_cry,
    "crz": _expand_crz,
    "cp": _expand_cp,
    "csx": _expand_csx,
    "csxdg": _expand_csxdg,
    "rxx": _expand_rxx,
    "ryy": _expand_ryy,
    "rzz": _expand_rzz,
    "iswap": _expand_iswap,
    "ccx": _expand_ccx,
    "ccz": _expand_ccz,
    "cswap": _expand_cswap,
}


def expand_instruction(inst: Instruction) -> list[Instruction]:
    """One structural rewrite step; returns [inst] when no rule applies."""
    rule = _EXPANSIONS.get(inst.name)
    if rule is None:
        return [inst]
    return rule(inst.params, inst.qubits)


def decompose_to_basis(
    instructions: list[Instruction], basis: tuple[str, ...]
) -> list[Instruction]:
    """Rewrite a full instruction list into the target basis.

    Multi-qubit gates are structurally expanded until only basis gates and
    1-qubit gates remain; non-basis 1-qubit runs are re-synthesised via ZYZ.
    """
    basis = tuple(b.lower() for b in basis)
    if "cx" not in basis:
        raise TranspilerError(f"target basis {basis} must contain 'cx'")
    out: list[Instruction] = []
    for inst in instructions:
        out.extend(_decompose_one(inst, basis))
    return out


def _decompose_one(inst: Instruction, basis: tuple[str, ...]) -> list[Instruction]:
    if inst.name in ("measure", "reset", "barrier"):
        return [inst]
    if inst.name in basis:
        return [inst]
    if len(inst.qubits) == 1:
        if any(is_symbolic(p) for p in inst.params):
            # ZYZ extraction is numeric; a symbolic angle has no matrix yet.
            # The service's bound-template fast path catches this and falls
            # back to transpiling each bound point concretely.
            raise TranspilerError(
                f"cannot resynthesise 1-qubit gate '{inst.name}' with "
                f"symbolic parameter(s) into basis {basis}; bind the circuit "
                "or include the gate in the basis"
            )
        return one_qubit_to_basis(inst.matrix(), inst.qubits[0], basis)
    expanded = expand_instruction(inst)
    if len(expanded) == 1 and expanded[0].name == inst.name:
        raise TranspilerError(
            f"no decomposition rule for gate '{inst.name}' into basis {basis}"
        )
    result: list[Instruction] = []
    for sub in expanded:
        result.extend(_decompose_one(sub, basis))
    return result
