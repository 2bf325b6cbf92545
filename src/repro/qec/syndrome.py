"""Noisy syndrome extraction.

Two layers, mirroring Figure 2 of the paper:

* :func:`sample_memory` — the *phenomenological* noise model: each round,
  every data qubit suffers an error with probability ``p_data`` ("physical
  errors over time", Fig. 2a) and every check is read out wrongly with
  probability ``p_meas`` ("measurement error", Fig. 2b).  Returns the
  detection events the decoder consumes (Fig. 2c) plus the true accumulated
  error, so experiments can score the decoder's correction.

* :func:`extraction_circuit` / :func:`run_extraction_on_tableau` — explicit
  ancilla-based syndrome measurement circuits executed on the stabilizer
  tableau, used to validate that the phenomenological model agrees with a
  real circuit for single faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodingError, QECError
from repro.qec.codes.base import CSSCode
from repro.quantum.circuit import QuantumCircuit
from repro.stabilizer.tableau import StabilizerTableau

#: A detection event: (round index, check index).
DetectionEvent = tuple[int, int]


def memory_shot_rng(
    seed: int,
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    shot: int,
) -> np.random.Generator:
    """The canonical per-shot generator of a memory experiment.

    Defined once so every sampling path — the legacy inline loop in
    :mod:`repro.qec.experiments` and the ExecutionService-routed
    ``qec_memory`` backend — derives bit-identical shots from the same
    ``(seed, experiment parameters, shot index)`` scope.
    """
    from repro.utils.rng import derive_rng

    return derive_rng(seed, "memory", code.name, rounds, p_data, p_meas, shot)


@dataclass
class SyndromeHistory:
    """Everything a decoder (and a Figure-2 style trace) needs for one shot.

    Attributes:
        code: the code sampled.
        error_type: 'x' or 'z' — which Pauli error accumulated.
        rounds: number of noisy extraction rounds (a final perfect round is
            appended, standard for memory experiments).
        syndromes: (rounds+1, num_checks) bool — *measured* syndromes per
            round; the last row is the perfect readout.
        detection_events: list of (round, check) where the measured syndrome
            changed relative to the previous round.
        true_error: (n,) bool — the accumulated data error at the end.
        injected: per-round lists of data qubits that flipped (for traces).
        measurement_flips: per-round lists of checks whose readout lied.
    """

    code: CSSCode
    error_type: str
    rounds: int
    syndromes: np.ndarray
    detection_events: list[DetectionEvent]
    true_error: np.ndarray
    injected: list[list[int]] = field(default_factory=list)
    measurement_flips: list[list[int]] = field(default_factory=list)


def check_decodable(history: SyndromeHistory, code: CSSCode, error_type: str) -> None:
    """Raise :class:`DecodingError` unless ``history`` fits a decoder of
    ``code``'s ``error_type`` errors.

    The history must hold errors of that type, sampled on ``code`` itself or
    on a code with the same checks for that type.
    """
    if history.error_type != error_type:
        raise DecodingError(
            f"{code.name}: a decoder of '{error_type}' errors was handed a "
            f"history of '{history.error_type}' errors"
        )
    if history.code is not code and not np.array_equal(
        history.code._checks_for(error_type), code._checks_for(error_type)
    ):
        raise DecodingError(
            f"{code.name}: the history was sampled on {history.code.name}, "
            f"whose '{error_type}'-error checks differ"
        )


def sample_memory(
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    rng: np.random.Generator,
    error_type: str = "x",
) -> SyndromeHistory:
    """Sample one phenomenological memory-experiment shot.

    Each of ``rounds`` noisy rounds: i.i.d. data errors then a noisy readout
    of every check.  A final perfect readout round is appended so all
    detection events are matchable (the usual memory-experiment convention).
    """
    if rounds < 1:
        raise QECError(f"memory experiment needs >= 1 round, got {rounds}")
    if not (0 <= p_data <= 1 and 0 <= p_meas <= 1):
        raise QECError("error probabilities must be in [0, 1]")
    if error_type not in ("x", "z"):
        raise QECError(f"error_type must be 'x' or 'z', got '{error_type}'")
    checks = code.hz if error_type == "x" else code.hx
    num_checks, n = checks.shape
    error = np.zeros(n, dtype=bool)
    measured = np.zeros((rounds + 1, num_checks), dtype=bool)
    injected: list[list[int]] = []
    meas_flips: list[list[int]] = []
    for t in range(rounds):
        flips = rng.random(n) < p_data
        error ^= flips
        injected.append(np.flatnonzero(flips).tolist())
        true_syndrome = (checks.astype(int) @ error.astype(int)) % 2 == 1
        lies = rng.random(num_checks) < p_meas
        meas_flips.append(np.flatnonzero(lies).tolist())
        measured[t] = true_syndrome ^ lies
    # Perfect final round.
    measured[rounds] = (checks.astype(int) @ error.astype(int)) % 2 == 1
    events: list[DetectionEvent] = []
    previous = np.zeros(num_checks, dtype=bool)
    for t in range(rounds + 1):
        changed = measured[t] ^ previous
        events.extend((t, int(c)) for c in np.flatnonzero(changed))
        previous = measured[t]
    return SyndromeHistory(
        code=code,
        error_type=error_type,
        rounds=rounds,
        syndromes=measured,
        detection_events=events,
        true_error=error,
        injected=injected,
        measurement_flips=meas_flips,
    )


# ---------------------------------------------------------------------------
# Circuit-level extraction (tableau-backed), used for validation and Figure 2
# ---------------------------------------------------------------------------


def extraction_circuit(code: CSSCode, error_type: str = "x") -> QuantumCircuit:
    """One round of ancilla-based syndrome extraction as a Clifford circuit.

    Data qubits are 0..n-1; each check gets one ancilla appended after them.
    Z-type checks (detecting X errors) use CX(data -> ancilla); X-type checks
    conjugate with Hadamards.  Ancillas are measured into classical bits in
    check order.
    """
    checks = code.hz if error_type == "x" else code.hx
    num_checks, n = checks.shape
    qc = QuantumCircuit(n + num_checks, num_checks, name=f"extract-{error_type}")
    for check_idx in range(num_checks):
        ancilla = n + check_idx
        support = np.flatnonzero(checks[check_idx])
        if error_type == "x":
            for q in support:
                qc.cx(int(q), ancilla)
        else:
            qc.h(ancilla)
            for q in support:
                qc.cx(ancilla, int(q))
            qc.h(ancilla)
        qc.measure(ancilla, check_idx)
        qc.reset(ancilla)
    return qc


def run_extraction_on_tableau(
    code: CSSCode,
    data_errors: list[int],
    error_type: str = "x",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Inject errors on a fresh tableau, run one extraction round, return syndrome.

    Validates the phenomenological model: the measured syndrome must equal
    ``code.syndrome(errors, error_type)`` exactly when measurement is
    noiseless.
    """
    checks = code.hz if error_type == "x" else code.hx
    num_checks, n = checks.shape
    tableau = StabilizerTableau(n + num_checks, rng=rng)
    if error_type == "z":
        # Prepare |+...+> so Z errors are detectable deviations.
        for q in range(n):
            tableau.h(q)
    pauli = "X" if error_type == "x" else "Z"
    for q in data_errors:
        if not 0 <= q < n:
            raise QECError(f"data qubit {q} out of range")
        getattr(tableau, pauli.lower())(q)
    bits = tableau.apply_circuit(extraction_circuit(code, error_type))
    return np.array(bits, dtype=bool)
