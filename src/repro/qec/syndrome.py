"""Noisy syndrome extraction.

Two layers, mirroring Figure 2 of the paper:

* :func:`sample_memory_block` — the *phenomenological* noise model: each
  round, every data qubit suffers an error with probability ``p_data``
  ("physical errors over time", Fig. 2a) and every check is read out wrongly
  with probability ``p_meas`` ("measurement error", Fig. 2b).  It samples
  many shots as arrays, one ``random`` call per shot from that shot's own
  generator, and returns every shot's detection events (Fig. 2c) plus the
  true accumulated error, so experiments can score the decoder's correction.
  :func:`memory_blocks` runs it over any number of shots in blocks of at
  most :data:`BLOCK_BYTES` of draws, and :func:`sample_memory` is its
  one-shot view, the only one that lists each round's injected flips and
  readout lies for Figure 2's trace.

* :func:`extraction_circuit` / :func:`run_extraction_on_tableau` — explicit
  ancilla-based syndrome measurement circuits executed on the stabilizer
  tableau, used to validate that the phenomenological model agrees with a
  real circuit for single faults.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.errors import DecodingError, QECError
from repro.qec.codes.base import CSSCode
from repro.quantum.circuit import QuantumCircuit
from repro.stabilizer.tableau import StabilizerTableau

#: A detection event: (round index, check index).
DetectionEvent = tuple[int, int]

#: Most bytes of uniform draws one block of :func:`memory_blocks` holds.
#: The block's other arrays are a small multiple of it, so peak memory
#: stays flat however many shots an experiment asks for.
BLOCK_BYTES = 1 << 20


def memory_shot_rng(
    seed: int,
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    shot: int,
) -> np.random.Generator:
    """The canonical per-shot generator of a memory experiment.

    Defined once so every sampling path — the inline scoring in
    :mod:`repro.qec.experiments` and the ExecutionService-routed
    ``qec_memory`` backend — derives bit-identical shots from the same
    ``(seed, experiment parameters, shot index)`` scope.
    """
    from repro.utils.rng import derive_rng

    return derive_rng(seed, "memory", code.name, rounds, p_data, p_meas, shot)


def check_count(value, what: str) -> None:
    """Raise :class:`QECError` unless ``value`` is an integer (not a bool).

    ``what`` names the unit (``"rounds"``, ``"shots"``) in the message.  The
    ``>= 1`` checks stay with each caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise QECError(
            f"memory experiment needs a whole number of {what}, got {value!r}"
        )


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
            changed relative to the previous round, in (round, check) order.
        true_error: (n,) bool — the accumulated data error at the end.
        injected: per-round lists of data qubits that flipped.
        measurement_flips: per-round lists of checks whose readout lied.

    Only :func:`sample_memory` fills ``injected`` and ``measurement_flips``,
    for Figure 2's trace; the histories scoring builds from a
    :class:`MemoryBlock` leave them empty.  They are the answer key, so a
    decoder must not read them.
    """

    code: CSSCode
    error_type: str
    rounds: int
    syndromes: np.ndarray
    detection_events: list[DetectionEvent]
    true_error: np.ndarray
    injected: list[list[int]] = field(default_factory=list)
    measurement_flips: list[list[int]] = field(default_factory=list)


@dataclass
class MemoryBlock:
    """Consecutive shots of one memory experiment, as arrays.

    Attributes:
        code, error_type, rounds: as in :class:`SyndromeHistory`.
        flips: (shots, rounds, n) bool — data qubits flipped each round.
        lies: (shots, rounds, num_checks) bool — readouts that lied.
        syndromes: (shots, rounds+1, num_checks) bool — measured syndromes;
            the last round is the perfect readout.
        true_error: (shots, n) bool — each shot's accumulated data error.
        event_bounds: (shots+1,) — shot ``i``'s events are entries
            ``event_bounds[i]:event_bounds[i+1]`` of the two lists below.
        event_rounds, event_checks: every detection event of the block in
            (shot, round, check) order.
    """

    code: CSSCode
    error_type: str
    rounds: int
    flips: np.ndarray
    lies: np.ndarray
    syndromes: np.ndarray
    true_error: np.ndarray
    event_bounds: list[int]
    event_rounds: list[int]
    event_checks: list[int]

    def __len__(self) -> int:
        return len(self.true_error)

    def history(self, shot: int) -> SyndromeHistory:
        """Shot ``shot`` of the block (0-based within it) as a history."""
        lo, hi = self.event_bounds[shot], self.event_bounds[shot + 1]
        return SyndromeHistory(
            code=self.code,
            error_type=self.error_type,
            rounds=self.rounds,
            syndromes=self.syndromes[shot],
            detection_events=list(
                zip(self.event_rounds[lo:hi], self.event_checks[lo:hi])
            ),
            true_error=self.true_error[shot],
        )

    def eventful(self) -> list[int]:
        """The shots (0-based within the block) with at least one event."""
        bounds = self.event_bounds
        return [i for i in range(len(self)) if bounds[i] != bounds[i + 1]]


def _check_memory_args(
    rounds: int, p_data: float, p_meas: float, error_type: str
) -> None:
    check_count(rounds, "rounds")
    if rounds < 1:
        raise QECError(f"memory experiment needs >= 1 round, got {rounds}")
    if not (0 <= p_data <= 1 and 0 <= p_meas <= 1):
        raise QECError("error probabilities must be in [0, 1]")
    if error_type not in ("x", "z"):
        raise QECError(f"error_type must be 'x' or 'z', got '{error_type}'")


def sample_memory_block(
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    rngs: Iterable[np.random.Generator],
    error_type: str = "x",
) -> MemoryBlock:
    """Sample one phenomenological memory-experiment shot per generator.

    Each of ``rounds`` noisy rounds: i.i.d. data errors then a noisy readout
    of every check.  A final perfect readout round is appended so all
    detection events are matchable (the usual memory-experiment convention).

    Shot ``i`` draws its ``rounds * (n + num_checks)`` doubles with one
    ``random`` call on the ``i``-th generator, in shot order, so a generator
    passed for several shots serves them one after another.  Round ``t``
    reads the data flips from doubles ``t*(n+m) .. t*(n+m)+n-1`` and the
    readout lies from the ``m`` after them: the order in which drawing
    ``random(n)`` then ``random(m)`` each round would consume them.
    """
    _check_memory_args(rounds, p_data, p_meas, error_type)
    checks = code.hz if error_type == "x" else code.hx
    num_checks, n = checks.shape
    width = n + num_checks
    draws = np.array(
        [rng.random(rounds * width) for rng in rngs], dtype=np.float64
    ).reshape(-1, rounds, width)
    shots = len(draws)
    flips = draws[:, :, :n] < p_data
    lies = draws[:, :, n:] < p_meas
    # The error after each round, and its true syndrome in one matmul.
    errors = np.logical_xor.accumulate(flips, axis=1)
    true_syndromes = (errors.astype(np.int64) @ checks.T.astype(np.int64)) % 2 == 1
    syndromes = np.empty((shots, rounds + 1, num_checks), dtype=bool)
    np.logical_xor(true_syndromes, lies, out=syndromes[:, :rounds])
    syndromes[:, rounds] = true_syndromes[:, -1]  # the perfect last round
    changed = syndromes.copy()
    changed[:, 1:] ^= syndromes[:, :-1]
    shot_of, event_rounds, event_checks = np.nonzero(changed)
    event_bounds = np.searchsorted(shot_of, np.arange(shots + 1))
    return MemoryBlock(
        code=code,
        error_type=error_type,
        rounds=rounds,
        flips=flips,
        lies=lies,
        syndromes=syndromes,
        true_error=errors[:, -1],
        event_bounds=event_bounds.tolist(),
        event_rounds=event_rounds.tolist(),
        event_checks=event_checks.tolist(),
    )


def memory_blocks(
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    rngs: Iterable[np.random.Generator],
    error_type: str = "x",
) -> Iterator[MemoryBlock]:
    """:func:`sample_memory_block` over ``rngs`` (one per shot), in blocks.

    Each block holds the next shots in order, at most :data:`BLOCK_BYTES`
    of draws (at least one shot).  ``rngs`` is consumed one shot at a time,
    so a lazy iterable keeps one generator alive, not one per shot.
    """
    _check_memory_args(rounds, p_data, p_meas, error_type)
    checks = code.hz if error_type == "x" else code.hx
    per_shot = 8 * rounds * (checks.shape[0] + checks.shape[1])
    block_shots = max(1, BLOCK_BYTES // per_shot)
    rngs = iter(rngs)
    while True:
        block = sample_memory_block(
            code, rounds, p_data, p_meas, islice(rngs, block_shots), error_type
        )
        if not len(block):
            return
        yield block


def check_decodable(history: SyndromeHistory, code: CSSCode, error_type: str) -> None:
    """Raise :class:`DecodingError` unless ``history`` fits a decoder of
    ``code``'s ``error_type`` errors.

    The history (or a :class:`MemoryBlock`: only ``code`` and
    ``error_type`` are read) must hold errors of that type, sampled on
    ``code`` itself or on a code with the same checks for that type.
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


def check_raw_events(code: CSSCode, events: list[DetectionEvent]) -> None:
    """Raise :class:`DecodingError` for a raw event list no history holds.

    A :class:`SyndromeHistory` lists each event as a (round, check) pair of
    integers (numpy's pass, bools do not), each at most once and never in a
    negative round; decoders handed a raw list refuse anything else before
    they look an event up or build a graph.
    """
    seen: set[DetectionEvent] = set()
    for event in events:
        try:
            t, c = event
        except (TypeError, ValueError):
            raise DecodingError(
                f"{code.name}: detection event {event!r} is not a "
                "(round, check) pair"
            ) from None
        for value, what in ((t, "round"), (c, "check")):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DecodingError(
                    f"{code.name}: detection event {event} has a {what} "
                    f"that is not an integer: {value!r}"
                )
        if t < 0:
            raise DecodingError(
                f"{code.name}: detection event {event} has a negative round"
            )
        if (t, c) in seen:
            raise DecodingError(
                f"{code.name}: detection event {event} is listed twice"
            )
        seen.add((t, c))


def sample_memory(
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    rng: np.random.Generator,
    error_type: str = "x",
) -> SyndromeHistory:
    """Sample one phenomenological memory-experiment shot.

    The one-shot view of :func:`sample_memory_block`, plus each round's
    injected data flips and readout lies for Figure 2's trace.  Loops over
    shots sample through :func:`memory_blocks` instead (lint rule R009).
    """
    block = sample_memory_block(code, rounds, p_data, p_meas, [rng], error_type)
    history = block.history(0)
    history.injected = [np.flatnonzero(row).tolist() for row in block.flips[0]]
    history.measurement_flips = [
        np.flatnonzero(row).tolist() for row in block.lies[0]
    ]
    return history


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
