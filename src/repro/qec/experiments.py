"""QEC experiments: memory runs, logical error rates, thresholds, lifetime.

These drive the paper's Section V-B/V-D claims:

* :func:`logical_error_rate` — the decoder-scored memory experiment.
* :func:`threshold_sweep` — logical vs physical error rate across distances
  (the crossing point is the code threshold).
* :func:`qec_suppression_factor` — the effective noise-reduction factor the
  Figure-4(c) experiment applies to the device noise model ("corresponding to
  the new error rate after QEC").
* :func:`average_qubit_lifetime_gain` — the paper's "extend the average qubit
  lifetime" claim, expressed in rounds.

Memory-experiment shot loops are the heaviest workload in the reproduction
(decoder benchmarking sweeps thousands of MWPM decodes), so they are routed
through the unified :class:`~repro.quantum.execution.service.ExecutionService`
rather than looping inline: each experiment becomes one
:class:`MemoryExperimentCircuit` executed on the registered ``qec_memory``
backend, which buys

* **caching** — a repeated ``logical_error_rate`` / ``threshold_sweep``
  invocation (same code, decoder, rates, seed) is a content-addressed cache
  hit, persisted across processes when the service has a disk tier;
* **observability** — decoder benchmarking now shows up in
  ``service.stats()`` next to circuit simulation counters.

Decoders the service cannot rebuild from a spec (anything other than the
stock MWPM/union-find decoders bound to the experiment's code and error
type) run inline instead.  Both paths score shots with
:func:`_score_shots`, whose per-shot randomness comes from
:func:`repro.qec.syndrome.memory_shot_rng`, so routed and inline results are
bit-identical.  It works on arrays, not shot by shot: shots are sampled in
blocks (:func:`repro.qec.syndrome.memory_blocks`, one ``random`` call per
shot), a stock decoder decodes only the histories with detection events
(:func:`decode_block`), and each block's logical failures are one matmul.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.errors import QECError
from repro.qec.codes.base import CSSCode
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import (
    MemoryBlock,
    check_count,
    check_decodable,
    memory_blocks,
    memory_shot_rng,
)
from repro.qec.unionfind import UnionFindDecoder
from repro.quantum.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    ExecutionService,
    default_service,
    list_backends,
    register_backend,
)
from repro.utils.rng import derive_seed, stable_hash
from repro.utils.stats import binomial_confidence_interval

#: Registry name of the memory-experiment execution target.
MEMORY_BACKEND = "qec_memory"


@dataclass(frozen=True)
class MemoryExperimentResult:
    """Aggregated memory-experiment statistics."""

    code_name: str
    decoder_name: str
    rounds: int
    p_data: float
    p_meas: float
    shots: int
    logical_failures: int

    @property
    def logical_error_rate(self) -> float:
        return self.logical_failures / self.shots

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return binomial_confidence_interval(self.logical_failures, self.shots)

    @property
    def logical_error_per_round(self) -> float:
        """Per-round failure probability inferred from the run-level rate."""
        p_run = min(self.logical_error_rate, 0.5)
        # p_run = (1 - (1 - 2 p_round)^rounds) / 2, inverted:
        inner = max(1.0 - 2.0 * p_run, 1e-12)
        return 0.5 * (1.0 - inner ** (1.0 / self.rounds))


# ---------------------------------------------------------------------------
# ExecutionService routing: the memory experiment as an executable work unit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryExperimentSpec:
    """Everything that determines a memory experiment's failure statistics.

    The spec (not any live decoder object) is what travels through the
    execution subsystem, so it must be content-hashable for the result
    cache.  ``decoder_kind`` is ``"mwpm"`` or ``"unionfind"``.  The
    fingerprint hashes that decoder class's ``VERSION`` too, so a change to
    one decoder misses exactly its own cached results, on every tier.
    """

    code: CSSCode
    rounds: int
    p_data: float
    p_meas: float
    error_type: str
    decoder_kind: str
    decoder_args: tuple[tuple[str, float | int | bool], ...] = ()

    def __post_init__(self) -> None:
        check_count(self.rounds, "rounds")
        if self.rounds < 1:
            raise QECError(
                f"memory experiment needs >= 1 round, got {self.rounds}"
            )
        if not (0 <= self.p_data <= 1 and 0 <= self.p_meas <= 1):
            raise QECError("error probabilities must be in [0, 1]")
        if self.error_type not in ("x", "z"):
            raise QECError(
                f"error_type must be 'x' or 'z', got '{self.error_type}'"
            )
        if self.decoder_kind not in _DECODERS:
            raise QECError(
                f"unknown decoder kind '{self.decoder_kind}'; routable kinds: "
                f"{sorted(_DECODERS)}"
            )

    def fingerprint(self) -> int:
        """64-bit content hash covering the code structure, every knob and
        the decoder's version."""
        return stable_hash(
            "qec-memory",
            self.code.name,
            self.code.hx.tobytes(),
            self.code.hz.tobytes(),
            self.code.logical_x.tobytes(),
            self.code.logical_z.tobytes(),
            self.rounds,
            self.p_data,
            self.p_meas,
            self.error_type,
            self.decoder_kind,
            _DECODERS[self.decoder_kind].VERSION,
            self.decoder_args,
        )

    def build_decoder(self):
        """Reconstruct the decoder this spec describes."""
        decoder_class = _DECODERS[self.decoder_kind]
        return decoder_class(self.code, self.error_type, **dict(self.decoder_args))


#: The routable decoder kinds.  ``decoder_args`` are keyword arguments of
#: the class (``time_weight`` for MWPM, none for union-find).
_DECODERS = {"mwpm": MWPMDecoder, "unionfind": UnionFindDecoder}


def _classify_decoder(
    decoder, code: CSSCode, error_type: str
) -> tuple[str, tuple[tuple[str, float | int | bool], ...]] | None:
    """Map a live decoder to a routable ``(kind, args)`` spec, or ``None``.

    ``None`` means the ExecutionService cannot faithfully rebuild this
    decoder from a spec (custom class, different code object, or an error
    type other than the one it was constructed for) and the caller must use
    the inline loop.
    """
    if getattr(decoder, "code", None) is not code:
        return None
    if getattr(decoder, "error_type", None) != error_type:
        return None
    if type(decoder) is MWPMDecoder:
        return "mwpm", (("time_weight", decoder.time_weight),)
    if type(decoder) is UnionFindDecoder:
        return "unionfind", ()
    return None


class MemoryExperimentCircuit(QuantumCircuit):
    """A memory experiment disguised as an executable circuit.

    The instruction stream encodes the spec fingerprint (two exactly-
    representable 32-bit rotation angles), which is all the content-addressed
    result cache hashes — two experiments collide exactly when their specs
    match.  The live :class:`MemoryExperimentSpec` rides along for the
    ``qec_memory`` backend.
    """

    def __init__(self, spec: MemoryExperimentSpec) -> None:
        super().__init__(1, 1, name=f"qec-memory-{spec.code.name}")
        self.spec = spec
        fp = spec.fingerprint()
        self.rz(float(fp >> 32), 0)
        self.rz(float(fp & 0xFFFFFFFF), 0)
        self.measure(0, 0)


class MemoryExperimentBackend(Backend):
    """Execution target that scores memory-experiment shots.

    ``counts`` uses one classical bit: ``"1"`` is a logical failure (the
    decoder's correction left the stored observable flipped), ``"0"`` a
    success; ``memory=True`` returns the per-shot outcome bits.  The shots
    run through :func:`_score_shots`, the loop inline runs use too.
    """

    def __init__(self) -> None:
        super().__init__(name=MEMORY_BACKEND, num_qubits=1)

    def execute_circuit(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: int | None = None,
        memory: bool = False,
    ) -> tuple[dict[str, int], list[str] | None]:
        spec = getattr(circuit, "spec", None)
        if not isinstance(spec, MemoryExperimentSpec):
            raise QECError(
                f"backend '{self.name}' executes MemoryExperimentCircuit "
                f"submissions only, got circuit '{circuit.name}'"
            )
        failed = _score_shots(
            spec.code,
            spec.build_decoder(),
            spec.rounds,
            spec.p_data,
            spec.p_meas,
            spec.error_type,
            shots,
            seed,
        )
        failures = sum(failed)
        counts: dict[str, int] = {}
        if shots - failures:
            counts["0"] = shots - failures
        if failures:
            counts["1"] = failures
        bits = ["1" if f else "0" for f in failed] if memory else None
        return counts, bits


if MEMORY_BACKEND not in list_backends():  # idempotent under re-import
    register_backend(
        MEMORY_BACKEND, MemoryExperimentBackend, aliases=("qec-memory",)
    )


def decode_block(block: MemoryBlock, decoder) -> np.ndarray:
    """Each shot's residual error: its true error XOR the decoder's correction.

    A stock decoder (MWPM or union-find) returns a zero correction for a
    history without events, so it decodes only the block's eventful shots.
    Its :func:`check_decodable` runs first, on the block, so a mismatched
    decoder is refused even when every history is empty.  Any other decoder
    is handed every shot.  Returns a (shots, n) bool array.
    """
    stock = type(decoder) in (MWPMDecoder, UnionFindDecoder)
    if stock:
        check_decodable(block, decoder.code, decoder.error_type)
    residual = block.true_error.copy()
    for shot in block.eventful() if stock else range(len(block)):
        history = block.history(shot)
        residual[shot] = history.true_error ^ decoder.decode(history).correction
    return residual


def _score_shots(
    code: CSSCode,
    decoder,
    rounds: int,
    p_data: float,
    p_meas: float,
    error_type: str,
    shots: int,
    seed: int | None,
) -> list[bool]:
    """Sample, decode and score every memory-experiment shot, in shot order.

    ``True`` marks a logical failure.  Shot ``i`` draws from
    :func:`memory_shot_rng` of ``seed``, the experiment's knobs and ``i``,
    so no shot's outcome depends on another's; ``seed=None`` shares one
    fresh-entropy generator across the shots, drawn shot after shot.

    Shots are sampled in blocks (:func:`memory_blocks`) and decoded by
    :func:`decode_block`; each block's residual parities against the
    conjugate logical are one matmul (:meth:`CSSCode.logical_flips`).
    """
    if seed is None:
        rngs = repeat(np.random.default_rng(), shots)
    else:
        rngs = (
            memory_shot_rng(seed, code, rounds, p_data, p_meas, shot)
            for shot in range(shots)
        )
    failed: list[bool] = []
    for block in memory_blocks(code, rounds, p_data, p_meas, rngs, error_type):
        residual = decode_block(block, decoder)
        failed.extend(code.logical_flips(residual, error_type).tolist())
    return failed


def logical_error_rate(
    code: CSSCode,
    decoder,
    rounds: int,
    p_data: float,
    p_meas: float | None = None,
    shots: int = 200,
    seed: int = 0,
    error_type: str = "x",
    service: ExecutionService | None = None,
) -> MemoryExperimentResult:
    """Score a decoder on the phenomenological memory experiment.

    A shot fails when (true error XOR decoder correction) flips the stored
    logical observable.  ``p_meas`` defaults to ``p_data`` (the standard
    phenomenological convention).

    Stock decoders (MWPM/union-find bound to ``code`` and ``error_type``)
    execute through the shared :class:`ExecutionService` — batched, cached,
    and visible in ``service.stats()``; any other history decoder falls
    back to the equivalent inline loop.  Both paths derive per-shot RNGs
    identically, so the choice never changes the result.  A
    :class:`LookupDecoder` decodes one syndrome, not a history: refused.
    """
    check_count(shots, "shots")
    if shots < 1:
        raise QECError("memory experiment needs >= 1 shot")
    if isinstance(decoder, LookupDecoder):
        raise QECError(
            "LookupDecoder decodes one syndrome, not a history: call "
            "decode(history.syndromes[-1]) as decoder_ablation does, or score "
            "MWPMDecoder or UnionFindDecoder"
        )
    p_meas = p_data if p_meas is None else p_meas
    routed = _classify_decoder(decoder, code, error_type)
    if routed is None:
        failures = sum(
            _score_shots(
                code, decoder, rounds, p_data, p_meas, error_type, shots, seed
            )
        )
    else:
        kind, args = routed
        spec = MemoryExperimentSpec(
            code=code,
            rounds=rounds,
            p_data=p_data,
            p_meas=p_meas,
            error_type=error_type,
            decoder_kind=kind,
            decoder_args=args,
        )
        svc = service if service is not None else default_service()
        counts = (
            svc.run(
                MemoryExperimentCircuit(spec),
                backend=MEMORY_BACKEND,
                shots=shots,
                seed=seed,
            )
            .result()
            .get_counts()
        )
        failures = counts.get("1", 0)
    return MemoryExperimentResult(
        code_name=code.name,
        decoder_name=type(decoder).__name__,
        rounds=rounds,
        p_data=p_data,
        p_meas=p_meas,
        shots=shots,
        logical_failures=failures,
    )


def threshold_sweep(
    code_factory,
    distances: list[int],
    physical_rates: list[float],
    rounds_per_distance: bool = True,
    shots: int = 200,
    seed: int = 0,
    decoder_factory=None,
    p_meas: float | None = None,
    error_type: str = "x",
    service: ExecutionService | None = None,
) -> dict[int, list[tuple[float, float]]]:
    """Logical error rate vs physical rate, one series per distance.

    Below threshold the larger code wins; above it, loses.  Returns
    ``{distance: [(p_physical, p_logical), ...]}``.

    ``p_meas`` and ``error_type`` thread through to every
    :func:`logical_error_rate` point (``p_meas=None`` keeps the
    phenomenological ``p_meas = p_data`` convention per point), and each
    distance samples under its own derived seed scope, so adding or
    reordering distances never perturbs another distance's shots.  Each
    point is one :func:`logical_error_rate` call, so a sweep point and a
    direct call at the same parameters share one cache entry.
    """
    if decoder_factory is None:
        decoder_factory = lambda code: MWPMDecoder(code, error_type)  # noqa: E731
    out: dict[int, list[tuple[float, float]]] = {}
    for distance in distances:
        code = code_factory(distance)
        decoder = decoder_factory(code)
        rounds = distance if rounds_per_distance else 1
        scoped_seed = derive_seed(seed, "threshold", distance)
        out[distance] = [
            (
                p,
                logical_error_rate(
                    code,
                    decoder,
                    rounds,
                    p,
                    p_meas=p_meas,
                    shots=shots,
                    seed=scoped_seed,
                    error_type=error_type,
                    service=service,
                ).logical_error_rate,
            )
            for p in physical_rates
        ]
    return out


def qec_suppression_factor(
    code: CSSCode,
    decoder,
    p_data: float,
    rounds: int | None = None,
    shots: int = 400,
    seed: int = 0,
    service: ExecutionService | None = None,
) -> float:
    """Effective noise suppression: logical rate per round / physical rate.

    This is the factor the Figure-4(c) experiment multiplies into the device
    noise model: after attaching the generated decoder, the effective error
    probability of each operation drops from p to p * factor.  Clamped to
    (0, 1]; a factor >= 1 means the code is operating above threshold and
    QEC would not help.  Raises :class:`~repro.errors.QECError` when
    ``p_data <= 0``, before running the memory experiment.
    """
    if p_data <= 0:
        raise QECError(
            f"suppression is relative to the physical error rate; p_data must "
            f"be positive, got {p_data}"
        )
    rounds = code.distance if rounds is None else rounds
    result = logical_error_rate(
        code, decoder, rounds, p_data, shots=shots, seed=seed, service=service
    )
    per_round = result.logical_error_per_round
    if per_round <= 0.0:
        # No observed failure: bound by the Wilson upper limit instead of 0.
        upper = binomial_confidence_interval(0, shots)[1]
        per_round = max(upper / rounds, 1e-9)
    return float(min(1.0, per_round / p_data))


def average_qubit_lifetime_gain(
    code: CSSCode,
    decoder,
    p_data: float,
    rounds: int | None = None,
    shots: int = 400,
    seed: int = 0,
    service: ExecutionService | None = None,
) -> float:
    """How many times longer the logical qubit survives vs a bare qubit.

    Bare qubit lifetime ~ 1/p per round; logical lifetime ~ 1/p_L per round.
    """
    factor = qec_suppression_factor(
        code, decoder, p_data, rounds, shots, seed, service=service
    )
    return 1.0 / factor
