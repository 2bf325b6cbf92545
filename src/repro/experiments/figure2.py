"""Figure 2 — evolution of qubits during QEC: errors, syndromes, decoding.

The paper's figure shows (a) X bit-flips violating surface-code stabilizers,
(b) measurement errors corrupting syndrome readout, and (c) the decoder
turning multiple faulty syndrome rounds into a correction set — "the errors
shown are from a circuit preparing the 1-qubit state |1>".

This driver reproduces the full trace: it prepares the logical |1> state of a
rotated surface code (an X-logical applied to |0>_L, whose Z-syndrome starts
trivial), injects phenomenological data + measurement noise over several
extraction rounds, renders the lattice per round, runs the MWPM decoder on
the detection events, and verifies that the correction returns the logical
qubit to |1> (i.e. no logical flip).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.qec.codes.surface import SurfaceCode
from repro.qec.experiments import decode_block
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import memory_blocks, sample_memory
from repro.utils.parallel import parallel_map, resolve_workers
from repro.utils.rng import derive_rng


def _stats_shot_batch(
    distance: int,
    rounds: int,
    p_data: float,
    p_meas: float,
    seed: int,
    start: int,
    stop: int,
) -> tuple[int, int]:
    """Decode shots [start, stop); per-shot RNGs make order irrelevant.

    Module-level and fully described by picklable scalars, so the statistics
    loop can fan across worker processes with bit-identical totals.
    """
    code = SurfaceCode(distance)
    decoder = MWPMDecoder(code, "x")
    rngs = (
        derive_rng(seed, "figure2", "stats", shot) for shot in range(start, stop)
    )
    checks = code.hz.T.astype(np.int64)
    cleared = 0
    preserved = 0
    for block in memory_blocks(code, rounds, p_data, p_meas, rngs, "x"):
        residual = decode_block(block, decoder)
        final_syndromes = (residual.astype(np.int64) @ checks) % 2
        cleared += int(np.count_nonzero(~final_syndromes.any(axis=1)))
        preserved += int(np.count_nonzero(~code.logical_flips(residual, "x")))
    return cleared, preserved


def run(
    distance: int = 3,
    rounds: int = 4,
    p_data: float = 0.04,
    p_meas: float = 0.04,
    seed: int = 11,
    shots_for_stats: int = 200,
    workers: int | None = None,
) -> ExperimentResult:
    code = SurfaceCode(distance)
    decoder = MWPMDecoder(code, "x")
    experiment = ExperimentResult(
        "figure2", "Surface-code error evolution and decoding trace"
    )

    # -- the single-shot illustrated trace (the figure itself) -------------
    rng = derive_rng(seed, "figure2", "trace")
    history = sample_memory(code, rounds, p_data, p_meas, rng, error_type="x")
    lines = [
        f"Rotated surface code d={distance}; preparing logical |1> "
        "(X-logical on |0>_L leaves Z-syndromes trivial).",
        f"{rounds} noisy extraction rounds, p_data={p_data}, p_meas={p_meas}.",
        "Legend: . data qubit, X data error, o Z-check, * fired Z-check.",
    ]
    cumulative = np.zeros(code.num_data_qubits, dtype=bool)
    for t in range(rounds):
        for q in history.injected[t]:
            cumulative[q] ^= True
        fired = set(int(c) for c in np.flatnonzero(history.syndromes[t]))
        meas_lies = history.measurement_flips[t]
        lines.append(
            f"\n(a) round {t}: new X errors on {history.injected[t] or 'none'}"
            + (f"   (b) measurement lies on checks {meas_lies}" if meas_lies else "")
        )
        lines.append(code.ascii_lattice(cumulative, fired, "x"))
    events = history.detection_events
    result = decoder.decode(history)
    lines.append(
        f"\n(c) decoder: {len(events)} detection events "
        f"{[(t, c) for t, c in events]}"
    )
    lines.append(
        "matched pairs: "
        + ", ".join(
            f"{a}-{'boundary' if b is None else b}" for a, b in result.matched_pairs
        )
        if result.matched_pairs
        else "no corrections needed"
    )
    corrections = sorted(int(q) for q in np.flatnonzero(result.correction))
    lines.append(f"corrections applied to data qubits: {corrections}")
    residual = history.true_error ^ result.correction
    logical_flip = code.logical_flipped(residual, "x")
    lines.append(
        "residual error is "
        + ("a logical flip (decoder failed)" if logical_flip else "a stabilizer "
           "(logical state |1> preserved)")
    )
    experiment.extras.append("\n".join(lines))

    # -- statistics over many shots (fanned across workers) ----------------
    resolved = resolve_workers(workers)
    step = max(1, -(-shots_for_stats // max(1, resolved * 4)))
    batches = [
        (distance, rounds, p_data, p_meas, seed, start,
         min(start + step, shots_for_stats))
        for start in range(0, shots_for_stats, step)
    ]
    totals = parallel_map(_stats_shot_batch, batches, resolved)
    cleared = sum(batch_cleared for batch_cleared, _ in totals)
    preserved = sum(batch_preserved for _, batch_preserved in totals)
    experiment.add(
        "decoder clears the final syndrome",
        100.0,
        100.0 * cleared / shots_for_stats,
        note=f"{shots_for_stats} shots",
    )
    experiment.add(
        "logical |1> preserved after correction",
        None,
        100.0 * preserved / shots_for_stats,
        note="paper shows a qualitative success trace",
    )
    return experiment


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
