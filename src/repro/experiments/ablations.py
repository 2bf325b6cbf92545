"""Ablations over the design choices the paper calls out.

1. **FIM rate** (Section V-A: "the optimal FIM rate was 0.1") — held-out
   perplexity on plain code rises with FIM rate while perplexity on
   FIM-formatted text falls; the geometric-mean trade-off bottoms out at a
   small nonzero rate.
2. **RAG chunking** (Section V-C: "we used a basic RAG splitting technique
   ... we could see better accuracy if we used a more intelligent method") —
   naive fixed-size windows vs code-aware chunks, scored by migration-note
   retrieval coverage.
3. **Decoder choice** (Section V-E's decoder-scalability discussion) — MWPM
   vs union-find vs lookup on logical error rate.
4. **Surface-code distance / threshold** (Section V-B) — logical error rate
   vs physical rate for d in {3, 5}.
5. **Topology specificity** (Section V-E) — decoder generation across device
   topologies succeeds only on lattice-like maps.
6. **Transpiler optimization level** (the pipeline lowers every generated
   circuit before execution) — what routing/peephole quality buys on a noisy
   device: gate counts, depth, and success probability at levels 0/1/2.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.experiments.common import ExperimentResult
from repro.llm.corpus import build_corpus
from repro.llm.finetune import DatasetConfig, TrainingConfig, fine_tune
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.decoder_gen import generate_decoder
from repro.qec.experiments import logical_error_rate
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import memory_blocks
from repro.qec.unionfind import UnionFindDecoder
from repro.quantum.topology import CouplingMap
from repro.rag.chunking import code_aware_chunks, naive_chunks
from repro.rag.docs import API_DOCS
from repro.utils.parallel import parallel_map, resolve_workers
from repro.utils.rng import derive_rng


# ---------------------------------------------------------------------------
# 1. FIM rate
# ---------------------------------------------------------------------------


def _fim_holdout(texts: list[str], rng) -> list[str]:
    """FIM-transform held-out documents for format-familiarity scoring."""
    from repro.llm.finetune import apply_fim
    from repro.llm.tokenizer import tokenize

    return [" ".join(apply_fim(tokenize(t), rng)) for t in texts]


def fim_rate_ablation(
    rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25, 0.5),
    seed: int = 5,
) -> ExperimentResult:
    experiment = ExperimentResult(
        "ablation-fim", "FIM rate vs held-out perplexity (paper optimum: 0.1)"
    )
    corpus = build_corpus(seed=seed)
    rng = derive_rng(seed, "fim-holdout")
    for rate in rates:
        model, report = fine_tune(
            corpus,
            dataset_config=DatasetConfig(fim_rate=rate),
            training_config=TrainingConfig(seed=seed),
        )
        plain_ppl = report.perplexity_after
        holdout = [t for t in (f.content for f in corpus if not f.is_notebook)][:8]
        fim_texts = _fim_holdout(holdout, derive_rng(seed, "fim-eval", rate))
        fim_ppl = sum(model.perplexity(t) for t in fim_texts) / len(fim_texts)
        combined = (plain_ppl * fim_ppl) ** 0.5
        experiment.add(
            f"fim_rate={rate}",
            None,
            combined,
            unit="",
            note=f"plain ppl {plain_ppl:.2f}, FIM-format ppl {fim_ppl:.2f}",
        )
    return experiment


# ---------------------------------------------------------------------------
# 2. RAG chunking
# ---------------------------------------------------------------------------

#: Queries whose answer lives in a specific migration note.
_MIGRATION_QUERIES = (
    ("execute was removed backend run", "execute"),
    ("Aer get_backend removed", "Aer"),
    ("cu1 removed controlled phase", "cu1"),
    ("u3 removed single qubit rotation", "u3"),
    ("toffoli removed three qubit", "toffoli"),
)


def chunking_ablation(chunk_size: int = 400) -> ExperimentResult:
    """Retrieval coverage of migration notes per chunking strategy."""
    from repro.rag.embedding import TfidfEmbedder
    from repro.rag.store import VectorStore

    experiment = ExperimentResult(
        "ablation-chunking",
        "Naive vs code-aware chunking (paper Section V-C caveat)",
    )
    for strategy, chunker in (
        ("naive", lambda d, t: naive_chunks(d, t, chunk_size)),
        ("code_aware", lambda d, t: code_aware_chunks(d, t, chunk_size + 200)),
    ):
        store = VectorStore(TfidfEmbedder())
        chunks = []
        for doc_id, text in API_DOCS.items():
            chunks.extend(chunker(doc_id, text))
        store.add(chunks)
        hits = 0
        for query, must_contain in _MIGRATION_QUERIES:
            results = store.search(query, top_k=1)
            if any(must_contain in h.chunk.text for h in results):
                hits += 1
        # Integrity: a migration note is useful only when its "removed" and
        # its "use ..." replacement survive in the same chunk; boundary-
        # oblivious windows sever them (the paper's stated weakness).
        intact = 0
        total_notes = 0
        for chunk in chunks:
            for line in chunk.text.splitlines():
                if "was removed" in line:
                    total_notes += 1
                    if "use" in line:
                        intact += 1
        experiment.add(
            f"{strategy} top-1 hit rate ({len(chunks)} chunks)",
            None,
            100.0 * hits / len(_MIGRATION_QUERIES),
            note="migration note found at rank 1",
        )
        experiment.add(
            f"{strategy} note integrity",
            None,
            100.0 * intact / max(1, total_notes),
            note=f"{intact}/{total_notes} notes unsevered",
        )
    return experiment


# ---------------------------------------------------------------------------
# 3. Decoder comparison
# ---------------------------------------------------------------------------


def decoder_ablation(
    p_data: float = 0.02, rounds: int = 3, shots: int = 150, seed: int = 3
) -> ExperimentResult:
    experiment = ExperimentResult(
        "ablation-decoders", "Decoder comparison on surface-3 / repetition-5"
    )
    surface = SurfaceCode(3)
    for name, decoder in (
        ("surface-3 MWPM", MWPMDecoder(surface, "x")),
        ("surface-3 union-find", UnionFindDecoder(surface, "x")),
    ):
        # No wall-clock note: the rate comes through the result cache, so a
        # timing here would read the cache, not the decoder.  Per-decode
        # seconds are ``qec.mwpm.self_s`` / ``qec.unionfind.self_s`` in a
        # traced ``perfbench/run.py --workload qec-noisy`` run.
        result = logical_error_rate(
            surface, decoder, rounds, p_data, shots=shots, seed=seed
        )
        experiment.add(name, None, 100.0 * result.logical_error_rate)
    # Lookup decoder: single perfect round (its validity domain).
    rep = RepetitionCode(5)
    lookup = LookupDecoder(rep, "x", strict=False)
    rngs = (derive_rng(seed, "lookup", shot) for shot in range(shots))
    failures = 0
    for block in memory_blocks(rep, 1, p_data, 0.0, rngs, "x"):
        corrections = [lookup.decode(s) for s in block.syndromes[:, -1]]
        residual = block.true_error ^ np.array(corrections)
        failures += int(np.count_nonzero(rep.logical_flips(residual, "x")))
    experiment.add(
        "repetition-5 lookup (perfect meas.)",
        None,
        100.0 * failures / shots,
        note="single round",
    )
    return experiment


# ---------------------------------------------------------------------------
# 4. Distance / threshold behaviour
# ---------------------------------------------------------------------------


def distance_ablation(
    physical_rates: tuple[float, ...] = (0.005, 0.02, 0.08),
    distances: tuple[int, ...] = (3, 5),
    shots: int = 120,
    seed: int = 17,
) -> ExperimentResult:
    experiment = ExperimentResult(
        "ablation-distance",
        "Logical error rate vs physical rate and distance (threshold shape)",
    )
    for d in distances:
        code = SurfaceCode(d)
        decoder = MWPMDecoder(code, "x")
        for p in physical_rates:
            result = logical_error_rate(
                code, decoder, rounds=d, p_data=p, shots=shots, seed=seed
            )
            experiment.add(
                f"d={d}, p={p}",
                None,
                100.0 * result.logical_error_rate,
                note=f"per-round {result.logical_error_per_round:.4f}",
            )
    return experiment


# ---------------------------------------------------------------------------
# 5. Topology specificity
# ---------------------------------------------------------------------------


def topology_ablation(distance: int = 3) -> ExperimentResult:
    experiment = ExperimentResult(
        "ablation-topology",
        "Decoder generation across device topologies (Section V-E)",
    )
    devices = [
        CouplingMap.grid(5, 5),
        CouplingMap.grid(3, 3),
        CouplingMap.linear(12),
        CouplingMap.ring(12),
        CouplingMap.brisbane(),
    ]
    for device in devices:
        try:
            generated = generate_decoder(device, distance=distance)
            outcome, note = 100.0, f"data qubits placed: {len(generated.data_layout)}"
        except TopologyError as exc:
            outcome, note = 0.0, str(exc).split(":")[1][:60].strip()
        experiment.add(device.name, None, outcome, note=note)
    return experiment


# ---------------------------------------------------------------------------
# 6. Transpiler optimization level
# ---------------------------------------------------------------------------


def optimization_level_ablation(
    shots: int = 2048, seed: int = 11
) -> ExperimentResult:
    """How much does routing/peephole quality buy on a noisy device?

    The same logical circuits are lowered to ``fake_falcon`` at optimization
    levels 0/1/2 through the cached transpile stage, then sampled under the
    device noise model with a fixed seed.  Rows report the success
    probability; notes carry the two-qubit gate count, depth and size the
    level achieved — the circuit-quality axis the evalsuite's
    ``optimization_level`` arm varies.
    """
    from repro.quantum.execution import default_service, get_backend
    from repro.quantum.library import deutsch_jozsa, ghz_state

    experiment = ExperimentResult(
        "ablation-optlevel",
        "Transpiler optimization level: what routing quality buys "
        "(fake_falcon)",
    )
    backend = get_backend("fake_falcon")
    service = default_service()
    cases = [
        ("ghz-4", ghz_state(4, measure=True), ("0000", "1111")),
        ("dj-const0", deutsch_jozsa(3, "constant0"), ("000",)),
    ]
    for name, circuit, accepted in cases:
        for level in (0, 1, 2):
            lowered = service.transpile(
                circuit, backend=backend, optimization_level=level
            )
            counts = (
                service.run(lowered, backend=backend, shots=shots, seed=seed)
                .result()
                .get_counts()
            )
            total = sum(counts.values())
            success = sum(counts.get(k, 0) for k in accepted) / max(1, total)
            two_qubit = sum(
                1 for inst in lowered.instructions if len(inst.qubits) == 2
            )
            experiment.add(
                f"{name} O{level}",
                None,
                100.0 * success,
                note=(
                    f"{two_qubit} 2q gates, depth {lowered.depth()}, "
                    f"size {lowered.size()}"
                ),
            )
    return experiment


#: The six ablations, in report order.  Each is deterministic and
#: independent, so ``run_all`` can fan them across worker processes.
_ABLATIONS = (
    fim_rate_ablation,
    chunking_ablation,
    decoder_ablation,
    distance_ablation,
    topology_ablation,
    optimization_level_ablation,
)


def _run_ablation(index: int) -> ExperimentResult:
    """Run one ablation by position (module-level, hence picklable)."""
    return _ABLATIONS[index]()


def run_all(workers: int | None = None) -> list[ExperimentResult]:
    """All six ablations; ``workers`` / ``REPRO_EVAL_WORKERS`` fans the
    independent studies across processes with identical results."""
    resolved = resolve_workers(workers)
    return parallel_map(
        _run_ablation, [(i,) for i in range(len(_ABLATIONS))], resolved
    )


def main() -> None:
    for experiment in run_all():
        print(experiment.render())
        print()


if __name__ == "__main__":
    main()
