"""Quantum error correction: codes, syndrome extraction, decoders, experiments."""

from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.steane import SteaneCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.decoder_gen import GeneratedDecoder, generate_decoder
from repro.qec.experiments import (
    MemoryExperimentResult,
    average_qubit_lifetime_gain,
    logical_error_rate,
    qec_suppression_factor,
    threshold_sweep,
)
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MatchingResult, MWPMDecoder
from repro.qec.syndrome import (
    MemoryBlock,
    SyndromeHistory,
    extraction_circuit,
    memory_blocks,
    run_extraction_on_tableau,
    sample_memory,
)
from repro.qec.unionfind import UnionFindDecoder, UnionFindResult

__all__ = [
    "BOUNDARY",
    "CSSCode",
    "GeneratedDecoder",
    "LookupDecoder",
    "MWPMDecoder",
    "MatchingResult",
    "MemoryBlock",
    "MemoryExperimentResult",
    "RepetitionCode",
    "SteaneCode",
    "SurfaceCode",
    "SyndromeHistory",
    "UnionFindDecoder",
    "UnionFindResult",
    "average_qubit_lifetime_gain",
    "extraction_circuit",
    "generate_decoder",
    "logical_error_rate",
    "memory_blocks",
    "qec_suppression_factor",
    "run_extraction_on_tableau",
    "sample_memory",
    "threshold_sweep",
]
