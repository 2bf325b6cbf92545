"""Fault modes and calibrated rates for the simulated code LLM.

This module is the **single calibration point** of the reproduction.
Everything else is mechanism: the model really emits the faulty code text,
the sandbox really raises, the repair loop really edits the code.  The rates below set how often each error mode fires, conditioned on
the model configuration, and are calibrated so the *aggregate* accuracies
reproduce the paper's operating points:

================================  ===========================================
Paper number                      Where it comes from here
================================  ===========================================
Fig. 3 base pass@1  ~18%          KNOWLEDGE['3b', False] x SYNTAX_BASE x SEM
Fig. 3 fine-tuned   ~28%          KNOWLEDGE['3b', True] (+10% from training)
Fig. 3 RAG          ~32% (+4%)    DOCS_SUPPRESSION on legacy/deprecated only
Fig. 3 CoT          ~60% (+32%)   COT_KNOWLEDGE overrides, SEM_PARAMS down
Fig. 3 SCoT         ~68% (+40%)   SCOT_KNOWLEDGE, fewer syntax slips
§V-D multi-pass     ~34% @ 3      REPAIR_SUCCESS: low for legacy/deprecated
                                  (stale knowledge regenerates stale calls)
Table I (QHE)       17.9..46.5    the 'qhe' profile: syntax-heavy task mix
§V-C split          45.7/33.8,    1 - syntax_total vs full-product accuracy
                    46.4/41.4
================================  ===========================================

Rates are per-profile because the two benchmarks exercise different failure
surfaces: the paper's own suite is semantics-heavy (advanced algorithms),
Qiskit HumanEval is library-syntax-heavy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.errors import LLMError

# ---------------------------------------------------------------------------
# Model configuration
# ---------------------------------------------------------------------------

SCALES = ("3b", "7b", "20b")
PROMPT_STYLES = ("plain", "cot", "scot")
PROFILES = ("suite", "qhe")


@dataclass(frozen=True)
class ModelConfig:
    """Which model variant and inference-time techniques are active."""

    scale: str = "3b"
    fine_tuned: bool = False
    rag_docs: bool = False
    rag_guides: bool = False
    prompt_style: str = "plain"
    temperature: float = 0.2
    profile: str = "suite"

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise LLMError(f"unknown scale '{self.scale}'")
        if self.prompt_style not in PROMPT_STYLES:
            raise LLMError(f"unknown prompt style '{self.prompt_style}'")
        if self.profile not in PROFILES:
            raise LLMError(f"unknown profile '{self.profile}'")
        if self.temperature <= 0:
            raise LLMError("temperature must be positive")

    def label(self) -> str:
        parts = [self.scale.upper()]
        if self.fine_tuned:
            parts.append("QK")
        if self.rag_docs or self.rag_guides:
            parts.append("RAG")
        if self.prompt_style != "plain":
            parts.append(self.prompt_style.upper())
        return "-".join(parts)


# ---------------------------------------------------------------------------
# Knowledge rates: P(model knows the algorithm structure) per tier
# ---------------------------------------------------------------------------

KNOWLEDGE: dict[tuple[str, bool], dict[str, float]] = {
    ("3b", False): {"basic": 0.60, "intermediate": 0.28, "advanced": 0.05},
    ("3b", True): {"basic": 0.70, "intermediate": 0.36, "advanced": 0.10},
    ("7b", False): {"basic": 0.62, "intermediate": 0.30, "advanced": 0.07},
    ("7b", True): {"basic": 0.80, "intermediate": 0.45, "advanced": 0.12},
    ("20b", False): {"basic": 0.70, "intermediate": 0.38, "advanced": 0.10},
    ("20b", True): {"basic": 0.88, "intermediate": 0.60, "advanced": 0.25},
}

#: QHE tasks per tier are library-usage flavoured, i.e. much closer to the
#: fine-tuning corpus than the suite's algorithm-design tasks — so knowledge
#: rates are higher, especially for fine-tuned models.
KNOWLEDGE_QHE: dict[tuple[str, bool], dict[str, float]] = {
    ("3b", False): {"basic": 0.50, "intermediate": 0.30, "advanced": 0.10},
    ("3b", True): {"basic": 0.85, "intermediate": 0.60, "advanced": 0.25},
    ("7b", False): {"basic": 0.78, "intermediate": 0.48, "advanced": 0.15},
    ("7b", True): {"basic": 0.90, "intermediate": 0.70, "advanced": 0.35},
    ("20b", False): {"basic": 0.75, "intermediate": 0.50, "advanced": 0.20},
    ("20b", True): {"basic": 0.97, "intermediate": 0.85, "advanced": 0.55},
}

#: CoT reasoning scaffolds supply the algorithm structure directly; the model
#: only has to follow them (paper: "allowed us to more directly inform the
#: model's decision-making process").
COT_KNOWLEDGE = {
    "suite": {"basic": 0.94, "intermediate": 0.84, "advanced": 0.76},
    "qhe": {"basic": 0.98, "intermediate": 0.95, "advanced": 0.90},
}
SCOT_KNOWLEDGE = {
    "suite": {"basic": 0.98, "intermediate": 0.94, "advanced": 0.88},
    "qhe": {"basic": 0.98, "intermediate": 0.93, "advanced": 0.86},
}

#: Some generated CoT prompts are themselves wrong (paper Section V-E); a bad
#: scaffold forces a structurally wrong program.
COT_IMPERFECTION = 0.06
SCOT_IMPERFECTION = 0.03

#: Algorithm-guide retrieval adds little (paper: the guide dataset was
#: "rather limited").
GUIDES_KNOWLEDGE_BOOST = 0.02

# ---------------------------------------------------------------------------
# Syntactic fault rates per mode
# ---------------------------------------------------------------------------

SYNTAX_MODES = (
    "legacy_api",        # execute()/Aer/BasicAer usage
    "deprecated_method", # qc.cu1 / qc.u3 / qc.toffoli / qc.iden
    "hallucinated_api",  # qc.hadamard and friends
    "bad_index",         # out-of-range qubit
    "python_syntax",     # unbalanced parenthesis
    "missing_transpile", # device job without transpiling (device tasks only)
)

#: mode -> rate, per (profile, fine_tuned).  Only *applicable* modes count
#: toward a program's total exposure (``missing_transpile`` exists solely for
#: device-run tasks), so these rates are meaningful per-mode probabilities.
SYNTAX_RATES: dict[tuple[str, bool], dict[str, float]] = {
    ("suite", False): {
        "legacy_api": 0.21,
        "deprecated_method": 0.15,
        "hallucinated_api": 0.075,
        "bad_index": 0.045,
        "python_syntax": 0.045,
        "missing_transpile": 0.30,
    },
    ("suite", True): {
        "legacy_api": 0.104,
        "deprecated_method": 0.078,
        "hallucinated_api": 0.033,
        "bad_index": 0.020,
        "python_syntax": 0.020,
        "missing_transpile": 0.156,
    },
    # Qiskit HumanEval: library-syntax-heavy prompts, so the syntax failure
    # surface is much larger (paper: only ~46% of QHE generations even run);
    # note fine-tuning barely reduces it — the stale corpus *teaches* the
    # removed API (the paper's central data-quality complaint).
    ("qhe", False): {
        "legacy_api": 0.32,
        "deprecated_method": 0.22,
        "hallucinated_api": 0.13,
        "bad_index": 0.073,
        "python_syntax": 0.073,
        "missing_transpile": 0.38,
    },
    ("qhe", True): {
        "legacy_api": 0.34,
        "deprecated_method": 0.24,
        "hallucinated_api": 0.145,
        "bad_index": 0.073,
        "python_syntax": 0.073,
        "missing_transpile": 0.36,
    },
}

#: P(suppress a legacy/deprecated emission | relevant doc chunk retrieved).
#: The paper found documentation RAG only partially effective ("the
#: documentation available ... is not up to date").
DOCS_SUPPRESSION = {"suite": 0.30, "qhe": 0.25}

#: Structured prompt styles reduce careless syntax slips; the effect is much
#: stronger on QHE's short library-usage tasks (paper V-C: CoT slightly
#: improved QHE syntactic accuracy over RAG).
STYLE_SYNTAX_FACTOR = {
    ("suite", "plain"): 1.0,
    ("suite", "cot"): 1.0,
    ("suite", "scot"): 0.85,
    ("qhe", "plain"): 1.0,
    ("qhe", "cot"): 0.81,
    ("qhe", "scot"): 0.78,
}

#: Larger models slip less on syntax (Granite-20B's QHE score is mostly a
#: syntax-accuracy story).
SCALE_SYNTAX_FACTOR = {"3b": 1.0, "7b": 1.0, "20b": 0.62}

# ---------------------------------------------------------------------------
# Semantic fault rates (given the model knows the structure)
# ---------------------------------------------------------------------------

#: P(minor parameter slip) by prompt style.
SEM_PARAMS = {"plain": 0.22, "cot": 0.08, "scot": 0.05}
#: Additional structural-slip rate even when knowledge is present.
SEM_STRUCTURE = {"plain": 0.04, "cot": 0.02, "scot": 0.015}

#: QHE profile: semantically simpler tasks.
SEM_PARAMS_QHE = {"plain": 0.10, "cot": 0.03, "scot": 0.03}
SEM_STRUCTURE_QHE = {"plain": 0.03, "cot": 0.01, "scot": 0.01}

#: Sampling-temperature sensitivity: fault rates scale linearly around the
#: reference temperature 0.2 (clamped to [0.5, 2.0]).
TEMPERATURE_SLOPE = 0.8
REFERENCE_TEMPERATURE = 0.2

# ---------------------------------------------------------------------------
# Repair model (multi-pass inference, paper Section IV-A / V-D)
# ---------------------------------------------------------------------------

#: P(a repair attempt fixes the fault | informative trace).  Legacy and
#: deprecated-API repairs fail often because the model's stale knowledge
#: regenerates the same removed call — the paper's stated explanation for
#: multi-pass saturation.
REPAIR_SUCCESS = {
    "legacy_api": 0.30,
    "deprecated_method": 0.30,
    "hallucinated_api": 0.80,
    "bad_index": 0.70,
    "python_syntax": 0.85,
    "missing_transpile": 0.75,
}

#: P(a repair pass introduces a fresh syntax fault) — editing is not free.
REPAIR_REGRESSION = 0.05

#: P(a semantic-feedback repair fixes a wrong structure).  Low: without new
#: knowledge the model cannot invent the right algorithm (saturation).
SEM_REPAIR_SUCCESS = {"plain": 0.12, "cot": 0.25, "scot": 0.25}


# ---------------------------------------------------------------------------
# Rate resolution
# ---------------------------------------------------------------------------


@dataclass
class ResolvedRates:
    """All probabilities for one (config, tier, family) generation."""

    p_know: float
    syntax: dict[str, float]
    p_sem_structure: float
    p_sem_params: float
    p_scaffold_wrong: float

    def temperature_scaled(self, temperature: float) -> "ResolvedRates":
        factor = 1.0 + TEMPERATURE_SLOPE * (temperature - REFERENCE_TEMPERATURE)
        factor = float(np.clip(factor, 0.5, 2.0))
        return ResolvedRates(
            p_know=self.p_know,
            syntax={k: min(0.95, v * factor) for k, v in self.syntax.items()},
            p_sem_structure=min(0.95, self.p_sem_structure * factor),
            p_sem_params=min(0.95, self.p_sem_params * factor),
            p_scaffold_wrong=self.p_scaffold_wrong,
        )


def resolve_rates(config: ModelConfig, tier: str) -> ResolvedRates:
    """Combine the calibration tables for one generation."""
    table = KNOWLEDGE_QHE if config.profile == "qhe" else KNOWLEDGE
    know_table = table.get((config.scale, config.fine_tuned))
    if know_table is None:
        raise LLMError(f"no knowledge table for {config.scale}/{config.fine_tuned}")
    p_know = know_table[tier]
    scaffold_wrong = 0.0
    if config.prompt_style == "cot":
        p_know = max(p_know, COT_KNOWLEDGE[config.profile][tier])
        scaffold_wrong = COT_IMPERFECTION
    elif config.prompt_style == "scot":
        p_know = max(p_know, SCOT_KNOWLEDGE[config.profile][tier])
        scaffold_wrong = SCOT_IMPERFECTION
    if config.rag_guides:
        p_know = min(0.98, p_know + GUIDES_KNOWLEDGE_BOOST)

    syntax = dict(SYNTAX_RATES[(config.profile, config.fine_tuned)])
    style_factor = STYLE_SYNTAX_FACTOR[(config.profile, config.prompt_style)]
    scale_factor = SCALE_SYNTAX_FACTOR[config.scale]
    factor = style_factor * scale_factor
    if factor != 1.0:
        syntax = {k: v * factor for k, v in syntax.items()}

    if config.profile == "qhe":
        sem_params = SEM_PARAMS_QHE[config.prompt_style]
        sem_structure = SEM_STRUCTURE_QHE[config.prompt_style]
    else:
        sem_params = SEM_PARAMS[config.prompt_style]
        sem_structure = SEM_STRUCTURE[config.prompt_style]

    rates = ResolvedRates(
        p_know=p_know,
        syntax=syntax,
        p_sem_structure=sem_structure,
        p_sem_params=sem_params,
        p_scaffold_wrong=scaffold_wrong,
    )
    return rates.temperature_scaled(config.temperature)


# ---------------------------------------------------------------------------
# Fault injection: text transforms over generated code
# ---------------------------------------------------------------------------


@dataclass
class InjectionResult:
    code: str
    applied: bool
    detail: str = ""


def inject_legacy_api(code: str, rng: np.random.Generator) -> InjectionResult:
    """Rewrite the modern run idiom into the removed execute()/Aer API."""
    if "backend.run(" not in code or "LocalSimulator" not in code:
        return InjectionResult(code, False)
    new = code.replace(
        "from repro.quantum import QuantumCircuit, LocalSimulator",
        "from repro.quantum import QuantumCircuit, execute, Aer",
    )
    new = new.replace(
        "backend = LocalSimulator()",
        'backend = Aer.get_backend("qasm_simulator")',
    )
    new = re.sub(
        r"backend\.run\((\w+)([^)]*)\)\.result\(\)\.get_counts\(\)",
        r"execute(\1, backend\2).get_counts()",
        new,
    )
    return InjectionResult(new, new != code, "execute/Aer idiom")


_DEPRECATION_SWAPS = [
    ("qc.cp(", "qc.cu1("),
    ("qc.u(", "qc.u3("),
    ("qc.ccx(", "qc.toffoli("),
    ("qc.cx(", "qc.cnot("),
    ("qc.id(", "qc.iden("),
]


def inject_deprecated_method(code: str, rng: np.random.Generator) -> InjectionResult:
    applicable = [(a, b) for a, b in _DEPRECATION_SWAPS if a in code]
    if not applicable:
        return InjectionResult(code, False)
    old, new_call = applicable[int(rng.integers(len(applicable)))]
    return InjectionResult(
        code.replace(old, new_call, 1), True, f"{old} -> {new_call}"
    )


def inject_hallucinated_api(code: str, rng: np.random.Generator) -> InjectionResult:
    swaps = [("qc.h(", "qc.hadamard("), ("qc.measure(", "qc.measure_qubit(")]
    applicable = [(a, b) for a, b in swaps if a in code]
    if not applicable:
        return InjectionResult(code, False)
    old, new_call = applicable[int(rng.integers(len(applicable)))]
    return InjectionResult(code.replace(old, new_call, 1), True, f"{old} -> {new_call}")


def inject_bad_index(code: str, rng: np.random.Generator) -> InjectionResult:
    match = re.search(r"qc = QuantumCircuit\((\d+)", code)
    if match is None:
        return InjectionResult(code, False)
    lines = code.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("qc.measure"):
            lines.insert(i, "qc.x(99)")
            return InjectionResult("\n".join(lines) + "\n", True, "qc.x(99)")
    return InjectionResult(code, False)


def inject_python_syntax(code: str, rng: np.random.Generator) -> InjectionResult:
    lines = code.splitlines()
    candidates = [
        i for i, line in enumerate(lines) if line.rstrip().endswith("))")
    ]
    if not candidates:
        candidates = [
            i
            for i, line in enumerate(lines)
            if line.rstrip().endswith(")") and "(" in line
        ]
    if not candidates:
        return InjectionResult(code, False)
    idx = candidates[int(rng.integers(len(candidates)))]
    lines[idx] = lines[idx].rstrip()[:-1]
    return InjectionResult("\n".join(lines) + "\n", True, f"paren dropped line {idx+1}")


def inject_missing_transpile(code: str, rng: np.random.Generator) -> InjectionResult:
    if "transpile(qc, backend=backend)" not in code:
        return InjectionResult(code, False)
    new = code.replace("tqc = transpile(qc, backend=backend)", "tqc = qc")
    return InjectionResult(new, True, "transpile removed")


INJECTORS = {
    "legacy_api": inject_legacy_api,
    "deprecated_method": inject_deprecated_method,
    "hallucinated_api": inject_hallucinated_api,
    "bad_index": inject_bad_index,
    "python_syntax": inject_python_syntax,
    "missing_transpile": inject_missing_transpile,
}


#: Symbols each mode would introduce — used to check whether retrieved doc
#: chunks cover the migration (the mechanical RAG suppression trigger).
MODE_SYMBOLS = {
    "legacy_api": ("execute", "Aer"),
    "deprecated_method": ("cu1", "u3", "toffoli", "cnot", "iden"),
}

#: Current-API idioms whose presence in retrieved context also suppresses the
#: corresponding legacy emission: a model shown `backend.run(...)` in context
#: copies that instead of the stale `execute(...)` it learned.
MODE_CURRENT_HINTS = {
    "legacy_api": ("backend.run(", "LocalSimulator"),
    "deprecated_method": ("qc.cp(", "qc.u(", "qc.ccx(", "qc.cx(", "qc.id("),
}


# ---------------------------------------------------------------------------
# Repairs: trace -> code edit
# ---------------------------------------------------------------------------

_REPAIR_METHOD_MAP = {
    "cu1": "cp",
    "u1": "p",
    "u3": "u",
    "toffoli": "ccx",
    "cnot": "cx",
    "iden": "id",
    "fredkin": "cswap",
}


def repair_code(code: str, trace: str) -> tuple[str, str | None]:
    """Attempt a trace-driven repair; returns (new_code, repaired_mode).

    ``repaired_mode`` is None when the trace is not recognised — the caller
    then falls back to regeneration.
    """
    if "QuantumDeprecationError" in trace:
        method = re.search(r"'QuantumCircuit\.(\w+)' was removed", trace)
        if method and method.group(1) in _REPAIR_METHOD_MAP:
            old, new = method.group(1), _REPAIR_METHOD_MAP[method.group(1)]
            return code.replace(f"qc.{old}(", f"qc.{new}("), "deprecated_method"
        if "'execute'" in trace or "'Aer" in trace or "execute(" in code:
            new = code.replace(
                "from repro.quantum import QuantumCircuit, execute, Aer",
                "from repro.quantum import QuantumCircuit, LocalSimulator",
            )
            new = new.replace(
                'backend = Aer.get_backend("qasm_simulator")',
                "backend = LocalSimulator()",
            )
            new = re.sub(
                r"execute\((\w+), backend([^)]*)\)\.get_counts\(\)",
                r"backend.run(\1\2).result().get_counts()",
                new,
            )
            return new, "legacy_api"
        return code, None
    if "AttributeError" in trace:
        halluc = re.search(r"no attribute '(\w+)'", trace)
        if halluc:
            name = halluc.group(1)
            fixes = {"hadamard": "h", "measure_qubit": "measure"}
            if name in fixes:
                return code.replace(f"qc.{name}(", f"qc.{fixes[name]}("), "hallucinated_api"
        return code, None
    if "CircuitError" in trace and "out of range" in trace:
        lines = [l for l in code.splitlines() if "qc.x(99)" not in l]
        return "\n".join(lines) + "\n", "bad_index"
    if "SyntaxError" in trace:
        match = re.search(r"line (\d+)", trace)
        if match:
            lineno = int(match.group(1)) - 1
            lines = code.splitlines()
            if 0 <= lineno < len(lines):
                opens = lines[lineno].count("(") - lines[lineno].count(")")
                if opens > 0:
                    lines[lineno] = lines[lineno] + ")" * opens
                    return "\n".join(lines) + "\n", "python_syntax"
        return code, None
    if "BackendError" in trace and "transpile" in trace:
        new = code.replace("tqc = qc", "tqc = transpile(qc, backend=backend)")
        if "transpile" not in new.split("\n")[0] and "import" in new:
            new = new.replace(
                "from repro.quantum import QuantumCircuit, FakeBrisbane",
                "from repro.quantum import QuantumCircuit, FakeBrisbane, transpile",
            )
        return new, "missing_transpile"
    return code, None
