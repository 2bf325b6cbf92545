"""The simulated code-generation LLM.

``SimulatedCodeLLM.generate`` turns a natural-language prompt into Python
source targeting :mod:`repro.quantum`, through one fixed mechanism whose
rates :mod:`repro.llm.faults` calibrates: knowledge matching -> knowledge
roll -> variant selection -> syntactic fault injection (RAG-suppressed where
retrieved docs cover the symbol) -> code text.  ``repair`` implements the multi-pass capability: given
an error trace it edits the code like the paper's Section IV-A loop.

Every stochastic choice draws from the caller's RNG, so pipelines are
deterministic per seed, and every completion carries full provenance of what
happened — experiments aggregate provenance instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GenerationError
from repro.llm import faults as F
from repro.llm import synthesis
from repro.llm.knowledge import DEFAULT_KNOWLEDGE, KnowledgeBase


@dataclass
class Completion:
    """One model output plus provenance."""

    code: str
    family: str | None
    tier: str
    variant: str  # 'correct' | 'structure' | 'params' | 'nonsense'
    injected_faults: list[str] = field(default_factory=list)
    suppressed_faults: list[str] = field(default_factory=list)
    knowledge_hit: bool = False
    scaffold_wrong: bool = False
    retrieved_chunks: int = 0
    repaired_from: str | None = None

    @property
    def is_clean(self) -> bool:
        """True when no fault was injected and the structure is correct."""
        return self.variant == "correct" and not self.injected_faults


#: Applicability verdicts a model keeps before it starts its memo over.
_APPLICABILITY_MEMO_MAX = 16384


class SimulatedCodeLLM:
    """A deterministic, configurable stand-in for the fine-tuned StarCoder."""

    def __init__(
        self,
        config: F.ModelConfig,
        knowledge: KnowledgeBase | None = None,
    ) -> None:
        self.config = config
        self.knowledge = knowledge or DEFAULT_KNOWLEDGE
        self._applicable: dict[tuple[str, str], bool] = {}

    # -- generation ---------------------------------------------------------

    def generate(
        self,
        prompt_text: str,
        rng: np.random.Generator,
        params: dict | None = None,
        family_hint: str | None = None,
        retrieved_docs: list[str] | None = None,
    ) -> Completion:
        """Generate code for a prompt.

        Args:
            prompt_text: the natural-language task (the model keyword-matches
                it against its knowledge base, like an LLM pattern-matching
                its training distribution).
            rng: source of all randomness.
            params: task parameters (qubit counts, secrets...) — in a real
                deployment these are parsed from the prompt; the bank passes
                them explicitly so grading is exact.
            family_hint: override prompt matching (used by ablations).
            retrieved_docs: RAG context; presence of migration notes
                suppresses the corresponding legacy emissions.
        """
        params = params or {}
        family = family_hint or self.knowledge.match(prompt_text)[0]
        if family is None:
            code = synthesis.synthesize_nonsense(params)
            return Completion(
                code=code, family=None, tier="advanced", variant="nonsense"
            )
        spec = self.knowledge.get(family)
        rates = F.resolve_rates(self.config, spec.tier)

        # 1. Knowledge roll: does the model know this algorithm's structure?
        knowledge_hit = rng.random() < rates.p_know
        scaffold_wrong = False
        if knowledge_hit and rates.p_scaffold_wrong > 0:
            # CoT/SCoT scaffolds are sometimes wrong themselves (paper V-E).
            scaffold_wrong = rng.random() < rates.p_scaffold_wrong

        # 2. Variant selection.
        if not knowledge_hit:
            variant = "nonsense"
        elif scaffold_wrong or rng.random() < rates.p_sem_structure:
            variant = "structure"
        elif rng.random() < rates.p_sem_params:
            variant = "params"
        else:
            variant = "correct"

        if variant == "nonsense":
            code = synthesis.synthesize_nonsense(params)
        else:
            code = synthesis.synthesize(family, params, variant)

        # 3. Syntactic fault injection (at most one per completion —
        # empirically LLM outputs rarely stack independent API errors).
        # Only modes with an applicable site in this program count toward
        # the total exposure: e.g. missing_transpile only threatens
        # device-run code, so simulator tasks are not charged its rate.
        injected: list[str] = []
        suppressed: list[str] = []
        mode = self._roll_syntax_mode(code, rates, rng)
        if mode is not None:
            if self._rag_suppresses(mode, retrieved_docs, rng):
                suppressed.append(mode)
            else:
                result = F.INJECTORS[mode](code, rng)
                if result.applied:
                    code = result.code
                    injected.append(mode)

        return Completion(
            code=code,
            family=family,
            tier=spec.tier,
            variant="structure" if variant == "structure" else variant,
            injected_faults=injected,
            suppressed_faults=suppressed,
            knowledge_hit=knowledge_hit,
            scaffold_wrong=scaffold_wrong,
            retrieved_chunks=len(retrieved_docs or []),
        )

    def _roll_syntax_mode(
        self, code: str, rates: F.ResolvedRates, rng: np.random.Generator
    ) -> str | None:
        """Pick at most one *applicable* syntax fault, proportional to rates.

        Applicability is decided by dry-running each injector on the correct
        code; the roll's total probability is the sum of the applicable
        modes' rates.  Injectors are pure text transforms whose
        applicability does not depend on the generator, so the model keeps
        each ``(code, mode)`` verdict and dry-runs an injector only once
        per program.
        """
        applicable = [
            mode
            for mode, rate in rates.syntax.items()
            if rate > 0 and self._applies(code, mode)
        ]
        if not applicable:
            return None
        total = sum(rates.syntax[m] for m in applicable)
        if rng.random() >= min(total, 0.95):
            return None
        weights = np.array([rates.syntax[m] for m in applicable])
        return str(rng.choice(applicable, p=weights / weights.sum()))

    def _applies(self, code: str, mode: str) -> bool:
        key = (code, mode)
        applies = self._applicable.get(key)
        if applies is None:
            if len(self._applicable) >= _APPLICABILITY_MEMO_MAX:
                self._applicable.clear()
            probe = np.random.default_rng(0)
            applies = self._applicable[key] = F.INJECTORS[mode](code, probe).applied
        return applies

    def _rag_suppresses(
        self, mode: str, retrieved_docs: list[str] | None, rng: np.random.Generator
    ) -> bool:
        if not self.config.rag_docs or not retrieved_docs:
            return False
        symbols = F.MODE_SYMBOLS.get(mode, ())
        hints = F.MODE_CURRENT_HINTS.get(mode, ())
        if not symbols and not hints:
            return False
        covered = any(
            any(term in doc for term in symbols + hints)
            for doc in retrieved_docs
        )
        if not covered:
            return False
        return rng.random() < F.DOCS_SUPPRESSION[self.config.profile]

    # -- multi-pass repair -------------------------------------------------------

    def repair(
        self,
        completion: Completion,
        trace: str,
        rng: np.random.Generator,
        params: dict | None = None,
        semantic_feedback: bool = False,
    ) -> Completion:
        """One repair pass: prompt + previous code + error trace -> new code.

        Mirrors the paper's multi-pass template (Section IV-A): the model
        focuses on "fixing a small, singular error, rather than regenerating
        the entire program".
        """
        params = params or {}
        if semantic_feedback:
            return self._repair_semantic(completion, rng, params)
        new_code, mode = F.repair_code(completion.code, trace)
        success_rate = F.REPAIR_SUCCESS.get(mode or "", 0.0)
        if mode is None or rng.random() >= success_rate:
            # Repair failed: the model re-emits essentially the same code
            # (stale knowledge reproduces the stale call).
            return Completion(
                code=completion.code,
                family=completion.family,
                tier=completion.tier,
                variant=completion.variant,
                injected_faults=list(completion.injected_faults),
                knowledge_hit=completion.knowledge_hit,
                scaffold_wrong=completion.scaffold_wrong,
                repaired_from=None,
            )
        remaining = [f for f in completion.injected_faults if f != mode]
        # Editing can regress: occasionally a fresh syntax slip sneaks in.
        if rng.random() < F.REPAIR_REGRESSION:
            result = F.inject_python_syntax(new_code, rng)
            if result.applied:
                new_code = result.code
                remaining.append("python_syntax")
        return Completion(
            code=new_code,
            family=completion.family,
            tier=completion.tier,
            variant=completion.variant,
            injected_faults=remaining,
            knowledge_hit=completion.knowledge_hit,
            scaffold_wrong=completion.scaffold_wrong,
            repaired_from=mode,
        )

    def _repair_semantic(
        self, completion: Completion, rng: np.random.Generator, params: dict
    ) -> Completion:
        """Semantic feedback ("wrong output distribution") repair attempt."""
        success = F.SEM_REPAIR_SUCCESS[self.config.prompt_style]
        if completion.family is None or rng.random() >= success:
            return completion
        code = synthesis.synthesize(completion.family, params, "correct")
        return Completion(
            code=code,
            family=completion.family,
            tier=completion.tier,
            variant="correct",
            injected_faults=[],
            knowledge_hit=True,
            scaffold_wrong=False,
            repaired_from="semantic",
        )


def make_model(
    scale: str = "3b",
    fine_tuned: bool = False,
    rag_docs: bool = False,
    rag_guides: bool = False,
    prompt_style: str = "plain",
    temperature: float = 0.2,
    profile: str = "suite",
) -> SimulatedCodeLLM:
    """Convenience factory mirroring the paper's model variants."""
    config = F.ModelConfig(
        scale=scale,
        fine_tuned=fine_tuned,
        rag_docs=rag_docs,
        rag_guides=rag_guides,
        prompt_style=prompt_style,
        temperature=temperature,
        profile=profile,
    )
    return SimulatedCodeLLM(config)


# Guard against typos in calibration tables at import time.
for _key, _table in F.KNOWLEDGE.items():
    for _tier, _p in _table.items():
        if not 0.0 <= _p <= 1.0:
            raise GenerationError(f"bad knowledge rate {_key}/{_tier}: {_p}")
