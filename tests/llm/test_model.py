"""SimulatedCodeLLM: generation provenance, determinism, repair, RAG."""

import numpy as np
import pytest

from repro.agents.sandbox import run_code
from repro.llm.faults import ModelConfig
from repro.llm.knowledge import DEFAULT_KNOWLEDGE, KnowledgeBase
from repro.llm.model import SimulatedCodeLLM, make_model

BELL_PROMPT = "Create a Bell state and measure both qubits on a simulator"


class TestGeneration:
    def test_deterministic_given_rng(self):
        model = make_model(fine_tuned=True)
        a = model.generate(BELL_PROMPT, np.random.default_rng(5), params={})
        b = model.generate(BELL_PROMPT, np.random.default_rng(5), params={})
        assert a.code == b.code
        assert a.variant == b.variant

    def test_family_matched_from_text(self):
        model = make_model(fine_tuned=True)
        completion = model.generate(BELL_PROMPT, np.random.default_rng(0))
        assert completion.family == "bell"
        assert completion.tier == "basic"

    def test_family_hint_overrides(self):
        model = make_model(fine_tuned=True)
        completion = model.generate(
            "whatever text", np.random.default_rng(0), family_hint="ghz",
            params={"n": 3},
        )
        assert completion.family == "ghz"

    def test_unmatched_prompt_yields_nonsense(self):
        model = make_model(fine_tuned=True)
        completion = model.generate(
            "bake a sourdough loaf", np.random.default_rng(0)
        )
        assert completion.variant == "nonsense"
        assert run_code(completion.code).ok  # nonsense still runs

    def test_clean_completions_run(self):
        model = make_model(fine_tuned=True)
        for seed in range(30):
            completion = model.generate(
                BELL_PROMPT, np.random.default_rng(seed), params={}
            )
            if completion.is_clean:
                assert run_code(completion.code).ok

    def test_injected_faults_break_execution(self):
        model = make_model(fine_tuned=False)  # higher fault rates
        broken = 0
        for seed in range(60):
            completion = model.generate(
                BELL_PROMPT, np.random.default_rng(seed), params={}
            )
            if completion.injected_faults:
                broken += 1
                assert not run_code(completion.code).ok, completion.injected_faults
        assert broken > 3

    def test_fault_applicability_is_kept_per_program_and_mode(self):
        """The model's applicability memo answers like a dry run of each
        injector, for every suite program and mode, asked twice."""
        from repro.evalsuite.suite import build_suite
        from repro.llm.faults import INJECTORS

        model = make_model(fine_tuned=True)
        programs = [t.reference_code for t in build_suite() if t.reference_code]
        for _ in range(2):
            for code in programs:
                for mode, inject in INJECTORS.items():
                    probe = np.random.default_rng(1)
                    assert model._applies(code, mode) == inject(code, probe).applied

    def test_base_model_knows_less_than_finetuned(self):
        base = make_model(fine_tuned=False)
        tuned = make_model(fine_tuned=True)
        prompt = "Use Grover's search to find the marked state 11"
        base_hits = sum(
            base.generate(prompt, np.random.default_rng(s), params={"marked": "11"}).knowledge_hit
            for s in range(120)
        )
        tuned_hits = sum(
            tuned.generate(prompt, np.random.default_rng(s), params={"marked": "11"}).knowledge_hit
            for s in range(120)
        )
        assert tuned_hits > base_hits

    def test_scot_beats_plain_on_advanced(self):
        plain = make_model(fine_tuned=True)
        scot = make_model(fine_tuned=True, prompt_style="scot")
        prompt = "Implement quantum teleportation from Alice to Bob"
        plain_clean = sum(
            plain.generate(prompt, np.random.default_rng(s), params={}).is_clean
            for s in range(100)
        )
        scot_clean = sum(
            scot.generate(prompt, np.random.default_rng(s), params={}).is_clean
            for s in range(100)
        )
        assert scot_clean > plain_clean + 10


class TestRAGSuppression:
    def test_docs_context_suppresses_legacy(self):
        no_rag = make_model(fine_tuned=True)
        rag = make_model(fine_tuned=True, rag_docs=True)
        docs = ["backend.run(circuit, shots=...) replaces execute(...)"]
        legacy_no_rag = 0
        legacy_rag = 0
        for seed in range(400):
            c1 = no_rag.generate(BELL_PROMPT, np.random.default_rng(seed), params={})
            c2 = rag.generate(
                BELL_PROMPT, np.random.default_rng(seed), params={},
                retrieved_docs=docs,
            )
            legacy_no_rag += "legacy_api" in c1.injected_faults
            legacy_rag += "legacy_api" in c2.injected_faults
        assert legacy_rag < legacy_no_rag

    def test_no_docs_no_suppression(self):
        rag = make_model(fine_tuned=True, rag_docs=True)
        completion = rag.generate(
            BELL_PROMPT, np.random.default_rng(1), params={}, retrieved_docs=[]
        )
        assert completion.suppressed_faults == []


class TestRepair:
    def _broken_completion(self, model):
        """Find a seed whose completion has a trace-repairable fault."""
        for seed in range(300):
            completion = model.generate(
                BELL_PROMPT, np.random.default_rng(seed), params={}
            )
            if completion.injected_faults:
                execution = run_code(completion.code)
                if not execution.ok:
                    return completion, execution
        pytest.fail("no faulty completion found")

    def test_repair_can_fix_with_trace(self):
        model = make_model(fine_tuned=True)
        completion, execution = self._broken_completion(model)
        fixed_any = False
        for seed in range(40):
            repaired = model.repair(
                completion, execution.trace, np.random.default_rng(seed), params={}
            )
            if repaired.repaired_from is not None:
                fixed_any = True
                assert repaired.injected_faults.count(
                    repaired.repaired_from
                ) == 0
        assert fixed_any

    def test_failed_repair_keeps_code(self):
        model = make_model(fine_tuned=True)
        completion, execution = self._broken_completion(model)
        # Find a seed where the repair roll fails.
        for seed in range(60):
            repaired = model.repair(
                completion, execution.trace, np.random.default_rng(seed), params={}
            )
            if repaired.repaired_from is None:
                assert repaired.code == completion.code
                return
        pytest.fail("repair never failed in 60 draws (rates too high?)")

    def test_semantic_repair_regenerates_correct(self):
        model = make_model(fine_tuned=True, prompt_style="cot")
        base = model.generate(
            BELL_PROMPT, np.random.default_rng(0), params={}
        )
        fixed_any = False
        for seed in range(80):
            repaired = model.repair(
                base, "distribution mismatch", np.random.default_rng(seed),
                params={}, semantic_feedback=True,
            )
            if repaired.repaired_from == "semantic":
                assert repaired.variant == "correct"
                fixed_any = True
        assert fixed_any


class TestKnowledgeBase:
    def test_all_families_have_specs(self):
        from repro.llm import synthesis

        for family in synthesis.families():
            spec = DEFAULT_KNOWLEDGE.get(family)
            assert spec.outline and spec.skeleton

    def test_match_returns_none_for_garbage(self):
        family, score = DEFAULT_KNOWLEDGE.match("completely unrelated words")
        assert family is None
        assert score == 0.0

    def test_unknown_family_raises(self):
        from repro.errors import LLMError

        with pytest.raises(LLMError):
            DEFAULT_KNOWLEDGE.get("nope")

    def test_by_tier_partition(self):
        kb = DEFAULT_KNOWLEDGE
        total = sum(len(kb.by_tier(t)) for t in ("basic", "intermediate", "advanced"))
        assert total == len(kb.families())
