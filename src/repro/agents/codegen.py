"""Agent #1 — the code generation agent.

Wraps the (simulated) fine-tuned StarCoder with the inference-time machinery
of paper Section IV: prompt-style rendering (plain / CoT / SCoT via the
scaffold generator) and optional RAG augmentation.  Produces code plus full
provenance for the analyzers downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import Agent, AgentMessage
from repro.llm.model import Completion, SimulatedCodeLLM
from repro.prompts.generator import ScaffoldGenerator
from repro.prompts.templates import RenderedPrompt, render_plain
from repro.rag.retriever import Retriever
from repro.utils.rng import derive_rng


@dataclass
class GenerationRequest:
    """What the orchestrator hands the codegen agent."""

    prompt_text: str
    params: dict
    family_hint: str | None = None
    seed: int = 0
    attempt: int = 0


class CodeGenerationAgent(Agent):
    """Prompt -> (rendered prompt, RAG context) -> model -> completion."""

    name = "codegen"

    def __init__(
        self,
        model: SimulatedCodeLLM,
        retriever: Retriever | None = None,
        scaffolds: ScaffoldGenerator | None = None,
    ) -> None:
        self.model = model
        self.retriever = retriever
        self.scaffolds = scaffolds or ScaffoldGenerator()

    # -- main API ---------------------------------------------------------------

    def generate(self, request: GenerationRequest) -> tuple[Completion, RenderedPrompt]:
        """Produce one completion with provenance."""
        rng = derive_rng(request.seed, "codegen", request.prompt_text, request.attempt)
        rendered = self._render(request)
        retrieved = None
        if self.retriever is not None:
            retrieved = self.retriever.retrieve_context(request.prompt_text)
        completion = self.model.generate(
            request.prompt_text,
            rng,
            params=request.params,
            family_hint=request.family_hint,
            retrieved_docs=retrieved,
        )
        return completion, rendered

    def repair(
        self,
        request: GenerationRequest,
        completion: Completion,
        trace: str,
        semantic_feedback: bool = False,
    ) -> Completion:
        """One multi-pass repair attempt."""
        rng = derive_rng(
            request.seed, "repair", request.prompt_text, request.attempt, trace[:80]
        )
        return self.model.repair(
            completion,
            trace,
            rng,
            params=request.params,
            semantic_feedback=semantic_feedback,
        )

    def _render(self, request: GenerationRequest) -> RenderedPrompt:
        style = self.model.config.prompt_style
        if style == "plain":
            return render_plain(request.prompt_text)
        family = request.family_hint
        if family is None:
            family, _ = self.model.knowledge.match(request.prompt_text)
        if family is None:
            return render_plain(request.prompt_text)
        return self.scaffolds.render(request.prompt_text, family, style)

    # -- message protocol ----------------------------------------------------------

    def handle(self, message: AgentMessage) -> AgentMessage:
        request = GenerationRequest(
            prompt_text=message.content,
            params=message.metadata.get("params", {}),
            family_hint=message.metadata.get("family"),
            seed=message.metadata.get("seed", 0),
            attempt=message.metadata.get("attempt", 0),
        )
        completion, rendered = self.generate(request)
        return AgentMessage(
            sender=self.name,
            kind="code",
            content=completion.code,
            metadata={
                "completion": completion,
                "rendered_prompt": rendered.text,
                "style": rendered.style,
            },
        )
