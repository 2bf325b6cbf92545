"""The orchestrator — Figure 1 of the paper, wired end to end.

``Orchestrator.run_episode`` takes a developer prompt and drives:

    codegen agent  ->  semantic analyzer (multi-pass)  ->  QEC agent

returning a :class:`QuantumProgramArtifact` with the final code, grading
report, optional QEC application, and the complete message transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.base import AgentMessage, EpisodeLog
from repro.agents.codegen import CodeGenerationAgent, GenerationRequest
from repro.agents.qec_agent import QECAgent, QECApplication
from repro.agents.semantic import (
    AnalysisReport,
    RefinementResult,
    SemanticAnalyzerAgent,
)
from repro.errors import TopologyError
from repro.llm.model import SimulatedCodeLLM, make_model
from repro.prompts.generator import ScaffoldGenerator
from repro.quantum.backend import Backend
from repro.quantum.execution import resolve_backend
from repro.rag.retriever import Retriever, retriever_for


@dataclass
class QuantumProgramArtifact:
    """The orchestrator's final product for one developer request."""

    prompt: str
    code: str
    report: AnalysisReport
    refinement: RefinementResult
    qec: QECApplication | None
    log: EpisodeLog = field(default_factory=EpisodeLog)

    @property
    def accepted(self) -> bool:
        return self.report.passed


class Orchestrator:
    """Wires the three agents behind one ``run_episode`` call."""

    def __init__(
        self,
        model: SimulatedCodeLLM | None = None,
        retriever: Retriever | None = None,
        qec_agent: QECAgent | None = None,
        max_passes: int = 3,
        semantic_feedback: bool = False,
    ) -> None:
        model = model or make_model(fine_tuned=True)
        if retriever is None:
            retriever = retriever_for(model.config)
        self.codegen = CodeGenerationAgent(
            model, retriever=retriever, scaffolds=ScaffoldGenerator()
        )
        self.analyzer = SemanticAnalyzerAgent()
        self.qec_agent = qec_agent or QECAgent()
        self.max_passes = max_passes
        self.semantic_feedback = semantic_feedback

    def run_episode(
        self,
        prompt: str,
        params: dict | None = None,
        family_hint: str | None = None,
        reference_code: str | None = None,
        checker=None,
        seed: int = 0,
        target_backend: Backend | str | None = None,
        apply_qec: bool = False,
    ) -> QuantumProgramArtifact:
        """Full pipeline for one request.

        ``target_backend`` accepts a :class:`Backend` instance or a registry
        name/alias (``"fake_brisbane"``, ``"brisbane"``, ...).  ``apply_qec``
        requires a target with a coupling map and a noise model; QEC failures
        on unsupported topologies are recorded in the log, not raised (the
        developer still gets their program).
        """
        if isinstance(target_backend, str):
            target_backend = resolve_backend(target_backend)
        log = EpisodeLog()
        request = GenerationRequest(
            prompt_text=prompt, params=params or {}, family_hint=family_hint,
            seed=seed,
        )
        log.record(AgentMessage("developer", "prompt", prompt))

        completion, rendered = self.codegen.generate(request)
        log.record(
            AgentMessage(
                self.codegen.name,
                "code",
                completion.code,
                metadata={"style": rendered.style, "variant": completion.variant},
            )
        )

        refinement = self.analyzer.refine(
            self.codegen,
            request,
            completion,
            reference_code=reference_code,
            checker=checker,
            max_passes=self.max_passes,
            semantic_feedback=self.semantic_feedback,
        )
        log.record(
            AgentMessage(
                self.analyzer.name,
                "analysis",
                refinement.report.detail or ("pass" if refinement.report.passed else "fail"),
                metadata={"passes": refinement.passes_used},
            )
        )

        qec_application = None
        if apply_qec and target_backend is not None:
            try:
                qec_application = self.qec_agent.apply(target_backend)
                log.record(
                    AgentMessage(
                        self.qec_agent.name,
                        "qec",
                        f"suppression {qec_application.suppression_factor:.4f}",
                    )
                )
            except TopologyError as exc:
                log.record(AgentMessage(self.qec_agent.name, "qec", f"skipped: {exc}"))

        return QuantumProgramArtifact(
            prompt=prompt,
            code=refinement.final_code,
            report=refinement.report,
            refinement=refinement,
            qec=qec_application,
            log=log,
        )
