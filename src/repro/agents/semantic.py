"""Agent #2 — the semantic analyzer with multi-pass refinement.

Responsibilities (paper Sections III-A and IV-A):

* execute candidate code in the sandbox and classify the outcome
  (syntactic failure with trace / runs clean);
* when a reference behaviour is available, grade semantics by comparing
  measured distributions (or statevectors);
* drive the iterative multi-pass loop: prompt + code + trace -> repair ->
  re-execute, up to ``max_passes`` times, recording every pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.base import Agent, AgentMessage
from repro.agents.codegen import CodeGenerationAgent, GenerationRequest
from repro.agents.sandbox import ExecutionResult, run_code
from repro.llm.model import Completion
from repro.prompts.templates import render_multipass, render_semantic_feedback
from repro.quantum.analysis import analyze_circuit
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector
from repro.utils.stats import total_variation_distance

#: Max TVD between candidate and reference distributions to count as correct.
SEMANTIC_TVD_THRESHOLD = 0.10
#: Shots used when re-simulating candidate circuits for grading.
GRADING_SHOTS = 4096
GRADING_SEED = 20_25
#: Verdicts, and graded references, an analyzer keeps before it starts that
#: memo over.
_MEMO_MAX = 1024


@dataclass(frozen=True)
class AnalysisReport:
    """Grading outcome for one candidate program.

    Frozen: the analyzer hands the same report to every sample that grades
    the same program, so no caller may edit it.
    """

    syntactic_ok: bool
    semantic_ok: bool | None  # None when no reference was available
    execution: ExecutionResult
    tvd: float | None = None
    detail: str = ""
    #: The program was rejected by static analysis (``QA1xx``) — either the
    #: execution service's strict pre-flight raised ``ValidationError``, or
    #: the produced ``qc`` artifact carries analyzer errors.  Distinct from a
    #: runtime failure: the code is *ill-formed*, not wrong, and grading it
    #: burned zero simulations.
    static_error: bool = False

    @property
    def passed(self) -> bool:
        return self.syntactic_ok and (self.semantic_ok is not False)


@dataclass
class RefinementResult:
    """Outcome of the multi-pass loop."""

    final_code: str
    final_completion: Completion
    report: AnalysisReport
    passes_used: int
    pass_reports: list[AnalysisReport] = field(default_factory=list)
    repair_log: list[str] = field(default_factory=list)


class SemanticAnalyzerAgent(Agent):
    """Sandboxed execution, semantic grading, and the repair loop.

    The analyzer runs and grades each reference program once: the first
    :meth:`analyze` that reaches the comparison stores the reference's
    statevector (else its distribution), keyed by its source, and later
    calls compare against that.  It also keeps every verdict, keyed by
    (candidate source, reference source, checker identity), so grading a
    program again runs nothing; the exception is a run the service refused
    in pre-flight (``ValidationError``), which is graded afresh each time so
    ``rejected_static`` counts every refused sample.  Each memo starts over
    past ``_MEMO_MAX`` entries.  Reports are frozen and shared, so callers
    only read them and their execution's namespace.  Both memos depend on
    the execution service and the ambient optimization level that graded
    them, so keep one analyzer per grading context (one service, one
    optimization level): the evaluation engine keeps one per thread and
    context, and an ``Orchestrator`` keeps one per instance.
    """

    name = "semantic_analyzer"

    def __init__(
        self,
        tvd_threshold: float = SEMANTIC_TVD_THRESHOLD,
        shots: int = GRADING_SHOTS,
        fidelity_threshold: float = 0.99,
    ) -> None:
        self.tvd_threshold = tvd_threshold
        self.shots = shots
        self.fidelity_threshold = fidelity_threshold
        self._references: dict[str, Statevector | dict[str, float] | None] = {}
        #: (code, reference, id(checker)) -> (checker, report); holding the
        #: checker keeps its id from being reused while the entry lives.
        self._verdicts: dict[tuple, tuple[object, AnalysisReport]] = {}

    # -- grading ---------------------------------------------------------------

    def analyze(
        self,
        code: str,
        reference_code: str | None = None,
        checker=None,
    ) -> AnalysisReport:
        """Run the candidate; grade against a reference program if given.

        ``checker`` overrides distribution comparison with a custom
        predicate on the candidate namespace (used by I/O-style tasks).
        A program graded before with the same reference and checker gets
        the stored report back without running.
        """
        key = (code, reference_code, id(checker))
        if key in self._verdicts:
            return self._verdicts[key][1]
        report = self._grade(code, reference_code, checker)
        if report.execution.exception_type != "ValidationError":
            if len(self._verdicts) >= _MEMO_MAX:
                self._verdicts.clear()
            self._verdicts[key] = (checker, report)
        return report

    def _grade(self, code: str, reference_code: str | None, checker) -> AnalysisReport:
        execution = run_code(code)
        if not execution.ok:
            return AnalysisReport(
                syntactic_ok=False,
                semantic_ok=None,
                execution=execution,
                detail=execution.trace,
                # The service's strict pre-flight rejected the circuit before
                # any simulation: the program is statically ill-formed.
                static_error=execution.exception_type == "ValidationError",
            )
        static = self._static_reject(execution)
        if static is not None:
            return static
        if checker is not None:
            try:
                ok = bool(checker(execution.namespace))
            except Exception as exc:  # noqa: BLE001 - checker bugs = failure
                return AnalysisReport(
                    syntactic_ok=True,
                    semantic_ok=False,
                    execution=execution,
                    detail=f"checker raised: {exc}",
                )
            return AnalysisReport(
                syntactic_ok=True,
                semantic_ok=ok,
                execution=execution,
                detail="custom checker",
            )
        if reference_code is None:
            return AnalysisReport(
                syntactic_ok=True, semantic_ok=None, execution=execution
            )
        return self._compare(execution, self._graded_reference(reference_code))

    def _graded_reference(
        self, reference_code: str
    ) -> Statevector | dict[str, float] | None:
        """The reference program's statevector, else its distribution.

        Run and graded on first use, then kept; a reference that fails to
        run raises ``RuntimeError`` on every call and is never kept.
        """
        if reference_code in self._references:
            return self._references[reference_code]
        reference = run_code(reference_code)
        if not reference.ok:
            raise RuntimeError(
                f"reference program failed to execute: {reference.trace}"
            )
        artifact = self._statevector(reference)
        if artifact is None:
            artifact = self._distribution(reference)
        if len(self._references) >= _MEMO_MAX:
            self._references.clear()
        self._references[reference_code] = artifact
        return artifact

    def _compare(
        self,
        candidate: ExecutionResult,
        reference: Statevector | dict[str, float] | None,
    ) -> AnalysisReport:
        """Grade candidate behaviour against the reference's graded artifact.

        Statevector tasks (reference produces a pure state, no measurement)
        are graded by fidelity — probability distributions are blind to
        relative phases, which is exactly what distinguishes e.g. a QFT with
        and without its bit-reversal swaps.  Sampling tasks are graded by
        total variation distance between output distributions.
        """
        if isinstance(reference, Statevector):
            cand_state = self._statevector(candidate)
            if cand_state is None:
                return AnalysisReport(
                    syntactic_ok=True,
                    semantic_ok=False,
                    execution=candidate,
                    detail="task expects a statevector; candidate produced none",
                )
            if cand_state.num_qubits != reference.num_qubits:
                return AnalysisReport(
                    syntactic_ok=True,
                    semantic_ok=False,
                    execution=candidate,
                    detail=(
                        f"state has {cand_state.num_qubits} qubits, expected "
                        f"{reference.num_qubits}"
                    ),
                )
            fidelity = reference.fidelity(cand_state)
            return AnalysisReport(
                syntactic_ok=True,
                semantic_ok=fidelity >= self.fidelity_threshold,
                execution=candidate,
                tvd=1.0 - fidelity,
                detail=f"fidelity={fidelity:.4f} (threshold {self.fidelity_threshold})",
            )
        cand_dist = self._distribution(candidate)
        if cand_dist is None or reference is None:
            ok = cand_dist is not None or reference is None
            return AnalysisReport(
                syntactic_ok=True,
                semantic_ok=ok and cand_dist == reference,
                execution=candidate,
                detail="no comparable artifact (qc/state/counts) found",
            )
        tvd = total_variation_distance(cand_dist, reference)
        return AnalysisReport(
            syntactic_ok=True,
            semantic_ok=tvd <= self.tvd_threshold,
            execution=candidate,
            tvd=tvd,
            detail=f"TVD={tvd:.4f} (threshold {self.tvd_threshold})",
        )

    def _static_reject(self, execution: ExecutionResult) -> AnalysisReport | None:
        """Statically reject an otherwise-clean run whose ``qc`` is defective.

        A generated program may build an ill-formed circuit without ever
        executing it (the sandbox only runs the code; grading simulates the
        artifact).  Analyzing the artifact catches ``QA1xx`` defects here and
        skips grading entirely — zero simulations — so the evalsuite can
        report ``static_error`` even with ``validate="off"`` services.
        """
        qc = execution.artifact("qc")
        if not isinstance(qc, QuantumCircuit):
            return None
        analysis = analyze_circuit(qc)
        if analysis.ok:
            return None
        rendered = "; ".join(d.render() for d in analysis.errors)
        return AnalysisReport(
            syntactic_ok=False,
            semantic_ok=None,
            execution=execution,
            detail=f"static analysis rejected the circuit: {rendered}",
            static_error=True,
        )

    def _statevector(self, execution: ExecutionResult) -> Statevector | None:
        """A pure-state artifact, when the program produced one."""
        state = execution.artifact("state")
        if isinstance(state, Statevector):
            return state
        qc = execution.artifact("qc")
        if isinstance(qc, QuantumCircuit) and not qc.has_measurements():
            try:
                return Statevector.from_circuit(qc)
            except Exception:  # noqa: BLE001 - unsimulable = no artifact
                return None
        return None

    def _distribution(self, execution: ExecutionResult) -> dict[str, float] | None:
        """Extract a comparable outcome distribution from a namespace.

        Preference order: re-simulate ``qc`` deterministically (immune to the
        candidate having used different shots), else ``state`` probabilities,
        else the program's own ``counts``.
        """
        qc = execution.artifact("qc")
        if isinstance(qc, QuantumCircuit):
            dist = self._simulate(qc)
            if dist is not None:
                return dist
        state = execution.artifact("state")
        if isinstance(state, Statevector):
            return state.probabilities_dict()
        counts = execution.artifact("counts")
        if isinstance(counts, dict) and counts:
            total = sum(counts.values())
            return {str(k): v / total for k, v in counts.items()}
        return None

    def _simulate(self, qc: QuantumCircuit) -> dict[str, float] | None:
        # Grading runs through the shared ExecutionService with a fixed seed:
        # re-grading an unchanged candidate (every sample and multi-pass
        # iteration that regenerates it) becomes a cache hit instead of a
        # fresh simulation.
        from repro.quantum.execution import execute

        try:
            if not qc.has_measurements():
                return Statevector.from_circuit(qc).probabilities_dict()
            result = execute(
                qc, backend="local_simulator", shots=self.shots, seed=GRADING_SEED
            )
            counts = result.get_counts()
        except Exception:  # noqa: BLE001 - unsimulable circuit = no artifact
            return None
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()}

    # -- the multi-pass loop --------------------------------------------------------

    def refine(
        self,
        codegen: CodeGenerationAgent,
        request: GenerationRequest,
        completion: Completion,
        reference_code: str | None = None,
        checker=None,
        max_passes: int = 3,
        semantic_feedback: bool = False,
    ) -> RefinementResult:
        """Iteratively repair a completion (paper Section IV-A).

        ``max_passes`` counts total inference passes including the first
        generation, matching the paper's "triple passes" = generate + 2
        repairs... the paper is ambiguous; here pass 1 is the initial
        generation and each subsequent pass is one repair attempt.
        """
        report = self.analyze(completion.code, reference_code, checker)
        pass_reports = [report]
        repair_log: list[str] = []
        passes = 1
        while passes < max_passes and not report.passed:
            if not report.syntactic_ok:
                # Statically-rejected artifacts have no traceback; feed the
                # analyzer's coded diagnostics to the repair pass instead.
                trace = report.execution.trace or report.detail
                rendered = render_multipass(
                    request.prompt_text, completion.code, trace
                )
                repair_log.append(rendered.text[:200])
                completion = codegen.repair(request, completion, trace)
            elif semantic_feedback and report.semantic_ok is False:
                rendered = render_semantic_feedback(
                    request.prompt_text, completion.code, report.detail
                )
                repair_log.append(rendered.text[:200])
                completion = codegen.repair(
                    request, completion, report.detail, semantic_feedback=True
                )
            else:
                break
            report = self.analyze(completion.code, reference_code, checker)
            pass_reports.append(report)
            passes += 1
        return RefinementResult(
            final_code=completion.code,
            final_completion=completion,
            report=report,
            passes_used=passes,
            pass_reports=pass_reports,
            repair_log=repair_log,
        )

    # -- message protocol --------------------------------------------------------------

    def handle(self, message: AgentMessage) -> AgentMessage:
        report = self.analyze(
            message.content,
            reference_code=message.metadata.get("reference_code"),
            checker=message.metadata.get("checker"),
        )
        return AgentMessage(
            sender=self.name,
            kind="analysis",
            content=report.detail or ("ok" if report.passed else "failed"),
            metadata={"report": report},
        )
