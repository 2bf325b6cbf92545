"""The ``static_error`` grading outcome: QA1xx programs cost zero simulations.

Two detection paths feed the same outcome column:

* **artifact path** — the generated program builds a defective ``qc`` without
  executing it; the semantic analyzer's artifact analysis rejects it even on
  ``validate="off"`` services;
* **service path** — the program executes its circuit through a strict
  service, whose pre-flight raises ``ValidationError`` inside the sandbox.
"""

import pytest

from repro.agents.semantic import SemanticAnalyzerAgent
from repro.evalsuite.reporting import comparison_table, execution_stats_table
from repro.evalsuite.runner import (
    EvalResult,
    PipelineSettings,
    TaskOutcome,
    evaluate,
)
from repro.evalsuite.suite import build_suite
from repro.llm.faults import ModelConfig
from repro.llm.model import Completion
from repro.quantum.execution import ExecutionService, set_default_service
from repro.quantum.execution.scopes import COUNTERS

#: Builds an ill-formed circuit (QA102: conditional on a never-written
#: clbit) but never executes it — the artifact path must catch this.
DEFECTIVE_ARTIFACT_CODE = """\
from repro.quantum import QuantumCircuit
qc = QuantumCircuit(2, 2)
qc.h(0)
qc.append("x", [1], condition=(0, 1))
"""

#: Same defect, but the program *runs* the circuit — on a strict service the
#: pre-flight raises ValidationError before any simulation.
DEFECTIVE_EXECUTED_CODE = DEFECTIVE_ARTIFACT_CODE + """\
from repro.quantum import LocalSimulator
counts = LocalSimulator().run(qc, shots=128, seed=3).result().get_counts()
"""

CLEAN_CODE = """\
from repro.quantum import QuantumCircuit
qc = QuantumCircuit(2, 2)
qc.h(0)
qc.cx(0, 1)
qc.measure([0, 1], [0, 1])
"""


@pytest.fixture
def strict_service():
    service = ExecutionService(validate="strict")
    set_default_service(service)
    yield service
    set_default_service(None, shutdown_previous=True)


@pytest.fixture
def off_service():
    service = ExecutionService(validate="off")
    set_default_service(service)
    yield service
    set_default_service(None, shutdown_previous=True)


class StubCodegen:
    """A codegen agent that always emits the same program."""

    def __init__(self, code: str) -> None:
        self.code = code
        self.repair_traces: list[str] = []

    def _completion(self) -> Completion:
        return Completion(
            code=self.code, family="bell", tier="basic", variant="nonsense"
        )

    def generate(self, request):
        return self._completion(), None

    def repair(self, request, completion, trace, **kwargs):
        self.repair_traces.append(trace)
        return self._completion()


class TestAnalyzerStaticError:
    def test_artifact_path_rejects_without_service(self, off_service):
        report = SemanticAnalyzerAgent().analyze(DEFECTIVE_ARTIFACT_CODE)
        assert report.static_error
        assert not report.syntactic_ok
        assert not report.passed
        assert "QA102" in report.detail
        # Caught by artifact analysis alone: no execution-service traffic.
        assert off_service.stats()["simulations"] == 0

    def test_service_path_rejects_via_validation_error(self, strict_service):
        report = SemanticAnalyzerAgent().analyze(DEFECTIVE_EXECUTED_CODE)
        assert report.static_error
        assert not report.syntactic_ok
        assert report.execution.exception_type == "ValidationError"
        stats = strict_service.stats()
        assert stats["rejected_static"] == 1
        assert stats["simulations"] == 0

    def test_runtime_failures_are_not_static_errors(self, off_service):
        report = SemanticAnalyzerAgent().analyze("1 / 0\n")
        assert not report.syntactic_ok
        assert not report.static_error

    def test_clean_program_not_static(self, off_service):
        report = SemanticAnalyzerAgent().analyze(CLEAN_CODE)
        assert report.syntactic_ok
        assert not report.static_error

    def test_refine_feeds_diagnostics_to_repair(self, off_service):
        """Statically-rejected artifacts have no traceback; the repair pass
        must receive the analyzer's coded diagnostics instead."""
        codegen = StubCodegen(DEFECTIVE_ARTIFACT_CODE)
        analyzer = SemanticAnalyzerAgent()
        from repro.agents.codegen import GenerationRequest

        request = GenerationRequest(prompt_text="bell", params={}, seed=1)
        completion, _ = codegen.generate(request)
        result = analyzer.refine(
            codegen, request, completion, max_passes=2
        )
        assert result.passes_used == 2
        assert all(r.static_error for r in result.pass_reports)
        # The artifact reject has no traceback; the repair pass must be fed
        # the analyzer's coded diagnostics instead of an empty trace.
        assert codegen.repair_traces
        assert all("QA102" in trace for trace in codegen.repair_traces)


class TestEvaluateStaticErrors:
    def _settings(self, label="static-arm"):
        return PipelineSettings(
            ModelConfig("3b", True),
            samples_per_task=2,
            max_passes=1,
            label=label,
        )

    def _stub_pipeline(self, monkeypatch, code):
        from repro.evalsuite import runner

        monkeypatch.setattr(
            runner,
            "_cached_pipeline",
            lambda settings: (StubCodegen(code), SemanticAnalyzerAgent()),
        )

    def test_static_rejections_counted_with_zero_simulations(
        self, strict_service, monkeypatch
    ):
        self._stub_pipeline(monkeypatch, DEFECTIVE_EXECUTED_CODE)
        bank = build_suite()[:2]
        result = evaluate(self._settings(), bank, workers=1)
        samples = sum(o.samples for o in result.outcomes)
        assert result.static_error_count() == samples
        assert all(o.static_errors == o.samples for o in result.outcomes)
        assert all(o.syntactic_successes == 0 for o in result.outcomes)
        assert result.accuracy() == 0.0
        stats = result.execution_stats
        assert stats["rejected_static"] == samples
        assert stats["simulations"] == 0

    def test_artifact_rejections_counted_even_with_validate_off(
        self, off_service, monkeypatch
    ):
        self._stub_pipeline(monkeypatch, DEFECTIVE_ARTIFACT_CODE)
        bank = build_suite()[:2]
        result = evaluate(self._settings(), bank, workers=1)
        samples = sum(o.samples for o in result.outcomes)
        assert result.static_error_count() == samples
        assert result.execution_stats["simulations"] == 0

    def test_clean_programs_report_no_static_errors(self, off_service):
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=1, label="clean-arm"
        )
        result = evaluate(settings, build_suite()[:3], workers=1)
        assert result.static_error_count() == 0


class TestReportingColumns:
    def _result(self, static=3):
        return EvalResult(
            label="demo",
            outcomes=[
                TaskOutcome(
                    "t1", "basic", "bell", 4, 1, 1, [1] * 4,
                    static_errors=static,
                ),
                TaskOutcome("t2", "advanced", "qft", 4, 4, 2, [1] * 4),
            ],
            execution_stats={
                "simulations": 5,
                "programs_validated": 8,
                "rejected_static": 3,
                "cache_hits": 0,
                "cache_misses": 5,
            },
        )

    def test_comparison_table_has_static_err_column(self):
        rendered = comparison_table([self._result()]).render()
        assert "StaticErr" in rendered
        assert "3" in rendered

    def test_static_error_count_sums_outcomes(self):
        assert self._result(static=2).static_error_count() == 2
        assert self._result(static=0).static_error_count() == 0

    def test_execution_stats_table_has_validation_columns(self):
        rows = {
            row[0]: row[1:]
            for row in execution_stats_table([self._result()]).rows
        }
        assert rows["programs validated"] == ["8"]
        assert rows["rejected static"] == ["3"]

    def test_execution_stats_table_follows_the_registry(self):
        idle = EvalResult(label="idle", outcomes=[], execution_stats={})
        table = execution_stats_table([self._result(), idle])
        assert table.headers == ["Counter", "demo", "idle"]
        assert [row[0] for row in table.rows] == [
            *(name.replace("_", " ") for name, _help in COUNTERS),
            "cache hit rate",
        ]
        rows = {row[0]: row[1:] for row in table.rows}
        assert rows["simulations"] == ["5", "0"]
        # An arm with no lookups has no hit rate, not a fake 0%.
        assert rows["cache hit rate"] == ["0.0%", "-"]
