"""Evaluation machinery: pass@k, task banks, runner, reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.evalsuite.passk import mean_pass_at_k, pass_at_k
from repro.evalsuite.qhe import build_qhe, qhe_cases
from repro.evalsuite.reporting import accuracy_bars, comparison_table, per_family_table
from repro.evalsuite.runner import EvalResult, PipelineSettings, TaskOutcome, evaluate
from repro.evalsuite.suite import build_suite, build_task
from repro.llm.faults import ModelConfig
from repro.agents.semantic import SemanticAnalyzerAgent
from repro.quantum.execution import ExecutionService, set_default_service


class TestPassAtK:
    def test_all_correct(self):
        assert pass_at_k(10, 10, 1) == 1.0

    def test_none_correct(self):
        assert pass_at_k(10, 0, 5) == 0.0

    def test_known_value(self):
        # n=2, c=1, k=1: 1 - C(1,1)/C(2,1) = 0.5
        assert pass_at_k(2, 1, 1) == pytest.approx(0.5)

    def test_k_equals_n(self):
        assert pass_at_k(5, 1, 5) == 1.0

    def test_validation(self):
        with pytest.raises(EvaluationError):
            pass_at_k(0, 0, 1)
        with pytest.raises(EvaluationError):
            pass_at_k(5, 6, 1)
        with pytest.raises(EvaluationError):
            pass_at_k(5, 2, 6)

    @given(
        n=st.integers(min_value=1, max_value=30),
        c=st.integers(min_value=0, max_value=30),
        k=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_monotonicity(self, n, c, k):
        if c > n or k > n:
            return
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0
        assert value >= c / n - 1e-12  # pass@k >= pass@1 estimate
        if k < n:
            assert pass_at_k(n, c, k + 1) >= value - 1e-12

    def test_mean(self):
        assert mean_pass_at_k([(2, 1), (2, 2)], 1) == pytest.approx(0.75)

    def test_mean_empty_bank_is_zero_like_accuracy(self):
        # Consistent with EvalResult.accuracy() on an empty outcome list:
        # reporting over a filtered-empty tier must not crash.
        assert mean_pass_at_k([], 1) == 0.0
        empty = EvalResult(label="empty", outcomes=[])
        assert empty.accuracy() == 0.0
        assert empty.pass_at_k(1) == 0.0
        assert empty.accuracy_by_tier() == {}


class TestBanks:
    def test_suite_references_all_pass_self_grading(self):
        analyzer = SemanticAnalyzerAgent()
        for task in build_suite():
            report = analyzer.analyze(
                task.reference_code, task.reference_code, task.checker
            )
            assert report.passed, task.case_id

    def test_qhe_references_all_pass_self_grading(self):
        analyzer = SemanticAnalyzerAgent()
        for task in build_qhe():
            report = analyzer.analyze(
                task.reference_code, task.reference_code, task.checker
            )
            assert report.passed, task.case_id

    def test_qhe_mix_is_syntax_heavy(self):
        cases = qhe_cases()
        basic = sum(1 for c in cases if c.tier == "basic") / len(cases)
        assert basic >= 0.55

    def test_build_task_attaches_checker_only_where_needed(self):
        suite = build_suite()
        qasm_tasks = [t for t in suite if t.case.family == "qasm_io"]
        other = [t for t in suite if t.case.family != "qasm_io"]
        assert all(t.checker is not None for t in qasm_tasks)
        assert all(t.checker is None for t in other)


class TestRunner:
    @pytest.fixture(scope="class")
    def small_bank(self):
        return build_suite()[:6]

    def test_deterministic(self, small_bank):
        settings_ = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="det-test"
        )
        a = evaluate(settings_, small_bank)
        b = evaluate(settings_, small_bank)
        assert a.accuracy() == b.accuracy()
        assert [o.full_successes for o in a.outcomes] == [
            o.full_successes for o in b.outcomes
        ]

    def test_seed_label_pairing(self, small_bank):
        one = PipelineSettings(
            ModelConfig("3b", True), max_passes=1, samples_per_task=2,
            label="arm-a", seed_label="shared",
        )
        three = PipelineSettings(
            ModelConfig("3b", True), max_passes=3, samples_per_task=2,
            label="arm-b", seed_label="shared",
        )
        r1 = evaluate(one, small_bank)
        r3 = evaluate(three, small_bank)
        # Paired generations: repair can only help.
        assert r3.accuracy() >= r1.accuracy() - 1e-9

    def test_metrics_consistency(self, small_bank):
        settings_ = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=3, label="metrics"
        )
        result = evaluate(settings_, small_bank)
        assert 0.0 <= result.accuracy() <= result.syntactic_accuracy() <= 1.0
        tiers = result.accuracy_by_tier()
        assert set(tiers) <= {"basic", "intermediate", "advanced"}
        low, high = result.confidence_interval()
        assert low <= result.accuracy() <= high
        assert result.pass_at_k(1) == pytest.approx(result.accuracy(), abs=1e-9)
        # Every suite task carries a reference or a checker, so no sample
        # should be counted as a success without a semantic verdict.
        assert result.semantic_unknown_count() == 0
        assert result.semantic_unknown_rate() == 0.0

    def test_long_lived_pipeline_generates_like_fresh_ones(self):
        """A pipeline's memos (retrieval, fault applicability) may outlive a
        chunk: one pipeline kept over every task, seed and Figure 3 arm
        generates the completions of a fresh pipeline per call."""
        from repro.agents.codegen import GenerationRequest
        from repro.evalsuite.runner import build_pipeline
        from repro.experiments.figure3 import arms
        from repro.utils.rng import derive_seed

        tasks = build_suite()
        for arm in arms(samples_per_task=2):
            kept = build_pipeline(arm)
            for task in tasks:
                for sample in range(arm.samples_per_task):
                    request = GenerationRequest(
                        prompt_text=task.case.text,
                        params=dict(task.case.params),
                        seed=derive_seed(
                            arm.base_seed, arm.seed_scope(), task.case_id, sample
                        ),
                    )
                    fresh = build_pipeline(arm).generate(request)[0]
                    assert kept.generate(request)[0] == fresh, (
                        arm.label, task.case_id, sample,
                    )

    def test_accuracy_by_tier_skips_empty_tiers(self):
        result = EvalResult(
            label="tiers",
            outcomes=[
                TaskOutcome("t1", "basic", "bell", 2, 2, 1, [1, 1]),
                # A tier whose outcomes carry zero samples must yield *no*
                # entry — not a fake 0.0 accuracy.
                TaskOutcome("t2", "advanced", "qft", 0, 0, 0, []),
            ],
        )
        tiers = result.accuracy_by_tier()
        assert tiers == {"basic": pytest.approx(0.5)}
        assert "advanced" not in tiers

    def test_semantic_unknown_is_surfaced(self):
        result = EvalResult(
            label="unknown",
            outcomes=[
                TaskOutcome(
                    "t1", "basic", "bell", 4, 4, 3, [1] * 4, semantic_unknown=2
                ),
                TaskOutcome("t2", "basic", "ghz", 4, 4, 4, [1] * 4),
            ],
        )
        assert result.semantic_unknown_count() == 2
        assert result.semantic_unknown_rate() == pytest.approx(0.25)
        rendered = comparison_table([result]).render()
        assert "Ungraded" in rendered

    @pytest.mark.parametrize("samples", [0, -1])
    def test_settings_refuse_fewer_than_one_sample(self, samples):
        with pytest.raises(EvaluationError, match="samples_per_task"):
            PipelineSettings(ModelConfig("3b", True), samples_per_task=samples)

    def test_display_label(self):
        settings_ = PipelineSettings(ModelConfig("3b", True), max_passes=3)
        assert settings_.display_label() == "3B-QK+MP3"

    def test_display_label_carries_optimization_level(self):
        settings_ = PipelineSettings(
            ModelConfig("3b", True), optimization_level=2
        )
        assert settings_.display_label() == "3B-QK+O2"
        # An explicit label wins outright (so a paired arm keeps the same
        # seed derivation whichever level it lowers at).
        labelled = PipelineSettings(
            ModelConfig("3b", True), optimization_level=2, label="ft"
        )
        assert labelled.display_label() == "ft"
        assert labelled.seed_scope() == PipelineSettings(
            ModelConfig("3b", True), label="ft"
        ).seed_scope()


class TestFeedForwardGrading:
    """Teleportation programs (``c_if`` corrections) grade on the batch
    engine: their conditionals draw no noise, so no shot runs serially."""

    @pytest.fixture
    def fresh_service(self):
        service = ExecutionService()
        set_default_service(service)
        yield service
        set_default_service(None)

    @pytest.mark.usefixtures("fresh_service")
    def test_teleportation_tasks_simulate_batched(self):
        tasks = [
            task for task in build_suite() if task.case_id in ("adv-01", "adv-02")
        ]
        assert {task.case.family for task in tasks} == {"teleportation"}
        settings_ = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="feed-forward"
        )
        stats = evaluate(settings_, tasks).execution_stats
        assert stats["simulations"] > 0
        assert stats["simulations_batched"] == stats["simulations"]


class TestReporting:
    def _result(self):
        return EvalResult(
            label="demo",
            outcomes=[
                TaskOutcome("t1", "basic", "bell", 4, 4, 3, [1, 1, 1, 1]),
                TaskOutcome("t2", "advanced", "qft", 4, 2, 1, [1, 1, 1, 1]),
            ],
        )

    def test_comparison_table(self):
        table = comparison_table([self._result()])
        rendered = table.render()
        assert "demo" in rendered
        assert "50.0%" in rendered  # overall accuracy 4/8

    def test_accuracy_bars(self):
        bars = accuracy_bars([self._result()], "title")
        assert "demo" in bars and "#" in bars

    def test_per_family_table(self):
        rendered = per_family_table(self._result()).render()
        assert "bell" in rendered and "qft" in rendered
