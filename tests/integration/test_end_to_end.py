"""Integration tests: experiment drivers and cross-layer flows at small scale."""

import numpy as np
import pytest

from repro.experiments import ablations, figure2, figure3, figure4, multipass, table1


class TestExperimentDrivers:
    def test_figure3_small(self):
        experiment, results = figure3.run(samples_per_task=1, base_seed=5)
        assert len(results) == 6
        assert len(experiment.rows) >= 6
        rendered = experiment.render()
        assert "figure3" in rendered

    def test_table1_small(self):
        experiment, results = table1.run(samples_per_task=1, base_seed=5)
        assert len(results) == 5
        assert any("syntactic" in row.name for row in experiment.rows)

    def test_multipass_small(self):
        experiment, results = multipass.run(
            max_passes=3, samples_per_task=1, base_seed=5
        )
        curve = [r.accuracy() for r in results]
        assert len(curve) == 3
        # Paired seeds: repair never hurts at small scale either.
        assert curve[-1] >= curve[0] - 1e-9

    def test_figure2_trace(self):
        experiment = figure2.run(shots_for_stats=40)
        assert experiment.measured("decoder clears the final syndrome") == 100.0
        trace = experiment.extras[0]
        assert "(a)" in trace and "(c)" in trace

    def test_figure4(self):
        experiment = figure4.run(shots=1024, seed=2)
        assert experiment.measured(
            "P(|000>) after QEC corrections (c)"
        ) >= experiment.measured("P(|000>) on noisy Brisbane (b)") - 1.0

    def test_decoder_ablation_repeats_exactly(self):
        # The second call is served from the result cache; no row, note
        # included, may depend on how long the first one took.
        first = ablations.decoder_ablation(shots=40)
        second = ablations.decoder_ablation(shots=40)
        assert first.rows == second.rows

    def test_topology_ablation(self):
        experiment = ablations.topology_ablation()
        assert experiment.measured("grid-5x5") == 100.0
        assert experiment.measured("brisbane") == 0.0


class TestCrossLayerFlows:
    def test_generated_code_runs_on_real_backend_stack(self):
        """Code emitted by the LLM executes against the actual SDK."""
        from repro.agents.sandbox import run_code
        from repro.llm.model import make_model

        model = make_model(fine_tuned=True, prompt_style="scot")
        clean = 0
        for seed in range(20):
            completion = model.generate(
                "Prepare a 3-qubit GHZ cat state, measure every qubit",
                np.random.default_rng(seed),
                params={"n": 3},
            )
            if completion.is_clean:
                result = run_code(completion.code)
                assert result.ok
                counts = result.artifact("counts")
                assert set(counts) <= {"000", "111"}
                clean += 1
        assert clean > 8

    def test_full_pipeline_with_qec_on_grid_device(self):
        from repro.agents import Orchestrator, QECAgent
        from repro.llm.model import make_model
        from repro.llm.synthesis import synthesize
        from repro.quantum.backend import NoisySimulator
        from repro.quantum.noise import NoiseModel
        from repro.quantum.topology import CouplingMap

        backend = NoisySimulator(
            NoiseModel.uniform_depolarizing(3e-4, 8e-3, 1e-2),
            CouplingMap.grid(5, 5),
            name="grid-device",
        )
        orchestrator = Orchestrator(
            model=make_model(fine_tuned=True, prompt_style="scot"),
            qec_agent=QECAgent(distance=3, shots=80, seed=3),
            max_passes=3,
        )
        artifact = orchestrator.run_episode(
            "Create a Bell state (the Phi+ EPR pair) on two qubits, measure "
            "both qubits, and run the circuit on a simulator.",
            reference_code=synthesize("bell", {}, "correct"),
            seed=11,
            target_backend=backend,
            apply_qec=True,
        )
        assert artifact.qec is not None
        assert 0 < artifact.qec.suppression_factor <= 1.0

    def test_finetuned_lm_prefers_modern_api(self):
        """The trained n-gram model scores modern idioms better than legacy
        ones rarely seen after filtering."""
        from repro.llm.corpus import build_corpus
        from repro.llm.finetune import fine_tune

        model, report = fine_tune(build_corpus(seed=3))
        modern = model.perplexity(
            "backend = LocalSimulator()\ncounts = backend.run(qc).result().get_counts()\n"
        )
        gibberish = model.perplexity("zzz qqq www flibber jabber wock\n")
        assert modern < gibberish
        assert report.legacy_share < 0.05
