"""Reproduction of "Enhancing LLM-based Quantum Code Generation with
Multi-Agent Optimization and Quantum Error Correction" (DAC 2025).

Subpackages
-----------
``repro.quantum``
    Gate-level quantum SDK (circuits, simulators, noise, topologies,
    transpiler) — the Qiskit substitute every other layer targets.
``repro.stabilizer``
    Aaronson-Gottesman stabilizer-tableau simulation for QEC-scale circuits.
``repro.qec``
    Stabilizer codes (repetition, rotated surface, Steane), noisy syndrome
    extraction, and MWPM / union-find / lookup decoders.
``repro.llm``
    The simulated code-generation LLM: corpus, fine-tuning pipeline, n-gram
    language model, knowledge base, fault-injection and repair.
``repro.rag``
    Retrieval-augmented generation: embeddings, vector store, chunkers, and
    the two bundled documentation corpora.
``repro.prompts``
    Prompt templates (zero-shot, CoT, SCoT, multi-pass) and the test-suite
    prompt bank.
``repro.agents``
    The paper's multi-agent framework: code generator, semantic analyzer
    (multi-pass repair loop), QEC decoder agent, and the orchestrator.
``repro.evalsuite``
    Graders (syntactic/semantic), pass@k, the paper-style test suite and the
    Qiskit-HumanEval-style benchmark bank.
``repro.experiments``
    One driver per paper table/figure; ``python -m repro report`` runs them
    all and writes EXPERIMENTS.md.
"""

__version__ = "1.0.0"
