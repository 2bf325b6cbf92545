"""Regenerate EXPERIMENTS.md from live experiment runs.

Usage::

    python -m repro.experiments.generate_report [output_path]

Runs every paper table/figure driver plus the ablations and writes the
paper-vs-measured report.  A serial ``repro report --samples 2`` takes about
6 s on two vCPUs.  The file holds results only, so it is a pure function of
the source tree: byte-identical for any hash seed, ``--workers``, cache tier
or ``--distributed``.  The execution service's counters depend on all of
those, so ``repro report`` prints them on stdout instead.
"""

from __future__ import annotations

import io
import sys

from repro.experiments import ablations, figure2, figure3, figure4, multipass, table1
from repro.experiments.common import ExperimentResult

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation, regenerated by this
repository.  All numbers below were produced by the commands listed with each
section (deterministic given the seeds baked into the drivers); the benchmark
harness (`pytest benchmarks/ --benchmark-only`) re-runs the same drivers with
shape assertions.

**Reading guide.**  "Paper" columns are the values reported in
arXiv:2504.14557; "Measured" are this reproduction's.  We match *shape*
(orderings, rough effect sizes, crossovers) rather than absolute third-digit
equality: the substrate here is a simulated LLM + simulator stack, calibrated
at the operating points documented in `src/repro/llm/faults.py`.  Rows with
`-` in the Paper column are measurements the paper shows only graphically or
qualitatively.

"""

FOOTER = """\
## Notes on fidelity to the paper

* **Figure 3**: orderings and effect sizes reproduce: fine-tuning adds ~+10
  points over base; RAG adds only a few points (the paper's "only 4%"); CoT
  and SCoT add tens of points (the paper's "up to 50%" improvement); the
  multi-pass arm lands between RAG and CoT.
* **Table I**: the five-model ordering reproduces, including the
  Section V-C split: RAG and CoT have nearly identical *syntactic* accuracy
  while CoT is far ahead *semantically* — the paper's core observation that
  CoT supplies algorithmic knowledge rather than API knowledge.
* **Multi-pass**: accuracy rises for 2-3 passes then saturates, because
  legacy/deprecated-API repairs fail often — the model's stale knowledge
  regenerates the stale call, exactly the paper's stated explanation.
* **Figure 2**: the decoder trace shows data errors firing stabilizers,
  measurement lies creating isolated detection events, and MWPM matching
  them to corrections; the final syndrome is always cleared.
* **Figure 4**: with the QEC agent attached, P(|000>) rises and the error
  mass shrinks, via the same "effective error rate after QEC" methodology
  the paper used (it could not apply corrections on IBM hardware either).
* **Topology**: decoder generation succeeds on lattice devices and refuses
  heavy-hex Brisbane with a diagnosis (Section V-E's stated limitation).
"""

COMMANDS = {
    "Figure 3": "python -m repro.experiments.figure3",
    "Table I": "python -m repro.experiments.table1",
    "Section V-D": "python -m repro.experiments.multipass",
    "Figure 2": "python -m repro.experiments.figure2",
    "Figure 4": "python -m repro.experiments.figure4",
    "Ablation": "python -m repro.experiments.ablations",
}


def collect(
    samples_per_task: int = 6, workers: int | None = None
) -> list[tuple[str, ExperimentResult]]:
    """Run every experiment; returns (section title, result) pairs.

    ``workers`` (or ``REPRO_EVAL_WORKERS``) parallelises inside each driver
    — evaluation arms, ablation studies, decode-statistics shots — with
    results bit-identical to the serial run.  Every section is a result;
    none reads the execution service's counters.
    """
    sections: list[tuple[str, ExperimentResult]] = []
    exp3, _ = figure3.run(samples_per_task=samples_per_task, workers=workers)
    sections.append(("Figure 3 — suite accuracy per technique", exp3))
    exp1, _ = table1.run(samples_per_task=samples_per_task, workers=workers)
    sections.append(
        ("Table I — Qiskit HumanEval performance (+ Section V-C split)", exp1)
    )
    expm, _ = multipass.run(samples_per_task=samples_per_task, workers=workers)
    sections.append(("Section V-D — multi-pass inference sweep", expm))
    sections.append(
        (
            "Figure 2 — surface-code syndrome evolution and decoding",
            figure2.run(workers=workers),
        )
    )
    sections.append(
        ("Figure 4 — QEC on the constant Deutsch-Jozsa oracle", figure4.run())
    )
    for ablation in ablations.run_all(workers=workers):
        sections.append((f"Ablation — {ablation.title}", ablation))
    return sections


def render(sections: list[tuple[str, ExperimentResult]]) -> str:
    out = io.StringIO()
    out.write(HEADER)
    for title, experiment in sections:
        out.write(f"## {title}\n\n")
        for key, cmd in COMMANDS.items():
            if title.startswith(key):
                out.write(f"Regenerate: `{cmd}`\n\n")
                break
        out.write("```\n")
        out.write(experiment.render())
        out.write("\n```\n\n")
    out.write(FOOTER)
    return out.getvalue()


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    sections = collect()
    with open(path, "w") as handle:
        handle.write(render(sections))
    print(f"wrote {path} ({len(sections)} sections)")


if __name__ == "__main__":
    main()
