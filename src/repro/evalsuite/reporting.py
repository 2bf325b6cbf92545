"""Rendering evaluation results as the paper's tables and bar charts."""

from __future__ import annotations

import sys

from repro.evalsuite.runner import EvalResult
from repro.quantum.execution.scopes import SCOPE_FIELDS, cache_hit_rate
from repro.utils.tables import AsciiTable, format_histogram


def progress_printer(label: str, stream=None):
    """A ``progress(done, total)`` callback that renders a one-line meter.

    Suitable for :func:`repro.evalsuite.runner.evaluate`'s ``progress``
    hook: writes carriage-return updates to ``stream`` (stderr by default)
    and finishes the line when the last chunk lands.  Thread-safe in the
    sense that the engine invokes it from the collecting thread only.
    """
    if stream is None:
        stream = sys.stderr

    def progress(done: int, total: int) -> None:
        width = 24
        filled = int(width * done / total) if total else width
        bar = "#" * filled + "-" * (width - filled)
        end = "\n" if done >= total else ""
        stream.write(f"\r{label} [{bar}] {done}/{total} chunks{end}")
        stream.flush()

    return progress


def comparison_table(
    results: list[EvalResult], title: str = "Accuracy by technique"
) -> AsciiTable:
    """One row per arm: accuracy, syntactic accuracy, per-tier split.

    Tiers without samples render as ``-`` (no fake 0.0), the Ungraded
    column counts samples folded into accuracy without a semantic verdict,
    and StaticErr counts samples rejected by static analysis (``QA1xx``) —
    kept apart from runtime failures, and graded without a single simulation.
    """
    table = AsciiTable(
        [
            "Arm",
            "Accuracy",
            "Syntactic",
            "Ungraded",
            "StaticErr",
            "Basic",
            "Intermediate",
            "Advanced",
        ],
        title=title,
    )

    def tier_cell(tiers: dict[str, float], tier: str) -> str:
        return f"{tiers[tier]:.1%}" if tier in tiers else "-"

    for result in results:
        tiers = result.accuracy_by_tier()
        low, high = result.confidence_interval()
        table.add_row(
            [
                result.label,
                f"{result.accuracy():.1%} [{low:.0%},{high:.0%}]",
                f"{result.syntactic_accuracy():.1%}",
                str(result.semantic_unknown_count()),
                str(result.static_error_count()),
                tier_cell(tiers, "basic"),
                tier_cell(tiers, "intermediate"),
                tier_cell(tiers, "advanced"),
            ]
        )
    return table


def accuracy_bars(results: list[EvalResult], title: str) -> str:
    """Figure-3 style horizontal bar chart of arm accuracies."""
    return format_histogram(
        {r.label: max(r.accuracy(), 1e-9) for r in results},
        title=title,
        sort_by_key=False,
    )


def execution_stats_table(
    results: list[EvalResult], title: str = "Execution service activity"
) -> AsciiTable:
    """Per-arm execution-service counters: one row per registered counter
    (:data:`~repro.quantum.execution.scopes.COUNTERS`), one column per arm,
    then the result-cache hit rate (``-`` for an arm with no lookups)."""
    table = AsciiTable(["Counter", *(r.label for r in results)], title=title)
    stats = [result.execution_stats or {} for result in results]
    for name in SCOPE_FIELDS:
        table.add_row(
            [name.replace("_", " "), *(arm.get(name, 0) for arm in stats)]
        )
    rates = [cache_hit_rate(arm) for arm in stats]
    table.add_row(
        ["cache hit rate", *("-" if r is None else f"{r:.1%}" for r in rates)]
    )
    return table


def per_family_table(result: EvalResult) -> AsciiTable:
    """Per-family success detail for one arm (debugging aid)."""
    table = AsciiTable(
        ["Family", "Tasks", "Samples", "Syntactic", "Full"],
        title=f"Per-family detail: {result.label}",
    )
    by_family: dict[str, list] = {}
    for o in result.outcomes:
        by_family.setdefault(o.family, []).append(o)
    for family, group in sorted(by_family.items()):
        samples = sum(o.samples for o in group)
        table.add_row(
            [
                family,
                len(group),
                samples,
                f"{sum(o.syntactic_successes for o in group) / samples:.0%}",
                f"{sum(o.full_successes for o in group) / samples:.0%}",
            ]
        )
    return table
