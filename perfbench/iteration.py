"""Run one workload once, in a fresh process, and write its measurements.

Usage (the runner starts it; it is not meant to be run by hand)::

    python -m perfbench.iteration --workload eval-cold --seed 1 --trace 0 \\
        --spawned-at <time.monotonic() of the parent> --out result.json

Set-up time runs from ``--spawned-at`` (the parent's monotonic clock just
before it started this process, which shares the clock on Linux) to the
first timed call, so it includes interpreter start and imports.  Set-up is
written in reference-host seconds (:mod:`perfbench.hostspeed`), the timed
work both in those and as measured.  With ``--trace 1`` the layer hooks of
:mod:`perfbench.tracer` are installed after set-up, and the per-layer
metrics, in measured seconds, are written as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

from perfbench.hostspeed import REFERENCE_S, Timeline
from perfbench.workloads import WORKLOADS, digest

#: Per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "agents.codegen.self_s": ("s", "lower"),
    "agents.codegen.repair.calls": ("count", "lower"),
    "llm.generate.self_s": ("s", "lower"),
    "llm.generate.calls": ("count", "lower"),
    "rag.retrieve.self_s": ("s", "lower"),
    "agents.sandbox.self_s": ("s", "lower"),
    "agents.sandbox.calls": ("count", "lower"),
    "agents.semantic.self_s": ("s", "lower"),
    "sim.trajectory.self_s": ("s", "lower"),
    "sim.trajectory.shots": ("count", "lower"),
    "sim.trajectory.us_per_shot": ("us", "lower"),
    "sim.fast.self_s": ("s", "lower"),
    "sim.fast.shots": ("count", "lower"),
    "statevector.apply_matrix.calls": ("count", "lower"),
    "batchsim.plan.self_s": ("s", "lower"),
    "batchsim.execute_group.self_s": ("s", "lower"),
    "exec.run.self_s": ("s", "lower"),
    "exec.submit.self_s": ("s", "lower"),
    "exec.job_wait_s": ("s", "lower"),
    "exec.pool_busy_s": ("s", "lower"),
    "cache.get.self_s": ("s", "lower"),
    "cache.put.self_s": ("s", "lower"),
    "cache.disk.get.self_s": ("s", "lower"),
    "cache.disk.put.self_s": ("s", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "transpiler.stage.self_s": ("s", "lower"),
    "transpiler.passes.self_s": ("s", "lower"),
    "transpiler.hit_ratio": ("ratio", "higher"),
    "analysis.circuit_facts.calls": ("count", "lower"),
    "analysis.circuit_facts.self_s": ("s", "lower"),
    "parameters.bind.self_s": ("s", "lower"),
    "parameters.bind.calls": ("count", "lower"),
    "qec.memory.self_s": ("s", "lower"),
    "qec.memory.shots": ("count", "lower"),
    "qec.mwpm.self_s": ("s", "lower"),
    "qec.mwpm.calls": ("count", "lower"),
    "qec.unionfind.self_s": ("s", "lower"),
    "qec.unionfind.calls": ("count", "lower"),
    "agents.qec.self_s": ("s", "lower"),
    "exec.simulations": ("count", "lower"),
    "exec.simulations_deduped": ("count", "higher"),
    "exec.simulations_batched": ("count", "higher"),
    "exec.batch_groups": ("count", "lower"),
    "exec.cache_hits": ("count", "higher"),
    "exec.cache_misses": ("count", "lower"),
    "exec.cache_disk_hits": ("count", "higher"),
    "exec.cache_remote_hits": ("count", "higher"),
    "exec.cache_evictions": ("count", "lower"),
    "exec.programs_validated": ("count", "lower"),
    "exec.rejected_static": ("count", "lower"),
    "exec.rejected_unbound": ("count", "lower"),
    "exec.transpiles": ("count", "lower"),
    "exec.transpile_cache_hits": ("count", "higher"),
    "traced_wall_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "unattributed_frac": ("ratio", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(report, wall_s: float, scope: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace_overhead_frac`` excluded:
    it needs the untraced wall, which only the runner has).

    ``<layer>.self_s`` is the layer's summed self time; ``.calls`` and
    ``.shots`` read the counter of that exact name, else the layer's span
    count.
    """
    out: dict[str, float] = {}
    for name in PER_LAYER_METRICS:
        layer, _dot, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = report.self_s.get(layer, 0.0)
        elif kind in ("calls", "shots"):
            out[name] = report.counts.get(name, report.calls.get(layer, 0))
    for field, value in scope.items():
        out[f"exec.{field}"] = value
    out["sim.trajectory.us_per_shot"] = 1e6 * _ratio(
        out["sim.trajectory.self_s"], out["sim.trajectory.shots"]
    )
    out["exec.job_wait_s"] = report.self_s.get("exec.job_wait", 0.0)
    out["exec.pool_busy_s"] = report.other_root_s
    out["cache.hit_ratio"] = _ratio(
        scope["cache_hits"], scope["cache_hits"] + scope["cache_misses"]
    )
    out["transpiler.hit_ratio"] = _ratio(
        scope["transpile_cache_hits"],
        scope["transpiles"] + scope["transpile_cache_hits"],
    )
    out["traced_wall_s"] = wall_s
    out["unattributed_s"] = wall_s - report.main_root_s
    out["unattributed_frac"] = _ratio(out["unattributed_s"], wall_s)
    return out


def _meta() -> dict:
    import numpy

    from repro.quantum.execution import default_service

    return {
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "executor": default_service().stats().get("executor"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up, then exit without running the work")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    state = workload.setup(args.seed, args.iteration)
    from repro.quantum.execution import stats_scope

    setup_s = time.monotonic() - args.spawned_at
    record: dict = {"error": None, "ops": []}
    sampled = not (args.trace or args.setup_only)
    timeline = Timeline() if sampled else Timeline(every_s=None)
    if args.setup_only:
        timeline.start()
        record["setup_s"] = setup_s * timeline.setup_scale()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return 0
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        uninstall, missing = install(tracer)
    try:
        with stats_scope("perfbench") as scope:
            timeline.start()
            try:
                output = workload.run(state, timeline)
            finally:
                timeline.stop()
    except Exception:  # noqa: BLE001 - reported to the runner as a failed run
        record["error"] = traceback.format_exc()
    else:
        wall_s = timeline.measured_s()
        kernel_s = [seconds for _at, _cpu, seconds in timeline.samples]
        record.update(
            setup_s=setup_s * timeline.setup_scale(),
            wall_s=timeline.reference_s(),
            wall_measured_s=wall_s,
            host_speed=REFERENCE_S / statistics.median(kernel_s),
            ops=output.ops,
            digest=digest(output.ops),
            latencies=timeline.latencies(),
            units=output.units,
            summary=output.summary,
            exec=scope.as_dict(),
        )
        if tracer is not None:
            uninstall()
            report = tracer.report(main_ident=threading.get_ident())
            record["layers"] = layer_metrics(report, wall_s, scope.as_dict())
            record["missing_hooks"] = missing
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["meta"] = _meta()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
