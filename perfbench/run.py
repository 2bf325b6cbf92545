"""The repo benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py                  # every workload, untraced

Each iteration of a workload runs in a fresh process
(``perfbench/iteration.py``), a closed loop with one caller, with a cold
in-memory cache and ``PYTHONHASHSEED`` pinned, against the default
configuration: every ``REPRO_*`` variable is removed from the child's
environment, except the cache directory the eval workloads need.
Iterations repeat until ``--seconds`` have passed (at least three), and the
runner reports medians over them; an untraced run also starts a few
set-up-only processes, so that ``setup_s`` is a median over more set-ups.
Times are in reference-host seconds (``perfbench/hostspeed.py``): each is
scaled by how fast the host ran a fixed kernel while it was measured, so a
shared host's drift in speed cancels out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs one
untraced iteration, then traced ones, and prints the per-layer metrics.
Every iteration's result digests must equal the first one's (the untraced
one, when tracing), and eval-warm's must equal those of the eval-cold run
that filled its disk cache.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script: make `perfbench` importable
    sys.path.insert(0, str(ROOT))

from perfbench.iteration import PER_LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK_ROOT = ROOT / ".perfbench-work"

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
UNITS = {**END_TO_END, **{name: unit for name, (unit, _b) in PER_LAYER_METRICS.items()}}

#: Iterations per run never fall below these, however long each one takes.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
#: Set-up-only processes per untraced run, besides the iterations' own set-ups.
SETUP_RUNS = 5
#: An iteration process that runs longer than this is killed and counted failed,
#: and no iteration starts this late into a run: a run ends within 180 s.
CHILD_TIMEOUT_S = 80
LAST_START_S = 90
#: Pinned for every workload process (see README.md: union-find decoding
#: depends on the string hash seed).
HASH_SEED = "0"


class Runner:
    """Starts iteration processes and collects their records."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.count = 0

    def child_env(self, cache_dir: Path | None) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def iterate(
        self, workload: str, trace: int, cache_dir: Path | None, setup_only: bool = False,
    ) -> dict:
        """One iteration process; returns its record (``error`` set on failure)."""
        self.count += 1
        out = self.work_dir / f"record-{self.count}.json"
        if cache_dir is None and workload.startswith("eval"):
            cache_dir = self.work_dir / f"cache-{self.count}"
        if cache_dir is not None:
            cache_dir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, "-m", "perfbench.iteration",
            "--workload", workload, "--seed", str(self.seed),
            "--iteration", str(self.count), "--trace", str(trace),
            "--spawned-at", repr(time.monotonic()), "--out", str(out),
        ] + (["--setup-only"] if setup_only else [])
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.child_env(cache_dir),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"iteration exceeded {CHILD_TIMEOUT_S}s", "ops": []}
        if proc.returncode != 0 or not out.exists():
            return {"error": proc.stderr[-2000:] or "iteration wrote no record", "ops": []}
        return json.loads(out.read_text(encoding="utf-8"))


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(records: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over iterations, and set-up's over iterations and ``setups``
    (set-up-only processes).  Latency percentiles pool every iteration's
    operations, which on eval-* ran in several orders."""
    latencies = [s for r in records for s in r["latencies"]]
    return {
        "setup_s": _median(records + setups, "setup_s"),
        "wall_s": _median(records, "wall_s"),
        "throughput_per_s": statistics.median(r["units"] / r["wall_s"] for r in records),
        "op_p50_ms": 1e3 * _percentile(latencies, 50),
        "op_p95_ms": 1e3 * _percentile(latencies, 95),
        "peak_rss_mb": _median(records, "peak_rss_mb"),
    }


def per_layer(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    out = {}
    for name in PER_LAYER_METRICS:
        if name == "trace_overhead_frac":
            out[name] = _median(traced, "wall_s") / untraced_wall - 1
        else:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    return out


def check(records: list[dict], reference: list | None, problems: list[str]) -> tuple[int, int]:
    """Compare every record's operation digests with ``reference``.

    Returns ``(attempted, failed)``: an operation fails when its process
    raised or its digest differs from the reference's.
    """
    attempted = failed = 0
    expected = len(reference) if reference else 1
    for index, record in enumerate(records):
        if record.get("error"):
            attempted += expected
            failed += expected
            problems.append(f"iteration {index} failed: {record['error'].strip()[-500:]}")
            continue
        ops = [tuple(op) for op in record["ops"]]
        attempted += len(ops)
        if reference is None:
            continue
        mismatched = [name for (name, d), ref in zip(ops, reference) if (name, d) != tuple(ref)]
        mismatched += [name for name, _d in ops[len(reference):]]
        failed += len(mismatched) + max(0, len(reference) - len(ops))
        if mismatched:
            problems.append(f"iteration {index}: digests differ for {mismatched[:5]}")
    return attempted, failed


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object (plus report fields)."""
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(seed, work_dir)
    run_start = time.monotonic()
    problems: list[str] = []
    try:
        reference = None
        shared_cache = None
        if name == "eval-warm":
            # Fixture, not timed: one eval-cold iteration fills the disk cache,
            # and its digests are the ones eval-warm must reproduce.
            shared_cache = work_dir / "warm-cache"
            fill = runner.iterate("eval-cold", 0, shared_cache)
            if fill.get("error"):
                problems.append(f"cache fill failed: {fill['error'].strip()[-500:]}")
            else:
                reference = fill["ops"]
        records: list[dict] = []
        untraced = None
        if trace:
            untraced = runner.iterate(name, 0, shared_cache)
            records.append(untraced)
        setups = [] if trace else [
            runner.iterate(name, 0, None, setup_only=True) for _ in range(SETUP_RUNS)
        ]
        for record in setups:
            if record.get("error"):
                problems.append(f"set-up failed: {record['error'].strip()[-500:]}")
        start = time.monotonic()
        timed: list[dict] = []
        least = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
        while (
            len(timed) < least or time.monotonic() - start < seconds
        ) and time.monotonic() - run_start < LAST_START_S:
            timed.append(runner.iterate(name, trace, shared_cache))
        records += timed
        if reference is None:
            first_ok = next((r for r in records if not r.get("error")), None)
            reference = first_ok["ops"] if first_ok else None
        attempted, failed = check(records, reference, problems)
        good = [r for r in timed if not r.get("error")]
        if name == "eval-warm":
            for r in good:
                if r["exec"]["simulations"] or r["exec"]["transpiles"]:
                    problems.append(
                        f"eval-warm simulated {r['exec']['simulations']} circuit(s) "
                        f"and transpiled {r['exec']['transpiles']}; both must be 0"
                    )
        if not good:
            problems.append("no iteration succeeded")
            metrics = {}
        elif trace:
            if untraced.get("error"):
                metrics = {}
            else:
                metrics = per_layer(good, untraced["wall_s"])
        else:
            metrics = end_to_end(good, [s for s in setups if not s.get("error")])
        sample = good[0] if good else {}
        return {
            "correct": not problems and failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "walls": [r["wall_s"] for r in good],
            "measured_walls": [r["wall_measured_s"] for r in good],
            "speeds": [r["host_speed"] for r in good],
            "digest": sample.get("digest"),
            "summary": sample.get("summary"),
            "exec": sample.get("exec"),
            "meta": sample.get("meta"),
            "missing_hooks": sample.get("missing_hooks"),
            "problems": problems,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _print_report(name: str, seed: int, trace: int, result: dict) -> None:
    meta = dict(result.get("meta") or {})
    meta.update(git_sha=_git_sha(), src_lines=_src_lines())
    def listed(values: list[float]) -> str:
        return ", ".join(f"{v:.3f}" for v in values)

    print(f"== {name} (seed {seed}, trace {trace}; iteration walls "
          f"[{listed(result['walls'])}] reference s)")
    print(f"   measured walls [{listed(result['measured_walls'])}] s, "
          f"host speed [{listed(result['speeds'])}]")
    print("   " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    for metric, value in result["metrics"].items():
        print(f"   {metric:34s} {value:14.6g} {UNITS[metric]}")
    if not trace and result["metrics"]:
        m = result["metrics"]
        if name.startswith("eval"):
            aliases = {"episodes_per_s": (m["throughput_per_s"], "1/s"),
                       "task_p50_ms": (m["op_p50_ms"], "ms"),
                       "task_p95_ms": (m["op_p95_ms"], "ms")}
        else:
            aliases = {"shots_per_s": (m["throughput_per_s"], "1/s")}
        aliases["failed_frac"] = (result["failed"] / result["attempted"], "ratio")
        for metric, (value, unit) in aliases.items():
            print(f"   {metric:34s} {value:14.6g} {unit}")
    counters = result.get("exec") or {}
    print("   exec " + ", ".join(
        f"{k}={v}" for k, v in counters.items()
        if v or k in ("simulations", "transpiles")
    ))
    print(f"   digest {result['digest']}  summary {json.dumps(result['summary'])}")
    if result.get("missing_hooks"):
        print(f"   hooks whose target is gone: {result['missing_hooks']}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        _print_report(name, args.seed, args.trace, result)
        results[name] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()
            },
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
