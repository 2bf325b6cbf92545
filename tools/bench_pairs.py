"""Benchmark the working tree against a parent revision in alternating pairs.

Run from the repository root::

    python3 tools/bench_pairs.py --number N --parent HEAD --pairs 10 --seed 101
    python3 tools/bench_pairs.py --number N --workload eval-warm --pairs 10

``git archive`` exports the parent revision into a temporary directory,
and the working tree is exported beside it (see :func:`export_working_tree`),
so both sides run from fresh copies in one place.  Each pair then runs
``perfbench/run.py --workload W --seed S --seconds 12 --trace 0`` once in
each copy, pair ``i`` with seed ``S + i``; the side that runs first
alternates from pair to pair, so a shared host's slow drift lands on both
sides alike.  Each side writes its bytecode to a directory of its own that
starts empty (see :func:`run_env`).  The run length (``run_seconds``) and
the default workloads come from ``BENCHMARK.json``.

The tool writes ``BENCH_<number>.json`` at the repository root with every
run's result line, digest, ``exec`` line and ``src/`` line count, and per
workload: the median and quartiles of every end-to-end metric on each side,
and for each end-to-end metric of ``BENCHMARK.json`` a verdict (see
:func:`status`), how many pairs the working tree won in the metric's
``better`` direction and whether that shows a gain (see :func:`summarize`),
plus each side's ``src/`` line count; it prints the verdicts, wins, gains
and line counts too.  It exits 1 if any run failed or the two runs of a
pair printed different digests; the verdicts do not change the exit
status.

Only the standard library is used: ``perfbench/`` is run, never imported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_output(stdout: str) -> dict:
    """The result object (the last stdout line), digest, ``exec`` line and
    the ``src_lines=N`` count of perfbench's meta line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    digest = exec_line = src_lines = None
    for line in lines:
        text = line.strip()
        if text.startswith("digest "):
            digest = text.split()[1]
        elif text.startswith("exec "):
            exec_line = text[len("exec "):]
        elif (found := re.search(r"\bsrc_lines=(\d+)", text)) is not None:
            src_lines = int(found.group(1))
    return {
        "result": result, "digest": digest, "exec": exec_line,
        "src_lines": src_lines,
    }


def run_env(pycache: Path) -> dict[str, str]:
    """The environment of one side's runs: bytecode goes under ``pycache``.

    ``PYTHONPYCACHEPREFIX`` points each side at an empty directory of its
    own, and ``PYTHONDONTWRITEBYTECODE`` is dropped.  Otherwise the exported
    parent, which starts with no bytecode, would compile every module in
    every process (with that variable set) while the working tree reused the
    bytecode it already held, and ``setup_s`` would time compiling rather
    than the program.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(
    root: Path, workload: str, seed: int, seconds: float, env: dict[str, str]
) -> dict:
    """One perfbench run in ``root``; never raises for a failed run."""
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
        ],
        cwd=root, env=env, capture_output=True, text=True,
    )
    record = parse_output(proc.stdout)
    record["returncode"] = proc.returncode
    record["elapsed_s"] = round(time.monotonic() - start, 3)
    if proc.returncode != 0 or record["result"] is None:
        record["stderr"] = proc.stderr[-2000:]
    return record


def failure(run: dict) -> str | None:
    """Why a run counts as failed, or ``None``."""
    result = run.get("result")
    if run.get("returncode"):
        return f"exit status {run['returncode']}"
    if not isinstance(result, dict):
        return "no result line"
    if not result.get("correct"):
        return "result not correct"
    if result.get("failed"):
        return f"{result['failed']} failed operation(s)"
    return None


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, quartiles (inclusive method) and their spread."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def _metric(run: dict, name: str) -> float | None:
    entry = (run.get("result") or {}).get("metrics", {}).get(name)
    return entry["value"] if entry else None


def status(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's verdict on one workload.

    ``worse``: the change's median is past ``bound`` (a fraction of the
    parent's median) on the side opposite ``better``.  ``unresolved``: the
    parent's own spread (IQR over median) exceeds ``bound`` and not every
    change run beats every parent run, so the runs cannot tell.  ``ok``
    otherwise.  A side without values is ``unresolved``.
    """
    if not parent or not change:
        return "unresolved"
    base = quartiles(parent)
    median = quartiles(change)["median"]
    if better == "lower":
        worse = median > base["median"] * (1 + bound)
        beats_all = max(change) < min(parent)
    else:
        worse = median < base["median"] * (1 - bound)
        beats_all = min(change) > max(parent)
    if worse:
        return "worse"
    if base["iqr"] > bound * base["median"] and not beats_all:
        return "unresolved"
    return "ok"


def gain(wins: int, pairs: int, parent: dict, change: dict, better: str) -> bool:
    """Whether the change won ``wins`` of ``pairs`` (at least one) and the
    two sides' :func:`quartiles` show a gain in the ``better`` direction:
    at least nine tenths of the pairs, and a median past the parent's by
    more than the parent's IQR."""
    gap = parent["median"] - change["median"]
    if better == "higher":
        gap = -gap
    return 10 * wins >= 9 * pairs and gap > parent["iqr"]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-side statistics and verdicts of one workload's runs.

    Each run carries ``pair``, ``side`` (``"parent"`` or ``"change"``),
    ``seed`` and the fields of :func:`run_once`; ``end_to_end`` is
    ``BENCHMARK.json``'s list of ``{name, better, bound}``.  Failed runs are
    listed and left out of the statistics.  For each end-to-end metric,
    ``status`` holds its :func:`status`, ``wins`` the pairs whose change run
    beat the parent run in the metric's ``better`` direction (a tie is not
    a win; a pair counts only when both of its runs succeeded), and
    ``gain`` its :func:`gain` over those pairs.  ``src_lines`` gives each
    side's ``src/`` line count, from its first run that printed one.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    failed = []
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
        why = failure(run)
        if why is not None:
            failed.append({"pair": run["pair"], "side": run["side"], "why": why})
    good = [run for run in runs if failure(run) is None]
    names = {name for run in good for name in run["result"].get("metrics", {})}
    values = {
        name: {
            side: [
                value for run in good
                if run["side"] == side and (value := _metric(run, name)) is not None
            ]
            for side in SIDES
        }
        for name in names | {spec["name"] for spec in end_to_end}
    }
    metrics = {}
    for name in sorted(names):
        entry = {
            side: quartiles(values[name][side])
            for side in SIDES if values[name][side]
        }
        if len(entry) == 2 and entry["parent"]["median"]:
            entry["median_change"] = entry["change"]["median"] / entry["parent"]["median"] - 1
        metrics[name] = entry
    complete = []
    mismatches = []
    for pair, sides in sorted(by_pair.items()):
        if set(sides) != set(SIDES):
            continue
        parent, change = sides["parent"], sides["change"]
        if parent.get("digest") != change.get("digest"):
            mismatches.append(pair)
        if failure(parent) is None and failure(change) is None:
            complete.append((parent, change))
    wins, gains = {}, {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        pairs = [
            (_metric(parent, name), _metric(change, name))
            for parent, change in complete
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        wins[name] = sum(c < p if better == "lower" else c > p for p, c in pairs)
        # A counted pair means both sides have statistics for the metric.
        gains[name] = bool(pairs) and gain(
            wins[name], len(pairs), metrics[name]["parent"],
            metrics[name]["change"], better,
        )
    return {
        "pairs": len(complete),
        "status": {
            spec["name"]: status(
                values[spec["name"]]["parent"], values[spec["name"]]["change"],
                spec["better"], spec["bound"],
            )
            for spec in end_to_end
        },
        "wins": wins,
        "gain": gains,
        "metrics": metrics,
        "digests": {
            side: sorted({str(run.get("digest")) for run in runs if run["side"] == side})
            for side in SIDES
        },
        "digest_mismatches": mismatches,
        "src_lines": {
            side: next(
                (
                    run["src_lines"] for run in runs
                    if run["side"] == side and run.get("src_lines") is not None
                ),
                None,
            )
            for side in SIDES
        },
        "failed_runs": failed,
        "ok": not failed and not mismatches,
    }


def _git(*args: str) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, check=True,
    )
    return proc.stdout.decode().strip()


def export_revision(rev: str, target: Path) -> None:
    """Extract the committed tree of ``rev`` into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def export_working_tree(target: Path) -> None:
    """Copy the working tree into ``target``: tracked files as they are on
    disk, tracked files it has deleted left out, and untracked files that
    ``.gitignore`` does not exclude."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for name in sorted(set(filter(None, listed.split("\0")))):
        source = ROOT / name
        if not source.is_file():
            continue
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target / name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True,
                        help="writes BENCH_<number>.json at the repository root")
    parser.add_argument("--parent", default="HEAD",
                        help="the revision to compare against (default HEAD)")
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        head_sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain"))
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    seeds = [args.seed + pair for pair in range(args.pairs)]
    report = {
        "command": (
            f"python3 perfbench/run.py --workload <workload> --seed <seed> "
            f"--seconds {seconds:g} --trace 0"
        ),
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"head_sha": head_sha, "uncommitted_changes": dirty},
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        export_revision(parent_sha, roots["parent"])
        export_working_tree(roots["change"])
        envs = {side: run_env(Path(tmp) / "pycache" / side) for side in SIDES}
        for workload in workloads:
            runs = []
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(roots[side], workload, seed, seconds, envs[side])
                    run.update(pair=pair, seed=seed, side=side)
                    runs.append(run)
                    wall = _metric(run, "wall_s")
                    print(
                        f"{workload} pair {pair + 1}/{args.pairs} {side:6s} "
                        f"seed {seed}: wall_s={wall} digest={run['digest']} "
                        f"{failure(run) or 'ok'}",
                        file=sys.stderr, flush=True,
                    )
            report["workloads"][workload] = {
                "summary": summarize(runs, spec["end_to_end"]), "runs": runs,
            }
    report["ok"] = all(w["summary"]["ok"] for w in report["workloads"].values())
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        summary = entry["summary"]
        wall = summary["metrics"].get("wall_s", {})
        medians = " -> ".join(
            f"{wall[side]['median']:.3f}" for side in SIDES if side in wall
        )
        print(
            f"{workload}: wall_s {medians} s over {summary['pairs']} pairs"
            + ("" if summary["ok"] else "  FAILED")
        )
        for name, verdict in summary["status"].items():
            print(
                f"  {name} {verdict}, change won {summary['wins'][name]}/"
                f"{summary['pairs']} pairs, "
                + ("gain" if summary["gain"][name] else "no gain")
            )
    lines = next(iter(report["workloads"].values()))["summary"]["src_lines"]
    print(f"src/ lines {lines['parent']} -> {lines['change']}")
    print(f"wrote {out.name}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
