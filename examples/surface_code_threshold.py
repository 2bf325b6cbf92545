"""Surface-code threshold exploration with the QEC substrate.

Sweeps physical error rates across code distances and prints the
logical-vs-physical curves whose crossing is the threshold — the quantitative
backbone behind the paper's Section V-B "reduce the amount of error" claim.

The sweep runs through the shared ExecutionService: every (distance, rate)
point is one cacheable execution on the ``qec_memory`` backend.  Pass
``--cache-dir DIR`` and run the script twice — the second run performs zero
memory-experiment simulations, it is replayed entirely from the persistent
result cache.

Run:  python examples/surface_code_threshold.py [--quick] [--cache-dir DIR]
"""

import sys

from repro.qec.codes.surface import SurfaceCode
from repro.qec.experiments import threshold_sweep
from repro.quantum.execution import ExecutionService, set_default_service
from repro.utils.tables import AsciiTable


def _flag_value(argv: list[str], flag: str) -> str | None:
    if flag in argv:
        index = argv.index(flag)
        if index + 1 < len(argv):
            return argv[index + 1]
    return None


def main(quick: bool = False) -> None:
    cache_dir = _flag_value(sys.argv, "--cache-dir")
    service = ExecutionService(cache_dir=cache_dir)
    set_default_service(service)

    distances = [3, 5] if quick else [3, 5, 7]
    rates = [0.005, 0.01, 0.02, 0.04, 0.08] if not quick else [0.01, 0.04]
    shots = 80 if quick else 300
    print(
        f"Phenomenological memory experiment, MWPM decoder, rounds = distance, "
        f"{shots} shots per point.\n"
    )
    sweep = threshold_sweep(
        SurfaceCode, distances, rates, shots=shots, seed=1, service=service
    )
    table = AsciiTable(
        ["p_physical"] + [f"d={d}" for d in distances],
        title="Logical error rate by distance (crossing ~ threshold)",
    )
    for i, p in enumerate(rates):
        row = [f"{p:.3f}"]
        for d in distances:
            row.append(f"{sweep[d][i][1]:.3f}")
        table.add_row(row)
    print(table.render())
    print(
        "\nBelow threshold (~3% for this noise model) larger distances win; "
        "above it they lose — the defining signature of a QEC code."
    )
    stats = service.stats()
    print(
        f"\nexecution service: "
        f"{stats.get('simulations', 0)} memory-experiment simulations, "
        f"{stats.get('cache_hits', 0)} cache hits "
        f"({stats.get('cache_disk_hits', 0)} from disk)"
        + (
            f" — persisted under {stats['cache_dir']}; a repeat run "
            "simulates nothing"
            if "cache_dir" in stats
            else " — pass --cache-dir DIR to persist results across runs"
        )
    )


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
