"""Fleet-scale result sharing: one cache server, many workers.

Starts a `repro cache-server` equivalent in-process (ephemeral port), then
simulates a two-machine fleet:

1. worker A (its own empty disk cache, pointed at the server) executes a
   deterministic workload — every result is simulated once and uploaded;
2. worker B (a *cold* machine: fresh process stand-in, no local cache at
   all) runs the identical workload — and performs **zero** simulations,
   because every lookup falls through memory -> (no disk) -> remote and hits
   the shared store;
3. the server's own disk store is bounded with `CacheLimits`, so long-lived
   fleets never grow it without bound.

In production the server runs standalone:

    repro cache-server --dir /var/cache/repro --port 8750 --max-bytes 100000000
    REPRO_CACHE_URL=http://cachehost:8750 repro eval scot --exec-stats

Worker A's cold misses run on the vectorised batch engine — results are
bit-identical to the serial engine, so worker B's warm lookups still hit.

Run:  python examples/fleet_cache.py
"""

import tempfile
from pathlib import Path

from repro.quantum import QuantumCircuit
from repro.quantum.execution import CacheLimits, CacheServer, ExecutionService


def workload() -> list[QuantumCircuit]:
    circuits = []
    for marked in range(4):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        if marked & 1:
            qc.x(0)
        if marked & 2:
            qc.z(1)
        qc.measure([0, 1], [0, 1])
        circuits.append(qc)
    return circuits


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
    server = CacheServer(
        root / "server-store",
        limits=CacheLimits(max_bytes=1_000_000, max_entries=10_000),
    ).start()
    print(f"cache server listening at {server.url} (store: {server.disk.cache_dir})")

    worker_a = ExecutionService(cache_dir=root / "worker-a", remote_url=server.url)
    counts_a = worker_a.run(workload(), shots=500, seed=11).result()
    stats_a = worker_a.stats()
    print(
        f"\nworker A (cold fleet): {stats_a['simulations']} simulations, "
        f"{stats_a['cache_remote_hits']} remote hits — it paid for the work "
        "and published the results"
    )
    print(
        f"worker A batch engine: "
        f"simulations_batched={stats_a['simulations_batched']}, "
        f"batch_groups={stats_a['batch_groups']}"
    )

    # Worker B has *no* local cache at all — a freshly provisioned machine.
    worker_b = ExecutionService(remote_url=server.url)
    counts_b = worker_b.run(workload(), shots=500, seed=11).result()
    stats_b = worker_b.stats()
    print(
        f"worker B (warm fleet):  {stats_b['simulations']} simulations, "
        f"{stats_b['cache_remote_hits']} remote hits — everything downloaded"
    )
    identical = all(
        counts_a.get_counts(i) == counts_b.get_counts(i) for i in range(4)
    )
    print(f"results bit-identical across the fleet: {identical}")
    print(f"server store: {len(server.disk)} entries, "
          f"{server.disk.size_bytes()} bytes (bounded by {server.disk.limits})")
    server.stop()


if __name__ == "__main__":
    main()
