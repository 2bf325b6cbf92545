"""Distributed evaluation smoke: 1 coordinator + 1 worker on localhost.

The whole fleet protocol in one process, asserting the two guarantees the
distributed tier makes (CI runs this as a blocking smoke job):

1. **bit-identical results** — an arm evaluated through a coordinator and a
   remote-style eval worker reproduces the serial runner's outcomes exactly;
2. **zero simulations against a warm cache server** — the coordinator serves
   the cache *and* the work queue on one port (one shared token), so a cold
   worker pointed at a warm store executes every episode without simulating
   a single circuit.

In production the pieces run standalone:

    repro eval-server scot --dir /var/cache/repro --port 8751 --token S
    repro eval-worker --url http://coordinator:8751 --token S --workers 4

Run:  python examples/distributed_eval.py
"""

import tempfile
import threading
from pathlib import Path

from repro.evalsuite import PipelineSettings, build_suite, evaluate
from repro.llm.faults import ModelConfig
from repro.quantum.execution import (
    EvalCoordinator,
    ExecutionService,
    RemoteResultCache,
    ResultCache,
    run_worker,
    set_default_service,
)

TOKEN = "fleet-smoke-token"


def main() -> None:
    store = Path(tempfile.mkdtemp(prefix="repro-dist-")) / "store"
    bank = build_suite()[:4]
    settings = PipelineSettings(
        ModelConfig("3b", True), samples_per_task=1, label="smoke"
    )

    # Phase 1: the serial reference run also warms the store the
    # coordinator will serve (its disk tier IS the served directory).
    set_default_service(ExecutionService(cache_dir=store))
    serial = evaluate(settings, bank, workers=1)
    print(
        f"serial reference: accuracy {serial.accuracy():.1%}, "
        f"{serial.execution_stats['simulations']} simulations "
        f"(store warmed: {store})"
    )

    # Phase 2: coordinator (cache + work queue, token-authed) plus one
    # worker whose only cache tier is the coordinator itself — a cold
    # machine in a warm fleet.  Local fallback is disabled so every chunk
    # provably travels the wire.
    coordinator = EvalCoordinator(
        store, token=TOKEN, fallback_workers=0, lease_timeout=10.0
    ).start()
    print(f"coordinator at {coordinator.url} (token auth on)")
    set_default_service(
        ExecutionService(
            cache=ResultCache(
                remote=RemoteResultCache(coordinator.url, token=TOKEN)
            )
        )
    )
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker,
        args=(coordinator.url,),
        kwargs=dict(
            token=TOKEN, workers=1, poll_interval=0.05,
            heartbeat_interval=0.5, stop=stop, worker_id="smoke-worker",
        ),
        daemon=True,
    )
    worker.start()
    try:
        remote = evaluate(settings, bank, coordinator=coordinator)
    finally:
        stop.set()
        worker.join(timeout=10)
        coordinator.stop()
        set_default_service(None)

    status = coordinator.queue.status()
    print(
        f"distributed run:  accuracy {remote.accuracy():.1%}, "
        f"{remote.execution_stats['simulations']} simulations, "
        f"{remote.execution_stats['cache_remote_hits']} remote hits, "
        f"{status['done']}/{status['total']} chunks via "
        f"{status['workers']} worker(s)"
    )

    identical = [
        (o.case_id, o.syntactic_successes, o.full_successes,
         tuple(o.passes_used))
        for o in serial.outcomes
    ] == [
        (o.case_id, o.syntactic_successes, o.full_successes,
         tuple(o.passes_used))
        for o in remote.outcomes
    ]
    assert identical, "distributed outcomes diverged from the serial runner"
    assert status["done"] == status["total"] == len(bank), (
        "coordinator did not fold every chunk"
    )
    assert status["workers"] >= 1, "no remote worker ever attached"
    assert remote.execution_stats["simulations"] == 0, (
        "a cold worker against a warm cache server must simulate nothing, "
        f"got {remote.execution_stats['simulations']}"
    )
    print("results bit-identical across the fleet: True")
    print("zero simulations against the warm cache server: True")


if __name__ == "__main__":
    main()
