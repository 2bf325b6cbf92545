"""Decoder and engine versions: what a result's cache key promises.

``MemoryExperimentSpec.fingerprint()`` hashes the decoder class's
``VERSION``, so a decoder change that bumps it misses exactly that
decoder's cached results, on every tier; a stock backend's keys carry
``batchsim.ENGINE_VERSION`` the same way.  The version only means something
if a decoder's output is a pure function of its input, so a fixed corpus of
raw event lists is decoded under three hash seeds and must give one digest
per decoder, pinned next to its ``VERSION``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.experiments import logical_error_rate
from repro.qec.matching import MWPMDecoder
from repro.qec.unionfind import UnionFindDecoder
from repro.quantum import batchsim
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import CacheServer, ExecutionService

ROOT = Path(__file__).resolve().parents[2]

#: Each stock decoder's ``VERSION`` and the digest of its decodes of
#: :func:`corpus`.  A change to a decoder that moves any decode moves its
#: digest: bump that decoder's ``VERSION``, so cached memory experiments it
#: scored miss, and re-pin both numbers here.
PINNED = {
    "mwpm": (1, "4ef28346e7a879f3"),
    "unionfind": (2, "1508521cdf12a18b"),
}

HASH_SEEDS = ("0", "2", "3")


@pytest.mark.parametrize("tier", ["memory", "disk", "remote"])
def test_version_bump_misses_only_that_decoders_results(
    tier, tmp_path, monkeypatch
):
    code = SurfaceCode(3)
    decoders = [MWPMDecoder(code, "x"), UnionFindDecoder(code, "x")]

    def run_both(service):
        with service.stats_scope() as scope:
            failures = [
                logical_error_rate(
                    code, decoder, 2, 0.05, shots=40, seed=5, service=service
                ).logical_failures
                for decoder in decoders
            ]
        return failures, scope.as_dict()

    with CacheServer(tmp_path / "server") as server:
        tiers = {
            "memory": {},
            "disk": {"cache_dir": tmp_path / "disk"},
            "remote": {"remote_url": server.url},
        }[tier]
        writer = ExecutionService(**tiers)
        failures, _ = run_both(writer)
        monkeypatch.setattr(MWPMDecoder, "VERSION", MWPMDecoder.VERSION + 1)
        reader = writer if tier == "memory" else ExecutionService(**tiers)
        again, counts = run_both(reader)

    assert again == failures
    assert counts["simulations"] == 1  # MWPM, scored afresh
    assert counts["cache_misses"] == 1
    assert counts["cache_hits"] == 1  # union-find
    assert counts["cache_disk_hits"] == (tier == "disk")
    assert counts["cache_remote_hits"] == (tier == "remote")


@pytest.mark.parametrize("tier", ["memory", "disk", "remote"])
def test_engine_version_bump_misses_only_stock_backend_results(
    tier, tmp_path, monkeypatch
):
    # A stock backend's keys carry batchsim.ENGINE_VERSION; the qec_memory
    # backend overrides execute_circuit, so its keys carry 0 and its
    # results stay versioned by the decoder alone.
    code = SurfaceCode(3)
    decoder = MWPMDecoder(code, "x")
    bell = QuantumCircuit(2, 2)
    bell.h(0)
    bell.cx(0, 1)
    bell.measure([0, 1], [0, 1])

    def run_both(service):
        with service.stats_scope() as scope:
            counts = service.run(
                bell, backend="local_simulator", shots=64, seed=5
            ).result().get_counts()
            failures = logical_error_rate(
                code, decoder, 2, 0.05, shots=40, seed=5, service=service
            ).logical_failures
        return (counts, failures), scope.as_dict()

    with CacheServer(tmp_path / "server") as server:
        tiers = {
            "memory": {},
            "disk": {"cache_dir": tmp_path / "disk"},
            "remote": {"remote_url": server.url},
        }[tier]
        writer = ExecutionService(**tiers)
        results, _ = run_both(writer)
        monkeypatch.setattr(batchsim, "ENGINE_VERSION", batchsim.ENGINE_VERSION + 1)
        reader = writer if tier == "memory" else ExecutionService(**tiers)
        again, counts = run_both(reader)

    assert again == results
    assert counts["simulations"] == 1  # the Bell circuit, simulated afresh
    assert counts["cache_misses"] == 1
    assert counts["cache_hits"] == 1  # the memory experiment
    assert counts["cache_disk_hits"] == (tier == "disk")
    assert counts["cache_remote_hits"] == (tier == "remote")


#: Rounds of every corpus history.
ROUNDS = 3


def corpus():
    """Raw event lists, drawn by ``random.Random`` (whose int seeding does
    not depend on the hash seed), not by the memory sampler:
    ``(code, error_type, event_lists)`` per case.

    Small decodes (up to 14 events) on four codes, then wide ones (up to 30
    events) on surface-5 and surface-7, x and z.  Which of the
    syndrome-equivalent corrections union-find peels follows the order its
    clusters grow in, and large clusters have the most orders to tell
    apart, so the wide cases are the ones that pin it."""
    small = [
        (SurfaceCode(3), "x"),
        (SurfaceCode(5), "x"),
        (SurfaceCode(5), "z"),
        (RepetitionCode(5), "x"),
    ]
    wide = [
        (SurfaceCode(distance), error_type)
        for distance in (5, 7)
        for error_type in ("x", "z")
    ]
    cases = [(code, error_type, index, 14)
             for index, (code, error_type) in enumerate(small)]
    cases += [(code, error_type, 100 + index, 30)
              for index, (code, error_type) in enumerate(wide)]
    for code, error_type, stream, most in cases:
        checks = code.num_z_checks if error_type == "x" else code.num_x_checks
        candidates = [(t, c) for t in range(ROUNDS + 1) for c in range(checks)]
        rng = random.Random(stream)
        event_lists = [
            sorted(rng.sample(candidates, rng.randint(1, most))) for _ in range(60)
        ]
        yield code, error_type, event_lists


def corpus_digests() -> dict[str, str]:
    """Each stock decoder's digest of its decodes of :func:`corpus`."""
    mwpm, unionfind = hashlib.sha256(), hashlib.sha256()
    for code, error_type, event_lists in corpus():
        by_mwpm = MWPMDecoder(code, error_type, time_weight=0.5)
        by_unionfind = UnionFindDecoder(code, error_type)
        for events in event_lists:
            matched = by_mwpm.decode(events)
            mwpm.update(
                repr(
                    (matched.correction.nonzero()[0].tolist(),
                     matched.matched_pairs, matched.weight)
                ).encode()
            )
            grown = by_unionfind.decode(events, rounds=ROUNDS)
            unionfind.update(
                repr(
                    (grown.correction.nonzero()[0].tolist(),
                     grown.num_growth_rounds, grown.cluster_count)
                ).encode()
            )
    return {"mwpm": mwpm.hexdigest()[:16], "unionfind": unionfind.hexdigest()[:16]}


def test_decodes_do_not_depend_on_the_hash_seed():
    script = (
        "import json; from tests.qec.test_decoder_versions import "
        "corpus_digests; print(json.dumps(corpus_digests()))"
    )
    src = str(ROOT / "src")
    procs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([src, str(ROOT)])
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", script],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        runs.append(json.loads(out))
    stock = {"mwpm": MWPMDecoder, "unionfind": UnionFindDecoder}
    for kind, decoder_class in stock.items():
        digests = dict(zip(HASH_SEEDS, (run[kind] for run in runs)))
        assert len(set(digests.values())) == 1, (
            f"{kind} decodes depend on PYTHONHASHSEED: {digests}"
        )
        assert (decoder_class.VERSION, runs[0][kind]) == PINNED[kind], (
            f"{kind} decodes changed: bump VERSION and re-pin"
        )
