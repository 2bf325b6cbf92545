"""The content-addressed transpile stage: keys, tiers, counters, restore.

The stage rides the execution result cache's entry protocol, so every tier
(memory LRU, disk, remote HTTP) and every durability property the execution
tests pin — content addressing, corruption tolerance, write-through — applies
to transpiled circuits too.  What *this* file pins:

* the cache key covers exactly (circuit fingerprint, coupling fingerprint,
  basis fingerprint, layout fingerprint, optimization level) — and nothing
  else, so renames and metadata edits still hit;
* the ``transpiles`` / ``transpile_cache_hits`` counters, globally and
  through stats scopes, without polluting the execution ``cache_hits`` /
  ``cache_misses`` counters (lookups go through ``peek``);
* warm starts: a fresh service over the same disk tier — and, the acceptance
  criterion, a repeated deterministic eval in a *fresh process* — performs
  zero transpiles;
* malformed cached payloads degrade to a recompute, never an error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.quantum import library
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    CacheServer,
    ExecutionService,
    basis_fingerprint,
    coupling_fingerprint,
    get_backend,
    stats_scope,
    transpile_cache_key,
)
from repro.quantum.execution.scopes import isolated_scopes
from repro.quantum.execution.transpile_cache import (
    decode_transpiled,
    encode_transpiled,
    layout_fingerprint,
)
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import (
    ambient_optimization_level,
    resolve_lowering,
    transpile_core,
)


def _circuit(name="keyed"):
    qc = QuantumCircuit(3, 3, name=name)
    qc.h(0)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.rz(0.5, 2)
    qc.measure_all()
    return qc


def _transpiled(circuit=None, **kwargs):
    circuit = circuit if circuit is not None else _circuit()
    cmap, basis = resolve_lowering(
        kwargs.get("backend"),
        kwargs.get("coupling_map"),
        kwargs.get("basis_gates"),
    )
    return transpile_core(
        circuit, cmap, basis,
        kwargs.get("initial_layout"),
        kwargs.get("optimization_level", 1),
    )


@pytest.fixture
def service():
    return ExecutionService()


class TestCacheKey:
    def test_name_and_metadata_do_not_affect_the_key(self):
        a = _circuit(name="one")
        b = _circuit(name="two")
        b.metadata["note"] = "renamed and annotated"
        cmap = CouplingMap.linear(4)
        basis = ("rz", "sx", "cx")
        assert transpile_cache_key(a, cmap, basis, None, 1) == (
            transpile_cache_key(b, cmap, basis, None, 1)
        )

    def test_every_recipe_ingredient_changes_the_key(self):
        qc = _circuit()
        cmap = CouplingMap.linear(4)
        basis = ("rz", "sx", "cx")
        base = transpile_cache_key(qc, cmap, basis, None, 1)
        different = [
            transpile_cache_key(library.qft(3), cmap, basis, None, 1),
            transpile_cache_key(qc, CouplingMap.ring(4), basis, None, 1),
            # linear(4)'s edges in another order: layout and routing break
            # ties by insertion order.
            transpile_cache_key(
                qc, CouplingMap([(2, 3), (1, 2), (0, 1)]), basis, None, 1
            ),
            transpile_cache_key(qc, None, basis, None, 1),
            transpile_cache_key(qc, cmap, ("u", "cx"), None, 1),
            transpile_cache_key(qc, cmap, basis, [2, 1, 0], 1),
            transpile_cache_key(qc, cmap, basis, None, 2),
        ]
        assert len({base, *different}) == len(different) + 1

    def test_basis_fingerprint_is_order_insensitive(self):
        assert basis_fingerprint(("cx", "rz", "sx")) == (
            basis_fingerprint(("sx", "cx", "rz"))
        )

    def test_coupling_and_layout_fingerprints_have_null_forms(self):
        assert coupling_fingerprint(None) == "none"
        assert layout_fingerprint(None) == "auto"
        assert coupling_fingerprint(CouplingMap.linear(3)) != "none"

    def test_keys_are_disjoint_from_execution_entries(self):
        key = transpile_cache_key(
            _circuit(), None, ("rz", "sx", "cx"), None, 1
        )
        assert key.backend.startswith("transpile:v1:")
        assert key.shots == 0


class TestEncodeDecode:
    def test_round_trip_restores_instructions_and_layouts(self):
        source = _circuit()
        source.metadata["origin"] = "round-trip"
        lowered = _transpiled(source, coupling_map=CouplingMap.linear(5))
        counts, payload = encode_transpiled(lowered)
        restored = decode_transpiled(counts, payload, source)
        assert restored is not None
        assert restored.instructions == lowered.instructions
        assert restored.num_qubits == lowered.num_qubits
        assert restored.num_clbits == lowered.num_clbits
        assert restored.name == f"{source.name}_t"
        assert restored.metadata["origin"] == "round-trip"
        assert restored.metadata["layout"] == lowered.metadata["layout"]
        assert restored.metadata["final_layout"] == (
            lowered.metadata["final_layout"]
        )
        assert all(
            isinstance(k, int) for k in restored.metadata["layout"]
        )

    def test_round_trip_preserves_conditions_and_params(self):
        source = QuantumCircuit(2, 2, name="conditional")
        source.h(0)
        source.measure(0, 0)
        source.append("rz", [1], params=(0.25,), condition=(0, 1))
        source.measure(1, 1)
        lowered = _transpiled(source)
        counts, payload = encode_transpiled(lowered)
        restored = decode_transpiled(counts, payload, source)
        assert restored.instructions == lowered.instructions
        conditioned = [
            i for i in restored.instructions if i.condition is not None
        ]
        assert conditioned and conditioned[0].condition == (0, 1)

    @pytest.mark.parametrize(
        "counts, payload",
        [
            ({"qubits": 3, "clbits": 3, "size": 1}, None),
            ({"qubits": 3, "clbits": 3, "size": 1}, []),
            ({"qubits": 3, "clbits": 3, "size": 1}, ["not json"]),
            ({"qubits": 3, "clbits": 3, "size": 1}, ['{"half": true}']),
            ({"00": 12, "11": 52}, ['{"instructions": []}']),
        ],
        ids=["no-payload", "empty", "not-json", "missing-keys", "exec-entry"],
    )
    def test_malformed_entries_decode_to_none(self, counts, payload):
        assert decode_transpiled(counts, payload, _circuit()) is None


class TestServiceStage:
    def test_miss_then_hit(self, service):
        first = service.transpile(_circuit(), coupling_map=CouplingMap.linear(4))
        second = service.transpile(_circuit(), coupling_map=CouplingMap.linear(4))
        stats = service.stats()
        assert stats["transpiles"] == 1
        assert stats["transpile_cache_hits"] == 1
        assert second.instructions == first.instructions
        assert second.metadata["layout"] == first.metadata["layout"]

    def test_scope_attribution(self, service):
        with isolated_scopes(), stats_scope("stage") as scope:
            service.transpile(_circuit())
            service.transpile(_circuit())
        counters = scope.as_dict()
        assert counters["transpiles"] == 1
        assert counters["transpile_cache_hits"] == 1

    def test_execution_counters_stay_clean(self, service):
        """Transpile lookups use ``peek``: the execution hit/miss ledger
        (and its hit rate) must not move when only transpiles happen."""
        with isolated_scopes(), stats_scope("clean") as scope:
            service.transpile(_circuit())
            service.transpile(_circuit())
        counters = scope.as_dict()
        assert counters["cache_hits"] == 0
        assert counters["cache_misses"] == 0
        stats = service.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0

    def test_explicit_level_beats_ambient(self, service):
        qc = QuantumCircuit(1, 1, name="levels")
        qc.h(0)
        qc.h(0)
        qc.measure(0, 0)
        basis = ("h", "rz", "cx")
        with ambient_optimization_level(0):
            kept = service.transpile(qc, basis_gates=basis)
            cancelled = service.transpile(
                qc, basis_gates=basis, optimization_level=1
            )
        assert [i.name for i in kept.instructions] == ["h", "h", "measure"]
        assert [i.name for i in cancelled.instructions] == ["measure"]

    def test_reordered_map_is_not_served_anothers_routing(self, service):
        """grid(3, 3)'s edges in reverse order place and route this circuit
        differently, so a service that transpiled for one map must not hand
        its circuit to the other."""
        grid = CouplingMap.grid(3, 3)
        reordered = CouplingMap(list(reversed(grid.edges)))
        qc = library.qft(4)
        on_grid = service.transpile(qc, coupling_map=grid)
        after = service.transpile(qc, coupling_map=reordered)
        fresh = ExecutionService().transpile(qc, coupling_map=reordered)
        assert after.instructions == fresh.instructions
        assert after.metadata["layout"] == fresh.metadata["layout"]
        assert fresh.metadata["layout"] != on_grid.metadata["layout"]
        assert service.stats()["transpiles"] == 2

    def test_string_backend_resolves(self, service):
        backend = get_backend("fake_falcon")
        by_name = service.transpile(_circuit(), backend="fake_falcon")
        by_object = service.transpile(_circuit(), backend=backend)
        assert by_name.instructions == by_object.instructions
        assert service.stats()["transpile_cache_hits"] == 1

    def test_poisoned_entry_degrades_to_recompute(self, tmp_path):
        service = ExecutionService(cache_dir=tmp_path)
        qc = _circuit()
        cmap, basis = resolve_lowering(None, None, None)
        key = transpile_cache_key(qc, cmap, basis, None, 1)
        service.cache.put(
            key, {"qubits": 3, "clbits": 3, "size": 1}, ["garbage"], ()
        )
        lowered = service.transpile(qc)
        assert service.stats()["transpiles"] == 1
        assert service.stats()["transpile_cache_hits"] == 0
        assert lowered.instructions == _transpiled(qc).instructions
        # The recompute overwrote the poison: next lookup is a real hit.
        assert service.transpile(qc).instructions == lowered.instructions
        assert service.stats()["transpile_cache_hits"] == 1


class TestWarmStarts:
    def test_fresh_service_warm_disk_performs_zero_transpiles(self, tmp_path):
        qc = library.grover(3, ["101"])
        cold = ExecutionService(cache_dir=tmp_path)
        first = cold.transpile(qc, backend="fake_falcon")
        assert cold.stats()["transpiles"] == 1
        warm = ExecutionService(cache_dir=tmp_path)
        second = warm.transpile(qc, backend="fake_falcon")
        stats = warm.stats()
        assert stats["transpiles"] == 0
        assert stats["transpile_cache_hits"] == 1
        assert second.instructions == first.instructions
        assert second.metadata["layout"] == first.metadata["layout"]
        assert second.metadata["final_layout"] == (
            first.metadata["final_layout"]
        )

    def test_remote_tier_shares_transpiles_across_services(self, tmp_path):
        qc = library.qft(3)
        with CacheServer(tmp_path) as server:
            seeder = ExecutionService(remote_url=server.url)
            first = seeder.transpile(qc, coupling_map=CouplingMap.linear(4))
            assert seeder.stats()["transpiles"] == 1
            reader = ExecutionService(remote_url=server.url)
            second = reader.transpile(
                qc, coupling_map=CouplingMap.linear(4)
            )
            stats = reader.stats()
            assert stats["transpiles"] == 0
            assert stats["transpile_cache_hits"] == 1
            assert second.instructions == first.instructions


_EVAL_SCRIPT = """\
import json
from repro.evalsuite import PipelineSettings, build_suite, evaluate
from repro.llm.faults import ModelConfig

settings = PipelineSettings(
    ModelConfig("3b", fine_tuned=True), samples_per_task=1, label="warmstart"
)
result = evaluate(settings, build_suite())
print(json.dumps({
    key: result.execution_stats.get(key, 0)
    for key in ("transpiles", "transpile_cache_hits", "simulations")
}))
"""


class TestFreshProcessAcceptance:
    def test_repeated_eval_in_fresh_process_performs_zero_transpiles(
        self, tmp_path
    ):
        """The PR's acceptance criterion: a repeated deterministic eval in a
        *fresh process* with a warm disk cache performs zero transpiles —
        the stage is content-addressed all the way down to disk, not merely
        memoised in-process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env.pop("REPRO_CACHE_URL", None)
        env.pop("REPRO_EVAL_WORKERS", None)

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", _EVAL_SCRIPT],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = run_once()
        assert cold["transpiles"] > 0
        warm = run_once()
        assert warm["transpiles"] == 0
        assert warm["transpile_cache_hits"] == cold["transpiles"]
        assert warm["simulations"] == 0  # execution tier is warm too


class TestFigure4Integration:
    def test_repeated_figure4_run_performs_zero_transpiles(self):
        """The driver routes its lowering through the cached stage, so a
        repeat performs zero transpiles (asserted via a stats scope around
        the second run — not a racy global-counter diff)."""
        from repro.experiments import figure4

        figure4.run(shots=512, seed=2)
        with stats_scope("figure4-repeat") as scope:
            figure4.run(shots=512, seed=2)
        counters = scope.as_dict()
        assert counters["transpiles"] == 0
        assert counters["transpile_cache_hits"] >= 1
