"""Content addressing and serialization for the cached transpile stage.

A transpiled circuit is fully determined by::

    (logical circuit fingerprint, coupling-map fingerprint,
     basis fingerprint, initial layout, optimization level)

This module synthesizes that identity into the execution cache's own
:class:`~repro.quantum.execution.cache.CacheKey` and encodes the transpiled
circuit into the ``(counts, memory)`` entry shape every cache tier already
stores, so transpile results ride the memory LRU, the on-disk JSON store,
*and* the shared HTTP cache server with zero protocol changes — write-through,
promotion, eviction accounting and server re-addressing all apply untouched.

Field mapping of the synthesized key (documented here because the names are
borrowed from execution):

========  =====================================================
``circuit``  logical circuit fingerprint (instruction stream)
``backend``  ``transpile:v<schema>:<coupling fp>:<layout fp>``
``shots``    0 (unused; transpilation has no shot count)
``seed``     the optimization level
``noise``    basis fingerprint
``memory``   always ``True`` (the payload lives in the memory list)
========  =====================================================

The ``backend`` prefix keeps transpile entries disjoint from execution
entries (no real backend name contains a colon), and the schema version
invalidates old payloads if the serialization ever changes.

Entry shape: ``counts`` holds the output circuit's integer dimensions
(``{"qubits", "clbits", "size"}`` — the disk tier requires an int-valued
dict) and ``memory`` is a single JSON document with the instruction stream
and both layouts.  Decoding is defensive: any malformed payload decodes to
``None`` and the caller re-transpiles and overwrites.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.execution.cache import CacheKey, circuit_fingerprint
from repro.quantum.parameters import params_from_json, params_to_json
from repro.quantum.topology import CouplingMap
from repro.utils.rng import stable_hash

#: Bump to invalidate previously-persisted transpile entries on a
#: serialization change (old entries simply stop matching any key).
TRANSPILE_SCHEMA_VERSION = 1


def coupling_fingerprint(coupling_map: CouplingMap | None) -> str:
    """Stable content hash of a device's connectivity (``'none'`` for all-to-all).

    Covers each qubit's neighbours, qubits and neighbours both in insertion
    order (:attr:`CouplingMap.adjacency`) — exactly what layout and routing
    read.  Both break ties by that order, so the same edges listed in
    another order can transpile differently.  Topology names are excluded:
    two identically wired maps transpile identically.
    """
    if coupling_map is None:
        return "none"
    return f"{stable_hash('coupling', coupling_map.adjacency):016x}"


def basis_fingerprint(basis: Sequence[str]) -> str:
    """Stable content hash of a basis gate set (order-insensitive)."""
    return f"{stable_hash('basis', tuple(sorted(basis))):016x}"


def layout_fingerprint(initial_layout: Sequence[int] | None) -> str:
    """Stable hash of an explicit placement (``'auto'`` for dense layout)."""
    if initial_layout is None:
        return "auto"
    payload = tuple(int(q) for q in initial_layout)
    return f"{stable_hash('layout', payload):016x}"


def transpile_cache_key(
    circuit: QuantumCircuit,
    coupling_map: CouplingMap | None,
    basis: Sequence[str],
    initial_layout: Sequence[int] | None,
    optimization_level: int,
) -> CacheKey:
    """The content address of one transpilation (see the module docstring)."""
    return CacheKey(
        circuit=circuit_fingerprint(circuit),
        backend=(
            f"transpile:v{TRANSPILE_SCHEMA_VERSION}:"
            f"{coupling_fingerprint(coupling_map)}:"
            f"{layout_fingerprint(initial_layout)}"
        ),
        shots=0,
        seed=int(optimization_level),
        noise=basis_fingerprint(basis),
        memory=True,
        engine=0,
    )


def encode_transpiled(
    circuit: QuantumCircuit,
) -> tuple[dict[str, int], list[str]]:
    """Serialize a transpiled circuit into the cache's entry shape."""
    payload = {
        "version": TRANSPILE_SCHEMA_VERSION,
        "instructions": [
            [
                inst.name,
                list(inst.qubits),
                list(inst.clbits),
                params_to_json(inst.params),
                list(inst.condition) if inst.condition is not None else None,
            ]
            for inst in circuit.instructions
        ],
        "layout": {str(k): int(v) for k, v in circuit.metadata["layout"].items()},
        "final_layout": {
            str(k): int(v) for k, v in circuit.metadata["final_layout"].items()
        },
    }
    counts = {
        "qubits": int(circuit.num_qubits),
        "clbits": int(circuit.num_clbits),
        "size": len(circuit.instructions),
    }
    return counts, [json.dumps(payload, sort_keys=True)]


def decode_transpiled(
    counts: dict[str, int],
    memory: list[str] | None,
    source: QuantumCircuit,
) -> QuantumCircuit | None:
    """Rebuild a transpiled circuit from a cache entry, or ``None``.

    Name and metadata are *not* part of the content address (two
    identically-built circuits with different labels transpile identically),
    so they are reconstructed from ``source`` exactly as the pass manager
    would have: ``<name>_t`` plus the source metadata overlaid with the
    cached layouts.
    """
    if not memory or len(memory) != 1:
        return None
    try:
        payload = json.loads(memory[0])
    except (TypeError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != TRANSPILE_SCHEMA_VERSION:
        return None
    raw_instructions = payload.get("instructions")
    raw_layout = payload.get("layout")
    raw_final = payload.get("final_layout")
    if not isinstance(raw_instructions, list):
        return None
    if not isinstance(raw_layout, dict) or not isinstance(raw_final, dict):
        return None
    try:
        instructions = [
            Instruction(
                str(name),
                tuple(int(q) for q in qubits),
                tuple(int(c) for c in clbits),
                params_from_json(params),
                tuple(int(v) for v in condition) if condition is not None else None,
            )
            for name, qubits, clbits, params, condition in raw_instructions
        ]
        layout = {int(k): int(v) for k, v in raw_layout.items()}
        final_layout = {int(k): int(v) for k, v in raw_final.items()}
        num_qubits = int(counts["qubits"])
        num_clbits = int(counts["clbits"])
    except (KeyError, TypeError, ValueError):
        return None
    out = QuantumCircuit(num_qubits, num_clbits, name=f"{source.name}_t")
    out._instructions = instructions
    out.metadata = dict(source.metadata)
    out.metadata["layout"] = layout
    out.metadata["final_layout"] = final_layout
    return out
