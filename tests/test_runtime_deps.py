"""The runtime loads only what it uses: no networkx, no idle serving tier.

``setup.py`` installs numpy alone; networkx is a test extra, the reference
the graph ports are checked against.  This runs, in a fresh interpreter,
the paths that once went through networkx: a Brisbane transpile (layout
and routing), MWPM and union-find decodes, and decoder generation with its
grid embedding search.  Importing networkx there raises ImportError, so a
call site that still reaches for it fails here.  CI's ``runtime-deps`` job
checks the same from a clean install.

The serving tier (the remote cache, dispatch, tenants, the job store and
metrics, with the HTTP stack under them) and the process-pool modules load
on first use.  A second fresh interpreter imports what every short command
imports and checks that none of them loaded, then that each loads once a
remote cache or a pool is asked for.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

import numpy as np

import repro.evalsuite
import repro.experiments.generate_report

assert "networkx" not in sys.modules, "importing repro loaded networkx"
sys.modules["networkx"] = None  # from here on, `import networkx` raises

from repro.qec.codes.surface import SurfaceCode
from repro.qec.decoder_gen import generate_decoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.qec.unionfind import UnionFindDecoder
from repro.quantum.library import ghz_state
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import transpile

brisbane = CouplingMap.brisbane()
routed = transpile(ghz_state(6), coupling_map=brisbane)
assert all(
    brisbane.are_coupled(*inst.qubits) for inst in routed if len(inst.qubits) == 2
)

code = SurfaceCode(3)
history = sample_memory(code, 3, 0.1, 0.1, np.random.default_rng(4))
assert history.detection_events
for decoder in (MWPMDecoder(code, "x"), UnionFindDecoder(code, "x")):
    residual = history.true_error ^ decoder.decode(history).correction
    assert not code.syndrome(residual, "x").any()

grid = CouplingMap.grid(5, 5)
for device in (grid, CouplingMap(grid.edges, name="unnamed")):
    generated = generate_decoder(device)
    assert not generated.simulated_lattice
print("ok")
"""


def test_runtime_paths_run_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_CACHE_URL", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


LAZY_SCRIPT = """
import sys

import repro.cli
import repro.evalsuite
import repro.experiments.generate_report
import repro.quantum.variational
from repro.quantum.execution import ExecutionService, default_service
from repro.utils.parallel import parallel_map

default_service()
idle = [
    "urllib.request", "http.client", "http.server", "socketserver", "ssl",
    "socket", "email.parser", "concurrent.futures", "multiprocessing",
    "repro.quantum.execution.remote_cache", "repro.quantum.execution.dispatch",
    "repro.quantum.execution.tenants", "repro.quantum.execution.jobstore",
    "repro.quantum.execution.metrics",
]
loaded = [name for name in idle if name in sys.modules]
assert not loaded, f"start-up loaded {loaded}"

ExecutionService(remote_url="http://127.0.0.1:9")
assert "repro.quantum.execution.remote_cache" in sys.modules
assert "concurrent.futures.process" not in sys.modules
assert parallel_map(abs, [(-1,), (-2,)], 2) == [1, 2]
assert "concurrent.futures.process" in sys.modules

from repro.quantum.execution import dispatch

assert dispatch is sys.modules["repro.quantum.execution.dispatch"]
print("ok")
"""


def test_serving_tier_and_pool_load_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    for name in ("REPRO_CACHE_DIR", "REPRO_CACHE_URL", "REPRO_EVAL_WORKERS"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
