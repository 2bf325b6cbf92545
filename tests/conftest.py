"""Shared fixtures for the test suite."""

import threading
from contextlib import ExitStack

import numpy as np
import pytest

from repro.quantum.backend import LocalSimulator
from repro.quantum.execution.scopes import active_scopes, use_scope


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def simulator():
    return LocalSimulator()


@pytest.fixture
def run_via():
    """``run_via(entry, service, *args, **kwargs)`` calls ``service.run``.

    ``entry`` is where the call comes from: ``"run"`` calls it on the test's
    own thread, ``"thread"`` on a thread the test starts for it (as user code
    or the eval coordinator's fallback threads do), carrying the test
    thread's stats scopes there.  Either way the work runs on the calling
    thread; the finished job comes back, or the run's error re-raises here.
    """

    def call(entry, service, *args, **kwargs):
        if entry == "run":
            return service.run(*args, **kwargs)
        assert entry == "thread", entry
        scopes = active_scopes()
        outcome = {}

        def body():
            try:
                with ExitStack() as stack:
                    for scope in scopes:
                        stack.enter_context(use_scope(scope))
                    outcome["job"] = service.run(*args, **kwargs)
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "run never returned"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["job"]

    return call


def counts_close(counts: dict, expected: dict, tolerance: float = 0.05) -> bool:
    """True when two counts/probability dicts agree within ``tolerance`` TVD."""
    total_a = sum(counts.values())
    total_b = sum(expected.values())
    keys = set(counts) | set(expected)
    tvd = 0.5 * sum(
        abs(counts.get(k, 0) / total_a - expected.get(k, 0) / total_b)
        for k in keys
    )
    return tvd <= tolerance
