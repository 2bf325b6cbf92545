"""Restricted execution of generated code.

The semantic analyzer (Agent #2) must *run* candidate programs to catch real
errors with real tracebacks — that is what the multi-pass template feeds back
into the model.  The sandbox:

* whitelists imports (``repro.quantum`` and stdlib ``math`` only — everything
  a generated quantum program legitimately needs);
* blocks filesystem/OS access by exposing a minimal builtins surface;
* captures the exception type, message and a compact traceback string.

This is *robustness* sandboxing against accident-prone generated code, not a
security boundary against adversarial code.
"""

from __future__ import annotations

import builtins
import functools
import io
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import SandboxError

ALLOWED_IMPORT_PREFIXES = ("repro.quantum", "repro.errors", "math")

#: Ambient seed for unseeded ``backend.run`` calls inside generated programs.
#: Sandboxed execution is deterministic-by-default so (a) the multi-pass loop
#: replays identically and (b) repeated candidates hit the execution result
#: cache instead of re-simulating.
SANDBOX_RUN_SEED = 171_717

_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "bin", "bool", "dict", "divmod", "enumerate",
    "filter", "float", "format", "frozenset", "getattr", "hasattr", "hash",
    "int", "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "min", "next", "pow", "print", "range", "repr", "reversed", "round",
    "set", "setattr", "sorted", "str", "sum", "tuple", "zip", "True",
    "False", "None", "ValueError", "TypeError", "KeyError", "IndexError",
    "AttributeError", "RuntimeError", "Exception", "ZeroDivisionError",
    "StopIteration", "NameError",
)


class _SandboxStdout:
    """A ``sys.stdout`` proxy that redirects per *thread*, not per process.

    ``contextlib.redirect_stdout`` swaps the process-global ``sys.stdout``,
    so two sandboxed programs running on different threads steal each other's
    output — and a racing restore can leave ``sys.stdout`` pointing at a
    dead ``StringIO`` for the rest of the process.  This proxy is installed
    once and dispatches each write to the current thread's capture buffer,
    falling through to the real stream for threads that are not capturing.

    Everything except ``write``/``flush`` is delegated to the current target
    (deliberately not an ``io.TextIOBase`` subclass, whose own ``encoding``/
    ``fileno``/``isatty`` definitions would shadow the real stream's), so a
    non-capturing thread sees the genuine stdout behaviour.
    """

    def __init__(self, fallback) -> None:
        self._fallback = fallback

    @property
    def _target(self):
        buffer = getattr(_capture, "buffer", None)
        return self._fallback if buffer is None else buffer

    def write(self, text: str) -> int:
        return self._target.write(text)

    def flush(self) -> None:
        target = self._target
        if hasattr(target, "flush"):
            target.flush()

    def __getattr__(self, name):
        return getattr(self._target, name)


_capture = threading.local()
_install_lock = threading.Lock()


@contextmanager
def _capture_stdout(buffer: io.StringIO):
    """Capture this thread's stdout into ``buffer`` (other threads unaffected).

    Lazily wraps whatever ``sys.stdout`` currently is (so it composes with
    pytest's capture and prior redirects) and never unwraps — the proxy is
    transparent for non-capturing threads.
    """
    with _install_lock:
        if not isinstance(sys.stdout, _SandboxStdout):
            sys.stdout = _SandboxStdout(sys.stdout)
    previous = getattr(_capture, "buffer", None)
    _capture.buffer = buffer
    try:
        yield
    finally:
        _capture.buffer = previous


def _restricted_import(name, globals=None, locals=None, fromlist=(), level=0):
    if not any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in ALLOWED_IMPORT_PREFIXES
    ):
        raise SandboxError(
            f"import of '{name}' is not allowed in the execution sandbox"
        )
    return builtins.__import__(name, globals, locals, fromlist, level)


#: The restricted builtins, built once; every run gets its own shallow copy,
#: so a program that writes into ``__builtins__`` cannot reach the next one.
_SAFE_BUILTINS: dict = {
    name: getattr(builtins, name)
    for name in _SAFE_BUILTIN_NAMES
    if hasattr(builtins, name)
}
_SAFE_BUILTINS.update(
    {"True": True, "False": False, "None": None, "__import__": _restricted_import}
)


@dataclass
class ExecutionResult:
    """Outcome of running one generated program."""

    ok: bool
    namespace: dict = field(default_factory=dict)
    stdout: str = ""
    exception_type: str | None = None
    exception_message: str | None = None
    trace: str = ""
    #: Circuit simulations the program triggered (via the shared
    #: ExecutionService) and how many of those were served from the result
    #: cache — generated programs call ``backend.run`` through the shim, so a
    #: repeated identical candidate re-runs its code but simulates nothing
    #: new.  Counted by an attributable stats scope, so the numbers are exact
    #: even while other threads drive the same service.
    simulations: int = 0
    sim_cache_hits: int = 0

    def artifact(self, name: str):
        """Fetch a variable the generated program defined (or None)."""
        return self.namespace.get(name)


def run_code(
    code: str,
    *,
    run_seed: int | None = SANDBOX_RUN_SEED,
) -> ExecutionResult:
    """Compile and execute generated code in the sandbox.

    Returns a failed :class:`ExecutionResult` (never raises) for any error in
    the candidate program, including syntax errors — the trace string is what
    the repair loop consumes.  ``run_seed`` is the ambient seed applied to
    unseeded ``backend.run`` calls the program makes (``None`` restores true
    entropy).
    """
    from repro.quantum.execution import ambient_seed, stats_scope

    try:
        compiled = _compile(code)
    except SyntaxError as exc:
        trace = f"SyntaxError: {exc.msg} (line {exc.lineno})"
        return ExecutionResult(
            ok=False,
            exception_type="SyntaxError",
            exception_message=str(exc.msg),
            trace=trace,
        )
    namespace: dict = {
        "__builtins__": dict(_SAFE_BUILTINS),
        "__name__": "__generated__",
    }
    buffer = io.StringIO()
    try:
        with _capture_stdout(buffer), ambient_seed(run_seed), \
                stats_scope("sandbox") as scope:
            exec(compiled, namespace)  # noqa: S102 - the sandbox is the point
    except Exception as exc:  # noqa: BLE001 - everything must be captured
        tb_lines = traceback.format_exception_only(type(exc), exc)
        frame_lines = [
            line
            for line in traceback.format_exc().splitlines()
            if "<generated>" in line
        ]
        trace = "\n".join(frame_lines[-2:] + [line.rstrip() for line in tb_lines])
        return ExecutionResult(
            ok=False,
            namespace=_strip(namespace),
            stdout=buffer.getvalue(),
            exception_type=type(exc).__name__,
            exception_message=str(exc),
            trace=trace,
            **_sim_counts(scope),
        )
    return ExecutionResult(
        ok=True,
        namespace=_strip(namespace),
        stdout=buffer.getvalue(),
        **_sim_counts(scope),
    )


@functools.lru_cache(maxsize=1024)  # a full `repro report` runs ~300 sources
def _compile(code: str):
    """The code object of one program source (immutable, so reruns share it)."""
    return compile(code, "<generated>", "exec")


def _sim_counts(scope) -> dict:
    """Execution-service activity attributable to the sandboxed program."""
    counts = scope.as_dict()
    return {
        "simulations": counts["simulations"],
        "sim_cache_hits": counts["cache_hits"],
    }


def _strip(namespace: dict) -> dict:
    return {
        k: v
        for k, v in namespace.items()
        if k not in ("__builtins__", "__name__")
    }
