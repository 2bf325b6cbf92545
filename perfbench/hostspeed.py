"""Host-speed calibration: time closed-loop work in reference-host seconds.

The benchmark runs on a shared virtual machine whose speed drifts: the same
code runs up to twice as slowly for stretches of a fraction of a second to
minutes, with no steal time to show for it.  Medians over iterations cannot
remove a slow stretch that lasts longer than a run, so every timed figure is
scaled by how fast the host ran a fixed reference kernel while the work ran:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

``REFERENCE_S`` is the kernel's time on a quiet host, so on such a host the
scaled figures equal the measured ones.  The kernel is part of the benchmark,
not of the program, so a change to the program moves the scaled figures and
never the scale.  It mixes the two kinds of work the program does: Python
interpreter work (strings, dicts, lists, calls) and small NumPy gate
applications like the statevector simulator's.  It is timed in thread CPU
time, so waiting for the interpreter lock while a pool thread runs does not
count as a slow host.

:class:`Timeline` records the workload's operations as laps and samples the
kernel every ``every_s`` seconds from a ``SIGALRM`` handler, which runs on
the main thread between bytecodes.  The time a sample takes is taken out of
the lap it interrupts.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

import numpy as np

#: The reference kernel's time (one ``calibrate()``) on a quiet host.
REFERENCE_S = 0.0022
#: Kernel repetitions per calibration; the fastest one counts, so the first,
#: run with the workload's data in the caches, does not skew the scale.
REPEATS = 2
#: Calibrations whose median scales set-up, which runs before sampling starts.
START_CALIBRATIONS = 7
#: Seconds between two samples of the kernel while the work runs.
SAMPLE_EVERY_S = 0.1

_QUBITS = 8
_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _python_work() -> int:
    table: dict[str, int] = {}
    for i in range(1000):
        key = f"q{i % 97}_{i % 13}"
        table[key] = table.get(key, 0) + len(key)
    words = sorted(table, key=lambda k: (table[k], k))
    return sum(len(w) for w in words) + len(" ".join(words).split("_"))


def _numpy_work() -> float:
    state = np.zeros(2**_QUBITS, dtype=complex)
    state[0] = 1.0
    for layer in range(3):
        for target in range(_QUBITS):
            tensor = np.moveaxis(state.reshape([2] * _QUBITS), _QUBITS - 1 - target, 0)
            tensor = (_GATE @ tensor.reshape(2, -1)).reshape(tensor.shape)
            state = np.moveaxis(tensor, 0, _QUBITS - 1 - target).reshape(-1)
        state = state * np.exp(1j * 0.1 * layer)
    return float(np.abs(state[0]))


def kernel() -> None:
    """The fixed reference work."""
    _python_work()
    _numpy_work()
    _python_work()


def calibrate() -> float:
    """Thread CPU seconds the kernel takes on this host right now."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - start)
    return best


class Timeline:
    """The laps of one closed loop, with the kernel sampled while they ran.

    Call :meth:`start` right before the work, :meth:`lap` as each operation
    completes (``sample=False`` for a stretch that is work but not one
    operation, such as an optimizer's first evaluation), and :meth:`stop`
    right after the work.  ``every_s=None`` samples only at start and stop
    (traced runs, whose spans must not contain samples).
    """

    def __init__(self, every_s: float | None = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        #: ``(start, end, is an operation)`` per lap, on ``perf_counter``.
        self.laps: list[tuple[float, float, bool]] = []
        #: ``(taken at, thread CPU seconds taken, kernel seconds)`` per sample.
        self.samples: list[tuple[float, float, float]] = []
        self._last = 0.0
        self._previous_handler = None

    def _sample(self, _signum=None, _frame=None) -> None:
        at, cpu = time.perf_counter(), time.thread_time()
        kernel_s = calibrate()
        self.samples.append((at, time.thread_time() - cpu, kernel_s))

    def start(self) -> None:
        first = sorted(calibrate() for _ in range(START_CALIBRATIONS))
        self.samples.append((time.perf_counter(), 0.0, first[len(first) // 2]))
        if self.every_s:
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self._last = time.perf_counter()

    def lap(self, sample: bool = True) -> None:
        # A sample taken after `now` is read belongs to the next lap.
        now = time.perf_counter()
        self.laps.append((self._last, now, sample))
        self._last = now

    def stop(self) -> None:
        """Close the last lap (as work, not an operation) and stop sampling."""
        self.lap(sample=False)
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def setup_scale(self) -> float:
        """The scale for work done before :meth:`start`."""
        return REFERENCE_S / self.samples[0][2]

    def figures(self) -> list[tuple[float, float, bool]]:
        """Per lap: measured seconds without the samples taken during it, the
        scale (``REFERENCE_S`` over the mean kernel time of the samples taken
        during it and the nearest one on each side), and whether it is an
        operation."""
        taken = [at for at, _cpu, _k in self.samples]
        out = []
        for begin, end, op in self.laps:
            lo, hi = bisect_left(taken, begin), bisect_left(taken, end)
            paused = sum(cpu for _at, cpu, _k in self.samples[lo:hi])
            kernel_s = [k for _at, _cpu, k in self.samples[lo - 1:hi + 1]]
            out.append((end - begin - paused, REFERENCE_S * len(kernel_s) / sum(kernel_s), op))
        return out

    def measured_s(self) -> float:
        return sum(seconds for seconds, _scale, _op in self.figures())

    def reference_s(self) -> float:
        return sum(seconds * scale for seconds, scale, _op in self.figures())

    def latencies(self) -> list[float]:
        """Reference seconds of each operation lap."""
        return [seconds * scale for seconds, scale, op in self.figures() if op]
