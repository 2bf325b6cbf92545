"""Seeded optimizers that evaluate each iterate as one execution batch.

:func:`minimize` drives a counts-based energy over a parameterized ansatz.
Every iteration gathers its candidate points, binds the ansatz *template*
once per point, and submits **all** of them as a single
:class:`~repro.quantum.execution.service.ExecutionService` batch — one
structure fingerprint, so one batch-planner group per iterate.  ``run``
executes the bound circuits as given and transpiles nothing.

Two methods, both derivative-free (shot noise makes finite differences on
individual coordinates unreliable):

* ``"spsa"`` — simultaneous perturbation stochastic approximation with the
  standard gain schedules ``a_k = a / (k + 1)**0.602`` and
  ``c_k = c / (k + 1)**0.101``; two evaluations per iteration regardless of
  dimension.
* ``"coordinate"`` — cyclic coordinate descent with a shrinking step; per
  iteration probes ``theta_i ± step`` for one coordinate (two evaluations).

Determinism: the whole trajectory is a pure function of ``seed``.  The
initial point, every SPSA perturbation and every execution-seed derive from
:func:`repro.utils.rng.derive_seed` scopes, so re-running with the same seed
reproduces the history bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CircuitError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution.service import ExecutionService, default_service
from repro.utils.rng import derive_seed

OPTIMIZE_METHODS = ("spsa", "coordinate")

Energy = Callable[[dict[str, int]], float]


@dataclass(frozen=True)
class VariationalResult:
    """Outcome of one :func:`minimize` run."""

    best_value: float
    best_parameters: dict[str, float]
    history: tuple[float, ...] = field(default=())
    iterations: int = 0
    evaluations: int = 0
    method: str = "spsa"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VariationalResult(best_value={self.best_value:.6f}, "
            f"iterations={self.iterations}, evaluations={self.evaluations}, "
            f"method={self.method!r})"
        )


def _evaluate_points(
    service: ExecutionService,
    ansatz: QuantumCircuit,
    names: Sequence[str],
    points: Sequence[np.ndarray],
    energy: Energy,
    backend,
    shots: int,
    seed: int,
) -> list[float]:
    """Bind every point and run them as ONE service batch."""
    bound = [
        ansatz.bind({name: float(v) for name, v in zip(names, point)})
        for point in points
    ]
    result = service.run(bound, backend=backend, shots=shots, seed=seed).result()
    return [energy(result.get_counts(i)) for i in range(len(bound))]


def minimize(
    energy: Energy,
    ansatz: QuantumCircuit,
    *,
    backend="ideal",
    shots: int = 2048,
    seed: int = 0,
    method: str = "spsa",
    maxiter: int = 30,
    initial: Sequence[float] | None = None,
    service: ExecutionService | None = None,
    learning_rate: float = 0.25,
    perturbation: float = 0.2,
) -> VariationalResult:
    """Minimize a counts-based energy over the ansatz parameters.

    Args:
        energy: maps one circuit's measured counts to a scalar energy.
        ansatz: parameterized template; must declare at least one parameter
            and measure into clbits (counts-based energies need shots).
        backend: backend name or instance, as accepted by the service.
        shots: shots per candidate point.
        seed: master seed; the full trajectory is deterministic in it.
        method: ``"spsa"`` or ``"coordinate"``.
        maxiter: optimizer iterations (each is one execution batch).
        initial: starting point in ``ansatz.parameters`` order; defaults to a
            seeded uniform draw from ``[-pi/2, pi/2)``.
        service: execution service to batch through (defaults to the shared
            :func:`default_service`).
        learning_rate: SPSA gain ``a`` / coordinate-descent initial step.
        perturbation: SPSA gain ``c`` (ignored by ``"coordinate"``).  Both
            gains must be finite and positive; anything else raises
            :class:`CircuitError` before the first execution.

    Returns:
        A :class:`VariationalResult`; ``history`` holds the best energy seen
        after each iteration (length ``maxiter + 1`` counting the initial
        evaluation).
    """
    if method not in OPTIMIZE_METHODS:
        raise CircuitError(
            f"unknown method {method!r}; expected one of {OPTIMIZE_METHODS}"
        )
    names = [p.name for p in ansatz.parameters]
    if not names:
        raise CircuitError("ansatz has no parameters; nothing to optimize")
    if ansatz.num_clbits == 0:
        raise CircuitError(
            "ansatz has no classical bits; a counts-based energy needs "
            "measurements (build the ansatz with measure=True)"
        )
    if maxiter < 0:
        raise CircuitError(f"maxiter must be >= 0, got {maxiter}")
    if shots < 1:
        raise CircuitError(f"shots must be >= 1, got {shots}")
    for gain_name, gain in (
        ("learning_rate", learning_rate), ("perturbation", perturbation)
    ):
        if not (math.isfinite(gain) and gain > 0):
            raise CircuitError(f"{gain_name} must be finite and > 0, got {gain!r}")
    svc = service if service is not None else default_service()
    dim = len(names)

    if initial is None:
        init_rng = np.random.default_rng(derive_seed(seed, "variational-init"))
        theta = init_rng.uniform(-np.pi / 2, np.pi / 2, size=dim)
    else:
        theta = np.asarray(list(initial), dtype=float)
        if theta.shape != (dim,):
            raise CircuitError(
                f"initial point has {theta.size} value(s); "
                f"ansatz declares {dim} parameter(s)"
            )
        if not np.all(np.isfinite(theta)):
            raise CircuitError("initial point contains non-finite values")

    evaluations = 0

    def batch(points: Sequence[np.ndarray], k: int) -> list[float]:
        nonlocal evaluations
        evaluations += len(points)
        return _evaluate_points(
            svc, ansatz, names, points, energy,
            backend, shots, derive_seed(seed, "iter", k),
        )

    best_value = batch([theta], 0)[0]
    best_theta = theta.copy()
    history = [best_value]

    for k in range(1, maxiter + 1):
        if method == "spsa":
            a_k = learning_rate / k**0.602
            c_k = perturbation / k**0.101
            delta_rng = np.random.default_rng(derive_seed(seed, "spsa-delta", k))
            delta = delta_rng.integers(0, 2, size=dim) * 2.0 - 1.0
            plus, minus = theta + c_k * delta, theta - c_k * delta
            f_plus, f_minus = batch([plus, minus], k)
            gradient = (f_plus - f_minus) / (2.0 * c_k) * delta
            theta = theta - a_k * gradient
            trial_value, trial_theta = min(
                (f_plus, plus), (f_minus, minus), key=lambda pair: pair[0]
            )
        else:  # coordinate descent
            step = learning_rate / (1.0 + (k - 1) / max(1, dim))
            coord = (k - 1) % dim
            plus, minus = theta.copy(), theta.copy()
            plus[coord] += step
            minus[coord] -= step
            f_plus, f_minus = batch([plus, minus], k)
            trial_value, trial_theta = min(
                (f_plus, plus), (f_minus, minus), key=lambda pair: pair[0]
            )
            if trial_value <= best_value:
                theta = trial_theta
        if trial_value < best_value:
            best_value = trial_value
            best_theta = trial_theta.copy()
        history.append(best_value)

    return VariationalResult(
        best_value=best_value,
        best_parameters={
            name: float(v) for name, v in zip(names, best_theta)
        },
        history=tuple(history),
        iterations=maxiter,
        evaluations=evaluations,
        method=method,
    )
