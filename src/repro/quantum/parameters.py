"""Symbolic circuit parameters and late binding — *the binding module*.

A :class:`Parameter` is a named placeholder accepted anywhere the circuit
builder takes a float angle; a :class:`ParameterExpression` is a simple
affine function of one parameter (``a*θ + b``), built by ordinary arithmetic
on a parameter (``theta / 2``, ``-theta``, ``2 * theta + 1``).  Circuits
carrying unbound symbols are *templates*: one gate structure that
:meth:`~repro.quantum.circuit.QuantumCircuit.bind` instantiates into many
concrete circuits, which is what lets a parameter sweep share one structure
fingerprint and one batch-planner group; transpiling a bound point reuses
its template's lowering when the template lowers symbolically (see
``ExecutionService.transpile``).

Binding is **bit-identical** to building with concrete floats: an expression
records the exact chain of float operations applied to the symbol (not a
normalised ``(coeff, offset)`` pair), and :meth:`ParameterExpression.bind_value`
replays that chain on the bound value in order.  ``theta / 3`` therefore
evaluates as ``value / 3``, never as ``0.3333… * value`` — the same floating
point ops a concrete builder call would have performed.

This module is the **only** place allowed to coerce gate parameters to
``float`` (``tools/repo_lint.py`` rule R005 enforces it): an unbound symbol
must never silently truncate, so ``float(theta)`` raises a ``[QA105]``-coded
:class:`~repro.errors.CircuitError` and every consumer that genuinely needs
concrete floats goes through :func:`as_concrete`.

The module deliberately imports nothing above :mod:`repro.errors`, so every
layer — circuit, analysis, execution, transpiler — may depend on it without
cycles.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import CircuitError

#: Diagnostic code for "unbound symbolic parameter reaches execution"; the
#: full (severity, description) entry lives in
#: :data:`repro.quantum.analysis.diagnostics.DIAGNOSTIC_CODES`.
UNBOUND_PARAMETER_CODE = "QA105"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Identifiers with a fixed meaning in OpenQASM parameter expressions.
_RESERVED_NAMES = frozenset({"pi"})

#: Op-chain codes: each entry is ``(op, operand)`` with ``operand`` a float
#: (``None`` for the unary ``neg``).  Evaluation replays the chain in order.
_OPS: dict[str, Callable[[float, float | None], float]] = {
    "add": lambda x, c: x + c,
    "sub": lambda x, c: x - c,
    "rsub": lambda x, c: c - x,
    "mul": lambda x, c: x * c,
    "div": lambda x, c: x / c,
    "neg": lambda x, c: -x,
}


def _unbound_error(what: str) -> CircuitError:
    return CircuitError(
        f"[{UNBOUND_PARAMETER_CODE}] {what} is an unbound symbolic parameter "
        "and cannot be coerced to a float; call circuit.bind({...}) to "
        "produce a concrete circuit before execution"
    )


def _check_operand(value: object, op: str) -> float:
    if isinstance(value, (Parameter, ParameterExpression)):
        raise CircuitError(
            "parameter expressions are affine in a single symbol; "
            f"cannot apply '{op}' between two symbolic values"
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CircuitError(
            f"parameter arithmetic needs a real number operand, got {value!r}"
        )
    out = float(value)
    if not math.isfinite(out):
        raise CircuitError(f"non-finite operand {value!r} in parameter arithmetic")
    if op == "div" and out == 0.0:
        raise CircuitError("division of a parameter by zero")
    return out


class _Symbolic:
    """Arithmetic shared by :class:`Parameter` and :class:`ParameterExpression`.

    Every operation appends one step to the op chain; the chain is replayed
    verbatim at bind time, so symbolic arithmetic and the equivalent concrete
    arithmetic produce bit-identical floats.
    """

    __slots__ = ()

    # Subclasses provide the root symbol and the existing chain.
    @property
    def parameter(self) -> "Parameter":
        raise NotImplementedError

    def _ops(self) -> tuple[tuple[str, float | None], ...]:
        raise NotImplementedError

    def _extend(self, op: str, operand: float | None) -> "ParameterExpression":
        return ParameterExpression(self.parameter, self._ops() + ((op, operand),))

    def __add__(self, other: object) -> "ParameterExpression":
        return self._extend("add", _check_operand(other, "add"))

    def __radd__(self, other: object) -> "ParameterExpression":
        return self._extend("add", _check_operand(other, "add"))

    def __sub__(self, other: object) -> "ParameterExpression":
        return self._extend("sub", _check_operand(other, "sub"))

    def __rsub__(self, other: object) -> "ParameterExpression":
        return self._extend("rsub", _check_operand(other, "rsub"))

    def __mul__(self, other: object) -> "ParameterExpression":
        return self._extend("mul", _check_operand(other, "mul"))

    def __rmul__(self, other: object) -> "ParameterExpression":
        return self._extend("mul", _check_operand(other, "mul"))

    def __truediv__(self, other: object) -> "ParameterExpression":
        return self._extend("div", _check_operand(other, "div"))

    def __neg__(self) -> "ParameterExpression":
        return self._extend("neg", None)

    def __pos__(self) -> "_Symbolic":
        return self

    def __float__(self) -> float:
        raise _unbound_error(repr(self))

    def __index__(self) -> int:
        raise _unbound_error(repr(self))


class Parameter(_Symbolic):
    """A named symbolic circuit parameter.

    Equality and hashing are by name: two ``Parameter("theta")`` objects are
    the same symbol, which keeps templates stable across pickling, worker
    processes and QASM round-trips.  Names must be Python/QASM identifiers
    (so unbound parameters serialise as identifiers in OpenQASM output) and
    may not shadow ``pi``.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise CircuitError(
                f"parameter name must be an identifier, got {name!r}"
            )
        if name in _RESERVED_NAMES:
            raise CircuitError(f"parameter name {name!r} is reserved")
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    @property
    def parameter(self) -> "Parameter":
        return self

    def _ops(self) -> tuple[tuple[str, float | None], ...]:
        return ()

    def bind_value(self, value: float) -> float:
        return float(value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Parameter):
            return self._name == other._name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Parameter", self._name))

    def __repr__(self) -> str:
        return f"Parameter({self._name!r})"

    def __str__(self) -> str:
        return self._name

    def __reduce__(self):
        return (Parameter, (self._name,))


class ParameterExpression(_Symbolic):
    """An affine function of one :class:`Parameter`, as an exact op chain.

    Instances are created by arithmetic on a parameter; the constructor is
    also public so codecs (QASM, the transpile cache) can rebuild a chain.
    """

    __slots__ = ("_parameter", "_chain")

    def __init__(
        self,
        parameter: Parameter,
        ops: Iterable[tuple[str, float | None]],
    ) -> None:
        if not isinstance(parameter, Parameter):
            raise CircuitError(
                f"ParameterExpression needs a Parameter root, got {parameter!r}"
            )
        chain = tuple((str(op), operand) for op, operand in ops)
        for op, operand in chain:
            if op not in _OPS:
                raise CircuitError(f"unknown parameter-expression op {op!r}")
            if (operand is None) != (op == "neg"):
                raise CircuitError(f"bad operand {operand!r} for op {op!r}")
        if not chain:
            raise CircuitError(
                "empty op chain; use the Parameter itself instead"
            )
        self._parameter = parameter
        self._chain = chain

    @property
    def parameter(self) -> Parameter:
        return self._parameter

    def _ops(self) -> tuple[tuple[str, float | None], ...]:
        return self._chain

    @property
    def ops(self) -> tuple[tuple[str, float | None], ...]:
        """The recorded ``(op, operand)`` chain, in application order."""
        return self._chain

    def bind_value(self, value: float) -> float:
        """Replay the recorded float ops on ``value`` (bit-exact)."""
        out = float(value)
        for op, operand in self._chain:
            out = _OPS[op](out, operand)
        return out

    def coefficients(self) -> tuple[float, float]:
        """The affine ``(coeff, offset)`` view of the chain.

        For *presentation* (QASM output, reprs) — evaluation always replays
        the chain itself, because ``coeff * v + offset`` is not bit-identical
        to e.g. ``v / 3`` in floating point.
        """
        coeff, offset = 1.0, 0.0
        for op, operand in self._chain:
            if op == "add":
                offset = offset + operand
            elif op == "sub":
                offset = offset - operand
            elif op == "rsub":
                coeff, offset = -coeff, operand - offset
            elif op == "mul":
                coeff, offset = coeff * operand, offset * operand
            elif op == "div":
                coeff, offset = coeff / operand, offset / operand
            else:  # neg
                coeff, offset = -coeff, -offset
        return coeff, offset

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParameterExpression):
            return (
                self._parameter == other._parameter
                and self._chain == other._chain
            )
        if isinstance(other, Parameter):
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ParameterExpression", self._parameter, self._chain))

    def __repr__(self) -> str:
        return f"ParameterExpression({self._parameter!r}, {self._chain!r})"

    def __str__(self) -> str:
        coeff, offset = self.coefficients()
        name = self._parameter.name
        if coeff == 1.0:
            text = name
        elif coeff == -1.0:
            text = f"-{name}"
        else:
            text = f"{coeff!r}*{name}"
        if offset > 0 or (offset == 0.0 and math.copysign(1.0, offset) > 0):
            return text if offset == 0.0 else f"{text} + {offset!r}"
        return f"{text} - {-offset!r}"

    def __reduce__(self):
        return (ParameterExpression, (self._parameter, self._chain))


def is_symbolic(value: object) -> bool:
    """Whether a gate parameter is an unbound symbol (or expression of one)."""
    return isinstance(value, _Symbolic)


def iter_parameters(params: Iterable[object]) -> Iterator[Parameter]:
    """The root symbol of every symbolic entry, in order (with repeats)."""
    for p in params:
        if isinstance(p, _Symbolic):
            yield p.parameter


def normalize_params(params: Iterable[object]) -> tuple:
    """Validate a builder-supplied parameter tuple, keeping symbols symbolic.

    Numbers are coerced to finite floats exactly as the concrete builder
    always did; :class:`Parameter`/:class:`ParameterExpression` entries pass
    through untouched.  Anything else raises :class:`CircuitError`.
    """
    out = []
    for p in params:
        if isinstance(p, _Symbolic):
            out.append(p)
            continue
        try:
            value = float(p)  # the one sanctioned coercion site
        except (TypeError, ValueError) as exc:
            raise CircuitError(f"gate parameter {p!r} is not a number") from exc
        if not math.isfinite(value):
            raise CircuitError(f"non-finite gate parameter {p!r}")
        out.append(value)
    return tuple(out)


def as_concrete(params: Iterable[object], context: str = "") -> tuple[float, ...]:
    """Coerce a parameter tuple to floats, refusing unbound symbols.

    This is the sanctioned escape hatch for consumers that need concrete
    angles (matrix builders, serialisers): symbols raise the coded
    ``[QA105]`` error instead of truncating.
    """
    out = []
    for p in params:
        if isinstance(p, _Symbolic):
            where = f" in {context}" if context else ""
            raise _unbound_error(f"{p!s}{where}")
        out.append(float(p))
    return tuple(out)


def bind_parameter(value: object, values: Mapping[str, float]) -> object:
    """Bind one parameter entry against a ``name -> float`` mapping.

    Concrete entries pass through; symbols missing from the mapping raise.
    """
    if not isinstance(value, _Symbolic):
        return value
    name = value.parameter.name
    if name not in values:
        raise CircuitError(f"no value bound for parameter '{name}'")
    return value.bind_value(values[name])


# ---------------------------------------------------------------------------
# JSON codec (used by the transpile cache's payload serialisation)
# ---------------------------------------------------------------------------


def params_to_json(params: Iterable[object]) -> list:
    """Encode a parameter tuple into JSON-safe values.

    Floats stay floats; a bare symbol becomes ``{"param": name}`` and an
    expression ``{"param": name, "ops": [[op, operand], ...]}``.
    """
    out: list = []
    for p in params:
        if isinstance(p, ParameterExpression):
            out.append(
                {
                    "param": p.parameter.name,
                    "ops": [list(step) for step in p.ops],
                }
            )
        elif isinstance(p, Parameter):
            out.append({"param": p.name})
        else:
            out.append(float(p))
    return out


def params_from_json(values: Iterable[object]) -> tuple:
    """Decode :func:`params_to_json` output; raises ``ValueError`` if malformed."""
    out = []
    for v in values:
        if isinstance(v, dict):
            try:
                parameter = Parameter(str(v["param"]))
                raw_ops = v.get("ops")
                if raw_ops is None:
                    out.append(parameter)
                else:
                    ops = tuple(
                        (str(op), None if operand is None else float(operand))
                        for op, operand in raw_ops
                    )
                    out.append(ParameterExpression(parameter, ops))
            except (CircuitError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed symbolic parameter {v!r}") from exc
        else:
            out.append(float(v))  # sanctioned: this is the binding module
    return tuple(out)


# ---------------------------------------------------------------------------
# Bind provenance: the link from a bound circuit back to its template
# ---------------------------------------------------------------------------


class BoundProvenance:
    """Where a bound circuit came from: template, parameter order, values.

    Stamped by :meth:`QuantumCircuit.bind` and consulted by the execution
    layer: the structure fingerprint is shared with (computed once on) the
    template, the result-cache fingerprint is derived from the template's
    fingerprint plus the binding vector, and ``service.transpile`` lowers the
    template once and re-binds the output per sweep point.

    ``size`` is the bound circuit's instruction count at bind time; any
    mutation that changes the count invalidates the provenance
    (:meth:`matches` turns false) and consumers fall back to full walks.
    Copies deliberately do not carry provenance.
    """

    __slots__ = ("template", "names", "values", "size")

    def __init__(
        self,
        template,
        names: tuple[str, ...],
        values: tuple[float, ...],
        size: int,
    ) -> None:
        self.template = template
        self.names = tuple(names)
        self.values = tuple(values)
        self.size = int(size)

    def matches(self, circuit) -> bool:
        """Whether the provenance still describes ``circuit`` (no mutation)."""
        return (
            len(circuit._instructions) == self.size
            and len(self.template._instructions) == self.size
        )

    @property
    def mapping(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v:.4g}" for n, v in zip(self.names, self.values)
        )
        return f"BoundProvenance({self.template.name}: {pairs})"
