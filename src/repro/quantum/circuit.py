"""Quantum circuit construction: registers, instructions, and the builder API.

The public surface intentionally mirrors the modern Qiskit ``QuantumCircuit``
builder (``qc.h(0)``, ``qc.cx(0, 1)``, ``qc.measure_all()``) because the
simulated LLM emits code against this API and the evaluation suite grades it.
A separate *legacy* surface with removed methods lives in
:mod:`repro.quantum.legacy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.errors import CircuitError, QuantumDeprecationError
from repro.quantum import gates as _gates
from repro.quantum.parameters import (
    BoundProvenance,
    Parameter,
    bind_parameter,
    is_symbolic,
    iter_parameters,
    normalize_params,
)


class QuantumRegister:
    """A named block of qubits."""

    prefix = "q"

    def __init__(self, size: int, name: str | None = None) -> None:
        if size <= 0:
            raise CircuitError(f"register size must be positive, got {size}")
        self.size = int(size)
        self.name = name if name is not None else self.prefix
        self._validate_name()

    def _validate_name(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise CircuitError(f"invalid register name '{self.name}'")

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.size}, '{self.name}')"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.size == other.size  # type: ignore[attr-defined]
            and self.name == other.name  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.size, self.name))


class ClassicalRegister(QuantumRegister):
    """A named block of classical bits."""

    prefix = "c"


@dataclass(frozen=True)
class Instruction:
    """One operation in a circuit.

    Attributes:
        name: gate or directive name (``'h'``, ``'cx'``, ``'measure'``, ...).
        qubits: global qubit indices the operation acts on.
        clbits: global classical bit indices written (only for ``measure``).
        params: gate parameters (rotation angles) — floats, or unbound
            :class:`~repro.quantum.parameters.Parameter` symbols / affine
            expressions in a template circuit.
        condition: optional ``(clbit, value)`` pair — the op applies only when
            that classical bit currently holds ``value``.
    """

    name: str
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    condition: tuple[int, int] | None = None

    @property
    def is_unitary(self) -> bool:
        return self.name not in _gates.NON_UNITARY

    def matrix(self):
        """Unitary matrix of the instruction (unitary gates only)."""
        return _gates.gate_matrix(self.name, self.params)

    def inverse(self) -> "Instruction":
        if not self.is_unitary:
            raise CircuitError(f"'{self.name}' is not invertible")
        name, params = _gates.inverse_params(self.name, self.params)
        return Instruction(name, self.qubits, self.clbits, params, self.condition)

    def __repr__(self) -> str:
        parts = [self.name]
        if self.params:
            rendered = ", ".join(
                str(p) if is_symbolic(p) else f"{p:.4g}" for p in self.params
            )
            parts.append(f"({rendered})")
        parts.append(" q" + str(list(self.qubits)))
        if self.clbits:
            parts.append(" -> c" + str(list(self.clbits)))
        return "".join(parts)


_T = TypeVar("_T")


def _bind_plan(circuit: QuantumCircuit) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``(parameter names, symbolic instruction positions)`` for
    :meth:`QuantumCircuit.bind`."""
    names = tuple(p.name for p in circuit.parameters)
    symbolic = tuple(
        index
        for index, inst in enumerate(circuit._instructions)
        if any(is_symbolic(p) for p in inst.params)
    )
    return names, symbolic


class QuantumCircuit:
    """A sequence of quantum instructions over qubit and clbit registers.

    Construction accepts either sizes or registers::

        qc = QuantumCircuit(3)                     # 3 qubits, no clbits
        qc = QuantumCircuit(3, 3)                  # 3 qubits, 3 clbits
        qr = QuantumRegister(2, 'qr')
        cr = ClassicalRegister(2, 'cr')
        qc = QuantumCircuit(qr, cr)
    """

    def __init__(self, *regs: int | QuantumRegister, name: str = "circuit") -> None:
        self.name = name
        self.qregs: list[QuantumRegister] = []
        self.cregs: list[ClassicalRegister] = []
        self._instructions: list[Instruction] = []
        self.metadata: dict = {}
        #: Set by :meth:`bind` only — links a bound circuit to its template so
        #: fingerprints and transpilation are shared per structure.  Copies
        #: never carry it.
        self._bound_from: BoundProvenance | None = None
        #: Values derived from the instruction list, each stored with the
        #: instruction count it was computed at (see :meth:`_memo`).
        self._memos: dict[str, tuple[int, object]] = {}
        self._parse_regs(regs)

    def _parse_regs(self, regs: Sequence[int | QuantumRegister]) -> None:
        ints = [r for r in regs if isinstance(r, int)]
        if ints:
            if len(regs) > 2 or not all(isinstance(r, int) for r in regs):
                raise CircuitError(
                    "mixing integer sizes and register objects is not supported"
                )
            self.qregs.append(QuantumRegister(ints[0], "q"))
            if len(ints) == 2 and ints[1] > 0:
                self.cregs.append(ClassicalRegister(ints[1], "c"))
            return
        for reg in regs:
            self.add_register(reg)  # type: ignore[arg-type]

    # -- registers ----------------------------------------------------------

    def add_register(self, reg: QuantumRegister) -> None:
        target = self.cregs if isinstance(reg, ClassicalRegister) else self.qregs
        if any(existing.name == reg.name for existing in target):
            raise CircuitError(f"duplicate register name '{reg.name}'")
        target.append(reg)

    @property
    def num_qubits(self) -> int:
        return sum(r.size for r in self.qregs)

    @property
    def num_clbits(self) -> int:
        return sum(r.size for r in self.cregs)

    @property
    def instructions(self) -> list[Instruction]:
        return list(self._instructions)

    @property
    def data(self) -> list[Instruction]:
        """Alias for :attr:`instructions` (Qiskit compatibility)."""
        return self.instructions

    # -- validation ---------------------------------------------------------

    def _check_qubits(self, qubits: Iterable[int]) -> tuple[int, ...]:
        out = []
        for q in qubits:
            if not isinstance(q, (int,)) or isinstance(q, bool):
                raise CircuitError(f"qubit index must be an int, got {q!r}")
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit index {q} out of range for {self.num_qubits}-qubit circuit"
                )
            out.append(int(q))
        if len(set(out)) != len(out):
            raise CircuitError(f"duplicate qubit indices {out}")
        return tuple(out)

    def _check_clbits(self, clbits: Iterable[int]) -> tuple[int, ...]:
        out = []
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(
                    f"clbit index {c} out of range for {self.num_clbits}-clbit circuit"
                )
            out.append(int(c))
        return tuple(out)

    # -- generic append -----------------------------------------------------

    def append(
        self,
        name: str,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
        params: Sequence[float] = (),
        condition: tuple[int, int] | None = None,
    ) -> "QuantumCircuit":
        """Append an instruction by name; validates arity and indices."""
        name = name.lower()
        qubits = self._check_qubits(qubits)
        clbits = self._check_clbits(clbits)
        if name not in _gates.NON_UNITARY:
            spec = _gates.get_spec(name)
            if spec.num_qubits != len(qubits):
                raise CircuitError(
                    f"gate '{name}' acts on {spec.num_qubits} qubit(s), "
                    f"got {len(qubits)}"
                )
            if spec.num_params != len(params):
                raise CircuitError(
                    f"gate '{name}' takes {spec.num_params} parameter(s), "
                    f"got {len(params)}"
                )
            name = spec.name  # canonicalise aliases
        self._instructions.append(
            Instruction(name, qubits, clbits, normalize_params(params), condition)
        )
        return self

    # -- single-qubit gates --------------------------------------------------

    def id(self, qubit: int) -> "QuantumCircuit":
        return self.append("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append("t", [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("tdg", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append("sx", [qubit])

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sxdg", [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("rx", [qubit], params=[theta])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("ry", [qubit], params=[theta])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("rz", [qubit], params=[theta])

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append("p", [qubit], params=[lam])

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append("u", [qubit], params=[theta, phi, lam])

    # -- two-qubit gates ------------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cx", [control, target])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cy", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cz", [control, target])

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("ch", [control, target])

    def csx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("csx", [control, target])

    def swap(self, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append("swap", [qubit1, qubit2])

    def iswap(self, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append("iswap", [qubit1, qubit2])

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("crx", [control, target], params=[theta])

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("cry", [control, target], params=[theta])

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("crz", [control, target], params=[theta])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("cp", [control, target], params=[lam])

    def rxx(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append("rxx", [qubit1, qubit2], params=[theta])

    def ryy(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append("ryy", [qubit1, qubit2], params=[theta])

    def rzz(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append("rzz", [qubit1, qubit2], params=[theta])

    # -- three-qubit gates -----------------------------------------------------

    def ccx(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        return self.append("ccx", [control1, control2, target])

    def ccz(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        return self.append("ccz", [control1, control2, target])

    def cswap(self, control: int, target1: int, target2: int) -> "QuantumCircuit":
        return self.append("cswap", [control, target1, target2])

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled X for 1 or 2 controls (larger fan-in is decomposed
        by the transpiler, which the builder does not depend on)."""
        controls = list(controls)
        if len(controls) == 1:
            return self.cx(controls[0], target)
        if len(controls) == 2:
            return self.ccx(controls[0], controls[1], target)
        raise CircuitError(
            f"mcx supports 1 or 2 controls at build time, got {len(controls)}; "
            "decompose larger fan-ins explicitly"
        )

    # -- non-unitary ops --------------------------------------------------------

    def measure(self, qubit: int | Sequence[int], clbit: int | Sequence[int]) -> "QuantumCircuit":
        qubits = [qubit] if isinstance(qubit, int) else list(qubit)
        clbits = [clbit] if isinstance(clbit, int) else list(clbit)
        if len(qubits) != len(clbits):
            raise CircuitError(
                f"measure maps {len(qubits)} qubit(s) to {len(clbits)} clbit(s)"
            )
        for q, c in zip(qubits, clbits):
            self.append("measure", [q], [c])
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit; adds a ``meas`` classical register if needed."""
        if self.num_clbits < self.num_qubits:
            self.add_register(
                ClassicalRegister(self.num_qubits - self.num_clbits, "meas")
            )
        for q in range(self.num_qubits):
            self.append("measure", [q], [q])
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self.append("reset", [qubit])

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        qs = list(qubits) if qubits else list(range(self.num_qubits))
        self._instructions.append(Instruction("barrier", self._check_qubits(qs)))
        return self

    # -- structure ---------------------------------------------------------------

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
    ) -> "QuantumCircuit":
        """Append ``other``'s instructions onto this circuit (in place).

        ``qubits``/``clbits`` map the other circuit's indices onto this one;
        identity mapping by default.  Returns ``self`` for chaining.
        """
        qmap = list(qubits) if qubits is not None else list(range(other.num_qubits))
        cmap = list(clbits) if clbits is not None else list(range(other.num_clbits))
        if len(qmap) != other.num_qubits:
            raise CircuitError(
                f"qubit map has {len(qmap)} entries, composed circuit has "
                f"{other.num_qubits} qubits"
            )
        if len(cmap) < other.num_clbits:
            raise CircuitError(
                f"clbit map has {len(cmap)} entries, composed circuit has "
                f"{other.num_clbits} clbits"
            )
        for inst in other._instructions:
            mapped_q = tuple(qmap[q] for q in inst.qubits)
            mapped_c = tuple(cmap[c] for c in inst.clbits)
            cond = inst.condition
            if cond is not None:
                cond = (cmap[cond[0]], cond[1])
            if inst.name == "barrier":
                self._instructions.append(
                    Instruction("barrier", self._check_qubits(mapped_q))
                )
            else:
                self.append(inst.name, mapped_q, mapped_c, inst.params, cond)
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return a new circuit implementing the inverse unitary.

        Raises:
            CircuitError: if the circuit contains measure/reset.
        """
        inv = self.copy_empty(name=f"{self.name}_dg")
        for inst in reversed(self._instructions):
            if inst.name == "barrier":
                inv._instructions.append(inst)
                continue
            inv._instructions.append(inst.inverse())
        return inv

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        new = self.copy_empty(name=name or self.name)
        new._instructions = list(self._instructions)
        new.metadata = dict(self.metadata)
        return new

    def copy_empty(self, name: str | None = None) -> "QuantumCircuit":
        new = QuantumCircuit(name=name or self.name)
        new.qregs = list(self.qregs)
        new.cregs = list(self.cregs)
        return new

    def power(self, exponent: int) -> "QuantumCircuit":
        """Return the circuit repeated ``exponent`` times (inverse if negative)."""
        if exponent == 0:
            return self.copy_empty(name=f"{self.name}^0")
        base = self if exponent > 0 else self.inverse()
        out = base.copy(name=f"{self.name}^{exponent}")
        for _ in range(abs(exponent) - 1):
            out.compose(base)
        return out

    # -- symbolic parameters -----------------------------------------------------

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """Unbound parameters in first-appearance order (deduplicated)."""
        seen: dict[str, Parameter] = {}
        for inst in self._instructions:
            for param in iter_parameters(inst.params):
                seen.setdefault(param.name, param)
        return tuple(seen.values())

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def is_parameterized(self) -> bool:
        """Whether any instruction still carries an unbound symbol."""
        return any(
            any(is_symbolic(p) for p in inst.params)
            for inst in self._instructions
        )

    def bind(
        self,
        values: Mapping[Parameter | str, float],
        *,
        allow_unused: bool = False,
    ) -> "QuantumCircuit":
        """Return a concrete circuit with every symbol replaced by its value.

        ``values`` maps :class:`Parameter` objects (or their names) to floats.
        Every parameter in the circuit must be bound; keys naming no circuit
        parameter raise unless ``allow_unused=True``.  Binding replays each
        expression's recorded float ops, so the result is bit-identical to
        building the circuit with the concrete values directly.

        The parameter names and the positions of the symbolic instructions
        are found once per template (memoised with :meth:`_memo`), so a
        sweep's points only check their values and replay the symbolic gates.
        """
        named: dict[str, float] = {}
        for key, raw in values.items():
            name = key.name if isinstance(key, Parameter) else str(key)
            try:
                value = float(raw)
            except (TypeError, ValueError) as exc:
                raise CircuitError(
                    f"binding for '{name}' is not a number: {raw!r}"
                ) from exc
            if not math.isfinite(value):
                raise CircuitError(f"non-finite binding {raw!r} for '{name}'")
            named[name] = value
        param_names, symbolic = self._memo("bind_plan", _bind_plan)
        missing = [n for n in param_names if n not in named]
        if missing:
            raise CircuitError(
                f"bind() is missing values for parameter(s): {', '.join(missing)}"
            )
        if not allow_unused:
            unused = [n for n in named if n not in param_names]
            if unused:
                raise CircuitError(
                    f"bind() got values for unknown parameter(s): "
                    f"{', '.join(sorted(unused))} (pass allow_unused=True to ignore)"
                )
        bound = self.copy_empty(name=self.name)
        bound.metadata = dict(self.metadata)
        bound._instructions = list(self._instructions)
        for index in symbolic:
            inst = bound._instructions[index]
            new_params = tuple(bind_parameter(p, named) for p in inst.params)
            for value in new_params:
                if not math.isfinite(value):
                    raise CircuitError(
                        f"binding produced non-finite parameter {value!r} "
                        f"for gate '{inst.name}'"
                    )
            bound._instructions[index] = Instruction(
                inst.name, inst.qubits, inst.clbits, new_params, inst.condition
            )
        if param_names:
            bound._bound_from = BoundProvenance(
                template=self,
                names=tuple(param_names),
                values=tuple(named[n] for n in param_names),
                size=len(bound._instructions),
            )
        return bound

    def _provenance(self) -> BoundProvenance | None:
        """The :meth:`bind` provenance while it still describes this circuit.

        Every per-template shortcut (fingerprints, facts, transpilation, the
        ``QA105`` scan) asks here, so adding or removing an instruction after
        binding sends them all back to the circuit itself.
        """
        provenance = self._bound_from
        if provenance is not None and provenance.matches(self):
            return provenance
        return None

    def _memo(self, key: str, compute: Callable[["QuantumCircuit"], _T]) -> _T:
        """``compute(self)``, kept under ``key`` until the instruction count
        changes: appending or removing an instruction recomputes it."""
        size = len(self._instructions)
        memo = self._memos.get(key)
        if memo is None or memo[0] != size:
            memo = self._memos[key] = (size, compute(self))
        return memo[1]  # type: ignore[return-value]

    # -- queries ----------------------------------------------------------------

    def count_ops(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self._instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return dict(sorted(counts.items()))

    def depth(self) -> int:
        """Circuit depth: longest path of instructions over shared qubits/clbits."""
        level: dict[tuple[str, int], int] = {}
        depth = 0
        for inst in self._instructions:
            if inst.name == "barrier":
                continue
            wires = [("q", q) for q in inst.qubits] + [("c", c) for c in inst.clbits]
            if inst.condition is not None:
                wires.append(("c", inst.condition[0]))
            current = max((level.get(w, 0) for w in wires), default=0) + 1
            for w in wires:
                level[w] = current
            depth = max(depth, current)
        return depth

    def size(self) -> int:
        """Number of non-barrier instructions."""
        return sum(1 for i in self._instructions if i.name != "barrier")

    def width(self) -> int:
        return self.num_qubits + self.num_clbits

    def has_measurements(self) -> bool:
        return any(i.name == "measure" for i in self._instructions)

    def measured_qubit_to_clbit(self) -> dict[int, int]:
        """Final qubit->clbit mapping implied by the measure instructions."""
        mapping: dict[int, int] = {}
        for inst in self._instructions:
            if inst.name == "measure":
                mapping[inst.qubits[0]] = inst.clbits[0]
        return mapping

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy with all trailing measure instructions removed."""
        out = self.copy()
        while out._instructions and out._instructions[-1].name == "measure":
            out._instructions.pop()
        return out

    def remove_all_measurements(self) -> "QuantumCircuit":
        """Return a copy with every measure instruction removed."""
        out = self.copy_empty()
        out._instructions = [i for i in self._instructions if i.name != "measure"]
        return out

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name='{self.name}', qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, size={self.size()})"
        )

    def draw(self) -> str:
        """Plain-text rendering: one line per instruction."""
        header = f"{self.name}: {self.num_qubits} qubits, {self.num_clbits} clbits"
        body = "\n".join(f"  {i!r}" for i in self._instructions)
        return header + ("\n" + body if body else "")

    # -- removed legacy methods ----------------------------------------------
    # These raise structured deprecation errors so generated code using the
    # v0-era API fails with an actionable message (see repro.quantum.legacy).

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        raise QuantumDeprecationError("QuantumCircuit.u1", "use qc.p(lam, qubit)")

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.u2", "use qc.u(pi/2, phi, lam, qubit)"
        )

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.u3", "use qc.u(theta, phi, lam, qubit)"
        )

    def cu1(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.cu1", "use qc.cp(lam, control, target)"
        )

    def iden(self, qubit: int) -> "QuantumCircuit":
        raise QuantumDeprecationError("QuantumCircuit.iden", "use qc.id(qubit)")

    def toffoli(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.toffoli", "use qc.ccx(control1, control2, target)"
        )

    def fredkin(self, control: int, target1: int, target2: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.fredkin", "use qc.cswap(control, target1, target2)"
        )

    def cnot(self, control: int, target: int) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.cnot", "use qc.cx(control, target)"
        )

    def snapshot(self, label: str) -> "QuantumCircuit":
        raise QuantumDeprecationError(
            "QuantumCircuit.snapshot", "use Statevector.from_circuit(qc) instead"
        )
