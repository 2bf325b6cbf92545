#!/usr/bin/env python3
"""Repo-invariant AST lint: structural rules ruff/grep cannot express.

Each rule guards an invariant this codebase has been burned by before.  The
checks walk Python ASTs (never raw text), so backend names inside string
literals — the synthetic LLM corpus, RAG docs, prompt templates — are
invisible and never false-positive.

Rules
-----
R001  Direct ``FakeBrisbane()`` / ``LocalSimulator()`` / ``FakeFalcon()``
      construction outside the backend registry.  (``NoisySimulator`` is
      exempt: it is parameterized by a noise model, so derived instances —
      e.g. the QEC agent's noise-scaled backend — are legitimate.)
      Call sites must go through ``repro.quantum.execution.get_backend`` so
      every consumer shares one memoised instance per name and the execution
      result cache stays maximally effective.  Allowed only in
      ``quantum/backend.py`` (the definitions) and
      ``quantum/execution/registry.py`` (the factories).

R002  Two or more ``.stats()`` calls inside one function: the
      before/after-diff pattern.  Global-counter diffs race under
      concurrency; use ``stats_scope()`` from
      ``repro.quantum.execution`` for attribution instead.

R003  Column-folded batch kernel: ``matrix @ x.reshape(a, b)`` (or
      ``np.matmul`` with a direct 2-argument ``.reshape`` second operand)
      under ``batchsim/``.  Folding the batch into the GEMM's column
      dimension changes the BLAS kernel and breaks bit-identity with the
      serial simulator (see ``batchsim/state.py``); the sanctioned kernel
      stacks to 3-D and lets matmul broadcast.

R004  Dead transpiler pass: a public function in a pass-library module
      (``transpiler/passes.py``) referenced nowhere outside its own module.
      A pass nothing imports is silently skipped by every pass stack
      (``drop_barriers`` sat unused this way); wire it into the PassManager,
      export it, or delete it.  Cross-file by nature, so it runs from
      ``lint_paths`` over the whole linted tree, not per file — and only
      when the tree contains files beyond the pass modules themselves.

R005  Direct ``float()`` coercion of a gate parameter outside the binding
      module: ``float(inst.params[i])``, or ``float(p)`` where ``p`` loops
      over a ``.params`` sequence.  Since symbolic parameters landed, a gate
      param may be a ``Parameter``/``ParameterExpression`` whose ``__float__``
      raises [QA105] at runtime — ad-hoc coercion turns an unbound template
      into a crash deep inside a kernel instead of a pre-flight diagnostic.
      Route through ``repro.quantum.parameters`` (``as_concrete`` /
      ``bind_parameter`` / ``circuit.bind``) so symbolic values are either
      bound or rejected with the coded error.  Allowed only in
      ``quantum/parameters.py`` (the sanctioned coercions live there).

R006  A state-kernel call (bare or as an attribute): ``apply_matrix(...)``
      anywhere, or ``batch_apply_matrix(...)`` outside ``quantum/batchsim/``.
      ``batch_apply_matrix`` is the one gate kernel and batchsim's engine
      the one place that loops it over instructions; a flat-state kernel,
      or a caller looping the batch kernel, is a second state-evolution
      engine beside ``repro.quantum.batchsim``.  Simulation goes through
      ``Backend.execute_circuit`` / ``batchsim.run_circuit``, and
      whole-circuit states through ``Statevector.evolve``, which runs
      batchsim's loop.  The flat ``apply_matrix`` lives on only as the
      parity reference in ``tests/serial_engine.py``.

R007  A ``ProcessPoolExecutor(...)`` call outside ``utils/parallel.py``, or a
      ``ThreadPoolExecutor(...)`` call anywhere.  Work chunks fan out one of
      two ways: on the process pool ``repro.utils.parallel.process_pool``
      builds (the one constructor, which also knows how to degrade where no
      pool can be built), or inline.  Chunk work and circuit execution hold
      the GIL, so a thread pool is no faster than the calling thread:
      ``ExecutionService.run`` executes on the caller's thread, and no
      module owns a thread pool.

R008  networkx in the runtime: any import of networkx (``import
      networkx``, ``from networkx... import ...``), or a
      ``nx.max_weight_matching(...)`` / ``networkx.max_weight_matching(...)``
      call.  networkx is not a runtime dependency: every process would pay
      its import, and decoder and routing results would depend on which
      networkx a host installed.  MWPM matches through
      ``repro.qec.blossom``, and graph walks go through
      ``repro.utils.graphs``, ports that return what networkx returns, ties
      included.  networkx stays the parity reference in the tests
      (``tests/qec/test_blossom.py``, ``tests/utils/test_graphs.py``).

R009  A ``sample_memory(...)`` call (bare or as an attribute) inside a
      ``for`` or ``while`` body or a comprehension: a per-shot sampling loop
      beside the block kernel.  Memory-experiment shots are sampled as
      arrays by ``repro.qec.syndrome.memory_blocks`` (one ``random`` call
      per shot, one block of array operations for all of them);
      ``sample_memory`` is its one-shot view for a single trace.  The
      per-shot loop lives on only as the parity reference in
      ``tests/qec/reference_memory.py``.

R010  A ``.sum(...)`` call (``row.sum()``, ``np.sum(row)``) inside a
      comprehension or generator expression under ``batchsim/``: one
      Python-level reduction per row of a batch.  A tile's reductions run
      over whole columns; ``batchsim/state.py``'s ``_pairwise_row_sums``
      gives every row its 1-D ``.sum()``, bit for bit, in a few dozen
      array operations.

R011  An ``execute_circuit(...)`` call (bare or as an attribute) outside
      ``quantum/execution/service.py``.  ``Backend.execute_circuit`` is the
      uncached one-circuit primitive, and ``ExecutionService.run`` is the
      one flow that calls it, under the result cache, single-flight and the
      counters; a direct call anywhere else skips all three.  Defining an
      override (``def execute_circuit``) is not a call and stays allowed.

R012  An experiment driver (under ``experiments/``) that reads the execution
      ledger: a ``.stats()`` or ``stats_scope(...)`` call, or an import of
      ``COUNTERS``, ``SCOPE_FIELDS`` or ``stats_scope``.  The counters cover
      one process and change with ``--workers``, a warm cache tier and
      ``--distributed``, while EXPERIMENTS.md must be a pure function of
      the source tree.  Drivers return results only; ``repro report``
      prints the ledger on stdout, as ``repro eval --exec-stats`` does.

R013  A weighted ``choice(...)`` call (a ``p=`` keyword, or a fourth
      positional argument) under ``quantum/``.  The ideal route draws every
      unit of a group by searching its row's CDF with the unit's own
      uniforms (``simulator.sample_group``): the steps ``Generator.choice``
      takes, computed once per row.  A weighted ``choice`` beside it is a
      second sampler, whose draws follow numpy's implementation instead.
      An unweighted ``choice`` (``rng.choice(names)``) stays allowed, and
      so does a weighted one outside ``quantum/`` (the LLM's token
      sampler).  ``rng.choice`` lives on only as the parity reference in
      ``tests/serial_engine.py``.

R014  An import that puts the serving tier or the process pool on the
      start-up path.  Two kinds, each only at module level (an import
      inside a function, or under ``if TYPE_CHECKING:``, runs on first use
      or never): an import of ``urllib``, ``http``, ``socketserver``,
      ``ssl``, ``socket``, ``multiprocessing`` or ``concurrent`` outside
      the serving tier; and an import of a serving-tier module
      (``quantum/execution/``'s ``remote_cache``, ``dispatch``,
      ``tenants``, ``jobstore``, ``metrics``) from outside it.  Every
      short process (``repro eval``, ``repro report``, eval workers) would
      pay for an HTTP stack and a pool it never uses; the serving tier's
      names load through ``repro.quantum.execution``'s lazy exports, and
      ``repro.utils.parallel`` imports the pool only to build one.

Usage::

    python tools/repo_lint.py [paths...]   # default: src/

Exit status 1 if any violation is found, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Backend classes that must be built by the registry, not call sites.
REGISTRY_ONLY = {"FakeBrisbane", "LocalSimulator", "FakeFalcon"}

#: Files (by trailing path parts) where direct construction is the point.
R001_ALLOWED = (
    ("quantum", "execution", "registry.py"),
    ("quantum", "backend.py"),
)

#: R003 only applies under these directory names.
R003_DIRS = {"batchsim"}

#: Pass-library modules (by trailing path parts) whose public functions R004
#: requires to be referenced somewhere outside their own module.
R004_PASS_MODULES = (("transpiler", "passes.py"),)

#: The one module allowed to coerce gate params with float() (R005).
R005_ALLOWED = (("quantum", "parameters.py"),)

#: The one directory allowed to call each state kernel (R006); ``None``
#: means no module may.
R006_OWNERS = {"apply_matrix": None, "batch_apply_matrix": "batchsim"}

#: The one module allowed to construct each executor pool (R007); ``None``
#: means no module may.
R007_OWNERS = {
    "ProcessPoolExecutor": ("utils", "parallel.py"),
    "ThreadPoolExecutor": None,
}

#: Module aliases whose ``max_weight_matching`` R008 flags.
R008_NETWORKX = {"nx", "networkx"}

R008_MATCHER = (
    "networkx's max_weight_matching: match through "
    "repro.qec.blossom.max_weight_matching, the one matcher "
    "in src/ (networkx's is the test reference)"
)
R008_IMPORT = (
    "networkx import: networkx is a test dependency only; walk graphs "
    "through repro.utils.graphs (networkx is the test reference)"
)

#: The one-shot sampler R009 keeps out of loops.
R009_SAMPLER = "sample_memory"

#: Comprehensions: every part of one runs per item (R009, R010).
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: R010 only applies under these directory names.
R010_DIRS = {"batchsim"}

#: The one module allowed to call the execution primitive (R011).
R011_OWNER = ("quantum", "execution", "service.py")

#: R012 applies under this directory name: the experiment drivers.
R012_DIR = "experiments"

#: Ledger names R012 keeps out of the experiment drivers' imports.
R012_LEDGER = {"COUNTERS", "SCOPE_FIELDS", "stats_scope"}

#: R013 applies under this directory name: the simulator's package.
R013_DIR = "quantum"

#: Standard-library packages R014 keeps off the start-up path: the HTTP
#: stack and the process pool.
R014_STDLIB = {
    "urllib", "http", "socketserver", "ssl", "socket", "multiprocessing",
    "concurrent",
}

#: The serving tier (R014): modules of this package that load on first use.
R014_PACKAGE = "repro.quantum.execution"
R014_SERVING = {"remote_cache", "dispatch", "tenants", "jobstore", "metrics"}


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: Path, line: int, rule: str, message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _terminal_name(node: ast.expr) -> str | None:
    """The trailing identifier of a Name/Attribute chain (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_allowed_r001(path: Path) -> bool:
    parts = path.parts
    return any(parts[-len(suffix):] == suffix for suffix in R001_ALLOWED)


def _check_direct_backend_calls(path: Path, tree: ast.AST) -> list[Violation]:
    """R001: backend classes constructed outside the registry."""
    if _is_allowed_r001(path):
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in REGISTRY_ONLY:
                found.append(
                    Violation(
                        path, node.lineno, "R001",
                        f"direct {name}() construction; use "
                        "repro.quantum.execution.get_backend(...) so the "
                        "instance is shared and cache-friendly",
                    )
                )
    return found


def _check_stats_diffs(path: Path, tree: ast.AST) -> list[Violation]:
    """R002: >=2 ``.stats()`` calls in one function (before/after diffing)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "stats"
        ]
        if len(calls) >= 2:
            lines = ", ".join(str(c.lineno) for c in calls)
            found.append(
                Violation(
                    path, calls[1].lineno, "R002",
                    f"{len(calls)} .stats() calls in {node.name}() "
                    f"(lines {lines}): global-counter diffs race under "
                    "concurrency; use stats_scope() for attribution",
                )
            )
    return found


def _is_two_arg_reshape(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reshape"
        and len(node.args) == 2
        and not node.keywords
    )


def _check_column_folded_matmul(path: Path, tree: ast.AST) -> list[Violation]:
    """R003: ``matrix @ x.reshape(a, b)`` in batchsim kernels."""
    if not R003_DIRS.intersection(path.parts):
        return []
    found = []
    message = (
        "column-folded batch matmul (operand is a 2-arg .reshape): this "
        "widens the GEMM, changes the BLAS kernel, and breaks bit-identity "
        "with the serial simulator; stack to (batch, 2**k, rest) instead"
    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)
            and _is_two_arg_reshape(node.right)
        ):
            found.append(Violation(path, node.lineno, "R003", message))
        elif (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "matmul"
            and len(node.args) >= 2
            and _is_two_arg_reshape(node.args[1])
        ):
            found.append(Violation(path, node.lineno, "R003", message))
    return found


def _is_pass_module(path: Path) -> bool:
    parts = path.parts
    return any(
        parts[-len(suffix):] == suffix for suffix in R004_PASS_MODULES
    )


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions: names, attributes, imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _check_dead_pass_functions(
    parsed: dict[Path, ast.AST]
) -> list[Violation]:
    """R004: public pass functions referenced nowhere outside their module.

    Cross-file: needs the whole linted tree.  Skipped when only pass modules
    were linted (there is no "outside" to reference them from).
    """
    pass_files = {f: t for f, t in parsed.items() if _is_pass_module(f)}
    if not pass_files or len(pass_files) == len(parsed):
        return []
    external: set[str] = set()
    for file, tree in parsed.items():
        if file not in pass_files:
            external |= _referenced_names(tree)
    found = []
    for file, tree in sorted(pass_files.items()):
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name not in external
            ):
                found.append(
                    Violation(
                        file, node.lineno, "R004",
                        f"dead transpiler pass: {node.name}() is public but "
                        "referenced nowhere outside this module, so no pass "
                        "stack can be running it; wire it into the "
                        "PassManager, export it, or delete it",
                    )
                )
    return found


def _is_params_attribute(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "params"


def _check_param_float_coercion(path: Path, tree: ast.AST) -> list[Violation]:
    """R005: ``float()`` applied to gate params outside the binding module."""
    if any(
        path.parts[-len(suffix):] == suffix for suffix in R005_ALLOWED
    ):
        return []
    # Names bound by ``for p in <expr>.params`` anywhere in the module; loop
    # variables are function-local in practice, so module-level collection
    # only widens the net (no false negatives, and a same-named variable
    # holding params elsewhere is exactly what the rule should catch).
    param_loop_names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.For, ast.comprehension))
            and _is_params_attribute(node.iter)
            and isinstance(node.target, ast.Name)
        ):
            param_loop_names.add(node.target.id)
    found = []
    message = (
        "float() coercion of a gate parameter: symbolic "
        "Parameter/ParameterExpression values raise [QA105] here at "
        "runtime; use repro.quantum.parameters.as_concrete (or bind the "
        "circuit) so unbound templates fail with the coded diagnostic"
    )
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and not node.keywords
        ):
            continue
        arg = node.args[0]
        direct = (
            isinstance(arg, ast.Subscript)
            and _is_params_attribute(arg.value)
        ) or _is_params_attribute(arg)
        via_loop = isinstance(arg, ast.Name) and arg.id in param_loop_names
        if direct or via_loop:
            found.append(Violation(path, node.lineno, "R005", message))
    return found


def _check_state_evolution(path: Path, tree: ast.AST) -> list[Violation]:
    """R006: a state-kernel call outside the directory that owns it."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name not in R006_OWNERS:
            continue
        owner = R006_OWNERS[name]
        if owner is not None and owner in path.parts[:-1]:
            continue
        where = f" outside quantum/{owner}/" if owner is not None else ""
        found.append(
            Violation(
                path, node.lineno, "R006",
                f"{name}() call{where}: a second state-evolution loop beside "
                "repro.quantum.batchsim; simulate through "
                "Backend.execute_circuit or batchsim.run_circuit, or evolve "
                "with Statevector.evolve",
            )
        )
    return found


def _check_pool_construction(path: Path, tree: ast.AST) -> list[Violation]:
    """R007: an executor pool built outside the one module that owns it."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name not in R007_OWNERS:
            continue
        owner = R007_OWNERS[name]
        if owner is not None and path.parts[-len(owner):] == owner:
            continue
        where = f" outside {'/'.join(owner)}" if owner is not None else ""
        found.append(
            Violation(
                path, node.lineno, "R007",
                f"{name}() call{where}: chunks fan out on "
                "repro.utils.parallel.process_pool or inline, and circuits "
                "execute on the caller's thread",
            )
        )
    return found


def _root_name(node: ast.expr) -> str | None:
    """The leading identifier of a Name/Attribute chain (``a.b.C`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _check_networkx(path: Path, tree: ast.AST) -> list[Violation]:
    """R008: networkx imported, or its ``max_weight_matching`` called."""
    found = []
    for node in ast.walk(tree):
        message = None
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "max_weight_matching"
                and _root_name(node.func) in R008_NETWORKX
            ):
                message = R008_MATCHER
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "networkx" for a in node.names):
                message = R008_IMPORT
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "networkx":
                matcher = any(a.name == "max_weight_matching" for a in node.names)
                message = R008_MATCHER if matcher else R008_IMPORT
        if message:
            found.append(Violation(path, node.lineno, "R008", message))
    return found


def _check_shot_loops(path: Path, tree: ast.AST) -> list[Violation]:
    """R009: ``sample_memory(...)`` called in a loop body or comprehension."""
    flagged: dict[int, ast.Call] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            repeated = node.body
        elif isinstance(node, ast.While):
            repeated = [node.test, *node.body]
        elif isinstance(node, _COMPREHENSIONS):
            repeated = [node]
        else:
            continue
        for part in repeated:
            for inner in ast.walk(part):
                if (
                    isinstance(inner, ast.Call)
                    and _terminal_name(inner.func) == R009_SAMPLER
                ):
                    flagged[id(inner)] = inner
    return [
        Violation(
            path, call.lineno, "R009",
            f"{R009_SAMPLER}() in a loop: a per-shot sampling loop beside the "
            "block kernel; sample the shots with "
            "repro.qec.syndrome.memory_blocks",
        )
        for call in flagged.values()
    ]


def _check_per_row_sums(path: Path, tree: ast.AST) -> list[Violation]:
    """R010: ``.sum(...)`` called per item of a comprehension in batchsim."""
    if not R010_DIRS.intersection(path.parts[:-1]):
        return []
    flagged: dict[int, ast.Call] = {}
    for node in ast.walk(tree):
        if not isinstance(node, _COMPREHENSIONS):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "sum"
            ):
                flagged[id(inner)] = inner
    return [
        Violation(
            path, call.lineno, "R010",
            ".sum() per row in a comprehension: one Python-level reduction "
            "per row of a batch; sum whole columns instead (see "
            "_pairwise_row_sums in batchsim/state.py)",
        )
        for call in flagged.values()
    ]


def _check_execute_calls(path: Path, tree: ast.AST) -> list[Violation]:
    """R011: ``execute_circuit(...)`` called outside the execution service."""
    if path.parts[-len(R011_OWNER):] == R011_OWNER:
        return []
    return [
        Violation(
            path, node.lineno, "R011",
            "execute_circuit() call outside quantum/execution/service.py: "
            "it skips the result cache, single-flight and the counters; "
            "execute through ExecutionService.run",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _terminal_name(node.func) == "execute_circuit"
    ]


def _check_ledger_reads(path: Path, tree: ast.AST) -> list[Violation]:
    """R012: an experiment driver reading the execution service's counters."""
    if R012_DIR not in path.parts[:-1]:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            flagged = name == "stats_scope" or (
                name == "stats" and isinstance(node.func, ast.Attribute)
            )
            what = f"{name}() call"
        elif isinstance(node, ast.ImportFrom):
            names = sorted(
                alias.name for alias in node.names if alias.name in R012_LEDGER
            )
            flagged = bool(names)
            what = f"import of {', '.join(names)}"
        else:
            continue
        if flagged:
            found.append(
                Violation(
                    path, node.lineno, "R012",
                    f"{what} in an experiment driver: the execution counters "
                    "change with --workers, cache tiers and --distributed, "
                    "so a report that prints them is not a function of the "
                    "source tree; return results only (repro report prints "
                    "the ledger on stdout)",
                )
            )
    return found


def _check_weighted_choice(path: Path, tree: ast.AST) -> list[Violation]:
    """R013: a weighted ``.choice(...)`` call under ``quantum/``."""
    if R013_DIR not in path.parts[:-1]:
        return []
    return [
        Violation(
            path, node.lineno, "R013",
            "weighted choice() under quantum/: a second sampler beside the "
            "ideal route's; draw from a CDF with the unit's own uniforms as "
            "repro.quantum.simulator.sample_group does",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
        and (len(node.args) >= 4 or any(kw.arg == "p" for kw in node.keywords))
    ]


def _import_time_imports(tree: ast.AST) -> list[ast.Import | ast.ImportFrom]:
    """The imports that run when the module loads: none inside a function,
    none under ``if TYPE_CHECKING:`` (its ``else`` does run)."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _terminal_name(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return found


def _serving_module(name: str) -> str | None:
    """The serving-tier module a dotted import name loads, if any."""
    package, _, module = name.rpartition(".")
    return module if package == R014_PACKAGE and module in R014_SERVING else None


def _check_startup_imports(path: Path, tree: ast.AST) -> list[Violation]:
    """R014: the HTTP stack, the process pool or the serving tier imported
    at module level."""
    if path.parts[-3:-1] == ("quantum", "execution") and path.stem in R014_SERVING:
        return []
    found = []
    for node in _import_time_imports(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            module = node.module or ""
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        stdlib = sorted({name.split(".")[0] for name in names} & R014_STDLIB)
        serving = sorted(
            f"the serving tier's {tier}"
            for tier in map(_serving_module, names)
            if tier is not None
        )
        if stdlib or serving:
            found.append(
                Violation(
                    path, node.lineno, "R014",
                    f"module-level import of {', '.join(stdlib + serving)}: "
                    "every process that imports this module would load the "
                    "HTTP stack or the process pool, used or not; import it "
                    "inside the function that needs it (or under "
                    "TYPE_CHECKING for an annotation)",
                )
            )
    return found


CHECKS = (
    _check_direct_backend_calls,
    _check_stats_diffs,
    _check_column_folded_matmul,
    _check_param_float_coercion,
    _check_state_evolution,
    _check_pool_construction,
    _check_networkx,
    _check_shot_loops,
    _check_per_row_sums,
    _check_execute_calls,
    _check_ledger_reads,
    _check_weighted_choice,
    _check_startup_imports,
)


def lint_source(path: Path, source: str) -> list[Violation]:
    """All violations in one file's source text."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "R000", f"syntax error: {exc.msg}")]
    violations = []
    for check in CHECKS:
        violations.extend(check(path, tree))
    violations.sort(key=lambda v: (v.line, v.rule))
    return violations


def lint_paths(paths: list[Path]) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations = []
    parsed: dict[Path, ast.AST] = {}
    for file in files:
        source = file.read_text()
        violations.extend(lint_source(file, source))
        try:
            parsed[file] = ast.parse(source, filename=str(file))
        except SyntaxError:
            continue  # already reported as R000 by lint_source
    violations.extend(_check_dead_pass_functions(parsed))
    return violations


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [Path("src")]
    missing = [r for r in roots if not r.exists()]
    if missing:
        print(f"repo_lint: no such path: {', '.join(map(str, missing))}")
        return 2
    violations = lint_paths(roots)
    for violation in violations:
        print(violation.render())
    checked = sum(
        len(list(r.rglob("*.py"))) if r.is_dir() else 1 for r in roots
    )
    status = "FAIL" if violations else "ok"
    print(
        f"repo_lint: {checked} file(s), {len(violations)} violation(s) [{status}]"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
