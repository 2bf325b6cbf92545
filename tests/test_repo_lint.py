"""Per-detector tests for the repo-invariant AST lint (tools/repo_lint.py).

The tool is not a package (it lives in tools/, outside ``src``), so it is
loaded via importlib straight from its file path.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "repo_lint.py"


def _load():
    spec = importlib.util.spec_from_file_location("repo_lint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


repo_lint = _load()


def lint(source: str, path: str = "src/repro/module.py"):
    return repo_lint.lint_source(Path(path), textwrap.dedent(source))


def codes(source: str, path: str = "src/repro/module.py"):
    return [v.rule for v in lint(source, path)]


class TestR001DirectBackendConstruction:
    @pytest.mark.parametrize(
        "name", ["FakeBrisbane", "LocalSimulator", "FakeFalcon"]
    )
    def test_direct_call_flagged(self, name):
        assert codes(f"backend = {name}()") == ["R001"]

    def test_attribute_call_flagged(self):
        assert codes("b = repro.quantum.FakeBrisbane()") == ["R001"]

    def test_class_reference_allowed(self):
        # The registry pattern: pass the class as a zero-arg factory.
        assert codes("register_backend('local', LocalSimulator)") == []

    def test_string_mention_invisible(self):
        # Backend names inside the synthetic corpus must never fire.
        assert codes("CODE = 'backend = LocalSimulator()'") == []

    def test_registry_file_allowed(self):
        src = "provider.register('x', FakeBrisbane())"
        assert codes(src, "src/repro/quantum/execution/registry.py") == []
        assert codes(src, "quantum/execution/registry.py") == []

    def test_backend_module_allowed(self):
        assert codes("DEFAULT = LocalSimulator()", "src/repro/quantum/backend.py") == []

    def test_noisy_simulator_exempt(self):
        # Parameterized derived backends are legitimate outside the registry.
        assert codes("corrected = NoisySimulator(noise_model=nm)") == []

    def test_violation_points_at_line(self):
        found = lint("x = 1\ny = FakeBrisbane()\n")
        assert [(v.rule, v.line) for v in found] == [("R001", 2)]
        assert "get_backend" in found[0].message


class TestR002StatsDiff:
    def test_before_after_diff_flagged(self):
        src = """
        def measure(service):
            before = service.stats()
            do_work()
            after = service.stats()
            return after["simulations"] - before["simulations"]
        """
        found = lint(src)
        assert [v.rule for v in found] == ["R002"]
        assert "stats_scope" in found[0].message

    def test_single_stats_call_allowed(self):
        src = """
        def report(service):
            return service.stats()["simulations"]
        """
        assert codes(src) == []

    def test_one_call_per_function_allowed(self):
        src = """
        def before(service):
            return service.stats()

        def after(service):
            return service.stats()
        """
        assert codes(src) == []

    def test_async_function_covered(self):
        src = """
        async def measure(service):
            a = service.stats()
            b = service.stats()
            return a, b
        """
        assert codes(src) == ["R002"]

    def test_nested_function_calls_count_toward_outer(self):
        src = """
        def outer(service):
            x = service.stats()
            def inner():
                return service.stats()
            return inner
        """
        # Both the outer scope (sees 2 via ast.walk) and inner-only would be
        # a diff risk; the detector flags the outer function.
        assert "R002" in codes(src)


class TestR003ColumnFoldedMatmul:
    BAD_OPERATOR = """
    def kernel(matrix, states, k, rest):
        return matrix @ states.reshape(2**k, rest)
    """
    BAD_NP_MATMUL = """
    def kernel(matrix, states, k, rest):
        return np.matmul(matrix, states.reshape(2**k, rest))
    """
    GOOD_STACKED = """
    def kernel(matrix, tensor, batch, k):
        stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
        return np.matmul(matrix, stacked)
    """

    def test_operator_form_flagged_in_batchsim(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.BAD_OPERATOR, path) == ["R003"]

    def test_np_matmul_form_flagged_in_batchsim(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.BAD_NP_MATMUL, path) == ["R003"]

    def test_sanctioned_three_d_kernel_allowed(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.GOOD_STACKED, path) == []

    def test_outside_batchsim_not_flagged(self):
        # The rule guards the batch kernel's bit-identity contract only.
        assert codes(self.BAD_OPERATOR, "src/repro/quantum/statevector.py") == []

    def test_three_arg_reshape_allowed(self):
        src = """
        def kernel(matrix, states, batch, k):
            return np.matmul(matrix, states.reshape(batch, 2**k, -1))
        """
        assert codes(src, "src/repro/quantum/batchsim/state.py") == []


class TestR004DeadPassFunctions:
    """R004 is cross-file (it needs an "outside" to look for references in),
    so these tests drive ``lint_paths`` over a synthetic tree."""

    PASSES = """
    def used_pass(instructions):
        return instructions

    def dead_pass(instructions):
        return instructions

    def _private_helper(instructions):
        return instructions
    """
    CONSUMER_IMPORT = """
    from repro.quantum.transpiler.passes import used_pass
    """
    CONSUMER_ATTRIBUTE = """
    from repro.quantum.transpiler import passes

    def stack(instructions):
        return passes.used_pass(instructions)
    """

    def _tree(self, tmp_path, consumer_source):
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        passes = module_dir / "passes.py"
        passes.write_text(textwrap.dedent(self.PASSES))
        consumer = module_dir / "passmanager.py"
        consumer.write_text(textwrap.dedent(consumer_source))
        return tmp_path

    def test_unreferenced_public_pass_flagged(self, tmp_path):
        tree = self._tree(tmp_path, self.CONSUMER_IMPORT)
        found = repo_lint.lint_paths([tree])
        assert [(v.rule) for v in found] == ["R004"]
        assert "dead_pass" in found[0].message
        assert found[0].path.name == "passes.py"

    def test_attribute_reference_counts(self, tmp_path):
        tree = self._tree(tmp_path, self.CONSUMER_ATTRIBUTE)
        found = repo_lint.lint_paths([tree])
        # used_pass is reached via passes.used_pass; dead_pass still dies.
        assert [v.rule for v in found] == ["R004"]
        assert "dead_pass" in found[0].message

    def test_private_helpers_exempt(self, tmp_path):
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        (module_dir / "passes.py").write_text(
            "def _only_private(x):\n    return x\n"
        )
        (module_dir / "other.py").write_text("x = 1\n")
        assert repo_lint.lint_paths([tmp_path]) == []

    def test_skipped_when_only_pass_modules_linted(self, tmp_path):
        """Linting the pass file alone has no "outside"; the rule must not
        flag everything in that degenerate run."""
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        passes = module_dir / "passes.py"
        passes.write_text(textwrap.dedent(self.PASSES))
        assert repo_lint.lint_paths([passes]) == []

    def test_self_reference_does_not_count(self, tmp_path):
        """A pass calling itself (or a sibling in the same module) is still
        dead to every pass stack outside."""
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        (module_dir / "passes.py").write_text(textwrap.dedent("""
        def outer_pass(instructions):
            return inner_pass(instructions)

        def inner_pass(instructions):
            return instructions
        """))
        (module_dir / "other.py").write_text("x = 1\n")
        found = repo_lint.lint_paths([tmp_path])
        assert sorted(v.message.split(":")[1].split("(")[0].strip()
                      for v in found) == ["inner_pass", "outer_pass"]
        assert {v.rule for v in found} == {"R004"}

    def test_wired_tree_is_clean(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """
            from repro.quantum.transpiler.passes import used_pass
            from repro.x import dead_pass
            """,
        )
        # Once something outside imports it, the pass is live.
        assert repo_lint.lint_paths([tree]) == []


class TestR005ParamFloatCoercion:
    def test_subscript_coercion_flagged(self):
        assert codes("v = float(inst.params[0])") == ["R005"]

    def test_loop_variable_coercion_flagged(self):
        assert codes(
            """
            def f(inst):
                for p in inst.params:
                    use(float(p))
            """
        ) == ["R005"]

    def test_comprehension_variable_flagged(self):
        assert codes("vals = [float(p) for p in inst.params]") == ["R005"]

    def test_unrelated_float_allowed(self):
        assert codes("x = float(shots)\ny = float('1.5')") == []

    def test_sanctioned_helper_allowed(self):
        assert codes("vals = as_concrete(inst.params, context=name)") == []

    def test_binding_module_exempt(self):
        assert codes(
            "v = float(inst.params[0])",
            path="src/repro/quantum/parameters.py",
        ) == []


class TestR006FlatStateEvolution:
    LOOP = """
    def run(state, circuit, n):
        for inst in circuit:
            state = apply_matrix(state, inst.matrix(), inst.qubits, n)
        return state
    """

    def test_bare_call_flagged(self):
        assert codes(self.LOOP, "src/repro/quantum/simulator.py") == ["R006"]

    def test_attribute_call_flagged(self):
        src = "state = statevector.apply_matrix(state, m, [0], 1)"
        assert codes(src, "src/repro/qec/syndrome.py") == ["R006"]

    def test_each_call_reported(self):
        src = """
        def noisy(state, m, p, n):
            state = apply_matrix(state, m, [0], n)
            return apply_matrix(state, p, [1], n)
        """
        found = lint(src, "src/repro/quantum/backend.py")
        assert [(v.rule, v.line) for v in found] == [("R006", 3), ("R006", 4)]

    def test_statevector_module_flagged(self):
        # Statevector.evolve runs batchsim's loop: no module keeps the flat
        # kernel, the one that defined it included.
        assert codes(self.LOOP, "src/repro/quantum/statevector.py") == ["R006"]
        assert codes(self.LOOP, "src/repro/quantum/batchsim/engine.py") == [
            "R006"
        ]

    def test_batch_kernel_flagged_outside_batchsim(self):
        src = """
        def run(states, circuit, n):
            for inst in circuit:
                states = batch_apply_matrix(states, inst.matrix(), inst.qubits, n)
            return state.batch_apply_matrix(states, m, [0], n)
        """
        found = lint(src, "src/repro/quantum/statevector.py")
        assert [(v.rule, v.line) for v in found] == [("R006", 4), ("R006", 5)]
        assert "outside quantum/batchsim/" in found[0].message

    def test_batch_kernel_and_references_allowed(self):
        # batchsim owns the kernel; importing or passing the flat kernel
        # around is not a call.
        src = """
        from tests.serial_engine import apply_matrix
        states = batch_apply_matrix(states, m, [0], n)
        kernel = apply_matrix
        """
        assert codes(src, "src/repro/quantum/batchsim/state.py") == []
        assert codes(src, "src/repro/quantum/batchsim/engine.py") == []


class TestR007PoolConstruction:
    PROCESS = "pool = ProcessPoolExecutor(max_workers=2, mp_context=ctx)"
    THREAD = "pool = ThreadPoolExecutor(max_workers=4)"

    def test_process_pool_flagged_outside_parallel_module(self):
        path = "src/repro/quantum/execution/dispatch.py"
        found = lint(self.PROCESS, path)
        assert [v.rule for v in found] == ["R007"]
        assert "process_pool" in found[0].message

    def test_process_pool_allowed_in_parallel_module(self):
        assert codes(self.PROCESS, "src/repro/utils/parallel.py") == []

    def test_thread_pool_flagged_outside_service(self):
        # The parallel module owns process pools only: a chunk thread pool
        # there is exactly what the rule exists to keep out.
        assert codes(self.THREAD, "src/repro/utils/parallel.py") == ["R007"]
        assert codes(self.THREAD, "src/repro/evalsuite/runner.py") == ["R007"]

    def test_thread_pool_flagged_in_service(self):
        # Executions run on the caller's thread: no module owns a thread
        # pool, the execution service included.
        path = "src/repro/quantum/execution/service.py"
        found = lint(self.THREAD, path)
        assert [v.rule for v in found] == ["R007"]
        assert "caller's thread" in found[0].message

    def test_attribute_call_flagged(self):
        src = "pool = concurrent.futures.ThreadPoolExecutor(2)"
        assert codes(src) == ["R007"]

    def test_imports_and_annotations_allowed(self):
        src = """
        if TYPE_CHECKING:
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
        pool: ThreadPoolExecutor | None = None
        factory = ProcessPoolExecutor
        """
        assert codes(src) == []


class TestR008Networkx:
    PATH = "src/repro/qec/matching.py"

    @pytest.mark.parametrize(
        "src",
        [
            "matching = nx.max_weight_matching(graph, maxcardinality=True)",
            "matching = networkx.max_weight_matching(graph)",
            "matching = nx.algorithms.matching.max_weight_matching(graph)",
            "from networkx import max_weight_matching",
            "from networkx.algorithms.matching import max_weight_matching as mwm",
        ],
    )
    def test_networkx_matcher_flagged(self, src):
        found = lint(src, self.PATH)
        assert [v.rule for v in found] == ["R008"]
        assert "repro.qec.blossom" in found[0].message

    @pytest.mark.parametrize(
        "src",
        [
            "import networkx",
            "import networkx as nx",
            "import os, networkx.algorithms",
            "from networkx import shortest_path",
            "from networkx.algorithms import isomorphism",
            "def lazy():\n    import networkx as nx\n    return nx.Graph()",
        ],
    )
    def test_networkx_import_flagged(self, src):
        found = lint(src, "src/repro/quantum/topology.py")
        assert [v.rule for v in found] == ["R008"]
        assert "repro.utils.graphs" in found[0].message

    def test_flagged_in_any_module(self):
        src = "pairs = nx.max_weight_matching(g, maxcardinality=True)"
        assert codes(src, "src/repro/qec/unionfind.py") == ["R008"]

    def test_ports_and_lookalike_names_allowed(self):
        src = """
        from repro.qec.blossom import max_weight_matching
        from repro.utils.graphs import shortest_path
        import networkx_like
        mate = max_weight_matching(adj)
        path = shortest_path(adj, a, b)
        view = nx.max_weight_matching
        """
        assert codes(src, self.PATH) == []


class TestR009ShotLoops:
    PATH = "src/repro/experiments/figure2.py"

    @pytest.mark.parametrize(
        "src",
        [
            """
            for shot in range(shots):
                history = sample_memory(code, 3, p, p, rngs[shot])
            """,
            """
            while todo:
                history = syndrome.sample_memory(code, 3, p, p, todo.pop())
            """,
            """
            while sample_memory(code, 1, p, p, rng).detection_events:
                tries += 1
            """,
            "histories = [sample_memory(code, 3, p, p, rng) for rng in rngs]",
            "events = {i: sample_memory(code, 1, p, p, r) for i, r in pairs}",
            "failed = sum(decode(sample_memory(c, 1, p, p, r)) for r in rngs)",
            """
            def run(rngs):
                for rng in rngs:
                    if rng is not None:
                        yield qec.syndrome.sample_memory(code, 2, p, p, rng)
            """,
        ],
    )
    def test_per_shot_loop_flagged(self, src):
        found = lint(src, self.PATH)
        assert [v.rule for v in found] == ["R009"]
        assert "memory_blocks" in found[0].message

    def test_nested_loops_report_the_call_once(self):
        src = """
        for d in distances:
            for shot in range(shots):
                h = sample_memory(codes[d], d, p, p, rngs[shot])
        """
        assert codes(src, "src/repro/qec/experiments.py") == ["R009"]

    def test_single_trace_and_block_sampler_allowed(self):
        src = """
        from repro.qec.syndrome import memory_blocks, sample_memory
        history = sample_memory(code, rounds, p, p, rng, error_type="x")
        for t in range(rounds):
            lines.append(history.injected[t])
        for block in memory_blocks(code, rounds, p, p, rngs):
            block = sample_memory_block(code, rounds, p, p, [rng])
        for h in [sample_memory(code, 1, p, p, rng)]:
            pass
        sampler = sample_memory
        """
        assert codes(src, self.PATH) == []


class TestR010PerRowSums:
    PATH = "src/repro/quantum/batchsim/state.py"

    @pytest.mark.parametrize(
        "src",
        [
            """
            p1 = np.fromiter(
                (row.sum() for row in block), dtype=np.float64, count=len(block)
            )
            """,
            "p1 = np.array([np.sum(row) for row in block])",
            "p1 = [numpy.sum(block[i], axis=0) for i in range(len(block))]",
            "totals = {i: (row ** 2).sum() for i, row in enumerate(block)}",
            "norms = {abs(row).sum() for row in block}",
            """
            def probabilities(block):
                return [[cell.sum() for cell in row] for row in block]
            """,
        ],
    )
    def test_per_row_sum_flagged(self, src):
        found = lint(src, self.PATH)
        assert [v.rule for v in found] == ["R010"]
        assert "_pairwise_row_sums" in found[0].message

    def test_flagged_anywhere_under_batchsim(self):
        src = "p = [row.sum() for row in block]"
        assert codes(src, "src/repro/quantum/batchsim/engine.py") == ["R010"]
        assert codes(src, "quantum/batchsim/planner.py") == ["R010"]

    def test_whole_array_and_builtin_sums_allowed(self):
        src = """
        p1 = _pairwise_row_sums(np.abs(states[:, ones]) ** 2)
        total = block.sum(axis=1)
        width = sum(plan)
        counts = [sum(widths) for widths in plans]
        for row in block:
            total += row.sum()
        """
        assert codes(src, self.PATH) == []

    def test_other_directories_allowed(self):
        src = "p = [row.sum() for row in block]"
        assert codes(src, "src/repro/quantum/statevector.py") == []
        assert codes(src, "src/repro/qec/experiments.py") == []
        assert codes(src, "src/repro/batchsim.py") == []


class TestR011ExecutePrimitive:
    @pytest.mark.parametrize(
        "src",
        [
            "counts, mem = backend.execute_circuit(qc, 1024, 7, False)",
            "counts, _ = execute_circuit(qc, shots, seed)",
            "result = get_backend('ideal').execute_circuit(qc, 64)",
            """
            class Wrapped(Backend):
                def execute_circuit(self, circuit, shots, seed=None, memory=False):
                    return super().execute_circuit(circuit, shots, seed, memory)
            """,
        ],
    )
    def test_direct_call_flagged(self, src):
        found = lint(src, "src/repro/agents/sandbox.py")
        assert [v.rule for v in found] == ["R011"]
        assert "ExecutionService.run" in found[0].message

    def test_flagged_elsewhere_in_the_execution_package(self):
        src = "counts = backend.execute_circuit(qc, 64)"
        assert codes(src, "src/repro/quantum/execution/dispatch.py") == ["R011"]
        assert codes(src, "src/repro/quantum/backend.py") == ["R011"]

    def test_service_call_and_definitions_allowed(self):
        call = "outcome = backend.execute_circuit(unit.circuit, 64, 1, False)"
        assert codes(call, "src/repro/quantum/execution/service.py") == []
        definition = """
        class MemoryBackend(Backend):
            def execute_circuit(self, circuit, shots, seed=None, memory=False):
                return run_memory(circuit, shots, seed)
        primitive = Backend.execute_circuit
        """
        assert codes(definition, "src/repro/qec/experiments.py") == []


class TestR012LedgerReads:
    PATH = "src/repro/experiments/generate_report.py"

    @pytest.mark.parametrize(
        "src",
        [
            "stats = default_service().stats()",
            "stats = service.stats()",
            """
            with stats_scope("figure4") as scope:
                counts = service.run(qc, shots=64, seed=1)
            """,
            "scope = service.stats_scope()",
            "from repro.quantum.execution.scopes import COUNTERS",
            "from repro.quantum.execution.scopes import SCOPE_FIELDS",
            "from repro.quantum.execution import get_backend, stats_scope",
        ],
    )
    def test_ledger_read_flagged(self, src):
        found = lint(src, self.PATH)
        assert [v.rule for v in found] == ["R012"]
        assert "repro report prints the ledger" in found[0].message

    def test_flagged_in_every_driver(self):
        src = "counters = scope.as_dict() if service.stats() else {}"
        assert codes(src, "src/repro/experiments/figure4.py") == ["R012"]
        assert codes(src, "experiments/ablations.py") == ["R012"]

    def test_results_and_other_packages_allowed(self):
        src = """
        from repro.quantum.execution import default_service, get_backend
        counts = default_service().run(qc, shots=64, seed=1).result()
        rate = statistics.mean(rates)
        stats = binomial_confidence_interval(good, total)
        """
        assert codes(src, self.PATH) == []
        ledger = "stats = default_service().stats()"
        assert codes(ledger, "src/repro/cli.py") == []
        assert codes(ledger, "src/repro/evalsuite/reporting.py") == []
        assert codes(ledger, "src/repro/qec/experiments.py") == []


class TestR013WeightedChoice:
    PATH = "src/repro/quantum/simulator.py"

    @pytest.mark.parametrize(
        "src",
        [
            "outcome_idx = rng.choice(n, size=s, p=q)",
            "draws = np.random.default_rng(1).choice(4, p=q)",
            "draws = rng.choice(4, 10, True, q)",
        ],
    )
    def test_weighted_choice_flagged(self, src):
        found = lint(src, self.PATH)
        assert [v.rule for v in found] == ["R013"]
        assert "sample_group" in found[0].message

    def test_flagged_anywhere_under_quantum(self):
        src = "index = rng.choice(n, size=s, p=q)"
        assert codes(src, "src/repro/quantum/batchsim/engine.py") == ["R013"]
        assert codes(src, "src/repro/quantum/statevector.py") == ["R013"]

    def test_unweighted_and_other_packages_allowed(self):
        # quantum/library.py picks gate names unweighted.
        unweighted = """
        qc.append(str(rng.choice(names)), [q])
        a, b = rng.choice(num_qubits, size=2, replace=False)
        """
        assert codes(unweighted, "src/repro/quantum/library.py") == []
        weighted = "token = str(rng.choice(choices, p=weights))"
        assert codes(weighted, "src/repro/llm/ngram.py") == []
        assert codes(weighted, "tests/serial_engine.py") == []


class TestR014StartupImports:
    @pytest.mark.parametrize(
        "src",
        [
            "import urllib.request",
            "import os, socket",
            "from http.server import ThreadingHTTPServer",
            "import socketserver",
            "import ssl as _ssl",
            "import multiprocessing",
            "from concurrent.futures import FIRST_EXCEPTION, wait",
            "try:\n    import ssl\nexcept ImportError:\n    ssl = None",
            "class Server:\n    from http import server",
        ],
    )
    def test_module_level_stdlib_import_flagged(self, src):
        found = lint(src, "src/repro/utils/parallel.py")
        assert [v.rule for v in found] == ["R014"]
        assert "inside the function" in found[0].message

    @pytest.mark.parametrize(
        "src",
        [
            "from repro.quantum.execution.remote_cache import RemoteResultCache",
            "import repro.quantum.execution.dispatch",
            "from repro.quantum.execution import tenants",
            "from repro.quantum.execution.jobstore import JobStore",
            "from repro.quantum.execution.metrics import serving_metrics",
        ],
    )
    def test_module_level_serving_tier_import_flagged(self, src):
        for path in (
            "src/repro/quantum/execution/__init__.py",
            "src/repro/quantum/execution/cache.py",
            "src/repro/cli.py",
        ):
            found = lint(src, path)
            assert [v.rule for v in found] == ["R014"], path
            assert "the serving tier's" in found[0].message

    def test_function_level_imports_allowed(self):
        src = """
        def process_pool(workers):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            return ProcessPoolExecutor(workers)

        class Service:
            def __init__(self, url):
                from repro.quantum.execution.remote_cache import RemoteResultCache
                self.remote = RemoteResultCache(url)
        """
        assert codes(src, "src/repro/utils/parallel.py") == []

    def test_type_checking_imports_allowed(self):
        src = """
        from typing import TYPE_CHECKING
        import typing

        if TYPE_CHECKING:
            from concurrent.futures import ProcessPoolExecutor
            from repro.quantum.execution.remote_cache import RemoteResultCache
        if typing.TYPE_CHECKING:
            import socket
        """
        assert codes(src, "src/repro/quantum/execution/cache.py") == []

    def test_type_checking_else_branch_flagged(self):
        src = """
        if TYPE_CHECKING:
            pass
        else:
            import multiprocessing
        """
        assert codes(src) == ["R014"]

    def test_serving_tier_imports_itself_and_the_stack(self):
        src = """
        import urllib.request
        from http.server import ThreadingHTTPServer
        from repro.quantum.execution.remote_cache import CacheServer
        """
        for module in ("remote_cache", "dispatch", "tenants", "jobstore", "metrics"):
            assert codes(src, f"src/repro/quantum/execution/{module}.py") == []

    def test_core_modules_and_lookalikes_allowed(self):
        src = """
        import urllib_like
        from repro.quantum.execution import ExecutionService, default_service
        from repro.quantum.execution.service import ExecutionService
        from repro.quantum.execution.disk_cache import DiskResultCache
        from repro.utils.parallel import parallel_map
        from repro.evalsuite import metrics
        """
        assert codes(src, "src/repro/evalsuite/runner.py") == []


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        found = lint("def broken(:\n")
        assert [v.rule for v in found] == ["R000"]

    def test_current_source_tree_is_clean(self):
        root = TOOL.parent.parent
        assert repo_lint.lint_paths([root / "src"]) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert repo_lint.main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("b = FakeBrisbane()\n")
        assert repo_lint.main([str(dirty)]) == 1
        assert repo_lint.main([str(tmp_path / "missing.py")]) == 2
        out = capsys.readouterr().out
        assert "R001" in out and "no such path" in out

    def test_violation_render_format(self):
        v = repo_lint.Violation(Path("a/b.py"), 7, "R001", "msg")
        assert v.render() == "a/b.py:7: R001 msg"
