"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``            list the available experiment drivers
``run <name>``             run one driver (figure2, figure3, figure4,
                           table1, multipass, ablations)
``report [path]``          regenerate EXPERIMENTS.md (results only) and
                           print the execution service's totals on stdout
``eval <arm>``             evaluate one pipeline arm on the test suite
                           (arm = base | ft | rag | cot | scot | mp3);
                           ``--workers N`` fans (task, sample) episodes
                           across N worker processes — bit-identical to the
                           serial run — with ``--progress`` showing a meter;
                           ``--cache-dir`` persists execution results on disk
                           so a repeat run simulates nothing and
                           ``--remote-cache URL`` shares a warm store across
                           machines; cache misses always run on the
                           vectorised batch-axis engine where they can
``demo``                   one multi-agent generation episode, verbose
``lint``                   run the static circuit analyzer over QASM files,
                           one task's reference program (``--task``), or the
                           whole task bank (``--suite``); prints coded
                           diagnostics (QA1xx errors / QA2xx warnings /
                           QA3xx info) and exits nonzero on errors
``backends``               list registered execution backends and aliases
``transpile``              lower a library circuit to a backend through the
                           cached transpile stage; ``--explain`` prints the
                           per-pass timing / instruction-delta table from
                           the PassManager
``cache``                  inspect, ``--clear``, or ``--prune`` (with
                           ``--max-bytes/--max-entries/--max-age`` bounds)
                           the on-disk result cache
``cache-server``           serve a cache directory over HTTP so a fleet of
                           workers shares one warm store (``--token`` requires
                           shared-token auth on every endpoint)
``eval-server <arm>``      evaluate one arm as a *distribution coordinator*:
                           serves the result cache and leases episode chunks
                           to remote ``eval-worker`` processes, falling back
                           to the local pool when none attach; results are
                           bit-identical to ``eval`` for any topology
``eval-worker``            attach to an ``eval-server`` (``--url``), lease
                           and execute episode chunks, share its cache
``eval ... --distributed`` shorthand: start an ephemeral coordinator around
                           one ``eval`` run; ``report --distributed`` does
                           the same for the evaluation drivers (figure3,
                           table1, multipass — the other sections stay on
                           the local pool)
"""

from __future__ import annotations

import argparse
import os
import sys

#: ``repro.quantum.execution.service.CACHE_URL_ENV``, named here so that
#: :func:`main` can check it without importing the execution stack.
CACHE_URL_ENV = "REPRO_CACHE_URL"

EXPERIMENTS = ("figure2", "figure3", "figure4", "table1", "multipass", "ablations")

ARMS = {
    "base": dict(fine_tuned=False),
    "ft": dict(fine_tuned=True),
    "rag": dict(fine_tuned=True, rag_docs=True, rag_guides=True),
    "cot": dict(fine_tuned=True, prompt_style="cot"),
    "scot": dict(fine_tuned=True, prompt_style="scot"),
    "mp3": dict(fine_tuned=True),
}


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1 (``--samples``,
    ``--workers``): a bad value exits 2 with a usage message before any
    work runs."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _http_url(text: str) -> str:
    """argparse type of a server URL (``--remote-cache``, ``--url``): one
    that is not http(s):// exits 2 with a usage message before any work
    runs."""
    if not text.startswith(("http://", "https://")):
        raise argparse.ArgumentTypeError(
            f"expected an http(s):// URL, got {text!r}"
        )
    return text


def _cmd_experiments(_args) -> int:
    for name in EXPERIMENTS:
        print(f"  {name:10s}  python -m repro.experiments.{name}")
    return 0


def _cmd_run(args) -> int:
    import importlib

    if args.name not in EXPERIMENTS:
        print(f"unknown experiment '{args.name}'; choose from {EXPERIMENTS}")
        return 2
    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def _resolve_token(token: str | None) -> str | None:
    """An explicit ``--token`` wins (``--token ""`` means deliberately
    open); an omitted flag falls back to ``REPRO_CACHE_TOKEN``."""
    from repro.quantum.execution.remote_cache import resolve_token

    return resolve_token(token)


def _served_dir(cache_dir: str | None) -> tuple[str, bool]:
    """The store a coordinator serves: explicit flag, else ``REPRO_CACHE_DIR``,
    else a fresh temp dir.  The flag says "ephemeral — remove when done"."""
    import tempfile

    from repro.quantum.execution.service import CACHE_DIR_ENV

    explicit = cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if explicit:
        return explicit, False
    return tempfile.mkdtemp(prefix="repro-eval-server-"), True


def _serve_store_locally(served: str) -> None:
    """Point the default service's disk tier at the served store, so the
    coordinator's own (fallback) execution reads a pre-warmed directory and
    warms it for the workers — the same wiring ``eval --cache-dir`` does."""
    from repro.quantum.execution import (
        CacheLimits,
        ExecutionService,
        set_default_service,
    )

    set_default_service(
        ExecutionService(cache_dir=served, cache_limits=CacheLimits.from_env())
    )


def _stop_coordinator(coordinator, served: str, ephemeral: bool) -> None:
    import shutil

    coordinator.stop()
    if ephemeral:
        # Nothing outlives an ad-hoc coordinator: drop its temp store (and
        # any service handle onto it) instead of littering /tmp per run.
        from repro.quantum.execution import set_default_service

        set_default_service(None)
        shutil.rmtree(served, ignore_errors=True)


def _load_tenants_or_fail(tenant_file: str | None):
    """Resolve ``--tenant-file`` / ``$REPRO_TENANT_FILE`` into a registry.

    Returns ``None`` for single-tenant mode, a ``TenantRegistry`` on
    success, and ``Ellipsis`` (after printing the error) when the file is
    missing or malformed — a typo'd tenant file must refuse to serve, not
    silently fall back to open/single-tenant."""
    from repro.quantum.execution.tenants import load_tenants

    try:
        return load_tenants(tenant_file)
    except (OSError, ValueError) as exc:
        print(f"cannot load tenant file: {exc}")
        return Ellipsis


def _start_coordinator(
    served: str,
    host: str,
    port: int,
    token: str | None,
    fallback_workers: int | None = None,
    lease_timeout: float | None = None,
    tenants=None,
    job_store=None,
):
    """Boot an EvalCoordinator on a resolved store; announcements go to
    stderr so eval tables on stdout stay byte-identical to the
    non-distributed run."""
    import sys

    from repro.quantum.execution.dispatch import (
        DEFAULT_LEASE_TIMEOUT,
        EvalCoordinator,
    )

    coordinator = EvalCoordinator(
        served,
        host=host,
        port=port,
        token=token,
        fallback_workers=fallback_workers,
        lease_timeout=(
            DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
        ),
        tenants=tenants,
        job_store=job_store,
    ).start()
    print(
        f"coordinator serving cache + work queue at {coordinator.url} "
        f"(store: {served}{', token auth on' if token else ''}"
        + (f", {len(tenants)} tenant(s)" if tenants is not None else "")
        + (", job store on" if job_store is not None else "")
        + ")",
        file=sys.stderr,
    )
    print(
        f"attach workers:  repro eval-worker --url {coordinator.url}"
        + (" --token <token>" if token else ""),
        file=sys.stderr,
    )
    print(
        f"scrape metrics:  curl {coordinator.url}/metrics",
        file=sys.stderr,
    )
    return coordinator


def _cmd_report(args) -> int:
    from repro.experiments.generate_report import collect, render

    coordinator = None
    if args.distributed:
        served, ephemeral = _served_dir(None)
        _serve_store_locally(served)
        coordinator = _start_coordinator(
            served, "127.0.0.1", args.port, _resolve_token(args.token),
            fallback_workers=args.workers,
        )
    try:
        if coordinator is not None:
            from repro.evalsuite import distributed

            with distributed(coordinator):
                sections = collect(
                    samples_per_task=args.samples, workers=args.workers
                )
        else:
            sections = collect(
                samples_per_task=args.samples, workers=args.workers
            )
        with open(args.path, "w") as handle:
            handle.write(render(sections))
        print(f"wrote {args.path} ({len(sections)} sections)")
        # Before the coordinator's cleanup, which drops the service.
        _print_service_totals()
    finally:
        if coordinator is not None:
            _stop_coordinator(coordinator, served, ephemeral)
    return 0


def _arm_settings(arm: str, samples: int, optimization_level: int | None = None):
    """The one arm → PipelineSettings mapping shared by every eval-ish
    command (``eval`` and ``eval-server`` must evaluate identical
    configurations or their byte-identical guarantee is meaningless);
    ``None`` for an unknown arm, after printing the choices."""
    from repro.evalsuite import PipelineSettings
    from repro.llm.faults import ModelConfig

    if arm not in ARMS:
        print(f"unknown arm '{arm}'; choose from {sorted(ARMS)}")
        return None
    return PipelineSettings(
        ModelConfig("3b", **ARMS[arm]),
        max_passes=3 if arm == "mp3" else 1,
        samples_per_task=samples,
        label=arm,
        optimization_level=optimization_level,
    )


def _cmd_eval(args) -> int:
    from repro.evalsuite import (
        build_suite,
        comparison_table,
        evaluate,
        execution_stats_table,
        progress_printer,
    )
    from repro.quantum.execution import (
        ExecutionService,
        set_default_service,
        validate_from_env,
    )

    settings = _arm_settings(args.arm, args.samples, args.opt_level)
    if settings is None:
        return 2
    served, ephemeral = None, False
    if args.distributed:
        # The coordinator's served store doubles as this run's disk tier,
        # so the local (fallback) execution warms exactly what the workers
        # read and a pre-warmed store is actually consulted.
        served, ephemeral = _served_dir(args.cache_dir)
    cache_dir = args.cache_dir or served
    if cache_dir or args.remote_cache or args.validate:
        # Rebuild the shared service with the requested persistence/pre-flight;
        # everything downstream (sandboxed programs, graders, QEC memory
        # experiments) funnels through it.  The REPRO_CACHE_MAX_* bounds
        # apply here exactly as they do to the env-built default service.
        from repro.quantum.execution import CacheLimits

        set_default_service(
            ExecutionService(
                cache_dir=cache_dir or None,
                cache_limits=(
                    CacheLimits.from_env() if cache_dir else None
                ),
                remote_url=args.remote_cache or None,
                validate=args.validate or validate_from_env(),
            )
        )
    coordinator = None
    if args.distributed:
        coordinator = _start_coordinator(
            served, "127.0.0.1", args.port,
            _resolve_token(args.token), fallback_workers=args.workers,
        )
    try:
        result = evaluate(
            settings,
            build_suite(),
            workers=args.workers,
            progress=progress_printer(args.arm) if args.progress else None,
            coordinator=coordinator,
        )
        print(comparison_table([result]).render())
        if args.exec_stats:
            print()
            print(execution_stats_table([result]).render())
            # Before the coordinator's cleanup, which drops the service.
            _print_service_totals()
    finally:
        if coordinator is not None:
            _stop_coordinator(coordinator, served, ephemeral)
    return 0


def _cmd_demo(args) -> int:
    from repro.agents import Orchestrator
    from repro.errors import BackendError
    from repro.llm import make_model, synthesize
    from repro.quantum.execution import resolve_backend

    if args.qec and not args.backend:
        print("error: --qec needs a device target; pass e.g. --backend brisbane")
        return 2
    try:
        target = resolve_backend(args.backend) if args.backend else None
    except BackendError as exc:
        print(f"error: {exc}")
        return 2
    orchestrator = Orchestrator(
        model=make_model(fine_tuned=True, prompt_style="scot"), max_passes=3
    )
    artifact = orchestrator.run_episode(
        "Implement Grover search over 3 qubits for the marked state 101, "
        "using the optimal number of iterations.",
        params={"marked": "101"},
        reference_code=synthesize("grover", {"marked": "101"}, "correct"),
        seed=args.seed,
        target_backend=target,
        apply_qec=args.qec,
    )
    print(artifact.log.render())
    print(f"\naccepted: {artifact.accepted}")
    if artifact.qec is not None:
        print(
            f"qec: suppression {artifact.qec.suppression_factor:.4f} on "
            f"'{artifact.qec.corrected_backend.name}'"
        )
    print("\n--- generated program ---")
    print(artifact.code)
    return 0


def _limits_from_args(args):
    """A CacheLimits from --max-* flags, falling back to the environment."""
    from repro.quantum.execution import CacheLimits

    kwargs = {}
    if getattr(args, "max_bytes", None) is not None:
        kwargs["max_bytes"] = args.max_bytes
    if getattr(args, "max_entries", None) is not None:
        kwargs["max_entries"] = args.max_entries
    if getattr(args, "max_age", None) is not None:
        kwargs["max_age_seconds"] = args.max_age
    return CacheLimits(**kwargs) if kwargs else CacheLimits.from_env()


def _cmd_cache(args) -> int:
    from repro.quantum.execution import DiskResultCache
    from repro.quantum.execution.service import CACHE_DIR_ENV

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(f"no cache dir: pass --cache-dir or set {CACHE_DIR_ENV}")
        return 2
    if not os.path.isdir(cache_dir):
        # Inspection must not create directories: a typo'd path should be
        # reported, not silently materialised as an empty cache.
        print(f"no cache at {cache_dir}: directory does not exist")
        return 2
    disk = DiskResultCache(cache_dir)
    entries = len(disk)
    if args.clear:
        disk.clear()
        print(f"cleared {entries} entries from {cache_dir}")
        return 0
    if args.prune:
        limits = _limits_from_args(args)
        if limits is None or not limits.bounded:
            print(
                "nothing to prune against: pass --max-bytes/--max-entries/"
                "--max-age or set REPRO_CACHE_MAX_BYTES/_MAX_ENTRIES/_MAX_AGE"
            )
            return 2
        evicted = disk.prune(limits)
        print(
            f"pruned {evicted} of {entries} entries from {cache_dir}: "
            f"{len(disk)} entries, {disk.size_bytes()} bytes remain"
        )
        return 0
    print(
        f"execution result cache at {cache_dir}: {entries} entries, "
        f"{disk.size_bytes()} bytes"
    )
    return 0


def _cmd_cache_server(args) -> int:
    from repro.quantum.execution import CacheServer
    from repro.quantum.execution.service import CACHE_DIR_ENV

    cache_dir = args.dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(f"no cache dir: pass --dir or set {CACHE_DIR_ENV}")
        return 2
    limits = _limits_from_args(args)
    token = _resolve_token(args.token)
    tenants = _load_tenants_or_fail(args.tenant_file)
    if tenants is Ellipsis:
        return 2
    server = CacheServer(
        cache_dir, host=args.host, port=args.port, limits=limits,
        quiet=False, token=token, tenants=tenants,
    )
    print(
        f"serving execution result cache {cache_dir} "
        f"({len(server.disk)} entries) at {server.url}"
        + (f" with limits {limits}" if limits is not None else "")
        + (" [token auth on]" if token else "")
        + (f" [{len(tenants)} tenant(s)]" if tenants is not None else "")
    )
    print("point workers at it:  repro eval <arm> --remote-cache "
          f"{server.url}   (or REPRO_CACHE_URL={server.url})")
    print(f"scrape metrics:  curl -H 'Authorization: Bearer <key>' "
          f"{server.url}/metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_eval_server(args) -> int:
    from repro.evalsuite import (
        build_suite,
        comparison_table,
        evaluate,
        execution_stats_table,
        progress_printer,
    )

    settings = _arm_settings(args.arm, args.samples)
    if settings is None:
        return 2
    tenants = _load_tenants_or_fail(args.tenant_file)
    if tenants is Ellipsis:
        return 2
    served, ephemeral = _served_dir(args.dir)
    # The coordinator's own (fallback) execution must read and warm the
    # store it serves, exactly like `eval --cache-dir` would.
    _serve_store_locally(served)
    job_store = None
    if not args.no_job_store:
        # `jobs/` beside (not inside a glob of) the cache entries, so the
        # store's eviction sweep never touches job records.
        job_store = args.job_store or os.path.join(served, "jobs")
    coordinator = _start_coordinator(
        served, args.host, args.port, _resolve_token(args.token),
        fallback_workers=args.fallback_workers,
        lease_timeout=args.lease_timeout,
        tenants=tenants,
        job_store=job_store,
    )
    try:
        result = evaluate(
            settings,
            build_suite(),
            progress=progress_printer(args.arm) if args.progress else None,
            coordinator=coordinator,
        )
    except KeyboardInterrupt:
        print("\nshutting down")
        return 1
    finally:
        _stop_coordinator(coordinator, served, ephemeral)
    print(comparison_table([result]).render())
    if args.exec_stats:
        print()
        print(execution_stats_table([result]).render())
    return 0


def _cmd_eval_worker(args) -> int:
    import sys

    from repro.quantum.execution import (
        ExecutionService,
        RemoteResultCache,
        ResultCache,
        set_default_service,
    )
    from repro.quantum.execution.dispatch import run_worker

    token = _resolve_token(args.token)
    cache_url = None if args.no_remote_cache else (args.remote_cache or args.url)
    if cache_url:
        # The coordinator serves the fleet cache on the same port, so by
        # default a worker shares results through the very server that hands
        # it work — zero simulations against a warm store.
        remote = RemoteResultCache(cache_url, token=token)
        set_default_service(ExecutionService(cache=ResultCache(remote=remote)))
        print(f"sharing execution results via {cache_url}", file=sys.stderr)
    print(
        f"serving coordinator {args.url} with {args.workers} worker "
        f"thread(s)",
        file=sys.stderr,
    )
    try:
        completed = run_worker(
            args.url,
            token=token,
            workers=args.workers,
            max_idle=args.max_idle,
            poll_interval=args.poll_interval,
        )
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
        return 0
    print(f"completed {completed} chunk(s)", file=sys.stderr)
    return 0


def _lint_targets(args) -> tuple[list, int]:
    """Resolve lint inputs to ``(label, circuit | None, failure)`` triples.

    ``failure`` is a message for targets that never produced a circuit (an
    unreadable/unparsable QASM file, a reference program that crashed); those
    count as errors.  A reference program that runs clean but publishes no
    ``qc`` artifact is skipped with a note, not failed — statevector-style
    tasks are allowed to expose only ``state``/``counts``.
    """
    from repro.errors import ReproError
    from repro.quantum.circuit import QuantumCircuit
    from repro.quantum.qasm import qasm_to_circuit

    targets: list = []
    status = 0
    for path in args.files:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            targets.append((path, None, f"cannot read: {exc}"))
            continue
        try:
            targets.append((path, qasm_to_circuit(text), None))
        except ReproError as exc:
            targets.append((path, None, f"QASM parse failed: {exc}"))
    if args.task or args.suite:
        from repro.agents.sandbox import run_code
        from repro.evalsuite import build_suite

        tasks = build_suite()
        if args.task:
            tasks = [t for t in tasks if t.case_id == args.task]
            if not tasks:
                print(f"unknown task '{args.task}'; see the suite's case ids")
                return targets, 2
        for task in tasks:
            label = f"task {task.case_id} ({task.case.family})"
            execution = run_code(task.reference_code)
            if not execution.ok:
                targets.append(
                    (label, None,
                     f"reference program failed: {execution.exception_type}")
                )
                continue
            qc = execution.artifact("qc")
            if isinstance(qc, QuantumCircuit):
                targets.append((label, qc, None))
            else:
                print(f"{label}: no 'qc' artifact; skipped")
    return targets, status


def _cmd_lint(args) -> int:
    from repro.quantum.analysis import analyze_circuit
    from repro.quantum.simulator import MAX_DENSE_QUBITS

    if not args.files and not args.task and not args.suite:
        print("nothing to lint: pass QASM files, --task ID, or --suite")
        return 2
    targets, status = _lint_targets(args)
    if status:
        return status
    total_errors = 0
    total_warnings = 0
    linted = 0
    for label, circuit, failure in targets:
        if circuit is None:
            print(f"{label}: ERROR {failure}")
            total_errors += 1
            continue
        linted += 1
        analysis = analyze_circuit(circuit, max_qubits=MAX_DENSE_QUBITS)
        shown = analysis.diagnostics if args.verbose else [
            d for d in analysis.diagnostics if d.severity != "info"
        ]
        total_errors += len(analysis.errors)
        total_warnings += len(analysis.warnings)
        marker = "ok" if analysis.ok else "FAIL"
        print(f"{label}: {marker}")
        for diagnostic in shown:
            print(f"  {diagnostic.render()}")
    print(
        f"linted {linted} circuit(s): {total_errors} error(s), "
        f"{total_warnings} warning(s)"
    )
    return 1 if total_errors else 0


def _cmd_backends(_args) -> int:
    from repro.quantum.execution import get_backend, provider

    registry = provider()
    for name in registry.names():
        backend = get_backend(name)
        aliases = registry.aliases_of(name)
        alias_note = f"  (aliases: {', '.join(aliases)})" if aliases else ""
        noise = "noisy" if backend.noise_model is not None else "ideal"
        coupled = (
            "coupled" if backend.coupling_map is not None else "fully-connected"
        )
        print(
            f"  {name:18s} {backend.num_qubits:>4d} qubits  "
            f"{noise:5s}  {coupled}{alias_note}"
        )
    print()
    _print_service_totals()
    return 0


def _print_service_totals() -> None:
    """Print the default service's ledger on one line: ``<value> <name>``
    for every registered counter, the cache hit rate and the service's
    settings.  It covers this process only (forked workers keep their own)
    and changes with the worker count and the cache tiers, which is why it
    goes to stdout and never into a results file."""
    from repro.quantum.execution import default_service
    from repro.quantum.execution.scopes import SCOPE_FIELDS

    stats = default_service().stats()
    parts = [f"{stats[name]} {name.replace('_', ' ')}" for name in SCOPE_FIELDS]
    parts += [
        f"{stats['cache_hit_rate']:.1%} cache hit rate",
        f"validate={stats['validate']}",
    ]
    if "cache_dir" in stats:
        parts.append(f"cache_dir={stats['cache_dir']}")
    if "cache_url" in stats:
        parts.append(
            f"cache_url={stats['cache_url']} "
            f"({stats['cache_remote_errors']} remote errors)"
        )
    print(f"service totals: {', '.join(parts)}")


def _library_circuit(name: str, qubits: int):
    from repro.quantum import library

    if name == "bell":
        return library.bell_pair(measure=True)
    if name == "ghz":
        return library.ghz_state(qubits, measure=True)
    if name == "qft":
        return library.qft(qubits)
    return library.grover(qubits, ["1" * qubits])


def _cmd_transpile(args) -> int:
    from repro.errors import BackendError
    from repro.quantum.execution import default_service, resolve_backend
    from repro.quantum.transpiler import build_pass_manager, resolve_lowering

    circuit = _library_circuit(args.circuit, args.qubits)
    try:
        backend = resolve_backend(args.backend) if args.backend else None
    except BackendError as exc:
        print(f"error: {exc}")
        return 2
    service = default_service()
    with service.stats_scope() as scope:
        out = service.transpile(
            circuit, backend=backend, optimization_level=args.level
        )
    source = "cache" if scope.get("transpile_cache_hits") else "pass manager"
    target = backend.name if backend is not None else "all-to-all"
    print(
        f"{circuit.name}: {circuit.num_qubits} qubits, "
        f"{circuit.size()} instructions"
    )
    print(
        f"-> {out.name} on {target} [level {args.level}, from {source}]: "
        f"{out.num_qubits} qubits, {out.size()} instructions, "
        f"depth {out.depth()}"
    )
    print(
        f"   layout {out.metadata['layout']}  "
        f"final {out.metadata['final_layout']}"
    )
    if args.explain:
        # Introspection path: run the pass stack directly (bypassing the
        # cache) so the per-pass timings describe real work, not a lookup.
        coupling_map, basis = resolve_lowering(backend, None, None)
        manager = build_pass_manager(
            coupling_map=coupling_map, basis=basis,
            optimization_level=args.level,
        )
        manager.run(circuit)
        print()
        print(f"{'pass':<18s} {'in':>5s} {'out':>5s} {'delta':>6s} {'ms':>9s}")
        for record in manager.records:
            print(
                f"{record.name:<18s} {record.instructions_in:>5d} "
                f"{record.instructions_out:>5d} {record.delta:>+6d} "
                f"{record.seconds * 1e3:>9.3f}"
            )
    return 0


def _cmd_variational(args) -> int:
    from repro.errors import BackendError, CircuitError
    from repro.quantum.execution import default_service, resolve_backend
    from repro.quantum.variational import (
        hardware_efficient_ansatz,
        maxcut_energy,
        minimize,
        qaoa_ansatz,
    )

    n = args.qubits
    if n < 3:
        print(f"error: a ring needs at least 3 qubits, got --qubits {n}")
        return 2
    edges = [(i, (i + 1) % n) for i in range(n)]
    try:
        if args.ansatz == "qaoa":
            ansatz = qaoa_ansatz(n, edges, reps=args.reps)
        else:
            ansatz = hardware_efficient_ansatz(n, reps=args.reps)
        backend = resolve_backend(args.backend) if args.backend else "ideal"
    except (BackendError, CircuitError) as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"{ansatz.name}: {n} qubits, ring MaxCut ({len(edges)} edges), "
        f"{ansatz.num_parameters} parameter(s), method {args.method}"
    )
    service = default_service()
    try:
        with service.stats_scope() as scope:
            result = minimize(
                maxcut_energy(edges), ansatz,
                backend=backend, shots=args.shots, seed=args.seed,
                method=args.method, maxiter=args.iters, service=service,
            )
    except CircuitError as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"best expected cut {-result.best_value:.4f} / {len(edges)} "
        f"after {result.iterations} iteration(s), "
        f"{result.evaluations} evaluation(s)"
    )
    for name, value in result.best_parameters.items():
        print(f"  {name} = {value:+.6f}")
    print(
        f"  transpiles {scope.get('transpiles')}, "
        f"transpile cache hits {scope.get('transpile_cache_hits')}, "
        f"simulations {scope.get('simulations')}"
        + (
            f", batched {scope.get('simulations_batched')} "
            f"in {scope.get('batch_groups')} group(s)"
            if scope.get("simulations_batched")
            else ""
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAC-2025 quantum-codegen reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment drivers")

    run_parser = sub.add_parser("run", help="run one experiment driver")
    run_parser.add_argument("name")

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    report_parser.add_argument("--samples", type=_positive_int, default=6)
    report_parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker-pool size for the experiment drivers (bit-identical "
        "results for any N; default: $REPRO_EVAL_WORKERS or serial)",
    )
    report_parser.add_argument(
        "--distributed", action="store_true",
        help="start a work-distribution coordinator and lease the "
        "evaluation drivers' episode chunks (figure3, table1, multipass) "
        "to attached eval-workers; figure2 decode shots, figure4 and the "
        "ablations keep using the local pool (bit-identical results "
        "either way; the local pool is also the fallback when no worker "
        "attaches)",
    )
    report_parser.add_argument(
        "--port", type=int, default=8751,
        help="coordinator listen port for --distributed (0: ephemeral)",
    )
    report_parser.add_argument(
        "--token", default=None,
        help="shared auth token for --distributed "
        "(default: $REPRO_CACHE_TOKEN, else open)",
    )

    eval_parser = sub.add_parser("eval", help="evaluate one arm on the suite")
    eval_parser.add_argument("arm")
    eval_parser.add_argument("--samples", type=_positive_int, default=4)
    eval_parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="fan (task, sample) episodes across this many worker processes; "
        "results are bit-identical to the serial run for any N "
        "(default: $REPRO_EVAL_WORKERS or serial)",
    )
    eval_parser.add_argument(
        "--progress", action="store_true",
        help="render a live chunk-completion meter on stderr",
    )
    eval_parser.add_argument(
        "--opt-level", dest="opt_level", type=int, choices=(0, 1, 2),
        default=None,
        help="pin the transpiler optimization level for every transpile in "
        "this arm's episodes (default: the pipeline's own choice, level 1)",
    )
    eval_parser.add_argument(
        "--exec-stats", action="store_true", dest="exec_stats",
        help="also print ExecutionService simulation/cache counters",
    )
    eval_parser.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="persist execution results under this directory (warm-starts "
        "a repeat of the same arm across processes)",
    )
    eval_parser.add_argument(
        "--remote-cache", dest="remote_cache", type=_http_url, default=None,
        metavar="URL",
        help="share execution results with a 'repro cache-server' at this "
        "URL (a cold worker pointed at a warm server simulates nothing)",
    )
    eval_parser.add_argument(
        "--validate", choices=("off", "warn", "strict"), default=None,
        help="static pre-flight over every submitted circuit: warn prints "
        "QA diagnostics, strict rejects QA1xx errors before any simulation "
        "(default: $REPRO_VALIDATE or off)",
    )
    eval_parser.add_argument(
        "--distributed", action="store_true",
        help="start a work-distribution coordinator for this run and lease "
        "episode chunks to attached eval-workers (results stay "
        "bit-identical; the local pool is the fallback when none attach)",
    )
    eval_parser.add_argument(
        "--port", type=int, default=8751,
        help="coordinator listen port for --distributed (0: ephemeral)",
    )
    eval_parser.add_argument(
        "--token", default=None,
        help="shared auth token for --distributed "
        "(default: $REPRO_CACHE_TOKEN, else open)",
    )

    demo_parser = sub.add_parser("demo", help="one verbose generation episode")
    demo_parser.add_argument("--seed", type=int, default=0)
    demo_parser.add_argument(
        "--backend", default=None,
        help="target backend name/alias from the registry (see 'backends')",
    )
    demo_parser.add_argument(
        "--qec", action="store_true",
        help="attach the QEC agent to the target backend",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="static-analyze circuits: QASM files, a task's reference "
        "program, or the whole task bank",
    )
    lint_parser.add_argument(
        "files", nargs="*",
        help="OpenQASM files to analyze",
    )
    lint_parser.add_argument(
        "--task", default=None, metavar="CASE_ID",
        help="lint the reference program of one suite task",
    )
    lint_parser.add_argument(
        "--suite", action="store_true",
        help="lint every reference program in the task bank",
    )
    lint_parser.add_argument(
        "--verbose", action="store_true",
        help="also print QA3xx info diagnostics (depth/width stats)",
    )

    sub.add_parser("backends", help="list registered execution backends")

    transpile_parser = sub.add_parser(
        "transpile",
        help="lower a library circuit to a backend through the cached "
        "transpile stage",
    )
    transpile_parser.add_argument(
        "circuit", choices=("bell", "ghz", "qft", "grover"),
        help="library circuit to lower",
    )
    transpile_parser.add_argument(
        "--qubits", type=int, default=3,
        help="circuit width (ignored for bell)",
    )
    transpile_parser.add_argument(
        "--backend", default=None,
        help="target backend name/alias from the registry (see 'backends'); "
        "omit for an all-to-all target with the default basis",
    )
    transpile_parser.add_argument(
        "--level", type=int, choices=(0, 1, 2), default=1,
        help="optimization level (0 lowering only, 1 peephole, 2 repeated)",
    )
    transpile_parser.add_argument(
        "--explain", action="store_true",
        help="print the PassManager's per-pass instruction deltas and "
        "wall-clock timings (from an uncached run of the stack)",
    )

    var_parser = sub.add_parser(
        "variational",
        help="optimize a parameterized ansatz (MaxCut on a ring) through "
        "the batched execution service",
    )
    var_parser.add_argument(
        "--qubits", type=int, default=4, help="ring size (>= 3)"
    )
    var_parser.add_argument(
        "--ansatz", choices=("qaoa", "hea"), default="qaoa",
        help="qaoa (problem-aware) or hea (hardware-efficient)",
    )
    var_parser.add_argument(
        "--reps", type=int, default=1,
        help="ansatz repetitions (QAOA depth p / entangling blocks)",
    )
    var_parser.add_argument(
        "--method", choices=("spsa", "coordinate"), default="spsa"
    )
    var_parser.add_argument(
        "--iters", type=int, default=25,
        help="optimizer iterations (each is one execution batch)",
    )
    var_parser.add_argument("--shots", type=int, default=1024)
    var_parser.add_argument("--seed", type=int, default=0)
    var_parser.add_argument(
        "--backend", default=None,
        help="target backend name/alias from the registry (see 'backends')",
    )

    cache_parser = sub.add_parser(
        "cache",
        help="inspect, clear, or prune the on-disk execution result cache",
    )
    cache_parser.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache_parser.add_argument(
        "--clear", action="store_true", help="delete every persisted entry"
    )
    cache_parser.add_argument(
        "--prune", action="store_true",
        help="evict least-recently-used entries until the --max-* bounds "
        "(or their REPRO_CACHE_MAX_* equivalents) are satisfied",
    )
    server_parser = sub.add_parser(
        "cache-server",
        help="serve a cache directory over HTTP for a fleet of workers",
    )
    server_parser.add_argument(
        "--dir", default=None,
        help="cache directory to serve (default: $REPRO_CACHE_DIR)",
    )
    server_parser.add_argument("--host", default="127.0.0.1")
    server_parser.add_argument(
        "--port", type=int, default=8750,
        help="listen port (0 binds an ephemeral port)",
    )
    server_parser.add_argument(
        "--token", default=None,
        help="require this shared token on every endpoint "
        "(default: $REPRO_CACHE_TOKEN, else open)",
    )
    server_parser.add_argument(
        "--tenant-file", dest="tenant_file", default=None, metavar="JSON",
        help="tenants.json with per-tenant API keys, rate limits, and "
        "quotas (default: $REPRO_TENANT_FILE, else single-tenant)",
    )
    for bounded in (cache_parser, server_parser):
        bounded.add_argument(
            "--max-bytes", dest="max_bytes", type=int, default=None,
            help="byte budget for the store (LRU eviction)",
        )
        bounded.add_argument(
            "--max-entries", dest="max_entries", type=int, default=None,
            help="entry-count budget for the store",
        )
        bounded.add_argument(
            "--max-age", dest="max_age", type=float, default=None,
            help="evict entries idle for more than this many seconds",
        )

    eval_server = sub.add_parser(
        "eval-server",
        help="evaluate one arm as a distribution coordinator "
        "(cache + work queue on one port; workers attach with eval-worker)",
    )
    eval_server.add_argument("arm")
    eval_server.add_argument("--samples", type=_positive_int, default=4)
    eval_server.add_argument(
        "--dir", default=None,
        help="cache directory to serve alongside the work queue "
        "(default: $REPRO_CACHE_DIR, else a temp dir)",
    )
    eval_server.add_argument("--host", default="127.0.0.1")
    eval_server.add_argument(
        "--port", type=int, default=8751,
        help="listen port (0 binds an ephemeral port)",
    )
    eval_server.add_argument(
        "--token", default=None,
        help="require this shared token on every cache and work endpoint "
        "(default: $REPRO_CACHE_TOKEN, else open)",
    )
    eval_server.add_argument(
        "--tenant-file", dest="tenant_file", default=None, metavar="JSON",
        help="tenants.json with per-tenant API keys, rate limits, quotas, "
        "and fair-share priorities (default: $REPRO_TENANT_FILE, else "
        "single-tenant)",
    )
    eval_server.add_argument(
        "--job-store", dest="job_store", default=None, metavar="DIR",
        help="directory persisting queued chunks across coordinator "
        "restarts (default: <served dir>/jobs)",
    )
    eval_server.add_argument(
        "--no-job-store", dest="no_job_store", action="store_true",
        help="do not persist queued chunks (no restart recovery)",
    )
    eval_server.add_argument(
        "--lease-timeout", dest="lease_timeout", type=float, default=None,
        help="seconds a leased chunk may go without a heartbeat before it "
        "is requeued (default: 30)",
    )
    eval_server.add_argument(
        "--fallback-workers", dest="fallback_workers", type=int, default=None,
        help="local pool size when no remote worker attaches "
        "(0 disables local fallback; default: $REPRO_EVAL_WORKERS or 1)",
    )
    eval_server.add_argument(
        "--progress", action="store_true",
        help="render a live chunk-completion meter on stderr",
    )
    eval_server.add_argument(
        "--exec-stats", action="store_true", dest="exec_stats",
        help="also print per-arm ExecutionService counters",
    )

    eval_worker = sub.add_parser(
        "eval-worker",
        help="lease and execute episode chunks from an eval-server",
    )
    eval_worker.add_argument(
        "--url", type=_http_url, required=True,
        help="coordinator URL (from eval-server)",
    )
    eval_worker.add_argument(
        "--token", default=None,
        help="shared auth token (default: $REPRO_CACHE_TOKEN)",
    )
    eval_worker.add_argument(
        "--workers", type=_positive_int, default=1,
        help="concurrent chunk-execution threads",
    )
    eval_worker.add_argument(
        "--max-idle", dest="max_idle", type=float, default=None,
        help="exit after this many seconds without work (default: poll "
        "until Ctrl-C)",
    )
    eval_worker.add_argument(
        "--poll-interval", dest="poll_interval", type=float, default=0.2,
        help="pause between lease attempts on an empty queue",
    )
    eval_worker.add_argument(
        "--remote-cache", dest="remote_cache", type=_http_url, default=None,
        metavar="URL",
        help="share execution results with this cache server "
        "(default: the coordinator itself, which serves the cache too)",
    )
    eval_worker.add_argument(
        "--no-remote-cache", dest="no_remote_cache", action="store_true",
        help="do not attach any remote cache tier",
    )

    args = parser.parse_args(argv)
    # The default execution service reads the remote tier's URL from the
    # environment when a command first needs it.  Refuse a malformed one
    # now, before any work runs, as the URL flags are refused; an empty
    # value means no remote tier.
    cache_url = os.environ.get(CACHE_URL_ENV, "").strip()
    if cache_url:
        try:
            _http_url(cache_url)
        except argparse.ArgumentTypeError as exc:
            print(f"repro: {CACHE_URL_ENV}: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "report": _cmd_report,
        "eval": _cmd_eval,
        "demo": _cmd_demo,
        "lint": _cmd_lint,
        "backends": _cmd_backends,
        "transpile": _cmd_transpile,
        "variational": _cmd_variational,
        "cache": _cmd_cache,
        "cache-server": _cmd_cache_server,
        "eval-server": _cmd_eval_server,
        "eval-worker": _cmd_eval_worker,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
