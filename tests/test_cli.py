"""CLI smoke tests."""

import pytest

from repro.cli import ARMS, EXPERIMENTS, main


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment():
    assert main(["run", "figure99"]) == 2


def test_unknown_arm():
    assert main(["eval", "vibes"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--samples", "0"],
        ["report", "--workers", "0"],
        ["eval", "ft", "--samples", "-1"],
        ["eval", "ft", "--samples", "0"],
        ["eval", "ft", "--workers", "0"],
        ["eval", "ft", "--samples", "two"],
        ["eval-server", "ft", "--samples", "0"],
        ["eval-worker", "--url", "http://127.0.0.1:1", "--workers", "0"],
    ],
)
def test_counts_below_one_exit_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "expected a positive integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "ft", "--samples", "1", "--remote-cache", "cachehost:8750"],
        ["eval-worker", "--url", "cachehost:8750"],
        ["eval-worker", "--url", "cachehost:8750", "--no-remote-cache"],
        [
            "eval-worker", "--url", "http://127.0.0.1:9",
            "--remote-cache", "cachehost:1",
        ],
    ],
)
def test_malformed_url_exits_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "expected an http(s):// URL, got 'cachehost:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv", [["backends"], ["eval", "ft", "--samples", "1"]], ids=["backends", "eval"]
)
def test_malformed_cache_url_env_exits_2_with_one_line(argv, capsys, monkeypatch):
    from repro.quantum.execution import default_service, set_default_service
    from repro.quantum.execution.service import CACHE_URL_ENV

    monkeypatch.setenv(CACHE_URL_ENV, "cachehost:8750")
    set_default_service(None)
    try:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: REPRO_CACHE_URL: expected an http(s):// URL, got "
            "'cachehost:8750'\n"
        )
        # The library still refuses it as before.
        with pytest.raises(ValueError, match="must be http"):
            default_service()
    finally:
        set_default_service(None)


def test_blank_cache_url_env_means_no_remote_tier(capsys, monkeypatch):
    from repro.quantum.execution import set_default_service

    monkeypatch.setenv("REPRO_CACHE_URL", "  ")
    set_default_service(None)
    try:
        assert main(["backends"]) == 0
        assert "cache_url=" not in capsys.readouterr().out
    finally:
        set_default_service(None)


def test_eval_server_fallback_workers_zero_is_accepted(capsys):
    # 0 means no local fallback, so it parses; the unknown arm then stops
    # the command before a coordinator starts.
    assert main(["eval-server", "vibes", "--fallback-workers", "0"]) == 2
    assert "unknown arm" in capsys.readouterr().out


def test_eval_arm_runs(capsys):
    assert main(["eval", "ft", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "Accuracy" in out and "ft" in out


def test_eval_workers_bit_identical_to_serial(capsys):
    assert main(["eval", "ft", "--samples", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert (
        main(["eval", "ft", "--samples", "1", "--workers", "2", "--progress"])
        == 0
    )
    captured = capsys.readouterr()
    # Same table, byte for byte: the parallel engine is deterministic.
    assert captured.out == serial_out
    # The --progress meter renders on stderr, not in the table.
    assert "chunks" in captured.err


def test_demo_runs(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "generated program" in out


def test_eval_cache_dir_warm_starts_second_run(tmp_path, capsys):
    from repro.quantum.execution import set_default_service

    cache_dir = str(tmp_path / "exec-cache")
    try:
        assert main(
            ["eval", "ft", "--samples", "1", "--cache-dir", cache_dir,
             "--exec-stats"]
        ) == 0
        capsys.readouterr()
        # Second invocation replaces the default service (fresh counters, a
        # process restart stand-in); everything must come from the disk tier.
        assert main(
            ["eval", "ft", "--samples", "1", "--cache-dir", cache_dir,
             "--exec-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "service totals: 0 simulations" in out
        assert f"cache_dir={cache_dir}" in out
    finally:
        set_default_service(None)


def test_cache_command_reports_and_clears(tmp_path, capsys):
    cache_dir = str(tmp_path / "exec-cache")
    # Inspecting a nonexistent dir is an error, not a silent empty cache.
    assert main(["cache", "--cache-dir", cache_dir]) == 2
    assert "does not exist" in capsys.readouterr().out

    from repro.quantum.execution import ExecutionService
    from repro.quantum.library import bell_pair

    service = ExecutionService(cache_dir=cache_dir)
    service.run(bell_pair(measure=True), shots=10, seed=1)

    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "1 entries" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
    assert "cleared 1 entries" in capsys.readouterr().out


def test_cache_prune_command(tmp_path, capsys):
    from repro.quantum.execution import CacheKey, DiskResultCache

    cache_dir = str(tmp_path / "exec-cache")
    disk = DiskResultCache(cache_dir)
    for tag in range(4):
        disk.put(
            CacheKey(
                circuit=f"{tag:016x}", backend="b", shots=1, seed=1,
                noise="ideal", memory=False, engine=1,
            ),
            {"0": 1},
            None,
        )

    # No bounds anywhere: refuse rather than silently prune nothing.
    assert main(["cache", "--cache-dir", cache_dir, "--prune"]) == 2
    assert "nothing to prune" in capsys.readouterr().out

    assert main(
        ["cache", "--cache-dir", cache_dir, "--prune", "--max-entries", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "pruned 2 of 4 entries" in out
    assert len(DiskResultCache(cache_dir)) == 2


def test_eval_remote_cache_flag_makes_second_worker_warm(tmp_path, capsys):
    from repro.quantum.execution import CacheServer, set_default_service

    with CacheServer(tmp_path / "store") as server:
        try:
            assert main(
                ["eval", "ft", "--samples", "1", "--remote-cache", server.url,
                 "--exec-stats"]
            ) == 0
            capsys.readouterr()
            # Second invocation replaces the default service — a cold worker
            # on another machine; everything must come from the server.
            assert main(
                ["eval", "ft", "--samples", "1", "--remote-cache", server.url,
                 "--exec-stats"]
            ) == 0
            out = capsys.readouterr().out
            assert "service totals: 0 simulations" in out
            assert f"cache_url={server.url}" in out
        finally:
            set_default_service(None)


def test_eval_distributed_flag_byte_identical_to_serial(capsys):
    """--distributed spins an ephemeral coordinator around the run; with no
    workers attached the local fallback drains it and the printed table is
    byte-for-byte the serial one (announcements go to stderr)."""
    assert main(["eval", "ft", "--samples", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(["eval", "ft", "--samples", "1", "--distributed",
                 "--port", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == serial_out
    assert "eval-worker --url" in captured.err


def test_eval_server_matches_serial_eval_table(tmp_path, capsys):
    from repro.quantum.execution import DiskResultCache, set_default_service

    assert main(["eval", "ft", "--samples", "1"]) == 0
    serial_out = capsys.readouterr().out
    try:
        assert main(
            ["eval-server", "ft", "--samples", "1", "--dir", str(tmp_path),
             "--port", "0", "--fallback-workers", "2"]
        ) == 0
    finally:
        set_default_service(None)
    captured = capsys.readouterr()
    assert captured.out == serial_out
    assert "coordinator serving cache + work queue" in captured.err
    # The coordinator's own execution warms the store it serves (regression:
    # --dir used to be served to workers but ignored by the local service).
    assert len(DiskResultCache(tmp_path)) > 0


def test_eval_server_unknown_arm(tmp_path):
    assert main(["eval-server", "vibes", "--dir", str(tmp_path)]) == 2


def test_start_coordinator_passes_lease_timeout_through(tmp_path):
    """Regression: ``--lease-timeout 0`` silently became the 30 s default
    instead of reaching the queue's validation."""
    from repro.cli import _start_coordinator
    from repro.quantum.execution.dispatch import DEFAULT_LEASE_TIMEOUT

    with pytest.raises(ValueError, match="lease_timeout"):
        _start_coordinator(str(tmp_path), "127.0.0.1", 0, None, lease_timeout=0)
    coordinator = _start_coordinator(str(tmp_path), "127.0.0.1", 0, None)
    try:
        assert coordinator.queue.lease_timeout == DEFAULT_LEASE_TIMEOUT
    finally:
        coordinator.stop()


def test_eval_worker_leases_and_completes_chunks(tmp_path, capsys):
    from repro.quantum.execution import EvalCoordinator, set_default_service
    from repro.quantum.execution.dispatch import encode_chunk

    with EvalCoordinator(
        tmp_path, fallback_workers=0, lease_timeout=5.0
    ) as coordinator:
        coordinator.queue.add_chunks(
            [encode_chunk(_triple, (i,)) for i in range(3)]
        )
        try:
            assert main(
                ["eval-worker", "--url", coordinator.url,
                 "--workers", "2", "--max-idle", "0.5",
                 "--poll-interval", "0.02"]
            ) == 0
        finally:
            set_default_service(None)
        assert "completed 3 chunk(s)" in capsys.readouterr().err
        assert coordinator.queue.status()["done"] == 3


def test_eval_worker_env_token_wiring(tmp_path, monkeypatch, capsys):
    """REPRO_CACHE_TOKEN authenticates a worker (and its cache tier) with no
    --token flag — the satellite's env-wiring guarantee."""
    from repro.quantum.execution import EvalCoordinator, set_default_service
    from repro.quantum.execution.dispatch import encode_chunk

    monkeypatch.setenv("REPRO_CACHE_TOKEN", "fleet-secret")
    with EvalCoordinator(
        tmp_path, token="fleet-secret", fallback_workers=0, lease_timeout=5.0
    ) as coordinator:
        coordinator.queue.add_chunks([encode_chunk(_triple, (14,))])
        try:
            assert main(
                ["eval-worker", "--url", coordinator.url,
                 "--max-idle", "0.5", "--poll-interval", "0.02"]
            ) == 0
        finally:
            set_default_service(None)
        assert coordinator.queue.status()["done"] == 1


def test_eval_worker_wrong_token_fails_loudly(tmp_path):
    from repro.errors import BackendError
    from repro.quantum.execution import EvalCoordinator, set_default_service

    with EvalCoordinator(
        tmp_path, token="fleet-secret", fallback_workers=0
    ) as coordinator:
        try:
            with pytest.raises(BackendError, match="credentials"):
                main(
                    ["eval-worker", "--url", coordinator.url,
                     "--token", "wrong", "--no-remote-cache",
                     "--max-idle", "5"]
                )
        finally:
            set_default_service(None)


def _triple(x):
    return x * 3


def test_cache_command_without_dir(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache"]) == 2
    assert "REPRO_CACHE_DIR" in capsys.readouterr().out


def test_arms_cover_figure3():
    assert set(ARMS) == {"base", "ft", "rag", "cot", "scot", "mp3"}


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


# -- repro lint --------------------------------------------------------------

CLEAN_QASM = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""

# A conditional gate on a clbit no measurement ever writes: QA102.
DEFECTIVE_QASM = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
if(c==1) x q[1];
"""


def test_lint_clean_qasm_file(tmp_path, capsys):
    path = tmp_path / "bell.qasm"
    path.write_text(CLEAN_QASM)
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{path}: ok" in out
    assert "0 error(s)" in out


def test_lint_defective_qasm_fails_with_coded_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.qasm"
    path.write_text(DEFECTIVE_QASM)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}: FAIL" in out
    assert "QA102" in out


def test_lint_verbose_shows_info_diagnostics(tmp_path, capsys):
    path = tmp_path / "bell.qasm"
    path.write_text(CLEAN_QASM)
    assert main(["lint", str(path)]) == 0
    assert "QA301" not in capsys.readouterr().out
    assert main(["lint", "--verbose", str(path)]) == 0
    assert "QA301" in capsys.readouterr().out


def test_lint_unreadable_file_is_an_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing.qasm")]) == 1
    out = capsys.readouterr().out
    assert "cannot read" in out


def test_lint_unparsable_qasm_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
    assert main(["lint", str(path)]) == 1
    assert "QASM parse failed" in capsys.readouterr().out


def test_lint_suite_references_are_clean(capsys):
    assert main(["lint", "--suite"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_single_task(capsys):
    from repro.evalsuite import build_suite

    case_id = build_suite()[0].case_id
    assert main(["lint", "--task", case_id]) == 0
    assert case_id in capsys.readouterr().out


def test_lint_unknown_task(capsys):
    assert main(["lint", "--task", "no-such-case"]) == 2
    assert "unknown task" in capsys.readouterr().out


def test_lint_without_inputs_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().out


def test_eval_validate_flag_accepted(capsys):
    from repro.quantum.execution import set_default_service

    try:
        assert main(
            ["eval", "ft", "--samples", "1", "--validate", "strict"]
        ) == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
    finally:
        set_default_service(None)


def test_backends_reports_validation_counters(capsys):
    from repro.quantum.execution import set_default_service

    try:
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "validate=" in out
        assert "validated" in out
    finally:
        set_default_service(None)


def test_transpile_command_miss_then_cache_hit(capsys):
    from repro.quantum.execution import set_default_service

    try:
        set_default_service(None)  # fresh memory tier
        assert main(["transpile", "ghz", "--qubits", "3"]) == 0
        first = capsys.readouterr().out
        assert "from pass manager" in first
        assert "level 1" in first
        assert "layout" in first and "final" in first
        assert main(["transpile", "ghz", "--qubits", "3"]) == 0
        second = capsys.readouterr().out
        assert "from cache" in second
    finally:
        set_default_service(None)


def test_transpile_explain_lists_every_pass(capsys):
    from repro.quantum.execution import set_default_service

    try:
        assert main([
            "transpile", "bell", "--backend", "fake_falcon",
            "--level", "2", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "fake_falcon" in out
        for name in (
            "DecomposeToBasis", "DenseLayout", "Route",
            "DropBarriers", "MergeRotations", "CancelInverses",
        ):
            assert name in out
        # The table carries per-pass instruction-count deltas and timings.
        assert "delta" in out and "ms" in out
    finally:
        set_default_service(None)


def test_transpile_unknown_backend_is_a_usage_error(capsys):
    assert main(["transpile", "ghz", "--backend", "nope"]) == 2
    assert "error:" in capsys.readouterr().out


def test_eval_opt_level_flag(capsys):
    assert main([
        "eval", "ft", "--samples", "1", "--opt-level", "0", "--exec-stats"
    ]) == 0
    out = capsys.readouterr().out
    assert "Accuracy" in out
    assert "transpiles" in out and "transpile cache hits" in out
