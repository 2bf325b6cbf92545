"""The EXPERIMENTS.md generator renders a complete report."""

import os

from repro.cli import main
from repro.experiments import generate_report
from repro.experiments.common import ExperimentResult
from repro.experiments.generate_report import COMMANDS, render
from repro.quantum.execution import ExecutionService, set_default_service
from repro.quantum.execution.scopes import COUNTERS


def test_render_structure():
    exp = ExperimentResult("figure3", "demo title")
    exp.add("row", 10.0, 11.0)
    text = render([("Figure 3 — demo", exp)])
    assert text.startswith("# EXPERIMENTS")
    assert "## Figure 3 — demo" in text
    assert COMMANDS["Figure 3"] in text
    assert "10.0%" in text and "11.0%" in text
    assert "Notes on fidelity" in text


def test_every_command_module_exists():
    import importlib

    for cmd in COMMANDS.values():
        module = cmd.split()[-1]
        assert importlib.import_module(module)


def test_report_writes_results_and_prints_the_ledger(
    tmp_path, monkeypatch, capsys
):
    """The file holds the sections only; the service's counters and cache
    settings go to stdout, after the ``wrote`` line."""
    section = ExperimentResult("figure3", "demo title")
    section.add("row", 10.0, 11.0)
    monkeypatch.setattr(
        generate_report, "collect",
        lambda samples_per_task, workers: [("Figure 3 — demo", section)],
    )
    cache_dir = str(tmp_path / "exec-cache")
    path = tmp_path / "EXPERIMENTS.md"
    set_default_service(ExecutionService(cache_dir=cache_dir))
    try:
        assert main(["report", str(path)]) == 0
    finally:
        set_default_service(None)
    text = path.read_text()
    assert text == render([("Figure 3 — demo", section)])
    for name, _help in COUNTERS:
        assert name not in text and name.replace("_", " ") not in text
    assert cache_dir not in text
    wrote, totals = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {path} (1 sections)"
    assert totals.startswith("service totals: 0 simulations, ")
    for name, _help in COUNTERS:
        assert f" {name.replace('_', ' ')}," in totals
    assert f"cache_dir={cache_dir}" in totals


def test_distributed_report_prints_its_ledger_before_cleanup(
    tmp_path, monkeypatch, capsys
):
    """Under ``--distributed`` the totals line reads the service that ran
    the report, and the coordinator's temp store is removed after it."""
    from repro.quantum import library
    from repro.quantum.execution import default_service, execute

    section = ExperimentResult("figure4", "demo title")
    section.add("row", 1.0, 2.0)
    served = []

    def collect(samples_per_task, workers):
        served.append(default_service().stats()["cache_dir"])
        execute(library.bell_pair(measure=True), shots=16, seed=1)
        return [("Figure 4 — demo", section)]

    monkeypatch.setattr(generate_report, "collect", collect)
    path = tmp_path / "EXPERIMENTS.md"
    try:
        assert main(["report", str(path), "--distributed", "--port", "0"]) == 0
    finally:
        set_default_service(None)
    assert path.read_text() == render([("Figure 4 — demo", section)])
    wrote, totals = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {path} (1 sections)"
    assert totals.startswith("service totals: 1 simulations, ")
    assert f"cache_dir={served[0]}" in totals
    assert not os.path.exists(served[0])
