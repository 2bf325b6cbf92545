"""The EXPERIMENTS.md generator renders a complete report."""

from repro.experiments.generate_report import (
    COMMANDS,
    HEADER,
    _execution_section,
    render,
)
from repro.experiments.common import ExperimentResult
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


def test_execution_appendix_renders_every_registered_counter():
    set_default_service(ExecutionService())
    try:
        section = _execution_section()
    finally:
        set_default_service(None)
    assert [row.name for row in section.rows] == [
        *(name.replace("_", " ") for name, _help in COUNTERS),
        "cache hit rate",
    ]
    assert [row.note for row in section.rows[: len(COUNTERS)]] == [
        help_text for _name, help_text in COUNTERS
    ]
    assert section.extras == ["static pre-flight validation: validate=off."]
