"""The paired parent/change benchmark tool (tools/bench_pairs.py).

The tool is not a package (it lives in tools/, outside ``src``), so it is
loaded via importlib straight from its file path.  Only its parsing and
summary functions are tested here; running perfbench is left to the tool.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def run(pair, side, wall, digest="d1", setup=1.0, **result):
    """A successful run record as :func:`bench_pairs.run_once` returns it."""
    body = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    }
    body.update(result)
    return {
        "pair": pair, "side": side, "seed": 100 + pair, "returncode": 0,
        "result": body, "digest": digest, "exec": "simulations=0",
    }


def four_pairs(change_walls=(0.9, 0.8, 1.1, 0.7)):
    parent_walls = (1.0, 1.2, 1.0, 1.4)
    runs = []
    for pair, (parent, change) in enumerate(zip(parent_walls, change_walls)):
        runs += [run(pair, "parent", parent), run(pair, "change", change)]
    return runs


class TestParseOutput:
    def test_reads_result_digest_and_exec_line(self):
        stdout = (
            "== eval-warm (seed 3, trace 0; iteration walls [0.9] reference s)\n"
            "   wall_s                                    0.9 s\n"
            "   exec simulations=0, cache_hits=12, transpiles=0\n"
            '   digest 082038d37e93849f  summary {"FT": 0.27}\n'
            '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}\n'
        )
        parsed = bench_pairs.parse_output(stdout)
        assert parsed["digest"] == "082038d37e93849f"
        assert parsed["exec"] == "simulations=0, cache_hits=12, transpiles=0"
        assert parsed["result"] == {
            "correct": True, "attempted": 4, "failed": 0, "metrics": {},
        }

    @pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
    def test_no_result_line(self, stdout):
        parsed = bench_pairs.parse_output(stdout)
        assert parsed["result"] is None
        assert bench_pairs.failure({"returncode": 0, **parsed}) == "no result line"


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        summary = bench_pairs.summarize(four_pairs())
        wall = summary["metrics"]["wall_s"]
        # Inclusive quartiles of (1.0, 1.0, 1.2, 1.4) and (0.7, 0.8, 0.9, 1.1).
        assert wall["parent"]["median"] == pytest.approx(1.1)
        assert wall["parent"]["q1"] == pytest.approx(1.0)
        assert wall["parent"]["q3"] == pytest.approx(1.25)
        assert wall["parent"]["iqr"] == pytest.approx(0.25)
        assert wall["change"]["median"] == pytest.approx(0.85)
        assert wall["change"]["q1"] == pytest.approx(0.775)
        assert wall["change"]["q3"] == pytest.approx(0.95)
        assert wall["median_change"] == pytest.approx(0.85 / 1.1 - 1)
        # Every end-to-end metric the runs printed is summarised.
        assert set(summary["metrics"]) == {"setup_s", "wall_s"}
        assert summary["metrics"]["setup_s"]["change"]["iqr"] == 0
        # Pair 2 (1.1 against 1.0) is the one loss.
        assert summary["pairs"] == 4
        assert summary["wall_s_wins"] == 3
        assert summary["digests"] == {"parent": ["d1"], "change": ["d1"]}
        assert summary["ok"]

    def test_a_tie_is_not_a_win(self):
        summary = bench_pairs.summarize(four_pairs((1.0, 1.2, 1.0, 1.4)))
        assert summary["wall_s_wins"] == 0
        assert summary["ok"]

    def test_digest_mismatch_fails_the_workload(self):
        runs = four_pairs()
        runs[3]["digest"] = "other"  # pair 1, change side
        summary = bench_pairs.summarize(runs)
        assert summary["digest_mismatches"] == [1]
        assert summary["digests"]["change"] == ["d1", "other"]
        assert not summary["ok"]

    @pytest.mark.parametrize(
        "broken, why",
        [
            ({"returncode": 1}, "exit status 1"),
            ({"result": None}, "no result line"),
            ({"result": {"correct": False, "failed": 0, "metrics": {}}},
             "result not correct"),
            ({"result": {"correct": True, "failed": 2, "metrics": {}}},
             "2 failed operation(s)"),
        ],
    )
    def test_failed_run_is_listed_and_left_out(self, broken, why):
        runs = four_pairs()
        runs[0].update(broken)  # pair 0, parent side
        summary = bench_pairs.summarize(runs)
        assert summary["failed_runs"] == [{"pair": 0, "side": "parent", "why": why}]
        assert not summary["ok"]
        assert summary["pairs"] == 3
        assert summary["wall_s_wins"] == 2
        # The statistics use the three parent runs that succeeded.
        assert summary["metrics"]["wall_s"]["parent"]["median"] == pytest.approx(1.2)

    def test_single_run_per_side(self):
        summary = bench_pairs.summarize([run(0, "parent", 2.0), run(0, "change", 1.0)])
        wall = summary["metrics"]["wall_s"]
        assert wall["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0, "iqr": 0.0}
        assert wall["median_change"] == pytest.approx(-0.5)
        assert summary["wall_s_wins"] == 1
