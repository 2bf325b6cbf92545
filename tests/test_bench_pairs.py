"""The paired parent/change benchmark tool (tools/bench_pairs.py).

The tool is not a package (it lives in tools/, outside ``src``), so it is
loaded via importlib straight from its file path.  Only its parsing and
summary functions are tested here; running perfbench is left to the tool.
"""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()

#: BENCHMARK.json's ``end_to_end`` shape for the two metrics the runs carry.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]


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

    def test_reads_src_lines_from_the_meta_line(self):
        stdout = (
            "== variational (seed 3, trace 0; iteration walls [0.8] reference s)\n"
            "   measured walls [0.8] s, host speed [1.0]\n"
            "   python_hash_seed=0, nproc=2, git_sha=abc, src_lines=23108\n"
            "   digest 032a3c608f5ef8c1  summary {}\n"
            '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}\n'
        )
        assert bench_pairs.parse_output(stdout)["src_lines"] == 23108
        assert bench_pairs.parse_output(stdout.replace("src_lines", "lines"))[
            "src_lines"
        ] is None

    @pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
    def test_no_result_line(self, stdout):
        parsed = bench_pairs.parse_output(stdout)
        assert parsed["result"] is None
        assert bench_pairs.failure({"returncode": 0, **parsed}) == "no result line"


class TestRunEnv:
    def test_each_side_writes_bytecode_to_its_own_directory(
        self, monkeypatch, tmp_path
    ):
        # A fresh export has no bytecode; with writes off it would compile
        # every module in every run while the working tree reused its own.
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/shared")
        env = bench_pairs.run_env(tmp_path / "parent")
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "parent")
        assert env["PATH"] == os.environ["PATH"]


class TestFreshCopies:
    def test_both_sides_run_from_copies_in_one_temporary_directory(
        self, monkeypatch, tmp_path
    ):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                 *args],
                cwd=repo, check=True, capture_output=True,
            )

        git("init", "-q")
        (repo / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": END_TO_END,
        }))
        (repo / ".gitignore").write_text("ignored.txt\n")
        for name in ("edited.py", "deleted.py", "pkg/kept.py"):
            (repo / name).parent.mkdir(exist_ok=True)
            (repo / name).write_text("committed\n")
        git("add", "-A")
        git("commit", "-q", "-m", "parent")
        (repo / "edited.py").write_text("uncommitted\n")
        (repo / "deleted.py").unlink()
        (repo / "untracked.py").write_text("untracked\n")
        (repo / "ignored.txt").write_text("build output\n")

        copies = {}

        def fake_run_once(root, workload, seed, seconds, env):
            copies.setdefault(root.name, (root, {
                str(path.relative_to(root)): path.read_text()
                for path in root.rglob("*") if path.is_file()
            }))
            return run(0, root.name, 1.0)

        monkeypatch.setattr(bench_pairs, "ROOT", repo)
        monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
        assert bench_pairs.main(["--number", "1", "--pairs", "2"]) == 0

        (parent_root, parent), (change_root, change) = copies["parent"], copies["change"]
        assert parent_root.parent == change_root.parent
        assert parent_root.parent.name.startswith("bench-pairs-")
        assert not parent_root.parent.exists()  # removed after the runs
        assert change["edited.py"] == "uncommitted\n"
        assert change["untracked.py"] == "untracked\n"
        assert change["pkg/kept.py"] == "committed\n"
        assert "deleted.py" not in change
        assert "ignored.txt" not in change
        assert parent["edited.py"] == parent["deleted.py"] == "committed\n"
        assert "untracked.py" not in parent


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        summary = bench_pairs.summarize(four_pairs(), END_TO_END)
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
        assert summary["wins"]["wall_s"] == 3
        assert summary["digests"] == {"parent": ["d1"], "change": ["d1"]}
        assert summary["ok"]

    def test_reports_each_sides_src_lines(self):
        runs = four_pairs()
        for record in runs:
            record["src_lines"] = 100 if record["side"] == "parent" else 90
        runs[0]["src_lines"] = None  # a failed meta line on one run
        summary = bench_pairs.summarize(runs, END_TO_END)
        assert summary["src_lines"] == {"parent": 100, "change": 90}
        assert bench_pairs.summarize(four_pairs(), END_TO_END)["src_lines"] == {
            "parent": None, "change": None,
        }

    def test_a_tie_is_not_a_win(self):
        summary = bench_pairs.summarize(four_pairs((1.0, 1.2, 1.0, 1.4)), END_TO_END)
        assert summary["wins"]["wall_s"] == 0
        assert summary["ok"]

    def test_digest_mismatch_fails_the_workload(self):
        runs = four_pairs()
        runs[3]["digest"] = "other"  # pair 1, change side
        summary = bench_pairs.summarize(runs, END_TO_END)
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
        summary = bench_pairs.summarize(runs, END_TO_END)
        assert summary["failed_runs"] == [{"pair": 0, "side": "parent", "why": why}]
        assert not summary["ok"]
        assert summary["pairs"] == 3
        assert summary["wins"]["wall_s"] == 2
        # The statistics use the three parent runs that succeeded.
        assert summary["metrics"]["wall_s"]["parent"]["median"] == pytest.approx(1.2)

    def test_single_run_per_side(self):
        summary = bench_pairs.summarize(
            [run(0, "parent", 2.0), run(0, "change", 1.0)], END_TO_END
        )
        wall = summary["metrics"]["wall_s"]
        assert wall["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0, "iqr": 0.0}
        assert wall["median_change"] == pytest.approx(-0.5)
        assert summary["wins"]["wall_s"] == 1


def ten_pairs(parent_walls, change_walls, parent_setups=None, change_setups=None):
    setups = zip(parent_setups or [1.0] * 10, change_setups or [1.0] * 10)
    return [
        record
        for pair, (parent, change, (parent_setup, change_setup)) in enumerate(
            zip(parent_walls, change_walls, setups)
        )
        for record in (
            run(pair, "parent", parent, setup=parent_setup),
            run(pair, "change", change, setup=change_setup),
        )
    ]


class TestVerdicts:
    def test_summary_states_every_end_to_end_metric(self):
        summary = bench_pairs.summarize(four_pairs(), END_TO_END)
        # The parent's wall_s IQR is 0.25 of a 1.1 median (under the bound),
        # and the change's median is lower: ok.  3 wins of 4 is no gain.
        assert summary["status"] == {"setup_s": "ok", "wall_s": "ok"}
        assert not summary["gain"]["wall_s"]

    @pytest.mark.parametrize(
        "parent, change, better, verdict",
        [
            # Median 1.0 -> 1.3 on a lower-is-better metric: past 25%.
            ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", "worse"),
            ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", "ok"),
            # Throughput 100 -> 70 on a higher-is-better metric: past 25%.
            ([100.0, 100.0, 100.0], [70.0, 70.0, 70.0], "higher", "worse"),
            ([100.0, 100.0, 100.0], [130.0, 130.0, 130.0], "higher", "ok"),
            # The parent's runs spread wider than the bound (IQR 0.5 of a
            # 1.0 median) and the sides overlap: the runs cannot tell.
            ([0.5, 0.75, 1.0, 1.25, 1.5], [0.6, 0.9, 1.0, 1.1, 1.4], "lower", "unresolved"),
            # The same spread, but every change run beats every parent run.
            ([0.5, 0.75, 1.0, 1.25, 1.5], [0.1, 0.2, 0.3, 0.4, 0.45], "lower", "ok"),
            ([0.5, 0.75, 1.0, 1.25, 1.5], [1.6, 1.7, 1.8, 1.9, 2.0], "higher", "ok"),
            # Worse outranks unresolved.
            ([0.5, 0.75, 1.0, 1.25, 1.5], [1.3, 1.4, 1.5, 1.6, 1.7], "lower", "worse"),
            ([], [1.0], "lower", "unresolved"),
        ],
    )
    def test_status(self, parent, change, better, verdict):
        assert bench_pairs.status(parent, change, better, 0.25) == verdict

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        parent = [1.0, 1.1, 1.0, 1.2, 1.0, 1.1, 1.0, 1.2, 1.0, 1.1]
        change = [0.5] * 9 + [1.3]
        summary = bench_pairs.summarize(ten_pairs(parent, change), END_TO_END)
        assert summary["wins"]["wall_s"] == 9
        assert summary["gain"]["wall_s"]
        change = [0.5] * 8 + [1.3, 1.3]
        summary = bench_pairs.summarize(ten_pairs(parent, change), END_TO_END)
        assert summary["wins"]["wall_s"] == 8
        assert not summary["gain"]["wall_s"]

    def test_gain_needs_medians_further_apart_than_the_parent_iqr(self):
        # 10/10 wins, but medians 0.02 apart against a parent IQR of 0.2.
        parent = [1.0, 1.2] * 5
        change = [0.98, 1.18] * 5
        summary = bench_pairs.summarize(ten_pairs(parent, change), END_TO_END)
        assert summary["wins"]["wall_s"] == 10
        assert summary["metrics"]["wall_s"]["parent"]["iqr"] == pytest.approx(0.2)
        assert not summary["gain"]["wall_s"]
        assert summary["status"]["wall_s"] == "ok"

    def test_setup_s_is_judged_like_wall_s(self):
        # Ten equal walls; setup_s lower in every pair but one tie.
        walls = [1.0, 1.1] * 5
        parent_setups = [0.45, 0.44, 0.46, 0.45, 0.45, 0.44, 0.46, 0.45, 0.45, 0.44]
        change_setups = [0.34] * 9 + [0.44]
        summary = bench_pairs.summarize(
            ten_pairs(walls, walls, parent_setups, change_setups), END_TO_END
        )
        assert summary["wins"] == {"setup_s": 9, "wall_s": 0}
        assert summary["gain"] == {"setup_s": True, "wall_s": False}
        assert summary["status"] == {"setup_s": "ok", "wall_s": "ok"}

    def test_higher_is_better_wins_by_being_higher(self):
        end_to_end = END_TO_END + [
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
        ]
        parent = [100.0, 110.0] * 5
        change = [120.0, 130.0] * 4 + [100.0, 90.0]  # a tie, then a loss
        runs = ten_pairs([1.0] * 10, [1.0] * 10)  # parent, change, ...
        values = [value for pair in zip(parent, change) for value in pair]
        for record, value in zip(runs, values):
            record["result"]["metrics"]["throughput_per_s"] = {
                "value": value, "unit": "1/s",
            }
        summary = bench_pairs.summarize(runs, end_to_end)
        assert summary["wins"]["throughput_per_s"] == 8
        assert not summary["gain"]["throughput_per_s"]
        assert summary["status"]["throughput_per_s"] == "ok"
        # One more win: 9/10 pairs, median 122.5 against 105 (IQR 10).
        runs[-1]["result"]["metrics"]["throughput_per_s"]["value"] = 125.0
        summary = bench_pairs.summarize(runs, end_to_end)
        assert summary["wins"]["throughput_per_s"] == 9
        assert summary["gain"]["throughput_per_s"]
        # Read as lower-is-better, the same numbers win no pair.
        lower = [dict(spec, better="lower") for spec in end_to_end]
        summary = bench_pairs.summarize(runs, lower)
        assert summary["wins"]["throughput_per_s"] == 0
        assert not summary["gain"]["throughput_per_s"]

    def test_no_complete_pair_is_no_gain(self):
        runs = [run(0, "parent", 1.0), run(0, "change", 0.5)]
        runs[1]["returncode"] = 1
        summary = bench_pairs.summarize(runs, END_TO_END)
        assert summary["pairs"] == 0
        assert not summary["gain"]["wall_s"]
        assert summary["status"]["wall_s"] == "unresolved"
        assert summary["wins"] == {"setup_s": 0, "wall_s": 0}
        assert summary["gain"] == {"setup_s": False, "wall_s": False}
