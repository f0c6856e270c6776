"""``scripts/bench_pairs.py`` on a stub runner: no benchmark runs.

A throwaway git repository with a ``BENCHMARK.json``, a ``src`` and a
``perfbench`` directory and two commits stands in for the project; the stub
runner records which checkout ran which seed and returns metrics read off the
checkout's marker file and the seed.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCH = {
    "run_seconds": 30,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.22},
        {"name": "query_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCH), encoding="utf-8")
    for tree in ("src", "perfbench"):
        (repo / tree).mkdir()
        (repo / tree / "run.py").write_text(tree, encoding="utf-8")
    (repo / "side.txt").write_text("parent", encoding="utf-8")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    parent = git(repo, "rev-parse", "HEAD")
    (repo / "side.txt").write_text("change", encoding="utf-8")
    (repo / "src" / "run.py").write_text("src, changed", encoding="utf-8")
    git(repo, "commit", "-q", "-am", "change")
    return repo, parent


class StubRunner:
    """The change reads qps 10 + seed against the parent's 10, query_ms_p50
    equal on even seeds and one lower on odd ones, and setup_s only on the
    parent's side."""

    def __init__(self):
        self.calls = []

    def __call__(self, root, workload, seed, seconds):
        side = (Path(root) / "side.txt").read_text(encoding="utf-8")
        self.calls.append((side, workload, seed, seconds))
        change = side == "change"
        metrics = {
            "qps": {"value": 10.0 + (seed if change else 0), "unit": "1/s"},
            "query_ms_p50": {"value": 5.0 - (change and seed % 2), "unit": "ms"},
        }
        if not change:
            metrics["setup_s"] = {"value": 0.5, "unit": "s"}
        return {"correct": True, "attempted": 100 + seed, "failed": int(change), "metrics": metrics}


def test_pairs_alternate_on_fresh_seeds_and_count_wins(repo, tmp_path):
    repo, parent = repo
    runner = StubRunner()
    out = tmp_path / "bench.json"
    argv = [parent, "4", "--out", str(out), "--first-seed", "7", "--workload", "w2"]
    assert bench_pairs.main(argv, runner=runner, root=repo) == 0

    # the parent ran in a worktree of PARENT_REV, the change in the repo,
    # each seed once per side, the first side alternating
    assert [c[:3] for c in runner.calls] == [
        ("parent", "w2", 7), ("change", "w2", 7), ("change", "w2", 8), ("parent", "w2", 8),
        ("parent", "w2", 9), ("change", "w2", 9), ("change", "w2", 10), ("parent", "w2", 10),
    ]
    assert {c[3] for c in runner.calls} == {30}
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["parent_rev"] == parent and report["change_rev"] == git(repo, "rev-parse", "HEAD")
    assert report["seconds"] == 30
    # each side's src and perfbench trees, by the ids a later commit reproduces
    assert report["trees"] == {
        side: {t: git(repo, "rev-parse", f"{rev}:{t}") for t in ("src", "perfbench")}
        for side, rev in (("parent", parent), ("change", "HEAD"))
    }
    assert report["trees"]["parent"]["src"] != report["trees"]["change"]["src"]
    assert report["trees"]["parent"]["perfbench"] == report["trees"]["change"]["perfbench"]
    w2 = report["workloads"]["w2"]
    assert list(report["workloads"]) == ["w2"]
    assert [r["seed"] for r in w2["runs"]] == [7, 8, 9, 10]
    assert [r["first"] for r in w2["runs"]] == ["parent", "change", "parent", "change"]

    qps = w2["metrics"]["qps"]
    want = np.percentile([17.0, 18.0, 19.0, 20.0], [25, 50, 75]).tolist()
    assert [qps["change"][q] for q in ("q1", "median", "q3")] == want
    assert qps["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert (qps["change_wins"], qps["parent_wins"], qps["pairs"]) == (4, 0, 4)
    assert (qps["bound"], qps["better"], qps["unit"]) == (0.22, "higher", "1/s")
    # equal values on even seeds are ties, counted for neither side
    p50 = w2["metrics"]["query_ms_p50"]
    assert (p50["change_wins"], p50["parent_wins"], p50["pairs"]) == (2, 0, 4)
    # a metric one side does not read is compared over no pair
    setup = w2["metrics"]["setup_s"]
    assert setup["pairs"] == 0 and setup["change"]["median"] is None
    assert setup["parent"]["median"] == 0.5
    assert (setup["gain_rule"], setup["within_bound"]) == (None, None)
    assert w2["operations"] == {
        "parent": {"failed": 0, "attempted": 434},
        "change": {"failed": 4, "attempted": 434},
    }
    # the worktree is gone
    assert git(repo, "worktree", "list").count("\n") == 0


def test_gain_rule_and_bound_per_metric(repo, tmp_path):
    """``gain_rule`` asks for 9 wins in 10 and a median gap past the
    parent's IQR, in the better direction; ``within_bound`` for a change
    median no worse than the parent's by more than the bound's fraction."""
    repo, parent = repo
    table = {  # name: (parent value, change value) at seed s
        # 10 wins, but a gap of 1 inside the parent's IQR of 4.5
        "qps": lambda s: (100.0 + s, 101.0 + s),
        # 9 wins, a gap of 1 past an IQR of 0; one pair lost
        "query_ms_p50": lambda s: (5.0, 6.0 if s == 4 else 4.0),
        # 30% slower, past the 25% bound
        "setup_s": lambda s: (1.0, 1.3),
    }

    def runner(root, workload, seed, seconds):
        change = (Path(root) / "side.txt").read_text(encoding="utf-8") == "change"
        metrics = {name: {"value": pick(seed)[change]} for name, pick in table.items()}
        return {"attempted": 1, "failed": 0, "metrics": metrics}

    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, "10", "--out", str(out), "--workload", "w1"],
                            runner=runner, root=repo) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w1"]["metrics"]
    assert {name: (m["change_wins"], m["gain_rule"], m["within_bound"])
            for name, m in got.items()} == {
        "qps": (10, False, True),
        "query_ms_p50": (9, True, True),
        "setup_s": (0, False, False),
    }

    # 8 wins in 10 is too few, however wide the gap
    table["query_ms_p50"] = lambda s: (5.0, 6.0 if s in (4, 7) else 1.0)
    table["setup_s"] = lambda s: (1.0, 1.25)  # at the bound, not past it
    assert bench_pairs.main([parent, "10", "--out", str(out), "--workload", "w1"],
                            runner=runner, root=repo) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w1"]["metrics"]
    assert (got["query_ms_p50"]["gain_rule"], got["query_ms_p50"]["within_bound"]) == (False, True)
    assert (got["setup_s"]["gain_rule"], got["setup_s"]["within_bound"]) == (False, True)


def test_every_workload_at_the_benchmark_run_seconds(repo, tmp_path):
    repo, parent = repo
    runner = StubRunner()
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, "1", "--out", str(out)], runner=runner, root=repo) == 0
    assert [c[1:] for c in runner.calls] == [("w1", 1, 30), ("w1", 1, 30), ("w2", 1, 30), ("w2", 1, 30)]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["workloads"]) == ["w1", "w2"]


def test_a_failing_run_still_removes_the_worktree(repo, tmp_path):
    repo, parent = repo

    def runner(root, workload, seed, seconds):
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError, match="run failed"):
        bench_pairs.main([parent, "2", "--out", str(tmp_path / "b.json")], runner=runner, root=repo)
    assert git(repo, "worktree", "list").count("\n") == 0


def test_uncommitted_changes_are_refused(repo, tmp_path):
    repo, parent = repo
    (repo / "src" / "run.py").write_text("src, edited", encoding="utf-8")
    runner = StubRunner()
    with pytest.raises(SystemExit, match="uncommitted"):
        bench_pairs.main([parent, "1", "--out", str(tmp_path / "b.json")], runner=runner, root=repo)
    assert runner.calls == [] and not (tmp_path / "b.json").exists()
    assert git(repo, "worktree", "list").count("\n") == 0


def test_n_below_one_is_refused(repo, tmp_path):
    repo, parent = repo
    with pytest.raises(SystemExit):
        bench_pairs.main([parent, "0"], runner=StubRunner(), root=repo)
