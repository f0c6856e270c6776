"""Run the benchmark in alternating parent/change pairs and summarise them.

Usage: python scripts/bench_pairs.py PARENT_REV N [--out FILE] [--first-seed SEED]
           [--workload NAME ...]

PARENT_REV is checked out with ``git worktree add --detach`` into a
temporary directory outside the repository, and removed on exit. For each
workload of ``BENCHMARK.json`` (or each ``--workload``), N pairs run the
unchanged ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds`` once in that checkout and once in the checkout this script
sits in, on the same seed. Pair i runs seed FIRST_SEED + i (default 1), so
every pair has a fresh seed, and the side that runs first alternates: the
parent in even pairs, the change in odd ones. The change side is HEAD: a
checkout with uncommitted changes to tracked files is refused.

The JSON written to FILE (default ``BENCH.json``), rewritten after every
pair, holds the two revisions and the git tree ids of their ``src`` and
``perfbench``, what the benchmark runs (so a later commit that leaves those
trees alone can be checked against the file), the run length, the host, and
per workload every pair's seed, first side and both runs' result lines, and
for each end-to-end metric of ``BENCHMARK.json``: both sides' median and
quartiles, the change's wins and the parent's (a tie counts for neither
side), the pairs compared, the metric's bound and direction, and two
verdicts. ``gain_rule``: the change wins at least 9 in 10 of the pairs and
its median beats the parent's, in the better direction, by more than the
parent's interquartile range. ``within_bound``: the change's median is worse
than the parent's by at most the bound, a fraction of the parent's median.
Both are None where a side reads no value. Per side it also sums the failed
and attempted operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TREES = ("src", "perfbench")


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py --trace 0`` run in
    ``root``, as a dict; a run that exits non-zero raises."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def parent_worktree(root: Path, rev: str) -> Iterator[Path]:
    """A detached worktree of ``rev`` in a fresh temporary directory,
    removed with that directory on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    path = tmp / "parent"
    try:
        git(root, "worktree", "add", "--detach", str(path), rev)
        yield path
    finally:
        if path.exists():
            git(root, "worktree", "remove", "--force", str(path))
        shutil.rmtree(tmp, ignore_errors=True)
        git(root, "worktree", "prune")


def spread(values: list[float]) -> dict:
    """Median and quartiles, None for no value."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdicts(parent: dict, change: dict, change_wins: int, pairs: int, lower: bool,
             bound: float) -> dict:
    """``gain_rule`` and ``within_bound`` from both sides' spreads, None
    where a side has no median."""
    if parent["median"] is None or change["median"] is None:
        return {"gain_rule": None, "within_bound": None}
    sign = -1.0 if lower else 1.0  # a positive gain is an improvement
    gain = sign * (change["median"] - parent["median"])
    return {
        "gain_rule": 0 < 9 * pairs <= 10 * change_wins and gain > parent["q3"] - parent["q1"],
        "within_bound": gain >= -bound * abs(parent["median"]),
    }


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (``BENCHMARK.json``'s entries): each
    side's spread, each side's wins over the pairs where both read a value,
    and the two verdicts; and per side the failed and attempted operations."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        read = {side: [r[side]["metrics"].get(name, {}).get("value") for r in runs] for side in SIDES}
        both = [(p, c) for p, c in zip(read["parent"], read["change"])
                if p is not None and c is not None]
        change_wins = sum((c < p) if lower else (c > p) for p, c in both)
        parent_wins = sum((p < c) if lower else (p > c) for p, c in both)
        sides = {side: spread([v for v in read[side] if v is not None]) for side in SIDES}
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **sides,
            "change_wins": change_wins,
            "parent_wins": parent_wins,
            "pairs": len(both),
            **verdicts(sides["parent"], sides["change"], change_wins, len(both), lower,
                       spec["bound"]),
        }
    operations = {
        side: {key: sum(r[side][key] for r in runs) for key in ("failed", "attempted")}
        for side in SIDES
    }
    return {"metrics": metrics, "operations": operations}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("n", type=int)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    return args


def main(argv: list[str], runner: Callable = perfbench_run, root: Path = ROOT) -> int:
    args = parse_args(argv)
    if git(root, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit("bench_pairs: uncommitted changes to tracked files; commit them first")
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    revs = {side: git(root, "rev-parse", rev) for side, rev in zip(SIDES, (args.parent_rev, "HEAD"))}
    report = {
        "parent_rev": revs["parent"],
        "change_rev": revs["change"],
        "trees": {side: {t: git(root, "rev-parse", f"{rev}:{t}") for t in TREES}
                  for side, rev in revs.items()},
        "pairs": args.n,
        "seconds": seconds,
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        },
        "workloads": {},
    }
    with parent_worktree(root, args.parent_rev) as parent:
        checkout = {"parent": parent, "change": root}
        for workload in workloads:
            runs: list[dict] = []
            for i in range(args.n):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = runner(checkout[side], workload, seed, seconds)
                runs.append(run)
                report["workloads"][workload] = {**summarise(runs, bench["end_to_end"]), "runs": runs}
                args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                print(f"{workload} pair {i + 1}/{args.n} seed {seed} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
