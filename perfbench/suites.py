"""Seeded synthetic inputs for the benchmark workloads, with a digest-checked cache.

Each workload's suite comes from ``kgpath.synth.generate_suite`` and depends on
the workload name and the seed only. Generation runs in a child process, so
neither its time nor its memory is charged to the workload being measured.
A cached suite is reused only when every file listed in its ``manifest.json``
still has the recorded sha256 digest and the recorded generator parameters
match the ones asked for.

Run as a script to generate one suite into a directory:

    python3 perfbench/suites.py <workload> <seed> <out_dir>
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / "_work" / "suites"
#: suites kept per workload; older seeds are evicted to bound disk use
KEEP_PER_WORKLOAD = 3
GENERATE_TIMEOUT_S = 170

#: Generator parameters per workload, on top of ``SuiteSpec`` defaults.
#: ``scale-retrieve`` keeps the ROADMAP scale suite's degree (about 11.6
#: directed edges per entity) at a quarter of its size, so that three
#: ingests plus the timed loop fit in well under a minute.
SPECS = {
    "train-toy": dict(n_entities=1000, n_edges=5000, n_queries=250, alignment=0.9, dim=64),
    "infer-dense": dict(n_entities=20_000, n_edges=300_000, n_queries=250, dim=64),
    "scale-retrieve": dict(
        n_entities=129_196,
        n_edges=750_000,
        n_queries=250,
        n_question_keys=2,
        n_visual_keys=6,
        emit_vectors=False,
    ),
}

#: Tiny shapes used by the benchmark's own smoke tests.
SMOKE_SPECS = {
    "train-toy": dict(n_entities=300, n_edges=1500, n_queries=20, alignment=0.9, dim=16),
    "infer-dense": dict(n_entities=600, n_edges=6000, n_queries=12, dim=16),
    "scale-retrieve": dict(
        n_entities=2000,
        n_edges=12_000,
        n_queries=12,
        n_question_keys=2,
        n_visual_keys=6,
        emit_vectors=False,
    ),
}


def make_spec(params: dict, seed: int):
    from kgpath.synth import SuiteSpec

    return SuiteSpec(seed=seed, **params)


def _digests_match(suite_dir: Path, spec) -> bool:
    from kgpath.config import sha256_file

    try:
        manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    # a JSON round trip turns hop_mix keys into strings, as the manifest has them
    if manifest.get("params") != json.loads(json.dumps(dataclasses.asdict(spec))):
        return False
    files = manifest.get("files") or {}
    for name, digest in files.items():
        path = suite_dir / name
        if not path.is_file() or sha256_file(path) != digest:
            return False
    return bool(files)


def _evict(workload: str, keep: Path) -> None:
    others = [p for p in CACHE.glob(f"{workload}-*") if p.is_dir() and p != keep]
    others.sort(key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[KEEP_PER_WORKLOAD - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure_suite(workload: str, seed: int, smoke: bool = False) -> Path:
    """Directory holding the workload's suite for ``seed``, generated if needed."""
    params = (SMOKE_SPECS if smoke else SPECS)[workload]
    tag = "smoke-" if smoke else ""
    suite_dir = CACHE / f"{tag}{workload}-{seed}"
    spec = make_spec(params, seed)
    if _digests_match(suite_dir, spec):
        suite_dir.touch()
        return suite_dir
    shutil.rmtree(suite_dir, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), workload, str(seed), str(suite_dir)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=GENERATE_TIMEOUT_S)
    if not _digests_match(suite_dir, spec):
        raise RuntimeError(f"generated suite in {suite_dir} fails its own manifest check")
    if not smoke:
        _evict(workload, suite_dir)
    return suite_dir


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from kgpath.synth import generate_suite

    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    params = (SMOKE_SPECS if "--smoke" in argv[3:] else SPECS)[workload]
    generate_suite(out_dir, make_spec(params, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
