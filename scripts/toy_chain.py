"""Run the toy CLI chain and print a sha256 digest of everything it writes.

Usage: python scripts/toy_chain.py OUT_DIR

OUT_DIR must not exist or be empty. The chain goes through
``kgpath.cli.main`` of the checkout this script sits in:

1. ``synth --seed 7 --n-entities 1000 --n-edges 5000 --n-queries 250 --dim 64``
   into ``OUT_DIR/suite``, then ``build-index`` into ``OUT_DIR/index``;
2. for ``--mode open`` and ``--mode closed``, each into ``OUT_DIR/<mode>``:
   ``schema``, ``train`` (2 + 2 epochs, ``batch_size=1 lr=2e-3``), ``eval``,
   ``prune`` of the schema dump, ``infer --qid q0201`` and ``export-dot`` of
   q0201's pruned graph with the inferred paths overlaid.

Every command reads the graph from the saved index. The output is one
``<sha256>  <path relative to OUT_DIR>`` line per file written, then one for
``stdout``, everything the commands printed. Manifests and printed lines hold
absolute paths, so two trees compare only when both ran into the same
OUT_DIR: run one checkout, move its OUT_DIR aside, run the other into the
same OUT_DIR, and diff the two listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kgpath.cli import main as kgpath  # noqa: E402

QID = "q0201"


def run(argv: list[str]) -> None:
    if kgpath(argv) != 0:
        raise SystemExit(f"toy chain: {argv[0]} failed")


def chain(out: Path) -> None:
    suite, index = out / "suite", out / "index"
    run(["synth", "--out", str(suite), "--seed", "7", "--n-entities", "1000",
         "--n-edges", "5000", "--n-queries", "250", "--dim", "64"])
    config = ["--config", str(suite / "suite.config")]
    run(["build-index", *config, "--out", str(index)])
    for mode in ("open", "closed"):
        work = out / mode
        common = [*config, "--mode", mode, "--set", f"kg_index={index}"]
        ckpt = ["--checkpoint", str(work / "train" / "checkpoint.gpr")]
        run(["schema", *common, "--out", str(work / "schema")])
        run(["train", *common, "--out", str(work / "train"), "--set", "epochs_prune=2",
             "--set", "epochs_joint=2", "--set", "batch_size=1", "--set", "lr=2e-3"])
        run(["eval", *common, *ckpt, "--out", str(work / "eval")])
        run(["prune", *common, *ckpt, "--out", str(work / "prune"),
             "--schemas", str(work / "schema" / "schema_graphs.jsonl")])
        run(["infer", *common, *ckpt, "--qid", QID, "--out", str(work / "infer.jsonl")])
        run(["export-dot", "--dump", str(work / "prune" / "pruned_graphs.jsonl"),
             "--qid", QID, "--paths", str(work / "infer.jsonl"),
             "--out", str(work / f"{QID}.dot")])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"toy chain: {out} is not empty", file=sys.stderr)
        return 2
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        chain(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    print(f"{hashlib.sha256(printed.getvalue().encode()).hexdigest()}  stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
