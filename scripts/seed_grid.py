"""Train the toy suite at several seeds and print path and node recall per seed.

Usage: python scripts/seed_grid.py [SEED ...]   (default: 7 0 11)

The toy suite of acceptance criterion 2 (``synth`` seed 7, 1000 entities,
5000 edges, 250 queries, alignment 0.9, dim 64) is generated into a
temporary directory and its runtime is loaded once through ``kgpath`` of the
checkout this script sits in, with criterion 2's overrides (``batch_size=1
lr=2e-3``) and the full 40 + 30 epoch schedule. For each grid seed N the
config's ``seed`` is replaced by N, which drives the schema shuffles, the
model's initial weights, the epoch order and the joint steps' walk seeds. The
trained model is evaluated on the test questions at 12 eval-path seeds,
``mix_seed(N + i, "eval-paths", qid)`` for i = 0..11.

One line is printed per grid seed: the mean and the minimum path R@10 (a GT
entity among the terminals of the 10 top-scored paths) over the 12 eval
seeds, the test node R@1, and the mean path R@10 over the open-split test
questions (no GT answer seen in training). Quality is reported over seeds,
not one draw. Three seeds take about 5 minutes on an idle 2-core host.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kgpath.config import load_config  # noqa: E402
from kgpath.linking import ground_truth_ids  # noqa: E402
from kgpath.metrics import gt_rank, recall_rates, split_open  # noqa: E402
from kgpath.neural import ScoringModel  # noqa: E402
from kgpath.paths import staged_training  # noqa: E402
from kgpath.pipeline import evaluate_queries, load_runtime, prepare_samples  # noqa: E402
from kgpath.synth import SuiteSpec, generate_suite  # noqa: E402

TOY_SPEC = SuiteSpec(seed=7, n_entities=1000, n_edges=5000, n_queries=250, alignment=0.9, dim=64)
TOY_OVERRIDES = {"batch_size": "1", "lr": "2e-3"}
GRID_SEEDS = (7, 0, 11)
N_EVAL_SEEDS = 12


def grid_row(rt, seed: int, train_answers: frozenset) -> tuple[float, float, float, float]:
    """(mean path R@10, min path R@10, test node R@1, open-split path R@10)."""
    # prepare_samples seeds the schema shuffles from rt.cfg
    cfg = rt.cfg = dataclasses.replace(rt.cfg, seed=seed)
    model = ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
    train, _ = prepare_samples(rt, model, rt.train_records())
    staged_training(
        model, train, epochs_prune=cfg.epochs_prune, epochs_joint=cfg.epochs_joint,
        lr=cfg.lr, batch_size=cfg.batch_size, theta_p=cfg.theta_p, target=cfg.prune_target,
        n_paths=cfg.n_paths, k=cfg.k, margin=cfg.margin, semi_hard=cfg.semi_hard,
        seed=cfg.seed,
    )
    test, _ = prepare_samples(rt, model, rt.test_records())
    is_open = [split_open(train_answers, s.gt) == "open" for s in test]
    path_ranks, node_r1 = [], None
    for i in range(N_EVAL_SEEDS):
        results = evaluate_queries(model, test, dataclasses.replace(cfg, seed=seed + i))
        path_ranks.append([gt_rank(r.path_terminals, r.gt) for r in results])
        if node_r1 is None:
            node_r1 = recall_rates([gt_rank(r.node_ranking, r.gt) for r in results], [1])[1]
    per_seed = np.array([recall_rates(ranks, [10])[10] for ranks in path_ranks])
    open_ranks = [r for ranks in path_ranks for r, o in zip(ranks, is_open) if o]
    open_r10 = recall_rates(open_ranks, [10])[10]
    return float(per_seed.mean()), float(per_seed.min()), node_r1, open_r10


def main(argv: list[str]) -> int:
    try:
        seeds = [int(a) for a in argv] or list(GRID_SEEDS)
    except ValueError:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        generate_suite(Path(tmp), TOY_SPEC)
        rt = load_runtime(load_config(Path(tmp) / "suite.config", dict(TOY_OVERRIDES)))
        train_answers = frozenset().union(
            *[ground_truth_ids(rt.g, r) for r in rt.train_records()]
        )
        print(f"ptm_mode={rt.cfg.ptm_mode}, {N_EVAL_SEEDS} eval seeds per grid seed")
        print("seed  path_R@10_mean  path_R@10_min  node_R@1  open_path_R@10")
        for seed in seeds:
            mean, low, node_r1, open_r10 = grid_row(rt, seed, train_answers)
            print(f"{seed:>4}  {mean:>14.3f}  {low:>13.3f}  {node_r1:>8.3f}  {open_r10:>14.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
