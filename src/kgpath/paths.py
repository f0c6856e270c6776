"""Inference-path sampling, scoring, and joint training.

Paths are simple walks of at most k steps rooted at key nodes of the pruned
graph, gathered by seeded random walks (uniform start among key nodes, uniform
edge choice among edges that do not revisit a node, 1/3 stop chance after each
step). ``_forward_paths`` is the one scoring route, shared by inference
(``run_query``) and training (``train_joint_step``): it concatenates the
encoder outputs of each path's walked nodes (zero-padded to k blocks), passes
them through f_t, joins the textual and visual context through f_p, and scores
against the query context with the bilinear layer. Training labels a path 1
iff its terminal entity is a ground-truth answer and couples the binary
cross-entropy path loss with the pruning triplet loss as an unweighted sum.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .metrics import recall_at_k
from .neural import Adam, ScoringModel, bce_loss_backward, cosine_rows, make_optimizer
from .pruning import (
    PrunedGraph,
    QuerySample,
    prune_from_scores,
    rank_by_score,
    train_prune_step,
    triplet_terms,
)

WALK_STOP_PROB = 1.0 / 3.0
MAX_ATTEMPT_FACTOR = 20


def mix_seed(*parts) -> int:
    """Stable 63-bit seed derived from heterogeneous parts (no salted hash)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass(frozen=True)
class InferencePath:
    """A key-node-rooted simple walk with its relations and (optional) score."""

    nodes: tuple[int, ...]
    relations: tuple[int, ...]
    score: Optional[float] = None

    @property
    def terminal(self) -> int:
        return self.nodes[-1]

    @property
    def length(self) -> int:
        return len(self.relations)


@dataclass
class PathBatch:
    qid: str
    paths: list[InferencePath] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.paths)


def sample_paths(
    pg: PrunedGraph,
    n_paths: int = 200,
    k: int = 3,
    seed: int = 0,
) -> PathBatch:
    """Collect up to ``n_paths`` distinct simple walks from the key nodes.

    Sampling stops after ``n_paths`` distinct paths or ``20 * n_paths``
    attempts, whichever comes first. Zero-length walks (immediate dead end)
    are discarded; a graph without usable edges yields an empty batch.
    """
    base = pg.base
    keys = sorted(base.key_ids())
    if not keys:
        raise ValueError("pruned graph has no key node to root paths at")
    pos = base.positions()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(base.n_nodes)]
    for h, r, t in zip(base.edges_head, base.edges_rel, base.edges_tail):
        if h != t:
            adj[pos[int(h)]].append((pos[int(t)], int(r)))

    key_pos = [pos[k_] for k_ in keys]
    node_ids = [int(n) for n in base.nodes]
    unit = random.Random(seed).random  # scaled unit draws beat randrange here
    n_keys = len(key_pos)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    paths: list[InferencePath] = []
    attempts = 0
    max_attempts = MAX_ATTEMPT_FACTOR * n_paths
    while len(paths) < n_paths and attempts < max_attempts:
        attempts += 1
        cur = key_pos[int(unit() * n_keys)]
        visited = {cur}
        node_seq = [cur]
        rel_seq: list[int] = []
        while True:
            out_edges = adj[cur]
            # Rejection sampling stays uniform over non-revisiting edges and
            # avoids building a filtered list on every hop; fall back to the
            # explicit filter when rejections pile up.
            step = None
            if out_edges:
                n_out = len(out_edges)
                for _ in range(8):
                    cand = out_edges[int(unit() * n_out)]
                    if cand[0] not in visited:
                        step = cand
                        break
                else:
                    options = [e for e in out_edges if e[0] not in visited]
                    if options:
                        step = options[int(unit() * len(options))]
            if step is None:
                break
            nxt, rel = step
            node_seq.append(nxt)
            rel_seq.append(rel)
            visited.add(nxt)
            cur = nxt
            if len(rel_seq) >= k:
                break
            if unit() < WALK_STOP_PROB:
                break
        if not rel_seq:
            continue
        sig = (tuple(node_ids[p] for p in node_seq), tuple(rel_seq))
        if sig in seen:
            continue
        seen.add(sig)
        paths.append(InferencePath(nodes=sig[0], relations=sig[1]))
    return PathBatch(qid=base.qid, paths=paths)


# ---------------------------------------------------------------------------
# encoding and scoring
# ---------------------------------------------------------------------------


def _path_blocks(
    model: ScoringModel,
    paths: Sequence[InferencePath],
    h: np.ndarray,
    positions: dict[int, int],
) -> np.ndarray:
    """Stack walked-node encodings per path, zero-padded to k blocks.

    The root key node is excluded: a k-step path contributes exactly k node
    vectors, and the root's information reaches the scorer through the query
    context instead.
    """
    d, k = model.d, model.k
    blocks = np.zeros((len(paths), k * d))
    for j, path in enumerate(paths):
        if path.length > k:
            raise ValueError(f"path of length {path.length} exceeds k={k}")
        for step, eid in enumerate(path.nodes[1:]):
            blocks[j, step * d : (step + 1) * d] = h[positions[eid]]
    return blocks


def _forward_paths(
    model: ScoringModel,
    paths: Sequence[InferencePath],
    h: np.ndarray,
    positions: dict[int, int],
    ctx,
    train: bool = False,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Run f_t, f_p, f_bi over a path list; returns (scores, h_p, cache)."""
    blocks = _path_blocks(model, paths, h, positions)
    h_t, cache_t = model.f_t.forward(blocks, train=train, rng=model.rng)
    n = len(paths)
    feat = np.concatenate([np.tile(ctx.t, (n, 1)), np.tile(ctx.v, (n, 1)), h_t], axis=1)
    h_p, cache_p = model.f_p.forward(feat, train=train, rng=model.rng)
    scores, cache_bi = model.f_bi.forward(ctx.z, h_p)  # z' := z
    return scores, h_p, (cache_t, cache_p, cache_bi)


def _backward_paths(
    model: ScoringModel,
    paths: Sequence[InferencePath],
    dscores: np.ndarray,
    cache: tuple,
    positions: dict[int, int],
    dh: np.ndarray,
) -> None:
    """Propagate score gradients back into the node-encoding gradient ``dh``."""
    cache_t, cache_p, cache_bi = cache
    _, dh_p = model.f_bi.backward(dscores, cache_bi)
    dfeat = model.f_p.backward(dh_p, cache_p)
    d = model.d
    dh_t = dfeat[:, 2 * d : 3 * d]
    dblocks = model.f_t.backward(dh_t, cache_t)
    for j, path in enumerate(paths):
        for step, eid in enumerate(path.nodes[1:]):
            dh[positions[eid]] += dblocks[j, step * d : (step + 1) * d]


def aggregate_answers(batch: PathBatch) -> list[tuple[int, float]]:
    """Rank terminal entities by their best path score (ties: lower id first)."""
    best: dict[int, float] = {}
    for p in batch.paths:
        if p.score is None:
            raise ValueError("aggregate_answers needs a scored batch")
        cur = best.get(p.terminal)
        if cur is None or p.score > cur:
            best[p.terminal] = p.score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def ranked_paths(batch: PathBatch) -> list[InferencePath]:
    """Paths by descending score; ties keep sampling order."""
    return sorted(batch.paths, key=lambda p: -p.score)


# ---------------------------------------------------------------------------
# joint training
# ---------------------------------------------------------------------------


def run_query(
    model: ScoringModel,
    sample: QuerySample,
    theta_p: float = 0.3,
    target: int = 100,
    n_paths: int = 200,
    k: int = 3,
    seed: int = 0,
) -> tuple[PrunedGraph, PathBatch, np.ndarray]:
    """Eval-mode pipeline for one query: prune, sample, score.

    Returns the pruned graph, the scored path batch, and the schema-node
    cosine scores (for node-level ranking).
    """
    h, _ = model.f_n.forward(sample.x, train=False)
    s_cos = cosine_rows(sample.ctx.z, h)
    pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
    batch = sample_paths(pg, n_paths, k, seed)
    if batch.paths:
        positions = sample.sg.positions()
        scores, _, _ = _forward_paths(model, batch.paths, h, positions, sample.ctx)
        batch = PathBatch(
            qid=batch.qid,
            paths=[replace(p, score=float(s)) for p, s in zip(batch.paths, scores)],
        )
    return pg, batch, s_cos


def train_joint_step(
    model: ScoringModel,
    batch: Sequence[QuerySample],
    optimizer: Adam,
    theta_p: float = 0.3,
    target: int = 100,
    n_paths: int = 200,
    k: int = 3,
    margin: float = 0.5,
    semi_hard: bool = True,
    step_seed: int = 0,
    train_mode: bool = True,
) -> tuple[float, float]:
    """One optimizer step of the joint loss (path BCE + pruning triplets).

    Paths are resampled for every step with a step- and query-dependent seed.
    Queries with no positive path still contribute negative labels to the
    BCE term. Node selection for pruning always uses eval-mode scores:
    dropout regularizes the gradients, but letting it randomize which nodes
    survive would starve the path loss of positives.
    """
    model.zero_grad()
    staged = []
    all_scores: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    n_terms_total = 0
    for sample in batch:
        h, cache_n = model.f_n.forward(sample.x, train=train_mode, rng=model.rng)
        if train_mode and model.dropout_rate > 0.0:
            h_select, _ = model.f_n.forward(sample.x, train=False)
            s_cos = cosine_rows(sample.ctx.z, h_select)
        else:
            s_cos = cosine_rows(sample.ctx.z, h)
        pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
        pbatch = sample_paths(pg, n_paths, k, mix_seed(step_seed, sample.qid))
        positions = sample.sg.positions()
        path_cache = None
        scores = np.empty(0)
        if pbatch.paths:
            scores, _, path_cache = _forward_paths(
                model, pbatch.paths, h, positions, sample.ctx, train=train_mode
            )
            all_scores.append(scores)
            all_labels.append(
                np.array([p.terminal in sample.gt for p in pbatch.paths], dtype=np.float64)
            )
        loss_sum, n_terms, dh_trip = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        n_terms_total += n_terms
        staged.append((sample, cache_n, pbatch, path_cache, dh_trip, loss_sum, len(scores)))

    flat_scores = np.concatenate(all_scores) if all_scores else np.empty(0)
    flat_labels = np.concatenate(all_labels) if all_labels else np.empty(0)
    loss_cls, dscore_flat = bce_loss_backward(flat_scores, flat_labels)

    loss_prune = 0.0
    offset = 0
    for sample, cache_n, pbatch, path_cache, dh_trip, loss_sum, n_scores in staged:
        dh = np.zeros((sample.sg.n_nodes, model.d))
        if n_scores:
            dscores = dscore_flat[offset : offset + n_scores]
            offset += n_scores
            _backward_paths(
                model, pbatch.paths, dscores, path_cache, sample.sg.positions(), dh
            )
        if n_terms_total:
            dh += dh_trip / n_terms_total
            loss_prune += loss_sum
        model.f_n.backward(dh, cache_n)
    if n_terms_total:
        loss_prune /= n_terms_total

    optimizer.step(model)
    return loss_cls, loss_prune


# ---------------------------------------------------------------------------
# staged schedule
# ---------------------------------------------------------------------------


def staged_training(
    model: ScoringModel,
    train_samples: Sequence[QuerySample],
    epochs_prune: int = 40,
    epochs_joint: int = 30,
    lr: float = 1e-4,
    batch_size: int = 8,
    theta_p: float = 0.3,
    target: int = 100,
    n_paths: int = 200,
    k: int = 3,
    margin: float = 0.5,
    semi_hard: bool = True,
    seed: int = 0,
    optimizer: str = "adam",
    log_path=None,
    progress: bool = False,
) -> list[dict]:
    """Two-phase schedule: prune-only epochs, then joint epochs.

    During phase one only the node encoder is updated; the path networks stay
    bit-identical to their initialization. Per-epoch metrics (losses and
    training node R@1) are returned and, when ``log_path`` is given, appended
    there as JSON lines.
    """
    optimizer = make_optimizer(optimizer, lr)
    order_rng = np.random.default_rng(mix_seed(seed, "epoch-order"))
    metrics: list[dict] = []
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None

    def emit(entry: dict) -> None:
        metrics.append(entry)
        if log_file:
            log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            log_file.flush()
        if progress:
            print(
                f"[{entry['phase']}] epoch {entry['epoch']:3d} "
                f"loss={entry['loss']:.4f} train-node-R@1={entry['node_r1']:.3f}"
            )

    try:
        trainable = [s for s in train_samples if s.gt_pos.size and s.neg_pos.size]
        for epoch in range(epochs_prune):
            order = order_rng.permutation(len(trainable))
            losses = []
            for lo in range(0, len(trainable), batch_size):
                chunk = [trainable[i] for i in order[lo : lo + batch_size]]
                loss, _ = train_prune_step(
                    model, chunk, optimizer, margin, semi_hard
                )
                losses.append(loss)
            emit(
                {
                    "phase": "prune",
                    "epoch": epoch,
                    "loss": float(np.mean(losses)) if losses else 0.0,
                    "node_r1": node_recall_rate(model, train_samples, 1),
                }
            )
        for epoch in range(epochs_joint):
            order = order_rng.permutation(len(train_samples))
            losses_cls, losses_prune = [], []
            for step, lo in enumerate(range(0, len(train_samples), batch_size)):
                chunk = [train_samples[i] for i in order[lo : lo + batch_size]]
                loss_cls, loss_prune = train_joint_step(
                    model,
                    chunk,
                    optimizer,
                    theta_p,
                    target,
                    n_paths,
                    k,
                    margin,
                    semi_hard,
                    step_seed=mix_seed(seed, "joint", epoch, step),
                )
                losses_cls.append(loss_cls)
                losses_prune.append(loss_prune)
            emit(
                {
                    "phase": "joint",
                    "epoch": epoch,
                    "loss": float(np.mean(losses_cls) + np.mean(losses_prune))
                    if losses_cls
                    else 0.0,
                    "loss_cls": float(np.mean(losses_cls)) if losses_cls else 0.0,
                    "loss_prune": float(np.mean(losses_prune)) if losses_prune else 0.0,
                    "node_r1": node_recall_rate(model, train_samples, 1),
                }
            )
    finally:
        if log_file:
            log_file.close()
    return metrics


def node_recall_rate(model: ScoringModel, samples: Sequence[QuerySample], k: int) -> float:
    """Mean cosine-ranked node recall@k over samples (eval mode)."""
    if not samples:
        return 0.0
    hits = 0
    for sample in samples:
        h, _ = model.f_n.forward(sample.x, train=False)
        s_cos = cosine_rows(sample.ctx.z, h)
        hits += recall_at_k(rank_by_score(sample.sg.nodes, s_cos), sample.gt, k)
    return hits / len(samples)
