"""Inference-path sampling, scoring, and joint training.

Paths are simple walks of at most k steps rooted at key nodes of the pruned
graph. A pruned graph is a set of surviving rows over its schema graph, so
walks run over the schema graph's one adjacency restricted to those rows, and
a walk's nodes are schema-graph rows from the start. ``list_walks`` lists
every distinct walk, each with its probability under a random walk (uniform
start among key nodes, uniform edge choice among edges that do not revisit a
node, 1/3 stop chance after each step), and a Gumbel-top-k keeps ``n_paths``
of them: all of them when they fit, otherwise a draw without replacement,
each walk in proportion to its probability. The listing holds every walk at
once, so its memory grows with the walk count: at k = 3 a pruned graph held
at most 502 walks on the ``infer-dense`` benchmark suite (untrained model)
and 5,405 on ``train-toy`` (during a 5 + 5 epoch training).

A batch of n paths is held as padded arrays, one row per path: ``rows``
(n, k+1) are the walked nodes' row positions in the unpruned schema graph,
root first, ``paths`` (n, k+1) their entity ids and ``rels`` (n, k) the
relation of each step. A path of L steps fills the first L+1 cells of its
``rows``/``paths`` row and the first L of its ``rels`` row; every other cell
is -1. ``pack_paths`` builds these arrays from flat lists, path after path.

``_forward_paths`` is the one scoring route, shared by inference
(``run_query``) and training (``train_joint_step``): it gathers the encoder
outputs of each path's walked nodes (a -1 cell reads a zero row, so short
paths are zero-padded to k blocks), passes them through f_t, joins the
textual and visual context through f_p, and scores against the query context
with the bilinear layer. Training labels a path 1 iff its terminal entity is
a ground-truth answer and couples the binary cross-entropy path loss with the
pruning triplet loss as an unweighted sum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metrics import gt_rank, recall_rates
from .neural import Adam, ScoringModel, bce_loss_backward, cosine_rows, make_optimizer
from .pruning import (
    PrunedGraph,
    QuerySample,
    check_prune_target,
    prune,
    prune_from_scores,
    rank_by_score,
    train_prune_step,
    triplet_terms,
)
from .schema import LocalAdjacency

WALK_STOP_PROB = 1.0 / 3.0


def mix_seed(*parts) -> int:
    """Stable 63-bit seed derived from heterogeneous parts (no salted hash)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class PathBatch:
    """One question's paths as -1 padded arrays, one row per path.

    ``rows`` (n, k+1): row positions in the unpruned schema graph of each
    path's nodes, root first. ``paths`` (n, k+1): the entity ids of the same
    nodes. ``rels`` (n, k): the relation of each step. A path of L steps
    fills cells 0..L of its ``rows`` and ``paths`` rows and 0..L-1 of its
    ``rels`` row; every other cell is -1. ``scores`` (n,) is None until the
    batch is scored.
    """

    qid: str
    rows: np.ndarray
    paths: np.ndarray
    rels: np.ndarray
    scores: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Steps per path."""
        return np.count_nonzero(self.rels >= 0, axis=1)

    def last(self, cells: np.ndarray) -> np.ndarray:
        """Each path's terminal cell of ``rows`` or ``paths``."""
        return cells[np.arange(len(self)), self.lengths]


def pack_paths(
    pg: PrunedGraph,
    nodes: Sequence[int],
    rels: Sequence[int],
    lengths: Sequence[int],
    k: int,
) -> PathBatch:
    """A batch from flat lists, path after path: ``nodes`` holds each path's
    row positions in the schema graph ``pg.sg`` (root first), ``rels`` its
    relations and ``lengths`` its step count (at most ``k``). The rows are
    stored as they are and their entity ids read from ``pg.sg.nodes``."""
    lengths = np.asarray(lengths, dtype=np.intp)
    at = np.asarray(nodes, dtype=np.intp)
    node_cells = np.arange(k + 1) <= lengths[:, None]
    rows = np.full((lengths.size, k + 1), -1, dtype=np.intp)
    rows[node_cells] = at
    paths = np.full((lengths.size, k + 1), -1, dtype=np.int64)
    paths[node_cells] = pg.sg.nodes[at]
    rel_cells = np.full((lengths.size, k), -1, dtype=np.int64)
    rel_cells[np.arange(k) < lengths[:, None]] = rels
    return PathBatch(qid=pg.sg.qid, rows=rows, paths=paths, rels=rel_cells)


def list_walks(
    adj: LocalAdjacency, roots: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct simple walk of 1..k edges from ``roots`` over ``adj``,
    in DFS order, with its log-probability under the walk process.

    Returns ``rows`` (n, k+1) and ``rels`` (n, k), -1 padded as in a
    ``PathBatch``, and ``logp`` (n,). DFS order takes the roots in the given
    order and each row's slots in adjacency order, and lists a walk before
    its extensions; the slots of a row that repeat one (neighbour, relation)
    are one walk, placed at the first of them. The walk process: the root is
    uniform over ``roots``; each step is uniform over the slots whose
    neighbour is not on the walk yet, so a repeated slot weighs its copies;
    below k steps the walk stops with probability ``WALK_STOP_PROB`` after
    each step, and it stops for sure at a dead end or after k steps.

    The walks are listed level by level, one frontier array per step count.
    """
    indptr, nbr = adj.indptr, adj.nbr
    # copies[s]: how many slots repeat slot s's (head, neighbour, relation),
    # counted at the first of them and 0 at the others
    n_rels = int(adj.rel.max(initial=0)) + 1
    key = (adj.head.astype(np.int64) * (indptr.size - 1) + nbr) * n_rels + adj.rel
    _, first, n_copies = np.unique(key, return_index=True, return_counts=True)
    copies = np.zeros(nbr.size)
    copies[first] = n_copies

    # each frontier walk's rows, then its root's index and each step's slot, -1 padded
    nodes = np.full((roots.size, k + 1), -1, dtype=np.intp)
    steps = np.full((roots.size, k + 1), -1, dtype=np.intp)
    nodes[:, 0], steps[:, 0] = roots, np.arange(roots.size)
    logq = np.full(roots.size, -np.log(roots.size))  # log P(the walk passes here)
    levels = []
    for length in range(k):
        last = nodes[:, length]
        deg = indptr[last + 1] - indptr[last]
        parent = np.repeat(np.arange(last.size), deg)
        slot = np.arange(parent.size) + np.repeat(indptr[last] - np.cumsum(deg) + deg, deg)
        free = (nbr[slot, None] != nodes[parent]).all(axis=1)
        n_free = np.bincount(parent[free], minlength=last.size)
        if length:
            levels.append((nodes, steps, logq + np.where(n_free > 0, np.log(WALK_STOP_PROB), 0.0)))
        child = free & (copies[slot] > 0)
        parent, slot = parent[child], slot[child]
        go_on = np.log1p(-WALK_STOP_PROB) if length else 0.0
        logq = logq[parent] + go_on + np.log(copies[slot] / n_free[parent])
        nodes, steps = nodes[parent], steps[parent]
        nodes[:, length + 1], steps[:, length + 1] = nbr[slot], slot
    levels.append((nodes, steps, logq))

    nodes, steps, logp = (np.concatenate(part) for part in zip(*levels))
    dfs = np.lexsort(steps.T[::-1])  # a -1 pad sorts a walk before its extensions
    steps = steps[dfs, 1:]
    return nodes[dfs], np.where(steps >= 0, adj.rel[steps], -1), logp[dfs]


def sample_paths(
    pg: PrunedGraph,
    n_paths: int = 200,
    k: int = 3,
    seed: int = 0,
) -> PathBatch:
    """Up to ``n_paths`` distinct simple walks of 1..k edges from the key nodes.

    ``list_walks`` lists every walk from the key nodes sorted by id, with its
    probability under the walk process. Each walk draws one Gumbel from
    ``np.random.default_rng(seed)``, and the ``n_paths`` walks of largest
    log-probability + Gumbel form the batch, in DFS order: a draw of
    ``n_paths`` walks without replacement, each in proportion to its
    probability (Gumbel-top-k). A graph holding at most ``n_paths`` walks
    yields all of them whatever the seed, and a larger one exactly
    ``n_paths``. A graph without usable edges yields an empty batch.
    """
    key_pos = pg.sg.key_rows()
    if not key_pos.size:
        raise ValueError("pruned graph has no key node to root paths at")
    rows, rels, logp = list_walks(pg.sg.adjacency().restricted(pg.rows), key_pos, k)
    gumbel = np.random.default_rng(seed).gumbel(size=logp.size)
    keep = np.sort(np.argsort(-(logp + gumbel), kind="stable")[:n_paths])
    rows, rels = rows[keep], rels[keep]
    return pack_paths(pg, rows[rows >= 0], rels[rels >= 0], np.count_nonzero(rels >= 0, axis=1), k)


# ---------------------------------------------------------------------------
# encoding and scoring
# ---------------------------------------------------------------------------


def _step_rows(batch: PathBatch, k: int) -> np.ndarray:
    """(n, k) rows of each path's walked nodes, -1 padded.

    The root key node is excluded: a k-step path contributes exactly k node
    vectors, and the root's information reaches the scorer through the query
    context instead.
    """
    steps = batch.rows[:, 1:]
    if steps.shape[1] > k:
        raise ValueError(f"a batch of paths up to {steps.shape[1]} steps exceeds k={k}")
    return steps


def _forward_paths(
    model: ScoringModel,
    batch: PathBatch,
    h: np.ndarray,
    ctx,
    train: bool = False,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Run f_t, f_p, f_bi over a path batch; returns (scores, h_p, cache).

    ``h`` holds the node encodings of the unpruned schema graph, by row.
    """
    d, n = model.d, len(batch)
    padded = np.concatenate([h, np.zeros((1, d))])  # row -1 reads zeros
    blocks = padded[_step_rows(batch, model.k)].reshape(n, model.k * d)
    h_t, cache_t = model.f_t.forward(blocks, train=train, rng=model.rng)
    feat = np.concatenate([np.tile(ctx.t, (n, 1)), np.tile(ctx.v, (n, 1)), h_t], axis=1)
    h_p, cache_p = model.f_p.forward(feat, train=train, rng=model.rng)
    scores, cache_bi = model.f_bi.forward(ctx.z, h_p)  # z' := z
    return scores, h_p, (cache_t, cache_p, cache_bi)


def _backward_paths(
    model: ScoringModel,
    batch: PathBatch,
    dscores: np.ndarray,
    cache: tuple,
    dh: np.ndarray,
) -> None:
    """Propagate score gradients back into the node-encoding gradient ``dh``.

    One ``bincount`` adds each walked cell's block in (path, step) order, so
    every entry of ``dh`` sums its terms in that order.
    """
    cache_t, cache_p, cache_bi = cache
    _, dh_p = model.f_bi.backward(dscores, cache_bi)
    dfeat = model.f_p.backward(dh_p, cache_p)
    d = model.d
    dh_t = dfeat[:, 2 * d : 3 * d]
    dblocks = model.f_t.backward(dh_t, cache_t)
    cells = _step_rows(batch, model.k).ravel()
    walked = cells >= 0
    slots = (cells[walked, None] * d + np.arange(d)).ravel()
    grads = dblocks.reshape(-1, d)[walked].ravel()
    dh += np.bincount(slots, weights=grads, minlength=dh.size).reshape(dh.shape)


def _path_labels(batch: PathBatch, gt_pos: np.ndarray, n_rows: int) -> np.ndarray:
    """1.0 for each path that ends on a ground-truth row, else 0.0."""
    is_gt = np.zeros(n_rows, dtype=bool)
    is_gt[gt_pos] = True
    return is_gt[batch.last(batch.rows)].astype(np.float64)


def aggregate_answers(batch: PathBatch) -> list[tuple[int, float]]:
    """Rank terminal entities by their best path score (ties: lower id first)."""
    if batch.scores is None:
        raise ValueError("aggregate_answers needs a scored batch")
    terminals = batch.last(batch.paths)
    order = np.lexsort((terminals, -batch.scores))
    _, first = np.unique(terminals[order], return_index=True)
    best = order[np.sort(first)]
    return list(zip(terminals[best].tolist(), batch.scores[best].tolist()))


def ranked_paths(batch: PathBatch) -> np.ndarray:
    """Path indices by descending score; ties keep batch order."""
    return np.argsort(-batch.scores, kind="stable")


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
    pg, h, s_cos = prune(model, sample, theta_p, target)
    batch = sample_paths(pg, n_paths, k, seed)
    batch.scores = _forward_paths(model, batch, h, sample.ctx)[0] if len(batch) else np.empty(0)
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
) -> tuple[float, float]:
    """One optimizer step of the joint loss (path BCE + pruning triplets).

    Paths are resampled for every step with a step- and query-dependent seed.
    Queries with no positive path still contribute negative labels to the
    BCE term. Node selection for pruning always uses eval-mode scores:
    dropout regularizes the gradients, but letting it randomize which nodes
    survive would starve the path loss of positives. Both come from one f_n
    pass, since dropout acts only after its hidden layer.
    """
    model.zero_grad()
    staged = []
    all_scores: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    n_terms_total = 0
    for sample in batch:
        h, cache_n, h_eval = model.f_n.forward(
            sample.x, train=True, rng=model.rng, with_eval=True
        )
        s_cos = cosine_rows(sample.ctx.z, h_eval)
        pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
        pbatch = sample_paths(pg, n_paths, k, mix_seed(step_seed, sample.qid))
        path_cache = None
        scores = np.empty(0)
        if len(pbatch):
            scores, _, path_cache = _forward_paths(model, pbatch, h, sample.ctx, train=True)
            all_scores.append(scores)
            all_labels.append(_path_labels(pbatch, sample.gt_pos, sample.sg.n_nodes))
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
            _backward_paths(model, pbatch, dscores, path_cache, dh)
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
    progress: bool = False,
) -> list[dict]:
    """Two-phase schedule: prune-only epochs, then joint epochs.

    During phase one only the node encoder is updated; the path networks stay
    bit-identical to their initialization. Per-epoch metrics (losses and
    training node R@1) are returned, one dict per epoch, for the caller to
    write once the schedule has ended. A ``target`` too small for some
    sample's key nodes is an ``InputError`` before any epoch runs.
    """
    for sample in train_samples:
        check_prune_target(sample.sg, target)
    optimizer = make_optimizer(optimizer, lr)
    order_rng = np.random.default_rng(mix_seed(seed, "epoch-order"))
    metrics: list[dict] = []

    def emit(entry: dict) -> None:
        metrics.append(entry)
        if progress:
            print(
                f"[{entry['phase']}] epoch {entry['epoch']:3d} "
                f"loss={entry['loss']:.4f} train-node-R@1={entry['node_r1']:.3f}"
            )

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
    return metrics


def node_recall_rate(model: ScoringModel, samples: Sequence[QuerySample], k: int) -> float:
    """Cosine-ranked node recall@k over samples (eval mode); only each
    ranking's top-k prefix is scanned."""
    ranks = []
    for sample in samples:
        h, _ = model.f_n.forward(sample.x, train=False)
        s_cos = cosine_rows(sample.ctx.z, h)
        ranks.append(gt_rank(rank_by_score(sample.sg.nodes, s_cos)[:k], sample.gt))
    return recall_rates(ranks, (k,))[k]
