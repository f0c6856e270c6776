"""Inference-path sampling, scoring, and joint training.

Paths are simple walks of at most k steps rooted at key nodes of the pruned
graph. A pruned graph is a set of surviving rows over its schema graph, so
walks read the schema graph's one edge store through a mask of those rows (a
step to a pruned row is not taken), and a walk's nodes are schema-graph rows
from the start. A schema graph's (head, relation, tail) edges are distinct,
so every slot but a self-loop is one walk step. ``list_walks`` lists every
walk, each with its probability under a random walk (uniform start among
key nodes, uniform edge choice among the edges to kept rows that do not
revisit a node, 1/3 stop chance after each step), and a Gumbel-top-k
keeps ``n_paths`` of them: all of them when they fit, with no draw,
otherwise a draw without replacement, each walk in proportion to its
probability. The listing holds every walk at once, as per-level 1-D arrays
of a few numbers per walk (its parent's index, last node, last relation,
log-probability and DFS position) rather than as rows; only the kept walks
are built into rows. At k = 3 a pruned graph held at most 502 walks on the
``infer-dense`` benchmark suite (untrained model) and 5,405 on ``train-toy``
(during a 5 + 5 epoch training).

A batch of n paths is held as padded arrays, one row per path: ``rows``
(n, k+1) are the walked nodes' row positions in the unpruned schema graph,
root first, ``paths`` (n, k+1) their entity ids and ``rels`` (n, k) the
relation of each step. A path of L steps fills the first L+1 cells of its
``rows``/``paths`` row and the first L of its ``rels`` row; every other cell
is -1. ``WalkList.cells`` builds the kept walks' rows and relations in this
layout, and ``pack_paths`` adds their entity ids.

``run_query`` is the one per-question route, for inference and, in training
mode, for each question of ``train_joint_step``: ``prune``, ``sample_paths``,
then ``_forward_paths``, the one scoring route, which a batch with no path
passes as zero rows. It gathers the encoder outputs of each path's walked
nodes and zeroes the -1 cells, so short paths are zero-padded to k blocks,
passes them through f_t, joins the textual and visual context through f_p
(one shared [t || v] block, so its product is taken once per batch), and
scores against the query context with the bilinear layer. Training labels a
path 1 iff its terminal entity is a ground-truth answer and couples the binary
cross-entropy path loss with the pruning triplet loss as an unweighted sum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .kg import csr_slots
from .metrics import recall_rates
from .neural import Adam, ColumnBlocks, ScoringModel, bce_loss_backward, cosine_rows, make_optimizer
from .pruning import (
    PrunedGraph,
    QuerySample,
    check_prune_target,
    prune,
    node_gt_rank,
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
    batch is scored. ``lengths`` (n,), the steps per path, is counted once,
    when the batch is made.
    """

    rows: np.ndarray
    paths: np.ndarray
    rels: np.ndarray
    scores: Optional[np.ndarray] = None
    lengths: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.lengths = np.count_nonzero(self.rels >= 0, axis=1)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def last(self, cells: np.ndarray) -> np.ndarray:
        """Each path's terminal cell of ``rows`` or ``paths``."""
        return cells[np.arange(len(self)), self.lengths]


def pack_paths(pg: PrunedGraph, rows: np.ndarray, rels: np.ndarray) -> PathBatch:
    """A batch from -1 padded ``rows`` (n, k+1), each path's row positions in
    the schema graph ``pg.sg`` (root first), and ``rels`` (n, k). The rows are
    stored as they are and their entity ids read from ``pg.sg.nodes``."""
    rows = np.asarray(rows, dtype=np.intp)
    paths = np.where(rows >= 0, pg.sg.nodes[rows], -1)
    return PathBatch(rows=rows, paths=paths, rels=np.asarray(rels, dtype=np.int64))


class WalkList(NamedTuple):
    """Entries in level order: the roots (each its own parent, ``rel`` -1),
    then every 1-step walk, every 2-step walk, and so on. Entry i extends
    entry ``parent[i]`` by a step of relation ``rel[i]`` to row ``node[i]``;
    ``logp[i]`` is the log-probability of drawing that walk (of starting at
    the root), and ``order`` lists the walks' entries in DFS order."""

    parent: np.ndarray
    node: np.ndarray
    rel: np.ndarray
    length: np.ndarray
    logp: np.ndarray
    order: np.ndarray

    def cells(self, at: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` (m, k+1) and ``rels`` (m, k) of the walks ``at``, -1
        padded as in a ``PathBatch``, filled from the last cell back by
        walking up the parents; a root, its own parent, rewrites its cell."""
        root_cell = np.arange(at.size) * (k + 1)
        cell = root_cell + self.length[at]
        rows = np.full((at.size, k + 1), -1, dtype=np.intp)
        rels = np.full((at.size, k + 1), -1, dtype=self.rel.dtype)
        for _ in range(k + 1):
            np.put(rows, cell, self.node[at])
            np.put(rels, cell, self.rel[at])
            at, cell = self.parent[at], np.maximum(cell - 1, root_cell)
        return rows, rels[:, 1:]


def list_walks(adj: LocalAdjacency, roots: np.ndarray, k: int, kept: np.ndarray) -> WalkList:
    """Every simple walk of 1..k edges from ``roots`` over the rows of ``adj``
    that the boolean row mask ``kept`` marks, with its log-probability under
    the walk process and its DFS position. The roots must be kept rows.

    ``adj`` must hold distinct (head, neighbour, relation) slots, as the
    adjacency of every ``SchemaGraph`` does: each slot but a self-loop (never
    free) is then one walk. DFS order takes the roots in the given order and
    each row's slots in adjacency order, and lists a walk before its
    extensions. The walk
    process: the root is uniform over ``roots``; each step is uniform over
    the slots whose neighbour is kept and not on the walk yet; below k steps
    the walk stops with probability ``WALK_STOP_PROB`` after each step, and
    it stops for sure at a dead end or after k steps.

    Each level is listed as 1-D arrays, one entry per walk, and a step is
    free if its neighbour is kept and differs from the node of every
    ancestor, read by following the parent indices. No walk is sorted or
    built into a row.
    """
    # per level (level 0: the roots), each entry's parent index in the level
    # above, last node, last relation and log-probability
    logq = np.full(roots.size, -np.log(roots.size))  # log P(the walk passes here)
    parents, nodes = [np.arange(roots.size)], [roots]
    rels, logps = [np.full(roots.size, -1, dtype=adj.rel.dtype)], [logq]
    for length in range(k):
        last = nodes[-1]
        slot, deg = csr_slots(adj.indptr, last)
        parent = np.repeat(np.arange(last.size), deg)
        step, up = adj.nbr[slot], parent
        free = kept[step] & (step != last[up])
        for parent_of, node in zip(parents[:0:-1], nodes[-2::-1]):
            up = parent_of[up]
            free &= step != node[up]
        n_free = np.bincount(parent[free], minlength=last.size)
        if length:
            logps.append(logq + np.where(n_free > 0, np.log(WALK_STOP_PROB), 0.0))
        parent, slot = parent[free], slot[free]
        go_on = np.log1p(-WALK_STOP_PROB) if length else 0.0
        logq = logq[parent] + go_on + np.log(1.0 / n_free[parent])
        parents.append(parent)
        nodes.append(step[free])
        rels.append(adj.rel[slot])
    logps.append(logq)

    # DFS positions without a sort: a walk comes after the subtrees of the
    # earlier walks of its level and after the shallower walks before it,
    # which are its parent, the earlier walks of its parent's level and theirs
    sizes = [np.ones(nodes[-1].size)]
    for parent, above in zip(parents[:1:-1], nodes[-2:0:-1]):
        sizes.insert(0, np.bincount(parent, weights=sizes[0], minlength=above.size) + 1)
    shallower = [np.zeros(nodes[1].size)]
    for parent in parents[2:]:
        shallower.append(shallower[-1][parent] + parent + 1)
    pos = np.concatenate([np.cumsum(s) - s + d for s, d in zip(sizes, shallower)])

    counts = [v.size for v in nodes]
    first = np.cumsum([0] + counts)  # each level's first entry
    order = np.empty(first[-1] - roots.size, dtype=np.intp)
    order[pos.astype(np.intp)] = np.arange(roots.size, first[-1])
    return WalkList(
        parent=np.concatenate(parents[:1] + [p + lo for p, lo in zip(parents[1:], first)]),
        node=np.concatenate(nodes),
        rel=np.concatenate(rels),
        length=np.repeat(np.arange(k + 1), counts),
        logp=np.concatenate(logps),
        order=order,
    )


def top_positions(key: np.ndarray, n: int) -> np.ndarray:
    """``np.sort(np.argsort(-key, kind="stable")[:n])`` for keys without NaN,
    from one partition: the positions of the ``n`` largest keys, ascending,
    ties at the cut to the lower positions; ``n`` is read as a slice bound."""
    n = len(range(key.size)[:n])
    if n in (0, key.size):
        return np.arange(n)
    cut = np.partition(key, key.size - n)[key.size - n]
    keep = key > cut
    keep[np.flatnonzero(key == cut)[: n - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def sample_paths(
    pg: PrunedGraph,
    n_paths: int,
    k: int,
    seed: int,
) -> PathBatch:
    """Up to ``n_paths`` distinct simple walks of 1..k edges from the key nodes.

    ``list_walks`` lists every walk from the key nodes sorted by id, with its
    probability under the walk process and its DFS position. The walk at DFS
    position i draws the i-th Gumbel from ``np.random.default_rng(seed)``,
    and the ``n_paths`` walks of largest log-probability + Gumbel (ties to
    the earlier DFS position) form the batch, in DFS order: a draw of
    ``n_paths`` walks without replacement, each in proportion to its
    probability (Gumbel-top-k). Only the kept walks are built into rows. A
    graph holding at most ``n_paths`` walks yields all of them in DFS order
    with no draw, so whatever the seed, and a larger one exactly
    ``n_paths``. A graph without usable edges yields an empty batch.
    """
    key_pos = pg.sg.key_rows
    if not key_pos.size:
        raise ValueError("pruned graph has no key node to root paths at")
    kept = np.zeros(pg.sg.n_nodes, dtype=bool)
    kept[pg.rows] = True
    walks = list_walks(pg.sg.adjacency, key_pos, k, kept)
    keep = walks.order
    if keep.size > n_paths:
        gumbel = np.random.default_rng(seed).gumbel(size=keep.size)
        keep = keep[top_positions(walks.logp[keep] + gumbel, n_paths)]
    return pack_paths(pg, *walks.cells(keep, k))


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
    train: bool,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Run f_t, f_p, f_bi over a path batch; returns (scores, h_p, cache).

    ``h`` holds the node encodings of the unpruned schema graph, by row.
    """
    steps = _step_rows(batch, model.k)
    blocks = h[steps]
    blocks[steps < 0] = 0.0  # a -1 cell reads a zero row
    blocks = blocks.reshape(len(batch), model.k * model.d)
    h_t, cache_t = model.f_t.forward(blocks, train=train, rng=model.rng)
    feat = ColumnBlocks(np.concatenate([ctx.t, ctx.v]), [(2 * model.d, h_t)])
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
    dh_p = model.f_bi.backward(dscores, cache_bi)
    dh_t = model.f_p.backward(dh_p, cache_p)
    d = model.d
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


def aggregate_answers(batch: PathBatch, terminals: np.ndarray) -> list[tuple[int, float]]:
    """Rank terminal entities by their best path score (ties: lower id first).
    ``terminals`` is ``batch.last(batch.paths)``, which the caller reads too."""
    if batch.scores is None:
        raise ValueError("aggregate_answers needs a scored batch")
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
    theta_p: float,
    target: int,
    n_paths: int,
    k: int,
    seed: int,
    train: bool = False,
) -> tuple[PrunedGraph, PathBatch, np.ndarray, np.ndarray, Optional[tuple], tuple]:
    """One query through the pipeline: prune, sample, score (with dropout if
    ``train``). Returns the pruned graph, the scored path batch, the
    schema-node cosine scores (for node-level ranking), and what the backward
    pass reads: the node encodings, f_n's cache (None unless ``train``) and
    the path cache.
    """
    pg, h, s_cos, cache_n = prune(model, sample, theta_p, target, train)
    batch = sample_paths(pg, n_paths, k, seed)
    batch.scores, _, path_cache = _forward_paths(model, batch, h, sample.ctx, train)
    return pg, batch, s_cos, h, cache_n, path_cache


def train_joint_step(
    model: ScoringModel,
    batch: Sequence[QuerySample],
    optimizer: Adam,
    theta_p: float,
    target: int,
    n_paths: int,
    k: int,
    margin: float,
    semi_hard: bool,
    step_seed: int,
) -> tuple[float, float]:
    """One optimizer step of the joint loss (path BCE + pruning triplets).

    Each query runs ``run_query`` in training mode, so paths are resampled
    for every step with a step- and query-dependent seed. One BCE is taken
    over every query's path scores together; queries with no positive path
    still contribute negative labels, and a query with no path adds zero
    rows.
    """
    model.zero_grad()
    staged = []
    loss_prune, n_terms_total = 0.0, 0
    for sample in batch:
        _, pbatch, _, h, cache_n, path_cache = run_query(
            model, sample, theta_p, target, n_paths, k, mix_seed(step_seed, sample.qid), train=True
        )
        loss_sum, n_terms, dh_trip = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        loss_prune += loss_sum
        n_terms_total += n_terms
        staged.append((sample, pbatch, path_cache, cache_n, dh_trip))

    loss_cls, dscores = bce_loss_backward(
        np.concatenate([pb.scores for _, pb, *_ in staged]),
        np.concatenate([_path_labels(pb, s.gt_pos, s.sg.n_nodes) for s, pb, *_ in staged]),
    )

    offset = 0
    for sample, pbatch, path_cache, cache_n, dh_trip in staged:
        dh = np.zeros((sample.sg.n_nodes, model.d))
        _backward_paths(model, pbatch, dscores[offset : offset + len(pbatch)], path_cache, dh)
        offset += len(pbatch)
        if n_terms_total:
            dh += dh_trip / n_terms_total
        model.f_n.backward(dh, cache_n)
    if n_terms_total:
        loss_prune /= n_terms_total

    optimizer.step(model.parameters())
    return loss_cls, loss_prune


# ---------------------------------------------------------------------------
# staged schedule
# ---------------------------------------------------------------------------


def staged_training(
    model: ScoringModel,
    train_samples: Sequence[QuerySample],
    epochs_prune: int,
    epochs_joint: int,
    lr: float,
    batch_size: int,
    theta_p: float,
    target: int,
    n_paths: int,
    k: int,
    margin: float,
    semi_hard: bool,
    seed: int,
    optimizer: str = "adam",
    progress: bool = False,
) -> list[dict]:
    """Two-phase schedule, one epoch loop: ``epochs_prune`` prune epochs,
    then ``epochs_joint`` joint epochs.

    - prune: ``train_prune_step`` over the samples with a ground-truth node
      and a negative, with no step seed; only the node encoder is updated.
      Entry keys: ``phase``, ``epoch``, ``loss``, ``node_r1``.
    - joint: ``train_joint_step`` over every sample, step ``s`` of epoch
      ``e`` seeded ``mix_seed(seed, "joint", e, s)``. Entry keys: ``phase``,
      ``epoch``, ``loss`` (``loss_cls`` + ``loss_prune``), ``loss_cls``,
      ``loss_prune``, ``node_r1``.

    An epoch takes its samples in a fresh permutation, ``batch_size`` per
    step; each loss is its mean over the steps (0.0 without a step) and
    ``node_r1`` the training node R@1 after the epoch. The entries are
    returned, one per epoch, for the caller to write. A ``target`` too small
    for some sample's key nodes is an ``InputError`` before any epoch runs.
    """
    for sample in train_samples:
        check_prune_target(sample.sg, target)
    optimizer = make_optimizer(optimizer, lr)
    order_rng = np.random.default_rng(mix_seed(seed, "epoch-order"))

    def prune_step(chunk, epoch, step):
        return (train_prune_step(model, chunk, optimizer, margin, semi_hard),)

    def joint_step(chunk, epoch, step):
        return train_joint_step(model, chunk, optimizer, theta_p, target, n_paths, k, margin,
                                semi_hard, step_seed=mix_seed(seed, "joint", epoch, step))

    trainable = [s for s in train_samples if s.gt_pos.size and s.neg_pos.size]
    phases = (
        ("prune", epochs_prune, trainable, prune_step, ("loss",)),
        ("joint", epochs_joint, train_samples, joint_step, ("loss_cls", "loss_prune")),
    )
    metrics: list[dict] = []
    for phase, epochs, samples, run_step, names in phases:
        for epoch in range(epochs):
            order = order_rng.permutation(len(samples))
            losses = [
                run_step([samples[i] for i in order[lo : lo + batch_size]], epoch, step)
                for step, lo in enumerate(range(0, len(samples), batch_size))
            ]
            columns = zip(*losses) if losses else [[0.0]] * len(names)  # one loss list per name
            means = {name: float(np.mean(column)) for name, column in zip(names, columns)}
            loss = sum(means.values())
            node_r1 = node_recall_rate(model, train_samples, 1)
            metrics.append({"phase": phase, "epoch": epoch, "loss": loss, **means, "node_r1": node_r1})
            if progress:
                print(f"[{phase}] epoch {epoch:3d} loss={loss:.4f} train-node-R@1={node_r1:.3f}")
    return metrics


def node_recall_rate(model: ScoringModel, samples: Sequence[QuerySample], k: int) -> float:
    """Cosine-ranked node recall@k over samples (eval mode), from each
    sample's ``node_gt_rank``."""
    ranks = []
    for sample in samples:
        h, _ = model.f_n.forward(sample.node_input, train=False)
        ranks.append(node_gt_rank(sample.sg.nodes, cosine_rows(sample.ctx.z, h), sample.gt_pos))
    return recall_rates(ranks, (k,))[k]
