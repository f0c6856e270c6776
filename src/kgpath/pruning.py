"""Schema-graph pruning: node encoding, relevance scoring, triplet training.

A node is encoded as f_n([z || e_i || p_i || u_i]) and scored two ways: cosine
relevance against the query context z, and a breadth-first-search proximity
score from the key nodes (1 / (1 + hops), so key nodes score 1 and unreachable
nodes 0). The prune score blends them, s_prune = theta_p * s_bfs +
(1 - theta_p) * s_cos, and the top-scoring nodes survive with key nodes always
retained. The encoder trains on triplets anchored at z with ground-truth nodes
as positives and (by default) semi-hard mined negatives. ``triplet_terms``
mines, scores and differentiates every (positive, negative) pair of a
question in one array pass over the nodes' cosines.

A prepared question (``QuerySample``) keeps only the input rows it alone
owns, its text features p_i, and None in their place when it has none. f_n
reads its input as column blocks built each time it runs
(``QuerySample.node_input``): z once per question, the entity rows gathered
from the shared entity matrix, p_i only when the question has them, and the
node type as an index into f_n's one-hot columns. ``QuerySample.x``, the same
input as one dense matrix with zeros for absent text features, is the
reference that tests check against. BFS and pruning read the schema graph's
``key_rows`` and ``adjacency``, its one edge store, where every slot but a
self-loop is one walk step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import InputError
from .embeddings import QueryContext, TextFeatureProvider
from .kg import KnowledgeGraph, csr_slots
from .neural import Adam, ColumnBlocks, ScoringModel, cosine_rows
from .schema import SchemaGraph


@dataclass
class PrunedGraph:
    """Surviving rows of the schema graph ``sg``, ordered by descending prune
    score, with their scores.

    ``rows`` index ``sg`` and hold every key row; walks read ``sg``'s one
    edge store through a mask of ``rows``, each slot but a self-loop one
    step. ``base``, the survivors as a graph of their own (``base.nodes[i]``
    is ``sg.nodes[rows[i]]``), is built the first time it is read.
    """

    sg: SchemaGraph
    rows: np.ndarray
    s_cos: np.ndarray
    s_bfs: np.ndarray
    s_prune: np.ndarray

    @cached_property
    def base(self) -> SchemaGraph:
        return self.sg.restricted_to(self.rows)

    def to_json_obj(self, g: KnowledgeGraph, gt: Iterable[int] = ()) -> dict:
        obj = self.base.to_json_obj(g, gt)
        obj["scores"] = [
            [g.surface(int(n)), float(c), float(b), float(p)]
            for n, c, b, p in zip(self.base.nodes, self.s_cos, self.s_bfs, self.s_prune)
        ]
        return obj


def bfs_scores(sg: SchemaGraph) -> np.ndarray:
    """Multi-source BFS proximity from the key nodes, aligned to ``sg.nodes``.

    The search stops once every node is reached: on a built schema graph
    that is after the two-hop nodes, whose slots are then never gathered.
    """
    keys = sg.key_rows
    if not keys.size:
        raise ValueError("schema graph has no key nodes")
    adj = sg.adjacency
    dist = np.full(sg.n_nodes, -1, dtype=np.int64)
    dist[keys] = 0
    frontier, hops, unreached = keys, 0, sg.n_nodes - keys.size
    while frontier.size and unreached:
        hops += 1
        reached = adj.nbr[csr_slots(adj.indptr, frontier)[0]]
        dist[reached[dist[reached] < 0]] = hops
        frontier = np.flatnonzero(dist == hops)
        unreached -= frontier.size
    return np.where(dist >= 0, 1.0 / (1.0 + np.maximum(dist, 0)), 0.0)


def prune(
    model: ScoringModel,
    sample: QuerySample,
    theta_p: float,
    target: int,
    train: bool = False,
) -> tuple[PrunedGraph, np.ndarray, np.ndarray, Optional[tuple]]:
    """Node selection for one prepared query, from one f_n pass.

    Returns the pruned graph, the node encodings of the unpruned schema graph
    (from the dropout pass when ``train`` is set), their eval-mode cosines
    against the query context and, when ``train`` is set, f_n's cache (else
    None: held through an eval query's path scoring, it made ``train-toy``
    eval queries about 2% slower on a 2-core host). Selection reads eval-mode
    scores: dropout regularizes the gradients, but letting it randomize which
    nodes survive would starve the path loss of positives. One pass gives
    both, since dropout acts only after f_n's hidden layer.
    """
    h, cache_n, h_eval = model.f_n.forward(
        sample.node_input, train=train, rng=model.rng, with_eval=True
    )
    s_cos = cosine_rows(sample.ctx.z, h_eval)
    pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
    return pg, h, s_cos, cache_n if train else None


def check_prune_target(sg: SchemaGraph, target: int) -> None:
    """An ``InputError`` naming the question if ``target`` nodes cannot hold
    its key nodes, which pruning always keeps."""
    n_keys = sg.key_rows.size
    if target < n_keys:
        raise InputError(msg=f"{sg.qid}: prune target {target} cannot hold the {n_keys} key nodes")


def prune_from_scores(
    sg: SchemaGraph,
    s_cos: np.ndarray,
    s_bfs: np.ndarray,
    theta_p: float,
    target: int,
) -> PrunedGraph:
    """Keep the ``target`` best nodes under the blended prune score.

    Key nodes are always retained; ties break toward higher BFS score, then
    lower entity id.
    """
    if not 0.0 <= theta_p <= 1.0:
        raise ValueError("theta_p must lie in [0, 1]")
    check_prune_target(sg, target)
    key_rows = sg.key_rows
    s_prune = theta_p * s_bfs + (1.0 - theta_p) * s_cos
    order = np.lexsort((sg.nodes, -s_bfs, -s_prune))

    # every key, plus the best non-keys up to the target, in score order
    key_row = np.zeros(sg.n_nodes, dtype=bool)
    key_row[key_rows] = True
    is_key = key_row[order]
    idx = order[is_key | (np.cumsum(~is_key) <= min(target, sg.n_nodes) - key_rows.size)]
    return PrunedGraph(
        sg=sg,
        rows=idx,
        s_cos=s_cos[idx],
        s_bfs=s_bfs[idx],
        s_prune=s_prune[idx],
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class QuerySample:
    """One query prepared for training/inference against a fixed model shape.

    BFS scores and ground-truth positions depend only on the data, so they are
    computed once here. Of the encoder input, the sample keeps only its own
    text-feature rows ``p`` (one per schema node, or None when the question
    has no text feature) and a reference to the shared entity matrix ``emb``;
    ``node_input`` builds the column blocks that f_n reads, and ``x`` the same
    input as one dense matrix, on each read. ``sg`` keeps each edge once, by
    row: every slot but a self-loop is one walk step.
    """

    qid: str
    sg: SchemaGraph
    ctx: QueryContext
    gt: frozenset[int]
    p: Optional[np.ndarray]
    emb: np.ndarray
    gt_pos: np.ndarray
    neg_pos: np.ndarray
    s_bfs: np.ndarray
    split: str = "train"
    annotations: dict[int, float] = field(default_factory=dict)

    @property
    def node_input(self) -> ColumnBlocks:
        """The f_n input, [z || e_i || p_i || u_i] for every schema node, as
        column blocks: z shared, the entity rows gathered from the matrix, the
        text-feature rows if the question has them, and the node type u_i."""
        d = self.ctx.dim
        lo_p = d + self.emb.shape[1]  # first column of p_i
        dense = [(d, self.emb[self.sg.nodes])]
        if self.p is not None:
            dense.append((lo_p, self.p))
        return ColumnBlocks(self.ctx.z, dense, (lo_p + d, self.sg.types))

    @property
    def x(self) -> np.ndarray:
        """``node_input`` as one dense matrix: the reference route.

        Written into one fresh array: z broadcast, entity rows gathered from
        the matrix, the text-feature rows (zeros without them), and the one-hot
        node type u_i.
        """
        n, d = self.sg.n_nodes, self.ctx.dim
        lo_p = d + self.emb.shape[1]  # first column of p_i
        lo_u = lo_p + d  # first column of u_i
        x = np.empty((n, lo_u + 4))
        x[:, :d] = self.ctx.z
        x[:, d:lo_p] = self.emb[self.sg.nodes]
        x[:, lo_p:lo_u] = 0.0 if self.p is None else self.p
        u = x[:, lo_u:]
        u.fill(0.0)
        u[np.arange(n), self.sg.types] = 1.0
        return x

    @classmethod
    def build(
        cls,
        model: ScoringModel,
        sg: SchemaGraph,
        ctx: QueryContext,
        gt: Iterable[int],
        emb: np.ndarray,
        textfeat: TextFeatureProvider,
        split: str = "train",
        annotations: Optional[dict[int, float]] = None,
    ) -> "QuerySample":
        if ctx.dim != model.d:
            raise ValueError(f"context dim {ctx.dim} != model d {model.d}")
        if emb.shape[1] != model.D:
            raise ValueError(f"entity embedding dim {emb.shape[1]} != model D {model.D}")
        if textfeat.dim != model.d:
            raise ValueError(f"text feature dim {textfeat.dim} != model d {model.d}")
        gt = frozenset(int(e) for e in gt)
        is_gt = np.isin(sg.nodes, np.fromiter(gt, dtype=np.int64, count=len(gt)))
        return cls(
            qid=sg.qid or ctx.qid,
            sg=sg,
            ctx=ctx,
            gt=gt,
            p=textfeat.gather(ctx.qid, sg.nodes),
            emb=emb,
            gt_pos=np.flatnonzero(is_gt),
            neg_pos=np.flatnonzero(~is_gt),
            s_bfs=bfs_scores(sg),
            split=split,
            annotations=dict(annotations or {}),
        )


def triplet_terms(
    z: np.ndarray,
    h: np.ndarray,
    gt_pos: np.ndarray,
    neg_pos: np.ndarray,
    margin: float,
    semi_hard: bool,
) -> tuple[float, int, np.ndarray]:
    """Cosine triplet loss terms for one query's encodings, anchored at z.

    Returns (summed loss, term count, unscaled dL/dh). A term is the hinge
    max(0, d(z,p) - d(z,n) + margin) with d = 1 - cosine, over a (positives x
    negatives) pair mask. Semi-hard mode sets one cell per positive: the
    closest negative with d(z,p) < d(z,n) < d(z,p) + margin, else the hardest,
    ties to the lowest index. Otherwise every cell is set, the all-triplets
    ablation. A zero-norm row or a zero z has cosine 0 and gradient 0.
    """
    dh = np.zeros_like(h)
    if gt_pos.size == 0 or neg_pos.size == 0:
        return 0.0, 0, dh
    c = cosine_rows(z, h)
    d_pos = 1.0 - c[gt_pos, None]
    d_neg = 1.0 - c[neg_pos]
    if semi_hard:
        band = (d_neg > d_pos) & (d_neg < d_pos + margin)
        closest = np.where(band, d_neg, np.inf).argmin(axis=1)
        pairs = np.zeros(band.shape, dtype=bool)
        pairs[np.arange(gt_pos.size), np.where(band.any(axis=1), closest, d_neg.argmin())] = True
    else:
        pairs = np.ones((gt_pos.size, neg_pos.size), dtype=bool)
    hinge = d_pos - d_neg + margin
    active = pairs & (hinge > 0.0)
    # an active pair's loss is cos(z, n) - cos(z, p) + margin, so a row's dL/dh
    # is d cos(z, h) / dh times its active pairs, negated for a positive row
    weight = np.zeros(h.shape[0])
    weight[gt_pos] = -active.sum(axis=1)
    weight[neg_pos] = active.sum(axis=0)
    nz = np.linalg.norm(z)
    nh = np.linalg.norm(h, axis=1)
    rows = np.flatnonzero((weight != 0.0) & (nh >= 1e-12) & (nz >= 1e-12))
    nr = nh[rows, None]
    dh[rows] = weight[rows, None] * (z / (nz * nr) - c[rows, None] * h[rows] / (nr * nr))
    return float(hinge[active].sum()), int(pairs.sum()), dh


def train_prune_step(
    model: ScoringModel,
    batch: Sequence[QuerySample],
    optimizer: Adam,
    margin: float,
    semi_hard: bool,
) -> float:
    """One optimizer step of the pruning loss over a batch; the mean loss.

    A sample without a ground-truth node or without a negative adds no
    triplet term, and a batch without any term changes no parameter.
    """
    model.zero_grad()
    staged = []
    total_loss, n_terms_total = 0.0, 0
    for sample in batch:
        h, cache = model.f_n.forward(sample.node_input, train=True, rng=model.rng)
        loss_sum, n_terms, dh = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        staged.append((cache, dh))
        total_loss += loss_sum
        n_terms_total += n_terms
    if n_terms_total == 0:
        return 0.0

    for cache, dh in staged:
        model.f_n.backward(dh / n_terms_total, cache)
    optimizer.step(model.parameters("f_n."))
    return total_loss / n_terms_total


def node_gt_rank(entity_ids: np.ndarray, scores: np.ndarray, gt_pos: np.ndarray) -> Optional[int]:
    """Position of the first ground-truth row ``gt_pos`` once the nodes are
    sorted by descending score, ascending id on ties, counted without the
    sort; None without a ground-truth row."""
    if not gt_pos.size:
        return None
    gt_scores = scores[gt_pos]
    best = gt_scores.max()
    first = entity_ids[gt_pos][gt_scores == best].min()  # the best ground-truth row's id
    tied_before = (scores == best) & (entity_ids < first)
    return int(np.count_nonzero(scores > best) + np.count_nonzero(tied_before))
