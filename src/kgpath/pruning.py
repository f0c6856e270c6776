"""Schema-graph pruning: node encoding, relevance scoring, triplet training.

A node is encoded as f_n([z || e_i || p_i || u_i]) and scored two ways: cosine
relevance against the query context z, and a breadth-first-search proximity
score from the key nodes (1 / (1 + hops), so key nodes score 1 and unreachable
nodes 0). The prune score blends them, s_prune = theta_p * s_bfs +
(1 - theta_p) * s_cos, and the top-scoring nodes survive with key nodes always
retained. The encoder trains on triplets anchored at z with ground-truth nodes
as positives and (by default) semi-hard mined negatives.

A prepared question (``QuerySample``) keeps only the input rows it alone
owns, its text features p_i. The encoder input is assembled from z, the
shared entity table, p_i and the node types each time f_n runs, so a question
holds n x d input floats between epochs instead of n x (2d + D + 4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import InputError, atomic_write
from .embeddings import EntityEmbeddingTable, QueryContext, TextFeatureProvider
from .kg import KnowledgeGraph
from .neural import (
    Adam,
    ScoringModel,
    cosine_rows,
    mine_semi_hard,
    triplet_loss_backward,
)
from .schema import SchemaGraph


@dataclass
class PrunedGraph:
    """Surviving rows of the schema graph ``sg``, ordered by descending prune
    score, with their scores.

    ``rows`` index ``sg`` and hold every key row; walks run over
    ``sg.adjacency().restricted(rows)``. ``base``, the survivors as a graph
    of their own (``base.nodes[i]`` is ``sg.nodes[rows[i]]``), is built the
    first time it is read.
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
    """Multi-source BFS proximity from the key nodes, aligned to ``sg.nodes``."""
    keys = sg.key_rows()
    if not keys.size:
        raise ValueError("schema graph has no key nodes")
    adj = sg.adjacency()
    dist = np.full(sg.n_nodes, -1, dtype=np.int64)
    dist[keys] = 0
    frontier, hops = keys, 0
    while frontier.size:
        hops += 1
        lo = adj.indptr[frontier]
        counts = adj.indptr[frontier + 1] - lo
        # the frontier's slots lo..hi-1, end to end
        slots = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        reached = adj.nbr[slots]
        dist[reached[dist[reached] < 0]] = hops
        frontier = np.flatnonzero(dist == hops)
    return np.where(dist >= 0, 1.0 / (1.0 + np.maximum(dist, 0)), 0.0)


def prune(
    model: ScoringModel,
    sample: QuerySample,
    theta_p: float = 0.3,
    target: int = 100,
) -> tuple[PrunedGraph, np.ndarray, np.ndarray]:
    """Eval-mode node selection for one prepared query.

    Returns the pruned graph, the node encodings of the unpruned schema graph
    and their cosine scores against the query context.
    """
    h, _ = model.f_n.forward(sample.x, train=False)
    s_cos = cosine_rows(sample.ctx.z, h)
    return prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target), h, s_cos


def check_prune_target(sg: SchemaGraph, target: int) -> None:
    """An ``InputError`` naming the question if ``target`` nodes cannot hold
    its key nodes, which pruning always keeps."""
    n_keys = sg.key_rows().size
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
    key_rows = sg.key_rows()
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
    text-feature rows ``p`` (one per schema node) and a reference to the
    shared entity table ``emb``; ``x`` assembles the full input on each read.
    """

    qid: str
    sg: SchemaGraph
    ctx: QueryContext
    gt: frozenset[int]
    p: np.ndarray
    emb: EntityEmbeddingTable
    gt_pos: np.ndarray
    neg_pos: np.ndarray
    s_bfs: np.ndarray
    split: str = "train"
    annotations: dict[int, float] = field(default_factory=dict)

    @property
    def x(self) -> np.ndarray:
        """The f_n input, [z || e_i || p_i || u_i] for every schema node.

        Written into one fresh array: z broadcast, entity rows gathered from
        the table, the text-feature rows, and the one-hot node type u_i.
        """
        n, d = self.p.shape
        lo_p = d + self.emb.dim  # first column of p_i
        lo_u = lo_p + d  # first column of u_i
        x = np.empty((n, lo_u + 4))
        x[:, :d] = self.ctx.z
        x[:, d:lo_p] = self.emb.gather(self.sg.nodes)
        x[:, lo_p:lo_u] = self.p
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
        emb: EntityEmbeddingTable,
        textfeat: TextFeatureProvider,
        split: str = "train",
        annotations: Optional[dict[int, float]] = None,
    ) -> "QuerySample":
        if ctx.dim != model.d:
            raise ValueError(f"context dim {ctx.dim} != model d {model.d}")
        if emb.dim != model.D:
            raise ValueError(f"entity embedding dim {emb.dim} != model D {model.D}")
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
    margin: float = 0.5,
    semi_hard: bool = True,
) -> tuple[float, int, np.ndarray]:
    """Triplet loss terms for one query's encodings.

    Returns (summed loss, term count, unscaled dL/dh). Semi-hard mode mines
    one negative per ground-truth positive; otherwise every (positive,
    negative) pair contributes, reproducing the all-triplets ablation.
    """
    dh = np.zeros_like(h)
    total = 0.0
    count = 0
    if gt_pos.size == 0 or neg_pos.size == 0:
        return total, count, dh
    negatives = h[neg_pos]
    for p in gt_pos:
        positive = h[p]
        if semi_hard:
            j = mine_semi_hard(z, positive, negatives, margin)
            loss, d_pos, d_neg = triplet_loss_backward(z, positive, negatives[j], margin)
            total += loss
            count += 1
            dh[p] += d_pos
            dh[neg_pos[j]] += d_neg
        else:
            for j in range(neg_pos.size):
                loss, d_pos, d_neg = triplet_loss_backward(
                    z, positive, negatives[j], margin
                )
                total += loss
                count += 1
                dh[p] += d_pos
                dh[neg_pos[j]] += d_neg
    return total, count, dh


def train_prune_step(
    model: ScoringModel,
    batch: Sequence[QuerySample],
    optimizer: Adam,
    margin: float = 0.5,
    semi_hard: bool = True,
) -> tuple[float, int]:
    """One optimizer step of the pruning loss over a batch.

    Samples whose ground truth fell outside the schema graph are skipped (no
    positive is defined for them) and reported in the second return value.
    """
    model.zero_grad()
    usable = [s for s in batch if s.gt_pos.size and s.neg_pos.size]
    skipped = len(batch) - len(usable)
    if not usable:
        raise ValueError("no sample in the batch has a ground-truth node")

    staged = []
    n_terms_total = 0
    for sample in usable:
        h, cache = model.f_n.forward(sample.x, train=True, rng=model.rng)
        loss_sum, n_terms, dh = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        staged.append((sample, cache, loss_sum, dh))
        n_terms_total += n_terms
    if n_terms_total == 0:
        return 0.0, skipped

    total_loss = 0.0
    for _sample, cache, loss_sum, dh in staged:
        total_loss += loss_sum
        model.f_n.backward(dh / n_terms_total, cache)
    optimizer.step(model, only=model.prune_param_names())
    return total_loss / n_terms_total, skipped


def rank_by_score(entity_ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Entity ids sorted by descending score, ascending id on ties."""
    order = np.lexsort((entity_ids, -scores))
    return entity_ids[order]


def dump_pruned_graphs(
    path,
    g: KnowledgeGraph,
    pruned: Iterable[PrunedGraph],
    gt_by_qid: Optional[dict[str, frozenset[int]]] = None,
) -> None:
    gt_by_qid = gt_by_qid or {}
    with atomic_write(path) as f:
        for pg in pruned:
            obj = pg.to_json_obj(g, gt_by_qid.get(pg.sg.qid, ()))
            f.write(json.dumps(obj, sort_keys=True) + "\n")
