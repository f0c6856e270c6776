"""Schema-graph pruning: node encoding, relevance scoring, triplet training.

A node is encoded as f_n([z || e_i || p_i || u_i]) and scored two ways: cosine
relevance against the query context z, and a breadth-first-search proximity
score from the key nodes (1 / (1 + hops), so key nodes score 1 and unreachable
nodes 0). The prune score blends them, s_prune = theta_p * s_bfs +
(1 - theta_p) * s_cos, and the top-scoring nodes survive with key nodes always
retained. The encoder trains on triplets anchored at z with ground-truth nodes
as positives and (by default) semi-hard mined negatives.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

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
    """Surviving nodes ordered by descending prune score, with their scores."""

    base: SchemaGraph
    s_cos: np.ndarray
    s_bfs: np.ndarray
    s_prune: np.ndarray

    @property
    def survivors(self) -> np.ndarray:
        return self.base.nodes

    def to_json_obj(self, g: KnowledgeGraph, gt: Iterable[int] = ()) -> dict:
        obj = self.base.to_json_obj(g, gt)
        obj["scores"] = [
            [g.surface(int(n)), float(c), float(b), float(p)]
            for n, c, b, p in zip(self.base.nodes, self.s_cos, self.s_bfs, self.s_prune)
        ]
        return obj


def node_input_matrix(
    model: ScoringModel,
    sg: SchemaGraph,
    ctx: QueryContext,
    emb: EntityEmbeddingTable,
    textfeat: TextFeatureProvider,
) -> np.ndarray:
    """Stack [z || e_i || p_i || u_i] rows for every schema node."""
    n = sg.n_nodes
    if ctx.dim != model.d:
        raise ValueError(f"context dim {ctx.dim} != model d {model.d}")
    if emb.dim != model.D:
        raise ValueError(f"entity embedding dim {emb.dim} != model D {model.D}")
    z_tile = np.tile(ctx.z, (n, 1))
    e_rows = emb.gather(sg.nodes)
    p_rows = textfeat.gather(ctx.qid, sg.nodes)
    u_rows = np.zeros((n, 4))
    u_rows[np.arange(n), sg.types.astype(np.int64)] = 1.0
    return np.concatenate([z_tile, e_rows, p_rows, u_rows], axis=1)


def bfs_scores(sg: SchemaGraph) -> np.ndarray:
    """Multi-source BFS proximity from the key nodes, aligned to ``sg.nodes``."""
    keys = sg.key_ids()
    if not keys:
        raise ValueError("schema graph has no key nodes")
    pos = sg.positions()
    adj: list[list[int]] = [[] for _ in range(sg.n_nodes)]
    for h, t in zip(sg.edges_head, sg.edges_tail):
        if h != t:
            adj[pos[int(h)]].append(pos[int(t)])
    dist = np.full(sg.n_nodes, -1, dtype=np.int64)
    queue = deque()
    for k in sorted(keys):
        dist[pos[k]] = 0
        queue.append(pos[k])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    scores = np.where(dist >= 0, 1.0 / (1.0 + np.maximum(dist, 0)), 0.0)
    return scores


def prune(
    model: ScoringModel,
    sg: SchemaGraph,
    ctx: QueryContext,
    emb: EntityEmbeddingTable,
    textfeat: TextFeatureProvider,
    theta_p: float = 0.3,
    target: int = 100,
) -> PrunedGraph:
    """Keep the ``target`` best nodes under the blended prune score.

    Key nodes are always retained; ties break toward higher BFS score, then
    lower entity id. Edges are restricted to the survivors.
    """
    if not 0.0 <= theta_p <= 1.0:
        raise ValueError("theta_p must lie in [0, 1]")
    x = node_input_matrix(model, sg, ctx, emb, textfeat)
    h, _ = model.f_n.forward(x, train=False)
    s_cos = cosine_rows(ctx.z, h)
    s_bfs = bfs_scores(sg)
    return prune_from_scores(sg, s_cos, s_bfs, theta_p, target)


def prune_from_scores(
    sg: SchemaGraph,
    s_cos: np.ndarray,
    s_bfs: np.ndarray,
    theta_p: float,
    target: int,
) -> PrunedGraph:
    keys = sg.key_ids()
    if target < len(keys):
        raise ValueError(
            f"prune target {target} cannot hold the {len(keys)} key nodes"
        )
    s_prune = theta_p * s_bfs + (1.0 - theta_p) * s_cos
    order = np.lexsort((sg.nodes, -s_bfs, -s_prune))

    n_total = min(target, sg.n_nodes)
    non_key_quota = n_total - len(keys)
    picked: list[int] = []
    for i in order:
        eid = int(sg.nodes[i])
        if eid in keys:
            picked.append(i)
        elif non_key_quota > 0:
            picked.append(i)
            non_key_quota -= 1
        if len(picked) == n_total:
            break
    idx = np.array(picked, dtype=np.int64)
    base = sg.restricted_to(sg.nodes[idx])
    return PrunedGraph(
        base=base,
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

    The encoder input matrix and BFS scores depend only on the data, not on
    the model parameters, so both are precomputed here and reused every epoch.
    """

    qid: str
    sg: SchemaGraph
    ctx: QueryContext
    gt: frozenset[int]
    x: np.ndarray
    gt_pos: np.ndarray
    neg_pos: np.ndarray
    s_bfs: np.ndarray
    split: str = "train"
    annotations: dict[int, float] = field(default_factory=dict)

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
        gt = frozenset(int(e) for e in gt)
        x = node_input_matrix(model, sg, ctx, emb, textfeat)
        is_gt = np.array([int(e) in gt for e in sg.nodes], dtype=bool)
        return cls(
            qid=sg.qid or ctx.qid,
            sg=sg,
            ctx=ctx,
            gt=gt,
            x=x,
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
    train_mode: bool = True,
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
        h, cache = model.f_n.forward(sample.x, train=train_mode, rng=model.rng)
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
    with open(path, "w", encoding="utf-8") as f:
        for pg in pruned:
            obj = pg.to_json_obj(g, gt_by_qid.get(pg.base.qid, ()))
            f.write(json.dumps(obj, sort_keys=True) + "\n")
