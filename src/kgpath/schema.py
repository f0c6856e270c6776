"""Per-question schema graph construction by ranked 1-hop / 2-hop expansion.

Starting from the question and visual key nodes, the builder recruits up to
``one_hop_cap`` one-hop neighbors and then two-hop neighbors until the node
budget is full. Candidates at each stage are ranked by a four-part key: summed
edge weight into the current graph, best relation priority among those edges,
number of distinct connected schema nodes, and number of connected question
nodes, with entity id as the final tie-break. Close-set mode runs the same
procedure but only recruits entities from a fixed candidate set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import atomic_write
from .kg import Edge, KnowledgeGraph, dedup_max_weight
from .linking import KeyNodeSet


class NodeType(IntEnum):
    """Provenance of a schema node; doubles as the one-hot index."""

    Q = 0
    V = 1
    N1 = 2
    N2 = 3


_TYPE_NAMES = {t: t.name for t in NodeType}
_TYPE_BY_NAME = {t.name: t for t in NodeType}


@dataclass(frozen=True)
class LocalAdjacency:
    """CSR over a schema graph's row positions: the out-edges of row ``i``
    go to rows ``nbr[indptr[i]:indptr[i + 1]]`` by relations ``rel[...]``."""

    indptr: np.ndarray
    nbr: np.ndarray
    rel: np.ndarray

    def out_slots(self, rows: np.ndarray) -> np.ndarray:
        """Indices into ``nbr``/``rel`` of every out-edge of ``rows``, row by row."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return offsets + np.arange(offsets.size)


@dataclass
class SchemaGraph:
    """A question-conditioned subgraph of the KG.

    ``nodes``/``types`` are aligned arrays whose order is a seeded shuffle of
    construction order; ``edges_*`` hold all directed edges (reversals
    included) among the nodes, plus any scene edges. ``build_rank[i]`` is the
    construction rank of ``nodes[i]``: for a fixed one-hop cap, the graph
    built at any smaller budget b holds exactly the nodes of rank < b. It is
    None for graphs loaded from a dump or restricted to a subset.
    """

    qid: str
    nodes: np.ndarray
    types: np.ndarray
    edges_head: np.ndarray
    edges_rel: np.ndarray
    edges_tail: np.ndarray
    edges_weight: np.ndarray
    q_nodes: frozenset[int]
    v_nodes: frozenset[int]
    build_rank: Optional[np.ndarray] = None
    _node_set: Optional[frozenset[int]] = field(default=None, repr=False)
    _positions: Optional[dict[int, int]] = field(default=None, repr=False)
    _adjacency: Optional[LocalAdjacency] = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edges_head.shape[0])

    def node_set(self) -> frozenset[int]:
        if self._node_set is None:
            self._node_set = frozenset(self.nodes.tolist())
        return self._node_set

    def positions(self) -> dict[int, int]:
        """Entity id -> row index into ``nodes``."""
        if self._positions is None:
            self._positions = dict(zip(self.nodes.tolist(), range(self.n_nodes)))
        return self._positions

    def adjacency(self) -> LocalAdjacency:
        """Out-edges by row position, self-loops left out.

        Each row's edges keep their order in the ``edges_*`` arrays, so a
        walk that picks the j-th out-edge picks the same edge either way.
        """
        if self._adjacency is None:
            ends = np.concatenate([self.nodes, self.edges_head, self.edges_tail])
            # int32 rows halve the cache every prepared sample keeps
            row_of = np.full(int(ends.max(initial=-1)) + 1, -1, dtype=np.int32)
            row_of[self.nodes] = np.arange(self.n_nodes)
            head, tail = row_of[self.edges_head], row_of[self.edges_tail]
            if (head < 0).any() or (tail < 0).any():
                raise ValueError(f"{self.qid}: an edge endpoint is not a node of the graph")
            keep = head != tail
            head, tail, rel = head[keep], tail[keep], self.edges_rel[keep]
            # numpy's stable sort is a radix sort for 8- and 16-bit keys
            by_head = np.argsort(head.astype(np.min_scalar_type(self.n_nodes)), kind="stable")
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int32)
            np.cumsum(np.bincount(head, minlength=self.n_nodes), out=indptr[1:])
            self._adjacency = LocalAdjacency(
                indptr=indptr, nbr=tail[by_head], rel=rel[by_head].astype(np.int32)
            )
        return self._adjacency

    def key_ids(self) -> frozenset[int]:
        return (self.q_nodes | self.v_nodes) & self.node_set()

    def restricted_to(self, kept: np.ndarray, qid: Optional[str] = None) -> "SchemaGraph":
        """Copy with nodes restricted to ``kept`` (given order preserved)."""
        kept = np.asarray(kept, dtype=np.int64)
        kept_list = kept.tolist()
        kept_set = set(kept_list)
        pos = self.positions()
        types = self.types[[pos[k] for k in kept_list]]
        mask = np.isin(self.edges_head, kept) & np.isin(self.edges_tail, kept)
        return SchemaGraph(
            qid=qid if qid is not None else self.qid,
            nodes=kept,
            types=types,
            edges_head=self.edges_head[mask],
            edges_rel=self.edges_rel[mask],
            edges_tail=self.edges_tail[mask],
            edges_weight=self.edges_weight[mask],
            q_nodes=frozenset(q for q in self.q_nodes if q in kept_set),
            v_nodes=frozenset(v for v in self.v_nodes if v in kept_set),
        )

    # -- serialization -------------------------------------------------------

    def to_json_obj(self, g: KnowledgeGraph, gt: Iterable[int] = ()) -> dict:
        rel = g.relations
        return {
            "qid": self.qid,
            "nodes": [
                [g.surface(int(n)), _TYPE_NAMES[NodeType(int(t))]]
                for n, t in zip(self.nodes, self.types)
            ],
            "edges": [
                [g.surface(int(h)), rel.name_of(int(r)), g.surface(int(t)), float(w)]
                for h, r, t, w in zip(
                    self.edges_head, self.edges_rel, self.edges_tail, self.edges_weight
                )
            ],
            "key_q": sorted(g.surface(i) for i in self.q_nodes),
            "key_v": sorted(g.surface(i) for i in self.v_nodes),
            "gt": sorted(g.surface(int(i)) for i in gt),
        }

    @classmethod
    def from_json_obj(cls, g: KnowledgeGraph, obj: dict) -> "SchemaGraph":
        rel = g.relations
        nodes = np.array([g.entity_id(s) for s, _ in obj["nodes"]], dtype=np.int64)
        types = np.array([_TYPE_BY_NAME[t] for _, t in obj["nodes"]], dtype=np.int8)
        eh, er, et, ew = [], [], [], []
        for hs, rn, ts, w in obj["edges"]:
            eh.append(g.entity_id(hs))
            er.append(rel.id_of(rn))
            et.append(g.entity_id(ts))
            ew.append(float(w))
        return cls(
            qid=obj["qid"],
            nodes=nodes,
            types=types,
            edges_head=np.array(eh, dtype=np.int64),
            edges_rel=np.array(er, dtype=np.int64),
            edges_tail=np.array(et, dtype=np.int64),
            edges_weight=np.array(ew, dtype=np.float64),
            q_nodes=frozenset(g.entity_id(s) for s in obj["key_q"]),
            v_nodes=frozenset(g.entity_id(s) for s in obj["key_v"]),
        )


def gt_provenance(sg: SchemaGraph, gt: int) -> str:
    """Classify one ground-truth entity as q / v / n-1 / n-2 / absent."""
    pos = sg.positions().get(int(gt))
    if pos is None:
        return "absent"
    return {0: "q", 1: "v", 2: "n-1", 3: "n-2"}[int(sg.types[pos])]


def rank_candidates(
    g: KnowledgeGraph,
    current: SchemaGraph,
    candidates: Iterable[int],
) -> list[int]:
    """Rank recruitment candidates against the current schema graph.

    Candidates without any KG edge into the graph are dropped; the rest sort
    by descending (summed edge weight, negated relation priority, distinct
    connected nodes, connected question nodes), ascending entity id last.
    """
    cand = np.array(sorted(set(int(c) for c in candidates)), dtype=np.int64)
    ranked = _rank_candidates(g, g.edges_from(current.nodes), current.q_nodes, cand)
    return [int(c) for c in ranked]


Gather = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _rank_candidates(
    g: KnowledgeGraph,
    gathered: Gather,
    q_nodes: frozenset[int],
    candidates: np.ndarray,
) -> np.ndarray:
    """Vectorized ranking over ``gathered = g.edges_from(current ids)``;
    ``candidates`` must be sorted, unique, disjoint from the current ids."""
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    src, nbr, rel, w = gathered
    nbr = nbr.astype(np.int64)
    keep = nbr != src.astype(np.int64)  # self-loops never extend a path
    pos = np.searchsorted(candidates, nbr)
    pos_clip = np.minimum(pos, candidates.size - 1)
    keep &= candidates[pos_clip] == nbr
    if not keep.any():
        return np.empty(0, dtype=np.int64)
    src = src[keep].astype(np.int64)
    nbr = nbr[keep]
    rel = rel[keep].astype(np.int64)
    w = w[keep]

    # Edges were gathered from the graph side; from the candidate's
    # perspective the connecting relation is the reversal.
    nf = g.relations.n_forward
    rel_from_cand = np.where(rel >= nf, rel - nf, rel + nf)

    cand_u, inv = np.unique(nbr, return_inverse=True)
    sum_w = np.zeros(cand_u.size, dtype=np.float64)
    np.add.at(sum_w, inv, w)
    best_prio = np.full(cand_u.size, g.relations.n_total, dtype=np.int64)
    np.minimum.at(best_prio, inv, rel_from_cand)

    pair_key = nbr * g.n_entities + src
    pairs = np.unique(pair_key)
    pair_cand = pairs // g.n_entities
    pair_src = pairs % g.n_entities
    idx = np.searchsorted(cand_u, pair_cand)
    n_conn = np.bincount(idx, minlength=cand_u.size)
    if q_nodes:
        q_arr = np.array(sorted(q_nodes), dtype=np.int64)
        in_q = np.isin(pair_src, q_arr)
        n_q = np.bincount(idx[in_q], minlength=cand_u.size)
    else:
        n_q = np.zeros(cand_u.size, dtype=np.int64)

    order = np.lexsort((cand_u, -n_q, -n_conn, best_prio, -sum_w))
    return cand_u[order]


def build_schema(
    g: KnowledgeGraph,
    keys: KeyNodeSet,
    scene_edges: Sequence[Edge] = (),
    budget: int = 1000,
    one_hop_cap: int = 500,
    seed: int = 0,
    qid: str = "",
) -> SchemaGraph:
    """Open-set construction: recruit from the whole KG."""
    return _build(g, keys, scene_edges, budget, one_hop_cap, seed, qid, allowed=None)


def build_schema_closed(
    g: KnowledgeGraph,
    keys: KeyNodeSet,
    scene_edges: Sequence[Edge] = (),
    candidate_set: Iterable[int] = (),
    budget: int = 500,
    one_hop_cap: int = 500,
    seed: int = 0,
    qid: str = "",
) -> SchemaGraph:
    """Close-set construction: only candidate entities can be recruited.

    Key nodes stay in the graph whether or not they are candidates.
    """
    allowed = np.array(sorted(set(int(c) for c in candidate_set)), dtype=np.int64)
    return _build(g, keys, scene_edges, budget, one_hop_cap, seed, qid, allowed=allowed)


def _build(
    g: KnowledgeGraph,
    keys: KeyNodeSet,
    scene_edges: Sequence[Edge],
    budget: int,
    one_hop_cap: int,
    seed: int,
    qid: str,
    allowed: Optional[np.ndarray],
) -> SchemaGraph:
    if not keys:
        raise ValueError("cannot build a schema graph from an empty key node set")
    q_sorted = sorted(keys.q_nodes)
    v_sorted = sorted(keys.v_nodes - keys.q_nodes)  # overlap resolves to Q
    key_ids = q_sorted + v_sorted
    if budget < len(key_ids):
        raise ValueError(
            f"budget {budget} cannot hold the {len(key_ids)} key nodes"
        )
    for eid in key_ids:
        g._check_id(eid)

    node_ids = list(key_ids)
    node_types = [NodeType.Q] * len(q_sorted) + [NodeType.V] * len(v_sorted)
    current = np.array(key_ids, dtype=np.int64)

    # One-hop stage: every KG neighbor of a key node competes. Each stage
    # gathers the neighbourhood of the graph so far once.
    gathered = g.edges_from(current)
    hop1_all = _neighbor_set(gathered)
    cand1 = np.setdiff1d(hop1_all, current, assume_unique=False)
    if allowed is not None:
        cand1 = np.intersect1d(cand1, allowed, assume_unique=True)
    ranked1 = _rank_candidates(g, gathered, keys.q_nodes, cand1)
    n1 = ranked1[: max(0, min(one_hop_cap, budget - len(node_ids)))]
    node_ids.extend(int(n) for n in n1)
    node_types.extend([NodeType.N1] * n1.size)
    current = np.array(node_ids, dtype=np.int64)

    # Two-hop stage: neighbors of the graph so far, excluding anything at
    # hop distance 1 (one-hop candidates that missed the cap do not return).
    if len(node_ids) < budget and n1.size:
        gathered = g.edges_from(current)
        cand2 = np.setdiff1d(_neighbor_set(gathered), np.union1d(hop1_all, current))
        if allowed is not None:
            cand2 = np.intersect1d(cand2, allowed, assume_unique=True)
        ranked2 = _rank_candidates(g, gathered, keys.q_nodes, cand2)
        n2 = ranked2[: budget - len(node_ids)]
        node_ids.extend(int(n) for n in n2)
        node_types.extend([NodeType.N2] * n2.size)

    nodes = np.array(node_ids, dtype=np.int64)
    types = np.array([int(t) for t in node_types], dtype=np.int8)

    eh, er, et, ew = _collect_edges(g, nodes, scene_edges)

    perm = np.random.default_rng(seed).permutation(nodes.size)
    return SchemaGraph(
        qid=qid,
        nodes=nodes[perm],
        types=types[perm],
        edges_head=eh,
        edges_rel=er,
        edges_tail=et,
        edges_weight=ew,
        q_nodes=frozenset(keys.q_nodes),
        v_nodes=frozenset(keys.v_nodes),
        build_rank=perm,
    )


def _neighbor_set(gathered: Gather) -> np.ndarray:
    src, nbr, _, _ = gathered
    nbr = nbr.astype(np.int64)
    return np.unique(nbr[nbr != src.astype(np.int64)])


def _collect_edges(
    g: KnowledgeGraph,
    nodes: np.ndarray,
    scene_edges: Sequence[Edge],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All KG edges among ``nodes`` plus scene edges (and their reversals).

    Scene edges may duplicate KG edges; the max-weight rule from graph
    loading applies here too.
    """
    nodes_sorted = np.sort(nodes)
    src, nbr, rel, w = g.edges_from(nodes)
    nbr64 = nbr.astype(np.int64)
    pos = np.searchsorted(nodes_sorted, nbr64)
    pos_clip = np.minimum(pos, nodes_sorted.size - 1)
    keep = nodes_sorted[pos_clip] == nbr64
    eh = src[keep].astype(np.int64)
    et = nbr64[keep]
    er = rel[keep].astype(np.int64)
    ew = w[keep]

    if scene_edges:
        node_set = set(int(n) for n in nodes)
        sh, st, sr, sw = [], [], [], []
        for e in scene_edges:
            if e.head in node_set and e.tail in node_set:
                sh += [e.head, e.tail]
                st += [e.tail, e.head]
                sr += [e.relation, g.relations.rev(e.relation)]
                sw += [e.weight, e.weight]
        if sh:
            eh = np.concatenate([eh, np.array(sh, dtype=np.int64)])
            et = np.concatenate([et, np.array(st, dtype=np.int64)])
            er = np.concatenate([er, np.array(sr, dtype=np.int64)])
            ew = np.concatenate([ew, np.array(sw, dtype=np.float64)])

    return dedup_max_weight(eh, er, et, ew, g.n_entities, g.relations.n_total)


def dump_schema_graphs(
    path,
    g: KnowledgeGraph,
    graphs: Iterable[SchemaGraph],
    gt_by_qid: Optional[dict[str, frozenset[int]]] = None,
) -> None:
    """Write one JSON object per line (one schema graph per qid)."""
    gt_by_qid = gt_by_qid or {}
    with atomic_write(path) as f:
        for sg in graphs:
            obj = sg.to_json_obj(g, gt_by_qid.get(sg.qid, ()))
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def load_schema_graphs(path, g: KnowledgeGraph) -> list[SchemaGraph]:
    graphs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                graphs.append(SchemaGraph.from_json_obj(g, json.loads(line)))
    return graphs
