"""Per-question schema graph construction by ranked 1-hop / 2-hop expansion.

Starting from the question and visual key nodes, the builder recruits up to
``one_hop_cap`` one-hop neighbors and then two-hop neighbors until the node
budget is full. Candidates at each stage are ranked by a four-part key: summed
edge weight into the current graph, best relation priority among those edges,
number of distinct connected schema nodes, and number of connected question
nodes, with entity id as the final tie-break. Close-set mode runs the same
procedure but only recruits entities from a fixed candidate set. The graph
keeps each edge once, by row (``LocalAdjacency``), where every slot but a
self-loop is one walk step.

Each ranking stage gathers the full KG rows it ranks over: the keys' rows,
then the one-hop nodes' rows. The graph's edges are then read by one
``edges_from`` over all nodes in ascending id order, filtered to rows that end
in the graph, so only the kept rows are read in full; the KG's row order makes
them distinct and sorted already. Every "is this id in that set" test is one
lookup into a boolean mask over entities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import InputError, new_qid, read_jsonl, require_number
from .kg import Edge, KnowledgeGraph, csr_slots, dedup_max_weight
from .linking import KeyNodeSet


class NodeType(IntEnum):
    """Provenance of a schema node; doubles as the one-hot index."""

    Q = 0
    V = 1
    N1 = 2
    N2 = 3


@dataclass(frozen=True)
class LocalAdjacency:
    """A schema graph's one edge store, a CSR over its row positions: slots
    ``indptr[i]:indptr[i + 1]`` are the out-edges of row ``i``, to ``nbr`` by
    ``rel`` at ``weight``, 16 B per edge. A self-loop keeps its slot, but
    every other slot is one walk step: no walk steps to its own node, and
    BFS reaches nothing new along a loop. A pruned graph's walks read the
    store through a mask of the surviving rows."""

    indptr: np.ndarray
    nbr: np.ndarray
    rel: np.ndarray
    weight: np.ndarray


@dataclass
class SchemaGraph:
    """A question-conditioned subgraph of the KG.

    ``nodes``/``types`` are aligned arrays whose order is a seeded shuffle of
    construction order; ``adjacency`` holds, once and by row, all directed
    edges (reversals included) among the nodes, plus any scene edges. Its
    (head, relation, tail) edges are distinct, so each slot but a self-loop
    is one walk step: ``build_schema`` reads distinct KG rows and collapses
    a scene edge that repeats one through ``dedup_max_weight``,
    ``restricted_to`` keeps a subset of the edges and ``from_json_obj``
    refuses a repeated edge. ``edges_*`` list them in id space on each read.
    ``build_rank[i]`` is the construction rank of ``nodes[i]``: for a fixed
    one-hop cap, the graph built at any smaller budget b holds exactly the
    nodes of rank < b. It is None for graphs loaded from a dump or cut down
    by ``restricted_to``. ``key_rows`` is built the first time it is read.
    """

    qid: str
    nodes: np.ndarray
    types: np.ndarray
    adjacency: LocalAdjacency
    q_nodes: frozenset[int]
    v_nodes: frozenset[int]
    build_rank: Optional[np.ndarray] = None

    @classmethod
    def from_edges(cls, qid: str, nodes: np.ndarray, types: np.ndarray, edges: Sequence[np.ndarray],
                   q_nodes: Iterable[int], v_nodes: Iterable[int],
                   build_rank: Optional[np.ndarray] = None) -> "SchemaGraph":
        """The graph over distinct ``nodes`` holding the id-space ``edges``,
        (head, relation, tail, weight) arrays, stored by head row with each
        head's edges in their given order; a ``ValueError`` names an edge
        endpoint that is not a node."""
        head, rel, tail, weight = edges
        n = nodes.size
        top = max(int(ids.max(initial=-1)) for ids in (nodes, head, tail))
        row_of = np.full(top + 1, -1, dtype=np.int32)
        row_of[nodes] = np.arange(n)
        head, tail = row_of[head], row_of[tail]
        if (head < 0).any() or (tail < 0).any():
            raise ValueError(f"{qid}: an edge endpoint is not a node of the graph")
        # numpy's stable sort is a radix sort for 8- and 16-bit keys
        by_head = np.argsort(head.astype(np.min_scalar_type(n)), kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(head, minlength=n), out=indptr[1:])
        adjacency = LocalAdjacency(indptr, tail[by_head], rel[by_head].astype(np.int32, copy=False),
                                   weight[by_head].astype(np.float64, copy=False))
        return cls(qid, nodes, types, adjacency, frozenset(q_nodes), frozenset(v_nodes), build_rank)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.nbr.shape[0])

    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes.tolist())

    def _listed(self) -> tuple[np.ndarray, np.ndarray]:
        """Every slot by ascending head id, each head's in stored order, and
        the slot's head row: the order of the ``edges_*`` listings."""
        by_id = np.argsort(self.nodes)
        slots, deg = csr_slots(self.adjacency.indptr, by_id)
        return slots, np.repeat(by_id, deg)

    @property
    def edges_head(self) -> np.ndarray:
        return self.nodes[self._listed()[1]]

    @property
    def edges_rel(self) -> np.ndarray:
        return self.adjacency.rel[self._listed()[0]]

    @property
    def edges_tail(self) -> np.ndarray:
        return self.nodes[self.adjacency.nbr[self._listed()[0]]]

    @property
    def edges_weight(self) -> np.ndarray:
        return self.adjacency.weight[self._listed()[0]]

    def key_ids(self) -> frozenset[int]:
        return (self.q_nodes | self.v_nodes) & self.node_set()

    @cached_property
    def key_rows(self) -> np.ndarray:
        """Row positions of the key nodes, in ascending entity-id order."""
        keys = np.fromiter(self.q_nodes | self.v_nodes, dtype=np.int64)
        rows = np.flatnonzero(np.isin(self.nodes, keys))
        return rows[np.argsort(self.nodes[rows])]

    def restricted_to(self, rows: np.ndarray) -> "SchemaGraph":
        """Copy keeping the nodes at row positions ``rows``, in that order,
        and the edges between them, each head's in stored order."""
        kept = np.zeros(self.n_nodes, dtype=bool)
        kept[rows] = True
        adj = self.adjacency
        head = np.repeat(np.arange(self.n_nodes), np.diff(adj.indptr))
        mask = kept[head] & kept[adj.nbr]
        keys = self.nodes[rows].tolist()
        edges = (self.nodes[head[mask]], adj.rel[mask], self.nodes[adj.nbr[mask]], adj.weight[mask])
        return SchemaGraph.from_edges(self.qid, self.nodes[rows], self.types[rows], edges,
                                      self.q_nodes.intersection(keys), self.v_nodes.intersection(keys))

    # -- serialization -------------------------------------------------------

    def to_json_obj(self, g: KnowledgeGraph, gt: Iterable[int] = ()) -> dict:
        rel = g.relations
        return {
            "qid": self.qid,
            "nodes": [
                [g.surface(int(n)), NodeType(int(t)).name]
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
        """Inverse of ``to_json_obj``; a ``ValueError`` names an unknown entity
        or relation, else the first rule of ``check_dump`` the record breaks."""
        nodes = [_entity_id(g, s) for s, _ in obj["nodes"]]
        edges = [
            (_entity_id(g, h), _lookup(g.relations.id_of, r, "relation"), _entity_id(g, t))
            for h, r, t, _ in obj["edges"]
        ]
        q_nodes, v_nodes = ([_entity_id(g, s) for s in obj[name]] for name in ("key_q", "key_v"))
        weights = check_dump(obj)
        head, rel, tail = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        return cls.from_edges(
            str(obj["qid"]),  # the string ``config.new_qid`` checks for repeats
            np.array(nodes, dtype=np.int64),
            np.array([NodeType[t] for _, t in obj["nodes"]], dtype=np.int8),
            (head, rel, tail, np.array(weights, dtype=np.float64)), q_nodes, v_nodes,
        )


def check_dump(obj: dict) -> list[float]:
    """The rules of a schema or pruned dump record, checked on its surfaces
    alone: a ``ValueError`` names an unknown node type, a node or (head,
    relation, tail) edge listed twice, an edge endpoint or ``key_q``/``key_v``
    entity that is not a listed node, an edge weight that is not a finite
    JSON number >= 0 (the rule of a KG edge), or a record without key nodes.
    Returns the edges' weights as floats."""
    nodes = set()
    for s, t in obj["nodes"]:
        if s in nodes:
            raise ValueError(f"node {s!r} is listed twice")
        if t not in NodeType.__members__:
            raise ValueError(f"unknown node type {t!r}")
        nodes.add(s)
    edges, weights = set(), []
    for h, r, t, w in obj["edges"]:
        for end in (h, t):
            if end not in nodes:
                raise ValueError(f"edge endpoint {end!r} is not a listed node")
        if (h, r, t) in edges:
            raise ValueError(f"edge ({h!r}, {r!r}, {t!r}) is listed twice")
        edges.add((h, r, t))
        what = f"the weight of edge ({h!r}, {r!r}, {t!r})"
        weight = require_number(w, what)
        if not math.isfinite(weight) or weight < 0:
            raise ValueError(f"{what} is {w!r}, not a non-negative real")
        weights.append(weight)
    keys = obj["key_q"] + obj["key_v"]
    for s in keys:
        if s not in nodes:
            raise ValueError(f"key node {s!r} is not a listed node")
    if not keys:
        raise ValueError("no key node")
    return weights


def _lookup(table, key, what: str):
    try:
        return table(key)
    except (KeyError, AttributeError):  # AttributeError: a relation that is no string
        raise ValueError(f"unknown {what} {key!r}") from None


def _entity_id(g: KnowledgeGraph, surface: str) -> int:
    return _lookup(g.entity_id, surface, "entity")


def gt_provenance(sg: SchemaGraph, gt: int) -> str:
    """Classify one ground-truth entity as q / v / n-1 / n-2 / absent."""
    rows = np.flatnonzero(sg.nodes == int(gt))
    if not rows.size:
        return "absent"
    return {0: "q", 1: "v", 2: "n-1", 3: "n-2"}[int(sg.types[rows[0]])]


Gather = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _rank_candidates(
    g: KnowledgeGraph,
    gathered: Gather,
    q_nodes: frozenset[int],
    candidates: np.ndarray,
) -> np.ndarray:
    """Rank recruitment candidates against the current schema graph.

    ``gathered`` is ``g.edges_from`` over distinct current ids and must hold
    every edge from the graph into a candidate. ``candidates`` may come in
    any order and repeat, but must be disjoint from the current ids: no
    candidate is then ever a row's source, so the one entity mask that
    tests candidate membership can mark the question nodes as well.
    Candidates without any KG edge into the graph are dropped; the rest
    sort by descending (summed edge weight, negated relation priority,
    distinct connected nodes, connected question nodes), ascending entity
    id last.
    """
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    src, nbr, rel, w = gathered
    member = np.zeros(g.n_entities, dtype=bool)
    member[candidates] = True
    keep = np.flatnonzero(member[nbr] & (nbr != src))  # self-loops never extend a path
    if not keep.size:
        return np.empty(0, dtype=np.int64)
    src = src[keep].astype(np.int64)
    nbr = nbr[keep].astype(np.int64)
    # Edges were gathered from the graph side; from the candidate's
    # perspective the connecting relation is the reversal.
    rel_from_cand = g.relations.rev(rel[keep].astype(np.int64))
    w = w[keep]

    cand_u, inv = np.unique(nbr, return_inverse=True)
    sum_w = np.bincount(inv, weights=w, minlength=cand_u.size)
    best_prio = np.full(cand_u.size, g.relations.n_total, dtype=np.int64)
    np.minimum.at(best_prio, inv, rel_from_cand)

    # edges_from keeps each source's rows together and sorted by neighbor,
    # so the rows of one (source, candidate) pair are adjacent
    first = np.ones(nbr.size, dtype=bool)
    first[1:] = (nbr[1:] != nbr[:-1]) | (src[1:] != src[:-1])
    n_conn = np.bincount(inv[first], minlength=cand_u.size)
    member[np.fromiter(q_nodes, dtype=np.int64, count=len(q_nodes))] = True
    n_q = np.bincount(inv[first & member[src]], minlength=cand_u.size)

    # (best_prio, -n_conn, -n_q) packed into one non-negative int, in mixed
    # radix, then narrowed: numpy sorts 16-bit keys stably by radix sort
    c, q = int(n_conn.max()) + 1, int(n_q.max()) + 1
    key = (best_prio * c + (c - 1 - n_conn)) * q + (q - 1 - n_q)
    key = key.astype(np.min_scalar_type(int(key.max())))
    # stable sorts, and cand_u is ascending: equal keys keep id order
    order = np.argsort(key, kind="stable")
    order = order[np.argsort(-sum_w[order], kind="stable")]
    return cand_u[order]


def build_schema(
    g: KnowledgeGraph,
    keys: KeyNodeSet,
    scene_edges: Sequence[Edge],
    budget: int,
    one_hop_cap: int,
    seed: int,
    qid: str,
    candidates: Optional[Iterable[int]] = None,
) -> SchemaGraph:
    """Open-set construction recruits from the whole KG; given ``candidates``,
    close-set construction recruits only candidate entities.

    Key nodes stay in the graph whether or not they are candidates. Candidate
    ids outside the graph are ignored.
    """
    if not keys:
        raise ValueError("cannot build a schema graph from an empty key node set")
    q_ids = np.array(sorted(keys.q_nodes), dtype=np.int64)
    v_ids = np.array(sorted(keys.v_nodes - keys.q_nodes), dtype=np.int64)  # overlap resolves to Q
    key_ids = np.concatenate([q_ids, v_ids])
    if budget < key_ids.size:
        raise InputError(msg=f"{qid}: budget {budget} cannot hold the {key_ids.size} key nodes")

    # One-hop stage: every KG neighbor of a key node competes.
    key_rows = g.edges_from(key_ids)  # an IndexError names a bad key id

    # blocked[e]: e can no longer be recruited. That holds for the keys, for
    # every one-hop neighbour once the one-hop stage is ranked (candidates
    # that missed the cap do not return) and, in close-set mode, for every
    # entity outside the candidate set.
    blocked = np.full(g.n_entities, candidates is not None)
    if candidates is not None:
        ids = np.fromiter(candidates, dtype=np.int64)
        blocked[ids[(ids >= 0) & (ids < g.n_entities)]] = False
    blocked[key_ids] = True

    hop1 = key_rows[1]
    n1 = _rank_candidates(g, key_rows, keys.q_nodes, hop1[~blocked[hop1]])
    n1 = n1[: max(0, min(one_hop_cap, budget - key_ids.size))]
    blocked[hop1] = True

    # Two-hop stage: neighbors of the one-hop nodes. Only their rows can reach
    # a two-hop candidate: a key's edge to it would make it a one-hop neighbor.
    n2 = np.empty(0, dtype=np.int64)
    if n1.size and key_ids.size + n1.size < budget:
        n1_rows = g.edges_from(n1)
        hop2 = n1_rows[1]
        n2 = _rank_candidates(g, n1_rows, keys.q_nodes, hop2[~blocked[hop2]])
        n2 = n2[: budget - key_ids.size - n1.size]

    nodes = np.concatenate([key_ids, n1, n2])
    types = np.repeat(
        np.array([NodeType.Q, NodeType.V, NodeType.N1, NodeType.N2], dtype=np.int8),
        [q_ids.size, v_ids.size, n1.size, n2.size],
    )

    perm = np.random.default_rng(seed).permutation(nodes.size)
    edges = _collect_edges(g, nodes, scene_edges)
    return SchemaGraph.from_edges(qid, nodes[perm], types[perm], edges, keys.q_nodes, keys.v_nodes, perm)


def _collect_edges(
    g: KnowledgeGraph,
    nodes: np.ndarray,
    scene_edges: Sequence[Edge],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All KG edges among distinct ``nodes`` plus scene edges (and their
    reversals), as (head, relation, tail, weight) by (head, tail, relation).

    One ``edges_from`` over the nodes in ascending id order, filtered to
    rows that end in the graph, reads the KG edges already distinct and in
    that order, since each entity's rows are strictly increasing by
    (neighbor, relation). Only a scene edge can repeat a KG edge, so the
    max-weight rule from graph loading runs only when there are scene edges.
    """
    in_graph = np.zeros(g.n_entities, dtype=bool)
    in_graph[nodes] = True
    eh, et, er, ew = g.edges_from(np.sort(nodes), within=in_graph)
    if not scene_edges:
        return eh, er, et, ew

    scene = np.array(scene_edges, dtype=np.float64)  # (head, relation, tail, weight) rows
    sh, sr, st = scene[:, :3].T.astype(np.int64)
    keep = in_graph[sh] & in_graph[st]
    sh, sr, st, sw = sh[keep], sr[keep], st[keep], scene[keep, 3]
    eh = np.concatenate([eh, sh, st])
    et = np.concatenate([et, st, sh])
    er = np.concatenate([er, sr, g.relations.rev(sr)])
    ew = np.concatenate([ew, sw, sw])
    return dedup_max_weight(eh, er, et, ew, g.n_entities, g.relations.n_total)


def load_schema_graphs(
    path, g: KnowledgeGraph
) -> tuple[list[SchemaGraph], dict[str, frozenset[int]]]:
    """The graphs of a schema or pruned dump and each qid's ground truth.

    Bad JSON, a missing key, a repeated qid, or any graph that
    ``SchemaGraph.from_json_obj`` refuses raises one
    ``InputError(path, lineno, ...)``.
    """

    seen: set[str] = set()

    def build(obj: dict) -> tuple[SchemaGraph, frozenset[int]]:
        new_qid(obj, seen)
        sg = SchemaGraph.from_json_obj(g, obj)
        return sg, frozenset(_entity_id(g, s) for s in obj.get("gt", []))

    rows = read_jsonl(path, build)
    return [sg for sg, _ in rows], {sg.qid: gt for sg, gt in rows}
