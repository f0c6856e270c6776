"""One edge store per schema graph, against the two-store route it replaced.

``OldSchemaGraph`` below is a verbatim copy of the ``SchemaGraph`` that kept
every edge twice: as id-space ``edges_*`` arrays (ids upcast to int64, 32 B
an edge) and as a row adjacency built on first read, self-loops left out.
The schema-build oracle's ``reference_collect_edges`` feeds it. The
package keeps each edge once, in one row store of 16 B an edge, self-loops
included, and lists the ``edges_*`` from it on each read. Graphs are built
over KGs with self-loops and parallel relations, with scene edges that
repeat KG edges or add new ones, and loaded from dumps. For each, the two
routes must give the same bytes: the slots but the self-loops, the key rows,
every ``list_walks`` field, the BFS scores, and the dumps of the graph and of
a restriction to some rows; the two-store graph is restricted by
``reference_restricted`` of ``tests/reference.py``. A hand-written dump whose
edges are not grouped by head is written back grouped: the same edges, each
head's in its order.
"""

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from kgpath.kg import Edge, KnowledgeGraph, load_graph
from kgpath.linking import KeyNodeSet
from kgpath.paths import list_walks
from kgpath.pruning import bfs_scores
from kgpath.schema import (
    NodeType,
    SchemaGraph,
    _entity_id,
    _lookup,
    build_schema,
    check_dump,
)

from conftest import write_edges, write_relations
from reference import reference_restricted
from test_pruned_rows_oracle import random_dump
from test_schema_build_oracle import reference_collect_edges
from test_pruning import slot_heads

RELATIONS = ("r0", "r1", "r2")
N_ENTITIES = 40  # ``random_dump`` names entities e0..e39

# ---------------------------------------------------------------------------
# the two-store route, verbatim but for the class names and for its
# ``restricted_to``, which is ``reference_restricted``
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OldAdjacency:
    """CSR over a schema graph's row positions: the out-edges of row ``i``
    go to rows ``nbr[indptr[i]:indptr[i + 1]]`` by relations ``rel[...]``."""

    indptr: np.ndarray
    nbr: np.ndarray
    rel: np.ndarray


@dataclass
class OldSchemaGraph:
    """A question-conditioned subgraph of the KG.

    ``nodes``/``types`` are aligned arrays whose order is a seeded shuffle of
    construction order; ``edges_*`` hold all directed edges (reversals
    included) among the nodes, plus any scene edges. Its (head, relation,
    tail) edges are distinct, so each adjacency slot is one walk step:
    ``build_schema`` reads distinct KG rows and collapses a scene edge that
    repeats one through ``dedup_max_weight``, ``restricted_to`` keeps a
    subset of the edges and ``from_json_obj`` refuses a repeated edge.
    ``build_rank[i]`` is the construction rank of ``nodes[i]``: for a fixed
    one-hop cap, the graph built at any smaller budget b holds exactly the
    nodes of rank < b. It is None for graphs loaded from a dump or cut down
    by ``restricted_to``.
    ``adjacency`` and ``key_rows`` are built the first time they are read;
    the adjacency is the graph's only one, which pruned graphs share.
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

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edges_head.shape[0])

    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes.tolist())

    def edge_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row positions of every edge's head and tail, in edge order."""
        top = max(int(ids.max(initial=-1)) for ids in (self.nodes, self.edges_head, self.edges_tail))
        # int32 rows halve the adjacency every prepared sample keeps
        row_of = np.full(top + 1, -1, dtype=np.int32)
        row_of[self.nodes] = np.arange(self.n_nodes)
        head, tail = row_of[self.edges_head], row_of[self.edges_tail]
        if (head < 0).any() or (tail < 0).any():
            raise ValueError(f"{self.qid}: an edge endpoint is not a node of the graph")
        return head, tail

    @cached_property
    def adjacency(self) -> OldAdjacency:
        """Out-edges by row position, self-loops left out.

        Each row's edges keep their order in the ``edges_*`` arrays, so a
        walk that picks the j-th out-edge picks the same edge either way.
        """
        head, tail = self.edge_rows()
        keep = head != tail
        head, tail, rel = head[keep], tail[keep], self.edges_rel[keep]
        # numpy's stable sort is a radix sort for 8- and 16-bit keys
        by_head = np.argsort(head.astype(np.min_scalar_type(self.n_nodes)), kind="stable")
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int32)
        np.cumsum(np.bincount(head, minlength=self.n_nodes), out=indptr[1:])
        return OldAdjacency(indptr, tail[by_head], rel[by_head].astype(np.int32))

    def key_ids(self) -> frozenset[int]:
        return (self.q_nodes | self.v_nodes) & self.node_set()

    @cached_property
    def key_rows(self) -> np.ndarray:
        """Row positions of the key nodes, in ascending entity-id order."""
        keys = np.fromiter(self.q_nodes | self.v_nodes, dtype=np.int64)
        rows = np.flatnonzero(np.isin(self.nodes, keys))
        return rows[np.argsort(self.nodes[rows])]

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
    def from_json_obj(cls, g: KnowledgeGraph, obj: dict) -> "OldSchemaGraph":
        """Inverse of ``to_json_obj``; a ``ValueError`` names an unknown entity
        or relation, else the first rule of ``check_dump`` the record breaks."""
        nodes = [_entity_id(g, s) for s, _ in obj["nodes"]]
        edges = [
            (_entity_id(g, h), _lookup(g.relations.id_of, r, "relation"), _entity_id(g, t))
            for h, r, t, _ in obj["edges"]
        ]
        q_nodes, v_nodes = ([_entity_id(g, s) for s in obj[name]] for name in ("key_q", "key_v"))
        weights = check_dump(obj)
        eh, er, et = np.array(edges, dtype=np.int64).reshape(-1, 3).T.copy()
        return cls(
            qid=str(obj["qid"]),  # the string ``config.new_qid`` checks for repeats
            nodes=np.array(nodes, dtype=np.int64),
            types=np.array([NodeType[t] for _, t in obj["nodes"]], dtype=np.int8),
            edges_head=eh,
            edges_rel=er,
            edges_tail=et,
            edges_weight=np.array(weights, dtype=np.float64),
            q_nodes=frozenset(q_nodes),
            v_nodes=frozenset(v_nodes),
        )


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def kg(tmp_path, rng):
    """A KG over e0..e39 with a chain through every entity, random edges
    (parallel relations among them) and self-loops, at dyadic weights."""
    rows = [(f"e{i}", RELATIONS[i % 3], f"e{i + 1}", 1.0) for i in range(N_ENTITIES - 1)]
    for a, b in rng.integers(N_ENTITIES, size=(160, 2)).tolist():
        rows.append((f"e{a}", RELATIONS[int(rng.integers(3))], f"e{b}", int(rng.integers(1, 9)) / 4))
    for a in rng.integers(N_ENTITIES, size=8).tolist():
        rows.append((f"e{a}", RELATIONS[int(rng.integers(3))], f"e{a}", 2.0))  # self-loop
    edges = write_edges(tmp_path / "edges.tsv", rows)
    return load_graph(edges, write_relations(tmp_path / "relations.txt", list(RELATIONS)))


def scene_edges(g, rng, nodes):
    """Forward scene edges among ``nodes``: repeats of KG edges at a random
    weight, new edges, and a self-loop."""
    nodes = [int(n) for n in nodes]
    scene = []
    for h in rng.choice(nodes, size=min(4, len(nodes)), replace=False).tolist():
        _, nbr, rel, _ = g.edges_from([h])
        fwd = [(int(t), int(r)) for t, r in zip(nbr, rel) if r < len(RELATIONS)]
        if fwd:
            t, r = fwd[int(rng.integers(len(fwd)))]
            scene.append(Edge(h, r, t, int(rng.integers(1, 9)) / 4))  # repeats a KG edge
    for _ in range(4):
        h, t = rng.choice(nodes, size=2).tolist()
        scene.append(Edge(int(h), int(rng.integers(3)), int(t), 0.75))
    scene.append(Edge(nodes[0], 0, nodes[0], 3.0))
    return scene


def built_pair(g, rng, trial):
    """One graph built by ``build_schema``, with scene edges on odd trials,
    the two-store graph of its nodes from the verbatim edge collection, and
    the scene edges."""
    keys = rng.choice(N_ENTITIES, size=int(rng.integers(1, 4)), replace=False).tolist()
    split = int(rng.integers(len(keys) + 1))
    key_set = KeyNodeSet(q_nodes=frozenset(keys[:split]), v_nodes=frozenset(keys[split:]))
    scene = scene_edges(g, rng, keys) if trial % 2 else ()
    sg = build_schema(g, key_set, scene, budget=int(rng.integers(len(keys), 25)),
                      one_hop_cap=int(rng.integers(1, 12)), seed=trial, qid=f"b{trial}")
    old = OldSchemaGraph(sg.qid, sg.nodes, sg.types, *reference_collect_edges(g, sg.nodes, scene),
                         frozenset(key_set.q_nodes), frozenset(key_set.v_nodes), sg.build_rank)
    return sg, old, scene


def repeats_a_kg_edge(g, sg, scene):
    """Whether a scene edge between two nodes of ``sg`` repeats a KG edge."""
    nodes = sg.node_set()
    return any(
        e.head in nodes and e.tail in nodes
        and (e.tail, e.relation) in zip(*(col.tolist() for col in g.edges_from([e.head])[1:3]))
        for e in scene
    )


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def same_bytes(a, b, what):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), what


def loopless(adj):
    """The slots of ``adj`` but its self-loops, as (indptr, nbr, rel)."""
    head = slot_heads(adj)
    keep = head != adj.nbr
    indptr = np.zeros_like(adj.indptr)
    np.cumsum(np.bincount(head[keep], minlength=indptr.size - 1), out=indptr[1:])
    return indptr, adj.nbr[keep], adj.rel[keep]


def by_head(obj):
    """A dump record's edges, head by head, each head's in listed order."""
    heads = {}
    for edge in obj["edges"]:
        heads.setdefault(edge[0], []).append(edge)
    return heads


def same_dump(got, want, grouped):
    """Equal records where the old listing is grouped by head; otherwise the
    same edges, each head's in the same order, and the new listing grouped."""
    if grouped:
        assert json.dumps(got) == json.dumps(want)
    assert {**got, "edges": None} == {**want, "edges": None}
    assert by_head(got) == by_head(want)
    heads = [edge[0] for edge in got["edges"]]
    assert heads == sorted(heads, key=heads.index)  # each head's edges together


def assert_same_graph(g, sg, old, rng, grouped):
    """Every byte the walks, BFS and dumps read, in ``sg`` and in one
    restriction of it to random rows holding a key."""
    for name, a, b in zip(("indptr", "nbr", "rel"), loopless(sg.adjacency), (
            old.adjacency.indptr, old.adjacency.nbr, old.adjacency.rel), strict=True):
        same_bytes(a, b, (sg.qid, name))
    same_bytes(sg.key_rows, old.key_rows, (sg.qid, "key_rows"))
    same_bytes(bfs_scores(sg), bfs_scores(old), (sg.qid, "bfs"))
    n = sg.n_nodes
    masks = [np.ones(n, dtype=bool), rng.random(n) < 0.6]
    masks[1][sg.key_rows] = True
    for k in (1, 2, 3):
        for kept in masks:
            got = list_walks(sg.adjacency, sg.key_rows, k, kept)
            want = list_walks(old.adjacency, old.key_rows, k, kept)
            for name, a, b in zip(got._fields, got, want, strict=True):
                same_bytes(a, b, (sg.qid, k, name))
    gt = rng.choice(sg.nodes, size=min(2, n), replace=False).tolist()
    same_dump(sg.to_json_obj(g, gt), old.to_json_obj(g, gt), grouped)
    rows = np.union1d(sg.key_rows[:1], np.flatnonzero(masks[1]))
    rows = rng.permutation(rows)
    nodes, types, edges, q_nodes, v_nodes = reference_restricted(old, rows)
    old_rows = OldSchemaGraph(old.qid, nodes, types, *edges, q_nodes, v_nodes)
    same_dump(sg.restricted_to(rows).to_json_obj(g), old_rows.to_json_obj(g), grouped)


def held_arrays(obj):
    """Every numpy array ``obj`` holds, through the dataclasses it holds."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from held_arrays(value)


def assert_one_edge_store(sg):
    """After every listing and lazy attribute is read, the arrays ``sg``
    holds that have one entry per edge are the store's three, at 16 B per
    edge, with the tails by row; no id-space edge copy is kept."""
    listed = [sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight]
    bfs_scores(sg)  # reads the key rows
    assert sg.n_edges not in (sg.n_nodes, sg.n_nodes + 1)  # no per-node array is counted
    adj = sg.adjacency
    per_edge = [a for a in held_arrays(sg) if a.shape[:1] == (sg.n_edges,)]
    assert sorted(map(id, per_edge)) == sorted(map(id, (adj.nbr, adj.rel, adj.weight)))
    assert sum(a.nbytes for a in per_edge) == 16 * sg.n_edges
    assert (adj.nbr.dtype, adj.rel.dtype, adj.weight.dtype) == (np.int32, np.int32, np.float64)
    assert adj.nbr.max(initial=0) < sg.n_nodes
    assert not any(np.shares_memory(a, col) for a in held_arrays(sg) for col in listed)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_a_graph_holds_each_edge_once_in_16_bytes(tmp_path):
    """Graphs built with a scene edge that repeats a KG edge and with a KG
    self-loop, and graphs loaded from their dumps."""
    rows = [("a", "r0", "a", 2.0), ("a", "r0", "b", 1.0), ("a", "r1", "b", 0.5),
            ("b", "r2", "c", 1.0), ("c", "r0", "d", 1.0), ("d", "r1", "a", 0.25)]
    rows += [(f"x{i}", "r0", "c", 1.0) for i in range(6)]
    edges = write_edges(tmp_path / "edges.tsv", rows)
    g = load_graph(edges, write_relations(tmp_path / "relations.txt", list(RELATIONS)))
    a, b = g.entity_id("a"), g.entity_id("b")
    keys = KeyNodeSet(q_nodes=frozenset({a}), v_nodes=frozenset({b}))
    scene = [Edge(a, 0, b, 4.0)]  # repeats the KG edge a -r0-> b
    for budget in (3, 6, 20):
        sg = build_schema(g, keys, scene, budget=budget, one_hop_cap=5, seed=1, qid="q")
        triples = set(zip(sg.edges_head.tolist(), sg.edges_rel.tolist(), sg.edges_tail.tolist()))
        assert {(a, 0, a), (a, 0, b)} <= triples and sg.n_edges == len(triples)
        for graph in (sg, SchemaGraph.from_json_obj(g, sg.to_json_obj(g))):
            assert_one_edge_store(graph)
    rng = np.random.default_rng(3534)
    g = kg(tmp_path, rng)
    for trial in range(10):
        sg = built_pair(g, rng, trial)[0]
        for graph in (sg, SchemaGraph.from_json_obj(g, random_dump(rng, trial))):
            if graph.n_edges not in (graph.n_nodes, graph.n_nodes + 1):
                assert_one_edge_store(graph)


def test_built_graphs_match_the_two_store_route(tmp_path):
    rng = np.random.default_rng(3535)
    g = kg(tmp_path, rng)
    seen = {"self-loop": 0, "parallel": 0, "scene repeat": 0}
    for trial in range(60):
        sg, old, scene = built_pair(g, rng, trial)
        triples = list(zip(old.edges_head.tolist(), old.edges_rel.tolist(), old.edges_tail.tolist()))
        seen["self-loop"] += any(h == t for h, _, t in triples)
        seen["parallel"] += len({(h, t) for h, _, t in triples}) < len(triples)
        seen["scene repeat"] += repeats_a_kg_edge(g, sg, scene)
        for name in ("edges_head", "edges_rel", "edges_tail", "edges_weight"):
            assert np.array_equal(getattr(sg, name), getattr(old, name)), (trial, name)
        assert sg.n_edges == old.n_edges
        assert_same_graph(g, sg, old, rng, grouped=True)
        obj = sg.to_json_obj(g)
        assert_same_graph(g, SchemaGraph.from_json_obj(g, obj),
                          OldSchemaGraph.from_json_obj(g, obj), rng, grouped=True)
    assert min(seen.values()) >= 20, seen


def test_hand_ordered_dumps_keep_each_heads_order(tmp_path):
    rng = np.random.default_rng(3536)
    g = kg(tmp_path, rng)
    regrouped = 0
    for trial in range(60):
        obj = random_dump(rng, trial)
        rng.shuffle(obj["edges"])
        old = OldSchemaGraph.from_json_obj(g, obj)
        sg = SchemaGraph.from_json_obj(g, obj)
        heads = [g.entity_id(h) for h, _, _, _ in obj["edges"]]
        regrouped += heads != sorted(heads)
        assert_same_graph(g, sg, old, rng, grouped=False)
    assert regrouped >= 40
