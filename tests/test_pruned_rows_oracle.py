"""A pruned graph is a row set over its schema graph.

Walks are drawn over the schema graph's one adjacency restricted to the
surviving rows, and a batch records those rows directly. The route it
replaced built a second ``SchemaGraph`` per pruned graph (``restricted_to``),
gave it its own key rows and adjacency in its own row numbering, walked that,
and mapped every walk back through ``pg.rows``. That route's walk listing is
copied verbatim below as the oracle: wherever a graph holds at most
``n_paths`` walks, both must give the same batch bytes. Where it holds more,
the draw follows each walk's DFS rank, so sampling the row set must give the
bytes of sampling the survivors' own graph, mapped through ``pg.rows``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kgpath.kg import load_graph
from kgpath.neural import Adam, ScoringModel
from kgpath.paths import PathBatch, run_query, sample_paths, train_joint_step
from kgpath.pruning import PrunedGraph, bfs_scores, prune_from_scores
from kgpath.schema import SchemaGraph

from conftest import write_edges, write_relations
from test_path_ranker import as_pruned, make_samples

RELATIONS = ("r0", "r1", "r2")
N_ENTITIES = 40
N_GRAPHS = 50


# ---------------------------------------------------------------------------
# the old route, verbatim but for ``self`` becoming an argument
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OldAdjacency:
    """CSR over a schema graph's row positions: the out-edges of row ``i``
    go to rows ``nbr[indptr[i]:indptr[i + 1]]`` by relations ``rel[...]``."""

    indptr: np.ndarray
    nbr: np.ndarray
    rel: np.ndarray


def old_edge_rows(self: SchemaGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row positions of every edge's head and tail, in edge order."""
    ends = np.concatenate([self.nodes, self.edges_head, self.edges_tail])
    # int32 rows halve the cache every prepared sample keeps
    row_of = np.full(int(ends.max(initial=-1)) + 1, -1, dtype=np.int32)
    row_of[self.nodes] = np.arange(self.n_nodes)
    head, tail = row_of[self.edges_head], row_of[self.edges_tail]
    if (head < 0).any() or (tail < 0).any():
        raise ValueError(f"{self.qid}: an edge endpoint is not a node of the graph")
    return head, tail


def old_adjacency(self: SchemaGraph) -> OldAdjacency:
    """Out-edges by row position, self-loops left out."""
    head, tail = old_edge_rows(self)
    keep = head != tail
    head, tail, rel = head[keep], tail[keep], self.edges_rel[keep]
    # numpy's stable sort is a radix sort for 8- and 16-bit keys
    by_head = np.argsort(head.astype(np.min_scalar_type(self.n_nodes)), kind="stable")
    indptr = np.zeros(self.n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(head, minlength=self.n_nodes), out=indptr[1:])
    return OldAdjacency(indptr=indptr, nbr=tail[by_head], rel=rel[by_head].astype(np.int32))


def old_key_rows(self: SchemaGraph) -> np.ndarray:
    """Row positions of the key nodes, in ascending entity-id order."""
    keys = np.fromiter(self.q_nodes | self.v_nodes, dtype=np.int64)
    rows = np.flatnonzero(np.isin(self.nodes, keys))
    return rows[np.argsort(self.nodes[rows])]


def old_restricted_to(self: SchemaGraph, rows: np.ndarray) -> SchemaGraph:
    """Copy keeping the nodes at row positions ``rows``, in that order,
    and the edges between them."""
    kept = np.zeros(self.n_nodes, dtype=bool)
    kept[rows] = True
    head, tail = old_edge_rows(self)
    mask = kept[head] & kept[tail]
    key_rows = old_key_rows(self)
    keys = self.nodes[key_rows[kept[key_rows]]].tolist()
    return SchemaGraph(
        qid=self.qid,
        nodes=self.nodes[rows],
        types=self.types[rows],
        edges_head=self.edges_head[mask],
        edges_rel=self.edges_rel[mask],
        edges_tail=self.edges_tail[mask],
        edges_weight=self.edges_weight[mask],
        q_nodes=self.q_nodes.intersection(keys),
        v_nodes=self.v_nodes.intersection(keys),
    )


def old_pack_paths(pg, base, nodes, rels, lengths, k) -> PathBatch:
    """A batch from flat lists, path after path: ``nodes`` holds each path's
    row positions in ``pg.base`` (root first), ``rels`` its relations and
    ``lengths`` its step count (at most ``k``)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    at = np.asarray(nodes, dtype=np.intp)
    node_cells = np.arange(k + 1) <= lengths[:, None]
    rows = np.full((lengths.size, k + 1), -1, dtype=np.intp)
    rows[node_cells] = pg.rows[at]
    paths = np.full((lengths.size, k + 1), -1, dtype=np.int64)
    paths[node_cells] = base.nodes[at]
    rel_cells = np.full((lengths.size, k), -1, dtype=np.int64)
    rel_cells[np.arange(k) < lengths[:, None]] = rels
    return PathBatch(qid=base.qid, rows=rows, paths=paths, rels=rel_cells)


def old_simple_walks(adj, roots: Sequence[int], k: int, cap: int, out) -> int:
    """List the first ``cap`` distinct simple walks of 1..k edges from
    ``roots`` over ``adj`` into the flat lists ``out`` = (nodes, rels,
    lengths); return how many were appended."""
    indptr = adj.indptr.tolist()
    nbr = adj.nbr.tolist()
    rel = adj.rel.tolist()
    flat_nodes, flat_rels, lengths = out
    rows: dict[int, list[tuple[int, int]]] = {}  # row -> distinct (neighbour, relation)
    count = 0

    def extend(nodes: tuple[int, ...], rels: tuple[int, ...]) -> bool:
        nonlocal count
        u = nodes[-1]
        steps = rows.get(u)
        if steps is None:
            lo, hi = indptr[u], indptr[u + 1]
            steps = rows[u] = list(dict.fromkeys(zip(nbr[lo:hi], rel[lo:hi])))
        for v, r in steps:
            if v in nodes:
                continue
            count += 1
            flat_nodes.extend(nodes)
            flat_nodes.append(v)
            flat_rels.extend(rels)
            flat_rels.append(r)
            lengths.append(len(rels) + 1)
            if count >= cap or (len(rels) + 1 < k and extend(nodes + (v,), rels + (r,))):
                return True
        return False

    if cap > 0:
        for root in roots:
            if extend((root,), ()):
                break
    return count


def old_sample_paths(pg: PrunedGraph, n_paths: int, k: int) -> PathBatch:
    """``sample_paths`` over the pruned graph's own ``SchemaGraph``, for a
    graph that holds at most ``n_paths`` walks."""
    base = old_restricted_to(pg.sg, pg.rows)
    key_pos = old_key_rows(base).tolist()
    if not key_pos:
        raise ValueError("pruned graph has no key node to root paths at")
    adj = old_adjacency(base)
    listed: tuple[list[int], list[int], list[int]] = ([], [], [])
    assert old_simple_walks(adj, key_pos, k, n_paths + 1, listed) <= n_paths
    return old_pack_paths(pg, base, *listed, k)


# ---------------------------------------------------------------------------
# random pruned graphs
# ---------------------------------------------------------------------------


def kg(tmp_path):
    """A KG that names ``N_ENTITIES`` entities ``e0``.. and ``RELATIONS``."""
    rows = [(f"e{i}", RELATIONS[i % 3], f"e{i + 1}", 1.0) for i in range(N_ENTITIES - 1)]
    edges = write_edges(tmp_path / "edges.tsv", rows)
    return load_graph(edges, write_relations(tmp_path / "relations.txt", list(RELATIONS)))


def random_dump(rng, trial):
    """A schema graph dump object: shuffled nodes, directed edges with
    self-loops, parallel relations and repeated (head, relation, tail) rows,
    and, on every third graph, a key whose out-edges are all removed."""
    n = int(rng.integers(2, (9, 15)[trial % 2]))
    names = [f"e{i}" for i in rng.choice(N_ENTITIES, size=n, replace=False)]
    rel_names = list(RELATIONS) + [f"rev_{r}" for r in RELATIONS]
    edges = []
    for _ in range(int(rng.integers(0, (18, 45)[trial % 2]))):
        a, b = (int(x) for x in rng.integers(n, size=2))
        edges.append([names[a], rel_names[int(rng.integers(6))], names[b], 1.0])
        if rng.random() < 0.2:  # a parallel relation between the same pair
            edges.append([names[a], rel_names[int(rng.integers(6))], names[b], 0.5])
        if rng.random() < 0.1:
            edges.append([names[a], rel_names[int(rng.integers(6))], names[a], 1.0])  # self-loop
        if rng.random() < 0.1:
            edges.append(list(edges[int(rng.integers(len(edges)))]))  # repeated row
    keys = [names[int(i)] for i in rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)]
    if trial % 3 == 0:
        edges = [e for e in edges if e[0] != keys[0] or e[2] == keys[0]]
    split = int(rng.integers(len(keys) + 1))
    types = {s: ("Q" if s in keys[:split] else "V" if s in keys else "N1") for s in names}
    return {
        "qid": f"q{trial}",
        "nodes": [[s, types[s]] for s in names],
        "edges": edges,
        "key_q": keys[:split],
        "key_v": keys[split:],
    }


def batch_bytes(batch):
    return [
        (batch.qid, a.dtype.str, a.shape, a.tobytes())
        for a in (batch.rows, batch.paths, batch.rels)
    ]


def test_row_set_walks_match_restricted_graph_route(tmp_path):
    g = kg(tmp_path)
    rng = np.random.default_rng(1313)
    shapes = {"self-loop": 0, "parallel": 0, "repeated": 0, "dead-end key": 0}
    routes = {"exact": 0, "sampled": 0}
    for trial in range(N_GRAPHS):
        sg = SchemaGraph.from_json_obj(g, random_dump(rng, trial))
        triples = list(zip(sg.edges_head.tolist(), sg.edges_rel.tolist(), sg.edges_tail.tolist()))
        shapes["self-loop"] += any(h == t for h, _, t in triples)
        shapes["parallel"] += len({(h, t) for h, _, t in triples}) < len(set(triples))
        shapes["repeated"] += len(set(triples)) < len(triples)
        shapes["dead-end key"] += any(
            all(t == key for h, _, t in triples if h == key) for key in sg.key_ids()
        )
        n_keys = len(sg.key_ids())
        target = int(rng.integers(n_keys, sg.n_nodes + 1))
        pg = prune_from_scores(sg, rng.uniform(-1, 1, sg.n_nodes), bfs_scores(sg), 0.3, target)

        # the survivors as a graph of their own are the old copy, field for field
        want = old_restricted_to(sg, pg.rows)
        for name in ("nodes", "types", "edges_head", "edges_rel", "edges_tail", "edges_weight"):
            a, b = getattr(pg.base, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (trial, name)
        assert (pg.base.q_nodes, pg.base.v_nodes) == (want.q_nodes, want.v_nodes)

        for k in (1, 2, 3):
            total = old_simple_walks(old_adjacency(want), old_key_rows(want).tolist(), k,
                                     10**6, ([], [], []))
            for n_paths in sorted({1, total - 1, total, total + 1} - {-1, 0}):
                for seed in (0, 1, 2):
                    got = sample_paths(pg, n_paths, k, seed)
                    if n_paths >= total:
                        oracle = old_sample_paths(pg, n_paths, k)
                    else:
                        oracle = sample_paths(as_pruned(pg.base), n_paths, k, seed)
                        oracle.rows = np.where(oracle.rows >= 0, pg.rows[oracle.rows], -1)
                    assert batch_bytes(got) == batch_bytes(oracle), (trial, k, n_paths, seed)
                    routes["exact" if n_paths >= total else "sampled"] += total > 0
    assert min(shapes.values()) >= 20, shapes
    assert min(routes.values()) >= 300, routes  # both routes are exercised


def test_query_and_joint_step_walk_each_sample_graphs_one_adjacency(monkeypatch):
    """Eval and joint training prune, sample and score without building a
    graph of the survivors or any adjacency but the one each prepared
    sample's schema graph already holds."""
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=31)
    samples = make_samples(model, n_queries=4, seed=32)
    held = {id(s.sg): s.sg._adjacency for s in samples}
    assert all(adj is not None for adj in held.values())  # built by the BFS scores
    calls = []
    adjacency, restricted_to = SchemaGraph.adjacency, SchemaGraph.restricted_to

    def spy_adjacency(sg):
        calls.append(("adjacency", id(sg), sg._adjacency is None))
        return adjacency(sg)

    def spy_restricted_to(sg, rows):
        calls.append(("restricted_to", id(sg), True))
        return restricted_to(sg, rows)

    monkeypatch.setattr(SchemaGraph, "adjacency", spy_adjacency)
    monkeypatch.setattr(SchemaGraph, "restricted_to", spy_restricted_to)
    for sample in samples:
        run_query(model, sample, target=5, n_paths=50, seed=1)
    train_joint_step(model, samples, Adam(lr=1e-3), target=5, n_paths=50, step_seed=2)
    assert calls, "the path route reads no adjacency"
    assert {name for name, _, _ in calls} == {"adjacency"}
    assert {graph for _, graph, _ in calls} <= set(held)
    assert not any(built for _, _, built in calls)
    assert all(s.sg._adjacency is held[id(s.sg)] for s in samples)
