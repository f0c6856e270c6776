"""A pruned graph is a row set over its schema graph.

Walks are drawn over the schema graph's one adjacency restricted to the
surviving rows, and a batch records those rows directly. The route it
replaced built a second ``SchemaGraph`` per pruned graph (``restricted_to``),
gave it its own key rows and adjacency in its own row numbering, walked that,
and mapped every walk back through ``pg.rows``. The survivors' own graph must
be the reference's (``reference_restricted`` in ``tests/reference.py``),
field for field. Wherever it holds at most ``n_paths`` walks, the batch must
be the bytes of the reference sampler over it, mapped through ``pg.rows``.
Where it holds more, the draw follows each walk's DFS rank, so sampling the
row set must give the bytes of sampling the survivors' own graph, mapped the
same way.
"""

import numpy as np

from kgpath.kg import load_graph
from kgpath.neural import Adam, ScoringModel
from kgpath.paths import run_query, sample_paths, train_joint_step
from kgpath.pruning import bfs_scores, prune_from_scores
from kgpath.schema import SchemaGraph

from conftest import CFG, write_edges, write_relations
from reference import batch_bytes, reference_restricted, reference_sample_paths, reference_walks
from test_path_ranker import as_pruned, make_samples

RELATIONS = ("r0", "r1", "r2")
N_ENTITIES = 40
N_GRAPHS = 50


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
    self-loops and parallel relations, drawn with repeated (head, relation,
    tail) rows that collapse to their max weight, and, on every third graph,
    a key whose out-edges are all removed."""
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
    best = {}
    for h, r, t, w in edges:
        best[h, r, t] = max(w, best.get((h, r, t), w))
    edges = [[h, r, t, w] for (h, r, t), w in best.items()]
    split = int(rng.integers(len(keys) + 1))
    types = {s: ("Q" if s in keys[:split] else "V" if s in keys else "N1") for s in names}
    return {
        "qid": f"q{trial}",
        "nodes": [[s, types[s]] for s in names],
        "edges": edges,
        "key_q": keys[:split],
        "key_v": keys[split:],
    }


def test_row_set_walks_match_restricted_graph_route(tmp_path):
    g = kg(tmp_path)
    rng = np.random.default_rng(1313)
    shapes = {"self-loop": 0, "parallel": 0, "dead-end key": 0}
    routes = {"exact": 0, "sampled": 0}
    for trial in range(N_GRAPHS):
        sg = SchemaGraph.from_json_obj(g, random_dump(rng, trial))
        triples = list(zip(sg.edges_head.tolist(), sg.edges_rel.tolist(), sg.edges_tail.tolist()))
        shapes["self-loop"] += any(h == t for h, _, t in triples)
        shapes["parallel"] += len({(h, t) for h, _, t in triples}) < len(set(triples))
        shapes["dead-end key"] += any(
            all(t == key for h, _, t in triples if h == key) for key in sg.key_ids()
        )
        n_keys = len(sg.key_ids())
        target = int(rng.integers(n_keys, sg.n_nodes + 1))
        pg = prune_from_scores(sg, rng.uniform(-1, 1, sg.n_nodes), bfs_scores(sg), 0.3, target)

        # the survivors as a graph of their own are the reference's, field for field
        want = SchemaGraph.from_edges(sg.qid, *reference_restricted(sg, pg.rows))
        for name in ("nodes", "types", "edges_head", "edges_rel", "edges_tail", "edges_weight"):
            a, b = getattr(pg.base, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (trial, name)
        assert (pg.base.q_nodes, pg.base.v_nodes) == (want.q_nodes, want.v_nodes)

        for k in (1, 2, 3):
            total = len(reference_walks(want.adjacency, want.key_rows, k)[0])
            for n_paths in sorted({1, total - 1, total, total + 1} - {-1, 0}):
                for seed in (0, 1, 2):
                    got = sample_paths(pg, n_paths, k, seed)
                    if n_paths >= total:
                        oracle = reference_sample_paths(as_pruned(want), n_paths, k, seed)
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
    sample's schema graph holds."""
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=31)
    samples = make_samples(model, n_queries=4, seed=32)
    held = {id(s.sg): s.sg.adjacency for s in samples}
    calls = []
    from_edges, restricted_to = vars(SchemaGraph)["from_edges"], SchemaGraph.restricted_to

    def spy_from_edges(cls, *args, **kwargs):
        calls.append("from_edges")
        return from_edges.__func__(cls, *args, **kwargs)

    def spy_restricted_to(sg, rows):
        calls.append("restricted_to")
        return restricted_to(sg, rows)

    monkeypatch.setattr(SchemaGraph, "from_edges", classmethod(spy_from_edges))
    monkeypatch.setattr(SchemaGraph, "restricted_to", spy_restricted_to)
    batches = [run_query(model, sample, CFG.theta_p, target=5, n_paths=50, k=CFG.k, seed=1)[1]
               for sample in samples]
    assert sum(map(len, batches)), "the path route walks no edge"
    train_joint_step(
        model, samples, Adam(lr=1e-3), CFG.theta_p, target=5, n_paths=50, k=CFG.k,
        margin=CFG.margin, semi_hard=CFG.semi_hard, step_seed=2,
    )
    assert calls == []
    assert all(s.sg.adjacency is held[id(s.sg)] for s in samples)
