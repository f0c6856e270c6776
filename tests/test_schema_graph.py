import numpy as np
import pytest

from kgpath.config import atomic_write, write_jsonl
from kgpath.kg import Edge, load_graph
from kgpath.linking import KeyNodeSet
from kgpath.metrics import hit_rate_curve
from kgpath.neural import ScoringModel
from kgpath.schema import (
    NodeType,
    SchemaGraph,
    build_schema,
    gt_provenance,
    _rank_candidates,
    load_schema_graphs,
)

from conftest import CFG, out_edges, random_graph, write_edges, write_relations
from reference import restricted_adjacency
from test_pruning import make_sg, random_local_graph, slot_heads

CAP = CFG.one_hop_cap  # the operating point's one-hop cap


def keyset(q=(), v=()):
    return KeyNodeSet(q_nodes=frozenset(q), v_nodes=frozenset(v))


def brute_force_rank(g, current_ids, q_nodes, candidates):
    """Independent comparator oracle over the published 4-tuple key."""
    current = set(int(c) for c in current_ids)
    scored = []
    for cand in sorted(set(candidates)):
        sum_w = 0.0
        best_prio = None
        connected = set()
        for e in out_edges(g, cand):
            if e.tail in current and e.tail != cand:
                sum_w += e.weight
                prio = e.relation  # a relation's id is its priority rank
                best_prio = prio if best_prio is None else min(best_prio, prio)
                connected.add(e.tail)
        if not connected:
            continue
        n_q = len(connected & set(q_nodes))
        scored.append((-sum_w, best_prio, -len(connected), -n_q, cand))
    scored.sort()
    return [row[-1] for row in scored]


def test_rank_sum_of_weights_dominates(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [
            ("k1", "isa", "x", 1.0), ("k2", "isa", "x", 2.0),
            ("k1", "isa", "y", 2.5),
            ("k1", "isa", "k2", 0.25),
        ],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    keys = keyset(q={g.entity_id("k1"), g.entity_id("k2")})
    sg = build_schema(g, keys, (), budget=2, one_hop_cap=CAP, seed=0, qid="")  # keys only
    cands = np.unique([g.entity_id("x"), g.entity_id("y")])
    ranked = _rank_candidates(g, g.edges_from(sg.nodes), sg.q_nodes, cands).tolist()
    assert ranked == [g.entity_id("x"), g.entity_id("y")]  # 3.0 beats 2.5


def test_rank_drops_unconnected_candidates(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("k", "isa", "x", 1.0), ("far", "isa", "faraway", 1.0)],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("k")}), (), budget=1, one_hop_cap=CAP, seed=0, qid="")
    cands = np.unique([g.entity_id("x"), g.entity_id("faraway")])
    ranked = _rank_candidates(g, g.edges_from(sg.nodes), sg.q_nodes, cands).tolist()
    assert ranked == [g.entity_id("x")]


def test_rank_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(17)
    g, _ = random_graph(tmp_path, rng, n_entities=40, n_edges=300)
    for trial in range(50):
        current = rng.choice(g.n_entities, size=int(rng.integers(3, 20)), replace=False)
        rest = sorted(set(range(g.n_entities)) - set(int(c) for c in current))
        cands = rng.choice(rest, size=min(len(rest), 25), replace=False)
        q_nodes = frozenset(int(c) for c in current[: max(1, len(current) // 2)])
        got = _rank_candidates(g, g.edges_from(current), q_nodes, np.unique(cands)).tolist()
        assert got == brute_force_rank(g, current, q_nodes, cands)


def star_graph(tmp_path, n_leaves=600):
    rows = [("hub", "relatedto", f"leaf{i}", (i % 16 + 1) / 4) for i in range(n_leaves)]
    edges = write_edges(tmp_path / "star.tsv", rows)
    rels = write_relations(tmp_path / "star_r.txt", ["relatedto"])
    return load_graph(edges, rels)


def test_one_hop_cap_on_star(tmp_path):
    g = star_graph(tmp_path)
    sg = build_schema(
        g, keyset(q={g.entity_id("hub")}), (), budget=1000, one_hop_cap=500, seed=0, qid=""
    )
    assert sg.n_nodes == 501  # hub + capped one-hop; leaves beyond the cap never return
    types = {int(t) for t in sg.types}
    assert types == {int(NodeType.Q), int(NodeType.N1)}


def test_keys_only_when_no_edges(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "isa", "b", 1.0), ("c", "isa", "d", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    a, c = g.entity_id("a"), g.entity_id("c")
    sg = build_schema(g, keyset(q={a}, v={c}), (), budget=2, one_hop_cap=CAP, seed=0, qid="")
    assert sg.node_set() == {a, c}


def test_planted_chain_gt_is_n2(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("q", "isa", "x", 1.0), ("x", "isa", "gt", 1.0), ("q", "isa", "other", 1.0)],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("q")}), (), budget=10, one_hop_cap=CAP, seed=1, qid="")
    # explicit 2-hop enumeration: gt is reachable only via x
    assert gt_provenance(sg, g.entity_id("gt")) == "n-2"
    assert gt_provenance(sg, g.entity_id("x")) == "n-1"
    assert gt_provenance(sg, g.entity_id("q")) == "q"
    assert gt_provenance(sg, 99999 % g.n_entities) in {"q", "n-1", "n-2", "v", "absent"}


def test_empty_keys_and_small_budget_rejected(tiny_graph):
    with pytest.raises(ValueError, match="empty key"):
        build_schema(tiny_graph, keyset(), (), budget=10, one_hop_cap=CAP, seed=0, qid="")
    with pytest.raises(ValueError, match="budget"):
        build_schema(tiny_graph, keyset(q={0, 1}), (), budget=1, one_hop_cap=CAP, seed=0, qid="")


def test_n1_adjacent_to_keys_n2_adjacent_to_graph(tmp_path):
    rng = np.random.default_rng(23)
    g, _ = random_graph(tmp_path, rng, n_entities=60, n_edges=240)
    keys = keyset(q={0}, v={1})
    sg = build_schema(g, keys, (), budget=40, one_hop_cap=10, seed=5, qid="")
    key_ids = {0, 1}
    n1 = {int(n) for n, t in zip(sg.nodes, sg.types) if t == NodeType.N1}
    n2 = {int(n) for n, t in zip(sg.nodes, sg.types) if t == NodeType.N2}
    for node in n1:
        nbrs = {e.tail for e in out_edges(g, node) if e.tail != node}
        assert nbrs & key_ids
    for node in n2:
        nbrs = {e.tail for e in out_edges(g, node) if e.tail != node}
        assert nbrs & (key_ids | n1)
        assert not nbrs & key_ids or True  # n2 may also touch keys via later edges
    # n2 nodes are never at hop distance 1 from the keys
    hop1 = set()
    for k in key_ids:
        hop1 |= {e.tail for e in out_edges(g, k) if e.tail != k}
    assert not n2 & hop1


def test_shuffle_is_seeded_and_reproducible(tmp_path):
    rng = np.random.default_rng(29)
    g, _ = random_graph(tmp_path, rng)
    keys = keyset(q={2}, v={5})
    a = build_schema(g, keys, (), budget=20, one_hop_cap=CAP, seed=11, qid="")
    b = build_schema(g, keys, (), budget=20, one_hop_cap=CAP, seed=11, qid="")
    c = build_schema(g, keys, (), budget=20, one_hop_cap=CAP, seed=12, qid="")
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.types, b.types)
    assert a.node_set() == c.node_set()  # same selection
    assert not np.array_equal(a.nodes, c.nodes)  # different order


def test_scene_edges_included_and_max_weight(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "isa", "b", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    a, b = g.entity_id("a"), g.entity_id("b")
    rid = g.relations.id_of("isa")
    scene = [Edge(a, rid, b, 0.5)]  # duplicates the KG edge at lower weight
    sg = build_schema(g, keyset(q={a}, v={b}), scene, budget=2, one_hop_cap=CAP, seed=0, qid="")
    weights = {
        (int(h), int(r), int(t)): w
        for h, r, t, w in zip(sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight)
    }
    assert weights[(a, rid, b)] == 1.0  # max wins
    # a scene edge the KG lacks (forward isa from b to a) is inserted both ways
    scene2 = [Edge(b, rid, a, 0.75)]
    sg2 = build_schema(g, keyset(q={a}, v={b}), scene2, budget=2, one_hop_cap=CAP, seed=0, qid="")
    w2 = {
        (int(h), int(r), int(t)): w
        for h, r, t, w in zip(sg2.edges_head, sg2.edges_rel, sg2.edges_tail, sg2.edges_weight)
    }
    assert w2[(b, rid, a)] == 0.75
    assert w2[(a, g.relations.rev(rid), b)] == 0.75
    assert w2[(b, g.relations.rev(rid), a)] == 1.0  # the KG edge's own reversal


def test_closed_mode_restricts_recruitment(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("k", "isa", "gt", 1.0), ("k", "isa", "noise", 4.0), ("gt", "isa", "deep", 1.0)],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    k, gt_id = g.entity_id("k"), g.entity_id("gt")
    sg = build_schema(
        g, keyset(q={k}), (), budget=500, one_hop_cap=CAP, seed=0, qid="", candidates={gt_id}
    )
    assert sg.node_set() == {k, gt_id}
    assert g.entity_id("noise") not in sg.node_set()


def test_key_id_outside_graph_rejected(tiny_graph):
    for bad in (-1, tiny_graph.n_entities):
        with pytest.raises(IndexError, match=f"invalid entity id {bad}"):
            build_schema(tiny_graph, keyset(q={bad}), (), budget=10, one_hop_cap=CAP, seed=0, qid="")


def test_gt_hit(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("k", "isa", "x", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    k, x = g.entity_id("k"), g.entity_id("x")
    sg = build_schema(g, keyset(q={k}), (), budget=10, one_hop_cap=CAP, seed=0, qid="")
    # the key node is built first, its neighbour second
    assert sg.build_rank[sg.nodes == k].tolist() == [0]
    assert sg.build_rank[sg.nodes == x].tolist() == [1]
    assert hit_rate_curve([1, 2], [sg], [{x}]) == [(1, 0.0), (2, 1.0)]
    assert hit_rate_curve([1, 2], [sg, sg], [{x}, set()]) == [(1, 0.0), (2, 0.5)]


def test_dump_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    g, _ = random_graph(tmp_path, rng)
    sg = build_schema(g, keyset(q={3}, v={8}), (), budget=15, one_hop_cap=CAP, seed=2, qid="q9")
    write_jsonl(tmp_path / "dump.jsonl", [sg.to_json_obj(g, {4})])
    (loaded,), gt = load_schema_graphs(tmp_path / "dump.jsonl", g)
    assert gt == {"q9": frozenset({4})}
    assert loaded.qid == "q9"
    assert np.array_equal(loaded.nodes, sg.nodes)
    assert np.array_equal(loaded.types, sg.types)
    assert loaded.q_nodes == sg.q_nodes and loaded.v_nodes == sg.v_nodes
    assert np.array_equal(loaded.edges_head, sg.edges_head)
    assert np.allclose(loaded.edges_weight, sg.edges_weight)
    assert loaded.build_rank is None  # dumps do not record construction order


def test_failed_write_keeps_previous_file(tmp_path):
    rng = np.random.default_rng(31)
    g, _ = random_graph(tmp_path, rng)
    sg = build_schema(g, keyset(q={3}, v={8}), (), budget=15, one_hop_cap=CAP, seed=2, qid="q9")
    out = tmp_path / "out"
    out.mkdir()
    dump, ckpt = out / "dump.jsonl", out / "checkpoint.gpr"
    write_jsonl(dump, [sg.to_json_obj(g)])
    model = ScoringModel(d=4, D=3, k=2, dropout_rate=CFG.dropout, seed=0)
    model.save_checkpoint(ckpt)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def then_crash(items):
        yield from items  # these reach the temp file first
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError, match="disk gone"):
        write_jsonl(dump, (x.to_json_obj(g) for x in then_crash([sg, sg])))
    params = model.parameters()
    model.parameters = lambda: then_crash(params[:2])
    with pytest.raises(RuntimeError, match="disk gone"):
        model.save_checkpoint(ckpt)
    with pytest.raises(RuntimeError, match="disk gone"):
        with atomic_write(out / "new.txt") as f:
            f.write("partial")
            raise RuntimeError("disk gone")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_self_loop_never_recruits(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("k", "isa", "k", 9.0), ("k", "isa", "x", 0.25)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("k")}), (), budget=10, one_hop_cap=CAP, seed=0, qid="")
    assert sg.node_set() == {g.entity_id("k"), g.entity_id("x")}


def test_adjacency_keeps_edge_order_per_row_and_self_loops():
    rng = np.random.default_rng(47)
    loops = 0
    for trial in range(50):
        sg = random_local_graph(rng, max_nodes=10, max_edges=40, duplicates=True)
        order = rng.permutation(sg.n_edges)  # each head's edges in a fresh order
        cols = [col[order] for col in (sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight)]
        sg = SchemaGraph.from_edges(sg.qid, sg.nodes, sg.types, cols, sg.q_nodes, sg.v_nodes)
        edges = [col.tolist() for col in cols]
        adj = sg.adjacency
        for i, eid in enumerate(sg.nodes.tolist()):
            lo, hi = adj.indptr[i], adj.indptr[i + 1]
            got = [(int(sg.nodes[t]), r, w) for t, r, w in
                   zip(adj.nbr[lo:hi], adj.rel[lo:hi].tolist(), adj.weight[lo:hi].tolist())]
            assert got == [(t, r, w) for h, r, t, w in zip(*edges) if h == eid]
        # the listing: by ascending head id, each head's edges in stored order
        listed = [sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight]
        assert list(zip(*(col.tolist() for col in listed))) == sorted(zip(*edges), key=lambda e: e[0])
        loops += any(h == t for h, _, t, _ in zip(*edges))
        assert adj.indptr[-1] == adj.nbr.size == adj.rel.size == adj.weight.size
        heads = [i for i in range(sg.n_nodes) for _ in range(adj.indptr[i], adj.indptr[i + 1])]
        assert slot_heads(adj).tolist() == heads
        # the restricted copy that row-mask walks are checked against
        rows = np.arange(sg.n_nodes)[rng.random(sg.n_nodes) < 0.5]
        sub = restricted_adjacency(sg, rows)
        kept = set(rows.tolist())
        for i in range(sg.n_nodes):
            lo, hi = adj.indptr[i], adj.indptr[i + 1]
            want = [(int(t), int(r)) for t, r in zip(adj.nbr[lo:hi], adj.rel[lo:hi])
                    if i in kept and int(t) in kept]
            lo, hi = sub.indptr[i], sub.indptr[i + 1]
            assert [(int(t), int(r)) for t, r in zip(sub.nbr[lo:hi], sub.rel[lo:hi])] == want
        assert sub.indptr[-1] == sub.nbr.size == sub.rel.size
    assert loops >= 10


def test_adjacency_rejects_edge_outside_the_nodes():
    with pytest.raises(ValueError, match="not a node"):
        make_sg([1, 2], [0, 2], [(1, 0, 2, 1.0), (2, 0, 3, 1.0)], q_nodes={1})
