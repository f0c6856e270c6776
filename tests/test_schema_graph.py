import numpy as np
import pytest

from kgpath.kg import Edge, load_graph
from kgpath.linking import KeyNodeSet
from kgpath.metrics import hit_rate_curve
from kgpath.schema import (
    NodeType,
    SchemaGraph,
    build_schema,
    build_schema_closed,
    dump_schema_graphs,
    gt_provenance,
    load_schema_graphs,
    rank_candidates,
)

from conftest import random_graph, write_edges, write_relations


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
        for e in g.neighbors(cand):
            if e.tail in current and e.tail != cand:
                sum_w += e.weight
                prio = g.relations.priority(e.relation)
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
    sg = build_schema(g, keys, budget=2, seed=0)  # keys only
    ranked = rank_candidates(g, sg, {g.entity_id("x"), g.entity_id("y")})
    assert ranked == [g.entity_id("x"), g.entity_id("y")]  # 3.0 beats 2.5


def test_rank_drops_unconnected_candidates(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("k", "isa", "x", 1.0), ("far", "isa", "faraway", 1.0)],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("k")}), budget=1, seed=0)
    ranked = rank_candidates(g, sg, {g.entity_id("x"), g.entity_id("faraway")})
    assert ranked == [g.entity_id("x")]


def test_rank_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(17)
    g, _ = random_graph(tmp_path, rng, n_entities=40, n_edges=300)
    for trial in range(50):
        current = rng.choice(g.n_entities, size=int(rng.integers(3, 20)), replace=False)
        rest = sorted(set(range(g.n_entities)) - set(int(c) for c in current))
        cands = rng.choice(rest, size=min(len(rest), 25), replace=False)
        q_nodes = frozenset(int(c) for c in current[: max(1, len(current) // 2)])
        sg = SchemaGraph(
            qid="t",
            nodes=np.asarray(current, dtype=np.int64),
            types=np.zeros(len(current), dtype=np.int8),
            edges_head=np.empty(0, dtype=np.int64),
            edges_rel=np.empty(0, dtype=np.int64),
            edges_tail=np.empty(0, dtype=np.int64),
            edges_weight=np.empty(0, dtype=np.float64),
            q_nodes=q_nodes,
            v_nodes=frozenset(int(c) for c in current) - q_nodes,
        )
        got = rank_candidates(g, sg, [int(c) for c in cands])
        assert got == brute_force_rank(g, current, q_nodes, cands)


def star_graph(tmp_path, n_leaves=600):
    rows = [("hub", "relatedto", f"leaf{i}", (i % 16 + 1) / 4) for i in range(n_leaves)]
    edges = write_edges(tmp_path / "star.tsv", rows)
    rels = write_relations(tmp_path / "star_r.txt", ["relatedto"])
    return load_graph(edges, rels)


def test_one_hop_cap_on_star(tmp_path):
    g = star_graph(tmp_path)
    sg = build_schema(g, keyset(q={g.entity_id("hub")}), budget=1000, one_hop_cap=500, seed=0)
    assert sg.n_nodes == 501  # hub + capped one-hop; leaves beyond the cap never return
    types = {int(t) for t in sg.types}
    assert types == {int(NodeType.Q), int(NodeType.N1)}


def test_keys_only_when_no_edges(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "isa", "b", 1.0), ("c", "isa", "d", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    a, c = g.entity_id("a"), g.entity_id("c")
    sg = build_schema(g, keyset(q={a}, v={c}), budget=2, seed=0)
    assert sg.node_set() == {a, c}


def test_planted_chain_gt_is_n2(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("q", "isa", "x", 1.0), ("x", "isa", "gt", 1.0), ("q", "isa", "other", 1.0)],
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("q")}), budget=10, seed=1)
    # explicit 2-hop enumeration: gt is reachable only via x
    assert gt_provenance(sg, g.entity_id("gt")) == "n-2"
    assert gt_provenance(sg, g.entity_id("x")) == "n-1"
    assert gt_provenance(sg, g.entity_id("q")) == "q"
    assert gt_provenance(sg, 99999 % g.n_entities) in {"q", "n-1", "n-2", "v", "absent"}


def test_empty_keys_and_small_budget_rejected(tiny_graph):
    with pytest.raises(ValueError, match="empty key"):
        build_schema(tiny_graph, keyset(), budget=10, seed=0)
    with pytest.raises(ValueError, match="budget"):
        build_schema(tiny_graph, keyset(q={0, 1}), budget=1, seed=0)


def test_n1_adjacent_to_keys_n2_adjacent_to_graph(tmp_path):
    rng = np.random.default_rng(23)
    g, _ = random_graph(tmp_path, rng, n_entities=60, n_edges=240)
    keys = keyset(q={0}, v={1})
    sg = build_schema(g, keys, budget=40, one_hop_cap=10, seed=5)
    key_ids = {0, 1}
    n1 = {int(n) for n, t in zip(sg.nodes, sg.types) if t == NodeType.N1}
    n2 = {int(n) for n, t in zip(sg.nodes, sg.types) if t == NodeType.N2}
    for node in n1:
        nbrs = {e.tail for e in g.neighbors(node) if e.tail != node}
        assert nbrs & key_ids
    for node in n2:
        nbrs = {e.tail for e in g.neighbors(node) if e.tail != node}
        assert nbrs & (key_ids | n1)
        assert not nbrs & key_ids or True  # n2 may also touch keys via later edges
    # n2 nodes are never at hop distance 1 from the keys
    hop1 = set()
    for k in key_ids:
        hop1 |= {e.tail for e in g.neighbors(k) if e.tail != k}
    assert not n2 & hop1


def test_shuffle_is_seeded_and_reproducible(tmp_path):
    rng = np.random.default_rng(29)
    g, _ = random_graph(tmp_path, rng)
    keys = keyset(q={2}, v={5})
    a = build_schema(g, keys, budget=20, seed=11)
    b = build_schema(g, keys, budget=20, seed=11)
    c = build_schema(g, keys, budget=20, seed=12)
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.types, b.types)
    assert a.node_set() == c.node_set()  # same selection
    assert not np.array_equal(a.nodes, c.nodes)  # different order


def test_scene_edges_included_and_max_weight(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "isa", "b", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    a, b = g.entity_id("a"), g.entity_id("b")
    rid = g.relations.id_of("isa")
    scene = [Edge(a, rid, b, 0.5)]  # duplicates the KG edge at lower weight
    sg = build_schema(g, keyset(q={a}, v={b}), scene_edges=scene, budget=2, seed=0)
    weights = {
        (int(h), int(r), int(t)): w
        for h, r, t, w in zip(sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight)
    }
    assert weights[(a, rid, b)] == 1.0  # max wins
    # a scene edge the KG lacks (forward isa from b to a) is inserted both ways
    scene2 = [Edge(b, rid, a, 0.75)]
    sg2 = build_schema(g, keyset(q={a}, v={b}), scene_edges=scene2, budget=2, seed=0)
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
    sg = build_schema_closed(g, keyset(q={k}), candidate_set={gt_id}, budget=500, seed=0)
    assert sg.node_set() == {k, gt_id}
    assert g.entity_id("noise") not in sg.node_set()


def test_gt_hit(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("k", "isa", "x", 1.0)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    k, x = g.entity_id("k"), g.entity_id("x")
    sg = build_schema(g, keyset(q={k}), budget=10, seed=0)
    # the key node is built first, its neighbour second
    assert sg.build_rank[sg.positions()[k]] == 0
    assert sg.build_rank[sg.positions()[x]] == 1
    assert hit_rate_curve([1, 2], [sg], [{x}]) == [(1, 0.0), (2, 1.0)]
    assert hit_rate_curve([1, 2], [sg, sg], [{x}, set()]) == [(1, 0.0), (2, 0.5)]


def test_dump_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    g, _ = random_graph(tmp_path, rng)
    sg = build_schema(g, keyset(q={3}, v={8}), budget=15, seed=2, qid="q9")
    dump_schema_graphs(tmp_path / "dump.jsonl", g, [sg], {"q9": frozenset({4})})
    (loaded,) = load_schema_graphs(tmp_path / "dump.jsonl", g)
    assert loaded.qid == "q9"
    assert np.array_equal(loaded.nodes, sg.nodes)
    assert np.array_equal(loaded.types, sg.types)
    assert loaded.q_nodes == sg.q_nodes and loaded.v_nodes == sg.v_nodes
    assert np.array_equal(loaded.edges_head, sg.edges_head)
    assert np.allclose(loaded.edges_weight, sg.edges_weight)
    assert loaded.build_rank is None  # dumps do not record construction order


def test_self_loop_never_recruits(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("k", "isa", "k", 9.0), ("k", "isa", "x", 0.25)])
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    sg = build_schema(g, keyset(q={g.entity_id("k")}), budget=10, seed=0)
    assert sg.node_set() == {g.entity_id("k"), g.entity_id("x")}
