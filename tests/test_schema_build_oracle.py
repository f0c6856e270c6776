"""Schema builds against the route they replaced, and the gathers a build makes.

``reference_*`` below are verbatim copies of the schema builder as it was
before the entity-mask rewrite: ``searchsorted`` membership, ``setdiff1d`` /
``union1d`` candidate sets and a final re-gather of every node's rows. The
current builder must return the same arrays, dtypes and build ranks.
"""

from typing import Optional, Sequence

import numpy as np

from kgpath.kg import Edge, KnowledgeGraph, dedup_max_weight, load_graph
from kgpath.linking import KeyNodeSet
from kgpath.schema import Gather, NodeType, SchemaGraph, build_schema

from conftest import out_edges, write_edges, write_relations
from test_pruning import slot_heads


def reference_rank_candidates(
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


def reference_build(
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
        if not 0 <= eid < g.n_entities:
            raise IndexError(f"invalid entity id {eid}")

    node_ids = list(key_ids)
    node_types = [NodeType.Q] * len(q_sorted) + [NodeType.V] * len(v_sorted)
    current = np.array(key_ids, dtype=np.int64)

    # One-hop stage: every KG neighbor of a key node competes. Each stage
    # gathers the neighbourhood of the graph so far once.
    gathered = g.edges_from(current)
    hop1_all = reference_neighbor_set(gathered)
    cand1 = np.setdiff1d(hop1_all, current, assume_unique=False)
    if allowed is not None:
        cand1 = np.intersect1d(cand1, allowed, assume_unique=True)
    ranked1 = reference_rank_candidates(g, gathered, keys.q_nodes, cand1)
    n1 = ranked1[: max(0, min(one_hop_cap, budget - len(node_ids)))]
    node_ids.extend(int(n) for n in n1)
    node_types.extend([NodeType.N1] * n1.size)
    current = np.array(node_ids, dtype=np.int64)

    # Two-hop stage: neighbors of the graph so far, excluding anything at
    # hop distance 1 (one-hop candidates that missed the cap do not return).
    if len(node_ids) < budget and n1.size:
        gathered = g.edges_from(current)
        cand2 = np.setdiff1d(reference_neighbor_set(gathered), np.union1d(hop1_all, current))
        if allowed is not None:
            cand2 = np.intersect1d(cand2, allowed, assume_unique=True)
        ranked2 = reference_rank_candidates(g, gathered, keys.q_nodes, cand2)
        n2 = ranked2[: budget - len(node_ids)]
        node_ids.extend(int(n) for n in n2)
        node_types.extend([NodeType.N2] * n2.size)

    nodes = np.array(node_ids, dtype=np.int64)
    types = np.array([int(t) for t in node_types], dtype=np.int8)

    eh, er, et, ew = reference_collect_edges(g, nodes, scene_edges)

    perm = np.random.default_rng(seed).permutation(nodes.size)
    return SchemaGraph.from_edges(
        qid, nodes[perm], types[perm], (eh, er, et, ew), keys.q_nodes, keys.v_nodes,
        build_rank=perm,
    )


def reference_neighbor_set(gathered: Gather) -> np.ndarray:
    src, nbr, _, _ = gathered
    nbr = nbr.astype(np.int64)
    return np.unique(nbr[nbr != src.astype(np.int64)])


def reference_collect_edges(
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


def random_case(tmp_path, rng, trial):
    """A random graph with self-loops, repeated triples and one entity without
    edges, plus keys and scene edges that duplicate KG edges both ways."""
    n = int(rng.integers(6, 40))
    rels = ["r0", "r1", "r2"]
    rows = []
    for _ in range(int(rng.integers(n, 6 * n))):
        a, b = (int(x) for x in rng.integers(n, size=2))
        if rng.random() < 0.1:
            b = a  # self-loop
        rows.append((f"n{a}", rels[int(rng.integers(3))], f"n{b}", int(rng.integers(1, 17)) / 4))
    for i in rng.integers(len(rows), size=3):  # repeated triples at other weights
        h, r, t, _ = rows[int(i)]
        rows.append((h, r, t, int(rng.integers(1, 17)) / 4))
    loaded = load_graph(
        write_edges(tmp_path / f"e{trial}.tsv", rows),
        write_relations(tmp_path / f"r{trial}.txt", rels),
    )
    g = KnowledgeGraph(  # the same graph plus one entity without edges
        loaded.surfaces + ["lonely"],
        loaded.relations,
        np.append(loaded._offsets, loaded._offsets[-1]),
        loaded._nbr,
        loaded._rel,
        loaded._weight,
    )
    lonely = g.n_entities - 1

    ids = rng.permutation(lonely)
    q = {int(i) for i in ids[: int(rng.integers(1, 3))]}
    v = {int(i) for i in ids[3 : 3 + int(rng.integers(0, 3))]}
    if trial % 2 == 0:
        v.add(min(q))  # a key that is both a question and a visual node
    if trial % 3 == 0:
        (q if trial % 2 else v).add(lonely)
    keys = KeyNodeSet(q_nodes=frozenset(q), v_nodes=frozenset(v))

    scene = []
    for k in sorted(q | v):
        for e in out_edges(g, k):
            if e.relation < g.relations.n_forward and rng.random() < 0.5:
                scene.append(Edge(e.head, e.relation, e.tail, e.weight * 2))  # wins the dedup
                scene.append(Edge(e.head, e.relation, e.tail, e.weight / 2))  # loses it
    for a, b in rng.integers(g.n_entities, size=(4, 2)):
        scene.append(Edge(int(a), int(rng.integers(3)), int(b), 0.75))
    return g, keys, scene


def build_params(rng, trial, n_keys):
    """(budget, one_hop_cap), cycling through the corner cases."""
    case = trial % 4
    if case == 0:
        return n_keys + int(rng.integers(0, 30)), 0
    if case == 1:
        return n_keys + int(rng.integers(0, 30)), 10_000  # above any hop-1 count
    if case == 2:
        return n_keys + 2, 10_000  # the budget fills inside stage 1
    return n_keys + int(rng.integers(0, 30)), int(rng.integers(1, 6))


def assert_same_graph(got, want):
    for name in ("nodes", "types", "edges_head", "edges_rel", "edges_tail", "edges_weight",
                 "build_rank"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.q_nodes == want.q_nodes and got.v_nodes == want.v_nodes


def assert_distinct_edges(sg):
    """Each (head, relation, tail) edge once, so each adjacency slot once,
    in the graph and in a copy restricted to every other row."""
    for graph in (sg, sg.restricted_to(np.arange(0, sg.n_nodes, 2))):
        edges = np.stack([graph.edges_head, graph.edges_rel, graph.edges_tail], axis=1)
        assert len(np.unique(edges, axis=0)) == graph.n_edges
        adj = graph.adjacency
        slots = np.stack([slot_heads(adj), adj.nbr, adj.rel], axis=1)
        assert len(np.unique(slots, axis=0)) == adj.nbr.size


def test_build_matches_reference_route(tmp_path):
    rng = np.random.default_rng(606)
    filled_in_stage1 = 0
    for trial in range(48):
        g, keys, scene = random_case(tmp_path, rng, trial)
        n_keys = len(keys.q_nodes | keys.v_nodes)
        budget, cap = build_params(rng, trial, n_keys)
        seed = int(rng.integers(1000))
        want = reference_build(g, keys, scene, budget, cap, seed, "t", allowed=None)
        got = build_schema(g, keys, scene, budget, cap, seed, "t")
        assert_same_graph(got, want)
        assert_distinct_edges(got)
        n1 = int((want.types == NodeType.N1).sum())
        filled_in_stage1 += n1 > 0 and n1 == budget - n_keys

        # close-set: a random candidate set without the first key, plus an
        # id outside the graph
        cands = {int(c) for c in rng.choice(g.n_entities, size=g.n_entities // 2, replace=False)}
        cands.discard(min(keys.q_nodes))
        cands.add(g.n_entities + 5)
        allowed = np.array(sorted(set(int(c) for c in cands)), dtype=np.int64)
        want = reference_build(g, keys, scene, budget, cap, seed, "t", allowed=allowed)
        got = build_schema(g, keys, scene, budget, cap, seed, "t", candidates=cands)
        assert_same_graph(got, want)
        assert_distinct_edges(got)
    assert filled_in_stage1 >= 5


def test_each_build_gathers_ranked_rows_then_kept_rows(tmp_path, monkeypatch):
    calls = []
    gather = KnowledgeGraph.edges_from

    def recording(self, eids, within=None):
        calls.append((np.array(eids, dtype=np.int64), within))
        return gather(self, eids, within)

    monkeypatch.setattr(KnowledgeGraph, "edges_from", recording)
    rng = np.random.default_rng(607)
    for trial in range(24):
        g, keys, scene = random_case(tmp_path, rng, trial)
        budget, cap = build_params(rng, trial, len(keys.q_nodes | keys.v_nodes))
        cands = rng.choice(g.n_entities, size=g.n_entities // 2, replace=False)
        for build in (
            lambda: build_schema(g, keys, scene, budget, cap, seed=trial, qid=""),
            lambda: build_schema(g, keys, scene, budget, cap, seed=trial, qid="", candidates=cands),
        ):
            calls.clear()
            sg = build()
            construction_order = np.empty_like(sg.nodes)
            construction_order[sg.build_rank] = sg.nodes
            n_keys = int((sg.types <= NodeType.V).sum())
            n1 = int((sg.types == NodeType.N1).sum())
            # unfiltered: the rows each stage ranks, the keys' and then, when
            # a two-hop stage runs, the one-hop nodes'
            stages = [construction_order[:n_keys]]
            if n1 and n_keys + n1 < budget:
                stages.append(construction_order[n_keys : n_keys + n1])
            *ranked, (kept, within) = calls
            assert len(ranked) == len(stages)
            for (eids, mask), stage in zip(ranked, stages):
                assert mask is None
                assert np.array_equal(eids, stage)
            # filtered, once and last: every node in ascending id order
            assert np.array_equal(kept, np.sort(sg.nodes))
            assert np.array_equal(np.flatnonzero(within), kept)