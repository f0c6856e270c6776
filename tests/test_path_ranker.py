import itertools
from typing import Optional, Sequence

import numpy as np
import pytest

from kgpath.embeddings import EntityEmbeddingTable, QueryContext
from kgpath.neural import Adam, ScoringModel, bce_loss, cosine_rows
from kgpath.paths import (
    WALK_STOP_PROB,
    PathBatch,
    _forward_paths,
    aggregate_answers,
    list_walks,
    mix_seed,
    pack_paths,
    ranked_paths,
    run_query,
    sample_paths,
    staged_training,
    train_joint_step,
)
from kgpath.pruning import PrunedGraph, QuerySample, bfs_scores, prune_from_scores
from kgpath.schema import LocalAdjacency

from conftest import FakeTextFeatures
from test_pruning import make_sg, providers, random_local_graph, sym


def as_pruned(sg):
    n = sg.n_nodes
    return PrunedGraph(
        sg=sg, rows=np.arange(n), s_cos=np.zeros(n), s_bfs=np.zeros(n), s_prune=np.zeros(n)
    )


def pack(walks, k, ids=None, scores=None):
    """A batch of (nodes, relations) entity-id walks, built by ``pack_paths``
    over a graph whose row i holds ``sorted(ids)[i]`` (default: every id the
    walks touch)."""
    ids = sorted(ids if ids is not None else {e for nodes, _ in walks for e in nodes})
    pos = {e: i for i, e in enumerate(ids)}
    pg = as_pruned(make_sg(ids, [2] * len(ids), [], q_nodes=set()))
    batch = pack_paths(
        pg,
        [pos[e] for nodes, _ in walks for e in nodes],
        [r for _, rels in walks for r in rels],
        [len(rels) for _, rels in walks],
        k,
    )
    if scores is not None:
        batch.scores = np.asarray(scores, dtype=np.float64)
    return batch


def sigs(batch):
    """Each path of ``batch`` as a (node ids, relations) pair of tuples."""
    return [
        (tuple(nodes[: n + 1]), tuple(rels[:n]))
        for nodes, rels, n in zip(
            batch.paths.tolist(), batch.rels.tolist(), batch.lengths.tolist()
        )
    ]


def forward(model, paths, vectors, ctx, k=None):
    """Eval-mode (scores, h_p) of (nodes, relations) ``paths`` over node
    vectors keyed by entity id, packed ``k`` steps wide (default model.k)."""
    ids = sorted(vectors)
    h = np.stack([vectors[i] for i in ids])
    batch = pack(paths, k or model.k, ids)
    scores, h_p, _ = _forward_paths(model, batch, h, ctx)
    return scores, h_p


def triangle_pg():
    edges = sym([(0, 1, 1, 1.0), (1, 2, 2, 1.0), (0, 3, 2, 1.0)])
    sg = make_sg([0, 1, 2], [0, 2, 2], edges, q_nodes={0}, qid="tri")
    return as_pruned(sg)


def enumerate_simple_walks(sg, k):
    """Exhaustive DFS over simple walks of length 1..k from key nodes."""
    adj = {}
    for h, r, t in zip(sg.edges_head, sg.edges_rel, sg.edges_tail):
        if h != t:
            adj.setdefault(int(h), []).append((int(t), int(r)))
    walks = set()

    def extend(nodes, rels):
        if rels:
            walks.add((tuple(nodes), tuple(rels)))
        if len(rels) == k:
            return
        for t, r in adj.get(nodes[-1], []):
            if t not in nodes:
                extend(nodes + [t], rels + [r])

    for key in sorted(sg.key_ids()):
        extend([key], [])
    return walks


def test_sampled_paths_are_valid_simple_walks():
    pg = triangle_pg()
    batch = sample_paths(pg, n_paths=50, k=3, seed=1)
    assert len(batch)
    edge_set = {
        (int(h), int(r), int(t))
        for h, r, t in zip(pg.base.edges_head, pg.base.edges_rel, pg.base.edges_tail)
    }
    for nodes, rels in sigs(batch):
        assert nodes[0] == 0  # rooted at the only key
        assert len(set(nodes)) == len(nodes)  # simple
        assert 1 <= len(rels) <= 3
        for a, r, b in zip(nodes, rels, nodes[1:]):
            assert (a, r, b) in edge_set


def test_single_edge_graph_exhausts_to_one_path():
    sg = make_sg([5, 9], [0, 2], sym([(5, 0, 9, 1.0)]), q_nodes={5})
    batch = sample_paths(as_pruned(sg), n_paths=200, k=3, seed=0)
    # the reversal roots at the non-key node, so one distinct path exists
    assert sigs(batch) == [((5, 9), (0,))]


def test_zero_edge_graph_yields_empty_batch():
    sg = make_sg([1, 2], [0, 2], [], q_nodes={1})
    assert sigs(sample_paths(as_pruned(sg), n_paths=10, k=3, seed=0)) == []


def test_no_key_node_is_an_error():
    sg = make_sg([1, 2], [2, 2], sym([(1, 0, 2, 1.0)]), q_nodes=set())
    with pytest.raises(ValueError, match="key node"):
        sample_paths(as_pruned(sg), n_paths=10, k=3, seed=0)


def test_paths_subset_of_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        edges = []
        for _ in range(int(rng.integers(2, 14))):
            a, b = rng.integers(n, size=2)
            if a != b:
                edges.append((int(a), int(rng.integers(4)), int(b), 1.0))
        keys = {0}
        sg = make_sg(list(range(n)), [0] + [2] * (n - 1), sym(edges), q_nodes=keys)
        pg = as_pruned(sg)
        universe = enumerate_simple_walks(sg, 3)
        for seed in range(10):
            batch = sample_paths(pg, n_paths=200, k=3, seed=seed)
            got = set(sigs(batch))
            assert got <= universe
            assert len(got) == len(batch)  # dedup held


def listed_walks(sg, roots, k):
    """The walks ``list_walks`` lists, in its order, as (node ids, relations)
    pairs of tuples, and their log-probabilities."""
    rows, rels, logp = list_walks(sg.adjacency(), np.asarray(roots), k)
    ids = sg.nodes.tolist()
    walks = [
        (tuple(ids[p] for p in row if p >= 0), tuple(r for r in rel if r >= 0))
        for row, rel in zip(rows.tolist(), rels.tolist())
    ]
    return walks, logp


def test_sampler_matches_reference_loop():
    # the exact route lists the whole universe; the sampled one fills the batch from it
    rng = np.random.default_rng(41)
    exact = 0
    for trial in range(30):
        sg = random_local_graph(rng, duplicates=trial % 5 == 0)
        pg = as_pruned(sg)
        for k in (1, 2, 3):
            universe = enumerate_simple_walks(sg, k)
            total = len(universe)
            for n_paths in sorted({1, max(1, total // 2), max(1, total), total + 1, 60}):
                for seed in (0, 1):
                    got = sigs(sample_paths(pg, n_paths=n_paths, k=k, seed=seed))
                    assert len(got) == len(set(got)) == min(n_paths, total), (trial, k, n_paths)
                    assert set(got) <= universe
                    exact += n_paths >= total > 0
    assert exact > 50  # the exact route is exercised, not just the sampler


# The two-pass route as it stood before the walk collector became one listing
# DFS, copied verbatim but for its rejection sampler, whose stream is gone: a
# counting-only pass up to ``n_paths + 1`` walks, then a listing pass when the
# graph fits. The one route must give the same batch bytes wherever the graph
# fits. The copy walks the pruned graph's own ``base`` numbering, so it keeps
# the ``pack_paths`` of its time, which maps those positions back through
# ``pg.rows``.


def two_pass_pack_paths(
    pg: PrunedGraph,
    nodes: Sequence[int],
    rels: Sequence[int],
    lengths: Sequence[int],
    k: int,
) -> PathBatch:
    """A batch from flat lists, path after path: ``nodes`` holds each path's
    row positions in ``pg.base`` (root first), ``rels`` its relations and
    ``lengths`` its step count (at most ``k``)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    at = np.asarray(nodes, dtype=np.intp)
    node_cells = np.arange(k + 1) <= lengths[:, None]
    rows = np.full((lengths.size, k + 1), -1, dtype=np.intp)
    rows[node_cells] = pg.rows[at]
    paths = np.full((lengths.size, k + 1), -1, dtype=np.int64)
    paths[node_cells] = pg.base.nodes[at]
    rel_cells = np.full((lengths.size, k), -1, dtype=np.int64)
    rel_cells[np.arange(k) < lengths[:, None]] = rels
    return PathBatch(qid=pg.base.qid, rows=rows, paths=paths, rels=rel_cells)


def two_pass_simple_walks(
    adj: LocalAdjacency,
    roots: Sequence[int],
    k: int,
    cap: int,
    out: Optional[tuple[list[int], list[int], list[int]]] = None,
) -> int:
    """Count the first ``cap`` distinct simple walks of 1..k edges from
    ``roots`` over ``adj``; given ``out`` = (nodes, rels, lengths) flat lists,
    also append each walk's row positions, relations and step count.

    The DFS takes the roots in the given order and each row's edges in
    adjacency order, and lists a walk before its extensions. A repeated
    (head, relation, tail) edge would give the same walk twice, so each row
    takes only the first of its equal (neighbour, relation) edges.
    """
    indptr = adj.indptr.tolist()
    nbr = adj.nbr.tolist()
    rel = adj.rel.tolist()
    rows: dict[int, list[tuple[int, int]]] = {}  # row -> distinct (neighbour, relation)
    count = 0

    def extend(nodes: tuple[int, ...], rels: tuple[int, ...]) -> bool:
        nonlocal count
        u = nodes[-1]
        steps = rows.get(u)
        if steps is None:
            lo, hi = indptr[u], indptr[u + 1]
            steps = rows[u] = list(dict.fromkeys(zip(nbr[lo:hi], rel[lo:hi])))
        if out is None and len(rels) + 1 == k:
            # counting at the last step: each edge that does not revisit ends a walk
            count += sum([v not in nodes for v, _ in steps])
            return count >= cap
        for v, r in steps:
            if v in nodes:
                continue
            count += 1
            if out is not None:
                out[0].extend(nodes)
                out[0].append(v)
                out[1].extend(rels)
                out[1].append(r)
                out[2].append(len(rels) + 1)
            if count >= cap or (len(rels) + 1 < k and extend(nodes + (v,), rels + (r,))):
                return True
        return False

    if cap > 0:
        for root in roots:
            if extend((root,), ()):
                break
    return min(count, cap)


def two_pass_sample_paths(
    pg: PrunedGraph,
    n_paths: int = 200,
    k: int = 3,
) -> PathBatch:
    """All distinct simple walks of 1..k edges from the key nodes, for a graph
    that holds at most ``n_paths`` of them.

    They come in ``simple_walks`` order from the key nodes sorted by id, and
    no random number is drawn; the walks are counted before any is listed.
    """
    base = pg.base
    key_pos = base.key_rows().tolist()
    if not key_pos:
        raise ValueError("pruned graph has no key node to root paths at")
    adj = base.adjacency()
    flat_nodes: list[int] = []
    flat_rels: list[int] = []
    lengths: list[int] = []

    assert two_pass_simple_walks(adj, key_pos, k, n_paths + 1) <= n_paths
    two_pass_simple_walks(adj, key_pos, k, n_paths, (flat_nodes, flat_rels, lengths))
    return two_pass_pack_paths(pg, flat_nodes, flat_rels, lengths, k)


def batch_bytes(batch):
    """dtype, shape and bytes of each array of a batch."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (batch.rows, batch.paths, batch.rels)]


def test_one_pass_walks_match_two_pass_route_bytes():
    rng = np.random.default_rng(46)
    routes = {"exact": 0, "sampled": 0}
    for trial in range(60):
        sg = random_local_graph(
            rng,
            max_nodes=(8, 14)[trial % 2],
            max_edges=(16, 40)[trial % 2],
            duplicates=trial % 3 == 0,
        )
        # a real pruned graph: a shuffled subset of the rows, keys kept
        n_keys = len(sg.key_ids())
        target = int(rng.integers(n_keys, sg.n_nodes + 1))
        pg = prune_from_scores(sg, rng.uniform(-1, 1, sg.n_nodes), bfs_scores(sg), 0.3, target)
        for k in (1, 2, 3):
            total = len(enumerate_simple_walks(pg.base, k))
            for n_paths in sorted({1, total - 1, total, total + 1} - {-1, 0}):
                for seed in (0, 1, 2):
                    got = sample_paths(pg, n_paths, k, seed)
                    if n_paths >= total:
                        want = two_pass_sample_paths(pg, n_paths, k)
                        assert got.qid == want.qid
                        assert batch_bytes(got) == batch_bytes(want), (trial, k, n_paths, seed)
                    else:
                        assert len(got) == len(set(sigs(got))) == n_paths
                    routes["exact" if n_paths >= total else "sampled"] += total > 0
    assert min(routes.values()) > 200, routes  # both routes are exercised


def itertools_walks(sg, k):
    """Distinct key-rooted simple walks of 1..k edges, by brute-force product."""
    edges = [(int(h), int(r), int(t)) for h, r, t in
             zip(sg.edges_head, sg.edges_rel, sg.edges_tail) if h != t]
    keys = sg.key_ids()
    walks = set()
    for length in range(1, k + 1):
        for seq in itertools.product(edges, repeat=length):
            nodes = (seq[0][0],) + tuple(t for _, _, t in seq)
            if (nodes[0] in keys
                    and all(a[2] == b[0] for a, b in zip(seq, seq[1:]))
                    and len(set(nodes)) == len(nodes)):
                walks.add((nodes, tuple(r for _, r, _ in seq)))
    return walks


def test_count_walks_matches_itertools_enumeration():
    # list_walks, the one listing behind every batch, against brute force and
    # against the DFS order of the verbatim two-pass copy
    rng = np.random.default_rng(43)
    for trial in range(40):
        sg = random_local_graph(rng, max_nodes=6, max_edges=12, duplicates=trial % 4 == 0)
        roots = sg.key_rows()
        for k in (1, 2, 3):
            universe = itertools_walks(sg, k)
            assert universe == enumerate_simple_walks(sg, k)
            got, _ = listed_walks(sg, roots, k)
            assert set(got) == universe and len(got) == len(universe)
            flat_nodes, flat_rels, lengths = [], [], []
            two_pass_simple_walks(sg.adjacency(), roots.tolist(), k, 10**6,
                                  (flat_nodes, flat_rels, lengths))
            ends = np.cumsum(lengths)
            ids = sg.nodes.tolist()
            dfs = [
                (tuple(ids[p] for p in flat_nodes[end + i - n : end + i + 1]),
                 tuple(flat_rels[end - n : end]))
                for i, (n, end) in enumerate(zip(lengths, ends.tolist()))
            ]
            assert got == dfs, (trial, k)


# ---------------------------------------------------------------------------
# the walk process: exact probabilities and the draw without replacement
# ---------------------------------------------------------------------------


def tiny_graphs():
    """20 tiny graphs over 3..6 nodes: random directed edges with self-loops,
    parallel relations and repeated triples; every fourth graph has a
    dead-end key (its only out-edge a self-loop), every fifth a key with no
    edge at all."""
    rng = np.random.default_rng(1818)
    graphs = []
    for trial in range(20):
        n = int(rng.integers(3, 6))
        ids = [int(i) for i in rng.choice(100, size=n, replace=False)]
        edges = []
        for a, b in rng.integers(n, size=(int(rng.integers(3, 10)), 2)).tolist():
            r = int(rng.integers(2))
            edges.append((ids[a], r, ids[b], 1.0))
            if rng.random() < 0.3:
                edges.append((ids[a], 1 - r, ids[b], 1.0))  # a parallel relation
            if rng.random() < 0.3:
                edges.append(edges[-1])  # a repeated triple
            if rng.random() < 0.2:
                edges.append((ids[a], 2, ids[a], 1.0))  # a self-loop
        keys = [ids[int(i)] for i in rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)]
        if trial % 4 == 0:
            edges = [e for e in edges if e[0] != keys[0]] + [(keys[0], 2, keys[0], 1.0)]
        if trial % 5 == 0:
            ids.append(100 + trial)
            keys.append(100 + trial)
        graphs.append(make_sg(ids, [0 if i in keys else 2 for i in ids], edges, q_nodes=keys))
    return graphs


def walk_probability(sg, nodes, rels, k):
    """P(the walk process draws exactly this walk), from the edge list: the
    root uniform over the keys, each step uniform over the out-edges that
    leave the walk (self-loops never do), a 1/3 stop after each step below
    k, a sure stop at a dead end or after k steps."""
    out = {}
    for h, r, t in zip(sg.edges_head.tolist(), sg.edges_rel.tolist(), sg.edges_tail.tolist()):
        out.setdefault(h, []).append((t, r))
    p = 1.0 / len(sg.key_ids())
    for j, (u, r, v) in enumerate(zip(nodes, rels, nodes[1:])):
        free = [(t, r_) for t, r_ in out.get(u, []) if t not in nodes[: j + 1]]
        p *= free.count((v, r)) / len(free)
        if j:
            p *= 1.0 - WALK_STOP_PROB  # the walk went on after step j
    if len(rels) < k and any(t not in nodes for t, _ in out.get(nodes[-1], [])):
        p *= WALK_STOP_PROB
    return p


def plackett_luce_inclusion(p, n):
    """P(walk i is among n draws without replacement, each draw in
    proportion to p), by brute force over every ordered draw."""
    pi = np.zeros(len(p))
    for seq in itertools.permutations(range(len(p)), n):
        prob, left = 1.0, sum(p)
        for i in seq:
            prob *= p[i] / left
            left -= p[i]
        pi[list(seq)] += prob
    return pi


def test_walk_probabilities_match_brute_force_product():
    shapes = {"self-loop": 0, "parallel": 0, "repeated": 0, "dead-end key": 0, "bare key": 0}
    for trial, sg in enumerate(tiny_graphs()):
        triples = list(zip(sg.edges_head.tolist(), sg.edges_rel.tolist(), sg.edges_tail.tolist()))
        shapes["self-loop"] += any(h == t for h, _, t in triples)
        shapes["parallel"] += len({(h, t) for h, _, t in triples}) < len(set(triples))
        shapes["repeated"] += len(set(triples)) < len(triples)
        heads = {h for h, _, t in triples if h != t}
        ends = {h for h, _, _ in triples} | {t for _, _, t in triples}
        shapes["dead-end key"] += any(key in ends and key not in heads for key in sg.key_ids())
        shapes["bare key"] += any(key not in ends for key in sg.key_ids())
        dead_roots = sum(
            not any(h == key and t != key for h, t in zip(sg.edges_head, sg.edges_tail))
            for key in sg.key_ids()
        )
        for k in (1, 2, 3):
            walks, logp = listed_walks(sg, sg.key_rows(), k)
            want = [walk_probability(sg, nodes, rels, k) for nodes, rels in walks]
            assert np.exp(logp) == pytest.approx(want, rel=1e-12, abs=0), (trial, k)
            assert np.exp(logp).sum() == pytest.approx(1 - dead_roots / len(sg.key_ids()),
                                                       rel=1e-12), (trial, k)
    assert min(shapes.values()) >= 4, shapes


def test_inclusion_frequencies_match_plackett_luce():
    # per walk, |frequency - inclusion probability| stays within 4.5 binomial
    # standard deviations over N seeds, on the first two graphs with 4..7
    # walks at k=3
    N, Z = 20_000, 4.5
    checked = 0
    for sg in tiny_graphs():
        walks, logp = listed_walks(sg, sg.key_rows(), 3)
        if not 4 <= len(walks) <= 7 or checked == 2:
            continue
        n_paths = 2 + checked
        pi = plackett_luce_inclusion(np.exp(logp).tolist(), n_paths)
        counts = dict.fromkeys(walks, 0)
        pg = as_pruned(sg)
        for seed in range(N):
            for sig in sigs(sample_paths(pg, n_paths, 3, seed)):
                counts[sig] += 1
        freq = np.array([counts[w] for w in walks]) / N
        assert freq.sum() == pytest.approx(n_paths)  # every batch is full
        assert (np.abs(freq - pi) <= Z * np.sqrt(pi * (1 - pi) / N)).all(), (freq, pi)
        checked += 1
    assert checked == 2


def test_batches_are_full_and_seed_determined():
    for sg in tiny_graphs():
        pg = as_pruned(sg)
        for k in (1, 2, 3):
            total = len(itertools_walks(sg, k))
            for n_paths in (1, 2, 3, 5, 200):
                for seed in (0, 1, 2):
                    got = sample_paths(pg, n_paths, k, seed)
                    assert len(got) == len(set(sigs(got))) == min(n_paths, total)
                    assert batch_bytes(got) == batch_bytes(sample_paths(pg, n_paths, k, seed))


def test_exact_route_has_no_duplicate_on_repeated_triples():
    edges = sym([(0, 0, 1, 1.0), (1, 1, 2, 1.0)])
    sg = make_sg([0, 1, 2], [0, 2, 2], edges + edges + [edges[2]], q_nodes={0})
    pg = as_pruned(sg)
    # 2 distinct walks, 6 edge sequences: the cap counts distinct walks
    for n_paths in (2, 3, 200):
        for seed in range(3):
            got = sigs(sample_paths(pg, n_paths, 3, seed))
            assert got == [((0, 1), (0,)), ((0, 1, 2), (0, 1))]
    rng = np.random.default_rng(44)
    for trial in range(40):
        sg = random_local_graph(rng, duplicates=True)
        for k in (1, 2, 3):
            universe = enumerate_simple_walks(sg, k)
            batch = sample_paths(as_pruned(sg), len(universe), k, seed=trial)
            got = sigs(batch)
            assert len(got) == len(set(got)) == len(universe)
            assert set(got) == universe


def test_sampling_deterministic_per_seed():
    pg = triangle_pg()  # 4 walks: 0-1, 0-1-2, 0-2, 0-2-1
    a = sample_paths(pg, n_paths=3, k=3, seed=9)
    b = sample_paths(pg, n_paths=3, k=3, seed=9)
    assert sigs(a) == sigs(b)
    # three of four walks: two seeds may keep the same three, ten seeds do not
    assert len({tuple(sigs(sample_paths(pg, 3, 3, seed))) for seed in range(10)}) > 1
    # at n_paths >= 4 every walk fits, so the batch no longer depends on the seed
    d = sample_paths(pg, n_paths=30, k=3, seed=9)
    e = sample_paths(pg, n_paths=30, k=3, seed=10)
    assert sigs(d) == sigs(e) and len(d) == 4


def test_labels_mark_gt_terminals():
    # train_joint_step labels a path 1 iff its terminal is a ground-truth
    # answer: its BCE term equals the loss recomputed under that rule.
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.0, seed=23)
    samples = make_samples(model, seed=24)
    step_seed = 5
    scores, labels = [], []
    for s in samples:
        h, _ = model.f_n.forward(s.x, train=False)
        pg = prune_from_scores(s.sg, cosine_rows(s.ctx.z, h), s.s_bfs, 0.3, 100)
        batch = sample_paths(pg, 200, 3, mix_seed(step_seed, s.qid))
        scores.append(_forward_paths(model, batch, h, s.ctx)[0])
        labels += [t in s.gt for t in batch.last(batch.paths).tolist()]
    scores = np.concatenate(scores)
    labels = np.array(labels, dtype=np.float64)
    assert 0 < labels.sum() < labels.size
    loss_cls, _ = train_joint_step(model, samples, Adam(lr=1e-3), step_seed=step_seed)
    assert loss_cls == pytest.approx(bce_loss(scores, labels), rel=1e-12)
    assert loss_cls != pytest.approx(bce_loss(scores, 1.0 - labels))


def test_encode_path_padding_and_output():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=1)
    rng = np.random.default_rng(2)
    vectors = {7: rng.standard_normal(4), 8: rng.standard_normal(4)}
    z = rng.standard_normal(4)
    ctx = QueryContext(qid="q", z=z / np.linalg.norm(z), v=z, t=z)
    path = ((7, 8), (0,))
    _, h_p = forward(model, [path], vectors, ctx)
    got = h_p[0]
    assert got.shape == (4,)
    # manual forward: one block then zero padding
    blocks = np.concatenate([vectors[8], np.zeros(4), np.zeros(4)])[None, :]
    h_t, _ = model.f_t.forward(blocks)
    feat = np.concatenate([ctx.t, ctx.v, h_t[0]])[None, :]
    h_p, _ = model.f_p.forward(feat)
    assert np.allclose(got, h_p[0])


def test_path_too_long_rejected():
    model = ScoringModel(d=4, D=3, k=2, dropout_rate=0.0, seed=1)
    vectors = {i: np.zeros(4) for i in range(5)}
    ctx = QueryContext(qid="q", z=np.ones(4), v=np.ones(4), t=np.ones(4))
    path = ((0, 1, 2, 3), (0, 0, 0))
    with pytest.raises(ValueError, match="exceeds"):
        forward(model, [path], vectors, ctx, k=3)


def test_identical_paths_same_encoding_order_sensitivity():
    model = ScoringModel(d=5, D=3, k=3, dropout_rate=0.0, seed=3)
    rng = np.random.default_rng(4)
    vectors = {i: rng.standard_normal(5) for i in range(4)}
    z = rng.standard_normal(5)
    ctx = QueryContext(qid="q", z=z, v=rng.standard_normal(5), t=rng.standard_normal(5))
    p1 = ((0, 1, 2), (0, 1))
    p1_again = ((0, 1, 2), (0, 1))
    p_swapped = ((0, 2, 1), (0, 1))
    _, (e1, e1_again, e_swapped) = forward(model, [p1, p1_again, p_swapped], vectors, ctx)
    assert np.array_equal(e1, e1_again)
    assert not np.allclose(e1, e_swapped)


def test_score_paths_empty_and_duplicates():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=5)
    # a graph without edges yields no path, and run_query scores none
    emb, ctx, tf = providers(4, 3, 3, seed=5)
    sg = make_sg([0, 1], [0, 2], [], q_nodes={0})
    sample = QuerySample.build(model, sg, ctx, [1], emb, tf)
    assert sigs(run_query(model, sample, target=2, n_paths=10, seed=0)[1]) == []
    rng = np.random.default_rng(6)
    vectors = {i: rng.standard_normal(4) for i in range(3)}
    dup = ((0, 1), (2,))
    scores, _ = forward(model, [dup, ((0, 2), (0,)), dup], vectors, ctx)
    assert scores[0] == scores[2]


def test_argmax_invariant_to_bias_shift():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=7)
    rng = np.random.default_rng(8)
    vectors = {i: rng.standard_normal(4) for i in range(5)}
    ctx = QueryContext(qid="q", z=rng.standard_normal(4), v=np.ones(4), t=np.ones(4))
    paths = [((0, i), (0,)) for i in range(1, 5)]
    s1, _ = forward(model, paths, vectors, ctx)
    model.f_bi.b[0] += 3.7
    s2, _ = forward(model, paths, vectors, ctx)
    assert np.argmax(s1) == np.argmax(s2)
    assert np.allclose(np.diff(s1), np.diff(s2))


def test_aggregate_answers_max_rule():
    batch = pack(
        [((0, 1), (0,)), ((0, 2, 1), (0, 1)), ((0, 2), (1,))], 3, scores=[0.9, 0.2, 0.5]
    )
    assert aggregate_answers(batch) == [(1, 0.9), (2, 0.5)]
    assert aggregate_answers(pack([], 3, ids=[0], scores=[])) == []


def test_aggregate_matches_group_by_max_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        paths, scores = [], []
        for _ in range(int(rng.integers(1, 60))):
            terminal = int(rng.integers(8))
            paths.append(((99, terminal), (0,)))
            scores.append(float(np.round(rng.standard_normal(), 3)))
        batch = pack(paths, 3, ids=[99, *range(8)], scores=scores)
        best = {}
        for (nodes, _), score in zip(paths, scores):
            best[nodes[-1]] = max(best.get(nodes[-1], -np.inf), score)
        expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        assert aggregate_answers(batch) == expected


def make_samples(model, n_queries=3, n_nodes=10, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_nodes, model.D))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    emb = EntityEmbeddingTable(matrix)
    tf = FakeTextFeatures(model.d, seed)
    samples = []
    for qi in range(n_queries):
        gt = int(rng.integers(2, n_nodes))
        z = matrix[gt][: model.d] if model.d <= model.D else None
        zvec = rng.standard_normal(model.d)
        zvec /= np.linalg.norm(zvec)
        ctx = QueryContext(qid=f"q{qi}", z=zvec, v=zvec.copy(), t=zvec.copy())
        edges = sym([(0, 0, i, 1.0) for i in range(1, n_nodes)] + [(1, 1, gt, 1.0)])
        sg = make_sg(list(range(n_nodes)), [0, 1] + [2] * (n_nodes - 2), edges,
                     q_nodes={0}, v_nodes={1}, qid=f"q{qi}")
        samples.append(QuerySample.build(model, sg, ctx, [gt], emb, tf))
    return samples


def test_train_joint_step_runs_and_updates_everything():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=11)
    samples = make_samples(model, seed=12)
    before = {n: a.copy() for n, a in model.param_items()}
    opt = Adam(lr=1e-3)
    loss_cls, loss_prune = train_joint_step(model, samples, opt, step_seed=1)
    assert np.isfinite(loss_cls) and np.isfinite(loss_prune)
    changed = {n for n, a in model.param_items() if not np.array_equal(a, before[n])}
    assert any(n.startswith("f_n.") for n in changed)
    assert any(n.startswith("f_bi") for n in changed)
    assert any(n.startswith("f_t") for n in changed)


def test_gt_absent_query_contributes_negative_labels_only():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.0, seed=13)
    samples = make_samples(model, n_queries=1, seed=14)
    sample = samples[0]
    object.__setattr__(sample, "gt", frozenset({9999}))  # not in the graph
    sample.gt_pos = np.empty(0, dtype=np.int64)
    sample.neg_pos = np.arange(sample.sg.n_nodes)
    loss_cls, loss_prune = train_joint_step(model, [sample], Adam(lr=1e-3), step_seed=2)
    assert loss_prune == 0.0
    assert loss_cls > 0.0


def test_staged_training_zero_epochs_keeps_init():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=15)
    before = {n: a.copy() for n, a in model.param_items()}
    samples = make_samples(model, seed=16)
    metrics = staged_training(model, samples, epochs_prune=0, epochs_joint=0)
    assert metrics == []
    for n, a in model.param_items():
        assert np.array_equal(a, before[n])


def test_staged_training_freezes_path_nets_in_phase_one():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=17)
    samples = make_samples(model, seed=18)
    frozen_before = {
        n: a.copy() for n, a in model.param_items() if not n.startswith("f_n.")
    }
    staged_training(model, samples, epochs_prune=3, epochs_joint=0, lr=1e-3)
    for n, a in model.param_items():
        if not n.startswith("f_n."):
            assert np.array_equal(a, frozen_before[n]), f"{n} moved during phase 1"


def test_staged_training_bit_identical_reruns():
    results = []
    for _ in range(2):
        model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=19)
        samples = make_samples(model, seed=20)
        metrics = staged_training(
            model, samples, epochs_prune=2, epochs_joint=2, lr=1e-3, seed=4
        )
        results.append((metrics, {n: a.copy() for n, a in model.param_items()}))
    (m1, p1), (m2, p2) = results
    assert m1 == m2
    for n in p1:
        assert np.array_equal(p1[n], p2[n]), f"{n} differs between identical runs"


def test_run_query_returns_consistent_bundle():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.0, seed=21)
    (sample,) = make_samples(model, n_queries=1, seed=22)
    pg, batch, s_cos = run_query(model, sample, theta_p=0.3, target=5, n_paths=50, k=3, seed=3)
    assert len(pg.base.nodes) == 5
    assert s_cos.shape == (sample.sg.n_nodes,)
    surv = set(int(e) for e in pg.base.nodes)
    for nodes, _ in sigs(batch):
        assert set(nodes) <= surv
    assert batch.scores is not None and batch.scores.shape == (len(batch),)
    rp = batch.scores[ranked_paths(batch)]
    assert all(rp[i] >= rp[i + 1] for i in range(len(rp) - 1))


def test_mix_seed_stable():
    assert mix_seed("a", 1) == mix_seed("a", 1)
    assert mix_seed("a", 1) != mix_seed("a", 2)
    assert 0 <= mix_seed("x") < 2**63
