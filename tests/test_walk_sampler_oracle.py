"""The walk sampler against the plain route of ``tests/reference.py``.

``reference_sample_paths`` lists every walk by a recursive DFS, draws one
Gumbel per walk in DFS order, keeps the top ``n_paths`` by a stable
``argsort`` and packs the kept walks cell by cell. The package lists walks
as per-level parent indices, reads DFS positions from subtree sizes, keeps
the top keys with a partition, builds only the kept walks and packs their
padded rows as they are; every batch must be equal bytes. The package walks
the schema graph's own adjacency through a row mask, and a separate test
holds that listing to the listing over ``restricted_adjacency``, the
reference's copy holding only the edges between the kept rows, field for
field. A separate test holds the selection's tie rule to the stable-argsort
slice it replaces.
"""

import numpy as np

from kgpath.paths import list_walks, sample_paths, top_positions
from kgpath.pruning import PrunedGraph

from reference import batch_bytes, reference_sample_paths, reference_walks, restricted_adjacency
from test_path_ranker import as_pruned, itertools_walks, sigs, tiny_graphs
from test_pruning import distinct, make_sg, random_local_graph, sym

# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


def assert_same_batches(pg, k, n_paths_list, seeds):
    """The reference's bytes, a full batch of distinct walks, fixed by the seed."""
    total = walk_count(pg, k)
    for n_paths in n_paths_list:
        for seed in seeds:
            want = reference_sample_paths(pg, n_paths, k, seed)
            got = sample_paths(pg, n_paths, k, seed)
            assert batch_bytes(got) == batch_bytes(want), (pg.sg.qid, k, n_paths, seed)
            assert len(got) == len(set(sigs(got))) == min(n_paths, total)
            assert batch_bytes(got) == batch_bytes(sample_paths(pg, n_paths, k, seed))


def walk_count(pg, k):
    return len(reference_walks(pg.sg.adjacency, pg.sg.key_rows, k, pg.rows)[0])


def test_tiny_graphs_give_the_sorting_route_bytes():
    # self-loops, parallel relations, dead-end and bare keys
    for sg in tiny_graphs():
        pg = as_pruned(sg)
        for k in (1, 2, 3):
            total = walk_count(pg, k)
            assert total == len(itertools_walks(sg, k))
            n_paths = sorted({1, 2, 3, 5, max(1, total - 1), total, total + 1, 200})
            assert_same_batches(pg, k, n_paths, (0, 1, 2))


def test_random_graphs_give_the_sorting_route_bytes():
    rng = np.random.default_rng(2201)
    sampled = 0
    for trial in range(40):
        sg = random_local_graph(rng, duplicates=trial % 2 == 0)
        pg = as_pruned(sg)
        for k in (1, 2, 3):
            total = walk_count(pg, k)
            assert_same_batches(pg, k, sorted({1, max(1, total - 1), total, total + 1, 200}), (0, 1, 2))
            sampled += total > 1
    assert sampled > 60  # most graphs sample, not just list everything


def dense_graph(rng, n, n_edges, n_keys):
    """A symmetric graph of ``n`` nodes with self-loops, drawn with repeated
    triples that ``distinct`` collapses."""
    ids = [int(i) for i in rng.choice(100_000, size=n, replace=False)]
    edges = sym([(ids[a], int(rng.integers(4)), ids[b], 1.0)
                 for a, b in rng.integers(n, size=(n_edges, 2))])
    edges += [edges[int(i)] for i in rng.integers(len(edges), size=n_edges // 10)]
    keys = {ids[int(i)] for i in rng.choice(n, size=n_keys, replace=False)}
    return make_sg(ids, [0 if i in keys else 2 for i in ids], distinct(edges), q_nodes=keys, qid=f"d{n}")


def test_graphs_of_over_a_thousand_walks_give_the_sorting_route_bytes():
    rng = np.random.default_rng(2202)
    big = 0
    for trial in range(6):
        sg = dense_graph(rng, 30, 150, 1 + trial % 3)
        n = sg.n_nodes
        rows = np.union1d(sg.key_rows, rng.choice(n, size=3 * n // 4, replace=False))
        for pg in (as_pruned(sg), PrunedGraph(sg=sg, rows=rows, s_cos=np.zeros(n), s_bfs=np.zeros(n), s_prune=np.zeros(n))):
            total = walk_count(pg, 3)
            big += total > 1000
            assert_same_batches(pg, 3, (1, 5, 200, total - 1, total), (0, 1, 2))
    assert big >= 6


def assert_mask_walks_restricted_copy(sg, rows, k):
    """``list_walks`` through the mask of ``rows`` equals ``list_walks`` over
    the reference's restricted adjacency, whose rows are all kept, field for
    field."""
    kept = np.zeros(sg.n_nodes, dtype=bool)
    kept[rows] = True
    got = list_walks(sg.adjacency, sg.key_rows, k, kept)
    want = list_walks(restricted_adjacency(sg, rows), sg.key_rows, k, np.ones(sg.n_nodes, dtype=bool))
    for name, a, b in zip(got._fields, got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b), (sg.qid, rows, k, name)
    return got.order.size


def test_row_mask_walks_match_the_restricted_copy():
    rng = np.random.default_rng(2203)
    walked = {"random": 0, "keys only": 0, "all": 0}  # masks under which some walk exists
    graphs = [random_local_graph(rng, duplicates=trial % 2 == 0) for trial in range(40)]
    graphs += [dense_graph(rng, 30, 150, 1 + trial % 3) for trial in range(4)]
    graphs.append(make_sg([4, 9, 2], [0, 2, 2], [], q_nodes={9}, qid="bare"))  # no edge
    for sg in graphs:
        n = sg.n_nodes
        random_rows = np.union1d(sg.key_rows, np.flatnonzero(rng.random(n) < rng.random()))
        for name, rows in (("random", random_rows), ("keys only", sg.key_rows),
                           ("all", np.arange(n))):
            for k in (1, 2, 3):
                walked[name] += assert_mask_walks_restricted_copy(sg, rows, k) > 0
    assert walked["random"] >= 50 and walked["keys only"] >= 15, walked


def test_selection_keeps_the_stable_argsort_tie_rule():
    rng = np.random.default_rng(2203)
    for trial in range(30):
        size = int(rng.integers(0, 40))
        key = rng.integers(-3, 3, size=size).astype(np.float64)  # heavy ties
        key[rng.random(size) < 0.2] = -0.0  # ties 0.0 by value
        for n in range(-2, size + 2):
            want = np.sort(np.argsort(-key, kind="stable")[:n])
            got = top_positions(key, n)
            assert got.dtype == want.dtype and np.array_equal(got, want), (trial, n)


def test_no_path_asked_gives_the_empty_batch():
    for sg in tiny_graphs()[:5]:
        pg = as_pruned(sg)
        got = sample_paths(pg, 0, 3, seed=0)
        assert len(got) == 0
        assert batch_bytes(got) == batch_bytes(reference_sample_paths(pg, 0, 3, seed=0))

