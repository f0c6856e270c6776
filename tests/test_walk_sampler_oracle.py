"""The walk sampler against the sorting route it replaced.

``old_list_walks`` and ``old_sample_paths`` are verbatim copies of the route
that built every listed walk as a full (n, k+1) row, put the rows in DFS
order with a ``lexsort`` and kept the top ``n_paths`` with a stable
``argsort``; ``flat_pack_paths`` is the verbatim packer it called, which
took flat lists and padded them again. The package now lists walks as
per-level parent indices, reads DFS positions from subtree sizes, keeps the
top keys with a partition, builds only the kept walks and packs their
padded rows as they are; every batch must be equal bytes. The restricted
copy of the adjacency the old route walked is the test-side ``restricted``;
the package walks the schema graph's own adjacency through a row mask, and
a separate test holds that listing to the copy's field for field. The old
listing also merged slots that repeat a (head, neighbour, relation), which no
schema graph holds, so every graph here has distinct edges. A separate
test holds the selection's tie rule to the stable-argsort slice it
replaces.
"""

from typing import Sequence

import numpy as np

from kgpath.paths import WALK_STOP_PROB, PathBatch, list_walks, sample_paths, top_positions
from kgpath.pruning import PrunedGraph

from test_path_ranker import as_pruned, batch_bytes, itertools_walks, tiny_graphs
from test_pruning import RestrictedAdjacency, distinct, make_sg, random_local_graph, restricted, sym

# ---------------------------------------------------------------------------
# reference: list every walk as a full row, lexsort, stable argsort
# ---------------------------------------------------------------------------


def old_list_walks(
    adj: RestrictedAdjacency, roots: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct simple walk of 1..k edges from ``roots`` over ``adj``,
    in DFS order, with its log-probability under the walk process.

    Returns ``rows`` (n, k+1) and ``rels`` (n, k), -1 padded as in a
    ``PathBatch``, and ``logp`` (n,). DFS order takes the roots in the given
    order and each row's slots in adjacency order, and lists a walk before
    its extensions; the slots of a row that repeat one (neighbour, relation)
    are one walk, placed at the first of them. The walk process: the root is
    uniform over ``roots``; each step is uniform over the slots whose
    neighbour is not on the walk yet, so a repeated slot weighs its copies;
    below k steps the walk stops with probability ``WALK_STOP_PROB`` after
    each step, and it stops for sure at a dead end or after k steps.

    The walks are listed level by level, one frontier array per step count.
    """
    indptr, nbr = adj.indptr, adj.nbr
    # copies[s]: how many slots repeat slot s's (head, neighbour, relation),
    # counted at the first of them and 0 at the others
    n_rels = int(adj.rel.max(initial=0)) + 1
    key = (adj.head.astype(np.int64) * (indptr.size - 1) + nbr) * n_rels + adj.rel
    _, first, n_copies = np.unique(key, return_index=True, return_counts=True)
    copies = np.zeros(nbr.size)
    copies[first] = n_copies

    # each frontier walk's rows, then its root's index and each step's slot, -1 padded
    nodes = np.full((roots.size, k + 1), -1, dtype=np.intp)
    steps = np.full((roots.size, k + 1), -1, dtype=np.intp)
    nodes[:, 0], steps[:, 0] = roots, np.arange(roots.size)
    logq = np.full(roots.size, -np.log(roots.size))  # log P(the walk passes here)
    levels = []
    for length in range(k):
        last = nodes[:, length]
        deg = indptr[last + 1] - indptr[last]
        parent = np.repeat(np.arange(last.size), deg)
        slot = np.arange(parent.size) + np.repeat(indptr[last] - np.cumsum(deg) + deg, deg)
        free = (nbr[slot, None] != nodes[parent]).all(axis=1)
        n_free = np.bincount(parent[free], minlength=last.size)
        if length:
            levels.append((nodes, steps, logq + np.where(n_free > 0, np.log(WALK_STOP_PROB), 0.0)))
        child = free & (copies[slot] > 0)
        parent, slot = parent[child], slot[child]
        go_on = np.log1p(-WALK_STOP_PROB) if length else 0.0
        logq = logq[parent] + go_on + np.log(copies[slot] / n_free[parent])
        nodes, steps = nodes[parent], steps[parent]
        nodes[:, length + 1], steps[:, length + 1] = nbr[slot], slot
    levels.append((nodes, steps, logq))

    nodes, steps, logp = (np.concatenate(part) for part in zip(*levels))
    dfs = np.lexsort(steps.T[::-1])  # a -1 pad sorts a walk before its extensions
    steps = steps[dfs, 1:]
    return nodes[dfs], np.where(steps >= 0, adj.rel[steps], -1), logp[dfs]


def old_sample_paths(
    pg: PrunedGraph,
    n_paths: int = 200,
    k: int = 3,
    seed: int = 0,
):
    """Up to ``n_paths`` distinct simple walks of 1..k edges from the key nodes.

    ``list_walks`` lists every walk from the key nodes sorted by id, with its
    probability under the walk process. Each walk draws one Gumbel from
    ``np.random.default_rng(seed)``, and the ``n_paths`` walks of largest
    log-probability + Gumbel form the batch, in DFS order: a draw of
    ``n_paths`` walks without replacement, each in proportion to its
    probability (Gumbel-top-k). A graph holding at most ``n_paths`` walks
    yields all of them whatever the seed, and a larger one exactly
    ``n_paths``. A graph without usable edges yields an empty batch.
    """
    key_pos = pg.sg.key_rows
    if not key_pos.size:
        raise ValueError("pruned graph has no key node to root paths at")
    rows, rels, logp = old_list_walks(restricted(pg.sg.adjacency, pg.rows), key_pos, k)
    gumbel = np.random.default_rng(seed).gumbel(size=logp.size)
    keep = np.sort(np.argsort(-(logp + gumbel), kind="stable")[:n_paths])
    rows, rels = rows[keep], rels[keep]
    return flat_pack_paths(pg, rows[rows >= 0], rels[rels >= 0], np.count_nonzero(rels >= 0, axis=1), k)


def flat_pack_paths(
    pg: PrunedGraph,
    nodes: Sequence[int],
    rels: Sequence[int],
    lengths: Sequence[int],
    k: int,
) -> PathBatch:
    """A batch from flat lists, path after path: ``nodes`` holds each path's
    row positions in the schema graph ``pg.sg`` (root first), ``rels`` its
    relations and ``lengths`` its step count (at most ``k``). The rows are
    stored as they are and their entity ids read from ``pg.sg.nodes``."""
    lengths = np.asarray(lengths, dtype=np.intp)
    at = np.asarray(nodes, dtype=np.intp)
    node_cells = np.arange(k + 1) <= lengths[:, None]
    rows = np.full((lengths.size, k + 1), -1, dtype=np.intp)
    rows[node_cells] = at
    paths = np.full((lengths.size, k + 1), -1, dtype=np.int64)
    paths[node_cells] = pg.sg.nodes[at]
    rel_cells = np.full((lengths.size, k), -1, dtype=np.int64)
    rel_cells[np.arange(k) < lengths[:, None]] = rels
    return PathBatch(rows=rows, paths=paths, rels=rel_cells)


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


def assert_same_batches(pg, k, n_paths_list, seeds):
    for n_paths in n_paths_list:
        for seed in seeds:
            want = old_sample_paths(pg, n_paths, k, seed)
            got = sample_paths(pg, n_paths, k, seed)
            assert batch_bytes(got) == batch_bytes(want), (pg.sg.qid, k, n_paths, seed)


def walk_count(pg, k):
    return len(old_list_walks(restricted(pg.sg.adjacency, pg.rows), pg.sg.key_rows, k)[2])


def test_tiny_graphs_give_the_sorting_route_bytes():
    # self-loops, parallel relations, dead-end and bare keys
    for sg in tiny_graphs():
        pg = as_pruned(sg)
        for k in (1, 2, 3):
            total = walk_count(pg, k)
            assert total == len(itertools_walks(sg, k))
            assert_same_batches(pg, k, sorted({1, max(1, total - 1), total, total + 1, 200}), (0, 1, 2))


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
    the reference restricted copy, whose rows are all kept, field for field."""
    kept = np.zeros(sg.n_nodes, dtype=bool)
    kept[rows] = True
    got = list_walks(sg.adjacency, sg.key_rows, k, kept)
    want = list_walks(restricted(sg.adjacency, rows), sg.key_rows, k, np.ones(sg.n_nodes, dtype=bool))
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
        assert batch_bytes(got) == batch_bytes(old_sample_paths(pg, 0, 3, seed=0))

