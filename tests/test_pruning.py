from collections import deque

import numpy as np
import pytest

from kgpath.embeddings import EntityEmbeddingTable, QueryContext, TextFeatureProvider
from kgpath.kg import load_graph
from kgpath.linking import KeyNodeSet
from kgpath.metrics import gt_rank, recall_rates
from kgpath.neural import Adam, ScoringModel, cosine_rows
from kgpath.pruning import (
    QuerySample,
    bfs_scores,
    prune,
    prune_from_scores,
    rank_by_score,
    train_prune_step,
    triplet_terms,
)
from kgpath.schema import SchemaGraph, build_schema

from conftest import FakeTextFeatures, random_graph, write_edges, write_relations


def make_sg(nodes, types, edges, q_nodes, v_nodes=frozenset(), qid="q"):
    eh = np.array([e[0] for e in edges], dtype=np.int64)
    er = np.array([e[1] for e in edges], dtype=np.int64)
    et = np.array([e[2] for e in edges], dtype=np.int64)
    ew = np.array([e[3] for e in edges], dtype=np.float64)
    return SchemaGraph(
        qid=qid,
        nodes=np.asarray(nodes, dtype=np.int64),
        types=np.asarray(types, dtype=np.int8),
        edges_head=eh,
        edges_rel=er,
        edges_tail=et,
        edges_weight=ew,
        q_nodes=frozenset(q_nodes),
        v_nodes=frozenset(v_nodes),
    )


def sym(edges):
    """Materialize both directions of (h, r, t, w) rows."""
    out = []
    for h, r, t, w in edges:
        out.append((h, r, t, w))
        out.append((t, r + 100, h, w))
    return out


def random_local_graph(rng, max_nodes=8, max_edges=16, duplicates=False):
    """Small directed schema graph with shuffled, non-contiguous ids, self-loops,
    parallel relations and (often) a key node without out-edges."""
    n = int(rng.integers(2, max_nodes + 1))
    ids = [int(i) for i in rng.choice(10_000, size=n, replace=False)]
    triples = {
        (ids[a], int(rng.integers(3)), ids[b])
        for a, b in rng.integers(n, size=(int(rng.integers(0, max_edges + 1)), 2))
    }
    edges = [(h, r, t, 1.0) for h, r, t in triples]
    rng.shuffle(edges)
    if duplicates and edges:
        edges.append(edges[int(rng.integers(len(edges)))])
    keys = {ids[int(i)] for i in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)}
    return make_sg(ids, [0 if i in keys else 2 for i in ids], edges, q_nodes=keys)


def reference_bfs_scores(sg):
    """Queue BFS over a hand-built adjacency list: the oracle for ``bfs_scores``."""
    pos = {int(n): i for i, n in enumerate(sg.nodes)}
    adj = [[] for _ in range(sg.n_nodes)]
    for h, t in zip(sg.edges_head, sg.edges_tail):
        if h != t:
            adj[pos[int(h)]].append(pos[int(t)])
    dist = np.full(sg.n_nodes, -1, dtype=np.int64)
    queue = deque()
    for k in sorted(sg.key_ids()):
        dist[pos[k]] = 0
        queue.append(pos[k])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return np.where(dist >= 0, 1.0 / (1.0 + np.maximum(dist, 0)), 0.0)


def node_inputs(model, sg, ctx, emb, tf):
    """The f_n input of a prepared sample, as ``prune`` and training read it."""
    return QuerySample.build(model, sg, ctx, (), emb, tf).x


def encode(model, sg, ctx, emb, tf):
    """Eval-mode node encodings, the way run_query gets them."""
    h, _ = model.f_n.forward(node_inputs(model, sg, ctx, emb, tf), train=False)
    return h


def providers(dim_d, dim_D, n_entities, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_entities, dim_D))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    emb = EntityEmbeddingTable(matrix)
    z = rng.standard_normal(dim_d)
    z /= np.linalg.norm(z)
    ctx = QueryContext(qid="q", z=z, v=z.copy(), t=z.copy())
    tf = FakeTextFeatures(dim_d, seed)
    return emb, ctx, tf


def test_encode_dimension_bookkeeping():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=0)
    assert model.node_input_dim == 4 + 3 + 4 + 4 == 15
    emb, ctx, tf = providers(4, 3, 10)
    sg = make_sg([0, 1, 2], [0, 1, 2], sym([(0, 1, 1, 1.0)]), q_nodes={0}, v_nodes={1})
    x = node_inputs(model, sg, ctx, emb, tf)
    assert x.shape == (3, 15)
    assert encode(model, sg, ctx, emb, tf).shape == (3, 4)


def test_identical_inputs_identical_encodings():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=0)
    emb, ctx, tf = providers(4, 3, 10)
    emb.matrix[2] = emb.matrix[1]  # same feature vector
    tf_zero = TextFeatureProvider(dim=4, mode="zero")
    sg = make_sg([1, 2], [2, 2], [], q_nodes={1})
    h = encode(model, sg, ctx, emb, tf_zero)
    assert np.array_equal(h[0], h[1])


def test_permutation_equivariance():
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.0, seed=1)
    emb, ctx, tf = providers(5, 4, 12, seed=2)
    sg1 = make_sg([3, 5, 7, 9], [0, 1, 2, 3], [], q_nodes={3}, v_nodes={5})
    sg2 = make_sg([9, 3, 7, 5], [3, 0, 2, 1], [], q_nodes={3}, v_nodes={5})
    e1 = dict(zip(sg1.nodes.tolist(), encode(model, sg1, ctx, emb, tf)))
    e2 = dict(zip(sg2.nodes.tolist(), encode(model, sg2, ctx, emb, tf)))
    for eid in e1:
        assert np.array_equal(e1[eid], e2[eid])


def test_bfs_chain_scores():
    sg = make_sg([10, 11, 12], [0, 2, 3], sym([(10, 0, 11, 1.0), (11, 0, 12, 1.0)]), q_nodes={10})
    scores = bfs_scores(sg)
    assert scores == pytest.approx([1.0, 0.5, 1.0 / 3.0])


def test_bfs_isolated_node_scores_zero():
    sg = make_sg([10, 11, 12], [0, 2, 2], sym([(10, 0, 11, 1.0)]), q_nodes={10})
    assert bfs_scores(sg) == pytest.approx([1.0, 0.5, 0.0])


def test_bfs_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(21)
    n = 50
    for trial in range(5):
        ids = list(range(n))
        edges = []
        for _ in range(90):
            a, b = rng.integers(n, size=2)
            if a != b:
                edges.append((int(a), 0, int(b), 1.0))
        keys = {int(k) for k in rng.choice(n, size=3, replace=False)}
        types = [0 if i in keys else 2 for i in ids]
        sg = make_sg(ids, types, sym(edges), q_nodes=keys)
        got = bfs_scores(sg)

        inf = float("inf")
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for h, _, t, _ in sym(edges):
            dist[h][t] = min(dist[h][t], 1)
        for m in range(n):
            for i in range(n):
                dim_ = dist[i][m]
                if dim_ == inf:
                    continue
                row = dist[i]
                for j in range(n):
                    alt = dim_ + dist[m][j]
                    if alt < row[j]:
                        row[j] = alt
        for i in ids:
            d = min(dist[k][i] for k in keys)
            expected = 0.0 if d == inf else 1.0 / (1.0 + d)
            assert got[i] == pytest.approx(expected)


def test_bfs_matches_queue_bfs_oracle():
    rng = np.random.default_rng(22)
    for trial in range(200):
        sg = random_local_graph(rng, max_nodes=12, max_edges=30)
        assert np.array_equal(bfs_scores(sg), reference_bfs_scores(sg))


def test_prune_score_arithmetic():
    sg = make_sg([0, 1], [0, 2], sym([(0, 0, 1, 1.0)]), q_nodes={0})
    pg = prune_from_scores(sg, np.array([0.1, 0.5]), np.array([1.0, 1.0]), 0.3, 2)
    assert pg.s_prune[0] == pytest.approx(0.3 * 1.0 + 0.7 * 0.5)  # node 1 ranks first
    assert pg.base.nodes.tolist() == [1, 0]


def test_prune_theta_one_is_bfs_closest():
    rng = np.random.default_rng(5)
    n = 20
    edges = [(i, 0, i + 1, 1.0) for i in range(n - 1)]
    sg = make_sg(list(range(n)), [0] + [2] * (n - 1), sym(edges), q_nodes={0})
    s_cos = rng.standard_normal(n)  # irrelevant at theta 1
    pg = prune_from_scores(sg, s_cos, bfs_scores(sg), 1.0, 8)
    assert sorted(pg.base.nodes.tolist()) == list(range(8))  # the 8 chain-closest


def test_prune_theta_zero_matches_cosine_sort_oracle():
    rng = np.random.default_rng(6)
    n = 30
    edges = [(i, 0, (i + 1) % n, 1.0) for i in range(n)]
    sg = make_sg(list(range(n)), [0, 1] + [2] * (n - 2), sym(edges), q_nodes={0}, v_nodes={1})
    s_cos = rng.standard_normal(n)
    s_bfs = bfs_scores(sg)
    pg = prune_from_scores(sg, s_cos, s_bfs, 0.0, 10)
    keys = {0, 1}
    order = sorted(range(n), key=lambda i: (-s_cos[i], -s_bfs[i], i))
    expected = [i for i in order if i in keys] + [i for i in order if i not in keys]
    expected = sorted(keys) + [i for i in order if i not in keys][: 10 - len(keys)]
    assert set(pg.base.nodes.tolist()) == set(expected)
    # survivor ORDER is by descending blended score regardless of key status
    blended = {int(e): c for e, c in zip(pg.base.nodes, pg.s_prune)}
    assert list(pg.base.nodes) == sorted(
        pg.base.nodes, key=lambda e: (-blended[int(e)], -s_bfs[int(e)], e)
    )


def reference_prune_selection(sg, s_cos, s_bfs, theta_p, target):
    """Row indices the selection loop first written for ``prune_from_scores``
    picks, and the types its ``restricted_to`` dict lookup gave them."""
    keys = sg.key_ids()
    s_prune = theta_p * s_bfs + (1.0 - theta_p) * s_cos
    order = np.lexsort((sg.nodes, -s_bfs, -s_prune))

    n_total = min(target, sg.n_nodes)
    non_key_quota = n_total - len(keys)
    picked = []
    for i in order:
        eid = int(sg.nodes[i])
        if eid in keys:
            picked.append(i)
        elif non_key_quota > 0:
            picked.append(i)
            non_key_quota -= 1
        if len(picked) == n_total:
            break
    idx = np.array(picked, dtype=np.int64)
    type_of = {int(n): int(t) for n, t in zip(sg.nodes, sg.types)}
    types = np.array([type_of[int(k)] for k in sg.nodes[idx]], dtype=np.int8)
    return idx, types


def test_prune_selection_matches_reference_loop():
    rng = np.random.default_rng(17)
    cases = 0
    for trial in range(150):
        sg = random_local_graph(rng, max_nodes=14, max_edges=30)
        n = sg.n_nodes
        # coarse scores make ties in s_prune and s_bfs common
        s_cos = rng.integers(-2, 3, size=n) / 2.0
        s_bfs = bfs_scores(sg)
        if trial % 3 == 0:  # keys ranked last
            rows = [sg.nodes.tolist().index(k) for k in sg.key_ids()]
            s_cos[rows] = -10.0
            s_bfs = s_bfs.copy()
            s_bfs[rows] = 0.0
        n_keys = len(sg.key_ids())
        for target in sorted({n_keys, n_keys + 1, (n + n_keys) // 2, n, n + 3}):
            for theta in (0.0, 0.3, 1.0):
                pg = prune_from_scores(sg, s_cos, s_bfs, theta, target)
                idx, types = reference_prune_selection(sg, s_cos, s_bfs, theta, target)
                assert np.array_equal(pg.base.nodes, sg.nodes[idx])
                assert pg.base.types.dtype == types.dtype
                assert np.array_equal(pg.base.types, types)
                s_prune = theta * s_bfs + (1.0 - theta) * s_cos
                assert np.array_equal(pg.s_prune, s_prune[idx])
                assert np.array_equal(pg.s_cos, s_cos[idx])
                assert np.array_equal(pg.s_bfs, s_bfs[idx])
                cases += 1
    assert cases > 1000


def test_prune_keeps_key_nodes():
    n = 15
    edges = sym([(i, 0, i + 1, 1.0) for i in range(n - 1)])
    sg = make_sg(list(range(n)), [0] + [2] * (n - 2) + [1], edges, q_nodes={0}, v_nodes={n - 1})
    s_cos = np.linspace(1, 0, n)
    s_cos[0] = -1.0  # key scores terribly
    s_cos[-1] = -1.0
    pg = prune_from_scores(sg, s_cos, bfs_scores(sg), 0.0, 5)
    assert {0, n - 1} <= set(pg.base.nodes.tolist())
    assert len(pg.base.nodes) == 5


def test_prune_target_too_small_rejected():
    sg = make_sg([0, 1, 2], [0, 1, 2], sym([(0, 0, 1, 1.0), (1, 0, 2, 1.0)]), q_nodes={0}, v_nodes={1})
    with pytest.raises(ValueError, match="key nodes"):
        prune_from_scores(sg, np.zeros(3), bfs_scores(sg), 0.5, 1)


def test_prune_score_range():
    rng = np.random.default_rng(9)
    for theta in (0.0, 0.3, 1.0):
        s_cos = rng.uniform(-1, 1, 40)
        s_bfs = rng.uniform(0, 1, 40)
        s = theta * s_bfs + (1 - theta) * s_cos
        assert s.min() >= -(1 - theta) - 1e-12
        assert s.max() <= 1 + 1e-12


def test_prune_argsort_invariant_to_node_shuffle(tmp_path):
    rng = np.random.default_rng(33)
    g, _ = random_graph(tmp_path, rng, n_entities=40, n_edges=160)
    keys = KeyNodeSet(q_nodes=frozenset({1}), v_nodes=frozenset({2}))
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.0, seed=3)
    emb, ctx, tf = providers(6, 5, g.n_entities, seed=4)
    orders = []
    for seed in (100, 200, 300):  # same graph, different node shuffles
        sg = build_schema(g, keys, budget=25, seed=seed)
        sample = QuerySample.build(model, sg, ctx, (), emb, tf)
        pg = prune(model, sample, theta_p=0.3, target=10)[0]
        orders.append(pg.base.nodes.tolist())
    assert orders[0] == orders[1] == orders[2]


# -- reference: the per-pair triplet loop -------------------------------------
# Verbatim copies of the per-vector helpers and of the loop that
# ``triplet_terms`` ran before it became one array pass.


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0 when either vector is numerically zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


def cosine_grad_b(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d cos(a, b) / d b with a held fixed (zero where cosine is clamped)."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return np.zeros_like(b)
    c = float(a @ b / (na * nb))
    return a / (na * nb) - c * b / (nb * nb)


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 0.5,
) -> float:
    """max(0, d(a,p) - d(a,n) + margin) with d = 1 - cosine."""
    d_pos = 1.0 - cosine(anchor, positive)
    d_neg = 1.0 - cosine(anchor, negative)
    return max(0.0, d_pos - d_neg + margin)


def triplet_loss_backward(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 0.5,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, dL/dpositive, dL/dnegative); gradients vanish when inactive."""
    loss = triplet_loss(anchor, positive, negative, margin)
    if loss <= 0.0:
        return 0.0, np.zeros_like(positive), np.zeros_like(negative)
    # loss = cos(a, n) - cos(a, p) + margin on the active branch
    return loss, -cosine_grad_b(anchor, positive), cosine_grad_b(anchor, negative)


def mine_semi_hard(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives,
    margin: float = 0.5,
) -> int:
    """Pick a semi-hard negative: d(a,p) < d(a,n) < d(a,p) + margin.

    Among qualifiers the closest negative wins; with no qualifier the hardest
    negative (smallest d(a,n)) is returned instead. Ties resolve to the lowest
    index.
    """
    negatives = np.asarray(negatives, dtype=np.float64)
    if negatives.ndim != 2 or negatives.shape[0] == 0:
        raise ValueError("negatives must be a non-empty matrix of row vectors")
    d_pos = 1.0 - cosine(anchor, positive)
    d_neg = 1.0 - cosine_rows(np.asarray(anchor, dtype=np.float64), negatives)
    in_band = (d_neg > d_pos) & (d_neg < d_pos + margin)
    if in_band.any():
        masked = np.where(in_band, d_neg, np.inf)
        return int(np.argmin(masked))
    return int(np.argmin(d_neg))


def reference_triplet_terms(
    z: np.ndarray,
    h: np.ndarray,
    gt_pos: np.ndarray,
    neg_pos: np.ndarray,
    margin: float = 0.5,
    semi_hard: bool = True,
) -> tuple[float, int, np.ndarray]:
    """Triplet loss terms for one query's encodings.

    Returns (summed loss, term count, unscaled dL/dh). Semi-hard mode mines
    one negative per ground-truth positive; otherwise every (positive,
    negative) pair contributes, reproducing the all-triplets ablation.
    """
    dh = np.zeros_like(h)
    total = 0.0
    count = 0
    if gt_pos.size == 0 or neg_pos.size == 0:
        return total, count, dh
    negatives = h[neg_pos]
    for p in gt_pos:
        positive = h[p]
        if semi_hard:
            j = mine_semi_hard(z, positive, negatives, margin)
            loss, d_pos, d_neg = triplet_loss_backward(z, positive, negatives[j], margin)
            total += loss
            count += 1
            dh[p] += d_pos
            dh[neg_pos[j]] += d_neg
        else:
            for j in range(neg_pos.size):
                loss, d_pos, d_neg = triplet_loss_backward(
                    z, positive, negatives[j], margin
                )
                total += loss
                count += 1
                dh[p] += d_pos
                dh[neg_pos[j]] += d_neg
    return total, count, dh


def assert_matches_reference(z, h, gt_pos, neg_pos, margin=0.5, semi_hard=True):
    """Equal term counts; loss and dh within rtol 1e-12. A dh component
    whose two cosine-gradient parts cancel is held to 1e-12 of the largest."""
    loss, count, dh = triplet_terms(z, h, gt_pos, neg_pos, margin, semi_hard)
    ref_loss, ref_count, ref_dh = reference_triplet_terms(z, h, gt_pos, neg_pos, margin, semi_hard)
    assert count == ref_count
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(dh, ref_dh, rtol=1e-12, atol=1e-12 * np.abs(ref_dh).max())
    return loss, count, dh


def test_triplet_terms_match_all_pairs_oracle():
    # 10-node graph: both modes equal the reference loop
    rng = np.random.default_rng(44)
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.0, seed=5)
    emb, ctx, tf = providers(5, 4, 10, seed=6)
    sg = make_sg(list(range(10)), [0] * 2 + [2] * 8, [], q_nodes={0, 1})
    x = node_inputs(model, sg, ctx, emb, tf)
    h, _ = model.f_n.forward(x, train=False)
    gt_pos = np.array([3, 7])
    neg_pos = np.array([i for i in range(10) if i not in (3, 7)])
    _, count, _ = assert_matches_reference(ctx.z, h, gt_pos, neg_pos, 0.5, semi_hard=True)
    assert count == 2
    # all-triplets mode sums every pair
    _, count_all, _ = assert_matches_reference(ctx.z, h, gt_pos, neg_pos, 0.5, semi_hard=False)
    assert count_all == 16


def test_triplet_terms_match_reference_on_random_instances():
    # 300 instances, each in both modes: 1-3 positives among 2-40 rows, some
    # with a zero row, a zero anchor, a row repeated (a distance tie) or a
    # wide margin
    rng = np.random.default_rng(45)
    for i in range(300):
        n, d = int(rng.integers(2, 41)), int(rng.integers(2, 9))
        h = rng.standard_normal((n, d))
        z = rng.standard_normal(d)
        if i % 5 == 0:
            h[rng.integers(n)] = 0.0
        if i % 7 == 0:
            h[rng.integers(n)] = h[rng.integers(n)]
        if i % 31 == 0:
            z[:] = 0.0
        order = rng.permutation(n)
        n_gt = int(rng.integers(1, min(3, n - 1) + 1))
        gt_pos, neg_pos = np.sort(order[:n_gt]), np.sort(order[n_gt:])
        margin = 1.5 if i % 3 == 0 else 0.5
        for semi_hard in (True, False):
            assert_matches_reference(z, h, gt_pos, neg_pos, margin, semi_hard)


def test_triplet_terms_zero_norm_row_has_zero_gradient():
    # row 1, a zero negative, scores cosine 0 (distance 1): with the
    # positive at distance 0.6 it is in the band and mined, its pair is
    # active, and only the positive moves
    z = np.array([1.0, 0.0])
    h = np.array([[0.4, 0.8], [0.0, 0.0], [-1.0, 0.0]])
    for semi_hard in (True, False):
        loss, count, dh = triplet_terms(z, h, np.array([0]), np.array([1, 2]), 0.5, semi_hard)
        cos_p = 0.4 / np.hypot(0.4, 0.8)
        assert loss == pytest.approx(0.0 - cos_p + 0.5, abs=1e-12)
        assert count == (1 if semi_hard else 2)
        assert np.all(dh[1:] == 0.0) and np.any(dh[0] != 0.0)
        assert_matches_reference(z, h, np.array([0]), np.array([1, 2]), 0.5, semi_hard)


def test_triplet_terms_zero_anchor_has_zero_gradient():
    # every cosine is clamped to 0: each term is the margin, with no gradient
    rng = np.random.default_rng(46)
    h = rng.standard_normal((6, 4))
    for semi_hard, terms in ((True, 2), (False, 8)):
        loss, count, dh = triplet_terms(np.zeros(4), h, np.array([0, 3]),
                                        np.array([1, 2, 4, 5]), 0.5, semi_hard)
        assert count == terms
        assert loss == pytest.approx(0.5 * terms, abs=1e-12)
        assert np.all(dh == 0.0)


def test_triplet_terms_all_chosen_negatives_inactive():
    # both positives sit on the anchor and every negative is beyond the
    # margin: the mined pairs are counted but add no loss and no gradient
    z = np.array([1.0, 0.0, 0.0])
    h = np.array([[2.0, 0.0, 0.0], [-1.0, 0.1, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.3]])
    for semi_hard, terms in ((True, 2), (False, 4)):
        loss, count, dh = triplet_terms(z, h, np.array([0, 2]), np.array([1, 3]), 0.5, semi_hard)
        assert (loss, count) == (0.0, terms)
        assert np.all(dh == 0.0)


def test_anchor_equals_positive_gives_zero_loss_and_grads():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=7)
    emb, ctx, tf = providers(4, 3, 6, seed=8)
    sg = make_sg([0, 1, 2], [0, 2, 2], sym([(0, 0, 1, 1.0), (1, 0, 2, 1.0)]), q_nodes={0})
    sample = QuerySample.build(model, sg, ctx, [1], emb, tf)
    # force the positive's encoding to equal the anchor and the negatives far away
    h, _ = model.f_n.forward(sample.x, train=False)
    h_fixed = h.copy()
    h_fixed[sample.gt_pos[0]] = ctx.z
    for i in sample.neg_pos:
        h_fixed[i] = -ctx.z  # distance 2 > margin band
    loss_sum, count, dh = triplet_terms(ctx.z, h_fixed, sample.gt_pos, sample.neg_pos, 0.5)
    assert loss_sum == 0.0 and count == 1
    assert np.all(dh == 0.0)


def test_train_prune_step_skips_gt_absent_samples():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=9)
    emb, ctx, tf = providers(4, 3, 8, seed=10)
    sg = make_sg([0, 1, 2], [0, 2, 2], sym([(0, 0, 1, 1.0), (1, 0, 2, 1.0)]), q_nodes={0})
    with_gt = QuerySample.build(model, sg, ctx, [2], emb, tf)
    without_gt = QuerySample.build(model, sg, ctx, [7], emb, tf)
    loss, skipped = train_prune_step(model, [with_gt, without_gt], Adam(lr=1e-3))
    assert skipped == 1
    assert np.isfinite(loss)
    with pytest.raises(ValueError, match="ground-truth"):
        train_prune_step(model, [without_gt], Adam(lr=1e-3))


def test_sample_gt_positions_match_membership_loop():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=13)
    emb, ctx, tf = providers(4, 3, 12, seed=14)
    nodes = [4, 0, 7, 2, 9]
    sg = make_sg(nodes, [0, 2, 2, 3, 3], sym([(4, 0, 0, 1.0), (0, 0, 7, 1.0), (7, 0, 9, 1.0)]),
                 q_nodes={4})
    # empty, outside the graph, every node, and a mix with repeats
    for gt in ([], [11], [1, 3, 5], nodes, [9, 9, 6, 2]):
        sample = QuerySample.build(model, sg, ctx, gt, emb, tf)
        gt_set = frozenset(gt)
        is_gt = np.array([int(e) in gt_set for e in sg.nodes], dtype=bool)  # the former loop
        for got, want in ((sample.gt_pos, np.flatnonzero(is_gt)),
                          (sample.neg_pos, np.flatnonzero(~is_gt))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_train_prune_step_learns_direction():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.0, seed=11)
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((12, 5))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    emb = EntityEmbeddingTable(matrix)
    tf = TextFeatureProvider(dim=6, mode="zero")
    z = rng.standard_normal(6)
    z /= np.linalg.norm(z)
    ctx = QueryContext(qid="q", z=z, v=z, t=z)
    sg = make_sg(list(range(12)), [0] + [2] * 11,
                 sym([(0, 0, i, 1.0) for i in range(1, 12)]), q_nodes={0})
    sample = QuerySample.build(model, sg, ctx, [5], emb, tf)
    opt = Adam(lr=1e-2)
    losses = [train_prune_step(model, [sample], opt)[0] for _ in range(60)]
    h, _ = model.f_n.forward(sample.x, train=False)
    s_cos = cosine_rows(z, h)
    assert int(np.argmax(s_cos)) == 5  # the gt node ranks first after training


def test_node_recall_and_rank_by_score():
    ids = np.array([10, 20, 30, 40])
    scores = np.array([0.1, 0.9, 0.9, 0.5])
    assert rank_by_score(ids, scores).tolist() == [20, 30, 40, 10]  # tie -> lower id
    ranked = rank_by_score(ids, scores)
    assert recall_rates([gt_rank(ranked, {20})], [1]) == {1: 1.0}
    assert recall_rates([gt_rank(ranked, {10})], [3]) == {3: 0.0}
    assert recall_rates([gt_rank(ranked, {10})], [4]) == {4: 1.0}
    with pytest.raises(ValueError):
        recall_rates([gt_rank(ranked, {10})], [0])


def test_node_recall_matches_full_sort_oracle():
    rng = np.random.default_rng(50)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        ids = rng.choice(1000, size=n, replace=False)
        scores = np.round(rng.standard_normal(n), 2)  # provoke ties
        gt = set(int(i) for i in rng.choice(ids, size=min(3, n), replace=False))
        k = int(rng.integers(1, n + 1))
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
        expected = any(int(ids[i]) in gt for i in order[:k])
        # node_recall_rate's route: rank only the top-k prefix
        rank = gt_rank(rank_by_score(ids, scores)[:k], gt)
        assert recall_rates([rank], [k])[k] == float(expected)


def test_prepared_sample_keeps_only_its_text_feature_rows():
    """A prepared question holds no encoder-width array: its float input rows
    total n_nodes x d (the text features), while ``x`` still reads at full
    width, [z || e_i || p_i || u_i]."""
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=0)
    emb, ctx, tf = providers(4, 3, 12, seed=1)
    nodes = [4, 0, 7, 2, 9, 11]
    sg = make_sg(nodes, [0, 1, 2, 3, 2, 2], sym([(4, 0, 0, 1.0), (0, 0, 7, 1.0)]),
                 q_nodes={4}, v_nodes={0})
    sample = QuerySample.build(model, sg, ctx, [7], emb, tf)
    arrays = [v for v in vars(sample).values() if isinstance(v, np.ndarray)]
    assert all(a.shape[-1] != model.node_input_dim for a in arrays)
    rows = [a for a in arrays if a.ndim == 2 and a.dtype.kind == "f"]
    assert sum(a.size for a in rows) <= sg.n_nodes * model.d
    assert sample.emb is emb  # a reference to the shared table, not a copy of rows
    assert sample.x.shape == (sg.n_nodes, 2 * model.d + model.D + 4)
