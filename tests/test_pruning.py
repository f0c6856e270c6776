import numpy as np
import pytest

from kgpath.embeddings import EntityEmbeddingTable, QueryContext, TextFeatureProvider
from kgpath.kg import load_graph
from kgpath.linking import KeyNodeSet
from kgpath.metrics import recall_at_k
from kgpath.neural import Adam, ScoringModel, cosine, cosine_rows, mine_semi_hard, triplet_loss
from kgpath.pruning import (
    QuerySample,
    bfs_scores,
    node_input_matrix,
    prune,
    prune_from_scores,
    rank_by_score,
    train_prune_step,
    triplet_terms,
)
from kgpath.schema import SchemaGraph, build_schema

from conftest import random_graph, write_edges, write_relations


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


def encode(model, sg, ctx, emb, tf):
    """Eval-mode node encodings, the way QuerySample.build and run_query get them."""
    h, _ = model.f_n.forward(node_input_matrix(model, sg, ctx, emb, tf), train=False)
    return h


def providers(dim_d, dim_D, n_entities, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_entities, dim_D))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    emb = EntityEmbeddingTable(matrix)
    z = rng.standard_normal(dim_d)
    z /= np.linalg.norm(z)
    ctx = QueryContext(qid="q", z=z, v=z.copy(), t=z.copy())
    tf = TextFeatureProvider(dim=dim_d, mode="hash", seed=seed)
    return emb, ctx, tf


def test_encode_dimension_bookkeeping():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=0)
    assert model.node_input_dim == 4 + 3 + 4 + 4 == 15
    emb, ctx, tf = providers(4, 3, 10)
    sg = make_sg([0, 1, 2], [0, 1, 2], sym([(0, 1, 1, 1.0)]), q_nodes={0}, v_nodes={1})
    x = node_input_matrix(model, sg, ctx, emb, tf)
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


def test_prune_score_arithmetic():
    sg = make_sg([0, 1], [0, 2], sym([(0, 0, 1, 1.0)]), q_nodes={0})
    pg = prune_from_scores(sg, np.array([0.1, 0.5]), np.array([1.0, 1.0]), 0.3, 2)
    assert pg.s_prune[0] == pytest.approx(0.3 * 1.0 + 0.7 * 0.5)  # node 1 ranks first
    assert pg.survivors.tolist() == [1, 0]


def test_prune_theta_one_is_bfs_closest():
    rng = np.random.default_rng(5)
    n = 20
    edges = [(i, 0, i + 1, 1.0) for i in range(n - 1)]
    sg = make_sg(list(range(n)), [0] + [2] * (n - 1), sym(edges), q_nodes={0})
    s_cos = rng.standard_normal(n)  # irrelevant at theta 1
    pg = prune_from_scores(sg, s_cos, bfs_scores(sg), 1.0, 8)
    assert sorted(pg.survivors.tolist()) == list(range(8))  # the 8 chain-closest


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
    assert set(pg.survivors.tolist()) == set(expected)
    # survivor ORDER is by descending blended score regardless of key status
    blended = {int(e): c for e, c in zip(pg.survivors, pg.s_prune)}
    assert list(pg.survivors) == sorted(
        pg.survivors, key=lambda e: (-blended[int(e)], -s_bfs[int(e)], e)
    )


def test_prune_keeps_key_nodes():
    n = 15
    edges = sym([(i, 0, i + 1, 1.0) for i in range(n - 1)])
    sg = make_sg(list(range(n)), [0] + [2] * (n - 2) + [1], edges, q_nodes={0}, v_nodes={n - 1})
    s_cos = np.linspace(1, 0, n)
    s_cos[0] = -1.0  # key scores terribly
    s_cos[-1] = -1.0
    pg = prune_from_scores(sg, s_cos, bfs_scores(sg), 0.0, 5)
    assert {0, n - 1} <= set(pg.survivors.tolist())
    assert len(pg.survivors) == 5


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
        pg = prune(model, sg, ctx, emb, tf, theta_p=0.3, target=10)
        orders.append(pg.survivors.tolist())
    assert orders[0] == orders[1] == orders[2]


def test_triplet_terms_match_all_pairs_oracle():
    # 10-node graph: loss under semi-hard mining equals the brute-force scan
    rng = np.random.default_rng(44)
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.0, seed=5)
    emb, ctx, tf = providers(5, 4, 10, seed=6)
    sg = make_sg(list(range(10)), [0] * 2 + [2] * 8, [], q_nodes={0, 1})
    x = node_input_matrix(model, sg, ctx, emb, tf)
    h, _ = model.f_n.forward(x, train=False)
    gt_pos = np.array([3, 7])
    neg_pos = np.array([i for i in range(10) if i not in (3, 7)])
    loss_sum, count, _ = triplet_terms(ctx.z, h, gt_pos, neg_pos, margin=0.5, semi_hard=True)
    expected = 0.0
    for p in gt_pos:
        j = mine_semi_hard(ctx.z, h[p], h[neg_pos], 0.5)
        expected += triplet_loss(ctx.z, h[p], h[neg_pos][j], 0.5)
    assert loss_sum == pytest.approx(expected, abs=1e-12)
    assert count == 2
    # all-triplets mode sums every pair
    loss_all, count_all, _ = triplet_terms(ctx.z, h, gt_pos, neg_pos, 0.5, semi_hard=False)
    expected_all = sum(
        triplet_loss(ctx.z, h[p], h[j], 0.5) for p in gt_pos for j in neg_pos
    )
    assert loss_all == pytest.approx(expected_all, abs=1e-12)
    assert count_all == 16


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
    assert recall_at_k(ranked, {20}, 1)
    assert not recall_at_k(ranked, {10}, 3)
    assert recall_at_k(ranked, {10}, 4)
    with pytest.raises(ValueError):
        recall_at_k(ranked, {10}, 0)


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
        assert recall_at_k(rank_by_score(ids, scores), gt, k) == expected
