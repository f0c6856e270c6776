import numpy as np
import pytest

from kgpath.embeddings import EntityEmbeddingTable, QueryContext, TextFeatureProvider
from kgpath.neural import Adam, ScoringModel, bce_loss, cosine_rows
from kgpath.paths import (
    InferencePath,
    PathBatch,
    _forward_paths,
    aggregate_answers,
    mix_seed,
    ranked_paths,
    run_query,
    sample_paths,
    staged_training,
    train_joint_step,
)
from kgpath.pruning import PrunedGraph, QuerySample, prune_from_scores

from test_pruning import make_sg, providers, sym


def forward(model, paths, vectors, ctx):
    """Eval-mode (scores, h_p) of ``paths`` over node vectors keyed by entity id."""
    ids = sorted(vectors)
    h = np.stack([vectors[i] for i in ids])
    positions = {eid: i for i, eid in enumerate(ids)}
    scores, h_p, _ = _forward_paths(model, paths, h, positions, ctx)
    return scores, h_p


def as_pruned(sg):
    n = sg.n_nodes
    return PrunedGraph(base=sg, s_cos=np.zeros(n), s_bfs=np.zeros(n), s_prune=np.zeros(n))


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
    assert batch.paths
    edge_set = {
        (int(h), int(r), int(t))
        for h, r, t in zip(pg.base.edges_head, pg.base.edges_rel, pg.base.edges_tail)
    }
    for p in batch.paths:
        assert p.nodes[0] == 0  # rooted at the only key
        assert len(set(p.nodes)) == len(p.nodes)  # simple
        assert 1 <= p.length <= 3
        for a, r, b in zip(p.nodes, p.relations, p.nodes[1:]):
            assert (a, r, b) in edge_set


def test_single_edge_graph_exhausts_to_one_path():
    sg = make_sg([5, 9], [0, 2], sym([(5, 0, 9, 1.0)]), q_nodes={5})
    batch = sample_paths(as_pruned(sg), n_paths=200, k=3, seed=0)
    # the reversal roots at the non-key node, so one distinct path exists
    assert [(p.nodes, p.relations) for p in batch.paths] == [((5, 9), (0,))]


def test_zero_edge_graph_yields_empty_batch():
    sg = make_sg([1, 2], [0, 2], [], q_nodes={1})
    assert sample_paths(as_pruned(sg), n_paths=10, k=3, seed=0).paths == []


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
            got = {(p.nodes, p.relations) for p in batch.paths}
            assert got <= universe
            assert len(got) == len(batch.paths)  # dedup held


def test_sampling_deterministic_per_seed():
    pg = triangle_pg()
    a = sample_paths(pg, n_paths=30, k=3, seed=9)
    b = sample_paths(pg, n_paths=30, k=3, seed=9)
    c = sample_paths(pg, n_paths=30, k=3, seed=10)
    assert [(p.nodes, p.relations) for p in a.paths] == [(p.nodes, p.relations) for p in b.paths]
    assert [(p.nodes, p.relations) for p in a.paths] != [(p.nodes, p.relations) for p in c.paths]


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
        scores.append(_forward_paths(model, batch.paths, h, s.sg.positions(), s.ctx)[0])
        labels += [p.terminal in s.gt for p in batch.paths]
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
    path = InferencePath(nodes=(7, 8), relations=(0,))
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
    path = InferencePath(nodes=(0, 1, 2, 3), relations=(0, 0, 0))
    with pytest.raises(ValueError, match="exceeds"):
        forward(model, [path], vectors, ctx)


def test_identical_paths_same_encoding_order_sensitivity():
    model = ScoringModel(d=5, D=3, k=3, dropout_rate=0.0, seed=3)
    rng = np.random.default_rng(4)
    vectors = {i: rng.standard_normal(5) for i in range(4)}
    z = rng.standard_normal(5)
    ctx = QueryContext(qid="q", z=z, v=rng.standard_normal(5), t=rng.standard_normal(5))
    p1 = InferencePath(nodes=(0, 1, 2), relations=(0, 1))
    p1_again = InferencePath(nodes=(0, 1, 2), relations=(0, 1))
    p_swapped = InferencePath(nodes=(0, 2, 1), relations=(0, 1))
    _, (e1, e1_again, e_swapped) = forward(model, [p1, p1_again, p_swapped], vectors, ctx)
    assert np.array_equal(e1, e1_again)
    assert not np.allclose(e1, e_swapped)


def test_score_paths_empty_and_duplicates():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=5)
    # a graph without edges yields no path, and run_query scores none
    emb, ctx, tf = providers(4, 3, 3, seed=5)
    sg = make_sg([0, 1], [0, 2], [], q_nodes={0})
    sample = QuerySample.build(model, sg, ctx, [1], emb, tf)
    assert run_query(model, sample, target=2, n_paths=10, seed=0)[1].paths == []
    rng = np.random.default_rng(6)
    vectors = {i: rng.standard_normal(4) for i in range(3)}
    dup = InferencePath(nodes=(0, 1), relations=(2,))
    scores, _ = forward(model, [dup, InferencePath(nodes=(0, 2), relations=(0,)), dup], vectors, ctx)
    assert scores[0] == scores[2]


def test_argmax_invariant_to_bias_shift():
    model = ScoringModel(d=4, D=3, k=3, dropout_rate=0.0, seed=7)
    rng = np.random.default_rng(8)
    vectors = {i: rng.standard_normal(4) for i in range(5)}
    ctx = QueryContext(qid="q", z=rng.standard_normal(4), v=np.ones(4), t=np.ones(4))
    paths = [InferencePath(nodes=(0, i), relations=(0,)) for i in range(1, 5)]
    s1, _ = forward(model, paths, vectors, ctx)
    model.f_bi.b[0] += 3.7
    s2, _ = forward(model, paths, vectors, ctx)
    assert np.argmax(s1) == np.argmax(s2)
    assert np.allclose(np.diff(s1), np.diff(s2))


def test_aggregate_answers_max_rule():
    batch = PathBatch(
        qid="q",
        paths=[
            InferencePath(nodes=(0, 1), relations=(0,), score=0.9),
            InferencePath(nodes=(0, 2, 1), relations=(0, 1), score=0.2),
            InferencePath(nodes=(0, 2), relations=(1,), score=0.5),
        ],
    )
    assert aggregate_answers(batch) == [(1, 0.9), (2, 0.5)]
    assert aggregate_answers(PathBatch(qid="q")) == []


def test_aggregate_matches_group_by_max_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        paths = []
        for _ in range(int(rng.integers(1, 60))):
            terminal = int(rng.integers(8))
            paths.append(
                InferencePath(nodes=(99, terminal), relations=(0,), score=float(np.round(rng.standard_normal(), 3)))
            )
        batch = PathBatch(qid="q", paths=paths)
        best = {}
        for p in paths:
            best[p.terminal] = max(best.get(p.terminal, -np.inf), p.score)
        expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        assert aggregate_answers(batch) == expected


def make_samples(model, n_queries=3, n_nodes=10, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_nodes, model.D))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    emb = EntityEmbeddingTable(matrix)
    tf = TextFeatureProvider(dim=model.d, mode="hash", seed=seed)
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
    assert len(pg.survivors) == 5
    assert s_cos.shape == (sample.sg.n_nodes,)
    surv = set(int(e) for e in pg.survivors)
    for p in batch.paths:
        assert set(p.nodes) <= surv
        assert p.score is not None
    rp = ranked_paths(batch)
    assert all(rp[i].score >= rp[i + 1].score for i in range(len(rp) - 1))


def test_mix_seed_stable():
    assert mix_seed("a", 1) == mix_seed("a", 1)
    assert mix_seed("a", 1) != mix_seed("a", 2)
    assert 0 <= mix_seed("x") < 2**63
