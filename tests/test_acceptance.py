"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The toy-convergence and
pruning-contract criteria share two full staged training runs over the planted
suite (the second run exists to check bit-for-bit reproducibility), so this
module takes several minutes end to end.
"""

import dataclasses
import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kgpath.config import load_config
from kgpath.embeddings import QueryContext
from kgpath.kg import load_graph
from kgpath.linking import ground_truth_ids
from kgpath.metrics import (
    annotation_scores,
    gt_rank,
    hit_rate_curve,
    recall_rates,
    vqa_score,
)
from kgpath.neural import Adam, ScoringModel, bce_loss_backward, cosine_rows
from kgpath.paths import (
    _backward_paths,
    _forward_paths,
    aggregate_answers,
    mix_seed,
    sample_paths,
    staged_training,
)
from kgpath.pipeline import evaluate_queries, load_runtime, prepare_samples, schema_for_record
from kgpath.pruning import (
    QuerySample,
    prune,
    prune_from_scores,
    triplet_terms,
)
from kgpath.schema import SchemaGraph, _rank_candidates, gt_provenance
from kgpath.synth import SuiteSpec, generate_suite

from conftest import random_graph, rank_by_score
from test_neural import _oracle_semi_hard, check_mining
from test_path_ranker import as_pruned, pack, sigs, simple_walks
from test_pruning import distinct, make_sg, sym
from test_schema_graph import brute_force_rank

# Desk-scale settings for the planted toy suite. The criterion pins the suite
# shape (1000 entities, 5000 edges, 200/50 queries, alignment 0.9) and the
# 40+30 schedule; width, batch size, and learning rate are scaled for the toy
# (the schedule is run "scaled": d=64, per-query batches, lr 2e-3).
TOY_SPEC = SuiteSpec(
    seed=7, n_entities=1000, n_edges=5000, n_queries=250, alignment=0.9, dim=64
)
TOY_OVERRIDES = {"batch_size": "1", "lr": "2e-3"}
RUN_BUDGET_SECONDS = 600


def report(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


@pytest.fixture(scope="module")
def toy_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_suite")
    generate_suite(out, TOY_SPEC)
    return out


@pytest.fixture(scope="module")
def toy_runtime(toy_suite):
    cfg = load_config(toy_suite / "suite.config", dict(TOY_OVERRIDES))
    return load_runtime(cfg)


def run_staged_once(rt):
    cfg = rt.cfg
    model = ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
    samples, _ = prepare_samples(rt, model, rt.train_records())
    t0 = time.time()
    metrics = staged_training(
        model,
        samples,
        epochs_prune=cfg.epochs_prune,
        epochs_joint=cfg.epochs_joint,
        lr=cfg.lr,
        batch_size=cfg.batch_size,
        theta_p=cfg.theta_p,
        target=cfg.prune_target,
        n_paths=cfg.n_paths,
        k=cfg.k,
        margin=cfg.margin,
        semi_hard=cfg.semi_hard,
        seed=cfg.seed,
        optimizer=cfg.optimizer,
        progress=False,
    )
    return model, samples, metrics, time.time() - t0


@pytest.fixture(scope="module")
def staged_runs(toy_runtime):
    first = run_staged_once(toy_runtime)
    second = run_staged_once(toy_runtime)
    return first, second


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def _joint_instance(seed):
    """A 3-node / 2-path joint-objective instance: model, node inputs, closures.

    The loss closure returns ``(loss, pattern)``, where ``pattern`` is the ReLU
    activation pattern of the f_n, f_t and f_p hidden layers in that forward
    pass; ``_fd_check`` uses it to find probes that cross a kink.
    """
    rng = np.random.default_rng(seed)
    d, D, k = 4, 3, 3
    model = ScoringModel(d, D, k, dropout_rate=0.0, seed=seed)
    x = rng.standard_normal((3, model.node_input_dim))
    z = rng.standard_normal(d)
    z /= np.linalg.norm(z)
    ctx = QueryContext(qid="g", z=z, v=rng.standard_normal(d), t=rng.standard_normal(d))
    # rows 0, 1, 2 of h belong to entities 10, 11, 12
    paths = pack([((10, 11), (0,)), ((10, 12, 11), (1, 2))], k)
    labels = np.array([1.0, 0.0])
    gt_pos = np.array([1])
    neg_pos = np.array([0, 2])

    def loss():
        h, cache_n = model.f_n.forward(x, train=False)
        scores, _, path_cache = _forward_paths(model, paths, h, ctx, train=False)
        l_cls, _ = bce_loss_backward(scores, labels)
        t_sum, t_cnt, _ = triplet_terms(z, h, gt_pos, neg_pos, 0.5, semi_hard=True)
        cache_t, cache_p, _ = path_cache
        # ReLU pattern: the `pre > 0` mask cached by each hidden DenseLayer
        pattern = tuple(cache[0][1] for cache in (cache_n, cache_t, cache_p))
        return l_cls + t_sum / max(t_cnt, 1), pattern

    def analytic():
        model.zero_grad()
        h, cache_n = model.f_n.forward(x, train=False)
        scores, _, path_cache = _forward_paths(model, paths, h, ctx, train=False)
        _, dscores = bce_loss_backward(scores, labels)
        t_sum, t_cnt, dh_t = triplet_terms(z, h, gt_pos, neg_pos, 0.5, semi_hard=True)
        dh = np.zeros_like(h)
        _backward_paths(model, paths, dscores, path_cache, dh)
        dh += dh_t / max(t_cnt, 1)
        model.f_n.backward(dh, cache_n)
        return {name: g.copy() for name, _, g in model.parameters()}

    return model, x, loss, analytic


def _fd_check(loss, params_and_grads, h=1e-5, tol=1e-4):
    """Compare analytic gradients with central differences, skipping ReLU kinks.

    ``loss()`` returns ``(value, pattern)``; ``pattern`` is a tuple of boolean
    arrays, the ReLU activation pattern (``pre > 0`` of every hidden layer) of
    the forward pass that produced ``value`` (empty for a loss without ReLUs).

    Kink rule: for each coordinate, the patterns of the +h and -h probes are
    compared with the pattern at the unperturbed point. A ReLU is piecewise
    linear, so while no unit changes state the loss is smooth along the probe
    and ``(up - down) / 2h`` matches the analytic gradient to O(h^2). A probe
    that switches a unit on or off instead measures the secant slope across
    the kink, a mix of the two one-sided slopes, while the analytic gradient
    is the slope of the linear piece the point itself lies on; the two
    disagree by O(1) however correct the backward pass is. Only coordinates
    whose probe changes a pattern are left out of the error norm; every other
    coordinate of each array enters the relative error
    ``|g - fd| / (|g| + |fd|)``, which must stay below ``tol``.

    Bound on the exemptions: no parameter array may be left out entirely
    (asserted here), and callers bound their total share; criterion 1 allows
    at most 1% of all probed coordinates.

    Returns ``(worst, skipped, n_probed)``: the worst relative error, the
    ``(array index, flat index)`` pairs left out, and the number of
    coordinates probed.
    """
    _, base = loss()

    def crosses_kink(pattern):
        return any(not np.array_equal(a, b) for a, b in zip(pattern, base))

    worst = 0.0
    skipped = []
    n_probed = 0
    for k, (arr, grad) in enumerate(params_and_grads):
        fd = np.zeros_like(arr)
        keep = np.ones(arr.size, dtype=bool)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, pattern_up = loss()
            flat[i] = orig - h
            down, pattern_down = loss()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
            if crosses_kink(pattern_up) or crosses_kink(pattern_down):
                keep[i] = False
                skipped.append((k, i))
        n_probed += flat.size
        assert keep.any(), f"every coordinate of array {k} crosses a ReLU kink"
        g, f = grad.reshape(-1)[keep], fd_flat[keep]
        denom = np.linalg.norm(g) + np.linalg.norm(f)
        err = 0.0 if denom == 0 else np.linalg.norm(g - f) / denom
        worst = max(worst, err)
        assert err < tol, f"finite-difference mismatch: {err:.2e}"
    return worst, skipped, n_probed


def _triplet_probe(z, h):
    """The loss closure for ``_fd_check`` of ``triplet_terms`` with row 0 of
    ``h`` the positive and the other rows negatives. Its pattern is (mined
    negative, active pair): a probe that switches either crosses a kink."""
    gt_pos, neg_pos = np.array([0]), np.arange(1, h.shape[0])

    def loss():
        t_sum, _, _ = triplet_terms(z, h, gt_pos, neg_pos, 0.5, semi_hard=True)
        mined = _oracle_semi_hard(z, h[0], h[1:], 0.5)
        return t_sum, (np.array([mined]), np.array([t_sum > 0.0]))

    return loss


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    worst = 0.0
    n_skipped = n_probed = 0

    def check(loss, pairs):
        nonlocal worst, n_skipped, n_probed
        err, skipped, probed = _fd_check(loss, pairs)
        worst = max(worst, err)
        n_skipped += len(skipped)
        n_probed += probed

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)

        # triplet loss on random vectors: h row 0 the positive, row 1 the negative
        a, p, n = rng.standard_normal((3, 5))
        h = np.stack([p, n])
        _, _, dh = triplet_terms(a, h, np.array([0]), np.array([1]), 0.5, True)
        check(_triplet_probe(a, h), [(h[0], dh[0]), (h[1], dh[1])])

        # binary cross-entropy on random logits
        s = rng.standard_normal(8)
        y = (rng.random(8) < 0.5).astype(float)
        _, ds = bce_loss_backward(s, y)
        check(lambda: (bce_loss_backward(s, y)[0], ()), [(s, ds)])

        # full joint objective on the 3-node / 2-path instance (covers every
        # layer: node encoder, both path encoders, the bilinear scorer)
        model, _, loss, analytic = _joint_instance(seed)
        grads = analytic()
        check(loss, [(arr, grads[name]) for name, arr, _ in model.parameters()])
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    assert n_skipped <= 0.01 * n_probed, f"{n_skipped} of {n_probed} probes cross a kink"
    print(
        f"\n  worst relative error {worst:.2e} over 20 seeds in {elapsed:.1f}s, "
        f"{n_skipped} of {n_probed} coordinates left out at ReLU kinks"
    )
    report(1, "gradient integrity")


def test_fd_check_catches_corrupted_gradient():
    model, _, loss, analytic = _joint_instance(0)
    grads = analytic()
    pairs = [(arr, grads[name]) for name, arr, _ in model.parameters()]
    _, skipped, _ = _fd_check(loss, pairs)
    assert skipped == []
    names = [name for name, _, _ in model.parameters()]
    grads["f_p.out.W"].reshape(-1)[3] += 1e-2
    with pytest.raises(AssertionError, match="finite-difference mismatch"):
        _fd_check(loss, [pairs[names.index("f_p.out.W")]])


def test_fd_check_leaves_out_exactly_the_kink_crossings():
    # Seed 5 has a natural kink: node 1's pre-activation of f_n hidden unit 1
    # is -1.21e-5, so a probe of h = 1e-5 on a weight whose input exceeds 1.21
    # in magnitude switches the unit on.
    h = 1e-5
    model, x, loss, analytic = _joint_instance(5)
    grads = analytic()
    names = [name for name, _, _ in model.parameters()]
    pairs = [(arr, grads[name]) for name, arr, _ in model.parameters()]
    _, skipped, _ = _fd_check(loss, pairs, h=h)

    # independent oracle for the first layer: W[r, c] flips node n's unit r
    # when h * |x[n, c]| exceeds |pre[n, r]|, b[r] when h does
    layer = model.f_n.hidden
    pre = x @ layer.W.T + layer.b
    assert pre[1, 1] == pytest.approx(-1.21e-5, abs=5e-8)
    w_flips = (h * np.abs(x)[:, None, :] > np.abs(pre)[:, :, None]).any(axis=0)
    b_flips = (h > np.abs(pre)).any(axis=0)
    expected = {(names.index("f_n.hidden.W"), int(i)) for i in np.flatnonzero(w_flips)}
    expected |= {(names.index("f_n.hidden.b"), int(i)) for i in np.flatnonzero(b_flips)}
    assert expected == {(names.index("f_n.hidden.W"), 15), (names.index("f_n.hidden.W"), 26)}
    assert set(skipped) == expected

    # with a probe too small to reach the kink, the central difference at the
    # left-out coordinates agrees with the analytic one-sided derivative
    W = layer.W.reshape(-1)
    for i in (15, 26):
        orig = W[i]
        W[i] = orig + 1e-6
        up, _ = loss()
        W[i] = orig - 1e-6
        down, _ = loss()
        W[i] = orig
        assert abs((up - down) / 2e-6 - grads["f_n.hidden.W"].reshape(-1)[i]) < 1e-6


# ---------------------------------------------------------------------------
# 2. toy convergence
# ---------------------------------------------------------------------------


def test_criterion_2_toy_convergence(toy_runtime, staged_runs):
    (model_a, _, metrics_a, t_a), (model_b, _, metrics_b, t_b) = staged_runs
    cfg = toy_runtime.cfg

    assert t_a < RUN_BUDGET_SECONDS and t_b < RUN_BUDGET_SECONDS

    # training-set node R@1 and the monotone 5-epoch-window property
    prune_r1 = [m["node_r1"] for m in metrics_a if m["phase"] == "prune"]
    windows = [float(np.mean(prune_r1[i : i + 5])) for i in range(0, len(prune_r1), 5)]
    for earlier, later in zip(windows, windows[1:]):
        assert later >= earlier - 1e-9, f"window regression: {windows}"
    train_r1 = metrics_a[-1]["node_r1"]
    assert train_r1 >= 0.9

    # held-out metrics
    test_samples, _ = prepare_samples(toy_runtime, model_a, toy_runtime.test_records())
    results = evaluate_queries(model_a, test_samples, cfg)
    test_node_r1 = recall_rates([r.node_rank for r in results], [1])[1]
    test_path_r10 = recall_rates([gt_rank(r.path_terminals, r.gt) for r in results], [10])[10]
    assert test_node_r1 >= 0.7
    assert test_path_r10 >= 0.8

    # bit-identical reruns
    assert metrics_a == metrics_b
    for (name, pa, _), (_, pb, _) in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa, pb), f"{name} differs between identical runs"

    print(
        f"\n  train node R@1 {train_r1:.3f}, test node R@1 {test_node_r1:.3f}, "
        f"test path R@10 {test_path_r10:.3f}, runtimes {t_a:.0f}s / {t_b:.0f}s"
    )
    report(2, "toy convergence")


# ---------------------------------------------------------------------------
# 3. retrieval structure
# ---------------------------------------------------------------------------


def test_criterion_3_retrieval_structure(toy_runtime):
    rt = toy_runtime
    records = rt.test_records()
    budgets = [50, 100, 250, 500, 1000]
    gts = [ground_truth_ids(rt.g, rec) for rec in records]

    def build(rec, budget, mode):
        cfg = dataclasses.replace(rt.cfg, mode=mode, schema_budget=budget, closed_budget=budget)
        return schema_for_record(dataclasses.replace(rt, cfg=cfg), rec)

    def rebuild_oracle(mode):
        """Recount the curve over real per-budget rebuilds."""
        curve = []
        for b in budgets:
            hits = sum(bool(build(rec, b, mode).node_set() & gt) for rec, gt in zip(records, gts))
            curve.append((b, hits / len(records)))
        return curve

    # one max-budget build per query, as the schema and eval commands do
    open_graphs = [build(rec, budgets[-1], "open") for rec in records]
    closed_graphs = [build(rec, budgets[-1], "closed") for rec in records]
    open_curve = hit_rate_curve(budgets, open_graphs, gts)
    closed_curve = hit_rate_curve(budgets, closed_graphs, gts)
    assert open_curve == rebuild_oracle("open")
    assert closed_curve == rebuild_oracle("closed")

    rates_open = [r for _, r in open_curve]
    assert rates_open == sorted(rates_open), f"open curve not monotone: {open_curve}"
    rates_closed = [r for _, r in closed_curve]
    assert rates_closed == sorted(rates_closed), f"closed curve not monotone: {closed_curve}"
    for (b, ro), (_, rc) in zip(open_curve, closed_curve):
        assert rc >= ro, f"closed < open at budget {b}: {rc:.3f} vs {ro:.3f}"

    # provenance classification is total and single-valued
    classes = {"q", "v", "n-1", "n-2", "absent"}
    seen = set()
    for sg, gt in zip(open_graphs, gts):
        for e in gt:
            cls = gt_provenance(sg, e)
            assert cls in classes
            seen.add(cls)
    assert "absent" in classes  # vocabulary sanity

    print(f"\n  open curve {open_curve}\n  closed curve {closed_curve}\n  classes seen: {sorted(seen)}")
    report(3, "retrieval structure")


# ---------------------------------------------------------------------------
# 4. oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_4_oracle_equivalences(tmp_path):
    rng = np.random.default_rng(404)

    # neighbor ranking vs brute-force 4-tuple sort, 50 instances
    g, _ = random_graph(tmp_path, rng, n_entities=45, n_edges=400)
    for _ in range(50):
        current = rng.choice(g.n_entities, size=int(rng.integers(2, 18)), replace=False)
        rest = sorted(set(range(g.n_entities)) - set(int(c) for c in current))
        cands = rng.choice(rest, size=min(len(rest), 20), replace=False)
        q_nodes = frozenset(int(c) for c in current[: max(1, len(current) // 3)])
        ranked = _rank_candidates(g, g.edges_from(current), q_nodes, np.unique(cands))
        assert ranked.tolist() == brute_force_rank(g, current, q_nodes, cands)

    # semi-hard mining in triplet_terms vs exhaustive scan, 100 batches
    for _ in range(100):
        a, p = rng.standard_normal((2, 6))
        negatives = rng.standard_normal((int(rng.integers(1, 15)), 6))
        check_mining(a, p, negatives, 0.5)

    # recall@k vs full-sort recount
    for _ in range(100):
        n = int(rng.integers(2, 40))
        ids = rng.choice(500, size=n, replace=False)
        scores = np.round(rng.standard_normal(n), 2)
        gt = set(int(i) for i in rng.choice(ids, size=2, replace=False))
        k = int(rng.integers(1, n + 1))
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
        rank = gt_rank(rank_by_score(ids, scores), gt)
        assert recall_rates([rank], [k])[k] == float(any(int(ids[i]) in gt for i in order[:k]))

    # sampled path batches are subsets of the exhaustive walk enumeration
    for trial in range(15):
        n = int(rng.integers(3, 9))
        edges = []
        for _ in range(int(rng.integers(2, 16))):
            x, y = rng.integers(n, size=2)
            if x != y:
                edges.append((int(x), int(rng.integers(3)), int(y), 1.0))
        sg = make_sg(list(range(n)), [0] + [2] * (n - 1), distinct(sym(edges)), q_nodes={0})
        universe = set(simple_walks(sg, 3))
        for seed in range(10):
            batch = sample_paths(as_pruned(sg), n_paths=200, k=3, seed=seed)
            assert set(sigs(batch)) <= universe

    # aggregate_answers vs group-by-max oracle
    for _ in range(50):
        scored = [
            (int(rng.integers(10)), float(np.round(rng.standard_normal(), 3)))
            for _ in range(int(rng.integers(1, 80)))
        ]
        best = {}
        for t, score in scored:
            best[t] = max(best.get(t, -np.inf), score)
        expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        batch = pack(
            [((0, t), (0,)) for t, _ in scored], 3, ids=range(10), scores=[s for _, s in scored]
        )
        assert aggregate_answers(batch, batch.last(batch.paths)) == expected

    report(4, "oracle equivalences")


# ---------------------------------------------------------------------------
# 5. pruning contract
# ---------------------------------------------------------------------------


def test_criterion_5_pruning_contract(toy_runtime, staged_runs):
    (model, _, _, _), _ = staged_runs
    rt = toy_runtime
    cfg = rt.cfg
    test_samples, _ = prepare_samples(rt, model, rt.test_records())

    # key nodes always survive
    for sample in test_samples:
        pg = prune(model, sample, cfg.theta_p, cfg.prune_target)[0]
        assert sample.sg.key_ids() <= set(int(e) for e in pg.base.nodes)

    # theta limiting cases match their closed-form orderings
    for sample in test_samples[:10]:
        h, _ = model.f_n.forward(sample.x, train=False)
        s_cos = cosine_rows(sample.ctx.z, h)
        s_bfs = sample.s_bfs
        nodes = sample.sg.nodes
        keys = sample.sg.key_ids()
        target = cfg.prune_target

        # theta=1: survivors are exactly the BFS-closest nodes (keys already
        # score 1.0, so forced inclusion never changes the selection)
        pg1 = prune_from_scores(sample.sg, s_cos, s_bfs, 1.0, target)
        by_bfs = sorted(range(len(nodes)), key=lambda i: (-s_bfs[i], nodes[i]))
        expected1 = sorted(int(nodes[i]) for i in by_bfs[: min(target, len(nodes))])
        assert sorted(int(e) for e in pg1.base.nodes) == expected1

        pg0 = prune_from_scores(sample.sg, s_cos, s_bfs, 0.0, target)
        non_key_sorted = [
            int(nodes[i])
            for i in sorted(range(len(nodes)), key=lambda i: (-s_cos[i], -s_bfs[i], nodes[i]))
            if int(nodes[i]) not in keys
        ]
        expected0 = set(keys) | set(non_key_sorted[: min(target, len(nodes)) - len(keys)])
        assert set(int(e) for e in pg0.base.nodes) == expected0

    # R@100 varies by < 5 points across theta_p
    rates = {}
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        hits = 0
        for sample in test_samples:
            pg = prune(model, sample, theta, 100)[0]
            hits += bool(sample.gt & set(int(e) for e in pg.base.nodes))
        rates[theta] = hits / len(test_samples)
    spread = max(rates.values()) - min(rates.values())
    assert spread < 0.05, f"R@100 spread {spread:.3f} across theta: {rates}"

    # shuffle robustness: survivor sequence invariant to node re-ordering
    for rec in rt.test_records()[:10]:
        ctx = rt.contexts[rec.qid]
        survivor_seqs = []
        for shuffle_seed in (1, 2):
            sg = schema_for_record(rt, rec)
            perm = np.random.default_rng(shuffle_seed).permutation(sg.n_nodes)
            shuffled = SchemaGraph.from_edges(
                sg.qid, sg.nodes[perm], sg.types[perm],
                (sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight),
                sg.q_nodes, sg.v_nodes,
            )
            sample = QuerySample.build(model, shuffled, ctx, (), rt.emb, rt.textfeat)
            pg = prune(model, sample, cfg.theta_p, cfg.prune_target)[0]
            survivor_seqs.append([int(e) for e in pg.base.nodes])
        assert survivor_seqs[0] == survivor_seqs[1]

    print(f"\n  R@100 by theta: { {t: round(r, 3) for t, r in rates.items()} }")
    report(5, "pruning contract")


# ---------------------------------------------------------------------------
# 6. scoring protocol
# ---------------------------------------------------------------------------


def test_criterion_6_scoring_protocol():
    anns = annotation_scores([(1, 1), (2, 2), (3, 3), (4, 4)])
    assert list(anns.values()) == pytest.approx([1 / 3, 2 / 3, 1.0, 1.0])
    for entity, score in anns.items():
        assert vqa_score(entity, anns) == score
    assert vqa_score(99, anns) == 0.0
    assert annotation_scores([(7, 1)]) == {7: 1.0}
    assert annotation_scores([(5, 1), (5, 1)]) == {5: 1.0}  # one entity, given twice

    # perfect-oracle suite score equals the mean max annotation score
    rng = np.random.default_rng(606)
    suites = []
    for _ in range(300):
        n_ans = int(rng.integers(1, 5))
        answers = list({int(rng.integers(40)): int(rng.integers(1, 6)) for _ in range(n_ans)}.items())
        suites.append(annotation_scores(answers))
    oracle = float(np.mean([vqa_score(max(a, key=a.get), a) for a in suites]))
    upper = float(np.mean([max(a.values()) for a in suites]))
    assert oracle == pytest.approx(upper)
    report(6, "scoring protocol")


# ---------------------------------------------------------------------------
# 7. scale
# ---------------------------------------------------------------------------


def test_criterion_7_scale(tmp_path_factory):
    out = tmp_path_factory.mktemp("scale_suite")
    spec = SuiteSpec(
        seed=77,
        n_entities=516_782,
        n_edges=3_000_000,
        n_queries=100,
        emit_vectors=False,
    )
    t0 = time.time()
    generate_suite(out, spec)
    gen_time = time.time() - t0

    t0 = time.time()
    g = load_graph(out / "kg_edges.tsv", out / "relations.txt")
    load_time = time.time() - t0
    # peak resident set of this process so far: ru_maxrss is KiB on Linux,
    # bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_gb = peak / (2**30 if sys.platform == "darwin" else 2**20)

    assert g.n_entities == 516_782
    assert load_time < 60.0, f"ingest took {load_time:.1f}s"
    assert rss_gb < 4.0, f"peak resident memory {rss_gb:.2f} GB"

    from kgpath.linking import KeyNodeSet, extract_key_nodes, load_queries
    from kgpath.schema import build_schema

    records = load_queries(out / "queries.jsonl")
    assert len(records) == 100
    timings = []
    sizes = []
    linked = []
    for rec in records:
        keys, scene_edges = extract_key_nodes(g, rec)
        assert keys
        linked.append((rec.qid, keys, scene_edges))
        t0 = time.time()
        sg = build_schema(g, keys, scene_edges, budget=1000, one_hop_cap=500,
                          seed=mix_seed(0, rec.qid), qid=rec.qid)
        timings.append(time.time() - t0)
        sizes.append(sg.n_nodes)
    median_ms = float(np.median(timings)) * 1000
    assert median_ms < 200.0, f"median schema build {median_ms:.1f} ms"

    # Dense case: one record's keys rarely fill the budget, so pool the keys
    # of consecutive records until about 8 are linked, and build from those.
    dense_timings = []
    dense_sizes = []
    q_pool, v_pool, scene_pool = set(), set(), []
    for qid, keys, scene_edges in linked:
        q_pool |= keys.q_nodes
        v_pool |= keys.v_nodes
        scene_pool += scene_edges
        if len(q_pool | v_pool) < 8:
            continue
        pooled = KeyNodeSet(q_nodes=frozenset(q_pool), v_nodes=frozenset(v_pool))
        t0 = time.time()
        sg = build_schema(g, pooled, scene_pool, budget=1000, one_hop_cap=500,
                          seed=mix_seed(0, "dense", qid), qid=qid)
        dense_timings.append(time.time() - t0)
        dense_sizes.append(sg.n_nodes)
        q_pool, v_pool, scene_pool = set(), set(), []
    assert len(dense_sizes) >= 10
    dense_median_ms = float(np.median(dense_timings)) * 1000
    assert np.median(dense_sizes) == 1000, f"median dense graph size {np.median(dense_sizes)}"
    assert dense_median_ms < 200.0, f"median dense schema build {dense_median_ms:.1f} ms"
    print(
        f"\n  generate {gen_time:.0f}s, ingest {load_time:.1f}s, peak rss {rss_gb:.2f} GB, "
        f"median build {median_ms:.1f} ms, median graph size {int(np.median(sizes))}, "
        f"dense: {len(dense_sizes)} builds, median {dense_median_ms:.1f} ms, "
        f"median size {int(np.median(dense_sizes))}"
    )
    report(7, "scale")
