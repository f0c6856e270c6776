"""Every recall is read from GT ranks: checked against the hit-indicator
definition it replaced.

``recall_at_k`` below is a verbatim copy of the function that counted every
node, answer and path recall before ``gt_rank`` and ``recall_rates`` did. The
rank route must give the same rate, bit for bit, on random rankings that
include empty rankings, questions with no ground truth, ground-truth entities
outside the graph and repeated path terminals.
"""

from typing import Iterable, Sequence

import numpy as np
import pytest

from kgpath.metrics import gt_rank, hit_rate_curve, recall_rates
from kgpath.neural import ScoringModel, cosine_rows
from kgpath.paths import node_recall_rate
from kgpath.pipeline import PATH_RECALL_KS, RECALL_KS, QueryResult, build_report
from kgpath.pruning import rank_by_score
from kgpath.schema import SchemaGraph

from test_path_ranker import make_samples


def recall_at_k(ranked: Sequence[int], gt: Iterable[int], k: int) -> bool:
    """True iff any ground-truth entity appears among the k top-ranked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gt = set(int(e) for e in gt)
    return any(int(e) in gt for e in ranked[:k])


KS = (1, 2, 3, 5, 10, 20, 50, 100)


def random_question(rng):
    """(ranking, gt) over a 40-entity graph: the ranking may be empty and may
    repeat an entity (path terminals do); the GT may be empty or lie outside
    the graph (ids 40..59)."""
    n = int(rng.integers(0, 30))
    if rng.random() < 0.5:
        ranking = rng.choice(40, size=n, replace=False).tolist()
    else:
        ranking = rng.integers(40, size=n).tolist()
    gt = set(rng.choice(60, size=int(rng.integers(0, 4)), replace=False).tolist())
    return ranking, gt


def test_gt_rank_is_the_first_gt_position():
    rng = np.random.default_rng(20)
    for _ in range(500):
        ranking, gt = random_question(rng)
        rank = gt_rank(ranking, gt)
        hits = [i for i, e in enumerate(ranking) if e in gt]
        assert rank == (hits[0] if hits else None)
        assert gt_rank(np.asarray(ranking, dtype=np.int64), gt) == rank
        for k in KS:
            assert ((rank is not None) and rank < k) == recall_at_k(ranking, gt, k)


def test_gt_rank_stops_at_the_first_gt_entity():
    def ranking():
        yield from (5, 3, 9)
        raise AssertionError("scanned past the first GT entity")

    assert gt_rank(ranking(), {3, 9}) == 1
    assert gt_rank([], {3}) is None
    assert gt_rank([1, 2], set()) is None


def test_recall_rates_equal_the_mean_of_recall_at_k():
    rng = np.random.default_rng(21)
    for n_questions in (0, 1, 2, 7, 50, 200):
        questions = [random_question(rng) for _ in range(n_questions)]
        rates = recall_rates([gt_rank(r, g) for r, g in questions], KS)
        assert list(rates) == list(KS)
        for k in KS:
            hits = [recall_at_k(r, g, k) for r, g in questions]
            assert rates[k] == (float(np.mean(hits)) if hits else 0.0)


def test_recall_rates_refuse_k_below_one():
    for ranks in ([], [0, None]):
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall_rates(ranks, [1, 0])
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall_rates(ranks, [-3])
    assert recall_rates([], [1, 10]) == {1: 0.0, 10: 0.0}


def random_result(rng, i):
    nodes, gt = random_question(rng)
    answers, _ = random_question(rng)
    terminals, _ = random_question(rng)
    return QueryResult(
        qid=f"q{i:04d}",
        split="test",
        gt=frozenset(gt),
        annotations={e: 1.0 for e in gt},
        node_ranking=nodes,
        answer_ranking=[(e, 1.0 / (j + 1)) for j, e in enumerate(dict.fromkeys(answers))],
        path_terminals=terminals,
        top_paths=[],
    )


def test_build_report_recalls_equal_a_brute_force_recount():
    rng = np.random.default_rng(22)
    for n_questions in (1, 3, 60):
        results = [random_result(rng, i) for i in range(n_questions)]
        report = build_report(results, frozenset(range(10)))

        def recount(ranking_of, ks):
            return {
                k: sum(bool(set(ranking_of(r)[:k]) & r.gt) for r in results) / len(results)
                for k in ks
            }

        def old_route(ranking_of, ks):
            return {
                k: float(np.mean([recall_at_k(ranking_of(r), r.gt, k) for r in results]))
                for k in ks
            }

        for field, ranking_of, ks in [
            ("node_recall", lambda r: r.node_ranking, RECALL_KS),
            ("rank_by_node_recall", lambda r: [e for e, _ in r.answer_ranking], RECALL_KS),
            ("rank_by_path_recall", lambda r: r.path_terminals, PATH_RECALL_KS),
        ]:
            rates = getattr(report, field)
            assert rates == recount(ranking_of, ks), field
            assert rates == old_route(ranking_of, ks), field
    assert build_report([], frozenset()).node_recall == {}


def test_hit_rate_curve_equals_the_first_hit_recount():
    """The curve reads the GT rank in construction order; the old route took
    the smallest construction rank among the stored GT nodes."""
    rng = np.random.default_rng(23)
    budgets = [1, 2, 3, 5, 8, 13, 40]
    graphs, gts = [], []
    for i in range(80):
        n = int(rng.integers(1, 20))
        nodes = rng.choice(40, size=n, replace=False)
        graphs.append(
            SchemaGraph(
                qid=f"q{i}",
                nodes=nodes.astype(np.int64),
                types=np.zeros(n, dtype=np.int8),
                edges_head=np.empty(0, dtype=np.int64),
                edges_rel=np.empty(0, dtype=np.int64),
                edges_tail=np.empty(0, dtype=np.int64),
                edges_weight=np.empty(0, dtype=np.float64),
                q_nodes=frozenset({int(nodes[0])}),
                v_nodes=frozenset(),
                build_rank=rng.permutation(n),
            )
        )
        gts.append(set(rng.choice(60, size=int(rng.integers(0, 4)), replace=False).tolist()))
    first_hit = []
    for sg, gt in zip(graphs, gts):
        hit = np.isin(sg.nodes, np.fromiter(gt, dtype=np.int64))
        first_hit.append(int(sg.build_rank[hit].min()) if hit.any() else None)
    expected = [
        (b, sum(r is not None and r < b for r in first_hit) / len(gts)) for b in budgets
    ]
    assert hit_rate_curve(budgets, graphs, gts) == expected
    assert hit_rate_curve([5, 5], graphs, gts) == [expected[3], expected[3]]
    assert hit_rate_curve(budgets, [], []) == [(b, 0.0) for b in budgets]


def test_node_recall_rate_equals_the_full_sort_recount():
    for seed in range(4):
        model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=seed)
        samples = make_samples(model, n_queries=30, n_nodes=12, seed=seed + 40)
        rankings = []
        for s in samples:
            h, _ = model.f_n.forward(s.x, train=False)
            rankings.append(rank_by_score(s.sg.nodes, cosine_rows(s.ctx.z, h)))
        for k in (1, 2, 5, 12):
            expected = float(np.mean([recall_at_k(r, s.gt, k) for r, s in zip(rankings, samples)]))
            assert node_recall_rate(model, samples, k) == expected
    assert node_recall_rate(model, [], 1) == 0.0
    with pytest.raises(ValueError, match="k must be >= 1"):
        node_recall_rate(model, samples, 0)
