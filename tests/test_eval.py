import dataclasses

import numpy as np
import pytest

from kgpath.config import load_config
from kgpath.linking import ground_truth_ids
from kgpath.metrics import (
    EvalReport,
    annotation_scores,
    gt_rank,
    hit_rate_curve,
    recall_rates,
    split_open,
    vqa_score,
    write_curve_csv,
)
from kgpath.pipeline import load_runtime, schema_for_record
from kgpath.schema import SchemaGraph
from kgpath.synth import SuiteSpec, generate_suite

from conftest import no_edges


def test_annotation_score_protocol():
    anns = annotation_scores([(1, 1), (2, 2), (3, 3), (4, 4)])
    assert list(anns.values()) == pytest.approx([1 / 3, 2 / 3, 1.0, 1.0])


def test_single_entity_answer_overrides_to_one():
    assert annotation_scores([(7, 1)]) == {7: 1.0}


def test_vqa_score_lookup():
    scores = annotation_scores([(1, 3), (2, 1)])
    assert vqa_score(1, scores) == 1.0
    assert vqa_score(2, scores) == pytest.approx(1 / 3)
    assert vqa_score(99, scores) == 0.0
    assert vqa_score(None, scores) == 0.0


def test_recall_positions():
    ranked = list(range(100))
    assert gt_rank(ranked, {10}) == 10
    assert recall_rates([gt_rank(ranked, {0})], [1]) == {1: 1.0}
    assert recall_rates([gt_rank(ranked, {10})], [10]) == {10: 0.0}  # position 11
    assert recall_rates([gt_rank(ranked, {10})], [50]) == {50: 1.0}
    with pytest.raises(ValueError):
        recall_rates([gt_rank(ranked, {0})], [0])


def test_suite_mean_equals_brute_force_recount():
    rng = np.random.default_rng(1)
    rankings, gts = [], []
    for _ in range(200):
        ranking = rng.permutation(30).tolist()
        gt = set(int(x) for x in rng.choice(30, size=2, replace=False))
        rankings.append(ranking)
        gts.append(gt)
    k = 5
    mean = recall_rates([gt_rank(r, g) for r, g in zip(rankings, gts)], [k])[k]
    recount = sum(1 for r, g in zip(rankings, gts) if set(r[:k]) & g) / len(rankings)
    assert mean == pytest.approx(recount)


def test_recall_invariant_to_relabeling():
    rng = np.random.default_rng(2)
    ranked = rng.permutation(20).tolist()
    gt = {3, 11}
    relabel = {i: i + 1000 for i in range(20)}
    rank = gt_rank(ranked, gt)
    relabeled = gt_rank([relabel[i] for i in ranked], {relabel[i] for i in gt})
    assert rank == relabeled
    ks = (1, 5, 10, 20)
    assert recall_rates([rank], ks) == recall_rates([relabeled], ks)


def test_split_open_rules():
    train = {1, 2, 3}
    assert split_open(train, {1}) == "closed"
    assert split_open(train, {1, 9}) == "partial_open"
    assert split_open(train, {9}) == "open"
    assert split_open(train, {8, 9}) == "open"
    assert split_open(train, set()) == "closed"


def _sg(nodes, build_rank=None, qid="q"):
    n = len(nodes)
    return SchemaGraph.from_edges(
        qid, np.asarray(nodes, dtype=np.int64), np.zeros(n, dtype=np.int8), no_edges(),
        {nodes[0]} if nodes else (), (),
        build_rank=None if build_rank is None else np.asarray(build_rank),
    )


def test_hit_rate_curve_monotone_on_nested():
    budgets = [2, 4]
    # shuffled storage order: the construction rank, not the row, decides
    graphs = [_sg([3, 1, 4, 2], [2, 0, 3, 1]), _sg([8, 6, 7, 5], [3, 1, 2, 0])]
    gts = [{3}, {9}]
    curve = hit_rate_curve(budgets, graphs, gts)
    assert curve == [(2, 0.0), (4, 0.5)]
    assert curve[0][1] <= curve[1][1]
    assert hit_rate_curve([1, 2], [_sg([3, 1], [1, 0])], [{1, 3}]) == [(1, 1.0), (2, 1.0)]


def test_hit_rate_curve_validates_shape():
    with pytest.raises(ValueError, match="sorted"):
        hit_rate_curve([4, 2], [], [])
    with pytest.raises(ValueError, match="align"):
        hit_rate_curve([2], [_sg([1], [0])], [])
    with pytest.raises(ValueError, match="construction ranks"):
        hit_rate_curve([2], [_sg([1])], [{1}])


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve_suite")
    generate_suite(out, SuiteSpec(seed=3, n_entities=150, n_edges=600, n_queries=24, dim=8))
    return out


def test_hit_rate_curve_matches_rebuild_oracle(small_suite):
    """The curve read from one max-budget build equals a recount over real
    per-budget rebuilds, and every rebuild is the construction-rank prefix."""
    # a one-hop cap of 6 makes the larger budgets recruit two-hop nodes
    rt = load_runtime(
        load_config(small_suite / "suite.config", {"one_hop_cap": "6"}), need_vectors=False
    )
    budgets = [2, 3, 4, 5, 8, 13, 20, 40, 60]
    for mode in ("open", "closed"):

        def build(rec, budget):
            cfg = dataclasses.replace(rt.cfg, mode=mode, schema_budget=budget, closed_budget=budget)
            return schema_for_record(dataclasses.replace(rt, cfg=cfg), rec)

        records = [rec for rec in rt.queries if build(rec, budgets[-1]) is not None]
        full = [build(rec, budgets[-1]) for rec in records]
        gts = [ground_truth_ids(rt.g, rec) for rec in records]
        expected = []
        for b in budgets:
            rebuilt = [build(rec, b) for rec in records]
            for sg, big in zip(rebuilt, full):
                in_prefix = big.build_rank < b
                assert sg.node_set() == {int(n) for n in big.nodes[in_prefix]}
                sub = big.restricted_to(np.flatnonzero(in_prefix))
                assert set(zip(sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight)) == set(
                    zip(sub.edges_head, sub.edges_rel, sub.edges_tail, sub.edges_weight)
                )
            hits = sum(bool(sg.node_set() & gt) for sg, gt in zip(rebuilt, gts))
            expected.append((b, hits / len(records)))
        curve = hit_rate_curve(budgets, full, gts)
        assert curve == expected
        assert curve[0][1] < curve[-1][1], f"{mode} curve too flat to test anything: {curve}"


def test_perfect_oracle_equals_mean_max_annotation_score():
    rng = np.random.default_rng(3)
    questions = []
    for _ in range(100):
        n_ans = int(rng.integers(1, 4))
        answers = [(int(rng.integers(50)), int(rng.integers(1, 5))) for _ in range(n_ans)]
        answers = list({e: c for e, c in answers}.items())
        questions.append(annotation_scores(answers))
    # the oracle predicts each question's best-scored annotated entity
    suite = float(np.mean([vqa_score(max(anns, key=anns.get), anns) for anns in questions]))
    upper = float(np.mean([max(anns.values()) for anns in questions]))
    assert suite == pytest.approx(upper)


def test_report_serialization(tmp_path):
    report = EvalReport(
        n_queries=3,
        node_recall={1: 0.5, 10: 0.9},
        rank_by_node_recall={1: 0.2},
        rank_by_path_recall={10: 0.7},
        vqa=0.4,
        hit_rate={100: 0.8},
        split_counts={"closed": 2, "open": 1},
    )
    report.save(tmp_path / "r.json", tmp_path / "r.txt")
    import json

    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj["node_recall"]["10"] == 0.9
    assert obj["split_counts"]["open"] == 1
    text = (tmp_path / "r.txt").read_text()
    assert "rank by path" in text and "vqa score" in text


def test_curve_csv(tmp_path):
    write_curve_csv(tmp_path / "c.csv", [(10, 0.5), (20, 1.0)])
    assert (tmp_path / "c.csv").read_text().splitlines() == [
        "budget,rate",
        "10,0.500000",
        "20,1.000000",
    ]
