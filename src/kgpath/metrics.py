"""Evaluation: VQA-style answer scoring, recall@k, splits, hit-rate curves.

The answer score follows the crowd-annotation protocol: min(#annotators / 3,
1), except that questions with a single annotated answer entity score 1
regardless of count. Recall@k is the share of queries whose GT rank, the
position of the first ground-truth entity in a ranking, is below k; the
hit-rate curve over node budgets ranks one full-budget schema graph per query
in construction order. Test questions are tagged closed / partial_open / open
by how many of their ground-truth entities were ever seen as training answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import atomic_write, write_json
from .schema import SchemaGraph


@dataclass(frozen=True)
class AnswerAnnotation:
    entity: int
    human_count: int
    score: float


def annotation_scores(answers: Sequence[tuple[int, int]]) -> list[AnswerAnnotation]:
    """Score each (entity, human_count) answer of one question.

    Uses min(count / 3, 1), overridden to 1.0 when the question has exactly
    one annotated answer entity.
    """
    if len(answers) == 1:
        entity, count = answers[0]
        return [AnswerAnnotation(int(entity), int(count), 1.0)]
    return [
        AnswerAnnotation(int(entity), int(count), min(count / 3.0, 1.0))
        for entity, count in answers
    ]


def vqa_score(predicted: Optional[int], score_map: dict[int, float]) -> float:
    """Annotation score of the predicted entity (entity -> score map), 0 if
    not annotated."""
    if predicted is None:
        return 0.0
    return score_map.get(int(predicted), 0.0)


def gt_rank(ranked: Iterable[int], gt: Iterable[int]) -> Optional[int]:
    """Position of the first ground-truth entity in ``ranked``, None if none
    is there. The scan stops at that entity."""
    gt = set(int(e) for e in gt)
    return next((i for i, e in enumerate(ranked) if int(e) in gt), None)


def recall_rates(ranks: Sequence[Optional[int]], ks: Iterable[int]) -> dict[int, float]:
    """Recall@k for each k: the share of GT ranks below k, 0.0 with no query."""
    rates = {}
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        hits = sum(r is not None and r < k for r in ranks)
        rates[int(k)] = hits / len(ranks) if ranks else 0.0
    return rates


def split_open(train_answers: Iterable[int], gt: Iterable[int]) -> str:
    """Tag one test query: all gt unseen -> open, some unseen -> partial_open,
    none unseen -> closed."""
    seen = set(int(e) for e in train_answers)
    gt = set(int(e) for e in gt)
    if not gt:
        return "closed"
    unseen = gt - seen
    if not unseen:
        return "closed"
    if unseen == gt:
        return "open"
    return "partial_open"


def hit_rate_curve(
    budgets: Sequence[int],
    graphs: Sequence[SchemaGraph],
    gts: Sequence[Iterable[int]],
) -> list[tuple[int, float]]:
    """Fraction of queries whose ground truth the schema graph holds at each budget.

    ``graphs`` hold one build per query at a budget no smaller than the
    largest curve budget. For a fixed one-hop cap the graph built at budget b
    is exactly the nodes of construction rank < b, so a query hits at b iff
    its GT rank in construction order is below b.
    """
    if list(budgets) != sorted(budgets):
        raise ValueError("budgets must be sorted ascending")
    if len(graphs) != len(gts):
        raise ValueError("the graph list must align with the query list")
    ranks = []
    for sg, gt in zip(graphs, gts):
        if sg.build_rank is None:
            raise ValueError(f"schema graph {sg.qid!r} carries no construction ranks")
        ranks.append(gt_rank(sg.nodes[np.argsort(sg.build_rank)], gt))
    rates = recall_rates(ranks, budgets)
    return [(int(b), rates[b]) for b in budgets]


@dataclass
class EvalReport:
    """Suite-level metrics plus split bookkeeping."""

    n_queries: int
    node_recall: dict[int, float] = field(default_factory=dict)
    rank_by_node_recall: dict[int, float] = field(default_factory=dict)
    rank_by_path_recall: dict[int, float] = field(default_factory=dict)
    vqa: float = 0.0
    hit_rate: dict[int, float] = field(default_factory=dict)
    split_counts: dict[str, int] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "node_recall": {str(k): v for k, v in sorted(self.node_recall.items())},
            "rank_by_node_recall": {
                str(k): v for k, v in sorted(self.rank_by_node_recall.items())
            },
            "rank_by_path_recall": {
                str(k): v for k, v in sorted(self.rank_by_path_recall.items())
            },
            "vqa_score": self.vqa,
            "gt_hit_rate_by_budget": {str(b): r for b, r in sorted(self.hit_rate.items())},
            "split_counts": dict(sorted(self.split_counts.items())),
        }

    def to_table(self) -> str:
        lines = [f"queries evaluated: {self.n_queries}"]

        def row(title: str, rates: dict[int, float]) -> None:
            if rates:
                cells = "  ".join(f"R@{k}={v:6.2%}" for k, v in sorted(rates.items()))
                lines.append(f"{title:<18} {cells}")

        row("node (cosine)", self.node_recall)
        row("rank by node", self.rank_by_node_recall)
        row("rank by path", self.rank_by_path_recall)
        lines.append(f"vqa score          {self.vqa:6.2%}")
        if self.hit_rate:
            cells = "  ".join(f"{b}:{r:5.1%}" for b, r in sorted(self.hit_rate.items()))
            lines.append(f"gt hit rate        {cells}")
        if self.split_counts:
            cells = "  ".join(f"{k}={v}" for k, v in sorted(self.split_counts.items()))
            lines.append(f"split counts       {cells}")
        return "\n".join(lines)

    def save(self, json_path, text_path=None) -> None:
        write_json(json_path, self.to_json_obj())
        if text_path is not None:
            with atomic_write(text_path) as f:
                f.write(self.to_table() + "\n")


def write_curve_csv(path, curve: Sequence[tuple[int, float]]) -> None:
    """``budget,rate`` rows for external plotting."""
    with atomic_write(path) as f:
        f.write("budget,rate\n")
        for budget, rate in curve:
            f.write(f"{budget},{rate:.6f}\n")
