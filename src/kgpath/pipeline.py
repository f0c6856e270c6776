"""Shared orchestration for the CLI: runtime loading, sample prep, eval loops.

The runtime bundles the loaded graph and providers; samples pair each query
with its schema graph and precomputed encoder inputs. Evaluation can fan out
per-query work over forked workers; results are always reduced in query order
so the worker count never changes the report.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import RunConfig
from .embeddings import (
    EntityEmbeddingTable,
    QueryContext,
    TextFeatureProvider,
    load_contexts,
    load_entity_embeddings,
)
from .kg import KnowledgeGraph, load_graph
from .linking import QueryRecord, extract_key_nodes, ground_truth_ids, load_queries, load_synonyms
from .metrics import (
    EvalReport,
    annotation_scores,
    recall_at_k,
    split_open,
    vqa_score,
)
from .neural import ScoringModel
from .paths import aggregate_answers, mix_seed, ranked_paths, run_query
from .pruning import QuerySample, rank_by_score
from .schema import SchemaGraph, build_schema, build_schema_closed

logger = logging.getLogger(__name__)

RECALL_KS = (1, 10, 20, 50, 100)
PATH_RECALL_KS = (10, 20)


@dataclass
class Runtime:
    """Everything a command needs after loading: graph, vectors, queries."""

    cfg: RunConfig
    g: KnowledgeGraph
    queries: list[QueryRecord]
    synonyms: dict[str, str]
    emb: Optional[EntityEmbeddingTable] = None
    contexts: dict[str, QueryContext] = field(default_factory=dict)
    textfeat: Optional[TextFeatureProvider] = None

    def train_records(self) -> list[QueryRecord]:
        return [r for r in self.queries if r.split == "train"]

    def test_records(self) -> list[QueryRecord]:
        return [r for r in self.queries if r.split == "test"]

    def candidate_set(self) -> frozenset[int]:
        """Close-set vocabulary: every answer entity across all splits."""
        ids: set[int] = set()
        for rec in self.queries:
            ids |= ground_truth_ids(self.g, rec)
        return frozenset(ids)


def load_runtime(cfg: RunConfig, need_vectors: bool = True, need_queries: bool = True) -> Runtime:
    if cfg.kg_index is not None and (cfg.kg_index / "adjacency.npz").exists():
        logger.info("loading prebuilt index from %s", cfg.kg_index)
        g = KnowledgeGraph.load_index(cfg.kg_index)
    elif cfg.kg_edges is not None:
        g = load_graph(cfg.kg_edges, cfg.relations)
    else:
        raise FileNotFoundError("config needs kg_edges or a built kg_index")

    queries = load_queries(cfg.queries) if (need_queries and cfg.queries) else []
    synonyms = load_synonyms(cfg.synonyms) if cfg.synonyms else {}

    rt = Runtime(cfg=cfg, g=g, queries=queries, synonyms=synonyms)
    if need_vectors:
        if cfg.entity_embeddings is None or cfg.contexts is None:
            raise FileNotFoundError(
                "config needs entity_embeddings and contexts for this command"
            )
        rt.emb = load_entity_embeddings(cfg.entity_embeddings, g)
        rt.contexts = load_contexts(cfg.contexts)
        rt.textfeat = TextFeatureProvider(
            dim=cfg.d,
            mode=cfg.ptm_mode,
            seed=cfg.seed,
            path=cfg.text_features,
            g=g,
        )
    return rt


def schema_for_record(
    rt: Runtime,
    rec: QueryRecord,
    budget: Optional[int] = None,
    mode: Optional[str] = None,
    candidates: Optional[frozenset[int]] = None,
) -> Optional[SchemaGraph]:
    """Build one record's schema graph; None when no key node links."""
    cfg = rt.cfg
    keys, scene_edges = extract_key_nodes(rt.g, rec, synonyms=rt.synonyms)
    if not keys:
        return None
    mode = mode or cfg.mode
    seed = mix_seed(cfg.seed, "schema", rec.qid)
    if mode == "closed":
        return build_schema_closed(
            rt.g,
            keys,
            scene_edges,
            candidates if candidates is not None else rt.candidate_set(),
            budget=budget if budget is not None else cfg.closed_budget,
            one_hop_cap=cfg.one_hop_cap,
            seed=seed,
            qid=rec.qid,
        )
    return build_schema(
        rt.g,
        keys,
        scene_edges,
        budget=budget if budget is not None else cfg.schema_budget,
        one_hop_cap=cfg.one_hop_cap,
        seed=seed,
        qid=rec.qid,
    )


def prepare_samples(
    rt: Runtime,
    model: ScoringModel,
    records: Sequence[QueryRecord],
    candidates: Optional[frozenset[int]] = None,
) -> tuple[list[QuerySample], int]:
    """Schema graphs plus encoder inputs for each linkable record.

    Records without key nodes or without a query context are skipped and
    counted (they cannot enter the pipeline at all).
    """
    if candidates is None and rt.cfg.mode == "closed":
        candidates = rt.candidate_set()
    samples = []
    skipped = 0
    for rec in records:
        ctx = rt.contexts.get(rec.qid)
        if ctx is None:
            logger.warning("%s: no query context, skipping", rec.qid)
            skipped += 1
            continue
        sg = schema_for_record(rt, rec, candidates=candidates)
        if sg is None:
            logger.warning("%s: no key nodes linked, skipping", rec.qid)
            skipped += 1
            continue
        gt = ground_truth_ids(rt.g, rec)
        ann = {
            a.entity: a.score
            for a in annotation_scores(
                [(rt.g.match_entity(s), c) for s, c in rec.answers if rt.g.match_entity(s) is not None]
            )
        }
        samples.append(
            QuerySample.build(
                model, sg, ctx, gt, rt.emb, rt.textfeat, split=rec.split, annotations=ann
            )
        )
    return samples, skipped


# ---------------------------------------------------------------------------
# per-query inference and suite evaluation
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    qid: str
    split: str
    gt: frozenset[int]
    annotations: dict[int, float]
    node_ranking: list[int]
    answer_ranking: list[tuple[int, float]]
    path_terminals: list[int]
    gt_in_schema: bool
    top_paths: list[tuple[tuple[int, ...], tuple[int, ...], float]]


_WORKER_ARGS: dict = {}


def _eval_one(i: int) -> QueryResult:
    model = _WORKER_ARGS["model"]
    cfg: RunConfig = _WORKER_ARGS["cfg"]
    sample: QuerySample = _WORKER_ARGS["samples"][i]
    return evaluate_query(model, sample, cfg)


def evaluate_query(model: ScoringModel, sample: QuerySample, cfg: RunConfig) -> QueryResult:
    pg, batch, s_cos = run_query(
        model,
        sample,
        theta_p=cfg.theta_p,
        target=cfg.prune_target,
        n_paths=cfg.n_paths,
        k=cfg.k,
        seed=mix_seed(cfg.seed, "eval-paths", sample.qid),
    )
    node_ranking = [int(e) for e in rank_by_score(sample.sg.nodes, s_cos)]
    answers = aggregate_answers(batch) if batch.paths else []
    ordered = ranked_paths(batch) if batch.paths else []
    return QueryResult(
        qid=sample.qid,
        split=sample.split,
        gt=sample.gt,
        annotations=sample.annotations,
        node_ranking=node_ranking,
        answer_ranking=answers,
        path_terminals=[p.terminal for p in ordered],
        gt_in_schema=bool(sample.gt_pos.size),
        top_paths=[(p.nodes, p.relations, p.score) for p in ordered[:10]],
    )


def evaluate_queries(
    model: ScoringModel,
    samples: Sequence[QuerySample],
    cfg: RunConfig,
) -> list[QueryResult]:
    """Per-query results in input order, optionally fanned out over workers."""
    if cfg.workers <= 1 or len(samples) < 2:
        return [evaluate_query(model, s, cfg) for s in samples]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        logger.warning("fork unavailable; evaluating sequentially")
        return [evaluate_query(model, s, cfg) for s in samples]
    global _WORKER_ARGS
    _WORKER_ARGS = {"model": model, "cfg": cfg, "samples": list(samples)}
    try:
        with ctx.Pool(cfg.workers) as pool:
            return list(pool.map(_eval_one, range(len(samples))))
    finally:
        _WORKER_ARGS = {}


def build_report(
    results: Sequence[QueryResult],
    train_answers: frozenset[int],
    hit_rate: Optional[dict[int, float]] = None,
) -> EvalReport:
    report = EvalReport(n_queries=len(results))
    if not results:
        return report
    for k in RECALL_KS:
        report.node_recall[k] = float(
            np.mean([recall_at_k(r.node_ranking, r.gt, k) for r in results])
        )
        report.rank_by_node_recall[k] = float(
            np.mean(
                [recall_at_k([e for e, _ in r.answer_ranking], r.gt, k) for r in results]
            )
        )
    for k in PATH_RECALL_KS:
        report.rank_by_path_recall[k] = float(
            np.mean([recall_at_k(r.path_terminals, r.gt, k) for r in results])
        )
    scores = []
    for r in results:
        predicted = r.answer_ranking[0][0] if r.answer_ranking else None
        scores.append(vqa_score(predicted, r.annotations))
    report.vqa = float(np.mean(scores))
    counts: dict[str, int] = {}
    for r in results:
        tag = split_open(train_answers, r.gt)
        counts[tag] = counts.get(tag, 0) + 1
    report.split_counts = counts
    if hit_rate:
        report.hit_rate = dict(hit_rate)
    return report
