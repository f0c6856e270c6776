"""Shared orchestration for the CLI: runtime loading, sample prep, eval loops.

The runtime bundles the loaded graph and providers; samples pair each query
with its schema graph, text features and BFS scores. Evaluation can fan out
per-query work over forked workers; results are always reduced in query order
so the worker count never changes the report.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import InputError, RunConfig
from .embeddings import QueryContext, TextFeatureProvider, load_contexts, load_entity_embeddings
from .kg import KnowledgeGraph, load_graph
from .linking import QueryRecord, extract_key_nodes, ground_truth_ids, load_queries, load_synonyms
from .metrics import EvalReport, annotation_scores, gt_rank, recall_rates, split_open, vqa_score
from .neural import ScoringModel
from .paths import aggregate_answers, mix_seed, ranked_paths, run_query
from .pruning import QuerySample, node_gt_rank
from .schema import SchemaGraph, build_schema

logger = logging.getLogger(__name__)

RECALL_KS = (1, 10, 20, 50, 100)
PATH_RECALL_KS = (10, 20)


@dataclass
class Runtime:
    """Everything a command needs after loading: graph, vectors (``emb`` is
    the ``(n_entities, D)`` entity matrix), queries, and ``inputs``, each file
    read keyed by its config key."""

    cfg: RunConfig
    g: KnowledgeGraph
    queries: list[QueryRecord]
    synonyms: dict[str, str]
    inputs: dict[str, Path] = field(default_factory=dict)
    emb: Optional[np.ndarray] = None
    contexts: dict[str, QueryContext] = field(default_factory=dict)
    textfeat: Optional[TextFeatureProvider] = None

    def train_records(self) -> list[QueryRecord]:
        return [r for r in self.queries if r.split == "train"]

    def test_records(self) -> list[QueryRecord]:
        return [r for r in self.queries if r.split == "test"]

    @cached_property
    def candidates(self) -> frozenset[int]:
        """Close-set vocabulary: every answer entity across all splits,
        collected on the first read and kept."""
        return frozenset().union(*(ground_truth_ids(self.g, rec) for rec in self.queries))


def load_edge_graph(cfg: RunConfig) -> tuple[KnowledgeGraph, dict[str, Path]]:
    """The graph of ``cfg.kg_edges`` and the files read: ``kg_edges``, ``relations`` when set."""
    inputs = {"kg_edges": cfg.kg_edges}
    if cfg.relations is not None:
        inputs["relations"] = cfg.relations
    return load_graph(cfg.kg_edges, cfg.relations), inputs


def _check_dim(path: Path, dim: int, name: str, want: int) -> None:
    if dim != want:
        raise InputError(path, msg=f"vectors have dimension {dim}, but the config sets {name} = {want}")


def load_runtime(cfg: RunConfig, need_vectors: bool = True, need_queries: bool = True) -> Runtime:
    """The graph, queries and vectors a command needs; ``rt.inputs`` names each
    file read by its config key, an index by its three files. With vectors,
    text features are read exactly when ``cfg.text_features`` is set. Entity
    vectors whose dimension is not ``cfg.D``, or contexts not ``cfg.d``, are
    an ``InputError`` naming the file."""
    if cfg.kg_index is not None and (cfg.kg_index / "adjacency.npz").exists():
        logger.info("loading prebuilt index from %s", cfg.kg_index)
        g = KnowledgeGraph.load_index(cfg.kg_index)
        files = ("entities.txt", "relations.txt", "adjacency.npz")
        inputs = {f"kg_index/{name}": cfg.kg_index / name for name in files}
    elif cfg.kg_edges is not None:
        g, inputs = load_edge_graph(cfg)
    else:
        raise FileNotFoundError("config needs kg_edges or a built kg_index")

    def read(key: str) -> Path:
        inputs[key] = getattr(cfg, key)
        return inputs[key]

    queries = load_queries(read("queries")) if (need_queries and cfg.queries) else []
    synonyms = load_synonyms(read("synonyms")) if cfg.synonyms else {}

    rt = Runtime(cfg=cfg, g=g, queries=queries, synonyms=synonyms, inputs=inputs)
    if need_vectors:
        if cfg.entity_embeddings is None or cfg.contexts is None:
            raise FileNotFoundError(
                "config needs entity_embeddings and contexts for this command"
            )
        rt.emb = load_entity_embeddings(read("entity_embeddings"), g)
        _check_dim(cfg.entity_embeddings, rt.emb.shape[1], "D", cfg.D)
        rt.contexts = load_contexts(read("contexts"))
        if rt.contexts:  # load_contexts holds every row to the first row's dimension
            _check_dim(cfg.contexts, next(iter(rt.contexts.values())).dim, "d", cfg.d)
        rt.textfeat = TextFeatureProvider(
            dim=cfg.d, path=read("text_features") if cfg.text_features else None, g=g
        )
    return rt


def schema_for_record(rt: Runtime, rec: QueryRecord) -> Optional[SchemaGraph]:
    """Build one record's schema graph at ``cfg.budget``; None when no key
    node links. Close-set mode recruits from ``rt.candidates``."""
    cfg = rt.cfg
    keys, scene_edges = extract_key_nodes(rt.g, rec, synonyms=rt.synonyms)
    if not keys:
        return None
    return build_schema(
        rt.g,
        keys,
        scene_edges,
        budget=cfg.budget,
        one_hop_cap=cfg.one_hop_cap,
        seed=mix_seed(cfg.seed, "schema", rec.qid),
        qid=rec.qid,
        candidates=rt.candidates if cfg.mode == "closed" else None,
    )


def prepare_samples(
    rt: Runtime,
    model: ScoringModel,
    records: Sequence[QueryRecord],
) -> tuple[list[QuerySample], int]:
    """A prepared ``QuerySample`` for each linkable record.

    Records without key nodes or without a query context are skipped and
    counted (they cannot enter the pipeline at all).
    """
    samples = []
    skipped = 0
    for rec in records:
        ctx = rt.contexts.get(rec.qid)
        if ctx is None:
            logger.warning("%s: no query context, skipping", rec.qid)
            skipped += 1
            continue
        sg = schema_for_record(rt, rec)
        if sg is None:
            logger.warning("%s: no key nodes linked, skipping", rec.qid)
            skipped += 1
            continue
        matched = [(rt.g.match_entity(s), c) for s, c in rec.answers]
        ann = annotation_scores([m for m in matched if m[0] is not None])
        samples.append(
            QuerySample.build(
                model, sg, ctx, ann.keys(), rt.emb, rt.textfeat, split=rec.split, annotations=ann
            )
        )
    return samples, skipped


# ---------------------------------------------------------------------------
# per-query inference and suite evaluation
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    """One question's evaluation. ``node_rank`` is the position of the best
    ground-truth node in the cosine node ranking (None without one), counted
    by ``node_gt_rank`` rather than read from a sorted list."""

    qid: str
    gt: frozenset[int]
    annotations: dict[int, float]
    node_rank: Optional[int]
    answer_ranking: list[tuple[int, float]]
    path_terminals: list[int]
    top_paths: list[tuple[tuple[int, ...], tuple[int, ...], float]]


_WORKER_ARGS: dict = {}


def _eval_one(i: int) -> QueryResult:
    model = _WORKER_ARGS["model"]
    cfg: RunConfig = _WORKER_ARGS["cfg"]
    sample: QuerySample = _WORKER_ARGS["samples"][i]
    return evaluate_query(model, sample, cfg)


def evaluate_query(model: ScoringModel, sample: QuerySample, cfg: RunConfig) -> QueryResult:
    _, batch, s_cos, *_ = run_query(
        model,
        sample,
        theta_p=cfg.theta_p,
        target=cfg.prune_target,
        n_paths=cfg.n_paths,
        k=cfg.k,
        seed=mix_seed(cfg.seed, "eval-paths", sample.qid),
    )
    order, terminals = ranked_paths(batch), batch.last(batch.paths)
    top = order[:10]
    top_paths = [
        (tuple(nodes[: n + 1]), tuple(rels[:n]), score)
        for nodes, rels, n, score in zip(
            batch.paths[top].tolist(),
            batch.rels[top].tolist(),
            batch.lengths[top].tolist(),
            batch.scores[top].tolist(),
        )
    ]
    return QueryResult(
        qid=sample.qid,
        gt=sample.gt,
        annotations=sample.annotations,
        node_rank=node_gt_rank(sample.sg.nodes, s_cos, sample.gt_pos),
        answer_ranking=aggregate_answers(batch, terminals),
        path_terminals=terminals[order].tolist(),
        top_paths=top_paths,
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
    report.node_recall = recall_rates([r.node_rank for r in results], RECALL_KS)
    report.rank_by_node_recall = recall_rates(
        [gt_rank((e for e, _ in r.answer_ranking), r.gt) for r in results], RECALL_KS
    )
    report.rank_by_path_recall = recall_rates(
        [gt_rank(r.path_terminals, r.gt) for r in results], PATH_RECALL_KS
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
