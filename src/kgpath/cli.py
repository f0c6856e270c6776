"""Command-line entry points.

Subcommands: build-index, schema, prune, train, eval, infer, export-dot,
synth. Global flags (--config, --seed, --mode, --workers, --set KEY=VALUE)
layer on top of the config file, which layers on top of built-in defaults.
Every command that produces outputs also writes a manifest with the resolved
config hash, seed, and a digest of each input file it read.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .config import (
    InputError, RunConfig, atomic_write, load_config, read_blocks, read_jsonl, write_jsonl,
    write_manifest,
)
from .dot import export_dot
from .linking import ground_truth_ids
from .metrics import hit_rate_curve, write_curve_csv
from .neural import ScoringModel
from .paths import staged_training
from .pipeline import (
    Runtime,
    build_report,
    evaluate_queries,
    evaluate_query,
    load_edge_graph,
    load_runtime,
    prepare_samples,
    schema_for_record,
)
from .pruning import QuerySample, dump_pruned_graphs, prune
from .schema import dump_schema_graphs, load_schema_graphs
from .synth import SuiteSpec, check_hop_mix, generate_suite

logger = logging.getLogger("kgpath")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="config file (key = value lines)")
    common.add_argument("--seed", type=int, default=None, help="override the run seed")
    common.add_argument("--mode", choices=["open", "closed"], default=None, help="answer-space mode")
    common.add_argument("--workers", type=int, default=None, help="parallel eval workers")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        default=[],
        help="override any config key (repeatable)",
    )
    common.add_argument("--verbose", action="store_true", help="debug logging")

    parser = argparse.ArgumentParser(
        prog="kgpath",
        description="Knowledge-graph retrieval and inference-path ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", parents=[common], help="load the edge TSV and save a binary index")
    p.add_argument("--out", type=Path, default=None, help="index directory (default: <out_dir>/index)")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("schema", parents=[common], help="build schema graphs and the hit-rate curve")
    p.add_argument("--out", type=Path, default=None, help="output directory (default: <out_dir>)")
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("prune", parents=[common], help="prune dumped schema graphs with a trained model")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--schemas", type=Path, required=True, help="schema graph dump (JSONL)")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("train", parents=[common], help="staged training: prune phase, then joint phase")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--progress", action="store_true", help="print per-epoch metrics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", parents=[common], help="answers and ranked paths for one question")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--qid", required=True)
    p.add_argument("--out", type=Path, default=None, help="also append the JSON line here")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("export-dot", parents=[common], help="render a dumped graph as Graphviz DOT")
    p.add_argument("--dump", type=Path, required=True, help="schema or pruned dump (JSONL)")
    p.add_argument("--qid", default=None, help="which record to render (default: first)")
    p.add_argument("--paths", type=Path, default=None, help="inference output JSONL to overlay")
    p.add_argument("--max-paths", type=int, default=5)
    p.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("synth", parents=[common], help="generate a planted synthetic suite")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-entities", type=int, default=1000)
    p.add_argument("--n-edges", type=int, default=5000)
    p.add_argument("--n-queries", type=int, default=250)
    p.add_argument("--hop-mix", default="1:0.5,2:0.5", help="hop:weight pairs, e.g. 1:0.5,2:0.5")
    p.add_argument("--alignment", type=float, default=0.9)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--question-keys", type=int, default=1)
    p.add_argument("--visual-keys", type=int, default=1)
    p.add_argument("--no-vectors", action="store_true", help="skip embeddings and contexts")
    p.set_defaults(func=cmd_synth)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise InputError(msg=f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    return load_config(args.config, overrides)


def _out_dir(args: argparse.Namespace, cfg: RunConfig) -> Path:
    out = args.out if getattr(args, "out", None) else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(rt: Runtime, checkpoint: Optional[Path]) -> ScoringModel:
    """The model of ``--checkpoint`` or the config key, entered in ``rt.inputs``."""
    cfg = rt.cfg
    path = checkpoint or cfg.checkpoint
    if path is None:
        raise InputError(msg="no checkpoint given (flag --checkpoint or config key)")
    rt.inputs["checkpoint"] = path
    return ScoringModel.load_checkpoint(
        path, dropout_rate=cfg.dropout, expect_dims=(cfg.d, cfg.D, cfg.k)
    )


def _hit_rate_curve(cfg: RunConfig, graphs, gts) -> list[tuple[int, float]]:
    """GT hit rate at the curve budgets up to the mode's schema budget, read
    from the graphs built at that budget."""
    budgets = [b for b in cfg.curve_budgets if b <= cfg.budget] or [cfg.budget]
    return hit_rate_curve(budgets, graphs, gts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_index(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if cfg.kg_edges is None:
        raise InputError(msg="build-index needs kg_edges in the config")
    g, inputs = load_edge_graph(cfg)
    out = args.out or (cfg.out_dir / "index")
    g.save(out)
    write_manifest(out, "build-index", cfg, inputs)
    print(f"indexed {g.n_entities} entities, {g.n_edges} directed edges -> {out}")
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    rt = load_runtime(cfg, need_vectors=False)
    out = _out_dir(args, cfg)

    graphs = []
    gt_by_qid = {}
    skipped = 0
    for rec in rt.queries:
        sg = schema_for_record(rt, rec)
        if sg is None:
            skipped += 1
            continue
        graphs.append(sg)
        gt_by_qid[rec.qid] = ground_truth_ids(rt.g, rec)
    dump_path = out / "schema_graphs.jsonl"
    dump_schema_graphs(dump_path, rt.g, graphs, gt_by_qid)

    curve = _hit_rate_curve(cfg, graphs, [gt_by_qid[sg.qid] for sg in graphs])
    write_curve_csv(out / "hit_rate.csv", curve)
    write_manifest(out, "schema", cfg, rt.inputs)
    print(f"wrote {len(graphs)} schema graphs ({skipped} skipped) -> {dump_path}")
    for budget, rate in curve:
        print(f"  gt hit rate @ {budget:>5} nodes: {rate:6.2%}")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    rt = load_runtime(cfg, need_queries=False)
    graphs, gt_by_qid = load_schema_graphs(args.schemas, rt.g)
    rt.inputs["schemas"] = args.schemas
    model = _load_model(rt, args.checkpoint)
    out = _out_dir(args, cfg)
    pruned = []
    for sg in graphs:
        ctx = rt.contexts.get(sg.qid)
        if ctx is None:
            logger.warning("%s: no query context, skipping", sg.qid)
            continue
        sample = QuerySample.build(model, sg, ctx, gt_by_qid[sg.qid], rt.emb, rt.textfeat)
        pruned.append(prune(model, sample, cfg.theta_p, cfg.prune_target)[0])
    dump_path = out / "pruned_graphs.jsonl"
    dump_pruned_graphs(dump_path, rt.g, pruned, gt_by_qid)
    write_manifest(out, "prune", cfg, rt.inputs)
    print(f"pruned {len(pruned)} graphs to <= {cfg.prune_target} nodes -> {dump_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    rt = load_runtime(cfg)
    out = _out_dir(args, cfg)
    model = ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
    samples, skipped = prepare_samples(rt, model, rt.train_records())
    if not samples:
        raise InputError(msg="no trainable queries (check linking inputs)")
    logger.info("training on %d queries (%d skipped)", len(samples), skipped)
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
        progress=args.progress,
    )
    write_jsonl(out / "metrics.jsonl", metrics)
    ckpt = out / "checkpoint.gpr"
    model.save_checkpoint(ckpt)
    write_manifest(out, "train", cfg, rt.inputs)
    final = metrics[-1] if metrics else {}
    print(
        f"trained {cfg.epochs_prune}+{cfg.epochs_joint} epochs on {len(samples)} queries; "
        f"final train node R@1 = {final.get('node_r1', float('nan')):.3f} -> {ckpt}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    rt = load_runtime(cfg)
    model = _load_model(rt, args.checkpoint)
    out = _out_dir(args, cfg)
    samples, skipped = prepare_samples(rt, model, rt.test_records())
    results = evaluate_queries(model, samples, cfg)
    curve = _hit_rate_curve(cfg, [s.sg for s in samples], [s.gt for s in samples])

    train_answers = frozenset().union(
        *[ground_truth_ids(rt.g, r) for r in rt.train_records()] or [frozenset()]
    )
    report = build_report(results, train_answers, dict(curve))
    report.save(out / "report.json", out / "report.txt")
    write_curve_csv(out / "hit_rate.csv", curve)
    write_manifest(out, "eval", cfg, rt.inputs)
    print(report.to_table())
    if skipped:
        print(f"({skipped} queries skipped before evaluation)")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    rt = load_runtime(cfg)
    matches = [r for r in rt.queries if r.qid == args.qid]
    if not matches:
        raise InputError(msg=f"qid {args.qid!r} not found in {cfg.queries}")
    if args.qid not in rt.contexts:
        raise InputError(cfg.contexts, msg=f"no query context for qid {args.qid!r}")
    model = _load_model(rt, args.checkpoint)
    samples, _ = prepare_samples(rt, model, matches)
    if not samples:
        raise InputError(msg=f"qid {args.qid!r} has no linkable key nodes")
    result = evaluate_query(model, samples[0], cfg)
    g = rt.g
    rel = rt.g.relations
    obj = {
        "qid": result.qid,
        "answers": [[g.surface(e), float(s)] for e, s in result.answer_ranking],
        "paths": [
            [_flatten_path(g, rel, nodes, rels), float(score)]
            for nodes, rels, score in result.top_paths
        ],
    }
    line = json.dumps(obj, sort_keys=True)
    print(line)
    if args.out:  # the earlier lines and this one, renamed into place together
        earlier = [e for _, block in read_blocks(args.out) for e in block] if args.out.exists() else []
        with atomic_write(args.out) as f:
            f.writelines([*earlier, line + "\n"])
    return 0


def _flatten_path(g, rel, nodes, rels) -> list[str]:
    flat = [g.surface(nodes[0])]
    for r, n in zip(rels, nodes[1:]):
        flat.append(rel.name_of(r))
        flat.append(g.surface(n))
    return flat


def _dot_graph(obj: dict) -> dict:
    """A schema or pruned dump record with the fields ``export_dot`` reads; a
    record of another shape raises ``KeyError``, ``TypeError`` or ``ValueError``."""
    return {
        "qid": obj["qid"],
        "nodes": [(str(surface), str(kind)) for surface, kind in obj["nodes"]],
        "edges": [(str(h), str(r), str(t), float(w)) for h, r, t, w in obj["edges"]],
        "gt": [str(surface) for surface in obj.get("gt", [])],
    }


def _dot_paths(obj: dict) -> tuple:
    """An inference output record as (qid, [(flat path, score), ...])."""
    return obj["qid"], [([str(x) for x in flat], float(score)) for flat, score in obj["paths"]]


def cmd_export_dot(args: argparse.Namespace) -> int:
    graphs = read_jsonl(args.dump, _dot_graph)
    dump = next((d for d in graphs if args.qid is None or d["qid"] == args.qid), None)
    if dump is None:
        raise InputError(msg=f"qid {args.qid!r} not found in {args.dump}")
    paths = None
    if args.paths:
        records = read_jsonl(args.paths, _dot_paths)
        paths = next((p for qid, p in records if qid == dump["qid"]), None)
    text = export_dot(dump, paths, args.max_paths)
    if args.out:
        with atomic_write(args.out) as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        hop_mix = {}
        for part in args.hop_mix.split(","):
            hop, _, weight = part.partition(":")
            hop_mix[int(hop)] = float(weight)
        check_hop_mix(hop_mix)
    except ValueError as exc:
        raise InputError(msg=f"--hop-mix {args.hop_mix}: {exc}") from None
    try:
        spec = SuiteSpec(
            seed=args.seed if args.seed is not None else 7,
            n_entities=args.n_entities,
            n_edges=args.n_edges,
            n_queries=args.n_queries,
            hop_mix=hop_mix,
            alignment=args.alignment,
            dim=args.dim,
            train_fraction=args.train_fraction,
            n_question_keys=args.question_keys,
            n_visual_keys=args.visual_keys,
            emit_vectors=not args.no_vectors,
        )
    except ValueError as exc:
        raise InputError(msg=str(exc)) from None
    manifest = generate_suite(args.out, spec)
    counts = manifest["counts"]
    print(
        f"suite at {args.out}: {counts['entities']} entities, "
        f"{counts['edges_written']} forward edges, {counts['train']} train / "
        f"{counts['test']} test queries"
    )
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
