import json
import re

import numpy as np
import pytest

from kgpath.cli import main


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Tiny suite + tiny training config shared by the command tests."""
    root = tmp_path_factory.mktemp("cliwork")
    out = root / "suite"
    rc = main(
        [
            "synth",
            "--out", str(out),
            "--n-entities", "150",
            "--n-edges", "600",
            "--n-queries", "24",
            "--hop-mix", "1:0.5,2:0.5",
            "--alignment", "0.9",
            "--dim", "12",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return root, out


def run_args(out_dir, suite_dir, extra=()):
    return [
        "--config", str(suite_dir / "suite.config"),
        "--set", f"out_dir={out_dir}",
        "--set", "schema_budget=60",
        "--set", "one_hop_cap=30",
        "--set", "prune_target=12",
        "--set", "n_paths=40",
        "--set", "curve_budgets=10,30,60",
        "--set", "epochs_prune=2",
        "--set", "epochs_joint=2",
        "--set", "lr=1e-3",
        *extra,
    ]


def test_synth_is_idempotent(suite, tmp_path):
    _, out = suite
    again = tmp_path / "again"
    rc = main(
        [
            "synth",
            "--out", str(again),
            "--n-entities", "150",
            "--n-edges", "600",
            "--n-queries", "24",
            "--hop-mix", "1:0.5,2:0.5",
            "--alignment", "0.9",
            "--dim", "12",
            "--seed", "3",
        ]
    )
    assert rc == 0
    for name in ("kg_edges.tsv", "queries.jsonl", "entity_embeddings.tsv", "manifest.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_build_index_writes_manifest(suite):
    root, out = suite
    idx_out = root / "index"
    rc = main(["build-index", *run_args(root / "bi", out), "--out", str(idx_out)])
    assert rc == 0
    manifest = json.loads((idx_out / "manifest.json").read_text())
    assert manifest["command"] == "build-index"
    assert "kg_edges" in manifest["inputs"]
    assert (idx_out / "adjacency.npz").exists()
    assert manifest["config"]["schema_budget"] == 60


def test_schema_command(suite):
    root, out = suite
    schema_out = root / "schema"
    rc = main(["schema", *run_args(schema_out, out)])
    assert rc == 0
    dump = schema_out / "schema_graphs.jsonl"
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(lines) == 24
    for obj in lines:
        assert {"qid", "nodes", "edges", "key_q", "key_v", "gt"} <= set(obj)
        assert len(obj["nodes"]) <= 60
    curve = (schema_out / "hit_rate.csv").read_text().splitlines()
    assert curve[0] == "budget,rate"
    rates = [float(r.split(",")[1]) for r in curve[1:]]
    assert rates == sorted(rates)  # monotone in budget


def test_train_eval_infer_round_trip(suite):
    root, out = suite
    train_out = root / "train"
    rc = main(["train", *run_args(train_out, out)])
    assert rc == 0
    ckpt = train_out / "checkpoint.gpr"
    assert ckpt.exists()
    metrics = [json.loads(l) for l in (train_out / "metrics.jsonl").read_text().splitlines()]
    assert [m["phase"] for m in metrics] == ["prune"] * 2 + ["joint"] * 2
    manifest = json.loads((train_out / "manifest.json").read_text())
    assert manifest["command"] == "train"

    eval_out = root / "eval"
    rc = main(["eval", *run_args(eval_out, out), "--checkpoint", str(ckpt)])
    assert rc == 0
    report = json.loads((eval_out / "report.json").read_text())
    assert set(report["node_recall"]) == {"1", "10", "20", "50", "100"}
    assert sum(report["split_counts"].values()) == report["n_queries"]
    assert (eval_out / "report.txt").exists()
    assert (eval_out / "hit_rate.csv").exists()

    # infer one qid and render its paths
    infer_out = root / "infer.jsonl"
    rc = main(
        [
            "infer",
            *run_args(root / "inf", out),
            "--checkpoint", str(ckpt),
            "--qid", "q0001",
            "--out", str(infer_out),
        ]
    )
    assert rc == 0
    obj = json.loads(infer_out.read_text().splitlines()[0])
    assert obj["qid"] == "q0001"
    for surface, score in obj["answers"]:
        assert isinstance(surface, str) and isinstance(score, float)
    for flat, score in obj["paths"]:
        assert len(flat) % 2 == 1 and len(flat) >= 3

    dot_out = root / "graph.dot"
    rc = main(
        [
            "export-dot",
            "--dump", str(root / "schema" / "schema_graphs.jsonl"),
            "--qid", "q0001",
            "--paths", str(infer_out),
            "--out", str(dot_out),
        ]
    )
    assert rc == 0
    text = dot_out.read_text()
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def test_prune_command(suite):
    root, out = suite
    rc = main(
        [
            "prune",
            *run_args(root / "prune", out),
            "--checkpoint", str(root / "train" / "checkpoint.gpr"),
            "--schemas", str(root / "schema" / "schema_graphs.jsonl"),
        ]
    )
    assert rc == 0
    lines = [json.loads(l) for l in (root / "prune" / "pruned_graphs.jsonl").read_text().splitlines()]
    assert len(lines) == 24
    for obj in lines:
        assert len(obj["nodes"]) <= 12
        assert len(obj["scores"]) == len(obj["nodes"])


def test_eval_workers_do_not_change_results(suite):
    root, out = suite
    ckpt = root / "train" / "checkpoint.gpr"
    out1 = root / "eval_w1"
    out2 = root / "eval_w2"
    assert main(["eval", *run_args(out1, out), "--checkpoint", str(ckpt), "--workers", "1"]) == 0
    assert main(["eval", *run_args(out2, out), "--checkpoint", str(ckpt), "--workers", "3"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2


def test_closed_mode_runs(suite):
    root, out = suite
    closed_out = root / "schema_closed"
    rc = main(["schema", *run_args(closed_out, out), "--mode", "closed", "--set", "closed_budget=60"])
    assert rc == 0
    assert (closed_out / "schema_graphs.jsonl").exists()
    manifest = json.loads((closed_out / "manifest.json").read_text())
    assert manifest["mode"] == "closed"


def test_unknown_flag_is_hard_error(suite):
    root, out = suite
    with pytest.raises(SystemExit) as exc:
        main(["schema", "--config", str(out / "suite.config"), "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_rejected(suite):
    root, out = suite
    rc = main(["schema", *run_args(root / "x", out), "--set", "no_such_key=1"])
    assert rc == 1


def test_missing_checkpoint_is_error(suite):
    root, out = suite
    rc = main(["eval", *run_args(root / "x2", out), "--checkpoint", str(root / "nope.gpr")])
    assert rc == 1


def test_dimension_mismatch_refused(suite):
    root, out = suite
    ckpt = root / "train" / "checkpoint.gpr"
    rc = main(
        ["eval", *run_args(root / "x3", out), "--checkpoint", str(ckpt), "--set", "d=16", "--set", "D=16"]
    )
    assert rc == 1


def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_malformed_embedding_row_is_one_line_error(suite, tmp_path, capsys):
    root, out = suite
    lines = (out / "entity_embeddings.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    surface, _, rest = lines[2].partition("\t")
    values = rest.split(" ")
    values[1] = "x"
    lines[2] = surface + "\t" + " ".join(values)
    bad = tmp_path / "emb.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    rc = main(["train", *run_args(tmp_path / "o", out), "--set", f"entity_embeddings={bad}"])
    assert rc == 1
    (line,) = error_lines(capsys)
    assert line.startswith(f"error: {bad}:3: entity {surface!r}: ")


def test_bad_synonyms_file_is_one_line_error(suite, tmp_path, capsys):
    root, out = suite
    syn = tmp_path / "syn.tsv"
    syn.write_text("# surface -> entity\na\tb\tc\n", encoding="utf-8")
    rc = main(["schema", *run_args(tmp_path / "o", out), "--set", f"synonyms={syn}"])
    assert rc == 1
    assert error_lines(capsys) == [
        f"error: {syn}:2: expected 2 tab-separated fields, got 3"
    ]


def test_export_dot_structure(tmp_path):
    dump = {
        "qid": "q1",
        "nodes": [["alpha", "Q"], ["beta", "N1"], ["gamma", "N2"]],
        "edges": [
            ["alpha", "isa", "beta", 1.0],
            ["beta", "rev_isa", "alpha", 1.0],
            ["beta", "isa", "gamma", 1.0],
            ["gamma", "rev_isa", "beta", 1.0],
        ],
        "key_q": ["alpha"],
        "key_v": [],
        "gt": ["gamma"],
    }
    path = tmp_path / "dump.jsonl"
    path.write_text(json.dumps(dump) + "\n")
    out = tmp_path / "g.dot"
    assert main(["export-dot", "--dump", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    node_lines = re.findall(r'^\s+"(?:alpha|beta|gamma)" \[fillcolor', text, re.M)
    edge_lines = re.findall(r'->', text)
    assert len(node_lines) == 3
    assert len(edge_lines) == 2  # reversals collapse into forward arrows
    assert text.count("{") == text.count("}")
    # gt node is styled as ground truth, not neighbor
    assert re.search(r'"gamma" \[fillcolor="#F47C64"\]', text)
