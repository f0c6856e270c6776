import dataclasses
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from kgpath import paths
from kgpath.cli import main
from kgpath.config import InputError, RunConfig, sha256_file
from kgpath.dot import export_dot
from kgpath.neural import ScoringModel
from kgpath.synth import SuiteSpec, generate_suite


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


def without(key):
    return lambda obj: json.dumps({k: v for k, v in obj.items() if k != key})


def replaced(key, value):
    return lambda obj: json.dumps({**obj, key: value})


# (file, edit of its second line, message after "error: <path>:2: ")
MALFORMED_JSONL = {
    "query-bad-json": ("queries", lambda obj: "{not json", "bad JSON: "),
    "query-missing-qid": ("queries", without("qid"), "missing field 'qid'"),
    "query-label-confidence": (
        "queries", replaced("scene_labels", [["x", 1.5]]),
        "q0001: label confidence 1.5 outside [0,1]",
    ),
    "query-triplet-confidence": (
        "queries", replaced("scene_triplets", [["x", "has", "y", -0.25]]),
        "q0001: triplet confidence -0.25 outside [0,1]",
    ),
    "context-bad-json": ("contexts", lambda obj: json.dumps(obj)[:-1], "bad JSON: "),
    "context-missing-qid": ("contexts", without("qid"), "missing field 'qid'"),
    "context-missing-vector": ("contexts", without("z"), "missing field 'z'"),
    "textfeat-bad-json": ("text_features", lambda obj: "[1, 2", "bad JSON: "),
    "textfeat-missing-qid": ("text_features", without("qid"), "missing field 'qid'"),
    "textfeat-missing-vector": ("text_features", without("p"), "missing field 'p'"),
    "textfeat-wrong-dimension": (
        "text_features", replaced("p", [1.0, 2.0]),
        "text feature for (q0001, ent_0007) has shape (2,), expected dimension 12",
    ),
    "query-answer-not-a-string": (
        "queries", replaced("answers", [[7, 1]]), "answer must be a string, got 7"
    ),
    "query-token-not-a-string": (
        "queries", replaced("question_tokens", [[3, "noun"]]), "token must be a string, got 3"
    ),
    "textfeat-entity-not-a-string": (
        "text_features", replaced("entity", 5), "entity must be a string, got 5"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSONL))
def test_malformed_jsonl_is_one_line_error(suite, tmp_path, capsys, case):
    root, out = suite
    key, edit, message = MALFORMED_JSONL[case]
    if key == "text_features":
        lines = [
            json.dumps({"qid": f"q000{i}", "entity": "ent_0007", "p": [0.5] * 12}) + "\n"
            for i in range(3)
        ]
    else:
        lines = (out / f"{key}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = edit(json.loads(lines[1])) + "\n"
    bad = tmp_path / f"{key}.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    extra = ["--set", f"{key}={bad}"]
    rc = main(["train", *run_args(tmp_path / "o", out), *extra])
    assert rc == 1
    (line,) = error_lines(capsys)
    assert line.startswith(f"error: {bad}:2: {message}")


@pytest.fixture(scope="module")
def schema_dump(suite):
    root, out = suite
    assert main(["schema", *run_args(root / "dump", out)]) == 0
    return root / "dump" / "schema_graphs.jsonl"


def json_edit(edit):
    return lambda line: edit(json.loads(line))


def one_edge(weight):
    """A dump-record edit to the graph of one edge, ent_0000 -antonym->
    ent_0001, of weight ``weight``, rooted at ent_0000."""
    graph = {"nodes": [["ent_0000", "Q"], ["ent_0001", "N1"]], "key_q": ["ent_0000"], "key_v": [],
             "gt": [], "edges": [["ent_0000", "antonym", "ent_0001", weight]]}
    return json_edit(lambda obj: json.dumps({**obj, **graph}))


def not_utf8(line):
    return b"\xff" + line.encode("utf-8")


def npz_edit(change):
    """An edit of a saved index's ``adjacency.npz`` bytes: ``change`` mutates
    the dict of its arrays."""

    def edit(data):
        with np.load(io.BytesIO(data)) as f:
            arrays = dict(f)
        change(arrays)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    return edit


def paired_rows(arrays):
    """The first row index i whose next row i + 1 belongs to the same entity."""
    offsets = arrays["offsets"]
    return int(offsets[np.flatnonzero(np.diff(offsets) >= 2)[0]])


def repeat_row(arrays):
    i = paired_rows(arrays)
    for name in ("nbr", "rel"):
        arrays[name][i + 1] = arrays[name][i]


def swap_rows(arrays):
    i = paired_rows(arrays)
    for name in ("nbr", "rel", "weight"):
        arrays[name][[i, i + 1]] = arrays[name][[i + 1, i]]


def dropping(marker):
    """A whole-file edit that drops every line holding ``marker``."""
    return lambda data: b"".join(l for l in data.splitlines(True) if marker not in l)


def each_line(edit):
    """A whole-file edit that applies the line edit ``edit`` to every line."""
    return lambda data: b"".join(edit(l.decode("utf-8")).encode("utf-8") + b"\n"
                                 for l in data.splitlines())


def shortened(n):
    """A context edit that keeps the first ``n`` values of z, v and t."""
    return lambda obj: json.dumps({**obj, **{key: obj[key][:n] for key in "zvt"}})


@pytest.fixture(scope="module")
def good_inputs(suite, schema_dump):
    """A well-formed file for each input that MALFORMED_INPUT edits."""
    root, out = suite
    extra = root / "inputs"
    extra.mkdir()
    (extra / "synonyms.tsv").write_text(
        "# surface -> entity\nent_0001\tent_0002\n", encoding="utf-8"
    )
    (extra / "text_features.jsonl").write_text(
        "".join(
            json.dumps({"qid": f"q000{i}", "entity": "ent_0007", "p": [0.5] * 12}) + "\n"
            for i in range(3)
        ),
        encoding="utf-8",
    )
    (extra / "paths.jsonl").write_text(
        "".join(
            json.dumps({"qid": f"q000{i}", "paths": [[["ent_0000", "isa", "ent_0001"], 0.5]]})
            + "\n"
            for i in range(3)
        ),
        encoding="utf-8",
    )
    ScoringModel(12, 12, 3, dropout_rate=0.5, seed=0).save_checkpoint(extra / "checkpoint.gpr")
    assert main(["build-index", *run_args(root / "bi_inputs", out), "--out", str(extra / "index")]) == 0
    return {
        "config": out / "suite.config",
        "kg_edges": out / "kg_edges.tsv",
        "relations": out / "relations.txt",
        "synonyms": extra / "synonyms.tsv",
        "entity_embeddings": out / "entity_embeddings.tsv",
        "contexts": out / "contexts.jsonl",
        "queries": out / "queries.jsonl",
        "text_features": extra / "text_features.jsonl",
        "schemas": schema_dump,
        "dump": schema_dump,
        "paths": extra / "paths.jsonl",
        "checkpoint": extra / "checkpoint.gpr",
        "index_entities": extra / "index" / "entities.txt",
        "index_arrays": extra / "index" / "adjacency.npz",
    }


def input_args(key, bad, good_inputs):
    """The flags that hand ``bad`` to a command as input ``key``."""
    if key == "config":
        return ["--config", str(bad)]
    if key == "schemas":  # the dump is read before a checkpoint is needed
        return ["--schemas", str(bad)]
    if key == "dump":
        return ["--dump", str(bad), "--qid", "q0002"]
    if key == "paths":
        return ["--dump", str(good_inputs["dump"]), "--qid", "q0002", "--paths", str(bad)]
    if key == "checkpoint":
        return ["--checkpoint", str(bad)]
    if key.startswith("index_"):  # one file of a saved index, beside good copies of the rest
        for other in good_inputs[key].parent.iterdir():
            if not (bad.parent / other.name).exists():
                shutil.copy(other, bad.parent)
        return ["--set", f"kg_index={bad.parent}"]
    return ["--set", f"{key}={bad}"]


def flag_args(flag, value, tmp_path, good_inputs):
    """The flags that hand a command ``value`` for ``flag``."""
    if flag == "--set":
        return [flag, value]
    if flag == "--max-paths":
        return ["--dump", str(good_inputs["dump"]), flag, value]
    return ["--out", str(tmp_path / "suite"), flag, value]  # a synth flag


# (command, input, line, edit, message after "error: <path>:<line>: "). With
# a line, the edit maps that line's text to its replacement; with None it maps
# the whole file's bytes, and the error names the file alone. An input that is
# a flag ("--set", "--max-paths" or a synth flag) takes the edit as its value, and the error
# names no file. A command may carry flags of its own after its name.
MALFORMED_INPUT = {
    "config-unknown-key": (
        "schema", "config", 2, lambda line: "no_such_key = 1",
        "unknown configuration key 'no_such_key'",
    ),
    "config-not-utf8": ("schema", "config", 2, not_utf8, "not UTF-8 text"),
    "kg_edges-field-count": (
        "schema", "kg_edges", 2, lambda line: "broken line",
        "expected 4 tab-separated fields, got 1",
    ),
    "kg_edges-bad-weight": (
        "schema", "kg_edges", 2, lambda line: line.rsplit("\t", 1)[0] + "\tnan",
        "weight 'nan' is not a non-negative real",
    ),
    "kg_edges-not-utf8": ("schema", "kg_edges", 2, not_utf8, "not UTF-8 text"),
    "relations-duplicate": (
        "schema", "relations", 2, lambda line: "antonym", "duplicate relation name 'antonym'"
    ),
    "relations-reversed": (
        "schema", "relations", 2, lambda line: "rev_" + line,
        "reversed relation 'rev_atlocation' may not be listed explicitly",
    ),
    "relations-empty": (
        "schema", "relations", None, lambda data: b"# no relations\n",
        "relation table needs at least one relation",
    ),
    "relations-not-utf8": ("schema", "relations", 2, not_utf8, "not UTF-8 text"),
    "synonyms-field-count": (
        "schema", "synonyms", 2, lambda line: line + "\tx", "expected 2 tab-separated fields, got 3"
    ),
    "synonyms-not-utf8": ("schema", "synonyms", 2, not_utf8, "not UTF-8 text"),
    "entity_embeddings-ragged": (
        "train", "entity_embeddings", 2, lambda line: line.rsplit(" ", 1)[0],
        "entity 'ent_0001': expected 12 values, got 11",
    ),
    "entity_embeddings-not-utf8": ("train", "entity_embeddings", 2, not_utf8, "not UTF-8 text"),
    "contexts-dimension": (
        "train", "contexts", 2, json_edit(replaced("v", [1.0])),
        "q0001: context vectors disagree on dimension",
    ),
    "contexts-not-utf8": ("train", "contexts", 2, not_utf8, "not UTF-8 text"),
    "contexts-mixed-dimensions": (
        "train", "contexts", 2, json_edit(shortened(8)),
        "q0001: dimension 8 differs from the first row's 12",
    ),
    "contexts-dimension-not-d": (
        "eval", "contexts", None, each_line(json_edit(shortened(8))),
        "vectors have dimension 8, but the config sets d = 12",
    ),
    "contexts-z-bool": (
        "train", "contexts", 2, json_edit(replaced("z", [True] + [0.5] * 11)),
        "an entry of z must be a number, got True",
    ),
    "contexts-t-strings": (
        "train", "contexts", 2, json_edit(replaced("t", ["0.5"] * 12)),
        "an entry of t must be a number, got '0.5'",
    ),
    "contexts-v-not-a-list": (
        "train", "contexts", 2, json_edit(replaced("v", {"0": 0.5})),
        "v must be a list of numbers, got {'0': 0.5}",
    ),
    "contexts-z-too-large": (
        "train", "contexts", 2, json_edit(replaced("z", [10**400] + [0.5] * 11)),
        "an entry of z is too large for a float64: an integer of 401 digits",
    ),
    "contexts-duplicate-qid": (
        "train", "contexts", 2, json_edit(replaced("qid", "q0000")), "duplicate qid 'q0000'"
    ),
    "queries-answer-count": (
        "train", "queries", 2, json_edit(replaced("answers", [["ent_0023", 0]])),
        "q0001: answer count must be >= 1",
    ),
    "queries-answer-count-fraction": (
        "train", "queries", 2, json_edit(replaced("answers", [["ent_0023", 2.7]])),
        "answer count must be an integer, got 2.7",
    ),
    "queries-answer-count-bool": (
        "train", "queries", 2, json_edit(replaced("answers", [["ent_0023", True]])),
        "answer count must be an integer, got True",
    ),
    "queries-answer-count-string": (
        "train", "queries", 2, json_edit(replaced("answers", [["ent_0023", "3"]])),
        "answer count must be an integer, got '3'",
    ),
    "queries-answer-count-too-large": (
        "train", "queries", 2, json_edit(replaced("answers", [["ent_0023", 10**400]])),
        "answer count is too large for a float64: an integer of 401 digits",
    ),
    "queries-label-confidence-bool": (
        "train", "queries", 2, json_edit(replaced("scene_labels", [["ent_0023", True]])),
        "label confidence must be a number, got True",
    ),
    "queries-triplet-confidence-string": (
        "train", "queries", 2,
        json_edit(replaced("scene_triplets", [["ent_0023", "has", "ent_0024", "0.5"]])),
        "triplet confidence must be a number, got '0.5'",
    ),
    "queries-not-utf8": ("train", "queries", 2, not_utf8, "not UTF-8 text"),
    "queries-duplicate-qid": (
        "train", "queries", 2, json_edit(replaced("qid", "q0000")), "duplicate qid 'q0000'"
    ),
    "queries-split": (
        "train", "queries", 2, json_edit(replaced("split", "tset")),
        "q0001: split must be train or test, got 'tset'",
    ),
    "text_features-missing-entity": (
        "train", "text_features", 2, json_edit(without("entity")), "missing field 'entity'"
    ),
    "text_features-not-utf8": ("train", "text_features", 2, not_utf8, "not UTF-8 text"),
    "text_features-bool": (
        "train", "text_features", 2, json_edit(replaced("p", [0.5] * 11 + [False])),
        "an entry of p must be a number, got False",
    ),
    "text_features-too-large": (
        "train", "text_features", 2, json_edit(replaced("p", [0.5] * 11 + [-(10**400)])),
        "an entry of p is too large for a float64: an integer of 401 digits",
    ),
    "text_features-non-finite": (
        "train", "text_features", 2, json_edit(replaced("p", [0.5] * 11 + [float("nan")])),
        "text feature for (q0001, ent_0007) has a non-finite value",
    ),
    "prune-bad-json": ("prune", "schemas", 2, lambda line: line[:-1], "bad JSON: "),
    "prune-missing-key": (
        "prune", "schemas", 2, json_edit(without("key_q")), "missing field 'key_q'"
    ),
    "prune-unknown-entity": (
        "prune", "schemas", 2, json_edit(replaced("key_v", ["nowhere"])),
        "unknown entity 'nowhere'",
    ),
    "prune-unknown-gt": (
        "prune", "schemas", 2, json_edit(replaced("gt", ["nowhere"])),
        "unknown entity 'nowhere'",
    ),
    "prune-unknown-relation": (
        "prune", "schemas", 2,
        json_edit(lambda obj: json.dumps(
            {**obj, "edges": [[h, "mystery", t, w] for h, _, t, w in obj["edges"]]}
        )),
        "unknown relation 'mystery'",
    ),
    "prune-not-utf8": ("prune", "schemas", 2, not_utf8, "not UTF-8 text"),
    "prune-edge-endpoint-not-a-node": (
        "prune", "schemas", 2,
        json_edit(lambda obj: json.dumps(
            {**obj, "nodes": [n for n in obj["nodes"] if n[0] != obj["edges"][0][0]]}
        )),
        "edge endpoint 'ent_0001' is not a listed node",
    ),
    "prune-node-twice": (
        "prune", "schemas", 2,
        json_edit(lambda obj: json.dumps({**obj, "nodes": obj["nodes"] + obj["nodes"][:1]})),
        "node 'ent_0024' is listed twice",
    ),
    "prune-key-not-a-node": (
        "prune", "schemas", 2, json_edit(replaced("key_v", ["ent_0000"])),
        "key node 'ent_0000' is not a listed node",
    ),
    "prune-no-key-node": (
        "prune", "schemas", 2,
        json_edit(lambda obj: json.dumps({**obj, "key_q": [], "key_v": []})), "no key node",
    ),
    "prune-edge-twice": (
        "prune", "schemas", 2,
        json_edit(lambda obj: json.dumps({**obj, "edges": obj["edges"] + obj["edges"][:1]})),
        "edge ('ent_0001', 'relatedto', 'ent_0064') is listed twice",
    ),
    "prune-weight-string": (
        "prune", "schemas", 2, one_edge("nan"),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') must be a number, got 'nan'",
    ),
    "prune-weight-nan": (
        "prune", "schemas", 2, one_edge(float("nan")),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') is nan, not a non-negative real",
    ),
    "prune-weight-too-large": (
        "prune", "schemas", 2, one_edge(10**400),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') is too large for a float64: "
        "an integer of 401 digits",
    ),
    "prune-duplicate-qid": (
        "prune", "schemas", 2, json_edit(replaced("qid", "q0000")), "duplicate qid 'q0000'"
    ),
    "export-dot-dump-bad-json": ("export-dot", "dump", 2, lambda line: line[:-1], "bad JSON: "),
    "export-dot-dump-missing-nodes": (
        "export-dot", "dump", 2, json_edit(without("nodes")), "missing field 'nodes'"
    ),
    "export-dot-dump-not-utf8": ("export-dot", "dump", 2, not_utf8, "not UTF-8 text"),
    "export-dot-dump-node-twice": (
        "export-dot", "dump", 2,
        json_edit(lambda obj: json.dumps({**obj, "nodes": obj["nodes"] + obj["nodes"][:1]})),
        "node 'ent_0024' is listed twice",
    ),
    "export-dot-dump-edge-twice": (
        "export-dot", "dump", 2,
        json_edit(lambda obj: json.dumps({**obj, "edges": obj["edges"] + obj["edges"][:1]})),
        "edge ('ent_0001', 'relatedto', 'ent_0064') is listed twice",
    ),
    "export-dot-dump-edge-endpoint-not-a-node": (
        "export-dot", "dump", 2,
        json_edit(lambda obj: json.dumps(
            {**obj, "nodes": [n for n in obj["nodes"] if n[0] != obj["edges"][0][0]]}
        )),
        "edge endpoint 'ent_0001' is not a listed node",
    ),
    "export-dot-dump-key-not-a-node": (
        "export-dot", "dump", 2, json_edit(replaced("key_v", ["ent_0000"])),
        "key node 'ent_0000' is not a listed node",
    ),
    "export-dot-dump-no-key-node": (
        "export-dot", "dump", 2,
        json_edit(lambda obj: json.dumps({**obj, "key_q": [], "key_v": []})), "no key node",
    ),
    "export-dot-dump-unknown-node-type": (
        "export-dot", "dump", 2,
        json_edit(lambda obj: json.dumps({**obj, "nodes": [[s, "N3"] for s, _ in obj["nodes"]]})),
        "unknown node type 'N3'",
    ),
    "export-dot-dump-weight-string": (
        "export-dot", "dump", 2, one_edge("nan"),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') must be a number, got 'nan'",
    ),
    "export-dot-dump-weight-bool": (
        "export-dot", "dump", 2, one_edge(True),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') must be a number, got True",
    ),
    "export-dot-dump-weight-nan": (
        "export-dot", "dump", 2, one_edge(float("nan")),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') is nan, not a non-negative real",
    ),
    "export-dot-dump-weight-negative": (
        "export-dot", "dump", 2, one_edge(-0.5),
        "the weight of edge ('ent_0000', 'antonym', 'ent_0001') is -0.5, not a non-negative real",
    ),
    "export-dot-dump-duplicate-qid": (
        "export-dot", "dump", 2, json_edit(replaced("qid", "q0000")), "duplicate qid 'q0000'"
    ),
    "export-dot-paths-bad-json": (
        "export-dot", "paths", 2, lambda line: line[:-1], "bad JSON: "
    ),
    "export-dot-paths-not-utf8": ("export-dot", "paths", 2, not_utf8, "not UTF-8 text"),
    "export-dot-paths-path-a-string": (
        "export-dot", "paths", 2, json_edit(replaced("paths", [["abc", 0.5]])),
        "a path must list node, relation, node, ..., got 'abc'",
    ),
    "export-dot-paths-path-one-step-short": (
        "export-dot", "paths", 2, json_edit(replaced("paths", [[["ent_0000", "isa"], 0.5]])),
        "a path must list node, relation, node, ..., got ['ent_0000', 'isa']",
    ),
    "export-dot-paths-trailing-relation": (
        "export-dot", "paths", 2,
        json_edit(replaced("paths", [[["ent_0000", "isa", "ent_0001", "isa"], 0.5]])),
        "a path must list node, relation, node, ..., got ['ent_0000', 'isa', 'ent_0001', 'isa']",
    ),
    "export-dot-paths-step-not-a-string": (
        "export-dot", "paths", 2, json_edit(replaced("paths", [[["ent_0000", 3, "ent_0001"], 0.5]])),
        "a path's node or relation must be a string, got 3",
    ),
    "export-dot-paths-score-bool": (
        "export-dot", "paths", 2,
        json_edit(replaced("paths", [[["ent_0000", "isa", "ent_0001"], True]])),
        "a path's score must be a number, got True",
    ),
    "export-dot-dump-empty": (
        "export-dot", "dump", None, lambda data: b"", "holds no graph record",
    ),
    "export-dot-max-paths-negative": (
        "export-dot", "--max-paths", None, "-1", "--max-paths must be >= 0, got -1"
    ),
    "checkpoint-truncated-header": (
        "eval", "checkpoint", None, lambda data: data[:6], "truncated header"
    ),
    "checkpoint-non-finite": (
        "eval", "checkpoint", None,
        lambda data: data[:16] + np.array([np.nan], dtype="<f4").tobytes() + data[20:],
        "non-finite value in parameter f_n.hidden.W",
    ),
    "set-int-not-a-number": (
        "schema", "--set", None, "k=abc",
        "--set k: invalid literal for int() with base 10: 'abc'",
    ),
    "set-curve-budgets-not-numbers": (
        "schema", "--set", None, "curve_budgets=a,b",
        "--set curve_budgets: invalid literal for int() with base 10: 'a'",
    ),
    "set-closed-budget-zero": (
        "schema --mode closed", "--set", None, "closed_budget=0",
        "dimensions and budgets must be positive",
    ),
    "set-one-hop-cap-negative": (
        "schema", "--set", None, "one_hop_cap=-1", "one_hop_cap and epoch counts must be >= 0"
    ),
    "set-ptm-mode-unknown": (
        "train", "--set", None, "ptm_mode=zero",
        "--set ptm_mode: unknown configuration key 'ptm_mode'",
    ),
    "set-schema-budget-below-key-count": (
        "schema", "--set", None, "schema_budget=1", "q0000: budget 1 cannot hold the 2 key nodes"
    ),
    "set-prune-target-below-key-count": (
        "train", "--set", None, "prune_target=1",
        "q0000: prune target 1 cannot hold the 2 key nodes",
    ),
    "set-lr-nan": ("train", "--set", None, "lr=nan", "lr must be finite and > 0, got nan"),
    "set-margin-negative": (
        "train", "--set", None, "margin=-0.5", "margin must be finite and >= 0, got -0.5"
    ),
    "set-curve-budgets-zero": (
        "schema", "--set", None, "curve_budgets=0,30,60", "curve_budgets must be >= 1"
    ),
    "synth-hop-mix-negative-weight": (
        "synth", "--hop-mix", None, "1:-1,2:2",
        "--hop-mix 1:-1,2:2: hop_mix weights must be finite and >= 0",
    ),
    "synth-alignment-above-one": (
        "synth", "--alignment", None, "2", "alignment must lie in [0, 1], got 2.0"
    ),
    "synth-no-entities": (
        "synth", "--n-entities", None, "0", "n_entities must be >= 4 for 2 key nodes, got 0"
    ),
    "synth-negative-question-keys": (
        "synth", "--question-keys", None, "-1", "n_question_keys must be >= 0, got -1"
    ),
    "synth-no-key-nodes": (
        "synth --visual-keys 0", "--question-keys", None, "0",
        "n_question_keys + n_visual_keys must be >= 1",
    ),
    "synth-no-training-query": (
        "synth", "--train-fraction", None, "0",
        "train_fraction must lie in [0, 1] and leave at least one of the 250 queries for "
        "training, got 0.0",
    ),
    "synth-train-fraction-above-one": (
        "synth", "--train-fraction", None, "1.5",
        "train_fraction must lie in [0, 1] and leave at least one of the 250 queries for "
        "training, got 1.5",
    ),
    "synth-hop-mix-not-a-number": (
        "synth", "--hop-mix", None, "x:1",
        "--hop-mix x:1: invalid literal for int() with base 10: 'x'",
    ),
    "synth-hop-mix-unsupported-hop": (
        "synth", "--hop-mix", None, "3:1",
        "--hop-mix 3:1: hop_mix supports hop distances 1 and 2 only",
    ),
    "infer-no-context": (
        "infer --qid q0002", "contexts", None, dropping(b'"q0002"'),
        "no query context for qid 'q0002'",
    ),
    "index-entities-not-utf8": ("schema", "index_entities", 2, not_utf8, "not UTF-8 text"),
    "index-entity-count": (
        "schema", "index_entities", None, dropping(b"ent_0149"),
        "149 entities, but the arrays hold 150",
    ),
    "index-arrays-truncated": (
        "schema", "index_arrays", None, lambda data: data[: len(data) // 2],
        "unreadable index arrays",
    ),
    "index-array-lengths": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a.update(rel=a["rel"][:-1])),
        "nbr, rel and weight differ in length",
    ),
    "index-offsets-not-monotone": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a["offsets"].__setitem__(5, a["offsets"][6] + 1)),
        "offsets are not monotone from 0",
    ),
    "index-offsets-end": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a.update(offsets=np.append(a["offsets"][:-1], a["offsets"][-1] - 1))),
        "offsets end at",
    ),
    "index-neighbour-range": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a["nbr"].__setitem__(0, 150)),
        "a neighbour id lies outside 0..149",
    ),
    "index-neighbour-dtype": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a.update(nbr=a["nbr"].astype(np.float64))),
        "offsets, nbr and rel must be integer arrays and weight a float array",
    ),
    "index-weight-non-finite": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a["weight"].__setitem__(0, np.nan)),
        "a weight is not a non-negative real",
    ),
    "index-relation-range": (
        "schema", "index_arrays", None,
        npz_edit(lambda a: a["rel"].__setitem__(0, 42)),
        "a relation id lies outside 0..41",
    ),
    "index-row-repeated": (
        "schema", "index_arrays", None, npz_edit(repeat_row),
        "an entity's rows are not strictly increasing by (neighbour, relation)",
    ),
    "index-rows-unsorted": (
        "schema", "index_arrays", None, npz_edit(swap_rows),
        "an entity's rows are not strictly increasing by (neighbour, relation)",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT))
def test_malformed_input_is_one_line_error(suite, good_inputs, tmp_path, capsys, case):
    root, out = suite
    command, key, lineno, edit, message = MALFORMED_INPUT[case]
    if key.startswith("--"):
        args, prefix = flag_args(key, edit, tmp_path, good_inputs), "error: "
    else:
        source = good_inputs[key]
        bad = tmp_path / source.name
        data = source.read_bytes()
        if lineno is None:
            data = edit(data)
            where = f"{bad}"
        else:
            lines = data.splitlines(keepends=True)
            new = edit(lines[lineno - 1].decode("utf-8").rstrip("\n"))
            lines[lineno - 1] = (new if isinstance(new, bytes) else new.encode("utf-8")) + b"\n"
            data = b"".join(lines)
            where = f"{bad}:{lineno}"
        bad.write_bytes(data)
        args, prefix = input_args(key, bad, good_inputs), f"error: {where}: "
    capsys.readouterr()
    name, *own = command.split()
    rc = main([name, *run_args(tmp_path / "o", out), *own, *args])
    assert rc == 1
    (line,) = error_lines(capsys)
    assert line.startswith(prefix + message)


# (command, input) handed a directory where a file belongs
DIRECTORY_INPUT = {
    "config": ("schema", "config"),
    "checkpoint": ("eval", "checkpoint"),
    "jsonl": ("schema", "queries"),
    "export-dot-dump": ("export-dot", "dump"),
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_INPUT))
def test_input_that_is_a_directory_is_one_line_error(suite, good_inputs, tmp_path, capsys, case):
    root, out = suite
    command, key = DIRECTORY_INPUT[case]
    bad = tmp_path / "a_directory"
    bad.mkdir()
    capsys.readouterr()
    rc = main([command, *run_args(tmp_path / "o", out), *input_args(key, bad, good_inputs)])
    assert rc == 1
    (line,) = error_lines(capsys)
    assert line.startswith("error: ") and str(bad) in line


@pytest.mark.parametrize("n_entities", [2, 3])
def test_suite_too_small_for_its_key_nodes_is_refused(tmp_path, n_entities):
    """Two keys, an answer and a second answer need four distinct entities;
    with fewer the key draw or the second-answer draw would never end."""
    with pytest.raises(ValueError, match=f"n_entities must be >= 4 for 2 key nodes, got {n_entities}"):
        SuiteSpec(n_entities=n_entities, n_edges=10, n_queries=5)
    manifest = generate_suite(tmp_path, SuiteSpec(n_entities=4, n_edges=10, n_queries=5, dim=4))
    assert manifest["counts"]["entities"] == 4


def test_prune_target_below_key_count_fails_before_any_epoch(suite, tmp_path, capsys):
    root, out = suite
    train_out = tmp_path / "train"
    capsys.readouterr()
    rc = main(["train", *run_args(train_out, out, ["--set", "prune_target=1"])])
    assert rc == 1
    metrics = train_out / "metrics.jsonl"
    assert not metrics.exists() or metrics.read_text() == ""  # no epoch ran
    (line,) = error_lines(capsys)
    assert line == "error: q0000: prune target 1 cannot hold the 2 key nodes"


# the files each command reads besides the graph, with the suite's config
COMMAND_INPUTS = {
    "schema": {"queries"},
    "train": {"queries", "entity_embeddings", "contexts"},
    "eval": {"queries", "entity_embeddings", "contexts", "checkpoint"},
    "prune": {"entity_embeddings", "contexts", "checkpoint", "schemas"},
}
INDEX_FILES = ("entities.txt", "relations.txt", "adjacency.npz")


@pytest.mark.parametrize("command", sorted(COMMAND_INPUTS))
@pytest.mark.parametrize("route", ["edges", "index", "edges+synonyms+text_features"])
def test_manifest_hashes_exactly_the_files_read(suite, good_inputs, tmp_path, route, command):
    """The index route reads (and hashes) the index's three files, never the
    edge file the config also names; synonyms are read by every command, and
    text features, when set, by the commands with vectors."""
    root, out = suite
    index = good_inputs["index_arrays"].parent
    files = {f"kg_index/{name}": index / name for name in INDEX_FILES}
    files.update(good_inputs)
    extra = []
    if command in ("eval", "prune"):
        extra += ["--checkpoint", str(files["checkpoint"])]
    if command == "prune":
        extra += ["--schemas", str(files["schemas"])]
    want = set(COMMAND_INPUTS[command])
    if route == "index":
        extra += ["--set", f"kg_index={index}"]
        want |= {f"kg_index/{name}" for name in INDEX_FILES}
    else:
        want |= {"kg_edges", "relations"}
    if route == "edges+synonyms+text_features":
        extra += ["--set", f"synonyms={files['synonyms']}"]
        extra += ["--set", f"text_features={files['text_features']}"]
        want |= {"synonyms"} | ({"text_features"} if command != "schema" else set())
    assert main([command, *run_args(tmp_path, out, extra)]) == 0
    inputs = json.loads((tmp_path / "manifest.json").read_text())["inputs"]
    assert set(inputs) == want
    assert inputs == {key: sha256_file(files[key]) for key in want}
    assert ("kg_edges" in inputs) == (route != "index")


def test_failed_training_leaves_no_output(suite, tmp_path, monkeypatch, capsys):
    """A train that fails in its joint phase leaves no ``metrics.jsonl`` of
    the finished prune epochs, and no ``.tmp`` file."""
    root, out = suite

    def fail(*args, **kwargs):
        raise InputError(msg="joint step failed")

    monkeypatch.setattr(paths, "train_joint_step", fail)
    train_out = tmp_path / "train"
    assert main(["train", *run_args(train_out, out)]) == 1
    assert error_lines(capsys) == ["error: joint step failed"]
    assert list(train_out.iterdir()) == []


def test_infer_out_appends_atomically(suite, good_inputs, tmp_path, monkeypatch, capsys):
    """``infer --out`` adds one line per run; a write that fails before its
    rename is a one-line error and leaves the earlier lines as they were, and
    no ``.tmp`` file."""
    root, out = suite
    dest = tmp_path / "infer.jsonl"
    args = [
        "infer", *run_args(tmp_path / "o", out),
        "--checkpoint", str(good_inputs["checkpoint"]),
        "--qid", "q0001",
        "--out", str(dest),
    ]
    assert main(args) == 0 and main(args) == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert json.loads(lines[0])["qid"] == "q0001"

    def fail(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", fail)
    assert main(args) == 1
    assert error_lines(capsys) == ["error: disk gone"]
    assert dest.read_text(encoding="utf-8").splitlines() == lines
    assert list(tmp_path.iterdir()) == [dest]


def test_infer_out_ends_an_unended_last_line(suite, good_inputs, tmp_path):
    """An ``--out`` file whose last line has no ending keeps that line whole,
    and the new record goes on a line of its own."""
    root, out = suite
    dest = tmp_path / "infer.jsonl"
    dest.write_text('{"qid": "q0"}', encoding="utf-8")
    args = [
        "infer", *run_args(tmp_path / "o", out),
        "--checkpoint", str(good_inputs["checkpoint"]),
        "--qid", "q0001",
        "--out", str(dest),
    ]
    assert main(args) == 0
    first, second = dest.read_text(encoding="utf-8").splitlines()
    assert first == '{"qid": "q0"}'
    assert json.loads(second)["qid"] == "q0001"


def test_synth_leaves_unset_flags_to_the_suite_spec(tmp_path):
    """``synth`` with only size flags writes what ``generate_suite`` writes
    for a ``SuiteSpec`` of those sizes: its params and its file digests."""
    sizes = {"n_entities": 60, "n_edges": 200, "n_queries": 12}
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in sizes.items()]
    assert main(["synth", "--out", str(tmp_path / "cli"), *flags]) == 0
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text(encoding="utf-8"))
    want = generate_suite(tmp_path / "lib", SuiteSpec(**sizes))
    assert manifest["params"] == want["params"]
    assert manifest["files"] == want["files"]


def test_readme_defaults_are_the_run_config():
    """The README's ``key=value`` defaults list names every config key that
    is not a path, each with ``RunConfig``'s default."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    text = readme.split("Key hyperparameters and their defaults:", 1)[1].split("\n\n", 1)[0]
    listed = dict(re.findall(r"`(\w+)=([^`]*)`", text))
    default = RunConfig()
    keys = {
        f.name for f in dataclasses.fields(RunConfig)
        if f.default is not None and not isinstance(f.default, Path)
    }
    assert set(listed) == keys
    for key, raw in listed.items():
        cfg = RunConfig()
        cfg.set_field(key, raw)
        assert getattr(cfg, key) == getattr(default, key), key


def test_prune_keeps_a_numeric_dump_qid_as_a_string(suite, good_inputs, tmp_path):
    """A dump record with ``"qid": 5`` is question "5", whose context the
    contexts file lists under the string "5"."""
    root, out = suite
    record = json.loads(good_inputs["schemas"].read_text(encoding="utf-8").splitlines()[0])
    context = json.loads((out / "contexts.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert record["qid"] == context["qid"]
    dump, contexts = tmp_path / "numqid.jsonl", tmp_path / "contexts.jsonl"
    dump.write_text(json.dumps({**record, "qid": 5}) + "\n", encoding="utf-8")
    contexts.write_text(json.dumps({**context, "qid": "5"}) + "\n", encoding="utf-8")
    extra = ["--set", f"contexts={contexts}", "--checkpoint", str(good_inputs["checkpoint"]),
             "--schemas", str(dump)]
    assert main(["prune", *run_args(tmp_path / "o", out, extra)]) == 0
    lines = (tmp_path / "o" / "pruned_graphs.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["qid"] for line in lines] == ["5"]


def test_export_dot_finds_a_numeric_dump_qid(tmp_path):
    """``--qid 5`` names the dump record with ``"qid": 5``, and a paths record
    with ``"qid": 5`` is overlaid on it."""
    dump = {
        "qid": 5,
        "nodes": [["alpha", "Q"], ["beta", "N1"]],
        "edges": [["alpha", "isa", "beta", 1.0]],
        "key_q": ["alpha"],
        "key_v": [],
    }
    path = tmp_path / "numqid.jsonl"
    path.write_text(json.dumps(dump) + "\n")
    paths = tmp_path / "paths.jsonl"
    paths.write_text(json.dumps({"qid": 5, "paths": [[["alpha", "isa", "beta"], 0.5]]}) + "\n")
    out = tmp_path / "g.dot"
    args = ["export-dot", "--dump", str(path), "--qid", "5", "--paths", str(paths), "--out", str(out)]
    assert main(args) == 0
    assert '"alpha" -> "beta" [label="isa", color="#CC3311"' in out.read_text()


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


def test_export_dot_of_an_empty_dump_names_the_file(tmp_path, capsys):
    path = tmp_path / "dump.jsonl"
    path.write_text("# no record\n")
    assert main(["export-dot", "--dump", str(path)]) == 1
    assert error_lines(capsys) == [f"error: {path}: holds no graph record"]


def test_export_dot_overlays_the_last_record_of_a_qid(tmp_path):
    """``infer --out`` appends a record per run, so the paths drawn are the
    question's last record, not a stale earlier one."""
    dump = {
        "qid": "q1",
        "nodes": [["alpha", "Q"], ["beta", "N1"], ["gamma", "N1"]],
        "edges": [["alpha", "isa", "beta", 1.0], ["alpha", "partof", "gamma", 1.0]],
        "key_q": ["alpha"],
        "key_v": [],
    }
    path = tmp_path / "dump.jsonl"
    path.write_text(json.dumps(dump) + "\n")
    paths = tmp_path / "paths.jsonl"
    paths.write_text("".join(json.dumps(o) + "\n" for o in [
        {"qid": "q1", "paths": [[["alpha", "isa", "beta"], 0.5]]},
        {"qid": "q2", "paths": [[["alpha", "isa", "beta"], 0.5]]},
        {"qid": "q1", "paths": [[["alpha", "partof", "gamma"], 0.5]]},
    ]))
    out = tmp_path / "g.dot"
    assert main(["export-dot", "--dump", str(path), "--paths", str(paths), "--out", str(out)]) == 0
    text = out.read_text()
    assert '"alpha" -> "gamma" [label="partof", color="#CC3311"' in text
    assert '"alpha" -> "beta" [label="isa"];' in text


def test_export_dot_escapes_relation_labels():
    """A relation name holding a quote or a backslash is written as a DOT
    string, both on a dump edge and on a path edge the dump lacks."""
    rel, other = 'say "hi"', "back\\slash"
    dump = {
        "qid": "q1",
        "nodes": [["alpha", "Q"], ["beta", "N1"]],
        "edges": [["alpha", rel, "beta", 1.0]],
    }
    text = export_dot(dump, [(["beta", other, "alpha"], 0.5)], max_paths=5)
    assert '"alpha" -> "beta" [label="say \\"hi\\""];' in text
    assert '"beta" -> "alpha" [label="back\\\\slash", color=' in text
