import json
import re

import numpy as np
import pytest

from kgpath.config import InputError
from kgpath.embeddings import (
    QueryContext,
    TextFeatureProvider,
    load_contexts,
    load_entity_embeddings,
    planted_context,
)

from conftest import FakeTextFeatures, write_edges, write_relations
from kgpath.kg import load_graph


@pytest.fixture
def abc_graph(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [("a", "isa", "b", 1.0), ("b", "isa", "c", 1.0)],
    )
    return load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))


def write_embeddings(path, rows):
    path.write_text(
        "".join(f"{name}\t{' '.join(str(v) for v in vec)}\n" for name, vec in rows),
        encoding="utf-8",
    )
    return path


def test_loader_happy_path(tmp_path, abc_graph):
    path = write_embeddings(
        tmp_path / "emb.tsv",
        [("a", [1, 2, 3, 4]), ("b", [0, 0, 1, 0]), ("c", [5, 6, 7, 8])],
    )
    table = load_entity_embeddings(path, abc_graph)
    assert table.shape[1] == 4
    assert table.shape[0] == 3
    assert table[[abc_graph.entity_id("b")]][0].tolist() == [0, 0, 1, 0]


def test_loader_ragged_row_names_entity(tmp_path, abc_graph):
    path = write_embeddings(
        tmp_path / "emb.tsv", [("a", [1, 2, 3]), ("b", [1, 2]), ("c", [1, 2, 3])]
    )
    with pytest.raises(InputError, match="'b'"):
        load_entity_embeddings(path, abc_graph)


def test_loader_missing_entity(tmp_path, abc_graph):
    path = write_embeddings(tmp_path / "emb.tsv", [("a", [1.0]), ("b", [2.0])])
    with pytest.raises(InputError, match="'c'"):
        load_entity_embeddings(path, abc_graph)


def test_loader_non_finite(tmp_path, abc_graph):
    path = write_embeddings(
        tmp_path / "emb.tsv", [("a", [1.0]), ("b", ["inf"]), ("c", [1.0])]
    )
    with pytest.raises(InputError, match="non-finite"):
        load_entity_embeddings(path, abc_graph)


def test_loader_ignores_surfaces_outside_graph(tmp_path, abc_graph):
    path = write_embeddings(
        tmp_path / "emb.tsv",
        [("a", [1.0]), ("b", [1.0]), ("c", [1.0]), ("zebra", [9.0])],
    )
    assert load_entity_embeddings(path, abc_graph).shape[0] == 3


def test_context_loader(tmp_path):
    path = tmp_path / "ctx.jsonl"
    obj = {"qid": "q1", "z": [1.0, 0.0], "v": [0.0, 1.0], "t": [0.5, 0.5]}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    contexts = load_contexts(path)
    assert contexts["q1"].dim == 2
    assert contexts["q1"].v.tolist() == [0.0, 1.0]


def test_context_dimension_and_finiteness_validated():
    with pytest.raises(InputError, match="dimension"):
        QueryContext(qid="q", z=np.ones(3), v=np.ones(2), t=np.ones(3))
    with pytest.raises(InputError, match="non-finite"):
        QueryContext(qid="q", z=np.array([1.0, np.nan]), v=np.ones(2), t=np.ones(2))
    with pytest.raises(InputError, match="non-empty list"):
        QueryContext(qid="q", z=np.asarray(1.0), v=np.ones(1), t=np.ones(1))


def test_text_feature_zero_mode(abc_graph):
    """Without a file there is no text feature: every gather is None."""
    tf = TextFeatureProvider(dim=5, path=None, g=abc_graph)
    assert tf.gather("q", [3]) is None
    assert tf.gather("q", []) is None


def test_text_feature_file_mode_with_fallback(tmp_path, abc_graph):
    path = tmp_path / "tf.jsonl"
    path.write_text(
        json.dumps({"qid": "q1", "entity": "a", "p": [1.0, 0.0]}) + "\n", encoding="utf-8"
    )
    tf = TextFeatureProvider(dim=2, path=path, g=abc_graph)
    a, b = abc_graph.entity_id("a"), abc_graph.entity_id("b")
    rows = tf.gather("q1", [b, a])
    assert rows[1].tolist() == [1.0, 0.0]
    # absent pair -> a zero row
    assert rows[0].tolist() == [0.0, 0.0]
    # no listed pair, or no listed question -> no text feature
    assert tf.gather("q1", [b]) is None
    assert tf.gather("q2", [a, b]) is None


def test_text_feature_file_dim_mismatch(tmp_path, abc_graph):
    path = tmp_path / "tf.jsonl"
    path.write_text(
        json.dumps({"qid": "q1", "entity": "a", "p": [1.0, 0.0, 3.0]}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=re.escape(f"{path}:1: ") + ".*dimension"):
        TextFeatureProvider(dim=2, path=path, g=abc_graph)


def planted_suite(seed, g, planted, alignment, dim):
    """Unit-norm entity vectors and one ``planted_context`` per qid, drawn from
    one generator the way ``synth.generate_suite`` draws them, plus non-zero
    fake text features."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((g.n_entities, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    contexts = {
        qid: planted_context(rng, qid, matrix[sorted(planted[qid])], alignment)
        for qid in sorted(planted)
    }
    return matrix, contexts, FakeTextFeatures(dim, seed)


def test_planted_context_alignment_one_gives_unit_cosine(abc_graph):
    matrix, contexts, tf = planted_suite(5, abc_graph, {"q1": [1]}, alignment=1.0, dim=8)
    z = contexts["q1"].z
    e = matrix[1]
    cos = float(z @ e / (np.linalg.norm(z) * np.linalg.norm(e)))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_planted_context_alignment_zero_uncorrelated(abc_graph):
    planted = {f"q{i}": [i % 3] for i in range(10_000)}
    matrix, contexts, _ = planted_suite(6, abc_graph, planted, alignment=0.0, dim=64)
    cosines = []
    for qid, gts in planted.items():
        z = contexts[qid].z
        e = matrix[gts[0]]
        cosines.append(float(z @ e))
    assert abs(float(np.mean(cosines))) < 0.02


def test_planted_context_bit_identical_reruns(abc_graph):
    a = planted_suite(9, abc_graph, {"q": [0, 2]}, alignment=0.5, dim=12)
    b = planted_suite(9, abc_graph, {"q": [0, 2]}, alignment=0.5, dim=12)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1]["q"].z, b[1]["q"].z)
    assert np.array_equal(a[2].gather("q", [1]), b[2].gather("q", [1]))


def test_planted_context_validates_alignment():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="alignment"):
        planted_context(rng, "q", np.ones((1, 4)), alignment=1.5)


@pytest.mark.skipif(
    not __import__("os").environ.get("KGPATH_BIGSCALE"),
    reason="set KGPATH_BIGSCALE=1 to load a 516,782 x 300 embedding table",
)
def test_full_scale_embedding_table(tmp_path):
    import time

    from kgpath.synth import SuiteSpec, generate_suite

    out = tmp_path / "big"
    generate_suite(
        out,
        SuiteSpec(seed=2, n_entities=516_782, n_edges=1_600_000, n_queries=5, dim=300),
    )
    g = load_graph(out / "kg_edges.tsv", out / "relations.txt")
    t0 = time.time()
    table = load_entity_embeddings(out / "entity_embeddings.tsv", g)
    assert table.shape[0] == 516_782
    assert table.shape[1] == 300
    print(f"full-scale embedding load: {time.time() - t0:.1f}s")
