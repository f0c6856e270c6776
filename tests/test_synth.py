import hashlib
import json
from collections import deque

import numpy as np
import pytest

from kgpath.kg import load_graph
from kgpath.linking import ground_truth_ids, load_queries
from kgpath.synth import SuiteSpec, generate_suite


def file_hashes(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    spec = SuiteSpec(seed=11, n_entities=200, n_edges=900, n_queries=40, dim=16)
    manifest = generate_suite(out, spec)
    return out, spec, manifest


def test_regeneration_is_byte_identical(tmp_path, small_suite):
    _, spec, _ = small_suite
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_suite(a, SuiteSpec(**{**spec.__dict__, "hop_mix": dict(spec.hop_mix)}))
    generate_suite(b, SuiteSpec(**{**spec.__dict__, "hop_mix": dict(spec.hop_mix)}))
    assert file_hashes(a) == file_hashes(b)


def test_manifest_counts_match_files(small_suite):
    out, spec, manifest = small_suite
    counts = manifest["counts"]
    assert counts["entities"] == spec.n_entities
    assert counts["train"] + counts["test"] == spec.n_queries
    with open(out / "kg_edges.tsv") as fh:
        n_lines = sum(1 for _ in fh)
    assert n_lines == counts["edges_written"] >= spec.n_edges
    assert len(load_queries(out / "queries.jsonl")) == spec.n_queries
    # manifest digests are accurate
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_all_entities_present_and_weights_dyadic(small_suite):
    out, spec, _ = small_suite
    g = load_graph(out / "kg_edges.tsv", out / "relations.txt")
    assert g.n_entities == spec.n_entities
    with open(out / "kg_edges.tsv") as f:
        for line in f:
            w = float(line.rsplit("\t", 1)[1])
            assert (w * 4) == int(w * 4)  # exact dyadic grid


def test_planted_gt_within_hop_bound(small_suite):
    out, spec, manifest = small_suite
    g = load_graph(out / "kg_edges.tsv", out / "relations.txt")
    records = load_queries(out / "queries.jsonl")
    bound = manifest["hop_bound"]
    for rec in records:
        keys = set()
        for tok, pos_tag in rec.question_tokens:
            eid = g.match_entity(tok)
            if eid is not None and pos_tag == "noun":
                keys.add(eid)
        for label, _ in rec.scene_labels:
            eid = g.match_entity(label)
            if eid is not None:
                keys.add(eid)
        assert keys, rec.qid
        gts = ground_truth_ids(g, rec)
        assert gts, rec.qid
        # BFS over the KG from the key set
        dist = {k: 0 for k in keys}
        queue = deque(keys)
        while queue:
            u = queue.popleft()
            if dist[u] >= bound:
                continue
            _, nbr, _, _ = g.edges_from([u])
            for t in nbr:
                t = int(t)
                if t not in dist:
                    dist[t] = dist[u] + 1
                    queue.append(t)
        assert any(gt in dist for gt in gts), f"{rec.qid}: no gt within {bound} hops"


def test_embeddings_and_contexts_align(small_suite):
    out, spec, _ = small_suite
    g = load_graph(out / "kg_edges.tsv", out / "relations.txt")
    from kgpath.embeddings import load_contexts, load_entity_embeddings

    emb = load_entity_embeddings(out / "entity_embeddings.tsv", g)
    assert emb.shape[1] == spec.dim
    contexts = load_contexts(out / "contexts.jsonl")
    records = load_queries(out / "queries.jsonl")
    assert set(contexts) == {r.qid for r in records}
    # planted alignment: z correlates with the mean gt vector
    cosines = []
    for rec in records:
        gts = sorted(ground_truth_ids(g, rec))
        mean = emb[np.array(gts)].mean(axis=0)
        mean /= np.linalg.norm(mean)
        cosines.append(float(contexts[rec.qid].z @ mean))
    assert float(np.mean(cosines)) > 0.8  # alignment 0.9 planted


def test_no_vectors_mode(tmp_path):
    spec = SuiteSpec(seed=5, n_entities=50, n_edges=160, n_queries=6, emit_vectors=False)
    manifest = generate_suite(tmp_path / "novec", spec)
    assert "entity_embeddings.tsv" not in manifest["files"]
    assert (tmp_path / "novec" / "kg_edges.tsv").exists()
    assert not (tmp_path / "novec" / "contexts.jsonl").exists()


def test_hop_mix_validation():
    with pytest.raises(ValueError, match="hop"):
        SuiteSpec(hop_mix={3: 1.0})
    with pytest.raises(ValueError, match="positive"):
        SuiteSpec(hop_mix={1: 0.0, 2: 0.0})
    spec = SuiteSpec(hop_mix={1: 2.0, 2: 2.0})
    assert spec.hop_mix == {1: 0.5, 2: 0.5}


def test_split_sizes():
    spec = SuiteSpec(n_queries=250, train_fraction=0.8)
    assert spec.n_train == 200
