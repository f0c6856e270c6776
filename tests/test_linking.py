import numpy as np
import pytest

from kgpath.kg import load_graph
from kgpath.linking import (
    DEFAULT_PREDICATE_BLACKLIST,
    DEFAULT_STOPWORDS,
    QueryRecord,
    extract_key_nodes,
    extract_question_nodes,
    extract_visual_nodes,
    lemma_fallback,
    load_queries,
    load_synonyms,
    match_surface,
)

from conftest import write_edges, write_relations


@pytest.fixture
def vocab_graph(tmp_path):
    rows = [
        ("bird", "isa", "animal", 1.0),
        ("fly", "relatedto", "bird", 1.0),
        ("fire_hydrant", "atlocation", "street", 1.0),
        ("fire", "relatedto", "heat", 1.0),
        ("hydrant", "isa", "object", 1.0),
        ("dog", "isa", "animal", 1.0),
        ("lamp", "atlocation", "street", 1.0),
        ("berry", "isa", "fruit", 1.0),
        ("bus", "isa", "vehicle", 1.0),
        ("human", "capableof", "walk", 1.0),
        ("leg", "partof", "human", 1.0),
    ]
    edges = write_edges(tmp_path / "v.tsv", rows)
    rels = write_relations(
        tmp_path / "vr.txt", ["isa", "relatedto", "atlocation", "capableof", "partof"]
    )
    return load_graph(edges, rels)


def record(qid="q1", tokens=(), labels=(), triplets=(), answers=(("bird", 3),), split="train"):
    return QueryRecord(
        qid=qid,
        question_tokens=list(tokens),
        scene_labels=list(labels),
        scene_triplets=list(triplets),
        answers=list(answers),
        split=split,
    )


def test_content_words_with_lemma_fallback(vocab_graph):
    rec = record(tokens=[("which", "other"), ("bird", "noun"), ("is", "other"), ("flying", "verb")])
    got = extract_question_nodes(vocab_graph, rec, synonyms=None)
    assert got == {vocab_graph.entity_id("bird"), vocab_graph.entity_id("fly")}


def test_all_stopworded_gives_empty(vocab_graph):
    rec = record(tokens=[("which", "other"), ("picture", "noun"), ("type", "noun")])
    assert extract_question_nodes(vocab_graph, rec, synonyms=None) == frozenset()


def test_phrase_beats_unigrams(vocab_graph):
    rec = record(tokens=[("fire", "noun"), ("hydrant", "noun")])
    got = extract_question_nodes(vocab_graph, rec, synonyms=None)
    assert got == {vocab_graph.entity_id("fire_hydrant")}


def _oracle_question_nodes(g, tokens, stopwords):
    """Brute-force longest-match-first with consumed positions."""
    toks = [(t.lower(), p) for t, p in tokens]
    ok = [p in {"noun", "verb", "adj", "adv"} and t not in stopwords for t, p in toks]
    used = set()
    out = set()
    for length in (3, 2, 1):
        for start in range(len(toks) - length + 1):
            span = list(range(start, start + length))
            if not all(ok[i] for i in span) or any(i in used for i in span):
                continue
            eid = match_surface(g, "_".join(toks[i][0] for i in span), None)
            if eid is not None:
                out.add(eid)
                used.update(span)
    return out


def test_question_nodes_match_longest_match_oracle(vocab_graph):
    rng = np.random.default_rng(42)
    words = ["fire", "hydrant", "bird", "flying", "dog", "lamp", "which", "xyz", "berries", "bus"]
    poses = ["noun", "verb", "adj", "adv", "other"]
    for _ in range(60):
        n = int(rng.integers(1, 9))
        tokens = [
            (words[int(rng.integers(len(words)))], poses[int(rng.integers(len(poses)))])
            for _ in range(n)
        ]
        rec = record(tokens=tokens)
        got = extract_question_nodes(vocab_graph, rec, synonyms=None)
        assert got == _oracle_question_nodes(vocab_graph, tokens, DEFAULT_STOPWORDS)


def test_lemma_fallback_rules(vocab_graph):
    known = vocab_graph.has_surface
    assert lemma_fallback("flying", known) == "fly"
    assert lemma_fallback("berries", known) == "berry"
    assert lemma_fallback("bus", known) == "bus"  # 'bu' is not an entity
    assert lemma_fallback("dogs", known) == "dog"


def test_visual_labels_matched(vocab_graph):
    rec = record(labels=[("dog", 0.9), ("lamp", 0.4)])
    nodes, edges = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == {vocab_graph.entity_id("dog"), vocab_graph.entity_id("lamp")}
    assert edges == []


def test_blacklisted_predicate_excluded(vocab_graph):
    rec = record(triplets=[("human", "has", "leg", 0.99)])
    nodes, edges = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == frozenset() and edges == []


def test_top30_labels_considered(vocab_graph):
    # 40 labels; only the 30 most confident are considered. The graph knows
    # 'dog' only among them, and dog sits below the confidence cut.
    labels = [(f"junk{i}", 1.0 - i * 0.01) for i in range(39)] + [("dog", 0.05)]
    rec = record(labels=labels)
    nodes, _ = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == frozenset()
    # raise dog's confidence into the top 30 and it matches
    labels[-1] = ("dog", 0.95)
    nodes, _ = extract_visual_nodes(vocab_graph, record(labels=labels), synonyms=None)
    assert nodes == {vocab_graph.entity_id("dog")}


def test_top20_triplets_considered(vocab_graph):
    triplets = [(f"junk{i}", "isa", f"junk{i}x", 0.9) for i in range(20)]
    triplets.append(("dog", "isa", "lamp", 0.1))  # 21st by confidence
    nodes, edges = extract_visual_nodes(vocab_graph, record(triplets=triplets), synonyms=None)
    assert nodes == frozenset() and edges == []


def test_triplet_edge_carries_confidence(vocab_graph):
    rec = record(triplets=[("dog", "atlocation", "lamp", 0.75)])
    nodes, edges = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == {vocab_graph.entity_id("dog"), vocab_graph.entity_id("lamp")}
    (edge,) = edges
    assert edge.head == vocab_graph.entity_id("dog")
    assert edge.tail == vocab_graph.entity_id("lamp")
    assert edge.weight == 0.75
    assert vocab_graph.relations.name_of(edge.relation) == "atlocation"


def test_unmatched_predicate_keeps_nodes_drops_edge(vocab_graph):
    rec = record(triplets=[("dog", "chasing", "lamp", 0.9)])
    nodes, edges = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == {vocab_graph.entity_id("dog"), vocab_graph.entity_id("lamp")}
    assert edges == []


def test_synonym_table(tmp_path, vocab_graph):
    syn = tmp_path / "syn.tsv"
    syn.write_text("puppy\tdog\n", encoding="utf-8")
    table = load_synonyms(syn)
    rec = record(labels=[("puppy", 0.9)])
    nodes, _ = extract_visual_nodes(vocab_graph, rec, synonyms=table)
    assert nodes == {vocab_graph.entity_id("dog")}
    # without the table there is no match
    nodes, _ = extract_visual_nodes(vocab_graph, rec, synonyms=None)
    assert nodes == frozenset()


def test_extraction_is_deterministic(vocab_graph):
    rec = record(
        tokens=[("bird", "noun"), ("flying", "verb")],
        labels=[("dog", 0.9), ("lamp", 0.9)],  # tied confidence
        triplets=[("dog", "atlocation", "lamp", 0.5)],
    )
    first = extract_key_nodes(vocab_graph, rec)
    for _ in range(3):
        assert extract_key_nodes(vocab_graph, rec) == first


def test_query_record_validation():
    with pytest.raises(ValueError, match="confidence"):
        record(labels=[("dog", 1.5)])
    with pytest.raises(ValueError, match="ground-truth"):
        record(answers=(), split="train")
    with pytest.raises(ValueError, match="count"):
        record(answers=[("bird", 0)])
    # test records may have no answers
    record(answers=(), split="test")


def test_load_queries_round_trip(tmp_path, vocab_graph):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"qid": "q7", "question_tokens": [["bird", "noun"]], "scene_labels": [["dog", 0.5]], '
        '"scene_triplets": [["dog", "isa", "lamp", 0.25]], "answers": [["bird", 2]], "split": "test"}\n',
        encoding="utf-8",
    )
    (rec,) = load_queries(path)
    assert rec.qid == "q7"
    assert rec.question_tokens == [("bird", "noun")]
    assert rec.scene_labels == [("dog", 0.5)]
    assert rec.scene_triplets == [("dog", "isa", "lamp", 0.25)]
    assert rec.answers == [("bird", 2)]
    assert rec.split == "test"
