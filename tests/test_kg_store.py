import numpy as np
import pytest

from kgpath.config import InputError
from kgpath.kg import (
    DEFAULT_RELATIONS,
    KnowledgeGraph,
    RelationTable,
    dedup_max_weight,
    load_graph,
    load_relations,
    normalize_surface,
)

from conftest import out_edges, random_graph, write_edges, write_relations


def test_reversal_doubling(tiny_graph):
    assert tiny_graph.n_entities == 3
    assert tiny_graph.n_edges == 6  # 3 forward + 3 reversed


def test_ids_by_first_appearance(tiny_graph):
    assert tiny_graph.entity_id("a") == 0
    assert tiny_graph.entity_id("b") == 1
    assert tiny_graph.entity_id("c") == 2


def test_duplicate_edges_keep_max_weight(tmp_path):
    edges = write_edges(
        tmp_path / "e.tsv",
        [
            ("a", "relatedto", "b", 1.0),
            ("b", "isa", "c", 2.0),
            ("a", "isa", "c", 0.5),
            ("a", "relatedto", "b", 0.4),
        ],
    )
    rels = write_relations(tmp_path / "r.txt", ["relatedto", "isa"])
    g = load_graph(edges, rels)
    assert g.n_edges == 6
    weights = {
        (e.head, e.relation, e.tail): e.weight for e in out_edges(g, g.entity_id("a"))
    }
    rid = g.relations.id_of("relatedto")
    assert weights[(0, rid, 1)] == 1.0


def test_edge_key_overflow_is_refused():
    """(head * n + tail) * n_relations + relation must fit in int64."""
    one = np.array([1], dtype=np.int64)
    w = np.array([1.0])
    with pytest.raises(InputError, match="2147483648 entities"):
        dedup_max_weight(one, one, one, w, 2**31, 2)  # 2**62 * 2 == 2**63
    h, r, t, wmax = dedup_max_weight(one, 0 * one, one, w, 2**31, 1)  # 2**62 fits
    assert (h.tolist(), r.tolist(), t.tolist(), wmax.tolist()) == ([1], [0], [1], [1.0])


def test_neighbors_sorted_by_neighbor_then_relation(tiny_graph):
    g = tiny_graph
    edges = out_edges(g, g.entity_id("a"))
    # b has id 1, c has id 2, so the relatedto edge to b comes first
    assert [(g.surface(e.tail), g.relations.name_of(e.relation)) for e in edges] == [
        ("b", "relatedto"),
        ("c", "isa"),
    ]
    assert [e.weight for e in edges] == [1.0, 0.5]


def test_neighbors_of_isolated_node():
    g = KnowledgeGraph(
        ["only"],
        RelationTable(["relatedto"]),
        np.array([0, 0], dtype=np.int64),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.float32),
    )
    assert out_edges(g, 0) == []


def test_neighbors_invalid_id(tiny_graph):
    with pytest.raises(IndexError):
        out_edges(tiny_graph, 99)
    with pytest.raises(IndexError):
        out_edges(tiny_graph, -1)


def test_indented_comment_line_is_skipped(tmp_path):
    edges = tmp_path / "e.tsv"
    edges.write_text("  # note\tisa\tc\t1\na\tisa\tb\t1\n", encoding="utf-8")
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    assert g.surfaces == ["a", "b"]


def test_neighbors_match_brute_force_scan(tmp_path):
    rng = np.random.default_rng(11)
    g, rows = random_graph(tmp_path, rng, n_entities=25, n_edges=1000)
    # independent oracle: scan the written rows, materialize reversals by hand
    for surface in ("n0", "n7", "n24"):
        eid = g.entity_id(surface)
        expected = {}
        for h, r, t, w in rows:
            if h == surface:
                key = (g.entity_id(t), g.relations.id_of(r))
                expected[key] = max(expected.get(key, -1.0), w)
            if t == surface:
                key = (g.entity_id(h), g.relations.id_of("rev_" + r))
                expected[key] = max(expected.get(key, -1.0), w)
        got = {(e.tail, e.relation): e.weight for e in out_edges(g, eid)}
        assert got == expected
        # sorted order
        keys = [(e.tail, e.relation) for e in out_edges(g, eid)]
        assert keys == sorted(keys)


def test_thousand_edge_hub_matches_file_scan(tmp_path):
    # one entity with exactly 1000 outgoing edges in the file
    rows = [("hub", "r0", f"leaf{i}", (i % 8 + 1) / 4) for i in range(1000)]
    edges = write_edges(tmp_path / "hub.tsv", rows)
    g = load_graph(edges, write_relations(tmp_path / "hub_r.txt", ["r0"]))
    got = out_edges(g, g.entity_id("hub"))
    assert len(got) == 1000
    expected = {(g.entity_id(t), g.relations.id_of(r)): w for _, r, t, w in rows}
    assert {(e.tail, e.relation): e.weight for e in got} == expected


def reference_edges_from(g, eids):
    """``edges_from`` as first written: one ``np.arange`` per entity."""
    eids = np.asarray(eids, dtype=np.int64)
    lo = g._offsets[eids]
    hi = g._offsets[eids + 1]
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty, empty.copy(), np.empty(0, dtype=np.float64)
    take = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    src = np.repeat(eids.astype(np.int32), counts)
    return src, g._nbr[take], g._rel[take], g._weight[take].astype(np.float64)


def test_edges_from_matches_arange_loop(tmp_path):
    rng = np.random.default_rng(12)
    g, _ = random_graph(tmp_path, rng, n_entities=40, n_edges=90)
    # entities 1 and 3 have no edge at all
    sparse = KnowledgeGraph(
        ["a", "lonely", "b", "alone"],
        load_relations(None),
        np.array([0, 1, 1, 2, 2], dtype=np.int64),
        np.array([2, 0], dtype=np.int32),
        np.array([0, 21], dtype=np.int32),
        np.array([1.0, 0.5], dtype=np.float32),
    )
    cases = [
        (g, []),
        (g, [5]),
        (g, [3, 3, 3]),  # repeated ids
        (g, [30, 2, 17, 2, 0]),  # unsorted ids
        (g, rng.integers(g.n_entities, size=60)),
        (g, np.arange(g.n_entities)[::-1]),
        (sparse, [1]),  # zero-degree only: the empty result
        (sparse, [1, 3, 1]),
        (sparse, [3, 0, 1, 2, 1, 0]),
    ]
    for graph, eids in cases:
        got = graph.edges_from(np.asarray(eids, dtype=np.int64))
        want = reference_edges_from(graph, eids)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_match_entity_normalizes():
    assert normalize_surface("  Fire  Hydrant ") == "fire_hydrant"
    assert normalize_surface("fire_hydrant") == "fire_hydrant"  # idempotent


def test_match_entity(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("fire hydrant", "isa", "object", 1.0)])
    rels = write_relations(tmp_path / "r.txt", ["isa"])
    g = load_graph(edges, rels)
    assert g.match_entity("Fire Hydrant") == g.entity_id("fire_hydrant")
    assert g.match_entity("unknown_zzz") is None


def test_every_surface_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    g, _ = random_graph(tmp_path, rng)
    for eid in range(g.n_entities):
        assert g.match_entity(g.surface(eid)) == eid


def test_rev_is_involution():
    table = load_relations(None)
    assert table.names == list(DEFAULT_RELATIONS)
    for rid in range(table.n_total):
        assert table.rev(table.rev(rid)) == rid
    assert table.name_of(table.rev(table.id_of("isa"))) == "rev_isa"
    assert table.id_of("rev_isa") == table.rev(table.id_of("isa"))


def test_relation_priority_is_file_order():
    table = RelationTable(["zeta", "alpha"])
    # a relation's id is its priority rank
    assert table.id_of("zeta") < table.id_of("alpha")
    # reversed relations all rank after forward ones
    assert table.id_of("rev_zeta") > table.id_of("alpha")


def test_deterministic_load(tmp_path):
    rng = np.random.default_rng(5)
    g1, rows = random_graph(tmp_path, rng)
    g2 = load_graph(tmp_path / "rand_edges.tsv", tmp_path / "rand_relations.txt")
    assert g1.surfaces == g2.surfaces
    assert g1.n_edges == g2.n_edges
    for eid in range(g1.n_entities):
        assert out_edges(g1, eid) == out_edges(g2, eid)


def test_malformed_line_reports_lineno(tmp_path):
    edges = (tmp_path / "bad.tsv")
    edges.write_text("a\trelatedto\tb\t1.0\nbroken line\n", encoding="utf-8")
    rels = write_relations(tmp_path / "r.txt", ["relatedto"])
    with pytest.raises(InputError) as exc:
        load_graph(edges, rels)
    assert str(exc.value) == f"{edges}:2: expected 4 tab-separated fields, got 1"
    assert exc.value.lineno == 2


def test_unknown_relation_rejected(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "mystery", "b", 1.0)])
    rels = write_relations(tmp_path / "r.txt", ["relatedto"])
    with pytest.raises(InputError, match="mystery"):
        load_graph(edges, rels)


@pytest.mark.parametrize("weight", ["-1.0", "abc", "nan", "inf"])
def test_bad_weights_rejected(tmp_path, weight):
    edges = (tmp_path / "e.tsv")
    edges.write_text(f"a\trelatedto\tb\t{weight}\n", encoding="utf-8")
    rels = write_relations(tmp_path / "r.txt", ["relatedto"])
    with pytest.raises(InputError):
        load_graph(edges, rels)


def test_comments_and_blanks_skipped(tmp_path):
    edges = (tmp_path / "e.tsv")
    edges.write_text("# header\n\na\trelatedto\tb\t1.0\n", encoding="utf-8")
    rels = write_relations(tmp_path / "r.txt", ["relatedto"])
    assert load_graph(edges, rels).n_entities == 2


def test_self_loop_kept_in_storage(tmp_path):
    edges = write_edges(tmp_path / "e.tsv", [("a", "relatedto", "a", 1.0)])
    rels = write_relations(tmp_path / "r.txt", ["relatedto"])
    g = load_graph(edges, rels)
    assert g.n_edges == 2  # loop plus its reversal
    assert all(e.tail == 0 for e in out_edges(g, 0))


def test_index_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    g, _ = random_graph(tmp_path, rng)
    g.save(tmp_path / "index")
    g2 = KnowledgeGraph.load_index(tmp_path / "index")
    assert g2.surfaces == g.surfaces
    assert g2.relations.names == g.relations.names
    for eid in range(g.n_entities):
        assert out_edges(g2, eid) == out_edges(g, eid)


def test_failed_save_keeps_existing_index(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    g, _ = random_graph(tmp_path, rng)
    index = tmp_path / "index"
    g.save(index)
    before = {p.name: p.read_bytes() for p in index.iterdir()}
    other, _ = random_graph(tmp_path, rng, n_entities=12, n_edges=30, relations=("q0",))

    def failing_savez(file, **arrays):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        other.save(index)
    # the same three files, byte for byte, and no .tmp
    assert {p.name: p.read_bytes() for p in index.iterdir()} == before


def test_explicit_rev_relation_in_priority_file_rejected(tmp_path):
    rels = write_relations(tmp_path / "r.txt", ["isa", "rev_isa"])
    with pytest.raises(ValueError, match="rev_isa"):
        load_relations(rels)
