"""The block-wise edge ingest against the per-line loader it replaced.

``reference_load_graph`` is a verbatim copy of ``load_graph`` as it was
before the bulk parse, except that its errors are built in today's
``<path>:<line>: <reason>`` form and that it skips a comment by today's rule
(first non-blank character ``#``, as ``config.read_lines`` does). On random edge files with comments, blank
lines, mixed line ends, surfaces that normalize together, odd weights and
faults anywhere, both loaders must build byte-identical graphs or raise the
same error.
"""

from array import array

import numpy as np
import pytest

from kgpath import config, kg
from kgpath.config import InputError
from kgpath.kg import KnowledgeGraph, dedup_max_weight, load_relations, normalize_surface

from conftest import write_relations

RELATIONS = ["isa", "relatedto", "partof"]


def reference_load_graph(edge_file, relation_priority_file=None) -> KnowledgeGraph:
    def load_error(message, lineno):
        return InputError(edge_file, lineno, message)

    relations = load_relations(relation_priority_file)
    rel_index = {n: i for i, n in enumerate(relations.names)}

    index: dict[str, int] = {}
    surfaces: list[str] = []
    heads = array("i")
    rels = array("i")
    tails = array("i")
    weights = array("d")

    with open(edge_file, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise load_error(
                    f"expected 4 tab-separated fields, got {len(parts)}", lineno
                )
            hs, rname, ts, wtext = parts
            rid = rel_index.get(rname)
            if rid is None:
                raise load_error(f"unknown relation {rname!r}", lineno)
            try:
                w = float(wtext)
            except ValueError:
                raise load_error(f"weight {wtext!r} is not a number", lineno) from None
            if not np.isfinite(w) or w < 0:
                raise load_error(f"weight {wtext!r} is not a non-negative real", lineno)
            hs = normalize_surface(hs)
            ts = normalize_surface(ts)
            if not hs or not ts:
                raise load_error("empty entity surface", lineno)
            eid = index.get(hs)
            if eid is None:
                eid = len(surfaces)
                index[hs] = eid
                surfaces.append(hs)
            heads.append(eid)
            eid = index.get(ts)
            if eid is None:
                eid = len(surfaces)
                index[ts] = eid
                surfaces.append(ts)
            tails.append(eid)
            rels.append(rid)
            weights.append(w)

    n_ent = len(surfaces)
    h = np.frombuffer(heads, dtype=np.int32).astype(np.int64)
    r = np.frombuffer(rels, dtype=np.int32).astype(np.int64)
    t = np.frombuffer(tails, dtype=np.int32).astype(np.int64)
    w = np.frombuffer(weights, dtype=np.float64)

    h, r, t, w = dedup_max_weight(h, r, t, w, n_ent, relations.n_total)

    # Materialize reversals, then build the CSR adjacency sorted by
    # (head, neighbor, relation).
    nf = relations.n_forward
    h2 = np.concatenate([h, t])
    t2 = np.concatenate([t, h])
    r2 = np.concatenate([r, r + nf])
    w2 = np.concatenate([w, w])
    order = np.lexsort((r2, t2, h2))
    h2, t2, r2, w2 = h2[order], t2[order], r2[order], w2[order]

    offsets = np.zeros(n_ent + 1, dtype=np.int64)
    if h2.size:
        np.cumsum(np.bincount(h2, minlength=n_ent), out=offsets[1:])

    return KnowledgeGraph(
        surfaces,
        relations,
        offsets,
        t2.astype(np.int32),
        r2.astype(np.int32),
        w2.astype(np.float32),
    )


# Surfaces that collide after normalization, non-ASCII whitespace among them.
SURFACES = [
    "foo", "Foo", " foo ", "FOO", "foo bar", "Foo  Bar", "foo_bar", "foo\u00a0bar",
    "foo\u3000bar", "\u2003foo_bar", "bar", "Bar", "baz qux", "été", "Été",
    "straße", "Baz Qux", "baz\u2003qux", "#tag", "a#b", "x", "y", "z",
]
GOOD_WEIGHTS = ["1", "0.5", "2.25", "1e-3", "+2", " 3 ", "1_0", "-0.0", "0", "7."]
# each line breaks a rule
FAULTS = [
    "broken line",
    "a\tisa\tb",
    "a\tisa\tb\t1\t2",
    "a\tmystery\tb\t1",
    "a\tIsa\tb\t1",
    "a\tisa\tb\tnan",
    "a\tisa\tb\t-1",
    "a\tisa\tb\tinf",
    "a\tisa\tb\tabc",
    "a\tisa\tb\t",
    "a\tisa\tb\t1__0",
    "\tisa\tb\t1",
    "a\tisa\t \u3000\t1",
    "a\tisa\t\t-1",  # bad weight and empty tail: the weight is checked first
]
SKIPPED = [
    "", "   ", "\t\t\t", "\u3000", " \t \t\t", "#", "# note", "#a\tisa\tb\t1", "#\t\t\t",
    "  # note\tisa\tc\t1", "\u3000#a\tisa\tb\t1", "\t#\tisa\tb\t1",
]


def random_line(rng) -> str:
    h = SURFACES[rng.integers(len(SURFACES))]
    t = SURFACES[rng.integers(len(SURFACES))]
    r = RELATIONS[rng.integers(len(RELATIONS))]
    w = GOOD_WEIGHTS[rng.integers(len(GOOD_WEIGHTS))]
    return f"{h}\t{r}\t{t}\t{w}"


def random_edge_file(path, rng, n_lines: int, n_faults: int) -> None:
    lines = []
    for _ in range(n_lines):
        lines.append(SKIPPED[rng.integers(len(SKIPPED))] if rng.random() < 0.1 else random_line(rng))
    for pos in rng.choice(n_lines, size=min(n_faults, n_lines), replace=False):
        lines[pos] = FAULTS[rng.integers(len(FAULTS))]
    ends = ["\n", "\r\n", "\r"]
    if rng.random() < 0.5:  # one line-end style for the whole file
        style = ends[rng.integers(3)]
        ended = [line + style for line in lines]
    else:
        ended = [line + ends[rng.integers(3)] for line in lines]
    if rng.random() < 0.3:
        ended[-1] = lines[-1]  # no final newline
    path.write_bytes("".join(ended).encode("utf-8"))


def load_outcome(loader, edges, rels):
    try:
        return loader(edges, rels)
    except InputError as exc:
        return exc


def assert_same_outcome(want, got) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert got.lineno == want.lineno
        return
    assert not isinstance(got, Exception), got
    assert got.surfaces == want.surfaces
    assert got.relations.names == want.relations.names
    for name in ("_offsets", "_nbr", "_rel", "_weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(4))
def test_random_edge_files_match_per_line_loader(tmp_path, monkeypatch, seed):
    """60 random files per seed, read in blocks of 16 to 400 characters so
    that most files span many blocks and faults land in later ones."""
    rng = np.random.default_rng(seed)
    rels = write_relations(tmp_path / "r.txt", RELATIONS)
    edges = tmp_path / "e.tsv"
    counts = {"graph": 0, "error": 0}
    for _ in range(60):
        n_lines = int(rng.integers(1, 120))
        n_faults = int(rng.choice([0, 0, 1, 2]))
        random_edge_file(edges, rng, n_lines, n_faults)
        monkeypatch.setattr(config, "BLOCK_CHARS", int(rng.integers(16, 400)))
        want = load_outcome(reference_load_graph, edges, rels)
        assert_same_outcome(want, load_outcome(kg.load_graph, edges, rels))
        counts["error" if isinstance(want, Exception) else "graph"] += 1
    assert min(counts.values()) >= 10, counts


def test_first_fault_in_file_order_wins(tmp_path, monkeypatch):
    """Two different faults; the bulk parse must report the earlier one,
    also when the later one sits in an earlier-checked column."""
    rels = write_relations(tmp_path / "r.txt", RELATIONS)
    edges = tmp_path / "e.tsv"
    good = "a\tisa\tb\t1\n"
    for first, second in [
        ("a\tisa\tb\tnan\n", "a\tmystery\tb\t1\n"),
        ("a\tisa\t \t1\n", "a\tisa\tb\n"),
        ("a\tmystery\tb\t1\n", "a\tisa\tb\t-1\n"),
    ]:
        for gap in (0, 3, 40):
            edges.write_text(good * 5 + first + good * gap + second + good, encoding="utf-8")
            for block in (16, 64, 1 << 16):
                monkeypatch.setattr(config, "BLOCK_CHARS", block)
                got = load_outcome(kg.load_graph, edges, rels)
                assert isinstance(got, InputError) and got.lineno == 6
                assert_same_outcome(load_outcome(reference_load_graph, edges, rels), got)


def test_files_larger_than_one_block(tmp_path):
    """At the real block size: a clean file of several blocks, then the same
    file with one comment, with one indented comment, and with a fault near
    its end."""
    rng = np.random.default_rng(7)
    rels = write_relations(tmp_path / "r.txt", RELATIONS)
    edges = tmp_path / "e.tsv"
    lines = [random_line(rng) + "\n" for _ in range(9000)]
    assert sum(map(len, lines)) > 3 * config.BLOCK_CHARS
    variants = [
        lines,
        lines[:7000] + ["# a comment\n"] + lines[7000:],
        lines[:7000] + ["  # note\tisa\tc\t1\n"] + lines[7000:],
        lines[:8500] + ["a\tisa\tb\t-2\n"] + lines[8500:],
    ]
    for variant in variants:
        edges.write_text("".join(variant), encoding="utf-8")
        assert_same_outcome(
            load_outcome(reference_load_graph, edges, rels),
            load_outcome(kg.load_graph, edges, rels),
        )
