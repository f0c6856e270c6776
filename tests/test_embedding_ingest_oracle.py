"""The block-wise embedding ingest against the per-line loader it replaced.

``reference_load_entity_embeddings`` is a verbatim copy of
``load_entity_embeddings`` as it was before the bulk parse. On random
embedding files with comments, blank lines, mixed line ends, surfaces that
normalize together, repeated entities, malformed rows of unknown surfaces
and faults anywhere, both loaders must build byte-identical matrices or
raise the same error.
"""

from typing import Optional

import numpy as np
import pytest

from kgpath import embeddings
from kgpath.config import InputError, read_lines
from kgpath.embeddings import EntityEmbeddingTable, load_entity_embeddings
from kgpath.kg import KnowledgeGraph, load_graph

from conftest import write_relations

# np.loadtxt warns when it is handed no data; the loader must never let it
pytestmark = pytest.mark.filterwarnings("error")


def reference_load_entity_embeddings(path, g: KnowledgeGraph) -> EntityEmbeddingTable:
    matrix: Optional[np.ndarray] = None
    seen = np.zeros(g.n_entities, dtype=bool)
    dim = -1
    for lineno, line in read_lines(path):
        surface, _, rest = line.partition("\t")
        eid = g.match_entity(surface)
        if eid is None:
            continue  # vectors for entities outside this graph are ignored
        try:
            vec = np.fromstring(rest, dtype=np.float64, sep=" ")
        except ValueError:
            raise InputError(
                path, lineno, f"entity {surface!r}: row is not a list of numbers"
            ) from None
        if dim < 0:
            dim = vec.shape[0]
            if dim == 0:
                raise InputError(path, lineno, f"entity {surface!r}: empty embedding row")
            matrix = np.zeros((g.n_entities, dim), dtype=np.float64)
        if vec.shape[0] != dim:
            raise InputError(
                path, lineno, f"entity {surface!r}: expected {dim} values, got {vec.shape[0]}"
            )
        if not np.all(np.isfinite(vec)):
            raise InputError(path, lineno, f"entity {surface!r}: non-finite embedding value")
        matrix[eid] = vec
        seen[eid] = True
    if matrix is None:
        raise InputError(path, msg="embedding file holds no usable rows")
    if not seen.all():
        missing = int(np.argmin(seen))
        raise InputError(
            path,
            msg=f"no embedding for entity {g.surface(missing)!r} "
            f"({int((~seen).sum())} missing in total)",
        )
    return EntityEmbeddingTable(matrix)


# Graph entities, one per group; every surface of a group normalizes to the
# group's first one. A comment line names no entity, not even "#tag".
GROUPS = [
    ["foo", "Foo", " foo ", "FOO"],
    ["foo_bar", "Foo  Bar", "foo bar", "foo\u00a0bar", "\u2003foo_bar"],
    ["été", "Été", "ÉTÉ"],
    ["straße", "Straße"],
    ["a#b", "A#B"],
    ["x"],
    ["y", " Y"],
]
UNKNOWN = ["zzz", "unknown thing", "fo", "#tag", "", "   "]
NUMBERS = [
    "0.5", "-0.25", "1", "+2", "-0.0", "0", ".5", "5.", "1e-3", "1E5", "-2.5e+3",
    "4.9e-324", "1.7976931348623157e308", "1e-400", "0.1234567890123456789",
    "00012.5", "3.14159265358979",
]
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c"]
# each value breaks a rule once a known surface carries it
BAD_VALUES = [
    "abc", "1,2", "1_0", "nan(1)", "0x10", "1e", "--1", "#3", "\uff11", "1.0.0",
    "nan", "inf", "-inf", "1e999", "NaN", "Infinity",
]
BAD_SEPARATORS = ["\u00a0", "\u3000", "\x1c", "\x1f", "\u2028"]
SKIPPED = ["", "   ", "\t", "\u3000", "#", "# note", "  #foo\t1 2", "#tag\t1 2", "\t#\t1"]


def random_values(rng, n: int) -> list[str]:
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append(NUMBERS[rng.integers(len(NUMBERS))])
        else:
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-5, 5))
            out.append(repr(x) if rng.random() < 0.5 else f"{x:.8f}")
    return out


def row_text(rng, values: list[str]) -> str:
    if not values:
        return ""
    seps = [SEPARATORS[rng.integers(len(SEPARATORS))] if rng.random() < 0.2 else " "
            for _ in values[1:]]
    text = values[0] + "".join(s + v for s, v in zip(seps, values[1:]))
    if rng.random() < 0.1:
        text = " " + text + " "
    return text


def fault_row(rng, dim: int) -> str:
    """The numbers of a row of a known entity that breaks a rule."""
    kind = rng.integers(5)
    if kind == 0:  # ragged
        return row_text(rng, random_values(rng, max(0, dim + int(rng.choice([-1, 1])))))
    if kind == 1:  # empty, or blank (read as one value -1 by np.fromstring)
        return ["", "   ", "\t"][rng.integers(3)]
    values = random_values(rng, dim)
    if kind == 4 and dim > 1:  # a separator only loadtxt splits on
        pos = rng.integers(dim - 1)
        values[pos] += BAD_SEPARATORS[rng.integers(len(BAD_SEPARATORS))] + values.pop(pos + 1)
    else:  # non-numeric or non-finite
        values[rng.integers(dim)] = BAD_VALUES[rng.integers(len(BAD_VALUES))]
    return row_text(rng, values)


def random_embedding_file(path, rng, dim: int, n_faults: int) -> None:
    lines = []
    for group in GROUPS:  # every entity at least once, some several times
        for _ in range(int(rng.integers(1, 4))):
            surface = group[rng.integers(len(group))]
            lines.append(surface + "\t" + row_text(rng, random_values(rng, dim)))
    for _ in range(int(rng.integers(0, 12))):
        surface = UNKNOWN[rng.integers(len(UNKNOWN))]
        bad = rng.random() < 0.5
        row = fault_row(rng, dim) if bad else row_text(rng, random_values(rng, dim))
        lines.append(surface + "\t" + row)
    for _ in range(int(rng.integers(0, 6))):
        lines.append(SKIPPED[rng.integers(len(SKIPPED))])
    if rng.random() < 0.1:  # an entity with no row
        drop = GROUPS[rng.integers(len(GROUPS))]
        lines = [line for line in lines if line.partition("\t")[0] not in drop]
    order = rng.permutation(len(lines))
    lines = [lines[i] for i in order]
    for pos in rng.choice(len(lines), size=min(n_faults, len(lines)), replace=False):
        group = GROUPS[rng.integers(len(GROUPS))]
        lines[pos] = group[rng.integers(len(group))] + "\t" + fault_row(rng, dim)
    if rng.random() < 0.05:  # a known surface with no tab at all
        lines.insert(int(rng.integers(len(lines) + 1)), "Foo")
    ends = ["\n", "\r\n", "\r"]
    if rng.random() < 0.5:  # one line-end style for the whole file
        style = ends[rng.integers(3)]
        ended = [line + style for line in lines]
    else:
        ended = [line + ends[rng.integers(3)] for line in lines]
    if rng.random() < 0.3:
        ended[-1] = lines[-1]  # no final newline
    path.write_bytes("".join(ended).encode("utf-8"))


@pytest.fixture
def graph(tmp_path):
    """The first surface of each group, chained by ``isa`` edges."""
    heads = [group[0] for group in GROUPS]
    edges = tmp_path / "e.tsv"
    edges.write_text(
        "".join(f"{a}\tisa\t{b}\t1\n" for a, b in zip(heads, heads[1:])), encoding="utf-8"
    )
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    assert g.surfaces == [h.replace(" ", "_") for h in heads]
    return g


def load_outcome(loader, path, g):
    try:
        return loader(path, g)
    except InputError as exc:
        return exc


def assert_same_outcome(want, got) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert (got.path, got.lineno, got.msg) == (want.path, want.lineno, want.msg)
        return
    assert not isinstance(got, Exception), got
    a, b = got.matrix, want.matrix
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_random_embedding_files_match_per_line_loader(tmp_path, monkeypatch, graph, seed):
    """80 random files per seed, read in blocks of 16 to 400 characters so
    that most files span many blocks and faults land in later ones."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "emb.tsv"
    counts = {"matrix": 0, "error": 0}
    for _ in range(80):
        dim = int(rng.integers(1, 6))
        random_embedding_file(path, rng, dim, n_faults=int(rng.choice([0, 0, 0, 1, 2])))
        monkeypatch.setattr(embeddings, "_BLOCK_CHARS", int(rng.integers(16, 400)))
        want = load_outcome(reference_load_entity_embeddings, path, graph)
        assert_same_outcome(want, load_outcome(load_entity_embeddings, path, graph))
        counts["error" if isinstance(want, Exception) else "matrix"] += 1
    assert min(counts.values()) >= 15, counts


def test_repeated_entity_keeps_its_last_row(tmp_path, monkeypatch, graph):
    """Within one block and across blocks, as the per-line loader assigns."""
    rows = [f"{group[0]}\t{i} {i}\n" for i, group in enumerate(GROUPS)]
    path = tmp_path / "emb.tsv"
    path.write_text("".join(rows) + "Foo\t7 7\nfoo\t8 8\nFOO\t9 9\n", encoding="utf-8")
    for block in (16, 64, 1 << 16):
        monkeypatch.setattr(embeddings, "_BLOCK_CHARS", block)
        table = load_entity_embeddings(path, graph)
        assert table.matrix[graph.entity_id("foo")].tolist() == [9.0, 9.0]
        assert_same_outcome(reference_load_entity_embeddings(path, graph), table)


def test_comment_naming_an_entity_is_skipped(tmp_path, monkeypatch):
    """A comment line is skipped even where its surface names an entity."""
    edges = tmp_path / "e.tsv"
    edges.write_text("x\tisa\t#tag\t1\n", encoding="utf-8")
    g = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
    assert g.surfaces == ["x", "#tag"]
    path = tmp_path / "emb.tsv"
    for comment in ("#tag\t1 2\n", "  #tag\t1 2\n", "#Tag\t1 2\n"):
        path.write_text("x\t3 4\n" + comment, encoding="utf-8")
        for block in (16, 1 << 16):
            monkeypatch.setattr(embeddings, "_BLOCK_CHARS", block)
            got = load_outcome(load_entity_embeddings, path, g)
            assert isinstance(got, InputError) and "'#tag'" in got.msg
            assert_same_outcome(load_outcome(reference_load_entity_embeddings, path, g), got)


def test_clean_file_is_parsed_in_bulk(tmp_path, monkeypatch, graph):
    """Rows of unknown surfaces, malformed or not, are dropped unparsed: no
    block of a file without comments or faults is re-read line by line."""
    rng = np.random.default_rng(3)
    lines = [f"{g[rng.integers(len(g))]}\t{row_text(rng, random_values(rng, 4))}\n"
             for g in GROUPS * 40]
    lines[10:10] = ["zzz\t1 2 abc\n", "unknown thing\t\n", "fo\tinf\n"]
    path = tmp_path / "emb.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    want = reference_load_entity_embeddings(path, graph)

    def no_per_line(*args):
        raise AssertionError("a clean block was re-read line by line")

    monkeypatch.setattr(embeddings, "_parse_row", no_per_line)
    for block in (64, 1 << 16):
        monkeypatch.setattr(embeddings, "_BLOCK_CHARS", block)
        assert_same_outcome(want, load_entity_embeddings(path, graph))


def test_files_larger_than_one_block(tmp_path, graph):
    """At the real block size: a clean file of several blocks, then the same
    file with one comment and with a fault near its end."""
    rng = np.random.default_rng(7)
    lines = [f"{g[rng.integers(len(g))]}\t{row_text(rng, random_values(rng, 16))}\n"
             for g in GROUPS * 150]
    assert sum(map(len, lines)) > 3 * embeddings._BLOCK_CHARS
    variants = [
        lines,
        lines[:1000] + ["# a comment\n"] + lines[1000:],
        lines[:1100] + ["foo\t" + " ".join(["1"] * 15) + "\n"] + lines[1100:],
    ]
    path = tmp_path / "emb.tsv"
    for variant in variants:
        path.write_text("".join(variant), encoding="utf-8")
        assert_same_outcome(
            load_outcome(reference_load_entity_embeddings, path, graph),
            load_outcome(load_entity_embeddings, path, graph),
        )
