"""Every text input goes through one reader, ``config.read_blocks``.

A line holding a byte that is not UTF-8 is a bad line like any other: the
first bad line in file order is the one reported, also when a later line of
the same block holds the bad byte. Structural checks keep text input in that
one reader and every output in the one writer, ``config.atomic_write``.
"""

import ast
from pathlib import Path

import pytest

import kgpath
from kgpath import config
from kgpath.config import InputError, load_config
from kgpath.embeddings import load_entity_embeddings
from kgpath.kg import load_graph
from kgpath.linking import load_queries

from conftest import write_relations

# (good line i, bad line, message of the bad line): lines 1 and 3 are good,
# line 2 is bad and line 4 holds a byte that is not UTF-8
CASES = {
    "edges": ("a\tisa\tb\t1", "a\tisa\tb\t-1", "weight '-1' is not a non-negative real"),
    "embeddings": ("a\t1 2", "b\t1", "entity 'b': expected 2 values, got 1"),
    "queries": ('{{"qid": "q{i}", "answers": [["a", 1]]}}', '{"qid": "q2"', "bad JSON: "),
    "config": ("seed = 1", "no_such_key = 1", "unknown configuration key 'no_such_key'"),
}


def load(kind, path, tmp_path):
    if kind == "edges":
        return load_graph(path, write_relations(tmp_path / "r.txt", ["isa"]))
    if kind == "embeddings":
        edges = tmp_path / "g.tsv"
        edges.write_text("a\tisa\tb\t1\n", encoding="utf-8")
        graph = load_graph(edges, write_relations(tmp_path / "r.txt", ["isa"]))
        return load_entity_embeddings(path, graph)
    if kind == "queries":
        return load_queries(path)
    return load_config(path)


@pytest.mark.parametrize("block", [16, config.BLOCK_CHARS])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_first_bad_line_in_file_order(tmp_path, monkeypatch, kind, end, block):
    """The bad line 2 wins over the byte on line 4, also in the same block;
    with line 2 mended, line 4 is reported, whatever the line end style."""
    good, bad, message = CASES[kind]
    monkeypatch.setattr(config, "BLOCK_CHARS", block)
    path = tmp_path / f"{kind}.txt"
    for mended, lineno, want in [(False, 2, message), (True, 4, "not UTF-8 text")]:
        lines = [good.format(i=i).encode("utf-8") for i in range(1, 5)]
        if not mended:
            lines[1] = bad.encode("utf-8")
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"".join(line + end.encode("ascii") for line in lines))
        with pytest.raises(InputError) as exc:
            load(kind, path, tmp_path)
        assert (exc.value.path, exc.value.lineno) == (path, lineno)
        assert exc.value.msg.startswith(want)


def opened_files(source: str) -> list[tuple[str, str, ast.Call]]:
    """(enclosing function, called name, call) for each call of ``open`` or
    ``read_text`` in a module's source, as a plain name or an attribute."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "read_text"):
                    found.append((where, name, child))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def open_mode(call: ast.Call):
    """The mode an ``open`` call passes: a string, None for a computed one."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r")
    )
    return mode.value if isinstance(mode, ast.Constant) else None


def test_text_input_is_opened_only_by_read_blocks():
    """``config.read_blocks`` is the one place a file is opened for reading
    text; the others write (``atomic_write`` opens in the mode it is given,
    for writing) or read bytes (``sha256_file``, and ``load_index`` for the
    index arrays)."""
    allowed_reads = {("config", "read_blocks"), ("config", "sha256_file"), ("kg", "load_index")}
    reads = set()
    for path in sorted(Path(kgpath.__file__).parent.glob("*.py")):
        module = path.stem
        for where, name, call in opened_files(path.read_text(encoding="utf-8")):
            site = f"{module}.{where}: {name}(...) at line {call.lineno}"
            assert name == "open", f"{site} reads a file outside config.read_blocks"
            mode = open_mode(call)
            if (module, where) == ("config", "atomic_write") or set(mode or "") & set("wax"):
                continue
            assert (module, where) in allowed_reads, f"{site} opens a file for reading"
            assert (where != "read_blocks") == (mode == "rb"), site
            reads.add((module, where))
    assert reads == allowed_reads


def test_output_is_opened_only_by_atomic_write():
    """``config.atomic_write`` is the one place a file is opened for writing,
    so every output is renamed into place only once it is whole."""
    writes = []
    for path in sorted(Path(kgpath.__file__).parent.glob("*.py")):
        for where, name, call in opened_files(path.read_text(encoding="utf-8")):
            mode = open_mode(call)
            if name == "open" and (mode is None or set(mode) & set("wax+")):
                writes.append(f"{path.stem}.{where}")
    assert writes == ["config.atomic_write"], f"opened for writing in {', '.join(writes)}"
