"""Pretrained-vector providers: entity embeddings, query contexts, text features.

All neural encoders upstream of this pipeline (the multimodal query encoder,
the KG entity embedding, the question/answer text encoder) are consumed as
precomputed vectors through the loaders here. Text features exist only
where the text-feature file lists them; ``planted_context`` plants the
learnable query/entity alignments of :mod:`kgpath.synth` suites.

The entity embeddings are one ``(n_entities, D)`` matrix whose row ``i`` is
entity id ``i``'s vector. Its file is read through ``config.read_bulk``, the
one driver of the block loaders, over the blocks of ``config.read_blocks``,
the one reader: each block drops the rows of surfaces outside the graph and
parses the rest with one ``np.loadtxt``. A block with a comment or a row that
may break a rule is re-parsed line by line, so the first bad line in the file
is the one reported. An entity given several rows keeps the last one. The
JSON Lines inputs are read with ``config.read_jsonl`` over the same reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .config import InputError, new_qid, read_bulk, read_jsonl, require_str, require_vector
from .kg import KnowledgeGraph


@dataclass
class QueryContext:
    """The (z, v, t) bundle for one question: cross-modal, visual, textual."""

    qid: str
    z: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.z.ndim != 1 or self.z.size == 0:
            raise InputError(msg=f"{self.qid}: z is not a non-empty list of numbers")
        d = self.z.shape[0]
        if self.v.shape != (d,) or self.t.shape != (d,):
            raise InputError(msg=f"{self.qid}: context vectors disagree on dimension")
        for name, vec in (("z", self.z), ("v", self.v), ("t", self.t)):
            if not np.all(np.isfinite(vec)):
                raise InputError(msg=f"{self.qid}: non-finite value in {name}")

    @property
    def dim(self) -> int:
        return int(self.z.shape[0])


#: Whitespace that ``np.loadtxt`` splits on among ASCII text and
#: ``np.fromstring`` does not: a block holding one is read line by line.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_row(line: str, g: KnowledgeGraph, dim: int) -> Optional[tuple[int, np.ndarray]]:
    """One embedding line, its ending removed, as (entity id, vector);
    ``dim`` is the row length set by the first usable row, or -1 before it.

    None for a surface that names no entity of ``g``: that row is ignored
    unparsed. This is the one statement of the row rules: a ``ValueError``
    names the first rule the line breaks.
    """
    surface, _, rest = line.partition("\t")
    eid = g.match_entity(surface)
    if eid is None:
        return None
    try:
        vec = np.fromstring(rest, dtype=np.float64, sep=" ")
    except ValueError:
        raise ValueError(f"entity {surface!r}: row is not a list of numbers") from None
    if dim < 0 and vec.shape[0] == 0:
        raise ValueError(f"entity {surface!r}: empty embedding row")
    if dim >= 0 and vec.shape[0] != dim:
        raise ValueError(f"entity {surface!r}: expected {dim} values, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"entity {surface!r}: non-finite embedding value")
    return eid, vec


def _bulk_rows(
    lines: list[str], g: KnowledgeGraph, dim: int
) -> Optional[tuple[list, Optional[np.ndarray]]]:
    """A block's entity ids and their rows (None if it has none), in file
    order, as ``_parse_row`` reads them line by line.

    Rows of surfaces outside ``g`` are dropped before any number is parsed;
    the rest are parsed by one ``np.loadtxt``. None when a kept row may
    break a rule: the block is then parsed line by line. A blank kept row
    never gets through, since ``np.loadtxt`` skips it and the row count then
    falls short.
    """
    parts = list(map(str.partition, lines, repeat("\t")))
    found = g.match_entities([p[0] for p in parts])
    ids = [eid for eid in found if eid is not None]
    if not ids:
        return ids, None
    rests = [p[2] for p, eid in zip(parts, found) if eid is not None]
    kept = "".join(rests)
    if not kept.strip():  # loadtxt would warn of no data
        return None
    # loadtxt splits on more whitespace than fromstring; on ASCII text
    # without these four they split alike and give the same values
    if not kept.isascii() or any(c in kept for c in _LOADTXT_ONLY_SPACE):
        return None
    try:
        rows = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[0] != len(ids) or (dim >= 0 and rows.shape[1] != dim):
        return None
    if not np.isfinite(rows).all():
        return None
    return ids, rows


def load_entity_embeddings(path: Path | str, g: KnowledgeGraph) -> np.ndarray:
    """The ``(n_entities, D)`` matrix of ``entity<TAB>f1 f2 ... fD`` rows, row
    ``i`` the vector of entity id ``i``; the rows must cover every graph entity.

    The dimension is inferred from the first row and enforced on the rest;
    missing entities, ragged rows, and non-finite values are errors. Rows
    whose surface names no graph entity are ignored unparsed, and an entity
    given several rows keeps the last one. Blank lines and comments are
    skipped as by ``read_lines``. A line that breaks a rule raises
    ``InputError(path, lineno, reason)`` for the first such line in the file,
    a line holding a byte that is not UTF-8 among them.

    The file is read by ``read_bulk`` in blocks that are parsed in bulk; a
    block with a comment or a row that may break a rule is re-parsed line by
    line with ``_parse_row``.
    """
    matrix: Optional[np.ndarray] = None
    seen = np.zeros(g.n_entities, dtype=bool)
    dim = -1  # the row length, once a row has set it

    def parse(line: str) -> Optional[tuple[int, np.ndarray]]:
        nonlocal dim
        row = _parse_row(line, g, dim)
        if row is not None:
            dim = row[1].shape[0]
        return row

    def gather(rows: list[tuple[int, np.ndarray]]) -> tuple[list, Optional[np.ndarray]]:
        return [row[0] for row in rows], np.stack([row[1] for row in rows]) if rows else None

    for ids, vecs in read_bulk(path, lambda lines, _: _bulk_rows(lines, g, dim), parse, gather):
        if not ids:
            continue
        if matrix is None:
            dim = vecs.shape[1]
            matrix = np.zeros((g.n_entities, dim), dtype=np.float64)
        # the last row of a repeated entity wins; numpy leaves unspecified
        # which value a repeated index takes in one assignment
        last = dict(zip(ids, range(len(ids))))
        matrix[list(last)] = vecs[list(last.values())]
        seen[ids] = True
    if matrix is None:
        raise InputError(path, msg="embedding file holds no usable rows")
    if not seen.all():
        missing = int(np.argmin(seen))
        raise InputError(
            path,
            msg=f"no embedding for entity {g.surface(missing)!r} "
            f"({int((~seen).sum())} missing in total)",
        )
    return matrix


def load_contexts(path: Path | str) -> dict[str, QueryContext]:
    """Read the ``{qid, z, v, t}`` JSON Lines context file; a qid given
    twice is refused at its second line, and so is a row whose dimension
    differs from the first row's."""
    seen: set[str] = set()
    dim = 0  # the first row's dimension, once read

    def build(obj: dict) -> QueryContext:
        nonlocal dim
        ctx = QueryContext(
            qid=new_qid(obj, seen),
            z=require_vector(obj["z"], "z"),
            v=require_vector(obj["v"], "v"),
            t=require_vector(obj["t"], "t"),
        )
        dim = dim or ctx.dim
        if ctx.dim != dim:
            raise InputError(msg=f"{ctx.qid}: dimension {ctx.dim} differs from the first row's {dim}")
        return ctx

    return {ctx.qid: ctx for ctx in read_jsonl(path, build)}


class TextFeatureProvider:
    """Per-(question, entity) text feature vectors p_i, read from the
    ``{qid, entity, p}`` JSON Lines file at ``path``; with no file there is
    no text feature.

    ``gather`` returns None for a question none of whose rows would be
    nonzero: every question of a run without a file, and a question whose
    listed features are missing or all zero.
    """

    def __init__(self, dim: int, path: Optional[Path | str], g: KnowledgeGraph):
        self.dim = dim
        self._table: dict[tuple[str, int], np.ndarray] = {}
        if path is not None:

            def build(obj: dict):
                eid = g.match_entity(require_str(obj["entity"], "entity"))
                vec = require_vector(obj["p"], "p")
                where = f"text feature for ({obj['qid']}, {obj['entity']})"
                if vec.shape != (dim,):
                    raise InputError(msg=f"{where} has shape {vec.shape}, expected dimension {dim}")
                if not np.isfinite(vec).all():
                    raise InputError(msg=f"{where} has a non-finite value")
                return (str(obj["qid"]), eid), vec

            for key, vec in read_jsonl(path, build):
                if key[1] is not None:
                    self._table[key] = vec

    def gather(self, qid: str, ids: np.ndarray) -> Optional[np.ndarray]:
        """One row per entity id, shape ``(len(ids), dim)``, a pair absent
        from the file reading a zero row; None when every row would be zero."""
        if not self._table:
            return None
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.zeros((ids.size, self.dim))
        for i, eid in enumerate(ids.tolist()):
            vec = self._table.get((qid, eid))
            if vec is not None:
                rows[i] = vec
        return rows if rows.any() else None


def unit_random(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def planted_context(
    rng: np.random.Generator,
    qid: str,
    gt_vectors: np.ndarray,
    alignment: float,
) -> QueryContext:
    """Query context whose z is a renormalized blend of the ground-truth
    entity vectors and noise, so cosine relevance is learnable by design.

    ``alignment=1`` makes z exactly the (normalized) mean ground-truth vector;
    ``alignment=0`` makes it an independent random direction. The visual and
    textual features blend toward the same direction with independent noise,
    the way real context encoders describe the same question and image.
    """
    if not 0.0 <= alignment <= 1.0:
        raise ValueError("alignment must lie in [0, 1]")
    dim = gt_vectors.shape[1]
    mean = gt_vectors.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm > 0:
        mean = mean / norm

    def blend() -> np.ndarray:
        vec = alignment * mean + (1.0 - alignment) * unit_random(rng, dim)
        vec_norm = np.linalg.norm(vec)
        if vec_norm < 1e-12:
            return unit_random(rng, dim)
        return vec / vec_norm

    return QueryContext(qid=qid, z=blend(), v=blend(), t=blend())
