"""Pretrained-vector providers: entity embeddings, query contexts, text features.

All neural encoders upstream of this pipeline (the multimodal query encoder,
the KG entity embedding, the question/answer text encoder) are consumed as
precomputed vectors through the loaders here. A hash-stub mode and a zero mode
stand in for the text-feature file when none is available; ``planted_context``
plants the learnable query/entity alignments of :mod:`kgpath.synth` suites.

The entity-embedding file is read in blocks (``config.read_blocks``): each
block drops the rows of surfaces outside the graph and parses the rest with
one ``np.loadtxt``. A block with a comment or a row that may break a rule is
re-read line by line, so the first bad line in the file is the one reported.
An entity given several rows keeps the last one.

The hash stub's stream is defined here, not by a numpy generator: one
blake2b of ``seed|qid`` keys the question, a splitmix64 mix of (question key,
entity id, component) gives the uniform bits, Box-Muller turns them into
normals and each row is scaled to unit norm. Its values therefore do not
depend on the numpy version, and a row does not depend on which other
entities are gathered with it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .config import BLOCK_CHARS, InputError, read_blocks, read_jsonl
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


class EntityEmbeddingTable:
    """Dense per-entity vectors, indexed by entity id."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def n_entities(self) -> int:
        return int(self.matrix.shape[0])

    def gather(self, ids: np.ndarray) -> np.ndarray:
        return self.matrix[np.asarray(ids, dtype=np.int64)]


#: Characters of the embedding file read per block; each block is parsed in bulk.
_BLOCK_CHARS = BLOCK_CHARS

#: Whitespace that ``np.loadtxt`` splits on among ASCII text and
#: ``np.fromstring`` does not: a block holding one is read line by line.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_row(line: str, g: KnowledgeGraph, dim: int) -> Optional[tuple[int, np.ndarray]]:
    """One embedding line as (entity id, vector); ``dim`` is the row length
    set by the first usable row, or -1 before it.

    None for a blank line or a comment (first non-blank character ``#``), as
    ``config.read_lines`` skips them, and for a surface that names no entity
    of ``g``: that row is ignored unparsed. This is the one statement of the
    row rules: a ``ValueError`` names the first rule the line breaks.
    """
    head = line.lstrip()
    if not head or head[0] == "#":
        return None
    surface, _, rest = line.rstrip("\n").partition("\t")
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
    the rest are parsed by one ``np.loadtxt``. None when a line is a comment
    or a kept row may break a rule: the caller then re-reads the block line
    by line. A blank kept row never gets through, since ``np.loadtxt`` skips
    it and the row count then falls short.
    """
    text = "".join(lines)
    if "#" in text and any(line.lstrip().startswith("#") for line in lines):
        return None
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


def load_entity_embeddings(path: Path | str, g: KnowledgeGraph) -> EntityEmbeddingTable:
    """Load ``entity<TAB>f1 f2 ... fD`` rows covering every graph entity.

    The dimension is inferred from the first row and enforced on the rest;
    missing entities, ragged rows, and non-finite values are errors. Rows
    whose surface names no graph entity are ignored unparsed, and an entity
    given several rows keeps the last one. Blank lines and comments are
    skipped as by ``read_lines``. A line that breaks a rule raises
    ``InputError(path, lineno, reason)`` for the first such line in the file.

    The file is read in blocks (``read_blocks``) that are parsed in bulk; a
    block with a comment or a row that may break a rule is re-read line by
    line with ``_parse_row``.
    """
    matrix: Optional[np.ndarray] = None
    seen = np.zeros(g.n_entities, dtype=bool)

    def per_line(
        lines: list[str], first_lineno: int, dim: int
    ) -> tuple[list, Optional[np.ndarray]]:
        ids, vecs = [], []
        for lineno, line in enumerate(lines, first_lineno):
            try:
                row = _parse_row(line, g, dim)
            except ValueError as exc:
                raise InputError(path, lineno, str(exc)) from None
            if row is not None:
                ids.append(row[0])
                vecs.append(row[1])
                dim = row[1].shape[0]
        return ids, np.stack(vecs) if vecs else None

    for first_lineno, lines in read_blocks(path, _BLOCK_CHARS):
        dim = -1 if matrix is None else matrix.shape[1]
        rows = _bulk_rows(lines, g, dim)
        ids, vecs = rows if rows is not None else per_line(lines, first_lineno, dim)
        if not ids:
            continue
        if matrix is None:
            matrix = np.zeros((g.n_entities, vecs.shape[1]), dtype=np.float64)
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
    return EntityEmbeddingTable(matrix)


def load_contexts(path: Path | str) -> dict[str, QueryContext]:
    """Read the ``{qid, z, v, t}`` JSON Lines context file."""

    def build(obj: dict) -> QueryContext:
        return QueryContext(
            qid=str(obj["qid"]),
            z=np.asarray(obj["z"], dtype=np.float64),
            v=np.asarray(obj["v"], dtype=np.float64),
            t=np.asarray(obj["t"], dtype=np.float64),
        )

    return {ctx.qid: ctx for ctx in read_jsonl(path, build)}


class TextFeatureProvider:
    """Per-(question, entity) text feature vectors p_i.

    Three modes, in the usual fallback order file -> hash -> zero:

    * ``file``: vectors from a ``{qid, entity, p}`` JSON Lines file; pairs
      absent from the file fall back to the hash stub.
    * ``hash``: a deterministic unit-norm pseudo-random vector derived from
      (seed, qid, entity) by the stream in the module docstring.
    * ``zero``: all zeros, reproducing the no-text-feature ablation.
    """

    def __init__(
        self,
        dim: int,
        mode: str = "hash",
        seed: int = 0,
        path: Optional[Path | str] = None,
        g: Optional[KnowledgeGraph] = None,
    ):
        if mode not in ("file", "hash", "zero"):
            raise ValueError(f"unknown text feature mode {mode!r}")
        if mode == "file" and path is None:
            raise ValueError("file mode needs a text feature path")
        self.dim = dim
        self.mode = mode
        self.seed = seed
        self._table: dict[tuple[str, int], np.ndarray] = {}
        if mode == "file":
            assert g is not None, "file mode needs the graph to resolve entities"

            def build(obj: dict):
                eid = g.match_entity(obj["entity"])
                vec = np.asarray(obj["p"], dtype=np.float64)
                if vec.shape != (dim,):
                    raise InputError(
                        msg=f"text feature for ({obj['qid']}, {obj['entity']}) has "
                        f"shape {vec.shape}, expected dimension {dim}"
                    )
                return (str(obj["qid"]), eid), vec

            for key, vec in read_jsonl(path, build):
                if key[1] is not None:
                    self._table[key] = vec

    def gather(self, qid: str, ids: np.ndarray) -> np.ndarray:
        """One row per entity id, shape ``(len(ids), dim)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.mode == "zero":
            return np.zeros((ids.size, self.dim))
        if self.mode == "hash":
            return self._hash_rows(qid, ids)
        rows = np.empty((ids.size, self.dim))
        misses = []
        for i, eid in enumerate(ids.tolist()):
            vec = self._table.get((qid, eid))
            if vec is None:
                misses.append(i)
            else:
                rows[i] = vec
        if misses:
            rows[misses] = self._hash_rows(qid, ids[misses])
        return rows

    def _hash_rows(self, qid: str, ids: np.ndarray) -> np.ndarray:
        digest = hashlib.blake2b(f"{self.seed}|{qid}".encode(), digest_size=8).digest()
        q_key = np.uint64(int.from_bytes(digest, "little"))
        n_pairs = (self.dim + 1) // 2
        row_key = _splitmix64(q_key ^ _splitmix64(ids.astype(np.uint64)))
        counter = row_key[:, None] + np.arange(2 * n_pairs, dtype=np.uint64)
        # top 53 bits -> uniforms in (0, 1]; the log below never sees 0
        unif = ((_splitmix64(counter) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(unif[:, 0::2]))
        angle = 2.0 * np.pi * unif[:, 1::2]
        vec = np.empty((ids.size, 2 * n_pairs))
        vec[:, 0::2] = radius * np.cos(angle)
        vec[:, 1::2] = radius * np.sin(angle)
        vec = vec[:, : self.dim]
        return vec / np.sqrt(np.einsum("ij,ij->i", vec, vec))[:, None]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 step (Steele et al. 2014) on uint64 arrays, wrapping."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
