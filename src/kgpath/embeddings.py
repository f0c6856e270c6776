"""Pretrained-vector providers: entity embeddings, query contexts, text features.

All neural encoders upstream of this pipeline (the multimodal query encoder,
the KG entity embedding, the question/answer text encoder) are consumed as
precomputed vectors through the loaders here. A hash-stub mode and a zero mode
stand in for the text-feature file when none is available; the synthetic
provider in :mod:`kgpath.synth` plants learnable query/entity alignments for
tests and demos.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .kg import KnowledgeGraph


class EmbeddingError(ValueError):
    pass


@dataclass
class QueryContext:
    """The (z, v, t) bundle for one question: cross-modal, visual, textual."""

    qid: str
    z: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        d = self.z.shape[0]
        if self.v.shape != (d,) or self.t.shape != (d,):
            raise EmbeddingError(f"{self.qid}: context vectors disagree on dimension")
        for name, vec in (("z", self.z), ("v", self.v), ("t", self.t)):
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{self.qid}: non-finite value in {name}")

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

    def get(self, eid: int) -> np.ndarray:
        return self.matrix[eid]

    def gather(self, ids: np.ndarray) -> np.ndarray:
        return self.matrix[np.asarray(ids, dtype=np.int64)]


def load_entity_embeddings(path: Path | str, g: KnowledgeGraph) -> EntityEmbeddingTable:
    """Load ``entity<TAB>f1 f2 ... fD`` rows covering every graph entity.

    The dimension is inferred from the first row and enforced on the rest;
    missing entities, ragged rows, and non-finite values are errors.
    """
    matrix: Optional[np.ndarray] = None
    seen = np.zeros(g.n_entities, dtype=bool)
    dim = -1
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            surface, _, rest = line.partition("\t")
            eid = g.match_entity(surface)
            if eid is None:
                continue  # vectors for entities outside this graph are ignored
            where = f"{path}:{lineno}: entity {surface!r}"
            try:
                vec = np.fromstring(rest, dtype=np.float64, sep=" ")
            except ValueError:
                raise EmbeddingError(f"{where}: row is not a list of numbers") from None
            if dim < 0:
                dim = vec.shape[0]
                if dim == 0:
                    raise EmbeddingError(f"{where}: empty embedding row")
                matrix = np.zeros((g.n_entities, dim), dtype=np.float64)
            if vec.shape[0] != dim:
                raise EmbeddingError(f"{where}: expected {dim} values, got {vec.shape[0]}")
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{where}: non-finite embedding value")
            matrix[eid] = vec
            seen[eid] = True
    if matrix is None:
        raise EmbeddingError("embedding file holds no usable rows")
    if not seen.all():
        missing = int(np.argmin(seen))
        raise EmbeddingError(
            f"no embedding for entity {g.surface(missing)!r} "
            f"({int((~seen).sum())} missing in total)"
        )
    return EntityEmbeddingTable(matrix)


def load_contexts(path: Path | str) -> dict[str, QueryContext]:
    """Read the ``{qid, z, v, t}`` JSON Lines context file."""
    contexts = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            ctx = QueryContext(
                qid=str(obj["qid"]),
                z=np.asarray(obj["z"], dtype=np.float64),
                v=np.asarray(obj["v"], dtype=np.float64),
                t=np.asarray(obj["t"], dtype=np.float64),
            )
            contexts[ctx.qid] = ctx
    return contexts


class TextFeatureProvider:
    """Per-(question, entity) text feature vectors p_i.

    Three modes, in the usual fallback order file -> hash -> zero:

    * ``file``: vectors from a ``{qid, entity, p}`` JSON Lines file; pairs
      absent from the file fall back to the hash stub.
    * ``hash``: a deterministic unit-norm pseudo-random vector derived from
      (seed, qid, entity).
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
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                    eid = g.match_entity(obj["entity"])
                    if eid is None:
                        continue
                    vec = np.asarray(obj["p"], dtype=np.float64)
                    if vec.shape != (dim,):
                        raise EmbeddingError(
                            f"text feature for ({obj['qid']}, {obj['entity']}) has "
                            f"dimension {vec.shape[0]}, expected {dim}"
                        )
                    self._table[(str(obj["qid"]), eid)] = vec

    def get(self, qid: str, eid: int) -> np.ndarray:
        if self.mode == "zero":
            return np.zeros(self.dim)
        if self.mode == "file":
            vec = self._table.get((qid, eid))
            if vec is not None:
                return vec
        return self._hash_vector(qid, eid)

    def gather(self, qid: str, ids: np.ndarray) -> np.ndarray:
        return np.stack([self.get(qid, int(e)) for e in ids])

    def _hash_vector(self, qid: str, eid: int) -> np.ndarray:
        digest = hashlib.blake2b(
            f"{self.seed}|{qid}|{eid}".encode(), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        vec = rng.standard_normal(self.dim)
        return vec / np.linalg.norm(vec)


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
