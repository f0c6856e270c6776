"""Immutable indexed knowledge graph with materialized reverse edges.

The graph is loaded from a TSV edge list (``head<TAB>relation<TAB>tail<TAB>weight``)
plus a relation priority file, and stored in CSR-style numpy arrays so that
neighbor queries over a ~500k-entity / ~6M-edge graph stay cheap. Every forward
edge gets a reversed twin (``rev_<relation>``) at load time; after construction
the graph never changes and can be shared freely across threads or forked
workers.
"""

from __future__ import annotations

import logging
import re
from array import array
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Relation vocabulary used when no priority file is given, highest priority
#: first. Reversed relations are implicit and rank after all forward ones.
DEFAULT_RELATIONS = (
    "antonym",
    "atlocation",
    "capableof",
    "causes",
    "createdby",
    "derivedfrom",
    "desires",
    "hasa",
    "hascontext",
    "hasproperty",
    "hassubevent",
    "isa",
    "madeof",
    "mannerof",
    "notcapableof",
    "notdesires",
    "partof",
    "receivesaction",
    "relatedto",
    "synonym",
    "usedfor",
)

_WS = re.compile(r"\s+")


class GraphLoadError(ValueError):
    """Raised for malformed edge files; carries the offending line number."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def normalize_surface(text: str) -> str:
    """Normalize an entity surface form: lowercase, trim, whitespace -> ``_``.

    Idempotent, so already-normalized strings pass through unchanged.
    """
    return _WS.sub("_", text.strip().lower())


class Edge(NamedTuple):
    head: int
    relation: int
    tail: int
    weight: float


class RelationTable:
    """Forward relations in priority order plus their implicit reversals.

    Relation ids double as priority ranks: forward relation ``i`` has id and
    priority ``i`` (lower ranks higher), and its reversal has id/priority
    ``n_forward + i``, so all reversed relations sort after all forward ones.
    """

    def __init__(self, names: Sequence[str]):
        names = list(names)
        if not names:
            raise ValueError("relation table needs at least one relation")
        seen = set()
        for name in names:
            if name.startswith("rev_"):
                raise ValueError(
                    f"reversed relation {name!r} may not be listed explicitly; "
                    "reversals are implicit"
                )
            if name in seen:
                raise ValueError(f"duplicate relation name {name!r}")
            seen.add(name)
        self.names = names
        self.n_forward = len(names)
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def n_total(self) -> int:
        return 2 * self.n_forward

    def id_of(self, name: str) -> int:
        """Id for a forward name or an explicit ``rev_<name>``; KeyError if unknown."""
        if name.startswith("rev_"):
            return self._index[name[4:]] + self.n_forward
        return self._index[name]

    def forward_id(self, name: str) -> Optional[int]:
        return self._index.get(name)

    def name_of(self, rid: int) -> str:
        if rid < self.n_forward:
            return self.names[rid]
        return "rev_" + self.names[rid - self.n_forward]

    def rev(self, rid):
        """The reversal of ``rid``, an id or an array of ids."""
        return (rid + self.n_forward) % self.n_total

    def priority(self, rid: int) -> int:
        # Ids are assigned in priority-file order, so the id is the rank.
        return rid


def load_relations(path: Optional[Path | str]) -> RelationTable:
    """Read a priority file (one relation per line, highest first).

    Blank lines and ``#`` comments are skipped. With no path, the default
    vocabulary above is used.
    """
    if path is None:
        return RelationTable(DEFAULT_RELATIONS)
    names = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            names.append(line)
    return RelationTable(names)


class KnowledgeGraph:
    """Entities, relations and a CSR adjacency over all directed edges.

    Adjacency rows are sorted by ``(neighbor id, relation id)`` so iteration
    order is deterministic. Entity ids are dense and assigned by first
    appearance in the edge file (heads before tails within a line).
    """

    def __init__(
        self,
        surfaces: list[str],
        relations: RelationTable,
        offsets: np.ndarray,
        adj_nbr: np.ndarray,
        adj_rel: np.ndarray,
        adj_weight: np.ndarray,
    ):
        self.surfaces = surfaces
        self.relations = relations
        self._offsets = offsets
        self._nbr = adj_nbr
        self._rel = adj_rel
        self._weight = adj_weight
        self._index = {s: i for i, s in enumerate(surfaces)}

    # -- basic accessors ---------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.surfaces)

    @property
    def n_edges(self) -> int:
        """Total directed edge count (forward + reversed)."""
        return int(self._nbr.shape[0])

    def surface(self, eid: int) -> str:
        return self.surfaces[eid]

    def entity_id(self, surface: str) -> int:
        return self._index[surface]

    def match_entity(self, text: str) -> Optional[int]:
        """Normalize ``text`` and return the exact-match entity id, if any."""
        return self._index.get(normalize_surface(text))

    def has_surface(self, surface: str) -> bool:
        return surface in self._index

    def _check_id(self, eid: int) -> None:
        if not 0 <= eid < self.n_entities:
            raise IndexError(f"invalid entity id {eid}")

    # -- adjacency ---------------------------------------------------------

    def neighbors(self, eid: int) -> list[Edge]:
        """All outgoing edges of ``eid`` (reversals included), sorted."""
        nbr, rel, w = self.neighbor_arrays(eid)
        return [
            Edge(eid, int(r), int(n), float(wt))
            for n, r, wt in zip(nbr, rel, w)
        ]

    def neighbor_arrays(self, eid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(neighbor ids, relation ids, weights) views for one entity."""
        self._check_id(eid)
        lo, hi = int(self._offsets[eid]), int(self._offsets[eid + 1])
        return self._nbr[lo:hi], self._rel[lo:hi], self._weight[lo:hi]

    def edges_from(self, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (source, neighbor, relation, weight) rows for many entities."""
        eids = np.asarray(eids, dtype=np.int64)
        lo = self._offsets[eids]
        counts = self._offsets[eids + 1] - lo
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty, empty.copy(), np.empty(0, dtype=np.float64)
        # every entity's row indices lo..hi-1, end to end
        take = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(total)
        src = np.repeat(eids.astype(np.int32), counts)
        return src, self._nbr[take], self._rel[take], self._weight[take].astype(np.float64)

    # -- persistence -------------------------------------------------------

    def save(self, index_dir: Path | str) -> None:
        """Write the built index to a directory (entities, relations, arrays)."""
        index_dir = Path(index_dir)
        index_dir.mkdir(parents=True, exist_ok=True)
        (index_dir / "entities.txt").write_text(
            "\n".join(self.surfaces) + "\n", encoding="utf-8"
        )
        (index_dir / "relations.txt").write_text(
            "\n".join(self.relations.names) + "\n", encoding="utf-8"
        )
        np.savez(
            index_dir / "adjacency.npz",
            offsets=self._offsets,
            nbr=self._nbr,
            rel=self._rel,
            weight=self._weight,
        )

    @classmethod
    def load_index(cls, index_dir: Path | str) -> "KnowledgeGraph":
        index_dir = Path(index_dir)
        surfaces = (index_dir / "entities.txt").read_text(encoding="utf-8").splitlines()
        relations = load_relations(index_dir / "relations.txt")
        arrays = np.load(index_dir / "adjacency.npz")
        return cls(
            surfaces,
            relations,
            arrays["offsets"],
            arrays["nbr"],
            arrays["rel"],
            arrays["weight"],
        )


def dedup_max_weight(
    h: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
    w: np.ndarray,
    n_entities: int,
    n_relations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (head, relation, tail) int64 rows to their max weight.

    Rows come back sorted by (head, tail, relation). Key packing stays well
    inside int64 for ~500k entities and ~100 relations.
    """
    if not h.size:
        return h, r, t, w
    key = (h * n_entities + t) * n_relations + r
    uniq, inverse = np.unique(key, return_inverse=True)
    wmax = np.full(uniq.shape[0], -np.inf)
    np.maximum.at(wmax, inverse, w)
    ht = uniq // n_relations
    return ht // n_entities, uniq % n_relations, ht % n_entities, wmax


def load_graph(
    edge_file: Path | str,
    relation_priority_file: Optional[Path | str] = None,
) -> KnowledgeGraph:
    """Load and index an edge TSV, materializing reversed edges.

    Rules: surfaces are normalized, entity ids are assigned by first
    appearance, duplicate (head, relation, tail) triples keep the maximum
    weight, and every forward edge also yields ``tail --rev_r--> head`` with
    the same weight. ``#`` comment lines and blank lines are skipped.
    """
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
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise GraphLoadError(
                    f"expected 4 tab-separated fields, got {len(parts)}", lineno
                )
            hs, rname, ts, wtext = parts
            rid = rel_index.get(rname)
            if rid is None:
                raise GraphLoadError(f"unknown relation {rname!r}", lineno)
            try:
                w = float(wtext)
            except ValueError:
                raise GraphLoadError(f"weight {wtext!r} is not a number", lineno) from None
            if not np.isfinite(w) or w < 0:
                raise GraphLoadError(f"weight {wtext!r} is not a non-negative real", lineno)
            hs = normalize_surface(hs)
            ts = normalize_surface(ts)
            if not hs or not ts:
                raise GraphLoadError("empty entity surface", lineno)
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

    graph = KnowledgeGraph(
        surfaces,
        relations,
        offsets,
        t2.astype(np.int32),
        r2.astype(np.int32),
        w2.astype(np.float32),
    )
    logger.info(
        "loaded graph: %d entities, %d directed edges (%d relations)",
        graph.n_entities,
        graph.n_edges,
        relations.n_total,
    )
    return graph
