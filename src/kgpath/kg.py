"""Immutable indexed knowledge graph with materialized reverse edges.

The graph is loaded from a TSV edge list (``head<TAB>relation<TAB>tail<TAB>weight``)
plus a relation priority file, and stored in CSR-style numpy arrays so that
neighbor queries over a ~500k-entity / ~6M-edge graph stay cheap. Every forward
edge gets a reversed twin (``rev_<relation>``) at load time; after construction
the graph never changes and can be shared freely across threads or forked
workers.

The edge file is read through ``config.read_bulk``, the one driver of the
block loaders: each block of ``config.read_blocks``, the one reader, is
parsed in bulk, and a block with a comment or a bad line is re-parsed line by
line, so the first bad line in the file is the one reported. One sort of
packed int64 edge keys orders the CSR.
"""

from __future__ import annotations

import logging
import math
import re
import zipfile
from itertools import filterfalse, repeat
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import InputError, atomic_write, read_blocks, read_bulk, read_lines

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
        self.names = list(names)
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


def load_relations(path: Optional[Path | str]) -> RelationTable:
    """Read a priority file (one relation per line, highest first) with
    ``read_lines``. With no path, the default vocabulary above is used.

    A duplicate name or an explicit ``rev_`` name raises
    ``InputError(path, lineno, ...)``, a file with no name ``InputError(path)``.
    """
    if path is None:
        return RelationTable(DEFAULT_RELATIONS)
    names: list[str] = []
    for lineno, line in read_lines(path):
        name = line.strip()
        if name.startswith("rev_"):
            raise InputError(
                path,
                lineno,
                f"reversed relation {name!r} may not be listed explicitly; reversals are implicit",
            )
        if name in names:
            raise InputError(path, lineno, f"duplicate relation name {name!r}")
        names.append(name)
    if not names:
        raise InputError(path, msg="relation table needs at least one relation")
    return RelationTable(names)


def csr_slots(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots ``indptr[r]:indptr[r + 1]`` of each of ``rows``, end to end,
    and each row's count of slots."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    return np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum()), counts


class KnowledgeGraph:
    """Entities, relations and a CSR adjacency over all directed edges.

    Each entity's adjacency rows are strictly increasing by ``(neighbor id,
    relation id)``: no row repeats, and iteration order is deterministic.
    ``load_graph`` writes rows in that order and ``load_index`` refuses an
    index whose rows break it; schema construction relies on it. Entity ids
    are dense and assigned by first appearance in the edge file (heads before
    tails within a line).
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

    def match_entities(self, texts: list[str]) -> list[Optional[int]]:
        """``match_entity`` of each text. A text found as written is already a
        normalized surface, so only the others are normalized."""
        ids = list(map(self._index.get, texts))
        if None in ids:
            ids = [self.match_entity(t) if i is None else i for t, i in zip(texts, ids)]
        return ids

    def has_surface(self, surface: str) -> bool:
        return surface in self._index

    # -- adjacency ---------------------------------------------------------

    def edges_from(
        self, eids: np.ndarray, within: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (source, neighbor, relation, weight) rows for many
        entities, each entity's rows in adjacency order, strictly increasing
        by (neighbor, relation) as the class guarantees; an id outside
        ``0..n_entities-1`` raises ``IndexError``.

        Given ``within``, a boolean mask over entities, only the rows whose
        neighbor it marks are kept; source, relation and weight are read for
        those rows alone.
        """
        eids = np.asarray(eids, dtype=np.int64)
        bad = eids[(eids < 0) | (eids >= self.n_entities)]
        if bad.size:
            raise IndexError(f"invalid entity id {bad[0]}")
        take, counts = csr_slots(self._offsets, eids)
        if take.size == 0:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty, empty.copy(), np.empty(0, dtype=np.float64)
        src = np.repeat(eids.astype(np.int32), counts)
        nbr = self._nbr[take]
        if within is not None:
            keep = np.flatnonzero(within[nbr])
            take, src, nbr = take[keep], src[keep], nbr[keep]
        return src, nbr, self._rel[take], self._weight[take].astype(np.float64)

    # -- persistence -------------------------------------------------------

    def save(self, index_dir: Path | str) -> None:
        """Write the built index to a directory (entities, relations, arrays)."""
        index_dir = Path(index_dir)
        index_dir.mkdir(parents=True, exist_ok=True)
        # no file is replaced unless all three were written in full
        with (
            atomic_write(index_dir / "entities.txt") as ents,
            atomic_write(index_dir / "relations.txt") as rels,
            atomic_write(index_dir / "adjacency.npz", "wb") as adj,
        ):
            ents.write("\n".join(self.surfaces) + "\n")
            rels.write("\n".join(self.relations.names) + "\n")
            np.savez(adj, offsets=self._offsets, nbr=self._nbr, rel=self._rel, weight=self._weight)

    @classmethod
    def load_index(cls, index_dir: Path | str) -> "KnowledgeGraph":
        """Read an index written by ``save``; an unreadable file, ids that are
        not integers or weights that are not floats, arrays that disagree with
        each other or with the entity list, a weight that is not finite and
        >= 0, or an entity whose rows repeat or are out of (neighbour,
        relation) order raise ``InputError``."""
        index_dir = Path(index_dir)
        ent_path, adj_path = index_dir / "entities.txt", index_dir / "adjacency.npz"
        # every line is a surface, with no comment rule: one may start with "#"
        surfaces = [line.rstrip("\n") for _, lines, _ in read_blocks(ent_path) for line in lines]
        relations = load_relations(index_dir / "relations.txt")
        try:
            with open(adj_path, "rb") as f, np.load(f) as arrays:
                offsets, nbr, rel, weight = (arrays[k] for k in ("offsets", "nbr", "rel", "weight"))
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise InputError(adj_path, msg=f"unreadable index arrays ({exc})") from None

        n = len(surfaces)
        ints = all(np.issubdtype(a.dtype, np.integer) for a in (offsets, nbr, rel))
        if not (ints and np.issubdtype(weight.dtype, np.floating)):
            raise InputError(
                adj_path, msg="offsets, nbr and rel must be integer arrays and weight a float array"
            )
        if not (nbr.ndim == 1 and nbr.shape == rel.shape == weight.shape):
            raise InputError(adj_path, msg="nbr, rel and weight differ in length")
        if offsets.ndim != 1 or offsets[:1].tolist() != [0] or (np.diff(offsets) < 0).any():
            raise InputError(adj_path, msg="offsets are not monotone from 0")
        if offsets[-1] != nbr.size:
            raise InputError(adj_path, msg=f"offsets end at {offsets[-1]}, not at {nbr.size}")
        if n != offsets.size - 1:
            raise InputError(ent_path, msg=f"{n} entities, but the arrays hold {offsets.size - 1}")
        if nbr.size and not (0 <= nbr.min() and nbr.max() < n):
            raise InputError(adj_path, msg=f"a neighbour id lies outside 0..{n - 1}")
        if rel.size and not (0 <= rel.min() and rel.max() < relations.n_total):
            raise InputError(adj_path, msg=f"a relation id lies outside 0..{relations.n_total - 1}")
        if not (np.isfinite(weight) & (weight >= 0)).all():
            raise InputError(adj_path, msg="a weight is not a non-negative real")
        # ascending[i]: row i + 1 comes after row i by (neighbour, relation),
        # which need not hold where row i + 1 starts an entity
        ascending = (nbr[1:] > nbr[:-1]) | ((nbr[1:] == nbr[:-1]) & (rel[1:] > rel[:-1]))
        ascending[offsets[(offsets > 0) & (offsets < nbr.size)] - 1] = True
        if not ascending.all():
            raise InputError(
                adj_path, msg="an entity's rows are not strictly increasing by (neighbour, relation)"
            )
        return cls(surfaces, relations, offsets, nbr, rel, weight)


def dedup_max_weight(
    h: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
    w: np.ndarray,
    n_entities: int,
    n_relations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (head, relation, tail) int64 rows to their max weight.

    Rows come back sorted by (head, tail, relation). Each row is packed into
    one int64 key ``(head * n_entities + tail) * n_relations + relation``;
    sizes where that could overflow (``n_entities**2 * n_relations >= 2**63``)
    raise ``InputError``.
    """
    if n_entities**2 * n_relations >= 1 << 63:
        raise InputError(
            msg=f"{n_entities} entities with {n_relations} relations overflow the int64 edge key"
        )
    if not h.size:
        return h, r, t, w
    key = (h * n_entities + t) * n_relations + r
    uniq, inverse = np.unique(key, return_inverse=True)
    wmax = np.full(uniq.shape[0], -np.inf)
    np.maximum.at(wmax, inverse, w)
    ht = uniq // n_relations
    return ht // n_entities, uniq % n_relations, ht % n_entities, wmax


def _parse_edge_line(line: str, rel_index: dict[str, int]) -> tuple[str, int, str, float]:
    """One edge line, its ending removed, as (head, relation id, tail,
    weight), surfaces normalized.

    This is the one statement of the line rules: a ``ValueError`` names the
    first rule the line breaks.
    """
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
    hs, rname, ts, wtext = parts
    rid = rel_index.get(rname)
    if rid is None:
        raise ValueError(f"unknown relation {rname!r}")
    try:
        w = float(wtext)
    except ValueError:
        raise ValueError(f"weight {wtext!r} is not a number") from None
    if not math.isfinite(w) or w < 0:
        raise ValueError(f"weight {wtext!r} is not a non-negative real")
    hs = normalize_surface(hs)
    ts = normalize_surface(ts)
    if not hs or not ts:
        raise ValueError("empty entity surface")
    return hs, rid, ts, w


def _bulk_rows(
    lines: list[str], text: str, rel_index: dict[str, int],
    ids_of: Callable[[list[str]], Optional[np.ndarray]],
) -> Optional[tuple[np.ndarray, list, np.ndarray]]:
    """A block's (interleaved head/tail ids, relation ids, weights), the ids
    given by ``ids_of`` from the surfaces as written; ``text`` is the lines
    joined.

    None when a line may break a rule: the block is then parsed line by line.
    A blank or whitespace-only line never gets through, since its relation
    field would be blank and no relation name is.
    """
    if set(map(str.count, lines, repeat("\t"))) != {3}:
        return None
    # head, relation, tail, weight of every line, end to end
    fields = text.replace("\n", "\t").split("\t")
    end = 4 * len(lines)
    rids = list(map(rel_index.get, fields[1:end:4]))
    if None in rids:
        return None
    wtexts = fields[3:end:4]
    try:
        w = np.fromiter(map(float, wtexts), dtype=np.float64, count=len(wtexts))
    except ValueError:
        return None
    if not ((w >= 0) & (w < np.inf)).all():  # also false for nan
        return None
    ids = ids_of(fields[0:end:2])
    return None if ids is None else (ids, rids, w)


def load_graph(
    edge_file: Path | str,
    relation_priority_file: Optional[Path | str],
) -> KnowledgeGraph:
    """Load and index an edge TSV, materializing reversed edges.

    Rules: surfaces are normalized, entity ids are assigned by first
    appearance, duplicate (head, relation, tail) triples keep the maximum
    weight, and every forward edge also yields ``tail --rev_r--> head`` with
    the same weight. Blank lines and comments (first non-blank character
    ``#``) are skipped. A line that breaks a rule raises
    ``InputError(path, lineno, reason)`` for the first such line in the file,
    a line holding a byte that is not UTF-8 among them.

    The file is read by ``read_bulk`` in blocks that are parsed in bulk; a
    block with a comment or a bad line is re-parsed line by line with
    ``_parse_edge_line``.
    """
    relations = load_relations(relation_priority_file)
    rel_index = {n: i for i, n in enumerate(relations.names)}

    index: dict[str, int] = {}  # normalized surface -> id
    raw_ids: dict[str, int] = {}  # surface as written -> id
    surfaces: list[str] = []
    id_blocks, rel_blocks, weight_blocks = [], [], []

    def ids_of(surf: list[str]) -> Optional[np.ndarray]:
        """Ids of surfaces as written, numbering new normalized surfaces by
        first appearance; None if one normalizes to nothing."""
        try:
            return np.fromiter(map(raw_ids.__getitem__, surf), dtype=np.int32, count=len(surf))
        except KeyError:
            pass
        new = list(filterfalse(raw_ids.__contains__, dict.fromkeys(surf)))
        normalized = list(map(normalize_surface, new))
        if "" in normalized:
            return None
        for raw, norm in zip(new, normalized):
            eid = index.get(norm)
            if eid is None:
                eid = index[norm] = len(surfaces)
                surfaces.append(norm)
            raw_ids[raw] = eid
        return np.fromiter(map(raw_ids.__getitem__, surf), dtype=np.int32, count=len(surf))

    def gather(rows: list[tuple[str, int, str, float]]) -> tuple[np.ndarray, tuple, np.ndarray]:
        hs, rids, ts, ws = zip(*rows) if rows else ((),) * 4
        return ids_of([s for ht in zip(hs, ts) for s in ht]), rids, np.array(ws, dtype=np.float64)

    for ids, rids, w in read_bulk(
        edge_file,
        lambda lines, text: _bulk_rows(lines, text, rel_index, ids_of),
        lambda line: _parse_edge_line(line, rel_index),
        gather,
    ):
        id_blocks.append(ids)
        rel_blocks.append(np.array(rids, dtype=np.int32))
        weight_blocks.append(w)

    def joined(blocks: list[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate(blocks) if blocks else np.empty(0, dtype=dtype)

    n_ent = len(surfaces)
    ht = joined(id_blocks, np.int32)
    del id_blocks
    h = ht[0::2].astype(np.int64)
    t = ht[1::2].astype(np.int64)
    del ht
    r = joined(rel_blocks, np.int32).astype(np.int64)
    w = joined(weight_blocks, np.float64)
    del rel_blocks, weight_blocks

    h, r, t, w = dedup_max_weight(h, r, t, w, n_ent, relations.n_total)

    # Materialize reversals and sort once into the CSR adjacency, ordered by
    # (head, neighbor, relation). Each directed edge is one int64 key
    # (head * n + neighbor) * R + relation, a reversal's relation being its
    # forward one + n_forward. The keys are distinct, so the order is unique;
    # neighbor, relation and row offsets are decoded from the sorted keys.
    n_rel, nf = relations.n_total, relations.n_forward
    key = np.concatenate([(h * n_ent + t) * n_rel + r, (t * n_ent + h) * n_rel + r + nf])
    del h, r, t
    order = np.argsort(key)
    key = key[order]
    adj_weight = np.concatenate([w, w], dtype=np.float32)[order]
    del w, order
    # The statement order is chosen for memory: gathering the weights first
    # and decoding straight into int32 left the least freed heap behind of
    # the orders measured on a 600k-edge graph.
    adj_rel = np.empty(key.size, dtype=np.int32)
    adj_nbr = np.empty(key.size, dtype=np.int32)
    np.remainder(key, n_rel, out=adj_rel, casting="unsafe")
    key //= n_rel
    np.remainder(key, n_ent, out=adj_nbr, casting="unsafe")
    key //= n_ent
    offsets = np.zeros(n_ent + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n_ent), out=offsets[1:])
    del key

    graph = KnowledgeGraph(surfaces, relations, offsets, adj_nbr, adj_rel, adj_weight)
    logger.info(
        "loaded graph: %d entities, %d directed edges (%d relations)",
        graph.n_entities,
        graph.n_edges,
        relations.n_total,
    )
    return graph
