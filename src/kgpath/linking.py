"""Key-node extraction: ground question text and scene graphs into KG entities.

Query records arrive pre-tokenized and pre-tagged (running taggers or scene
graph generators is out of scope here); this module only applies the selection
rules: content-word and short-phrase candidates from the question, top-30
labels and top-20 non-blacklisted triplets from the scene graph. One function,
``match_surface``, matches each against the KG by normalized surface, with a
rule-based lemma fallback and an optional synonym table; a triplet's
predicate is looked up among the forward relation names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .config import InputError, new_qid, read_jsonl, read_lines, require_number, require_str
from .kg import Edge, KnowledgeGraph, normalize_surface

#: Question words discarded before matching. The exact list is a choice, not
#: ground truth; these ten cover the usual prompt vocabulary.
DEFAULT_STOPWORDS = frozenset(
    {"which", "picture", "what", "kind", "type", "name", "image", "photo", "shown", "person"}
)

#: Scene-graph predicates too generic to carry question-relevant knowledge.
DEFAULT_PREDICATE_BLACKLIST = frozenset({"has", "of", "on", "in", "near", "with"})

CONTENT_POS = frozenset({"noun", "verb", "adj", "adv"})

MAX_SCENE_LABELS = 30
MAX_SCENE_TRIPLETS = 20


@dataclass
class QueryRecord:
    """One question: tagged tokens, scene graph, answers, and split tag."""

    qid: str
    question_tokens: list[tuple[str, str]]
    scene_labels: list[tuple[str, float]]
    scene_triplets: list[tuple[str, str, str, float]]
    answers: list[tuple[str, int]]
    split: str = "train"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"{self.qid}: split must be train or test, got {self.split!r}")
        for _, conf in self.scene_labels:
            if not 0.0 <= conf <= 1.0:
                raise ValueError(f"{self.qid}: label confidence {conf} outside [0,1]")
        for *_, conf in self.scene_triplets:
            if not 0.0 <= conf <= 1.0:
                raise ValueError(f"{self.qid}: triplet confidence {conf} outside [0,1]")
        if self.split == "train" and not self.answers:
            raise ValueError(f"{self.qid}: train record without ground-truth answers")
        for _, count in self.answers:
            if count < 1:
                raise ValueError(f"{self.qid}: answer count must be >= 1")


@dataclass
class KeyNodeSet:
    """Question and visual key nodes. Overlaps resolve to Q downstream."""

    q_nodes: frozenset[int]
    v_nodes: frozenset[int]

    def all_nodes(self) -> frozenset[int]:
        return self.q_nodes | self.v_nodes

    def __bool__(self) -> bool:
        return bool(self.q_nodes or self.v_nodes)


def load_queries(path: Path | str) -> list[QueryRecord]:
    """Parse the JSON Lines query file; a qid given twice, whatever the
    splits, is refused at its second line, and so is a token, POS tag, scene
    label, triplet subject, predicate or object, or answer that is not a
    string, a label or triplet confidence that is not a JSON number and an
    answer count that is not a JSON integer (a bool is neither)."""
    seen: set[str] = set()

    def build(obj: dict) -> QueryRecord:
        return QueryRecord(
            qid=new_qid(obj, seen),
            question_tokens=[
                (require_str(t, "token"), require_str(p, "POS tag"))
                for t, p in obj.get("question_tokens", [])
            ],
            scene_labels=[
                (require_str(l, "scene label"), require_number(c, "label confidence"))
                for l, c in obj.get("scene_labels", [])
            ],
            scene_triplets=[
                (require_str(h, "triplet subject"), require_str(p, "triplet predicate"),
                 require_str(o, "triplet object"), require_number(c, "triplet confidence"))
                for h, p, o, c in obj.get("scene_triplets", [])
            ],
            answers=[
                (require_str(a, "answer"), require_number(c, "answer count", int))
                for a, c in obj.get("answers", [])
            ],
            split=obj.get("split", "train"),
        )

    return read_jsonl(path, build)


def load_synonyms(path: Optional[Path | str]) -> dict[str, str]:
    """Optional TSV of ``surface<TAB>entity`` pairs read with ``read_lines``;
    absent file means none."""
    if path is None:
        return {}
    table = {}
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise InputError(path, lineno, f"expected 2 tab-separated fields, got {len(fields)}")
        surface, entity = fields
        table[normalize_surface(surface)] = normalize_surface(entity)
    return table


_SUFFIX_RULES = (
    ("ies", ("y",)),
    ("es", ("",)),
    ("s", ("",)),
    ("ing", ("", "e")),
    ("ed", ("", "e")),
)


def lemma_fallback(token: str, known: Callable[[str], bool]) -> str:
    """Rule-based suffix stripping, applied only when the raw form is unknown.

    Tries each suffix rule in order and returns the first stripped variant
    that ``known`` accepts; otherwise returns the token unchanged.
    """
    for suffix, tails in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) > len(suffix) + 1:
            stem = token[: -len(suffix)]
            for tail in tails:
                candidate = stem + tail
                if known(candidate):
                    return candidate
    return token


def match_surface(g: KnowledgeGraph, text: str, synonyms: Optional[dict[str, str]]) -> Optional[int]:
    """The entity id of ``text`` by exact, then lemma, then synonym match of
    its normalized surface; None when none matches."""
    surface = normalize_surface(text)
    if not surface:
        return None
    eid = g.match_entity(surface)
    if eid is not None:
        return eid
    # Lemmatize the final token only; leading tokens of a phrase stay raw.
    head, sep, last = surface.rpartition("_")
    lemma = lemma_fallback(last, lambda s: g.has_surface(head + sep + s))
    if lemma != last:
        return g.match_entity(head + sep + lemma)
    mapped = (synonyms or {}).get(surface)
    if mapped is not None:
        return g.match_entity(mapped)
    return None


def extract_question_nodes(
    g: KnowledgeGraph,
    rec: QueryRecord,
    synonyms: Optional[dict[str, str]],
) -> frozenset[int]:
    """Match content words and 2-3 token phrases of the question into the KG.

    Candidates are scanned longest-first ("fire hydrant" beats "fire" +
    "hydrant"); token positions consumed by a match are unavailable to
    shorter candidates. A span qualifies only if every token is tagged
    noun/verb/adj/adv and none is a stopword.
    """
    tokens = [(tok.lower(), pos) for tok, pos in rec.question_tokens]
    usable = [
        pos_tag in CONTENT_POS and tok not in DEFAULT_STOPWORDS for tok, pos_tag in tokens
    ]
    consumed = [False] * len(tokens)
    matched: set[int] = set()
    for length in (3, 2, 1):
        for start in range(0, len(tokens) - length + 1):
            span = range(start, start + length)
            if not all(usable[i] for i in span):
                continue
            if any(consumed[i] for i in span):
                continue
            candidate = "_".join(tokens[i][0] for i in span)
            eid = match_surface(g, candidate, synonyms)
            if eid is None:
                continue
            matched.add(eid)
            for i in span:
                consumed[i] = True
    return frozenset(matched)


def extract_visual_nodes(
    g: KnowledgeGraph,
    rec: QueryRecord,
    synonyms: Optional[dict[str, str]],
) -> tuple[frozenset[int], list[Edge]]:
    """Map scene labels and triplets into KG nodes and weighted scene edges.

    Keeps the top-30 labels and top-20 non-blacklisted triplets by confidence
    (ties broken lexicographically for determinism). A triplet yields an edge
    only when subject, object, and predicate all match; the edge weight is the
    detection confidence.
    """
    nodes: set[int] = set()

    labels = sorted(rec.scene_labels, key=lambda lc: (-lc[1], lc[0]))[:MAX_SCENE_LABELS]
    for label, _conf in labels:
        eid = match_surface(g, label, synonyms)
        if eid is not None:
            nodes.add(eid)

    kept = [
        t
        for t in rec.scene_triplets
        if _normalize_predicate(t[1]) not in DEFAULT_PREDICATE_BLACKLIST
    ]
    kept.sort(key=lambda t: (-t[3], (t[0], t[1], t[2])))
    edges: list[Edge] = []
    for subj, pred, obj, conf in kept[:MAX_SCENE_TRIPLETS]:
        s_id = match_surface(g, subj, synonyms)
        o_id = match_surface(g, obj, synonyms)
        if s_id is not None:
            nodes.add(s_id)
        if o_id is not None:
            nodes.add(o_id)
        rid = g.relations.forward_id(_normalize_predicate(pred))
        if s_id is not None and o_id is not None and rid is not None and s_id != o_id:
            edges.append(Edge(s_id, rid, o_id, conf))
    return frozenset(nodes), edges


def extract_key_nodes(
    g: KnowledgeGraph,
    rec: QueryRecord,
    synonyms: Optional[dict[str, str]] = None,
) -> tuple[KeyNodeSet, list[Edge]]:
    """Full linking step for one record: question nodes, visual nodes, scene edges."""
    q_nodes = extract_question_nodes(g, rec, synonyms)
    v_nodes, scene_edges = extract_visual_nodes(g, rec, synonyms)
    return KeyNodeSet(q_nodes=q_nodes, v_nodes=v_nodes), scene_edges


def _normalize_predicate(pred: str) -> str:
    return normalize_surface(pred).replace("_", "")


def ground_truth_ids(g: KnowledgeGraph, rec: QueryRecord) -> frozenset[int]:
    """Answer entities present in the KG (absent surfaces are dropped)."""
    ids = set()
    for surface, _count in rec.answers:
        eid = g.match_entity(surface)
        if eid is not None:
            ids.add(eid)
    return frozenset(ids)
