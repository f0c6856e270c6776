"""Seeded synthetic suites: a KG, embeddings, queries, and planted answers.

The generator builds a connected graph (a chain touching every entity plus
random filler edges), then plants each query's ground truth at a controlled
hop distance from one of its key nodes. Two-hop answers are routed through an
intermediate that is itself some query's answer, so close-set retrieval (which
may only recruit candidate entities) can always reach them. Edge weights and
confidences are drawn from a dyadic grid (multiples of 1/4 and 1/16) so that
weight sums are exact in float64 and ranking comparisons against brute-force
oracles are reproducible.

Everything derives from one numpy generator, and no output carries a
timestamp, so a suite is regenerable byte-for-byte from (seed, parameters).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import atomic_write, sha256_file, write_json, write_jsonl
from .embeddings import planted_context
from .kg import DEFAULT_RELATIONS

_FILLER_TOKENS = (
    ("what", "other"),
    ("is", "other"),
    ("the", "other"),
    ("picture", "noun"),  # stopworded on purpose
    ("here", "other"),
)

SECOND_ANSWER_PROB = 0.25
REUSE_TRAIN_ANSWER_PROB = 0.4
#: distinct relations planted per answer link; parallel edges raise the odds
#: that a walk reaches the answer at all
LINK_MULTIPLICITY = 2
#: extra independent key->mid->answer routes planted per answer; distinct
#: routes diversify the node sequences of answer-terminated paths
EXTRA_ROUTES = 2


@dataclass
class SuiteSpec:
    """Generator parameters; the manifest echoes these verbatim."""

    seed: int = 7
    n_entities: int = 1000
    n_edges: int = 5000
    n_queries: int = 250
    hop_mix: dict[int, float] = field(default_factory=lambda: {1: 0.5, 2: 0.5})
    alignment: float = 0.9
    dim: int = 64
    train_fraction: float = 0.8
    #: question / visual key nodes per query
    n_question_keys: int = 1
    n_visual_keys: int = 1
    emit_vectors: bool = True

    def __post_init__(self):
        """Refuse any field the generator cannot honour, naming the field."""
        check_hop_mix(self.hop_mix)
        total = sum(self.hop_mix.values())
        self.hop_mix = {h: p / total for h, p in self.hop_mix.items()}
        for name in ("n_entities", "n_edges", "n_queries", "n_question_keys", "n_visual_keys"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        n_keys = self.n_question_keys + self.n_visual_keys
        if n_keys < 1:
            raise ValueError("n_question_keys + n_visual_keys must be >= 1")
        # keys, the answer and a second answer are distinct entities
        if self.n_entities < n_keys + 2:
            raise ValueError(
                f"n_entities must be >= {n_keys + 2} for {n_keys} key nodes, got {self.n_entities}"
            )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.alignment <= 1.0:
            raise ValueError(f"alignment must lie in [0, 1], got {self.alignment}")
        if not 0.0 <= self.train_fraction <= 1.0 or (self.n_queries and self.n_train < 1):
            raise ValueError(
                f"train_fraction must lie in [0, 1] and leave at least one of the "
                f"{self.n_queries} queries for training, got {self.train_fraction}"
            )

    @property
    def hop_bound(self) -> int:
        return max(self.hop_mix)

    @property
    def n_train(self) -> int:
        return int(round(self.n_queries * self.train_fraction))


def check_hop_mix(hop_mix: dict[int, float]) -> None:
    """Refuse hop distances other than 1 and 2 and weights that do not make a
    distribution."""
    if set(hop_mix) - {1, 2}:
        raise ValueError("hop_mix supports hop distances 1 and 2 only")
    if not all(0.0 <= p < np.inf for p in hop_mix.values()):
        raise ValueError("hop_mix weights must be finite and >= 0")
    if sum(hop_mix.values()) <= 0:
        raise ValueError("hop_mix probabilities must sum to a positive value")


def _grid_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(1, 17, size=size).astype(np.float64) / 4.0


def _grid_conf(rng: np.random.Generator) -> float:
    return float(rng.integers(8, 17)) / 16.0


def _random_edges(
    rng: np.random.Generator, n_entities: int, n_rel: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random non-self-loop edges, vectorized."""
    heads = np.empty(0, dtype=np.int64)
    tails = np.empty(0, dtype=np.int64)
    while heads.size < count:
        need = count - heads.size
        a = rng.integers(n_entities, size=need + need // 8 + 8)
        b = rng.integers(n_entities, size=a.size)
        ok = a != b
        heads = np.concatenate([heads, a[ok]])[:count]
        tails = np.concatenate([tails, b[ok]])[:count]
    rels = rng.integers(n_rel, size=count)
    weights = _grid_weights(rng, count)
    return heads, rels, tails, weights


def generate_suite(out_dir: Path | str, spec: SuiteSpec) -> dict:
    """Write the full suite into ``out_dir`` and return its manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_entities
    width = max(4, len(str(n - 1)))
    surfaces = [f"ent_{i:0{width}d}" for i in range(n)]
    rel_names = list(DEFAULT_RELATIONS)
    n_rel = len(rel_names)

    # Chain so every entity appears (ids become positional) and stays reachable.
    chain_a = np.arange(n - 1, dtype=np.int64)
    chain_b = chain_a + 1
    flip = rng.random(n - 1) < 0.5
    chain_h = np.where(flip, chain_b, chain_a)
    chain_t = np.where(flip, chain_a, chain_b)
    chain_r = rng.integers(n_rel, size=n - 1)
    chain_w = _grid_weights(rng, n - 1)

    matrix = None
    if spec.emit_vectors:
        matrix = rng.standard_normal((n, spec.dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)

    # Primary answers up front: two-hop intermediates are drawn from this pool,
    # which keeps them inside the close-set candidate vocabulary.
    primary_gt = rng.choice(n, size=spec.n_queries, replace=(spec.n_queries > n // 2))
    n_train = spec.n_train
    train_pool = primary_gt[:n_train].copy()
    for qi in range(n_train, spec.n_queries):
        if rng.random() < REUSE_TRAIN_ANSWER_PROB:
            primary_gt[qi] = train_pool[rng.integers(max(n_train, 1))]

    planted: list[tuple[int, int, int, float]] = []

    def plant_edge(a: int, b: int) -> None:
        rels = rng.choice(n_rel, size=min(LINK_MULTIPLICITY, n_rel), replace=False)
        for rel in rels:
            w = float(rng.integers(1, 17)) / 4.0
            if rng.random() < 0.5:
                planted.append((b, int(rel), a, w))
            else:
                planted.append((a, int(rel), b, w))

    queries = []
    hops = sorted(spec.hop_mix)
    hop_probs = [spec.hop_mix[h] for h in hops]
    for qi in range(spec.n_queries):
        qid = f"q{qi:04d}"
        gt = int(primary_gt[qi])
        n_qk, n_vk = spec.n_question_keys, spec.n_visual_keys
        keys: list[int] = []
        while len(keys) < n_qk + n_vk:
            cand = int(rng.integers(n))
            if cand != gt and cand not in keys:
                keys.append(cand)
        q_keys, v_keys = keys[:n_qk], keys[n_qk:]
        answers = [gt]

        def pick_mid(target: int, anchor: int) -> Optional[int]:
            # Sample intermediates from the answer pool; prefer the one most
            # similar to the target, the way real reasoning chains pass
            # through semantically related entities.
            cands = []
            for _ in range(24):
                mid = int(primary_gt[rng.integers(spec.n_queries)])
                if mid != target and mid != anchor and mid not in cands:
                    cands.append(mid)
                if len(cands) >= 12:
                    break
            if not cands:
                return None
            if matrix is None:
                return cands[0]
            sims = matrix[cands] @ matrix[target]
            return cands[int(np.argmax(sims))]

        def plant_route(target: int, hop: int) -> None:
            anchor = keys[int(rng.integers(len(keys)))]
            if hop == 2:
                mid = pick_mid(target, anchor)
                if mid is not None:
                    plant_edge(anchor, mid)
                    plant_edge(mid, target)
                    return
            plant_edge(anchor, target)

        def plant(target: int) -> None:
            plant_route(target, int(rng.choice(hops, p=hop_probs)))
            # redundant routes: answers near questions are richly connected
            for _ in range(EXTRA_ROUTES):
                plant_route(target, 2)

        plant(gt)
        if rng.random() < SECOND_ANSWER_PROB:
            second = gt
            while second == gt or second in keys:
                second = int(rng.integers(n))
            plant(second)
            answers.append(second)

        tokens = [list(_FILLER_TOKENS[0]), list(_FILLER_TOKENS[1])]
        tokens += [[surfaces[k], "noun"] for k in q_keys]
        tokens += [list(t) for t in _FILLER_TOKENS[2:]]
        labels = [[surfaces[k], _grid_conf(rng)] for k in v_keys]
        labels.append(["background", _grid_conf(rng)])  # unlinkable on purpose
        triplets = []
        if len(v_keys) >= 2:
            rel = rel_names[int(rng.integers(n_rel))]
            triplets.append([surfaces[v_keys[0]], rel, surfaces[v_keys[1]], _grid_conf(rng)])
        if rng.random() < 0.3:
            triplets.append(
                [surfaces[keys[0]], "has", surfaces[int(rng.integers(n))], _grid_conf(rng)]
            )
        queries.append(
            {
                "qid": qid,
                "question_tokens": tokens,
                "scene_labels": labels,
                "scene_triplets": triplets,
                "answers": [[surfaces[a], int(rng.integers(1, 5))] for a in answers],
                "split": "train" if qi < n_train else "test",
            }
        )

    n_fixed = chain_h.size + len(planted)
    n_filler = max(0, spec.n_edges - n_fixed)
    fill_h, fill_r, fill_t, fill_w = _random_edges(rng, n, n_rel, n_filler)

    files = {}
    edge_path = out_dir / "kg_edges.tsv"
    with atomic_write(edge_path) as f:
        _write_edge_block(f, surfaces, rel_names, chain_h, chain_r, chain_t, chain_w)
        for a, rel, b, w in planted:
            f.write(f"{surfaces[a]}\t{rel_names[rel]}\t{surfaces[b]}\t{w:g}\n")
        _write_edge_block(f, surfaces, rel_names, fill_h, fill_r, fill_t, fill_w)
    files["kg_edges.tsv"] = edge_path

    rel_path = out_dir / "relations.txt"
    with atomic_write(rel_path) as f:
        f.write("\n".join(rel_names) + "\n")
    files["relations.txt"] = rel_path

    queries_path = out_dir / "queries.jsonl"
    write_jsonl(queries_path, queries)
    files["queries.jsonl"] = queries_path

    if spec.emit_vectors:
        surf_id = {s: i for i, s in enumerate(surfaces)}
        emb_path = out_dir / "entity_embeddings.tsv"
        with atomic_write(emb_path) as f:
            for i in range(n):
                f.write(surfaces[i] + "\t" + " ".join(f"{x:.8f}" for x in matrix[i]) + "\n")
        files["entity_embeddings.tsv"] = emb_path

        def context(q: dict) -> dict:
            gt_rows = np.stack([matrix[surf_id[a]] for a, _ in q["answers"]])
            ctx = planted_context(rng, q["qid"], gt_rows, spec.alignment)
            return {"qid": ctx.qid, "z": ctx.z.tolist(), "v": ctx.v.tolist(), "t": ctx.t.tolist()}

        ctx_path = out_dir / "contexts.jsonl"
        write_jsonl(ctx_path, map(context, queries))
        files["contexts.jsonl"] = ctx_path

        config_path = out_dir / "suite.config"
        with atomic_write(config_path) as f:
            f.write(
                "\n".join(
                    [
                        "kg_edges = kg_edges.tsv",
                        "relations = relations.txt",
                        "queries = queries.jsonl",
                        "entity_embeddings = entity_embeddings.tsv",
                        "contexts = contexts.jsonl",
                        f"d = {spec.dim}",
                        f"D = {spec.dim}",
                        f"seed = {spec.seed}",
                        "",
                    ]
                )
            )
        files["suite.config"] = config_path

    manifest = {
        "command": "synth",
        "params": _spec_to_json(spec),
        "hop_bound": spec.hop_bound,
        "counts": {
            "entities": n,
            "edges_written": int(n_fixed + n_filler),
            "queries": spec.n_queries,
            "train": n_train,
            "test": spec.n_queries - n_train,
        },
        "files": {name: sha256_file(path) for name, path in sorted(files.items())},
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def _write_edge_block(f, surfaces, rel_names, h, r, t, w) -> None:
    chunk = 200_000  # edge rows formatted per write
    for lo in range(0, len(h), chunk):
        hi = min(lo + chunk, len(h))
        rows = [
            f"{surfaces[h[i]]}\t{rel_names[r[i]]}\t{surfaces[t[i]]}\t{w[i]:g}\n"
            for i in range(lo, hi)
        ]
        f.write("".join(rows))


def _spec_to_json(spec: SuiteSpec) -> dict:
    obj = asdict(spec)
    obj["hop_mix"] = {str(h): p for h, p in spec.hop_mix.items()}
    return obj

