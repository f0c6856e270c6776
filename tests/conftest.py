import os
import zlib

# One BLAS thread: kgpath's matrices are small, and more threads only
# oversubscribe the cores. Set before numpy loads OpenBLAS, which reads it once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from kgpath.config import RunConfig, load_config
from kgpath.kg import Edge, load_graph
from kgpath.pipeline import load_runtime
from kgpath.synth import SuiteSpec, generate_suite


#: the operating point, for a test that means its values
CFG = RunConfig()


def write_edges(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\t{w}\n" for h, r, t, w in rows), encoding="utf-8")
    return path


def write_relations(path, names):
    path.write_text("\n".join(names) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def tiny_graph(tmp_path):
    """The three-line example graph: a-relatedto-b, b-isa-c, a-isa-c."""
    edges = write_edges(
        tmp_path / "edges.tsv",
        [("a", "relatedto", "b", 1.0), ("b", "isa", "c", 2.0), ("a", "isa", "c", 0.5)],
    )
    rels = write_relations(tmp_path / "relations.txt", ["relatedto", "isa"])
    return load_graph(edges, rels)


@pytest.fixture(scope="module")
def small_runtime(tmp_path_factory):
    """The runtime of a tiny planted suite: 150 entities, 600 edges, 24
    queries, d = D = 8, with dropout and a prune target that cuts."""
    out = tmp_path_factory.mktemp("oracle_suite")
    generate_suite(out, SuiteSpec(seed=5, n_entities=150, n_edges=600, n_queries=24, dim=8))
    overrides = {"dropout": "0.5", "batch_size": "3", "lr": "2e-3", "prune_target": "15",
                 "n_paths": "40"}
    return load_runtime(load_config(out / "suite.config", overrides))


class FakeTextFeatures:
    """A text-feature provider with non-zero rows, for tests that need the
    p columns to carry values: each row is drawn from a generator seeded by
    (seed, qid, entity) alone, so it does not depend on which other entities
    are gathered with it."""

    def __init__(self, dim, seed=0):
        self.dim = dim
        self.seed = seed

    def gather(self, qid, ids):
        key = zlib.crc32(qid.encode())
        rows = np.zeros((len(ids), self.dim))
        for i, eid in enumerate(np.asarray(ids, dtype=np.int64).tolist()):
            rows[i] = np.random.default_rng([self.seed, key, eid]).standard_normal(self.dim)
        return rows


def out_edges(g, eid):
    """Every edge out of ``eid`` as an ``Edge``, read through ``edges_from``."""
    _, nbr, rel, w = g.edges_from([eid])
    return [Edge(eid, r, n, wt) for n, r, wt in zip(nbr.tolist(), rel.tolist(), w.tolist())]


def no_edges():
    """The head, relation, tail and weight arrays ``SchemaGraph.from_edges``
    reads for a graph without edges."""
    ids = np.empty(0, dtype=np.int64)
    return ids, ids, ids, np.empty(0)


def random_graph(tmp_path, rng, n_entities=30, n_edges=120, relations=("r0", "r1", "r2")):
    """Random lowercase graph with dyadic weights (exact float sums)."""
    rows = []
    for i in range(n_entities - 1):  # chain keeps everything connected
        rows.append((f"n{i}", relations[int(rng.integers(len(relations)))], f"n{i+1}",
                     int(rng.integers(1, 17)) / 4))
    while len(rows) < n_edges:
        a, b = rng.integers(n_entities, size=2)
        if a == b:
            continue
        rows.append((f"n{a}", relations[int(rng.integers(len(relations)))], f"n{b}",
                     int(rng.integers(1, 17)) / 4))
    edges = write_edges(tmp_path / "rand_edges.tsv", rows)
    rels = write_relations(tmp_path / "rand_relations.txt", list(relations))
    return load_graph(edges, rels), rows


def finite_difference(fn, params, h=1e-5):
    """Central finite differences of a scalar function over numpy arrays.

    ``params`` are mutated in place during probing and restored afterwards;
    returns one gradient array per parameter.
    """
    grads = []
    for arr in params:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn()
            flat[i] = orig - h
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def rank_by_score(entity_ids, scores):
    """Entity ids sorted by descending score, ascending id on ties: the full
    sort that ``pruning.node_gt_rank`` counts without."""
    order = np.lexsort((entity_ids, -scores))
    return entity_ids[order]


def relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if den == 0:
        return 0.0
    return num / den
