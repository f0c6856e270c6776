"""Array path batches against the object-per-path route they replaced.

The functions under "reference" are verbatim copies of the list-of-objects
route (``InferencePath``, the label comprehension, ``aggregate_answers``,
``ranked_paths`` and the list building of ``evaluate_query``); the path
score, forward and backward, is ``tests/reference.py``'s, run over each
object's walked rows. Every comparison asserts equal bytes for arrays and
equal Python lists (with equal ``repr``, so types and the sign of a zero
score count too). One exception: the reference scoring route can give f_p
its input as the tiled [t || v || h_t] matrix it was written with, or as the
column blocks the package builds now. Against the blocks, scores and
gradients are equal bytes; against the tiled matrix, whose sums run in
another order, they agree to rtol 1e-12 (``assert_close``).
"""

import copy
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

from kgpath import pipeline
from kgpath.embeddings import QueryContext
from kgpath.neural import ScoringModel
from kgpath.paths import (
    _backward_paths,
    _forward_paths,
    _path_labels,
    aggregate_answers,
    pack_paths,
    ranked_paths,
    sample_paths,
)
from kgpath.metrics import gt_rank
from kgpath.pruning import PrunedGraph, bfs_scores, prune_from_scores

from conftest import rank_by_score
from reference import reference_backward_paths, reference_forward_paths
from test_node_input_oracle import assert_close
from test_path_ranker import as_pruned
from test_pruning import random_local_graph

# ---------------------------------------------------------------------------
# reference: the object-per-path route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InferencePath:
    """A key-node-rooted simple walk with its relations and (optional) score."""

    nodes: tuple[int, ...]
    relations: tuple[int, ...]
    score: Optional[float] = None

    @property
    def terminal(self) -> int:
        return self.nodes[-1]

    @property
    def length(self) -> int:
        return len(self.relations)


def ref_labels(paths, gt):
    return np.array([p.terminal in gt for p in paths], dtype=np.float64)


def ref_aggregate_answers(paths) -> list[tuple[int, float]]:
    best: dict[int, float] = {}
    for p in paths:
        if p.score is None:
            raise ValueError("aggregate_answers needs a scored batch")
        cur = best.get(p.terminal)
        if cur is None or p.score > cur:
            best[p.terminal] = p.score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def ref_ranked_paths(paths) -> list[InferencePath]:
    return sorted(paths, key=lambda p: -p.score)


def ref_result_lists(node_ids, s_cos, gt, paths):
    node_rank = gt_rank([int(e) for e in rank_by_score(node_ids, s_cos)], gt)
    answers = ref_aggregate_answers(paths) if paths else []
    ordered = ref_ranked_paths(paths) if paths else []
    return (
        node_rank,
        answers,
        [p.terminal for p in ordered],
        [(p.nodes, p.relations, p.score) for p in ordered[:10]],
    )


# ---------------------------------------------------------------------------
# random batches
# ---------------------------------------------------------------------------

K = 3
DIM = 4
N_BATCHES = 240


def random_case(rng, trial):
    """An unpruned graph of entity ids, a pruned graph over a shuffled subset
    of its rows, and a batch of paths over the kept rows, as -1 padded
    arrays of unpruned row positions and as reference objects. Paths need
    not be simple: the scoring route does not care, and repeats make one row
    appear at several steps."""
    n_rows = int(rng.integers(1, 9))
    ids = rng.choice(10_000, size=n_rows, replace=False).astype(np.int64)
    kept = rng.permutation(n_rows)[: int(rng.integers(1, n_rows + 1))]
    sg = SimpleNamespace(nodes=ids, qid=f"q{trial}")
    pg = PrunedGraph(
        sg=sg,
        rows=kept,
        s_cos=np.zeros(kept.size),
        s_bfs=np.zeros(kept.size),
        s_prune=np.zeros(kept.size),
    )
    shape = trial % 6
    if shape == 0:
        n = 0  # empty batch
    elif shape == 5:
        n = int(rng.integers(17, 60))  # long enough for numpy's non-insertion sorts
    else:
        n = int(rng.integers(1, 17))
    if shape == 1:
        lengths = [1] * n  # only 1-step paths
    elif shape == 2:
        lengths = [K] * n  # only k-step paths
    else:
        lengths = [int(x) for x in rng.integers(1, K + 1, size=n)]
    hot = int(kept[rng.integers(kept.size)])
    rows, rel_cells = np.full((n, K + 1), -1), np.full((n, K), -1)
    paths = []
    for i, length in enumerate(lengths):
        walk = [int(kept[x]) for x in rng.integers(kept.size, size=length + 1)]
        if shape == 3:  # one row reached by many paths at different steps
            walk[int(rng.integers(1, length + 1))] = hot
        rels = [int(x) for x in rng.integers(5, size=length)]
        rows[i, : length + 1] = walk
        rel_cells[i, :length] = rels
        paths.append((tuple(int(ids[p]) for p in walk), tuple(rels)))
    # scores from a small set, signed zeros included, so ties are common
    scores = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0], size=n)
    if trial % 2:
        scores = np.round(rng.standard_normal(n), 1)
    batch = pack_paths(pg, rows, rel_cells)
    batch.scores = scores
    ref = [InferencePath(nodes=p, relations=r, score=float(s)) for (p, r), s in zip(paths, scores)]
    return sg, pg, batch, ref


def cases():
    rng = np.random.default_rng(2024)
    return [random_case(rng, trial) for trial in range(N_BATCHES)]


def test_cases_cover_the_edge_shapes():
    shapes = {"empty": 0, "one-step": 0, "k-step": 0, "repeat-terminal": 0, "tie": 0}
    for _, _, batch, ref in cases():
        lengths = [p.length for p in ref]
        shapes["empty"] += not ref
        shapes["one-step"] += bool(ref) and set(lengths) == {1}
        shapes["k-step"] += bool(ref) and set(lengths) == {K}
        terminals = [p.terminal for p in ref]
        shapes["repeat-terminal"] += len(set(terminals)) < len(terminals)
        shapes["tie"] += len(set(batch.scores.tolist())) < len(ref)
    assert min(shapes.values()) >= 20, shapes


def test_layout_pads_with_minus_one():
    for sg, pg, batch, ref in cases():
        n = len(ref)
        assert batch.rows.shape == batch.paths.shape == (n, K + 1)
        assert batch.rels.shape == (n, K)
        assert batch.lengths.tolist() == [p.length for p in ref]
        for j, p in enumerate(ref):
            assert batch.paths[j].tolist() == list(p.nodes) + [-1] * (K - p.length)
            assert batch.rels[j].tolist() == list(p.relations) + [-1] * (K - p.length)
            walked = batch.rows[j, : p.length + 1]
            assert sg.nodes[walked].tolist() == list(p.nodes)
            assert (batch.rows[j, p.length + 1 :] == -1).all()
        assert batch.last(batch.paths).tolist() == [p.terminal for p in ref]


def test_sampled_batches_index_the_unpruned_graph():
    rng = np.random.default_rng(5)
    for trial in range(40):
        sg = random_local_graph(rng, max_nodes=12, max_edges=30)
        s_cos = rng.standard_normal(sg.n_nodes)
        pg = prune_from_scores(sg, s_cos, bfs_scores(sg), 0.3, max(2, sg.n_nodes // 2))
        for n_paths in (1, 3, 200):
            batch = sample_paths(pg, n_paths, K, seed=trial)
            walked = batch.rows >= 0
            assert np.array_equal(walked, batch.paths >= 0)
            assert np.array_equal(sg.nodes[batch.rows[walked]], batch.paths[walked])
            assert np.array_equal(walked[:, 1:], batch.rels >= 0)


def model_and_inputs(seed, n_rows):
    rng = np.random.default_rng(seed)
    model = ScoringModel(DIM, 3, K, dropout_rate=0.25, seed=seed)
    h = rng.standard_normal((n_rows, DIM))
    z = rng.standard_normal(DIM)
    ctx = QueryContext(qid="q", z=z, v=rng.standard_normal(DIM), t=rng.standard_normal(DIM))
    return model, h, ctx, rng


def test_forward_and_backward_match_reference_bytes():
    for trial, (sg, pg, batch, ref) in enumerate(cases()):
        if not ref:
            continue
        positions = {int(e): i for i, e in enumerate(sg.nodes)}
        walks = [tuple(positions[e] for e in p.nodes) for p in ref]
        model, h, ctx, rng = model_and_inputs(trial, sg.nodes.size)
        for train in (False, True):
            new_model = copy.deepcopy(model)
            scores, h_p, cache = _forward_paths(new_model, batch, h, ctx, train=train)
            dscores = rng.standard_normal(len(ref))
            dh = np.zeros_like(h)
            _backward_paths(new_model, batch, dscores, cache, dh)
            got = [scores, h_p, dh] + [g for _, _, g in new_model.parameters()]
            for tiled in (False, True):
                ref_model = copy.deepcopy(model)
                r_scores, r_h_p, r_cache = reference_forward_paths(
                    ref_model, walks, h, ctx, train=train, tiled=tiled
                )
                r_dh = np.zeros_like(h)
                reference_backward_paths(ref_model, walks, dscores, r_cache, r_dh)
                want = [r_scores, r_h_p, r_dh] + [g for _, _, g in ref_model.parameters()]
                for a, b in zip(got, want):
                    if tiled:
                        assert_close(a, b)
                    else:
                        assert a.tobytes() == b.tobytes(), trial


def test_labels_match_reference():
    rng = np.random.default_rng(7)
    for sg, pg, batch, ref in cases():
        gt_rows = rng.choice(sg.nodes.size, size=int(rng.integers(0, sg.nodes.size + 1)),
                             replace=False)
        # a ground-truth id outside the graph labels nothing
        gt = frozenset(sg.nodes[gt_rows].tolist()) | {10_001}
        got = _path_labels(batch, np.sort(gt_rows), sg.nodes.size)
        assert got.tobytes() == ref_labels(ref, gt).tobytes()


def test_answers_and_ranking_match_reference():
    for sg, pg, batch, ref in cases():
        got = aggregate_answers(batch, batch.last(batch.paths))
        want = ref_aggregate_answers(ref)
        assert got == want and repr(got) == repr(want)
        order = ranked_paths(batch)
        assert [id(ref[i]) for i in order.tolist()] == [id(p) for p in ref_ranked_paths(ref)]


def test_result_lists_match_reference(monkeypatch):
    cfg = SimpleNamespace(theta_p=0.3, prune_target=100, n_paths=200, k=K, seed=0)
    rng = np.random.default_rng(11)
    for sg, pg, batch, ref in cases():
        s_cos = rng.choice([-1.0, 0.0, 0.5, 1.0], size=sg.nodes.size)
        gt_pos = np.sort(rng.choice(sg.nodes.size, size=int(rng.integers(1, sg.nodes.size + 1)),
                                    replace=False))
        gt = frozenset(sg.nodes[gt_pos].tolist())
        sample = SimpleNamespace(
            qid=sg.qid, split="test", gt=gt, annotations={}, sg=sg, gt_pos=gt_pos,
        )
        monkeypatch.setattr(pipeline, "run_query",
                            lambda *a, **kw: (pg, batch, s_cos, None, None, None))
        result = pipeline.evaluate_query(None, sample, cfg)
        got = (result.node_rank, result.answer_ranking, result.path_terminals,
               result.top_paths)
        want = ref_result_lists(sg.nodes, s_cos, gt, ref)
        assert got == want and repr(got) == repr(want)


def test_unscored_batch_is_refused():
    sg = random_local_graph(np.random.default_rng(3), max_nodes=4, max_edges=8)
    batch = sample_paths(as_pruned(sg), 10, K, seed=0)
    with pytest.raises(ValueError, match="scored"):
        aggregate_answers(batch, batch.last(batch.paths))
