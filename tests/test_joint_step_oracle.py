"""The per-question route against the inline route it replaced.

``reference_train_joint_step`` of ``tests/reference.py`` is
``train_joint_step`` from before each question ran through ``run_query``:
an f_n pass in training mode and one in eval mode for the cosines,
``prune_from_scores``, ``sample_paths``, and the path score only for a batch
that holds a path, with branches that leave a batch without one out of the
BCE and the backward passes. ``reference_run_query`` is the eval route with
its own branch, built from the same references. The package runs a batch
without a path through the scorer and back as zero rows, and must agree with
the references byte for byte: every parameter, the Adam moments and step
counts, the state of ``model.rng`` afterwards, both losses, and every eval
output. The joint steps run once with every walk kept and once with
``n_paths`` below each graph's walk count, so that the walk seed draws.
"""

import numpy as np
import pytest

from kgpath.embeddings import QueryContext
from kgpath.neural import Adam, ScoringModel
from kgpath.paths import run_query, sample_paths, train_joint_step
from kgpath.pruning import QuerySample, prune

from conftest import CFG, FakeTextFeatures
from reference import (
    batch_bytes,
    batch_walks,
    reference_forward_paths,
    reference_prune,
    reference_train_joint_step,
)
from test_path_ranker import make_samples
from test_pruning import make_sg, sym

ROUTE = dict(theta_p=CFG.theta_p, target=5, n_paths=50, k=3)
DRAWN = 4  # an ``n_paths`` below every path-holding graph's walk count: a Gumbel draw
LOSS = dict(margin=CFG.margin, semi_hard=CFG.semi_hard)

# ---------------------------------------------------------------------------
# reference: the eval route
# ---------------------------------------------------------------------------


def reference_run_query(model, sample, theta_p, target, n_paths, k, seed):
    pg, h, s_cos = reference_prune(model, sample, theta_p, target)
    batch = sample_paths(pg, n_paths, k, seed)
    walks = batch_walks(batch)
    batch.scores = (reference_forward_paths(model, walks, h, sample.ctx, train=False, tiled=False)[0]
                    if walks else np.empty(0))
    return pg, batch, s_cos


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def pathless_sample(model, n_nodes=10, seed=0):
    """A question whose key nodes 0 and 1 have no edge: the other nodes form
    a chain, so the graph has edges, but no walk starts at a key node."""
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n_nodes, model.D))
    z = rng.standard_normal(model.d)
    ctx = QueryContext(qid="qx", z=z, v=z.copy(), t=z.copy())
    edges = sym([(i, 2, i + 1, 1.0) for i in range(2, n_nodes - 1)])
    sg = make_sg(list(range(n_nodes)), [0, 1] + [2] * (n_nodes - 2), edges,
                 q_nodes={0}, v_nodes={1}, qid="qx")
    return QuerySample.build(model, sg, ctx, [n_nodes - 1], emb, FakeTextFeatures(model.d, seed))


def twin_models(dropout):
    """Two models with the same parameters and the same dropout generator."""
    return [ScoringModel(d=6, D=5, k=3, dropout_rate=dropout, seed=41) for _ in range(2)]


def state_bytes(model, optimizer):
    params = [(name, arr.tobytes()) for name, arr, _ in model.parameters()]
    moments = sorted((name, m.tobytes(), v.tobytes(), t) for name, (m, v, t) in optimizer.state.items())
    return params, moments, model.rng.bit_generator.state


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_the_pathless_question_has_no_path_and_the_others_do():
    model, _ = twin_models(0.5)
    samples = make_samples(model, n_queries=3, seed=42)
    for sample in samples + [pathless_sample(model)]:
        batch = run_query(model, sample, seed=0, **ROUTE)[1]
        assert (len(batch) == 0) == (sample.qid == "qx")
        assert sample.qid == "qx" or len(batch) > DRAWN


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_joint_steps_with_a_pathless_question_match_the_inline_route(dropout, where):
    for route in (ROUTE, dict(ROUTE, n_paths=DRAWN)):  # every walk kept; a seeded draw
        model, ref_model = twin_models(dropout)
        batch = make_samples(model, n_queries=3, seed=42)
        batch.insert(where, pathless_sample(model))
        opt, ref_opt = Adam(lr=1e-2), Adam(lr=1e-2)
        steps = [batch, batch[where : where + 1], batch[::-1]]  # mixed, pathless alone, reversed
        for step, chunk in enumerate(steps * 2):
            got = train_joint_step(model, chunk, opt, step_seed=step, **route, **LOSS)
            want = reference_train_joint_step(ref_model, chunk, ref_opt, step_seed=step, **route, **LOSS)
            assert repr(got) == repr(want)
            assert state_bytes(model, opt) == state_bytes(ref_model, ref_opt)
        assert state_bytes(model, opt)[0] != state_bytes(twin_models(dropout)[0], Adam(lr=1e-2))[0]


def test_eval_route_matches_the_guarded_copy_with_and_without_paths():
    model, _ = twin_models(0.5)
    samples = make_samples(model, n_queries=3, seed=43) + [pathless_sample(model, seed=1)]
    rng_state = model.rng.bit_generator.state
    for sample in samples:
        pg, batch, s_cos, *_ = run_query(model, sample, seed=5, **ROUTE)
        ref_pg, ref_batch, ref_s_cos = reference_run_query(model, sample, seed=5, **ROUTE)
        assert pg.rows.tobytes() == ref_pg.rows.tobytes()
        assert s_cos.tobytes() == ref_s_cos.tobytes()
        assert batch_bytes(batch) == batch_bytes(ref_batch)
    assert model.rng.bit_generator.state == rng_state


def test_prune_in_training_mode_selects_by_eval_scores():
    model, twin = twin_models(0.5)
    (sample,) = make_samples(model, n_queries=1, seed=44)
    pg, h, s_cos, cache_n = prune(model, sample, CFG.theta_p, 5, train=True)
    ref_pg, ref_h, ref_s_cos, ref_cache_n = prune(twin, sample, CFG.theta_p, 5)
    assert cache_n is not None and ref_cache_n is None  # eval mode runs no backward pass
    assert pg.rows.tobytes() == ref_pg.rows.tobytes()
    assert s_cos.tobytes() == ref_s_cos.tobytes()
    assert not np.array_equal(h, ref_h)  # the dropout pass's encodings
    assert model.rng.bit_generator.state != twin.rng.bit_generator.state
