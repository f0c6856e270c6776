"""The per-question route against the inline copies it replaced.

``reference_train_joint_step`` is a verbatim copy of ``train_joint_step``
from before each question ran through ``run_query``: one f_n pass in
training mode with the eval-mode cosines beside it, ``prune_from_scores``,
``sample_paths``, and ``_forward_paths`` only for a batch that holds a path,
with branches that leave a batch without one out of the BCE and the
backward passes. ``reference_run_query`` is the eval route's copy, with its
own branch. The package runs a batch without a path through the scorer and
back as zero rows, and must agree with the copies byte for byte: every
parameter, the Adam moments and step counts, the state of ``model.rng``
afterwards, both losses, and every eval output.
"""

import numpy as np
import pytest

from kgpath.embeddings import QueryContext
from kgpath.neural import Adam, ScoringModel, bce_loss_backward, cosine_rows
from kgpath.paths import (
    _backward_paths,
    _forward_paths,
    _path_labels,
    mix_seed,
    run_query,
    sample_paths,
    train_joint_step,
)
from kgpath.pruning import QuerySample, prune, prune_from_scores, triplet_terms

from conftest import CFG, FakeTextFeatures
from test_path_ranker import make_samples
from test_pruning import make_sg, sym

ROUTE = dict(theta_p=CFG.theta_p, target=5, n_paths=50, k=3)
LOSS = dict(margin=CFG.margin, semi_hard=CFG.semi_hard)

# ---------------------------------------------------------------------------
# reference: the inline forward of the joint step and the eval route
# ---------------------------------------------------------------------------


def reference_train_joint_step(
    model, batch, optimizer, theta_p, target, n_paths, k, margin, semi_hard, step_seed,
):
    model.zero_grad()
    staged = []
    all_scores: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    n_terms_total = 0
    for sample in batch:
        h, cache_n, h_eval = model.f_n.forward(
            sample.node_input, train=True, rng=model.rng, with_eval=True
        )
        s_cos = cosine_rows(sample.ctx.z, h_eval)
        pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
        pbatch = sample_paths(pg, n_paths, k, mix_seed(step_seed, sample.qid))
        path_cache = None
        scores = np.empty(0)
        if len(pbatch):
            scores, _, path_cache = _forward_paths(model, pbatch, h, sample.ctx, train=True)
            all_scores.append(scores)
            all_labels.append(_path_labels(pbatch, sample.gt_pos, sample.sg.n_nodes))
        loss_sum, n_terms, dh_trip = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        n_terms_total += n_terms
        staged.append((sample, cache_n, pbatch, path_cache, dh_trip, loss_sum, len(scores)))

    flat_scores = np.concatenate(all_scores) if all_scores else np.empty(0)
    flat_labels = np.concatenate(all_labels) if all_labels else np.empty(0)
    loss_cls, dscore_flat = bce_loss_backward(flat_scores, flat_labels)

    loss_prune = 0.0
    offset = 0
    for sample, cache_n, pbatch, path_cache, dh_trip, loss_sum, n_scores in staged:
        dh = np.zeros((sample.sg.n_nodes, model.d))
        if n_scores:
            dscores = dscore_flat[offset : offset + n_scores]
            offset += n_scores
            _backward_paths(model, pbatch, dscores, path_cache, dh)
        if n_terms_total:
            dh += dh_trip / n_terms_total
            loss_prune += loss_sum
        model.f_n.backward(dh, cache_n)
    if n_terms_total:
        loss_prune /= n_terms_total

    optimizer.step(model.parameters())
    return loss_cls, loss_prune


def reference_run_query(model, sample, theta_p, target, n_paths, k, seed):
    h, _ = model.f_n.forward(sample.node_input, train=False)
    s_cos = cosine_rows(sample.ctx.z, h)
    pg = prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target)
    batch = sample_paths(pg, n_paths, k, seed)
    batch.scores = _forward_paths(model, batch, h, sample.ctx, False)[0] if len(batch) else np.empty(0)
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


def batch_bytes(batch):
    return [a.dtype.str + a.tobytes().hex() for a in (batch.rows, batch.paths, batch.rels, batch.scores)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_the_pathless_question_has_no_path_and_the_others_do():
    model, _ = twin_models(0.5)
    samples = make_samples(model, n_queries=3, seed=42)
    for sample in samples + [pathless_sample(model)]:
        batch = run_query(model, sample, seed=0, **ROUTE)[1]
        assert (len(batch) == 0) == (sample.qid == "qx")


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_joint_steps_with_a_pathless_question_match_the_inline_route(dropout, where):
    model, ref_model = twin_models(dropout)
    batch = make_samples(model, n_queries=3, seed=42)
    batch.insert(where, pathless_sample(model))
    opt, ref_opt = Adam(lr=1e-2), Adam(lr=1e-2)
    steps = [batch, batch[where : where + 1], batch[::-1]]  # mixed, pathless alone, reversed
    for step, chunk in enumerate(steps * 2):
        got = train_joint_step(model, chunk, opt, step_seed=step, **ROUTE, **LOSS)
        want = reference_train_joint_step(ref_model, chunk, ref_opt, step_seed=step, **ROUTE, **LOSS)
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
