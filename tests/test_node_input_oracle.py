"""Assembled node inputs and the one-pass training route against the
materialised-input route they replaced.

The functions under "reference" are verbatim copies of that route:
``node_input_matrix``, ``DenseLayer.backward`` (which always returned
dL/dx), ``MLP2.forward`` and ``MLP2.backward``, the eval-mode ``prune`` that
the joint step called after its training pass, ``train_prune_step``,
``train_joint_step``, and ``_forward_paths`` and ``_backward_paths``, which
gave f_p the tiled [t || v || h_t] matrix. Only the ``self`` of the two layer
methods became an explicit first argument, the joint step calls the two
path copies, and the prune step, like the package's, returns its loss alone
and no longer re-filters its batch (training batches only samples with a
ground-truth node and a negative). Assembled inputs are compared by their bytes. The package's f_n
and f_p now read their inputs as column blocks and sum in another order, so
training runs are compared by their epoch histories and every parameter,
and held-out questions by their encodings and scores, at ``RTOL``; the
survivors of pruning are still compared by their bytes.
"""

import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from kgpath import paths
from kgpath.embeddings import QueryContext, TextFeatureProvider
from kgpath.neural import ScoringModel, bce_loss_backward, cosine_rows
from kgpath.paths import (
    _path_labels,
    _step_rows,
    mix_seed,
    sample_paths,
    staged_training,
)
from kgpath.pipeline import prepare_samples
from kgpath.pruning import QuerySample, prune, prune_from_scores, triplet_terms

from conftest import CFG, random_graph
from test_pruning import make_sg

RTOL = 1e-12  # the worst parameter after 2 + 2 epochs reads about 7e-14

# ---------------------------------------------------------------------------
# reference: the materialised-input route
# ---------------------------------------------------------------------------


def reference_node_input_matrix(model, sg, ctx, emb, textfeat):
    """Stack [z || e_i || p_i || u_i] rows for every schema node."""
    n = sg.n_nodes
    if ctx.dim != model.d:
        raise ValueError(f"context dim {ctx.dim} != model d {model.d}")
    if emb.shape[1] != model.D:
        raise ValueError(f"entity embedding dim {emb.shape[1]} != model D {model.D}")
    z_tile = np.tile(ctx.z, (n, 1))
    e_rows = emb[sg.nodes]
    p_rows = textfeat.gather(ctx.qid, sg.nodes)
    if p_rows is None:  # no text feature: a zero block
        p_rows = np.zeros((n, model.d))
    u_rows = np.zeros((n, 4))
    u_rows[np.arange(n), sg.types.astype(np.int64)] = 1.0
    return np.concatenate([z_tile, e_rows, p_rows, u_rows], axis=1)


def reference_dense_backward(self, dout, cache):
    x, relu_mask = cache
    if relu_mask is not None:
        dout = dout * relu_mask
    self.dW += dout.T @ x
    self.db += dout.sum(axis=0)
    return dout @ self.W


def reference_mlp_forward(self, x, train=False, rng=None):
    h, cache_h = self.hidden.forward(x)
    mask = None
    if train and self.dropout > 0.0:
        keep = 1.0 - self.dropout
        mask = (rng.random(h.shape) < keep) / keep
        h = h * mask
    y, cache_o = self.out.forward(h)
    return y, (cache_h, mask, cache_o)


def reference_mlp_backward(self, dy, cache):
    cache_h, mask, cache_o = cache
    dh = reference_dense_backward(self.out, dy, cache_o)
    if mask is not None:
        dh = dh * mask
    return reference_dense_backward(self.hidden, dh, cache_h)


def reference_forward_paths(model, batch, h, ctx, train=False):
    d, n = model.d, len(batch)
    padded = np.concatenate([h, np.zeros((1, d))])  # row -1 reads zeros
    blocks = padded[_step_rows(batch, model.k)].reshape(n, model.k * d)
    h_t, cache_t = model.f_t.forward(blocks, train=train, rng=model.rng)
    feat = np.concatenate([np.tile(ctx.t, (n, 1)), np.tile(ctx.v, (n, 1)), h_t], axis=1)
    h_p, cache_p = model.f_p.forward(feat, train=train, rng=model.rng)
    scores, cache_bi = model.f_bi.forward(ctx.z, h_p)  # z' := z
    return scores, h_p, (cache_t, cache_p, cache_bi)


def reference_backward_paths(model, batch, dscores, cache, dh):
    cache_t, cache_p, cache_bi = cache
    dh_p = model.f_bi.backward(dscores, cache_bi)
    dfeat = model.f_p.backward(dh_p, cache_p)
    d = model.d
    dh_t = dfeat[:, 2 * d : 3 * d]
    dblocks = model.f_t.backward(dh_t, cache_t)
    cells = _step_rows(batch, model.k).ravel()
    walked = cells >= 0
    slots = (cells[walked, None] * d + np.arange(d)).ravel()
    grads = dblocks.reshape(-1, d)[walked].ravel()
    dh += np.bincount(slots, weights=grads, minlength=dh.size).reshape(dh.shape)


def reference_prune(model, sample, theta_p=0.3, target=100):
    if not 0.0 <= theta_p <= 1.0:
        raise ValueError("theta_p must lie in [0, 1]")
    h, _ = model.f_n.forward(sample.x, train=False)
    s_cos = cosine_rows(sample.ctx.z, h)
    return prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target), h, s_cos


def reference_train_prune_step(model, batch, optimizer, margin=0.5, semi_hard=True):
    model.zero_grad()
    staged = []
    n_terms_total = 0
    for sample in batch:
        h, cache = model.f_n.forward(sample.x, train=True, rng=model.rng)
        loss_sum, n_terms, dh = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        staged.append((sample, cache, loss_sum, dh))
        n_terms_total += n_terms
    if n_terms_total == 0:
        return 0.0

    total_loss = 0.0
    for _sample, cache, loss_sum, dh in staged:
        total_loss += loss_sum
        model.f_n.backward(dh / n_terms_total, cache)
    optimizer.step(model.parameters("f_n."))
    return total_loss / n_terms_total


def reference_train_joint_step(
    model, batch, optimizer, theta_p=0.3, target=100, n_paths=200, k=3,
    margin=0.5, semi_hard=True, step_seed=0,
):
    model.zero_grad()
    staged = []
    all_scores = []
    all_labels = []
    n_terms_total = 0
    for sample in batch:
        h, cache_n = model.f_n.forward(sample.x, train=True, rng=model.rng)
        pg = reference_prune(model, sample, theta_p, target)[0]
        pbatch = sample_paths(pg, n_paths, k, mix_seed(step_seed, sample.qid))
        path_cache = None
        scores = np.empty(0)
        if len(pbatch):
            scores, _, path_cache = reference_forward_paths(
                model, pbatch, h, sample.ctx, train=True
            )
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
            reference_backward_paths(model, pbatch, dscores, path_cache, dh)
        if n_terms_total:
            dh += dh_trip / n_terms_total
            loss_prune += loss_sum
        model.f_n.backward(dh, cache_n)
    if n_terms_total:
        loss_prune /= n_terms_total

    optimizer.step(model.parameters())
    return loss_cls, loss_prune


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def random_inputs(tmp_path, rng, d, D, mode):
    """A model, a random schema graph over a random KG with every node type,
    a context and the two providers; ``file`` mode lists text features for
    about half of the graph's nodes, so the rest read zero rows."""
    g, _ = random_graph(tmp_path, rng, n_entities=40, n_edges=80)
    model = ScoringModel(d, D, k=3, dropout_rate=0.5, seed=int(rng.integers(100)))
    emb = rng.standard_normal((g.n_entities, D))
    n = int(rng.integers(4, 25))
    ids = rng.choice(g.n_entities, size=n, replace=False)
    types = rng.integers(4, size=n)
    types[:4] = rng.permutation(4)  # every node type present
    sg = make_sg(ids.tolist(), types.tolist(), [], q_nodes={int(ids[0])}, qid="qa")
    ctx = QueryContext(qid="qa", z=rng.standard_normal(d), v=np.ones(d), t=np.ones(d))
    path = None
    if mode == "file":
        path = tmp_path / "text_features.jsonl"
        listed = ids[rng.random(n) < 0.5].tolist()
        lines = [{"qid": "qa", "entity": f"n{e}", "p": rng.standard_normal(d).tolist()}
                 for e in listed]
        lines.append({"qid": "other", "entity": f"n{ids[-1]}", "p": [0.5] * d})
        path.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
    tf = TextFeatureProvider(dim=d, path=path, g=g)
    return model, sg, ctx, emb, tf


@pytest.mark.parametrize("mode", ["zero", "file"])
@pytest.mark.parametrize("d, D", [(4, 7), (6, 3), (5, 5)])
def test_assembled_input_matches_materialised_bytes(tmp_path, mode, d, D):
    rng = np.random.default_rng(d * 10 + D)
    for trial in range(8):
        work = tmp_path / str(trial)
        work.mkdir()
        model, sg, ctx, emb, tf = random_inputs(work, rng, d, D, mode)
        sample = QuerySample.build(model, sg, ctx, [int(sg.nodes[-1])], emb, tf)
        want = reference_node_input_matrix(model, sg, ctx, emb, tf)
        got = sample.x
        assert got.shape == want.shape == (sg.n_nodes, model.node_input_dim)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        h_got, _ = model.f_n.forward(got, train=False)
        h_want, _ = model.f_n.forward(want, train=False)
        assert h_got.tobytes() == h_want.tobytes()


def test_build_keeps_the_dimension_checks(tmp_path, tiny_graph):
    rng = np.random.default_rng(3)
    model, sg, ctx, emb, tf = random_inputs(tmp_path, rng, 4, 7, "file")
    short_ctx = QueryContext(qid="qa", z=np.ones(3), v=np.ones(3), t=np.ones(3))
    for args, match in (
        ((short_ctx, emb, tf), "context dim 3 != model d 4"),
        ((ctx, np.ones((40, 6)), tf), "embedding dim 6 != model D 7"),
        ((ctx, emb, TextFeatureProvider(dim=5, path=None, g=tiny_graph)),
         "text feature dim 5 != model d 4"),
    ):
        with pytest.raises(ValueError, match=match):
            QuerySample.build(model, sg, args[0], (), args[1], args[2])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def fresh_model(cfg):
    return ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)


def train(rt, model, samples):
    cfg = rt.cfg
    return staged_training(
        model, samples, epochs_prune=2, epochs_joint=2, lr=cfg.lr,
        batch_size=cfg.batch_size, theta_p=cfg.theta_p, target=cfg.prune_target,
        n_paths=cfg.n_paths, k=cfg.k, margin=cfg.margin, semi_hard=cfg.semi_hard, seed=cfg.seed,
    )


def assert_close(got, want):
    """Within ``RTOL`` of ``want``; entries that cancel to near zero within
    ``RTOL`` times the largest entry of ``want``."""
    want = np.asarray(want, dtype=np.float64)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max(initial=0.0))


def test_training_matches_materialised_route(small_runtime, monkeypatch):
    rt = small_runtime
    model = fresh_model(rt.cfg)
    samples, skipped = prepare_samples(rt, model, rt.queries)
    assert skipped == 0 and len(samples) == 24
    assert max(s.sg.n_nodes for s in samples) > rt.cfg.prune_target  # pruning cuts
    history = train(rt, model, samples[:18])

    ref_model = fresh_model(rt.cfg)
    # the reference f_n reads the materialised matrix wherever f_n reads its input
    ref_samples = []
    for s in samples:
        x = reference_node_input_matrix(ref_model, s.sg, s.ctx, rt.emb, rt.textfeat)
        ref_samples.append(SimpleNamespace(**vars(s), x=x, node_input=x))
    for net in (ref_model.f_n, ref_model.f_t, ref_model.f_p):
        monkeypatch.setattr(net, "forward", functools.partial(reference_mlp_forward, net),
                            raising=False)
        monkeypatch.setattr(net, "backward", functools.partial(reference_mlp_backward, net),
                            raising=False)
    monkeypatch.setattr(paths, "train_prune_step", reference_train_prune_step)
    monkeypatch.setattr(paths, "train_joint_step", reference_train_joint_step)
    ref_history = train(rt, ref_model, ref_samples[:18])

    assert len(history) == 4
    for entry, ref_entry in zip(history, ref_history):
        assert entry.keys() == ref_entry.keys()
        assert (entry["phase"], entry["epoch"]) == (ref_entry["phase"], ref_entry["epoch"])
        for key in entry.keys() - {"phase", "epoch"}:
            assert_close(entry[key], ref_entry[key])
    for (name, arr, _), (_, ref_arr, _) in zip(model.parameters(), ref_model.parameters()):
        assert_close(arr, ref_arr)

    # eval on the held-out questions: the same survivors, close encodings and scores
    for sample, ref in zip(samples[18:], ref_samples[18:]):
        pg, h, s_cos, _ = prune(model, sample, rt.cfg.theta_p, rt.cfg.prune_target)
        ref_pg, ref_h, ref_s_cos = reference_prune(
            ref_model, ref, rt.cfg.theta_p, rt.cfg.prune_target)
        assert pg.rows.tobytes() == ref_pg.rows.tobytes()
        assert_close(h, ref_h)
        assert_close(s_cos, ref_s_cos)


def test_joint_step_keeps_the_theta_check(small_runtime):
    rt = small_runtime
    model = fresh_model(rt.cfg)
    samples, _ = prepare_samples(rt, model, rt.queries[:2])
    for theta in (-0.1, 1.5):
        with pytest.raises(ValueError, match="theta_p must lie in"):
            paths.train_joint_step(
                model, samples, None, theta, CFG.prune_target, CFG.n_paths, CFG.k, CFG.margin,
                CFG.semi_hard, step_seed=0,
            )
