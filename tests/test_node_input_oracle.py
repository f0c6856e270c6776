"""Assembled node inputs and the one-pass training route against the
materialised-input route they replaced.

The functions under "reference" are verbatim copies of that route:
``node_input_matrix``, ``DenseLayer.backward`` (which always returned
dL/dx), ``MLP2.forward``, ``MLP2.backward`` and ``train_prune_step``. Only
the ``self`` of the two layer methods became an explicit first argument,
and the prune step, like the package's, returns its loss alone and no longer
re-filters its batch (training batches only samples with a ground-truth node
and a negative). The joint step, its eval-mode pruning and the path score
are ``tests/reference.py``'s, with f_p given the tiled [t || v || h_t]
matrix. Assembled inputs are compared by their bytes. The package's f_n and
f_p now read their inputs as column blocks and sum in another order, so
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
from kgpath.neural import ScoringModel
from kgpath.paths import staged_training
from kgpath.pipeline import prepare_samples
from kgpath.pruning import QuerySample, prune, triplet_terms

from conftest import CFG, random_graph
from reference import reference_prune, reference_train_joint_step
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
        optimizer=cfg.optimizer, progress=False,
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
    monkeypatch.setattr(paths, "train_joint_step",
                        functools.partial(reference_train_joint_step, tiled=True))
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
