"""The factored first layers of f_n and f_p against their dense inputs.

f_n reads ``QuerySample.node_input``, column blocks of [z || e_i || p_i ||
u_i]; the dense reference is the same input as one matrix, ``QuerySample.x``.
f_p reads [t || v] as one shared block beside h_t; the dense reference is the
tile/concat matrix that ``paths._forward_paths`` used to build. Sums run in
another order, so values are compared with ``assert_close`` (at rtol 1e-12)
and indices by bytes.
"""

import ast
import copy
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from kgpath.neural import ColumnBlocks, ScoringModel, cosine_rows
from kgpath.paths import staged_training
from kgpath.pipeline import evaluate_queries, prepare_samples
from kgpath.pruning import QuerySample, prune, prune_from_scores

from test_node_input_oracle import assert_close, random_inputs

SRC = Path(__file__).resolve().parents[1] / "src" / "kgpath"


def grads(mlp):
    return [mlp.hidden.dW, mlp.hidden.db, mlp.out.dW, mlp.out.db]


def both_routes(mlp, blocks, dense, dy, train):
    """Forward and backward through ``mlp`` on each input from one model
    state; returns, per route, (y, the backward's return, the gradients)."""
    out = []
    for x in (blocks, dense):
        net = copy.deepcopy(mlp)
        rng = np.random.default_rng(17)
        y, cache = net.forward(x, train=train, rng=rng)
        dx = net.backward(dy, cache)
        out.append((y, dx, grads(net)))
    return out


def node_case(tmp_path, mode, d, D, seed):
    rng = np.random.default_rng(seed)
    model, sg, ctx, emb, tf = random_inputs(tmp_path, rng, d, D, mode)
    sample = QuerySample.build(model, sg, ctx, [int(sg.nodes[-1])], emb, tf)
    return model, sample, rng


@pytest.mark.parametrize("mode", ["zero", "file"])
@pytest.mark.parametrize("d, D", [(4, 7), (6, 3), (5, 5)])
def test_node_encoder_matches_dense_input(tmp_path, mode, d, D):
    p_blocks = 0
    for trial in range(6):
        work = tmp_path / str(trial)
        work.mkdir()
        model, sample, rng = node_case(work, mode, d, D, seed=d * 100 + D * 10 + trial)
        blocks = sample.node_input
        # the p block rides along exactly when some text-feature row is nonzero
        assert len(blocks.dense) == 1 + (sample.p is not None)
        p_blocks += len(blocks.dense) - 1
        dy = rng.standard_normal((sample.sg.n_nodes, d))
        for train in (False, True):
            (y, dx, g), (r_y, r_dx, r_g) = both_routes(model.f_n, blocks, sample.x, dy, train)
            assert dx is None and r_dx is None
            assert_close(y, r_y)
            for got, want in zip(g, r_g):
                assert_close(got, want)
    assert p_blocks == (6 if mode == "file" else 0)


def test_file_mode_question_without_features_skips_the_p_block(tmp_path):
    rng = np.random.default_rng(8)
    model, sg, ctx, emb, tf = random_inputs(tmp_path, rng, 4, 7, "file")
    other = dataclasses.replace(ctx, qid="nobody")  # no text feature is listed for it
    sample = QuerySample.build(model, sg, other, (), emb, tf)
    assert sample.p is None
    assert [lo for lo, _ in sample.node_input.dense] == [4]
    assert_close(model.f_n.forward(sample.node_input)[0], model.f_n.forward(sample.x)[0])


def test_runtime_without_text_features_keeps_no_p_rows(small_runtime):
    """A run with no ``text_features`` file prepares every question with
    ``p`` None, so f_n reads no p block."""
    rt = small_runtime
    cfg = rt.cfg
    assert cfg.text_features is None
    model = ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
    samples, _ = prepare_samples(rt, model, rt.queries)
    assert samples
    for sample in samples:
        assert sample.p is None
        assert [lo for lo, _ in sample.node_input.dense] == [cfg.d]


@pytest.mark.parametrize("mode", ["zero", "file"])
def test_prune_survivors_match_the_dense_input(tmp_path, mode):
    for trial in range(12):
        work = tmp_path / str(trial)
        work.mkdir()
        model, sample, _ = node_case(work, mode, 5, 6, seed=300 + trial)
        target = max(sample.sg.key_rows.size, sample.sg.n_nodes // 2)
        pg, h, s_cos, _ = prune(model, sample, 0.3, target)
        r_h, _ = model.f_n.forward(sample.x, train=False)
        r_s_cos = cosine_rows(sample.ctx.z, r_h)
        r_pg = prune_from_scores(sample.sg, r_s_cos, sample.s_bfs, 0.3, target)
        assert pg.rows.tobytes() == r_pg.rows.tobytes()
        assert_close(h, r_h)
        assert_close(s_cos, r_s_cos)


@pytest.mark.parametrize("n", [1, 7, 200])
def test_path_encoder_matches_tiled_input(n):
    d = 6
    rng = np.random.default_rng(n)
    model = ScoringModel(d, 5, k=3, dropout_rate=0.5, seed=n)
    t, v, h_t = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal((n, d))
    blocks = ColumnBlocks(np.concatenate([t, v]), [(2 * d, h_t)])
    dense = np.concatenate([np.tile(t, (n, 1)), np.tile(v, (n, 1)), h_t], axis=1)
    dy = rng.standard_normal((n, d))
    for train in (False, True):
        (h_p, dh_t, g), (r_h_p, r_dfeat, r_g) = both_routes(model.f_p, blocks, dense, dy, train)
        assert_close(h_p, r_h_p)
        assert dh_t.shape == (n, d)
        assert_close(dh_t, r_dfeat[:, 2 * d :])
        for got, want in zip(g, r_g):
            assert_close(got, want)


def params_sha256(model):
    digest = hashlib.sha256()
    for name, arr, _ in model.parameters():
        digest.update(name.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def test_training_and_eval_are_deterministic(small_runtime):
    rt = small_runtime
    cfg = rt.cfg
    runs = []
    for _ in range(2):
        model = ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
        samples, _ = prepare_samples(rt, model, rt.queries)
        history = staged_training(
            model, samples[:18], epochs_prune=2, epochs_joint=2, lr=cfg.lr,
            batch_size=cfg.batch_size, theta_p=cfg.theta_p, target=cfg.prune_target,
            n_paths=cfg.n_paths, k=cfg.k, margin=cfg.margin, semi_hard=cfg.semi_hard, seed=cfg.seed,
            optimizer=cfg.optimizer, progress=False,
        )
        runs.append((history, params_sha256(model)))
    assert runs[0] == runs[1]

    held_out = samples[18:]
    one = evaluate_queries(model, held_out, dataclasses.replace(cfg, workers=1))
    two = evaluate_queries(model, held_out, dataclasses.replace(cfg, workers=2))
    assert one == two and repr(one) == repr(two)


def test_no_module_reads_the_dense_node_input():
    """f_n has one route in the package: ``QuerySample.node_input``. The dense
    ``x`` is a reference for tests, so no module of ``kgpath`` reads an
    attribute named ``x``."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "x"
    ]
    assert readers == []
