import math

import numpy as np
import pytest

from kgpath.config import InputError
from kgpath.neural import (
    Adam,
    BilinearLayer,
    DenseLayer,
    MLP2,
    ScoringModel,
    bce_loss_backward,
    cosine_rows,
)
from kgpath.pruning import triplet_terms

from conftest import finite_difference, relative_error


def _cos(a, b):
    """Cosine similarity term by term; 0 when either vector is zero."""
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


# -- cosine ------------------------------------------------------------------


def test_cosine_identity_and_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(7)
        assert cosine_rows(x, x[None])[0] == pytest.approx(1.0)
    assert cosine_rows(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))[0] == 0.0


def test_cosine_arithmetic_oracle():
    # independent arithmetic: 32 / (sqrt(14) * sqrt(77))
    expected = (1 * 4 + 2 * 5 + 3 * 6) / (math.sqrt(1 + 4 + 9) * math.sqrt(16 + 25 + 36))
    assert cosine_rows(np.array([1.0, 2.0, 3.0]), np.array([[4.0, 5.0, 6.0]]))[0] == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.974631846, abs=1e-9)


def test_cosine_zero_vector_and_mismatch():
    assert cosine_rows(np.zeros(3), np.array([[1.0, 2.0, 3.0]]))[0] == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        cosine_rows(np.ones(3), np.ones((1, 4)))


def test_cosine_rows_matches_scalar():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(6)
    rows = rng.standard_normal((9, 6))
    rows[3] = 0.0
    got = cosine_rows(z, rows)
    for i in range(9):
        assert got[i] == pytest.approx(_cos(z, rows[i]), abs=1e-12)


def masked_cosine_rows(z, rows):
    """The masked formula ``cosine_rows`` runs only when some norm is zero:
    every usable row copied out, scored, and written back."""
    nz = np.linalg.norm(z)
    norms = np.linalg.norm(rows, axis=1)
    out = np.zeros(rows.shape[0])
    ok = (norms >= 1e-12) & (nz >= 1e-12)
    if ok.any():
        out[ok] = rows[ok] @ z / (norms[ok] * nz)
    return out


def test_cosine_rows_equals_the_masked_formula_bit_for_bit():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 70))
        z = rng.standard_normal(d)
        rows = rng.standard_normal((n, d))
        case = trial % 4
        if case == 1:  # some zero-norm rows
            rows[rng.random(n) < 0.3] = 0.0
        elif case == 2:  # every row zero-norm
            rows[:] = 0.0
        elif case == 3:  # z zero
            z[:] = 0.0
        got, want = cosine_rows(z, rows), masked_cosine_rows(z, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _vector_at_cos_distance(dist):
    """Unit 2-vector whose cosine distance to (1, 0) is ``dist``."""
    c = 1.0 - dist
    return np.array([c, math.sqrt(max(0.0, 1.0 - c * c))])


def _one_positive(a, p, negatives, margin=0.5):
    """``triplet_terms`` with ``p`` as row 0, the only positive, and
    ``negatives`` as rows 1.. of h; returns the loss, count, dh and h."""
    h = np.vstack([p, negatives])
    loss, count, dh = triplet_terms(a, h, np.array([0]), np.arange(1, h.shape[0]), margin, True)
    return loss, count, dh, h


# -- triplet loss --------------------------------------------------------------


def test_triplet_margin_satisfied():
    a = np.array([1.0, 0.0])
    p = _vector_at_cos_distance(0.2)
    n = _vector_at_cos_distance(0.9)
    loss, count, dh, _ = _one_positive(a, p, n[None])
    assert loss == pytest.approx(0.0) and count == 1
    assert np.all(dh == 0.0)


def test_triplet_active_value():
    a = np.array([1.0, 0.0])
    p = _vector_at_cos_distance(0.6)
    n = _vector_at_cos_distance(0.7)
    assert _one_positive(a, p, n[None])[0] == pytest.approx(0.4, abs=1e-12)


def test_triplet_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal(5)
        p = rng.standard_normal(5)
        n = rng.standard_normal(5)
        _, _, dh, h = _one_positive(a, p, n[None])
        gt_pos, neg_pos = np.array([0]), np.array([1])
        (fd,) = finite_difference(lambda: triplet_terms(a, h, gt_pos, neg_pos, 0.5, True)[0], [h])
        assert relative_error(dh[0], fd[0]) < 1e-4
        assert relative_error(dh[1], fd[1]) < 1e-4


def test_cosine_grad_matches_finite_differences():
    # with margin 3 every pair is active, so dh of the negative row is
    # d cos(a, b) / d b
    rng = np.random.default_rng(8)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    _, _, dh, _ = _one_positive(a, a, b[None], margin=3.0)
    (fd,) = finite_difference(lambda: cosine_rows(a, b[None])[0], [b])
    assert relative_error(dh[1], fd) < 1e-4


# -- semi-hard mining ----------------------------------------------------------


def _mined(dh):
    """The negatives (indices into rows 1.. of h) with a gradient: the
    mined one, when its pair is active."""
    return np.flatnonzero(dh[1:].any(axis=1)).tolist()


def test_mine_semi_hard_band():
    a = np.array([1.0, 0.0])
    p = _vector_at_cos_distance(0.3)
    negatives = np.stack([_vector_at_cos_distance(x) for x in (0.1, 0.5, 0.9)])
    loss, _, dh, _ = _one_positive(a, p, negatives, margin=0.5)
    assert _mined(dh) == [1]  # 0.5 in (0.3, 0.8)
    assert loss == pytest.approx(0.3, abs=1e-12)


def test_mine_semi_hard_fallback_to_hardest():
    a = np.array([1.0, 0.0])
    p = _vector_at_cos_distance(0.6)
    negatives = np.stack([_vector_at_cos_distance(x) for x in (0.1, 0.3)])
    # every negative is closer than the positive: fall back to the hardest
    loss, _, dh, _ = _one_positive(a, p, negatives, margin=0.5)
    assert _mined(dh) == [0]
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_mine_semi_hard_ties_go_to_lowest_index():
    a = np.array([1.0, 0.0])
    at = _vector_at_cos_distance
    # two equal negatives in the band, then two equal hardest ones
    for p, dists, want in ((at(0.3), (0.9, 0.5, 0.5), 1), (at(0.6), (0.3, 0.1, 0.1), 1)):
        negatives = np.stack([at(x) for x in dists])
        assert _mined(_one_positive(a, p, negatives)[2]) == [want]


def _oracle_semi_hard(a, p, negatives, margin):
    d_pos = 1.0 - _cos(a, p)
    dists = [1.0 - _cos(a, n) for n in negatives]
    band = [(d, i) for i, d in enumerate(dists) if d_pos < d < d_pos + margin]
    if band:
        return min(band)[1]
    return min((d, i) for i, d in enumerate(dists))[1]


def check_mining(a, p, negatives, margin=0.5):
    """``triplet_terms`` against the exhaustive scan: one term, the loss of
    the oracle's negative, and (when that pair is active) the gradient on
    that negative alone."""
    j = _oracle_semi_hard(a, p, negatives, margin)
    want = max(0.0, _cos(a, negatives[j]) - _cos(a, p) + margin)
    loss, count, dh, _ = _one_positive(a, p, negatives, margin)
    assert count == 1
    assert loss == pytest.approx(want, abs=1e-12)
    assert _mined(dh) == ([j] if want > 0.0 else [])


def test_mine_semi_hard_matches_exhaustive_scan():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.standard_normal(4)
        p = rng.standard_normal(4)
        negatives = rng.standard_normal((int(rng.integers(1, 12)), 4))
        check_mining(a, p, negatives)


def test_mine_semi_hard_no_negatives_gives_no_terms():
    loss, count, dh = triplet_terms(
        np.ones(3), np.ones((1, 3)), np.array([0]), np.empty(0, int), 0.5, True
    )
    assert (loss, count) == (0.0, 0) and np.all(dh == 0.0)


# -- binary cross-entropy --------------------------------------------------------


def bce_loss(scores, labels):
    return bce_loss_backward(scores, labels)[0]


def test_bce_at_zero_logit():
    assert bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_saturation():
    assert bce_loss(np.array([20.0]), np.array([1.0])) <= 1e-8
    assert bce_loss(np.array([-20.0]), np.array([0.0])) <= 1e-8


def test_bce_equals_clamped_naive_form():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(50) * 5
    y = (rng.random(50) < 0.5).astype(float)
    sig = np.clip(1.0 / (1.0 + np.exp(-s)), 1e-12, 1.0 - 1e-12)
    naive = float(np.mean(-(y * np.log(sig) + (1 - y) * np.log(1 - sig))))
    assert bce_loss(s, y) == pytest.approx(naive, rel=1e-9)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(12)
    y = (rng.random(12) < 0.4).astype(float)
    _, grad = bce_loss_backward(s, y)
    (fd,) = finite_difference(lambda: bce_loss(s, y), [s])
    assert relative_error(grad, fd) < 1e-4


def test_bce_gradient_is_sigmoid_minus_label():
    # both sigmoid branches, at logits far enough out that a one-branch
    # exp(-s) would overflow
    s = np.array([-800.0, -3.0, 0.0, 2.5, 800.0])
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    _, grad = bce_loss_backward(s, y)
    sig = np.array([0.0, 1.0 / (1.0 + math.exp(3.0)), 0.5, 1.0 / (1.0 + math.exp(-2.5)), 1.0])
    assert grad == pytest.approx((sig - y) / 5, abs=1e-15)


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros(3), np.zeros(4))


def test_bce_empty_is_zero():
    loss, grad = bce_loss_backward(np.empty(0), np.empty(0))
    assert loss == 0.0 and grad.size == 0


# -- layers ---------------------------------------------------------------------


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_dense_layer_gradients(activation):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(rng, 4, 3, activation)
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((6, 3))  # random projection to a scalar loss

        def loss_fn():
            y, _ = layer.forward(x)
            return float((y * w).sum())

        layer.dW.fill(0.0)
        layer.db.fill(0.0)
        y, cache = layer.forward(x)
        dx = layer.backward(w, cache)
        fd = finite_difference(loss_fn, [layer.W, layer.b])
        assert relative_error(layer.dW, fd[0]) < 1e-4
        assert relative_error(layer.db, fd[1]) < 1e-4
        (fd_x,) = finite_difference(loss_fn, [x])
        assert relative_error(dx, fd_x) < 1e-4


def test_mlp2_gradients_eval_mode():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        mlp = MLP2(rng, 5, 4, 3, dropout=0.5)  # dropout inert in eval mode
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((4, 3))

        def loss_fn():
            y, _ = mlp.forward(x, train=False)
            return float((y * w).sum())

        params = [mlp.hidden.W, mlp.hidden.b, mlp.out.W, mlp.out.b]
        grads = [mlp.hidden.dW, mlp.hidden.db, mlp.out.dW, mlp.out.db]
        for g in grads:
            g.fill(0.0)
        _, cache = mlp.forward(x, train=False)
        mlp.backward(w, cache)
        for got, fd in zip(grads, finite_difference(loss_fn, params)):
            assert relative_error(got, fd) < 1e-4


def test_bilinear_gradients():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        layer = BilinearLayer(rng, 4)
        x = rng.standard_normal(4)
        rows = rng.standard_normal((6, 4))
        w = rng.standard_normal(6)

        def loss_fn():
            s, _ = layer.forward(x, rows)
            return float((s * w).sum())

        layer.dW.fill(0.0)
        layer.db.fill(0.0)
        s, cache = layer.forward(x, rows)
        drows = layer.backward(w, cache)
        fd = finite_difference(loss_fn, [layer.W, layer.b])
        assert relative_error(layer.dW, fd[0]) < 1e-4
        assert relative_error(layer.db, fd[1]) < 1e-4
        (fd_rows,) = finite_difference(loss_fn, [rows])
        assert relative_error(drows, fd_rows) < 1e-4


def test_eval_forward_deterministic():
    model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=1)
    x = np.random.default_rng(2).standard_normal((8, model.node_input_dim))
    a, _ = model.f_n.forward(x, train=False)
    b, _ = model.f_n.forward(x, train=False)
    assert np.array_equal(a, b)


def test_inverted_dropout_expectation():
    rng = np.random.default_rng(5)
    mlp = MLP2(rng, 6, 32, 4, dropout=0.5)
    x = rng.standard_normal((3, 6))
    eval_out, _ = mlp.forward(x, train=False)
    total = np.zeros_like(eval_out)
    mask_rng = np.random.default_rng(99)
    n_masks = 10_000
    for _ in range(n_masks):
        y, _ = mlp.forward(x, train=True, rng=mask_rng)
        total += y
    mc = total / n_masks
    rel = np.abs(mc - eval_out) / (np.abs(eval_out) + 1e-9)
    assert float(np.median(rel)) < 0.02


# -- Adam -----------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    w = np.array([1.0, -2.0])
    Adam(lr=0.1).step([("w", w, np.zeros(2))])
    assert np.array_equal(w, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    w = np.array([0.0])
    Adam(lr=1e-2).step([("w", w, np.array([2.5]))])
    assert w[0] == pytest.approx(-1e-2, rel=1e-6)
    w = np.array([0.0])
    Adam(lr=1e-2).step([("w", w, np.array([-0.3]))])
    assert w[0] == pytest.approx(1e-2, rel=1e-6)


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(5)
    x = rng.standard_normal(5) * 3
    adam = Adam(lr=0.05)
    dists = []
    for _ in range(100):
        adam.step([("x", x, 2 * (x - c))])
        dists.append(float(np.linalg.norm(x - c)))
    for i in range(5, len(dists) - 1):
        assert dists[i + 1] < dists[i]


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Adam(1e-4).step([("w", np.zeros(3), np.zeros(4))])


def test_adam_freeze_via_subset():
    model = ScoringModel(d=4, D=3, k=2, dropout_rate=0.0, seed=0)
    frozen_before = {n: a.copy() for n, a, _ in model.parameters() if not n.startswith("f_n.")}
    for _, _, g in model.parameters():
        g += 1.0  # pretend every parameter has gradient
    Adam(lr=0.1).step(model.parameters("f_n."))
    for name, arr, _ in model.parameters():
        if name.startswith("f_n."):
            assert not np.array_equal(arr, frozen_before.get(name, arr * np.nan))
        else:
            assert np.array_equal(arr, frozen_before[name])


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.5, seed=9)
    path = tmp_path / "model.gpr"
    model.save_checkpoint(path)
    loaded = ScoringModel.load_checkpoint(path, 0.5, expect_dims=(5, 4, 3))
    for (name, a, _), (name2, b, _) in zip(model.parameters(), loaded.parameters()):
        assert name == name2
        assert np.allclose(a, b, atol=1e-6)  # float32 storage
        assert np.array_equal(b, a.astype(np.float32).astype(np.float64))


def test_checkpoint_dim_mismatch_refused(tmp_path):
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.5, seed=0)
    path = tmp_path / "model.gpr"
    model.save_checkpoint(path)
    with pytest.raises(InputError, match="refusing"):
        ScoringModel.load_checkpoint(path, 0.5, expect_dims=(6, 4, 3))


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.gpr"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(InputError, match="magic"):
        ScoringModel.load_checkpoint(path, 0.5, expect_dims=(5, 4, 3))
    model = ScoringModel(d=5, D=4, k=3, dropout_rate=0.5, seed=0)
    good = tmp_path / "good.gpr"
    model.save_checkpoint(good)
    (tmp_path / "trunc.gpr").write_bytes(good.read_bytes()[:-10])
    with pytest.raises(InputError, match="truncated"):
        ScoringModel.load_checkpoint(tmp_path / "trunc.gpr", 0.5, expect_dims=(5, 4, 3))


def test_param_init_range():
    model = ScoringModel(d=8, D=6, k=3, dropout_rate=0.5, seed=4)
    limit = 1.0 / math.sqrt(model.node_input_dim)
    W = model.f_n.hidden.W
    assert W.min() >= -limit and W.max() <= limit
    assert W.std() > 0


def test_sgd_step_and_factory():
    from kgpath.neural import SGD, make_optimizer

    model = ScoringModel(d=4, D=3, k=2, dropout_rate=0.0, seed=2)
    before = {n: a.copy() for n, a, _ in model.parameters()}
    for _, _, g in model.parameters():
        g += 0.5
    SGD(lr=0.1).step(model.parameters("f_n."))
    for name, arr, _ in model.parameters():
        if name.startswith("f_n."):
            assert np.allclose(arr, before[name] - 0.05)
        else:
            assert np.array_equal(arr, before[name])
    assert isinstance(make_optimizer("adam", 1e-3), Adam)
    with pytest.raises(ValueError, match="optimizer"):
        make_optimizer("rmsprop", 1e-3)
