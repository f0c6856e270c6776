"""Minimal dense-network toolkit with exact hand-derived gradients.

Everything the scoring pipeline needs and nothing more: two-layer MLPs with
ReLU hidden units and inverted dropout, a bilinear scorer, cosine / triplet /
binary-cross-entropy losses with their backward passes, semi-hard negative
mining, and Adam. All math runs in float64 so central finite-difference
checks hold to tight tolerances; checkpoints store float32 per the wire
format.

Forward passes return ``(output, cache)`` pairs and backward passes consume
the cache, so one layer can be applied any number of times inside a single
loss computation (the node encoder runs once per query in a batch). Gradients
accumulate into per-layer buffers until ``zero_grad``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"GPR1"


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# losses and elementwise pieces
# ---------------------------------------------------------------------------


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0 when either vector is numerically zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


def cosine_rows(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """cos(z, rows[i]) for every row; zero-norm rows score 0."""
    nz = np.linalg.norm(z)
    norms = np.linalg.norm(rows, axis=1)
    out = np.zeros(rows.shape[0])
    ok = (norms >= 1e-12) & (nz >= 1e-12)
    if ok.any():
        out[ok] = rows[ok] @ z / (norms[ok] * nz)
    return out


def cosine_grad_b(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d cos(a, b) / d b with a held fixed (zero where cosine is clamped)."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return np.zeros_like(b)
    c = float(a @ b / (na * nb))
    return a / (na * nb) - c * b / (nb * nb)


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 0.5,
) -> float:
    """max(0, d(a,p) - d(a,n) + margin) with d = 1 - cosine."""
    d_pos = 1.0 - cosine(anchor, positive)
    d_neg = 1.0 - cosine(anchor, negative)
    return max(0.0, d_pos - d_neg + margin)


def triplet_loss_backward(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 0.5,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, dL/dpositive, dL/dnegative); gradients vanish when inactive."""
    loss = triplet_loss(anchor, positive, negative, margin)
    if loss <= 0.0:
        return 0.0, np.zeros_like(positive), np.zeros_like(negative)
    # loss = cos(a, n) - cos(a, p) + margin on the active branch
    return loss, -cosine_grad_b(anchor, positive), cosine_grad_b(anchor, negative)


def mine_semi_hard(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: Sequence[np.ndarray] | np.ndarray,
    margin: float = 0.5,
) -> int:
    """Pick a semi-hard negative: d(a,p) < d(a,n) < d(a,p) + margin.

    Among qualifiers the closest negative wins; with no qualifier the hardest
    negative (smallest d(a,n)) is returned instead. Ties resolve to the lowest
    index.
    """
    negatives = np.asarray(negatives, dtype=np.float64)
    if negatives.ndim != 2 or negatives.shape[0] == 0:
        raise ValueError("negatives must be a non-empty matrix of row vectors")
    d_pos = 1.0 - cosine(anchor, positive)
    d_neg = 1.0 - cosine_rows(np.asarray(anchor, dtype=np.float64), negatives)
    in_band = (d_neg > d_pos) & (d_neg < d_pos + margin)
    if in_band.any():
        masked = np.where(in_band, d_neg, np.inf)
        return int(np.argmin(masked))
    return int(np.argmin(d_neg))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy on raw logits (sigmoid applied internally)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        return 0.0
    # max(s,0) - s*y + log(1 + exp(-|s|)) is the clamped form, stably.
    per = np.maximum(scores, 0.0) - scores * labels + np.log1p(np.exp(-np.abs(scores)))
    return float(per.mean())


def bce_loss_backward(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    loss = bce_loss(scores, labels)
    if scores.size == 0:
        return loss, np.zeros_like(scores)
    grad = (sigmoid(np.asarray(scores, dtype=np.float64)) - labels) / scores.size
    return loss, grad


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def _init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """y = activation(x W^T + b), activation in {relu, identity}."""

    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int, activation: str = "relu"):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.W = _init_uniform(rng, (n_out, n_in), n_in)
        self.b = _init_uniform(rng, (n_out,), n_in)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.shape[-1] != self.n_in:
            raise ValueError(f"expected input width {self.n_in}, got {x.shape[-1]}")
        pre = x @ self.W.T + self.b
        if self.activation == "relu":
            out = np.maximum(pre, 0.0)
            return out, (x, pre > 0)
        return pre, (x, None)

    def backward(self, dout: np.ndarray, cache: tuple) -> np.ndarray:
        x, relu_mask = cache
        if relu_mask is not None:
            dout = dout * relu_mask
        self.dW += dout.T @ x
        self.db += dout.sum(axis=0)
        return dout @ self.W

    def zero_grad(self) -> None:
        self.dW.fill(0.0)
        self.db.fill(0.0)


class MLP2:
    """Two dense layers: ReLU hidden with inverted dropout, identity output."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_in: int,
        n_hidden: int,
        n_out: int,
        dropout: float = 0.0,
    ):
        self.hidden = DenseLayer(rng, n_in, n_hidden, "relu")
        self.out = DenseLayer(rng, n_hidden, n_out, "identity")
        self.dropout = dropout

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[np.ndarray, tuple]:
        h, cache_h = self.hidden.forward(x)
        mask = None
        if train and self.dropout > 0.0:
            keep = 1.0 - self.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        y, cache_o = self.out.forward(h)
        return y, (cache_h, mask, cache_o)

    def backward(self, dy: np.ndarray, cache: tuple) -> np.ndarray:
        cache_h, mask, cache_o = cache
        dh = self.out.backward(dy, cache_o)
        if mask is not None:
            dh = dh * mask
        return self.hidden.backward(dh, cache_h)

    def layers(self) -> list[DenseLayer]:
        return [self.hidden, self.out]

    def zero_grad(self) -> None:
        self.hidden.zero_grad()
        self.out.zero_grad()


class BilinearLayer:
    """score(x, y) = x^T W y + b for one x against many row vectors y."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.dim = dim
        self.W = _init_uniform(rng, (dim, dim), dim)
        self.b = _init_uniform(rng, (1,), dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.shape != (self.dim,) or rows.shape[-1] != self.dim:
            raise ValueError("bilinear dimension mismatch")
        scores = rows @ (self.W.T @ x) + self.b[0]
        return scores, (x, rows)

    def backward(self, dscores: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        x, rows = cache
        weighted = dscores @ rows  # sum_j ds_j * y_j
        self.dW += np.outer(x, weighted)
        self.db[0] += dscores.sum()
        dx = self.W @ weighted
        drows = np.outer(dscores, self.W.T @ x)
        return dx, drows

    def zero_grad(self) -> None:
        self.dW.fill(0.0)
        self.db.fill(0.0)


# ---------------------------------------------------------------------------
# the scoring model
# ---------------------------------------------------------------------------


class ScoringModel:
    """Node encoder f_n, path encoders f_t / f_p, and bilinear scorer f_bi.

    * f_n : (d + D + d + 4) -> d -> d, consuming [z || e_i || p_i || u_i]
    * f_t : (k * d) -> d -> d, consuming the padded node-vector blocks
    * f_p : (3 d) -> d -> d, consuming [t || v || h_t]
    * f_bi: d x d bilinear scorer against z

    Dropout is active only when a forward pass is asked to run in training
    mode; eval-mode passes are deterministic.
    """

    def __init__(self, d: int, D: int, k: int = 3, dropout_rate: float = 0.5, seed: int = 0):
        self.d = d
        self.D = D
        self.k = k
        self.dropout_rate = dropout_rate
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.f_n = MLP2(rng, 2 * d + D + 4, d, d, dropout_rate)
        self.f_t = MLP2(rng, k * d, d, d, dropout_rate)
        self.f_p = MLP2(rng, 3 * d, d, d, dropout_rate)
        self.f_bi = BilinearLayer(rng, d)
        self.rng = rng  # consumed by dropout masks during training

    @property
    def node_input_dim(self) -> int:
        return 2 * self.d + self.D + 4

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in the fixed checkpoint order."""
        items = []
        for mlp_name, mlp in (("f_n", self.f_n), ("f_t", self.f_t), ("f_p", self.f_p)):
            for layer_name, layer in (("hidden", mlp.hidden), ("out", mlp.out)):
                items.append((f"{mlp_name}.{layer_name}.W", layer.W))
                items.append((f"{mlp_name}.{layer_name}.b", layer.b))
        items.append(("f_bi.W", self.f_bi.W))
        items.append(("f_bi.b", self.f_bi.b))
        return items

    def grad_items(self) -> list[tuple[str, np.ndarray]]:
        items = []
        for mlp_name, mlp in (("f_n", self.f_n), ("f_t", self.f_t), ("f_p", self.f_p)):
            for layer_name, layer in (("hidden", mlp.hidden), ("out", mlp.out)):
                items.append((f"{mlp_name}.{layer_name}.W", layer.dW))
                items.append((f"{mlp_name}.{layer_name}.b", layer.db))
        items.append(("f_bi.W", self.f_bi.dW))
        items.append(("f_bi.b", self.f_bi.db))
        return items

    def prune_param_names(self) -> list[str]:
        """Parameters trained during the prune-only phase (the node encoder)."""
        return [name for name, _ in self.param_items() if name.startswith("f_n.")]

    def zero_grad(self) -> None:
        self.f_n.zero_grad()
        self.f_t.zero_grad()
        self.f_p.zero_grad()
        self.f_bi.zero_grad()

    # -- persistence ---------------------------------------------------------

    def save_checkpoint(self, path: Path | str) -> None:
        """Versioned binary: magic, (d, D, k), then little-endian f32 blocks."""
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<III", self.d, self.D, self.k))
            for _, arr in self.param_items():
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    @classmethod
    def load_checkpoint(
        cls,
        path: Path | str,
        dropout_rate: float = 0.5,
        expect_dims: Optional[tuple[int, int, int]] = None,
    ) -> "ScoringModel":
        raw = Path(path).read_bytes()
        if raw[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        d, D, k = struct.unpack("<III", raw[4:16])
        if expect_dims is not None and (d, D, k) != tuple(expect_dims):
            raise CheckpointError(
                f"{path}: checkpoint dims (d={d}, D={D}, k={k}) do not match "
                f"configured dims (d={expect_dims[0]}, D={expect_dims[1]}, "
                f"k={expect_dims[2]}); refusing to load"
            )
        model = cls(d, D, k, dropout_rate=dropout_rate, seed=0)
        offset = 16
        for name, arr in model.param_items():
            nbytes = arr.size * 4
            block = raw[offset : offset + nbytes]
            if len(block) != nbytes:
                raise CheckpointError(f"{path}: truncated at parameter {name}")
            arr[...] = np.frombuffer(block, dtype="<f4").reshape(arr.shape)
            offset += nbytes
        if offset != len(raw):
            raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
        return model


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict[str, list],
    lr: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place. State is per parameter."""
    for name, grad in grads.items():
        param = params[name]
        if param.shape != grad.shape:
            raise ValueError(
                f"shape mismatch for {name}: param {param.shape}, grad {grad.shape}"
            )
        if name not in state:
            state[name] = [np.zeros_like(param), np.zeros_like(param), 0]
        m, v, t = state[name]
        t += 1
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)
        state[name][2] = t


class Adam:
    """Stateful wrapper around :func:`adam_step` keyed by parameter name."""

    def __init__(self, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, list] = {}

    def step(self, model: ScoringModel, only: Optional[Sequence[str]] = None) -> None:
        """Apply accumulated gradients; ``only`` restricts to named params."""
        params = dict(model.param_items())
        grads = dict(model.grad_items())
        if only is not None:
            wanted = set(only)
            grads = {n: g for n, g in grads.items() if n in wanted}
        adam_step(params, grads, self.state, self.lr, self.beta1, self.beta2, self.eps)


class SGD:
    """Plain gradient descent; handy when debugging the adaptive path."""

    def __init__(self, lr: float = 1e-4):
        self.lr = lr

    def step(self, model: ScoringModel, only: Optional[Sequence[str]] = None) -> None:
        wanted = None if only is None else set(only)
        grads = dict(model.grad_items())
        for name, param in model.param_items():
            if wanted is not None and name not in wanted:
                continue
            param -= self.lr * grads[name]


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return Adam(lr=lr)
    if name == "sgd":
        return SGD(lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")
