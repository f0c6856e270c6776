"""Minimal dense-network toolkit with exact hand-derived gradients.

Everything the scoring pipeline needs and nothing more: two-layer MLPs with
ReLU hidden units and inverted dropout, a bilinear scorer, row-wise cosine
similarity, binary cross-entropy with its gradient, and Adam. The triplet
loss and its semi-hard mining are one array pass over cosine rows, in
``pruning.triplet_terms``. All math runs in float64 so central
finite-difference checks hold to tight tolerances; checkpoints store float32
per the wire format.

Forward passes return ``(output, cache)`` pairs and backward passes consume
the cache, so one layer can be applied any number of times inside a single
loss computation (the node encoder runs once per query in a batch). Backward
passes accumulate into each layer's ``dW`` and ``db``. ``ScoringModel.parameters``
lists every (name, array, gradient) triple, and zeroing, both optimizers and
the checkpoint walk that one list. A dense layer also takes its input as
``ColumnBlocks``: f_n and f_p read rows whose leading columns are the same in
every row, and f_n's trailing columns are a one-hot type.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import InputError, atomic_write

CHECKPOINT_MAGIC = b"GPR1"

#: One trainable array: (name, array, gradient buffer).
Param = tuple[str, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# losses and elementwise pieces
# ---------------------------------------------------------------------------


def cosine_rows(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """cos(z, rows[i]) for every row; zero-norm rows score 0, and every row
    when z has zero norm. Only then are the usable rows copied out."""
    nz = np.linalg.norm(z)
    norms = np.linalg.norm(rows, axis=1)
    ok = (norms >= 1e-12) & (nz >= 1e-12)
    if ok.all():
        return rows @ z / (norms * nz)
    out = np.zeros(rows.shape[0])
    if ok.any():
        out[ok] = rows[ok] @ z / (norms[ok] * nz)
    return out


def bce_loss_backward(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on raw logits and its gradient dL/dscores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        return 0.0, np.zeros_like(scores)
    # max(s,0) - s*y + log(1 + exp(-|s|)) is the clamped form, stably.
    per = np.maximum(scores, 0.0) - scores * labels + np.log1p(np.exp(-np.abs(scores)))
    # the sigmoid, split by sign so that exp never overflows
    sig = np.empty_like(scores)
    pos = scores >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-scores[pos]))
    ex = np.exp(scores[~pos])
    sig[~pos] = ex / (1.0 + ex)
    return float(per.mean()), (sig - labels) / scores.size


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def _init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ColumnBlocks:
    """A layer input of n rows held as column blocks instead of one matrix.

    ``shared`` fills the first columns of every row alike. Each ``(lo, rows)``
    of ``dense``, which holds at least one, fills columns lo, lo+1, ... of row
    i with ``rows[i]``.
    ``onehot``, as ``(lo, idx)``, sets column lo + idx[i] of row i to 1, over
    the columns from lo to the last. Every other column is 0. A dense layer
    multiplies each block by its own columns of W, so a shared or all-zero
    block costs no product per row.
    """

    shared: np.ndarray
    dense: list[tuple[int, np.ndarray]]
    onehot: Optional[tuple[int, np.ndarray]] = None


class DenseLayer:
    """y = activation(x W^T + b), activation in {relu, identity}.

    ``x`` is a matrix or ``ColumnBlocks``; for blocks, the backward pass
    returns dL/d(dense blocks), side by side. A layer built with
    ``input_grad=False`` reads data, not another layer's output: its backward
    pass accumulates dW and db and returns None instead of the unused dL/dx.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_in: int,
        n_out: int,
        activation: str,
        input_grad: bool = True,
    ):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = n_in
        self.activation = activation
        self.input_grad = input_grad
        self.W = _init_uniform(rng, (n_out, n_in), n_in)
        self.b = _init_uniform(rng, (n_out,), n_in)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray | ColumnBlocks) -> tuple[np.ndarray, tuple]:
        W = self.W
        if isinstance(x, ColumnBlocks):
            (lo, rows), *rest = x.dense
            pre = rows @ W[:, lo : lo + rows.shape[1]].T
            pre += W[:, : x.shared.size] @ x.shared + self.b
            for lo, rows in rest:
                pre += rows @ W[:, lo : lo + rows.shape[1]].T
            if x.onehot is not None:
                lo, idx = x.onehot
                pre += W[:, lo:].T[idx]
        elif x.shape[-1] != self.n_in:
            raise ValueError(f"expected input width {self.n_in}, got {x.shape[-1]}")
        else:
            pre = x @ W.T
            pre += self.b
        if self.activation == "relu":
            mask = pre > 0
            return np.maximum(pre, 0.0, out=pre), (x, mask)
        return pre, (x, None)

    def backward(self, dout: np.ndarray, cache: tuple) -> Optional[np.ndarray]:
        x, relu_mask = cache
        if relu_mask is not None:
            dout = dout * relu_mask
        col_sums = dout.sum(axis=0)
        self.db += col_sums
        if not isinstance(x, ColumnBlocks):
            self.dW += dout.T @ x
            return dout @ self.W if self.input_grad else None
        self.dW[:, : x.shared.size] += np.outer(col_sums, x.shared)
        for lo, rows in x.dense:
            self.dW[:, lo : lo + rows.shape[1]] += dout.T @ rows
        if x.onehot is not None:
            lo, idx = x.onehot
            onehot = np.zeros((idx.size, self.n_in - lo))
            onehot[np.arange(idx.size), idx] = 1.0
            self.dW[:, lo:] += dout.T @ onehot  # per-type sums of dout's rows
        if not self.input_grad:
            return None
        return np.hstack([dout @ self.W[:, lo : lo + rows.shape[1]] for lo, rows in x.dense])


class MLP2:
    """Two dense layers: ReLU hidden with inverted dropout, identity output.

    ``input_grad=False`` makes ``backward`` skip dL/dx and return None (see
    :class:`DenseLayer`).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_in: int,
        n_hidden: int,
        n_out: int,
        dropout: float,
        input_grad: bool = True,
    ):
        self.hidden = DenseLayer(rng, n_in, n_hidden, "relu", input_grad)
        self.out = DenseLayer(rng, n_hidden, n_out, "identity")
        self.dropout = dropout

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
        with_eval: bool = False,
    ) -> tuple:
        """``(y, cache)``; with ``with_eval``, ``(y, cache, y_eval)``.

        ``y_eval`` is the eval-mode output of the same hidden pass: dropout
        acts only after the hidden layer, so a training pass that also needs
        eval-mode outputs runs that layer once, not twice.
        """
        h, cache_h = self.hidden.forward(x)
        h_eval = h
        mask = None
        if train and self.dropout > 0.0:
            keep = 1.0 - self.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        y, cache_o = self.out.forward(h)
        if not with_eval:
            return y, (cache_h, mask, cache_o)
        y_eval = y if mask is None else self.out.forward(h_eval)[0]
        return y, (cache_h, mask, cache_o), y_eval

    def backward(self, dy: np.ndarray, cache: tuple) -> Optional[np.ndarray]:
        cache_h, mask, cache_o = cache
        dh = self.out.backward(dy, cache_o)
        if mask is not None:
            dh = dh * mask
        return self.hidden.backward(dh, cache_h)


class BilinearLayer:
    """score(x, y) = x^T W y + b for one x against many row vectors y; x is
    data (the query context), so ``backward`` returns dL/drows and no dL/dx."""

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

    def backward(self, dscores: np.ndarray, cache: tuple) -> np.ndarray:
        x, rows = cache
        self.dW += np.outer(x, dscores @ rows)
        self.db[0] += dscores.sum()
        return np.outer(dscores, self.W.T @ x)


# ---------------------------------------------------------------------------
# the scoring model
# ---------------------------------------------------------------------------


class ScoringModel:
    """Node encoder f_n, path encoders f_t / f_p, and bilinear scorer f_bi.

    * f_n : (d + D + d + 4) -> d -> d, consuming [z || e_i || p_i || u_i] as
      ``ColumnBlocks``: z shared, e_i (and p_i unless all zero) dense, u_i the
      one-hot type; its input is data, so its backward pass returns no input
      gradient
    * f_t : (k * d) -> d -> d, consuming the padded node-vector blocks
    * f_p : (3 d) -> d -> d, consuming [t || v || h_t] as ``ColumnBlocks``
      with [t || v] shared; its backward pass returns dL/dh_t
    * f_bi: d x d bilinear scorer against z

    Dropout is active only when a forward pass is asked to run in training
    mode; eval-mode passes are deterministic.
    """

    def __init__(self, d: int, D: int, k: int, dropout_rate: float, seed: int):
        self.d = d
        self.D = D
        self.k = k
        rng = np.random.default_rng(seed)
        self.f_n = MLP2(rng, self.node_input_dim, d, d, dropout_rate, input_grad=False)
        self.f_t = MLP2(rng, k * d, d, d, dropout_rate)
        self.f_p = MLP2(rng, 3 * d, d, d, dropout_rate)
        self.f_bi = BilinearLayer(rng, d)
        self.rng = rng  # consumed by dropout masks during training

    @property
    def node_input_dim(self) -> int:
        return 2 * self.d + self.D + 4

    def parameters(self, prefix: str = "") -> list[Param]:
        """(name, array, gradient buffer) triples in the fixed checkpoint
        order, those whose name starts with ``prefix``."""
        mlps = (("f_n", self.f_n), ("f_t", self.f_t), ("f_p", self.f_p))
        owners = [(f"{n}.{part}", getattr(mlp, part)) for n, mlp in mlps for part in ("hidden", "out")]
        owners.append(("f_bi", self.f_bi))
        return [
            triple
            for n, layer in owners
            for triple in ((f"{n}.W", layer.W, layer.dW), (f"{n}.b", layer.b, layer.db))
            if triple[0].startswith(prefix)
        ]

    def zero_grad(self) -> None:
        for _, _, grad in self.parameters():
            grad.fill(0.0)

    # -- persistence ---------------------------------------------------------

    def save_checkpoint(self, path: Path | str) -> None:
        """Versioned binary: magic, (d, D, k), then little-endian f32 blocks."""
        with atomic_write(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<III", self.d, self.D, self.k))
            for _, arr, _ in self.parameters():
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    @classmethod
    def load_checkpoint(
        cls,
        path: Path | str,
        dropout_rate: float,
        expect_dims: tuple[int, int, int],
    ) -> "ScoringModel":
        raw = Path(path).read_bytes()
        if raw[:4] != CHECKPOINT_MAGIC:
            raise InputError(path, msg="not a model checkpoint (bad magic)")
        if len(raw) < 16:
            raise InputError(path, msg="truncated header")
        d, D, k = struct.unpack("<III", raw[4:16])
        if (d, D, k) != tuple(expect_dims):
            raise InputError(
                path,
                msg=f"checkpoint dims (d={d}, D={D}, k={k}) do not match "
                f"configured dims (d={expect_dims[0]}, D={expect_dims[1]}, "
                f"k={expect_dims[2]}); refusing to load"
            )
        model = cls(d, D, k, dropout_rate=dropout_rate, seed=0)
        offset = 16
        for name, arr, _ in model.parameters():
            nbytes = arr.size * 4
            block = raw[offset : offset + nbytes]
            if len(block) != nbytes:
                raise InputError(path, msg=f"truncated at parameter {name}")
            arr[...] = np.frombuffer(block, dtype="<f4").reshape(arr.shape)
            if not np.isfinite(arr).all():
                raise InputError(path, msg=f"non-finite value in parameter {name}")
            offset += nbytes
        if offset != len(raw):
            raise InputError(path, msg=f"{len(raw) - offset} trailing bytes")
        return model


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


#: Adam's decay rates of the first and second moment, and its denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam (Kingma & Ba, arXiv:1412.6980), with its moments
    and step count kept per parameter name."""

    def __init__(self, lr: float):
        self.lr = lr
        self.state: dict[str, list] = {}

    def step(self, params: Sequence[Param]) -> None:
        """One update, in place, of each (name, array, gradient) in ``params``."""
        for name, param, grad in params:
            if name not in self.state:
                self.state[name] = [np.zeros_like(param), np.zeros_like(param), 0]
            m, v, t = self.state[name]
            t += 1
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
            self.state[name][2] = t


class SGD:
    """Plain gradient descent; handy when debugging the adaptive path."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: Sequence[Param]) -> None:
        for _, param, grad in params:
            param -= self.lr * grad


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return Adam(lr=lr)
    if name == "sgd":
        return SGD(lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")
