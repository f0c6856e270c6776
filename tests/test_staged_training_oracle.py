"""The one epoch loop of ``staged_training`` against the two loops it replaced.

``reference_staged_training`` is a verbatim copy of ``staged_training`` from
before the prune and joint phases ran through one epoch loop: a loop of its
own per phase, each with its own permutation, chunking, loss means and
progress line. The package must agree with it byte for byte: the epoch
history (keys in order, every float's repr), the printed progress lines,
every parameter, the Adam moments and step counts and the state of
``model.rng`` afterwards, at either batch size, with either phase empty, and
when no sample is trainable or there is no sample at all.
"""

import dataclasses

import numpy as np
import pytest

from kgpath import neural, paths
from kgpath.neural import ScoringModel
from kgpath.paths import (
    mix_seed,
    node_recall_rate,
    staged_training,
    train_joint_step,
)
from kgpath.pruning import check_prune_target, train_prune_step

from conftest import CFG
from test_joint_step_oracle import pathless_sample, state_bytes
from test_path_ranker import make_samples

# n_paths below a question's walk count, so the step seeds draw paths
SCHEDULE = dict(lr=1e-2, theta_p=CFG.theta_p, target=5, n_paths=8, k=3, margin=CFG.margin,
                semi_hard=CFG.semi_hard, seed=3, progress=True)

# ---------------------------------------------------------------------------
# reference: the two-loop schedule
# ---------------------------------------------------------------------------


def reference_staged_training(
    model,
    train_samples,
    epochs_prune,
    epochs_joint,
    lr,
    batch_size,
    theta_p,
    target,
    n_paths,
    k,
    margin,
    semi_hard,
    seed,
    optimizer="adam",
    progress=False,
):
    for sample in train_samples:
        check_prune_target(sample.sg, target)
    optimizer = make_optimizer(optimizer, lr)
    order_rng = np.random.default_rng(mix_seed(seed, "epoch-order"))
    metrics = []

    def emit(entry):
        metrics.append(entry)
        if progress:
            print(
                f"[{entry['phase']}] epoch {entry['epoch']:3d} "
                f"loss={entry['loss']:.4f} train-node-R@1={entry['node_r1']:.3f}"
            )

    trainable = [s for s in train_samples if s.gt_pos.size and s.neg_pos.size]
    for epoch in range(epochs_prune):
        order = order_rng.permutation(len(trainable))
        losses = []
        for lo in range(0, len(trainable), batch_size):
            chunk = [trainable[i] for i in order[lo : lo + batch_size]]
            losses.append(train_prune_step(model, chunk, optimizer, margin, semi_hard))
        emit(
            {
                "phase": "prune",
                "epoch": epoch,
                "loss": float(np.mean(losses)) if losses else 0.0,
                "node_r1": node_recall_rate(model, train_samples, 1),
            }
        )
    for epoch in range(epochs_joint):
        order = order_rng.permutation(len(train_samples))
        losses_cls, losses_prune = [], []
        for step, lo in enumerate(range(0, len(train_samples), batch_size)):
            chunk = [train_samples[i] for i in order[lo : lo + batch_size]]
            loss_cls, loss_prune = train_joint_step(
                model,
                chunk,
                optimizer,
                theta_p,
                target,
                n_paths,
                k,
                margin,
                semi_hard,
                step_seed=mix_seed(seed, "joint", epoch, step),
            )
            losses_cls.append(loss_cls)
            losses_prune.append(loss_prune)
        emit(
            {
                "phase": "joint",
                "epoch": epoch,
                "loss": float(np.mean(losses_cls) + np.mean(losses_prune))
                if losses_cls
                else 0.0,
                "loss_cls": float(np.mean(losses_cls)) if losses_cls else 0.0,
                "loss_prune": float(np.mean(losses_prune)) if losses_prune else 0.0,
                "node_r1": node_recall_rate(model, train_samples, 1),
            }
        )
    return metrics


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

made = []  # the optimizers the schedules made, in order


def make_optimizer(name, lr):
    """``neural.make_optimizer``, keeping what it makes in ``made``."""
    optimizer = neural.make_optimizer(name, lr)
    made.append(optimizer)
    return optimizer


def without_gt(sample):
    """``sample`` with no ground-truth node: every node is a negative."""
    return dataclasses.replace(
        sample, gt=frozenset(), gt_pos=sample.gt_pos[:0], neg_pos=np.arange(sample.sg.n_nodes)
    )


def questions(model, kind):
    """12 questions, one without a path: a batch-size-1 epoch averages 12
    losses, more than numpy's mean adds one after the other."""
    samples = make_samples(model, n_queries=11, seed=42) + [pathless_sample(model)]
    if kind == "no-trainable":
        return [without_gt(s) for s in samples]
    return [] if kind == "none" else samples


def run_both(monkeypatch, capsys, kind, epochs, batch_size):
    """(history, stdout, state) of the package's schedule and the reference's,
    each on its own twin of one model and one sample list."""
    monkeypatch.setattr(paths, "make_optimizer", make_optimizer)
    made.clear()
    runs = []
    for schedule in (staged_training, reference_staged_training):
        model = ScoringModel(d=6, D=5, k=3, dropout_rate=0.5, seed=41)
        capsys.readouterr()
        history = schedule(model, questions(model, kind), *epochs, batch_size=batch_size, **SCHEDULE)
        runs.append((repr(history), capsys.readouterr().out, state_bytes(model, made[-1])))
    assert len(made) == 2
    return runs


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("epochs", [(0, 0), (2, 0), (0, 2), (2, 2)])
def test_one_epoch_loop_matches_the_two_loops(monkeypatch, capsys, epochs, batch_size):
    got, want = run_both(monkeypatch, capsys, "all", epochs, batch_size)
    assert got == want
    assert got[1].count("\n") == sum(epochs)
    if epochs[1]:
        assert "'loss_cls'" in got[0] and "[joint] epoch   1" in got[1]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_no_trainable_sample_matches_the_two_loops(monkeypatch, capsys, batch_size):
    got, want = run_both(monkeypatch, capsys, "no-trainable", (2, 2), batch_size)
    assert got == want
    assert "{'phase': 'prune', 'epoch': 0, 'loss': 0.0, 'node_r1': 0.0}" in got[0]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_no_sample_matches_the_two_loops(monkeypatch, capsys, batch_size):
    got, want = run_both(monkeypatch, capsys, "none", (2, 2), batch_size)
    assert got == want
    assert "'loss': 0.0, 'loss_cls': 0.0, 'loss_prune': 0.0" in got[0]
