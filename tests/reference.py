"""One test-side reference per behaviour of the path route.

Every oracle compares the package with the reference here, never with a copy
of its own, so a route change edits one reference. Each is written the plain
way, a loop or a recursion where the package vectorises: the walk listing
(DFS order and log-probability), the walk sampler, the path packer, the
row-restricted graph, the path score forward and backward, and the joint
step. ``batch_bytes`` is how batches are compared.
"""

import numpy as np

from kgpath.neural import ColumnBlocks, bce_loss_backward, cosine_rows
from kgpath.paths import WALK_STOP_PROB, PathBatch, _path_labels, mix_seed, sample_paths
from kgpath.pruning import prune_from_scores, triplet_terms
from kgpath.schema import SchemaGraph

# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def reference_walks(adj, roots, k, rows=None):
    """Every simple walk of 1..k edges from ``roots`` over the rows of the
    adjacency ``adj`` at positions ``rows`` (default: every row), in DFS
    order, as (rows, relations) pairs of tuples, and their log-probabilities.

    One recursive DFS: the roots in the given order, each row's slots in
    adjacency order, a walk listed before its extensions. A step is free if
    its neighbour is kept and not on the walk yet, so a self-loop never is.
    The walk process: the root is uniform over ``roots``; each step is
    uniform over the free steps; below k steps the walk stops with
    probability ``WALK_STOP_PROB`` after each step, and it stops for sure at
    a dead end or after k steps.
    """
    indptr, nbr, rel = adj.indptr.tolist(), adj.nbr.tolist(), adj.rel.tolist()
    kept = set(range(len(indptr) - 1) if rows is None else np.asarray(rows).tolist())
    walks, logp = [], []

    def extend(nodes, rels, logq):
        lo, hi = indptr[nodes[-1]], indptr[nodes[-1] + 1]
        free = [(v, r) for v, r in zip(nbr[lo:hi], rel[lo:hi]) if v in kept and v not in nodes]
        if rels:
            walks.append((nodes, rels))
            logp.append(logq + (np.log(WALK_STOP_PROB) if free and len(rels) < k else 0.0))
        if len(rels) < k:
            go_on = np.log1p(-WALK_STOP_PROB) if rels else 0.0
            for v, r in free:
                extend(nodes + (v,), rels + (r,), logq + go_on + np.log(1.0 / len(free)))

    for root in np.asarray(roots).tolist():
        extend((root,), (), -np.log(len(roots)))
    return walks, np.array(logp)


def reference_pack(sg, walks, k):
    """A ``PathBatch`` of (rows, relations) walks over the schema graph
    ``sg``, -1 padded to ``k`` steps, filled cell by cell."""
    rows = np.full((len(walks), k + 1), -1, dtype=np.intp)
    paths = np.full((len(walks), k + 1), -1, dtype=np.int64)
    rels = np.full((len(walks), k), -1, dtype=np.int64)
    for i, (nodes, steps) in enumerate(walks):
        rows[i, : len(nodes)] = nodes
        paths[i, : len(nodes)] = sg.nodes[list(nodes)]
        rels[i, : len(steps)] = steps
    return PathBatch(rows=rows, paths=paths, rels=rels)


def reference_sample_paths(pg, n_paths, k, seed):
    """``sample_paths``: ``reference_walks`` from the key rows over the
    surviving rows of the schema graph; every walk draws one Gumbel from
    ``np.random.default_rng(seed)``, in DFS order, and the ``n_paths`` walks
    of largest log-probability + Gumbel (ties to the earlier walk) are
    packed in DFS order."""
    key_rows = pg.sg.key_rows
    if not key_rows.size:
        raise ValueError("pruned graph has no key node to root paths at")
    walks, logp = reference_walks(pg.sg.adjacency, key_rows, k, pg.rows)
    gumbel = np.random.default_rng(seed).gumbel(size=len(walks))
    keep = np.sort(np.argsort(-(logp + gumbel), kind="stable")[:n_paths])
    return reference_pack(pg.sg, [walks[i] for i in keep], k)


def batch_bytes(batch):
    """dtype, shape and bytes of each array of a batch, ``scores`` too once
    it is scored."""
    arrays = [batch.rows, batch.paths, batch.rels]
    if batch.scores is not None:
        arrays.append(batch.scores)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# ---------------------------------------------------------------------------
# the row-restricted graph
# ---------------------------------------------------------------------------


def reference_restricted(sg, rows):
    """The survivors of the row positions ``rows`` as the parts of a graph:
    their nodes and types in the order of ``rows``, the listed (head,
    relation, tail, weight) edges whose head and tail both survive, in listed
    order, and the key nodes among the survivors. ``SchemaGraph.from_edges(
    sg.qid, *parts)`` is the survivors' own graph."""
    survivors = set(sg.nodes[rows].tolist())
    edges = (sg.edges_head, sg.edges_rel, sg.edges_tail, sg.edges_weight)
    both = np.array([h in survivors and t in survivors
                     for h, t in zip(edges[0].tolist(), edges[2].tolist())], dtype=bool)
    return (sg.nodes[rows], sg.types[rows], tuple(col[both] for col in edges),
            sg.q_nodes & survivors, sg.v_nodes & survivors)


def restricted_adjacency(sg, rows):
    """The adjacency of ``sg`` holding only the edges between the rows
    ``rows``, in the unpruned row numbering: what a walk through the mask of
    ``rows`` may step along."""
    edges = reference_restricted(sg, rows)[2]
    return SchemaGraph.from_edges(sg.qid, sg.nodes, sg.types, edges, (), ()).adjacency


# ---------------------------------------------------------------------------
# the path score
# ---------------------------------------------------------------------------


def batch_walks(batch):
    """Each path of ``batch`` as the tuple of its walked rows, root first."""
    return [tuple(r for r in row if r >= 0) for row in batch.rows.tolist()]


def reference_forward_paths(model, walks, h, ctx, train, tiled):
    """Scores, h_p and cache of ``walks``, tuples of rows of the node
    encodings ``h`` (root first): each walk's step rows copied into k blocks,
    zeros after its last step, then f_t, f_p and f_bi. ``tiled`` gives f_p
    the [t || v || h_t] matrix; otherwise the column blocks the package
    builds, whose sums run in the package's order."""
    d, k, n = model.d, model.k, len(walks)
    blocks = np.zeros((n, k * d))
    for j, nodes in enumerate(walks):
        for step, row in enumerate(nodes[1:]):
            blocks[j, step * d : (step + 1) * d] = h[row]
    h_t, cache_t = model.f_t.forward(blocks, train=train, rng=model.rng)
    if tiled:
        feat = np.concatenate([np.tile(ctx.t, (n, 1)), np.tile(ctx.v, (n, 1)), h_t], axis=1)
    else:
        feat = ColumnBlocks(np.concatenate([ctx.t, ctx.v]), [(2 * d, h_t)])
    h_p, cache_p = model.f_p.forward(feat, train=train, rng=model.rng)
    scores, cache_bi = model.f_bi.forward(ctx.z, h_p)  # z' := z
    return scores, h_p, (cache_t, cache_p, cache_bi)


def reference_backward_paths(model, walks, dscores, cache, dh):
    """Add the score gradients of ``walks`` into ``dh``, step block by step
    block, path after path."""
    cache_t, cache_p, cache_bi = cache
    dh_p = model.f_bi.backward(dscores, cache_bi)
    dfeat = model.f_p.backward(dh_p, cache_p)
    d = model.d
    dh_t = dfeat[:, -d:]  # the h_t columns of a tiled input; all of them for blocks
    dblocks = model.f_t.backward(dh_t, cache_t)
    for j, nodes in enumerate(walks):
        for step, row in enumerate(nodes[1:]):
            dh[row] += dblocks[j, step * d : (step + 1) * d]


# ---------------------------------------------------------------------------
# the joint step
# ---------------------------------------------------------------------------


def reference_prune(model, sample, theta_p, target):
    """The pruned graph, eval-mode node encodings and cosines of a question."""
    h, _ = model.f_n.forward(sample.node_input, train=False)
    s_cos = cosine_rows(sample.ctx.z, h)
    return prune_from_scores(sample.sg, s_cos, sample.s_bfs, theta_p, target), h, s_cos


def reference_train_joint_step(
    model, batch, optimizer, theta_p, target, n_paths, k, margin, semi_hard, step_seed,
    tiled=False,
):
    """``train_joint_step`` with each question inline: an f_n pass in
    training mode, ``reference_prune`` on an eval-mode pass, ``sample_paths``,
    and the path score only for a batch that holds a path, with branches that
    leave a batch without one out of the BCE and the backward passes.
    ``tiled`` is ``reference_forward_paths``'s."""
    model.zero_grad()
    staged, all_scores, all_labels = [], [], []
    n_terms_total = 0
    for sample in batch:
        h, cache_n = model.f_n.forward(sample.node_input, train=True, rng=model.rng)
        pg = reference_prune(model, sample, theta_p, target)[0]
        pbatch = sample_paths(pg, n_paths, k, mix_seed(step_seed, sample.qid))
        walks = batch_walks(pbatch)
        path_cache = None
        scores = np.empty(0)
        if walks:
            scores, _, path_cache = reference_forward_paths(
                model, walks, h, sample.ctx, train=True, tiled=tiled
            )
            all_scores.append(scores)
            all_labels.append(_path_labels(pbatch, sample.gt_pos, sample.sg.n_nodes))
        loss_sum, n_terms, dh_trip = triplet_terms(
            sample.ctx.z, h, sample.gt_pos, sample.neg_pos, margin, semi_hard
        )
        n_terms_total += n_terms
        staged.append((sample, cache_n, walks, path_cache, dh_trip, loss_sum, len(scores)))

    flat_scores = np.concatenate(all_scores) if all_scores else np.empty(0)
    flat_labels = np.concatenate(all_labels) if all_labels else np.empty(0)
    loss_cls, dscore_flat = bce_loss_backward(flat_scores, flat_labels)

    loss_prune, offset = 0.0, 0
    for sample, cache_n, walks, path_cache, dh_trip, loss_sum, n_scores in staged:
        dh = np.zeros((sample.sg.n_nodes, model.d))
        if n_scores:
            dscores = dscore_flat[offset : offset + n_scores]
            offset += n_scores
            reference_backward_paths(model, walks, dscores, path_cache, dh)
        if n_terms_total:
            dh += dh_trip / n_terms_total
            loss_prune += loss_sum
        model.f_n.backward(dh, cache_n)
    if n_terms_total:
        loss_prune /= n_terms_total

    optimizer.step(model.parameters())
    return loss_cls, loss_prune
