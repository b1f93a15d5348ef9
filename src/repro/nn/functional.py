"""Free-standing autograd ops: concatenation, stacking, segment sums,
and the 3DGNN's fused per-edge ops (Eq. 1, Eq. 2-3, Eq. 5 with its
aggregation).

Each fused op is one tape node whose forward runs the numpy operations
of its op-by-op composition in the same order, and whose backward forms
every gradient from the same operands as the composition's per-op
backwards, so outputs and gradients are bitwise the composition's
(``tests/test_fused_ops.py`` keeps the composition as the oracle).
Gradients inside a fused backward skip the accumulate step between
ops: that step changes only the sign of zeros, and every gradient ends
in an accumulate, which makes its zeros positive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.scatter import Scatter
from repro.nn.tensor import Tensor, _unbroadcast, as_tensor


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                t._accumulate(grad[tuple(index)])

    return Tensor(out_data, parents=tuple(ts), backward=backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(ts), axis=axis)
        for t, slab in zip(ts, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor(out_data, parents=tuple(ts), backward=backward)


def segment_sum(values: Tensor, scatter: Scatter) -> Tensor:
    """Sum rows of ``values`` into the segments of ``scatter``.

    The GNN aggregation primitive: message rows with the same segment id
    (receiver node) sum into that node's slot, through the prebuilt
    :class:`~repro.nn.scatter.Scatter` operator of the ids.  Gradient is
    a row gather.
    """
    values = as_tensor(values)
    if values.ndim == 0 or len(values) != len(scatter):
        raise ValueError(f"segment ids cover {len(scatter)} rows, values "
                         f"have shape {values.shape}")
    ids = scatter.ids

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[ids])

    return Tensor(scatter(values.data), parents=(values,), backward=backward)


def cost_distance(guidance: Tensor, receivers: Scatter,
                  deltas: np.ndarray) -> Tensor:
    """Eq. 1 cost-aware edge lengths as one tape node.

    ``sqrt(sum_k (C[dst] * delta)_k^2 + 1e-6)`` per edge: the static
    ``|pos[dst] - pos[src]|`` decomposition ``deltas`` (E, 3) reweighted
    by the receiver's guidance row.

    Args:
        guidance: (N, 3) guidance of every node.
        receivers: the edges' receiver scatter over the N nodes.
        deltas: (E, 3) edge-vector decomposition.

    Raises:
        ValueError: ``receivers`` is not over ``len(guidance)`` nodes.
    """
    if receivers.num_segments != len(guidance.data):
        raise ValueError(
            f"scatter over {receivers.num_segments} rows gathers from a "
            f"tensor of {len(guidance.data)}")
    weighted = guidance.data[receivers.ids] * deltas
    dist = (weighted * weighted).sum(axis=1)
    dist += dist.dtype.type(1e-6)
    np.sqrt(dist, out=dist)

    def backward(grad: np.ndarray) -> None:
        g_sum = grad * 0.5
        g_sum /= np.maximum(dist, 1e-30)
        g_weighted = g_sum[:, None] * weighted
        g_weighted += g_weighted  # the square's two operands
        g_weighted *= deltas
        guidance._accumulate(receivers(g_weighted))

    return Tensor(dist, parents=(guidance,), backward=backward)


def rbf_expand(distances: Tensor, centers: np.ndarray, gamma) -> Tensor:
    """Eq. 2-3 Gaussian radial basis features as one tape node.

    ``exp(-gamma * (d - mu_k)^2)`` for each distance ``d`` and center
    ``mu_k``: a (E,) distance tensor becomes (E, K) features.
    """
    d = distances.data
    diff = d.reshape(-1, 1) + (-centers.reshape(1, -1))
    scale = np.asarray(-gamma).astype(diff.dtype)
    feats = diff * diff
    feats *= scale
    np.exp(feats, out=feats)

    def backward(grad: np.ndarray) -> None:
        g_diff = grad * feats
        g_diff *= scale
        g_diff *= diff
        g_diff += g_diff  # the square's two operands
        distances._accumulate(g_diff.sum(axis=1))

    return Tensor(feats, parents=(distances,), backward=backward)


def message_sum(h: Tensor, psi: Tensor, src: Scatter, dst: Scatter,
                weights: Sequence[Tensor]) -> Tensor:
    """Eq. 5 messages of one edge type summed at receivers, one tape node.

    ``segment_sum(((h[src] @ Ws + bs) * (psi @ Wd + bd)) @ Wo + bo, dst)``
    with ``weights = (Ws, bs, Wd, bd, Wo, bo)``.  The backward adds into
    ``h``, ``psi`` and each weight that requires grad when it runs.

    Args:
        h: (N, H) node embeddings.
        psi: (E, D) distance features of the edges.
        src: the edges' sender scatter over the N nodes.
        dst: the edges' receiver scatter over the N nodes.
        weights: source, distance and output affine weights and biases.

    Raises:
        ValueError: ``src`` or ``dst`` is not over ``len(h)`` nodes, or
            ``src``, ``dst`` and ``psi`` differ in edge count.
    """
    return _message_sum(h, psi, src, dst, weights, None)


def _message_sum(h: Tensor, psi: Tensor, src: Scatter, dst: Scatter,
                 weights: Sequence[Tensor], psi_fold: list | None) -> Tensor:
    """:func:`message_sum`, adding ``psi``'s gradient through ``psi_fold``.

    The tape runs the ops of successive layers last layer first, so
    their terms of a shared ``psi`` gradient arrive in that order.
    ``psi_fold``, a list shared by the ops of every layer that read one
    ``psi``, makes them add first layer first instead: each op stores
    its term, and the first-built op adds its own and then the stored
    ones in build order.  ``None`` adds in tape order.
    """
    if src.num_segments != len(h.data) or dst.num_segments != len(h.data):
        raise ValueError(
            f"edge scatters over {src.num_segments} and {dst.num_segments} "
            f"rows, node embeddings have {len(h.data)}")
    if not len(src) == len(dst) == len(psi.data):
        raise ValueError(
            f"{len(src)} senders, {len(dst)} receivers and "
            f"{len(psi.data)} distance feature rows")
    w_src, b_src, w_dist, b_dist, w_out, b_out = weights
    ws, wd, wo = w_src.data, w_dist.data, w_out.data
    # The composition's source and distance branches record (and get a
    # gradient) only when one of their inputs requires grad here.
    src_side = h.requires_grad or w_src.requires_grad or b_src.requires_grad
    dist_side = (psi.requires_grad or w_dist.requires_grad
                 or b_dist.requires_grad)

    gathered = h.data[src.ids]
    src_out = gathered @ ws
    src_out += b_src.data
    dist_out = psi.data @ wd
    dist_out += b_dist.data
    gated = src_out * dist_out
    messages = gated @ wo
    messages += b_out.data

    def backward(grad: np.ndarray) -> None:
        g_messages = grad[dst.ids]
        if w_out.requires_grad:
            w_out._accumulate(gated.T @ g_messages)
        if b_out.requires_grad:
            b_out._accumulate(_unbroadcast(g_messages, b_out.shape))
        if not (src_side or dist_side):
            return
        g_gated = g_messages @ wo.T
        if dist_side:
            g_dist = g_gated * src_out
            if psi.requires_grad:
                g_psi = g_dist @ wd.T
                if slot is None:
                    psi._accumulate(g_psi)
                elif slot:
                    psi_fold[slot] = g_psi
                else:
                    for term in (g_psi, *psi_fold[1:]):
                        if term is not None:
                            psi._accumulate(term)
                    psi_fold[1:] = [None] * (len(psi_fold) - 1)
            if w_dist.requires_grad:
                w_dist._accumulate(psi.data.T @ g_dist)
            if b_dist.requires_grad:
                b_dist._accumulate(_unbroadcast(g_dist, b_dist.shape))
        if src_side:
            g_src = g_gated * dist_out
            if h.requires_grad:
                h._accumulate(src(g_src @ ws.T))
            if w_src.requires_grad:
                w_src._accumulate(gathered.T @ g_src)
            if b_src.requires_grad:
                b_src._accumulate(_unbroadcast(g_src, b_src.shape))

    # The tape walk visits parents last to first; ``psi`` after ``h``
    # visits the distance branch first, as the composition's walk did.
    out = Tensor(dst(messages),
                 parents=(h, w_src, b_src, psi, w_dist, b_dist, w_out, b_out),
                 backward=backward)
    slot = None
    if psi_fold is not None and out.requires_grad and psi.requires_grad:
        slot = len(psi_fold)
        psi_fold.append(None)
    return out
