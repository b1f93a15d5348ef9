"""Free-standing autograd ops: concatenation, stacking, segment sums,
and the 3DGNN's fused ops (Eq. 1, Eq. 2-3, and one message-passing
layer: Eq. 5 over every edge type with its aggregation).

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

from repro.nn import tensor as tensor_mod
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


def message_layer(h: Tensor, psi: Tensor, src_slots: Scatter,
                  dst_slots: Scatter, in_degree: np.ndarray,
                  offsets: Sequence[int],
                  weights: Sequence[Sequence[Tensor]]) -> Tensor:
    """One message-passing layer over every edge type, one tape node.

    With ``weights[t] = (Ws, bs, Wd, bd, Wo, bo)`` for each of the ``T``
    edge types, edges ``offsets[t]:offsets[t + 1]`` are of type ``t``
    and node ``n``'s slot for type ``t`` is ``n * T + t``.  Returns Eq. 5
    summed at the receivers, plus the residual::

        h + sum_t (dst_t((h @ Ws + bs)[src_t] * (psi_t @ Wd + bd)) @ Wo
                   + in_degree[:, t] (x) bo)

    Each Eq. 5 MLP being one affine layer, ``(h Ws + bs)[src] = h[src]
    Ws + bs`` and ``sum_e (g_e Wo + bo) = (sum_e g_e) Wo + deg bo``: the
    source affines run on node rows, as one product with ``[Ws_1 | ...
    | Ws_T]``, and the output affines after one scatter into the
    receiver slots, as one product with ``[Wo_1; ...; Wo_T]``.  The
    backward adds into ``h``, ``psi`` and each weight that requires
    grad when it runs.

    Args:
        h: (N, H) node embeddings.
        psi: (E, D) distance features of every edge.
        src_slots, dst_slots: the sender and the receiver slot of every
            edge, over ``N * T`` slots.
        in_degree: (N, T) edges of each type received per node.
        offsets: (T + 1,) start of each type's edges, then ``E``.
        weights: per edge type, its affine weights and biases.

    Raises:
        ValueError: the slot scatters or ``in_degree`` do not cover
            ``len(h)`` nodes of ``T`` types, or the scatters, ``psi``
            and ``offsets`` differ in edge count.
    """
    num_nodes, hidden = h.shape
    num_types = len(weights)
    num_slots = num_nodes * num_types
    if (src_slots.num_segments != num_slots
            or dst_slots.num_segments != num_slots
            or in_degree.shape != (num_nodes, num_types)):
        raise ValueError(
            f"slot scatters over {src_slots.num_segments} and "
            f"{dst_slots.num_segments} rows and in-degree of shape "
            f"{in_degree.shape}, for {num_nodes} nodes of {num_types} types")
    if not (len(src_slots) == len(dst_slots) == len(psi.data)
            == offsets[num_types]):
        raise ValueError(
            f"{len(src_slots)} senders, {len(dst_slots)} receivers, "
            f"{len(psi.data)} distance feature rows and "
            f"{offsets[num_types]} typed edges")
    w_src, b_src, w_dist, b_dist, w_out, b_out = zip(*weights)
    spans = list(zip(offsets[:-1], offsets[1:], w_dist, b_dist))
    ws = np.concatenate([w.data for w in w_src], axis=1)
    wo = np.concatenate([w.data for w in w_out])
    # The source and distance branches need a gradient only when the
    # tape records and one of their inputs requires grad here.
    src_side = tensor_mod._GRAD_ENABLED and (
        h.requires_grad or _any_grad(w_src + b_src))
    dist_side = tensor_mod._GRAD_ENABLED and (
        psi.requires_grad or _any_grad(w_dist + b_dist))

    src_out = h.data @ ws
    src_out += np.concatenate([b.data for b in b_src])
    gathered = src_out.reshape(num_slots, hidden)[src_slots.ids]
    dist_out = np.empty_like(gathered)
    for lo, hi, wd, bd in spans:
        np.matmul(psi.data[lo:hi], wd.data, out=dist_out[lo:hi])
        dist_out[lo:hi] += bd.data
    # The backward reads ``gathered`` for the distance branch and
    # ``dist_out`` for the source branch; one it does not read takes the
    # product in place.
    if not dist_side:
        gated = np.multiply(gathered, dist_out, out=gathered)
    elif not src_side:
        gated = np.multiply(dist_out, gathered, out=dist_out)
    else:
        gated = gathered * dist_out
    summed = dst_slots(gated).reshape(num_nodes, num_types * hidden)
    out = summed @ wo
    out += in_degree @ np.stack([b.data for b in b_out])
    out += h.data

    def backward(grad: np.ndarray) -> None:
        if _any_grad(w_out):
            _accumulate_each(w_out, np.split(summed.T @ grad, num_types))
        if _any_grad(b_out):
            _accumulate_each(b_out, in_degree.T @ grad)
        g_h = grad
        if src_side or dist_side:
            g_gated = (grad @ wo.T).reshape(num_slots, hidden)[dst_slots.ids]
        if dist_side:
            g_dist = (g_gated * gathered if src_side
                      else np.multiply(g_gated, gathered, out=g_gated))
            if psi.requires_grad:
                g_psi = np.empty_like(psi.data)
                for lo, hi, wd, _bd in spans:
                    np.matmul(g_dist[lo:hi], wd.data.T, out=g_psi[lo:hi])
                psi._accumulate(g_psi)
            for lo, hi, wd, bd in spans:
                if wd.requires_grad:
                    wd._accumulate(psi.data[lo:hi].T @ g_dist[lo:hi])
                if bd.requires_grad:
                    bd._accumulate(_unbroadcast(g_dist[lo:hi], bd.shape))
        if src_side:
            g_gated *= dist_out
            g_src = src_slots(g_gated).reshape(num_nodes, num_types * hidden)
            if h.requires_grad:
                g_h = g_src @ ws.T
                g_h += grad
            if _any_grad(w_src):
                _accumulate_each(w_src, np.split(h.data.T @ g_src, num_types,
                                                 axis=1))
            if _any_grad(b_src):
                _accumulate_each(b_src, np.split(
                    _unbroadcast(g_src, (num_types * hidden,)), num_types))
        if h.requires_grad:
            h._accumulate(g_h)

    return Tensor(out, parents=(h, psi, *w_src, *b_src, *w_dist, *b_dist,
                                *w_out, *b_out),
                  backward=backward)


def _any_grad(tensors) -> bool:
    return any(t.requires_grad for t in tensors)


def _accumulate_each(tensors, grads) -> None:
    """Add each gradient into its tensor where that requires grad."""
    for tensor, grad in zip(tensors, grads):
        if tensor.requires_grad:
            tensor._accumulate(grad)
