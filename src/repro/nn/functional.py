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

With the tape off, a fused op given a :class:`Workspace` writes its
per-edge and per-slot arrays into the workspace's buffers instead of
fresh allocations; the arithmetic is the same either way, only where
``out=`` points changes.  Gathers run as ``np.take(..., mode="clip")``:
the ids come from a :class:`~repro.nn.scatter.Scatter`, which checks
their range when it is built, and the default ``mode="raise"`` copies
through a temporary when given ``out=``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import tensor as tensor_mod
from repro.nn.scatter import Scatter
from repro.nn.tensor import Tensor, _unbroadcast, as_tensor


class Workspace:
    """Reusable output buffers of tape-free fused-op calls.

    A tape-free forward keeps none of its intermediates, so the fused
    ops can write them into buffers that outlive the call: a forward
    that runs again on the same plan reuses the same memory instead of
    allocating (and, past the allocator's mmap threshold, page-faulting)
    afresh.  Buffers are keyed by name and dtype and reallocated when a
    call asks for another shape.  An op's result in a workspace buffer
    is valid until the next call that writes the same buffer, so a
    workspace serves one forward at a time.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...],
               dtype) -> np.ndarray:
        """The buffer ``name`` of ``shape`` and ``dtype`` (uninitialized
        when new)."""
        key = (name, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf


def _out(workspace: Workspace | None, name: str, shape: tuple[int, ...],
         dtype) -> np.ndarray | None:
    """Where an op writes its array ``name``: the workspace buffer while
    the tape is off, otherwise ``None`` (allocate, since the backward
    may read it)."""
    if workspace is None or tensor_mod._GRAD_ENABLED:
        return None
    return workspace.buffer(name, shape, dtype)


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
                  deltas: np.ndarray,
                  workspace: Workspace | None = None) -> Tensor:
    """Eq. 1 cost-aware edge lengths as one tape node.

    ``sqrt(sum_k (C[dst] * delta)_k^2 + 1e-6)`` per edge: the static
    ``|pos[dst] - pos[src]|`` decomposition ``deltas`` (E, 3) reweighted
    by the receiver's guidance row.

    Args:
        guidance: (N, 3) guidance of every node.
        receivers: the edges' receiver scatter over the N nodes.
        deltas: (E, 3) edge-vector decomposition.
        workspace: where the (E, 3) and (E,) arrays go with the tape off.

    Raises:
        ValueError: ``receivers`` is not over ``len(guidance)`` nodes.
    """
    if receivers.num_segments != len(guidance.data):
        raise ValueError(
            f"scatter over {receivers.num_segments} rows gathers from a "
            f"tensor of {len(guidance.data)}")
    dtype = guidance.data.dtype
    weighted = np.take(guidance.data, receivers.ids, axis=0, mode="clip",
                       out=_out(workspace, "cd_weighted", deltas.shape,
                                dtype))
    weighted *= deltas
    # The backward reads ``weighted``; without one it squares in place.
    taped = tensor_mod._GRAD_ENABLED and guidance.requires_grad
    squared = np.multiply(weighted, weighted,
                          out=None if taped else weighted)
    dist = np.sum(squared, axis=1,
                  out=_out(workspace, "cd_dist", (len(deltas),), dtype))
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


def rbf_expand(distances: Tensor, centers: np.ndarray, gamma,
               workspace: Workspace | None = None) -> Tensor:
    """Eq. 2-3 Gaussian radial basis features as one tape node.

    ``exp(-gamma * (d - mu_k)^2)`` for each distance ``d`` and center
    ``mu_k``: a (E,) distance tensor becomes (E, K) features, written
    into ``workspace`` with the tape off.
    """
    d = distances.data
    diff = np.add(d.reshape(-1, 1), -centers.reshape(1, -1),
                  out=_out(workspace, "rbf", (len(d), len(centers)),
                           d.dtype))
    scale = np.asarray(-gamma).astype(diff.dtype)
    # The backward reads ``diff``; without one it squares in place.
    taped = tensor_mod._GRAD_ENABLED and distances.requires_grad
    feats = np.multiply(diff, diff, out=None if taped else diff)
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
                  weights: Sequence[Sequence[Tensor]],
                  workspace: Workspace | None = None) -> Tensor:
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
    grad when it runs.  With the tape off and a ``workspace``, every
    per-edge and per-slot array, the output included, is a workspace
    buffer; the output goes to whichever of two buffers ``h`` is not in,
    so stacked layers alternate between them.

    Args:
        h: (N, H) node embeddings.
        psi: (E, D) distance features of every edge.
        src_slots, dst_slots: the sender and the receiver slot of every
            edge, over ``N * T`` slots.
        in_degree: (N, T) edges of each type received per node.
        offsets: (T + 1,) start of each type's edges, then ``E``.
        weights: per edge type, its affine weights and biases.
        workspace: where the layer's arrays go with the tape off.

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

    dtype = h.data.dtype
    num_edges = len(src_slots)
    src_out = np.matmul(h.data, ws, out=_out(
        workspace, "ml_src", (num_nodes, num_types * hidden), dtype))
    src_out += np.concatenate([b.data for b in b_src])
    gathered = np.take(src_out.reshape(num_slots, hidden), src_slots.ids,
                       axis=0, mode="clip", out=_out(
                           workspace, "ml_gathered", (num_edges, hidden),
                           dtype))
    dist_out = _out(workspace, "ml_dist", gathered.shape, dtype)
    if dist_out is None:
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
    out = _out(workspace, "ml_out", h.shape, dtype)
    if out is not None and np.may_share_memory(out, h.data):
        out = _out(workspace, "ml_out_alt", h.shape, dtype)
    out = np.matmul(summed, wo, out=out)
    out += np.matmul(in_degree, np.stack([b.data for b in b_out]),
                     out=_out(workspace, "ml_bias", h.shape, dtype))
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
