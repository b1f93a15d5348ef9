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

A fused op given a workspace writes its per-edge and per-slot arrays
into buffers instead of fresh allocations; the arithmetic is the same
either way, only where ``out=`` points changes.  With the tape off the
workspace is a :class:`Workspace` of named buffers.  With the tape on
it is a :class:`Lease` on a :class:`TapeBuffers` set, whose arrays stay
the tape's until its backward has run or it is dropped; temporaries
go to the lease's scratch.  Gathers run as
``np.take(..., mode="clip")``: the ids come from a
:class:`~repro.nn.scatter.Scatter`, which checks their range when it is
built, and the default ``mode="raise"`` copies through a temporary when
given ``out=``.
"""

from __future__ import annotations

import weakref
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


class _BufferSet:
    """The arrays of one taped forward, in the order it asked for them,
    and the lease that holds them (a weak reference, or None)."""

    __slots__ = ("arrays", "owner")

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []
        self.owner: "weakref.ref[Lease] | None" = None


class TapeBuffers:
    """Reusable buffers of the taped forwards on one plan.

    A taped forward's backward reads the arrays its forward wrote, so
    each taped forward leases a set of its own (:meth:`lease`).  The
    owner check: a set is handed out again only after the tape that
    reads it has run its backward or been dropped.  Forwards on one plan
    ask for the same arrays in the same order, so a reused set's arrays
    fit without reallocation, and a plan keeps as many sets as it had
    tapes alive at once (three for a relaxation wave of six candidates
    in blocks of two).  Temporaries, dead when their op's forward or
    backward returns, go to one :class:`Workspace` of named buffers
    that every set shares; a backward reuses the names of its forward's
    temporaries, so two temporaries share a name only when they are
    never alive at once.
    """

    __slots__ = ("_sets", "scratch")

    def __init__(self) -> None:
        self._sets: list[_BufferSet] = []
        self.scratch = Workspace()

    def lease(self) -> "Lease":
        """A lease on a set no live tape holds, new if none is free."""
        for buffers in self._sets:
            if buffers.owner is None or buffers.owner() is None:
                break
        else:
            buffers = _BufferSet()
            self._sets.append(buffers)
        return Lease(buffers, self.scratch)


class Lease:
    """One taped forward's hold on a :class:`TapeBuffers` set.

    :meth:`buffer` hands out the set's arrays in request order.  Each
    fused op that records a backward calls :meth:`hold`, and its
    backward calls :meth:`check` before it reads the set and
    :meth:`release` when done: the set is free again once every holder's
    backward has run, or once the lease itself is garbage, which happens
    when no recorded backward references it (the tape was dropped, or
    nothing recorded).

    Args:
        buffers: the set to hold.
        scratch: where temporaries go.
    """

    __slots__ = ("_set", "scratch", "_cursor", "_holds", "__weakref__")

    def __init__(self, buffers: _BufferSet, scratch: Workspace) -> None:
        self._set = buffers
        self.scratch = scratch
        self._cursor = 0
        self._holds = 0
        buffers.owner = weakref.ref(self)

    def buffer(self, name: str, shape: tuple[int, ...],
               dtype) -> np.ndarray:
        """The set's next array, as ``shape`` and ``dtype`` (uninitialized
        when new); ``name`` documents the call site."""
        arrays, i = self._set.arrays, self._cursor
        self._cursor += 1
        if i == len(arrays):
            arrays.append(np.empty(shape, dtype))
        elif arrays[i].shape != shape or arrays[i].dtype != dtype:
            arrays[i] = np.empty(shape, dtype)
        return arrays[i]

    def hold(self) -> None:
        """Keep the set until a matching :meth:`release`."""
        self._holds += 1

    def check(self) -> None:
        """Raise unless the set is still this lease's.

        Raises:
            RuntimeError: the set was released (the tape's backward
                already ran) and may hold another forward's arrays.
        """
        owner = self._set.owner
        if owner is None or owner() is not self:
            raise RuntimeError(
                "a taped forward's buffers were released: its backward "
                "already ran, and a tape runs its backward once")

    def release(self) -> None:
        """End one :meth:`hold`; the last frees the set."""
        self._holds -= 1
        if self._holds == 0:
            self._set.owner = None


def _out(workspace: "Workspace | Lease | None", name: str,
         shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """Where an op writes an array its backward may read (or its
    output): the lease's next array, or the named buffer of a tape-free
    workspace while the tape is off; otherwise ``None`` (allocate)."""
    if workspace is None or (tensor_mod._GRAD_ENABLED
                             and isinstance(workspace, Workspace)):
        return None
    return workspace.buffer(name, shape, dtype)


def _tmp(workspace: "Workspace | Lease | None", name: str,
         shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """Where an op writes a temporary no later step reads: the named
    scratch buffer of a lease, or of a tape-free workspace while the
    tape is off; otherwise ``None`` (allocate)."""
    if isinstance(workspace, Lease):
        return workspace.scratch.buffer(name, shape, dtype)
    return _out(workspace, name, shape, dtype)


def _record(out: Tensor, workspace) -> Tensor:
    """Hold ``workspace``'s set for ``out``'s backward, if it recorded
    one and the workspace is a lease."""
    if out.requires_grad and isinstance(workspace, Lease):
        workspace.hold()
    return out


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
                  workspace: "Workspace | Lease | None" = None) -> Tensor:
    """Eq. 1 cost-aware edge lengths as one tape node.

    ``sqrt(sum_k (C[dst] * delta)_k^2 + 1e-6)`` per edge: the static
    ``|pos[dst] - pos[src]|`` decomposition ``deltas`` (E, 3) reweighted
    by the receiver's guidance row.

    Args:
        guidance: (N, 3) guidance of every node.
        receivers: the edges' receiver scatter over the N nodes.
        deltas: (E, 3) edge-vector decomposition.
        workspace: where the (E, 3) and (E,) arrays go.

    Raises:
        ValueError: ``receivers`` is not over ``len(guidance)`` nodes.
    """
    if receivers.num_segments != len(guidance.data):
        raise ValueError(
            f"scatter over {receivers.num_segments} rows gathers from a "
            f"tensor of {len(guidance.data)}")
    lease = workspace if isinstance(workspace, Lease) else None
    dtype = guidance.data.dtype
    num_edges = len(deltas)
    weighted = np.take(guidance.data, receivers.ids, axis=0, mode="clip",
                       out=_out(workspace, "cd_weighted", deltas.shape,
                                dtype))
    weighted *= deltas
    # The backward reads ``weighted``; without one it squares in place.
    taped = tensor_mod._GRAD_ENABLED and guidance.requires_grad
    squared = np.multiply(weighted, weighted, out=_tmp(
        workspace, "cd_squared", deltas.shape, dtype) if taped else weighted)
    dist = np.sum(squared, axis=1,
                  out=_out(workspace, "cd_dist", (num_edges,), dtype))
    dist += dist.dtype.type(1e-6)
    np.sqrt(dist, out=dist)

    def backward(grad: np.ndarray) -> None:
        if lease is not None:
            lease.check()
        g_sum = np.multiply(grad, 0.5, out=_tmp(
            lease, "cd_g_sum", (num_edges,), grad.dtype))
        g_sum /= np.maximum(dist, 1e-30, out=_tmp(
            lease, "cd_g_norm", (num_edges,), dtype))
        g_weighted = np.multiply(g_sum[:, None], weighted, out=_tmp(
            lease, "cd_squared", deltas.shape, dtype))
        g_weighted += g_weighted  # the square's two operands
        g_weighted *= deltas
        guidance._accumulate(receivers(g_weighted))
        if lease is not None:
            lease.release()

    return _record(Tensor(dist, parents=(guidance,), backward=backward),
                   workspace)


def rbf_expand(distances: Tensor, centers: np.ndarray, gamma,
               workspace: "Workspace | Lease | None" = None) -> Tensor:
    """Eq. 2-3 Gaussian radial basis features as one tape node.

    ``exp(-gamma * (d - mu_k)^2)`` for each distance ``d`` and center
    ``mu_k``: a (E,) distance tensor becomes (E, K) features, written
    into ``workspace``.
    """
    lease = workspace if isinstance(workspace, Lease) else None
    d = distances.data
    shape = (len(d), len(centers))
    diff = np.add(d.reshape(-1, 1), -centers.reshape(1, -1),
                  out=_out(workspace, "rbf", shape, d.dtype))
    scale = np.asarray(-gamma).astype(diff.dtype)
    # The backward reads ``diff``; without one it squares in place.
    taped = tensor_mod._GRAD_ENABLED and distances.requires_grad
    feats = np.multiply(diff, diff, out=_out(
        workspace, "rbf_feats", shape, d.dtype) if taped else diff)
    feats *= scale
    np.exp(feats, out=feats)

    def backward(grad: np.ndarray) -> None:
        if lease is not None:
            lease.check()
        g_diff = np.multiply(grad, feats, out=_tmp(
            lease, "g_features", shape, feats.dtype))
        g_diff *= scale
        g_diff *= diff
        g_diff += g_diff  # the square's two operands
        distances._accumulate(np.sum(g_diff, axis=1, out=_tmp(
            lease, "g_distances", (len(d),), g_diff.dtype)))
        if lease is not None:
            lease.release()

    return _record(Tensor(feats, parents=(distances,), backward=backward),
                   workspace)


class FrozenLayer(tuple):
    """A message layer's weights, stacked once while they stay fixed.

    The sequence of per-type ``(Ws, bs, Wd, bd, Wo, bo)`` tuples that
    :func:`message_layer` takes as ``weights``, carrying the arrays it
    would otherwise build from them on every call.  Held fixed (under
    :class:`repro.nn.frozen`) the weights need no gradient, so the
    stacked arrays are constants; a layer whose input ``h`` is fixed too
    (layer 1 over the node embeddings) also carries its gathered source
    rows.

    Attributes:
        ws: (H, T * H) ``[Ws_1 | ... | Ws_T]``.
        bs: (T * H,) ``[bs_1 | ... | bs_T]``.
        wo: (T * H, H) ``[Wo_1; ...; Wo_T]``.
        bias: (N, H) ``in_degree @ [bo_1; ...; bo_T]``.
        gathered: (E, H) ``(h @ ws + bs)[src_slots]`` for the fixed
            input ``h``, or None.

    Args:
        weights: per edge type, its affine weights and biases.
        in_degree: (N, T) edges of each type received per node.
        h: the layer's input when it is fixed, else None.
        src_slots: the sender slot of every edge (with ``h``).
    """

    def __new__(cls, weights: Sequence[Sequence[Tensor]],
                in_degree: np.ndarray, h: np.ndarray | None = None,
                src_slots: Scatter | None = None) -> "FrozenLayer":
        layer = super().__new__(cls, (tuple(w) for w in weights))
        layer.ws, layer.bs, layer.wo = _stack(layer)
        layer.bias = _bias_rows(layer, in_degree)
        layer.gathered = (None if h is None
                          else _source_rows(h, layer.ws, layer.bs, src_slots))
        return layer


def _stack(weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[Ws_1 | ... | Ws_T]``, ``[bs_1 | ... | bs_T]`` and ``[Wo_1; ...;
    Wo_T]`` of per-type weights."""
    w_src, b_src, _w_dist, _b_dist, w_out, _b_out = zip(*weights)
    return (np.concatenate([w.data for w in w_src], axis=1),
            np.concatenate([b.data for b in b_src]),
            np.concatenate([w.data for w in w_out]))


def _bias_rows(weights, in_degree: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """``in_degree @ [bo_1; ...; bo_T]``: each receiver's output biases."""
    return np.matmul(in_degree, np.stack([w[5].data for w in weights]),
                     out=out)


def _source_rows(h: np.ndarray, ws: np.ndarray, bs: np.ndarray,
                 src_slots: Scatter, out: np.ndarray | None = None,
                 src_out: np.ndarray | None = None) -> np.ndarray:
    """``(h @ ws + bs)[src_slots]``: the source affines on node rows,
    gathered at every edge's sender slot."""
    src_out = np.matmul(h, ws, out=src_out)
    src_out += bs
    return np.take(src_out.reshape(-1, h.shape[1]), src_slots.ids, axis=0,
                   mode="clip", out=out)


def message_layer(h: Tensor, psi: Tensor, src_slots: Scatter,
                  dst_slots: Scatter, in_degree: np.ndarray,
                  offsets: Sequence[int],
                  weights: Sequence[Sequence[Tensor]],
                  workspace: "Workspace | Lease | None" = None) -> Tensor:
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
    receiver slots, as one product with ``[Wo_1; ...; Wo_T]``.  A
    :class:`FrozenLayer` as ``weights`` brings those stacks, the bias
    rows and, for a fixed ``h``, the gathered source rows, computed
    once.  The backward adds into ``h``, ``psi`` and each weight that
    requires grad when it runs.  With a ``workspace``, every per-edge
    and per-slot array, the output included, is a workspace buffer.
    With a lease, so is the first gradient of a ``psi`` that an op made.
    With a tape-free :class:`Workspace` the output goes to whichever of
    two buffers ``h`` is not in, so stacked layers alternate between
    them.

    Args:
        h: (N, H) node embeddings.
        psi: (E, D) distance features of every edge.
        src_slots, dst_slots: the sender and the receiver slot of every
            edge, over ``N * T`` slots.
        in_degree: (N, T) edges of each type received per node.
        offsets: (T + 1,) start of each type's edges, then ``E``.
        weights: per edge type, its affine weights and biases.
        workspace: where the layer's arrays go.

    Raises:
        ValueError: the slot scatters or ``in_degree`` do not cover
            ``len(h)`` nodes of ``T`` types, or the scatters, ``psi``
            and ``offsets`` differ in edge count, or ``weights`` is a
            :class:`FrozenLayer` whose stacked weights require grad, or
            whose gathered source rows come with an ``h`` that does.
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
    lease = workspace if isinstance(workspace, Lease) else None
    frozen = weights if isinstance(weights, FrozenLayer) else None
    w_src, b_src, w_dist, b_dist, w_out, b_out = zip(*weights)
    if frozen is not None and (
            _any_grad(w_src + b_src + w_out + b_out)
            or (frozen.gathered is not None and h.requires_grad)):
        raise ValueError("a FrozenLayer's stacked weights, and the input "
                         "of its gathered rows, must not require grad")
    spans = list(zip(offsets[:-1], offsets[1:], w_dist, b_dist))
    ws, bs, wo = _stack(weights) if frozen is None else (
        frozen.ws, frozen.bs, frozen.wo)
    # The source and distance branches need a gradient only when the
    # tape records and one of their inputs requires grad here.
    src_side = tensor_mod._GRAD_ENABLED and (
        h.requires_grad or _any_grad(w_src + b_src))
    dist_side = tensor_mod._GRAD_ENABLED and (
        psi.requires_grad or _any_grad(w_dist + b_dist))

    dtype = h.data.dtype
    num_edges = len(src_slots)
    if frozen is not None and frozen.gathered is not None:
        gathered = frozen.gathered
    else:
        gathered = _source_rows(
            h.data, ws, bs, src_slots,
            out=(_out if dist_side else _tmp)(
                workspace, "ml_gathered", (num_edges, hidden), dtype),
            src_out=_tmp(workspace, "ml_src",
                         (num_nodes, num_types * hidden), dtype))
    dist_out = (_out if src_side else _tmp)(
        workspace, "ml_dist", gathered.shape, dtype)
    if dist_out is None:
        dist_out = np.empty_like(gathered)
    for lo, hi, wd, bd in spans:
        np.matmul(psi.data[lo:hi], wd.data, out=dist_out[lo:hi])
        dist_out[lo:hi] += bd.data
    # The backward reads ``gathered`` for the distance branch and
    # ``dist_out`` for the source branch; one it does not read takes the
    # product in place (never a frozen ``gathered``: without a source
    # branch the product goes to ``dist_out``).
    if not src_side:
        gated = np.multiply(gathered, dist_out, out=dist_out)
    elif not dist_side:
        gated = np.multiply(gathered, dist_out, out=gathered)
    else:
        gated = np.multiply(gathered, dist_out, out=_tmp(
            workspace, "ml_gated", gathered.shape, dtype))
    summed = dst_slots(gated).reshape(num_nodes, num_types * hidden)
    out = _out(workspace, "ml_out", h.shape, dtype)
    if out is not None and np.may_share_memory(out, h.data):
        out = _out(workspace, "ml_out_alt", h.shape, dtype)
    out = np.matmul(summed, wo, out=out)
    out += (_bias_rows(weights, in_degree, out=_tmp(
        workspace, "ml_bias", h.shape, dtype)) if frozen is None
            else frozen.bias)
    out += h.data
    # Only the output weights' gradient reads the aggregated rows.
    out_grads = _any_grad(w_out)
    summed = summed if out_grads else None

    def backward(grad: np.ndarray) -> None:
        if lease is not None:
            lease.check()
        if out_grads:
            _accumulate_each(w_out, np.split(summed.T @ grad, num_types))
        if _any_grad(b_out):
            _accumulate_each(b_out, in_degree.T @ grad)
        g_h = grad
        if src_side or dist_side:
            g_slots = np.matmul(grad, wo.T, out=_tmp(
                lease, "ml_src", (num_nodes, num_types * hidden),
                grad.dtype))
            g_gated = np.take(g_slots.reshape(num_slots, hidden),
                              dst_slots.ids, axis=0, mode="clip",
                              out=_tmp(lease, "ml_gated",
                                       (num_edges, hidden), grad.dtype))
        if dist_side:
            g_dist = np.multiply(g_gated, gathered, out=_tmp(
                lease, "ml_dist", g_gated.shape, g_gated.dtype)
                if src_side else g_gated)
            if psi.requires_grad:
                g_psi = _tmp(lease, "g_features", psi.shape,
                             psi.data.dtype)
                if g_psi is None:
                    g_psi = np.empty_like(psi.data)
                for lo, hi, wd, _bd in spans:
                    np.matmul(g_dist[lo:hi], wd.data.T, out=g_psi[lo:hi])
                if (psi.grad is None and lease is not None
                        and psi._backward is not None):
                    # An op's ``psi`` gets its first gradient, with
                    # ``_accumulate``'s bits, in the lease's set: only
                    # this backward pass reads it (the later layers and
                    # ``psi``'s own backward), so a reused set serves.
                    psi.grad = np.add(g_psi, 0.0, out=lease.buffer(
                        "ml_g_psi", psi.shape, psi.data.dtype))
                else:
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
                g_h = np.matmul(g_src, ws.T, out=_tmp(
                    lease, "ml_bias", h.shape, g_src.dtype))
                g_h += grad
            if _any_grad(w_src):
                _accumulate_each(w_src, np.split(h.data.T @ g_src, num_types,
                                                 axis=1))
            if _any_grad(b_src):
                _accumulate_each(b_src, np.split(
                    _unbroadcast(g_src, (num_types * hidden,)), num_types))
        if h.requires_grad:
            h._accumulate(g_h)
        if lease is not None:
            lease.release()

    return _record(Tensor(out, parents=(h, psi, *w_src, *b_src, *w_dist,
                                        *b_dist, *w_out, *b_out),
                          backward=backward), workspace)


def _any_grad(tensors) -> bool:
    return any(t.requires_grad for t in tensors)


def _accumulate_each(tensors, grads) -> None:
    """Add each gradient into its tensor where that requires grad."""
    for tensor, grad in zip(tensors, grads):
        if tensor.requires_grad:
            tensor._accumulate(grad)
