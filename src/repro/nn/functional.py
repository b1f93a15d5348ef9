"""Free-standing autograd ops: concatenation, stacking, segment sums."""

from __future__ import annotations

import numpy as np

from repro.nn.scatter import Scatter
from repro.nn.tensor import Tensor, as_tensor


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


def where_positive(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where condition > 0 else ``b`` (no grad to cond)."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(condition) > 0
    out_data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(mask, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(mask, 0.0, grad))

    return Tensor(out_data, parents=(a, b), backward=backward)
