"""Row gather on the autograd tape: the op-by-op oracles' building block.

The fused 3DGNN ops gather rows inside one tape node.  Their op-by-op
compositions in ``tests/test_fused_ops.py`` gather with
:func:`gather_rows`, a tape node of its own whose backward scatters the
gradient rows through the same :class:`~repro.nn.Scatter` the fused
ops use.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Scatter, Tensor


def gather_rows(tensor: Tensor, indices: "np.ndarray | Scatter") -> Tensor:
    """Select ``tensor``'s rows by integer index (repeats allowed).

    ``indices`` is an index array or a prebuilt :class:`Scatter` over
    the tensor's rows, whose ids are the index; an array builds one on
    the spot.
    """
    scatter = (indices if isinstance(indices, Scatter)
               else Scatter(indices, len(tensor.data), tensor.data.dtype))
    if scatter.num_segments != len(tensor.data):
        raise ValueError(
            f"scatter over {scatter.num_segments} rows gathers from a "
            f"tensor of {len(tensor.data)}")

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(scatter(grad))

    return Tensor(tensor.data[scatter.ids], parents=(tensor,),
                  backward=backward)
