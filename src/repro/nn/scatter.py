"""The one segment-sum kernel: a prebuilt CSR 0/1 scatter operator.

Row ``n`` of the ``(num_segments, E)`` operator holds a one in column
``e`` for every ``ids[e] == n``, in ascending ``e``.  A CSR product
starts each output row at zero and adds that row's entries in column
order, and multiplying by 1.0 is exact, so ``matrix @ values`` is
bitwise equal to the sequential ``np.add.at`` scatter (and to a
per-column ``np.bincount``) over the same ids, ``-0.0`` included, at a
fraction of their dispatch cost.  ``np.add.reduceat`` over sorted rows
is not: it does not add a segment's rows one after another.

The 3DGNN uses the operator both ways: the segment sum that aggregates
messages at receivers, and the backward of a row gather ``x[ids]``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix


class Scatter:
    """Sum rows into segments by a fixed id array.

    Built once per index array (the forward caches in
    :mod:`repro.perf.cache` own the 3DGNN's operators), so the id range
    is checked here, once, not on every call.

    Args:
        ids: segment id of each row, each in ``[0, num_segments)``.
        num_segments: number of output rows.
        dtype: float dtype of the operator's ones; a float32 operator
            keeps float32 products float32.

    Raises:
        ValueError: ``ids`` is not 1-D or holds an id out of range.
    """

    __slots__ = ("ids", "matrix")

    def __init__(self, ids, num_segments: int, dtype=np.float64) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"segment ids must be 1-D, got shape {ids.shape}")
        if len(ids) and (ids.min() < 0 or ids.max() >= num_segments):
            raise ValueError("segment id out of range")
        indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=num_segments), out=indptr[1:])
        self.ids = ids
        self.matrix = csr_matrix(
            (np.ones(len(ids), dtype=dtype), np.argsort(ids, kind="stable"),
             indptr),
            shape=(num_segments, len(ids)))

    @property
    def num_segments(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return len(self.ids)

    def astype(self, dtype) -> "Scatter":
        """This operator with ``dtype`` ones; the id array is shared."""
        cast = Scatter.__new__(Scatter)
        cast.ids = self.ids
        cast.matrix = self.matrix.astype(dtype)
        return cast

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Segment sums of the rows of ``values`` (leading axis ``E``)."""
        flat = values.reshape(len(values), math.prod(values.shape[1:]))
        return (self.matrix @ flat).reshape(
            (self.num_segments,) + values.shape[1:])
