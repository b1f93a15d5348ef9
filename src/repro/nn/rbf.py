"""Radial basis expansion of distances (Eq. 2-3, after SchNet [17]).

Directly feeding raw distances into messages leaves the initial (near-
linear) network on a plateau; expanding each distance over a bank of
Gaussians decorrelates the initial messages and speeds up training — the
paper adopts this from SchNet, we implement it over autograd tensors.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import Lease, rbf_expand
from repro.nn.modules import Module
from repro.nn.tensor import Tensor, as_tensor


class RBFExpansion(Module):
    """Expand scalar distances into Gaussian radial basis features.

    ``Psi(d)[k] = exp(-gamma * (d - mu_k)^2)`` with centers ``mu_k`` spread
    uniformly over ``[0, cutoff]``.

    Args:
        num_centers: number of basis functions (feature width).
        cutoff: largest distance of interest (grid units).

    The sharpness ``gamma`` is ``1 / spacing^2``.
    """

    def __init__(self, num_centers: int = 16, cutoff: float = 30.0) -> None:
        if num_centers < 2:
            raise ValueError(f"need at least 2 centers, got {num_centers}")
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        self.centers = np.linspace(0.0, cutoff, num_centers)
        spacing = self.centers[1] - self.centers[0]
        self.gamma = 1.0 / spacing ** 2
        self.num_centers = num_centers

    def forward(self, distances: Tensor,
                workspace: Lease | None = None) -> Tensor:
        """Expand a length-n distance tensor to shape (n, num_centers),
        into ``workspace``'s set (see :func:`rbf_expand`)."""
        d = as_tensor(distances)
        if d.ndim != 1:
            raise ValueError(f"expected 1-D distances, got shape {d.shape}")
        # Match the input dtype so the float32 scoring path is not
        # promoted back to float64 by the (float64) center bank.
        centers = self.centers.astype(d.data.dtype, copy=False)
        return rbf_expand(d, centers, self.gamma, workspace=workspace)
