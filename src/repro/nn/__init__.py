"""Minimal reverse-mode autograd framework on numpy.

The paper trains its 3DGNN with torch; offline we provide an equivalent
tape-based autograd (DESIGN.md section 2).  Autograd is load-bearing beyond
training: potential relaxation (Section 4.3) needs ``dV/dC`` through the
trained network, which falls out of the same machinery by marking the
guidance tensor ``requires_grad``.

Two context managers shape the tape.  ``no_grad`` turns it off: scoring
forwards record nothing.  ``frozen(params)`` holds a parameter list
fixed: relaxation's forward-backward records only the nodes that depend
on the guidance, so it computes ``dV/dC`` and no weight gradient.
"""

from repro.nn.functional import (
    FrozenLayer,
    TapeBuffers,
    Workspace,
    concat,
    cost_distance,
    message_layer,
    rbf_expand,
    segment_sum,
    stack,
)
from repro.nn.modules import MLP, Linear, Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.rbf import RBFExpansion
from repro.nn.serialization import load_state, save_state
from repro.nn.scatter import Scatter
from repro.nn.tensor import Tensor, as_tensor, frozen, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "frozen",
    "concat",
    "Scatter",
    "segment_sum",
    "cost_distance",
    "rbf_expand",
    "message_layer",
    "Workspace",
    "TapeBuffers",
    "FrozenLayer",
    "stack",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Optimizer",
    "Adam",
    "SGD",
    "RBFExpansion",
    "save_state",
    "load_state",
]
