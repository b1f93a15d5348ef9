"""Graph readout and metric prediction head (Eq. 6)."""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Module, Scatter, Tensor, segment_sum

#: Number of predicted metrics (offset, CMRR, UGB, gain, noise).
NUM_METRICS = 5


class ReadoutHead(Module):
    """Global readout ``u = sum_i MLP(v_i)`` followed by the FC metric head
    of :data:`NUM_METRICS` outputs.

    Args:
        hidden: node embedding width.
        rng: parameter-init RNG.
    """

    def __init__(self, hidden: int, rng: np.random.Generator) -> None:
        self.node_mlp = MLP([hidden, hidden], rng)
        self.fc = MLP([hidden, hidden, NUM_METRICS], rng)

    def readout(self, node_embeddings: Tensor, pool: Scatter) -> Tensor:
        """Pooled graph embeddings ``u`` from final node embeddings.

        Args:
            node_embeddings: (num_nodes, hidden) tensor after L layers of
                message passing over a disjoint union of graph replicas
                (one replica for a single candidate).
            pool: the scatter of each node into its graph (one segment
                per graph).

        Returns:
            ``(num_graphs, hidden)``; :attr:`fc` maps each row to the
            metric predictions.
        """
        per_node = self.node_mlp(node_embeddings)
        nodes_per_graph = len(node_embeddings) // pool.num_segments
        return segment_sum(per_node, pool) * (1.0 / max(nodes_per_graph, 1))
