"""Graph readout and metric prediction head (Eq. 6)."""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Module, Scatter, Tensor, segment_sum

#: Number of predicted metrics (offset, CMRR, UGB, gain, noise).
NUM_METRICS = 5


class ReadoutHead(Module):
    """Global readout ``u = sum_i MLP(v_i)`` followed by the FC metric head.

    Args:
        hidden: node embedding width.
        rng: parameter-init RNG.
        num_metrics: output width (the paper's five metrics).
    """

    def __init__(
        self, hidden: int, rng: np.random.Generator, num_metrics: int = NUM_METRICS
    ) -> None:
        self.node_mlp = MLP([hidden, hidden], rng)
        self.fc = MLP([hidden, hidden, num_metrics], rng)
        self.num_metrics = num_metrics

    def readout(self, node_embeddings: Tensor,
                pool: Scatter | None = None) -> Tensor:
        """Pooled graph embeddings ``u`` from final node embeddings.

        Args:
            node_embeddings: (num_nodes, hidden) tensor after L layers of
                message passing.  For a batched (disjoint-union) forward
                this holds several replicas' nodes.
            pool: for batched pooling, the scatter of each node into its
                graph (one segment per graph); ``None`` pools all nodes
                into a single graph.

        Returns:
            ``(1, hidden)``, or ``(num_graphs, hidden)`` when ``pool`` is
            given.
        """
        per_node = self.node_mlp(node_embeddings)
        if pool is None:
            pooled = per_node.sum(axis=0) * (1.0 / max(len(node_embeddings), 1))
            return pooled.reshape(1, -1)
        nodes_per_graph = len(node_embeddings) // max(pool.num_segments, 1)
        return segment_sum(per_node, pool) * (1.0 / max(nodes_per_graph, 1))

    def forward(self, node_embeddings: Tensor) -> Tensor:
        """Length-``num_metrics`` predictions for one graph's nodes.

        Batched forwards pool each block with :meth:`readout` and run
        :attr:`fc` once over all pooled rows.
        """
        return self.fc(self.readout(node_embeddings)).reshape(-1)
