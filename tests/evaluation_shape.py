"""What one potential evaluation runs: tape nodes and scatter products.

:func:`evaluation_shape` counts both for one
``PotentialFunction.value_and_grad``.  ``tests/test_fused_ops.py`` caps
them on OTA1, and ``benchmarks/bench_perf.py`` records them
(``relax_tape_nodes``, ``relax_scatter_products``), so the history of
``BENCH_perf.json`` shows the evaluation's tape shrink.
"""

from repro.nn import Scatter, Tensor


def evaluation_shape(potential, point) -> tuple[list[int], int]:
    """Tape nodes reachable from the root of each ``backward`` call, and
    the number of :class:`~repro.nn.Scatter` (CSR) products, of
    ``potential.value_and_grad(point)``."""
    nodes: list[int] = []
    products = 0
    backward, scatter = Tensor.backward, Scatter.__call__

    def counting_backward(self, grad=None):
        seen, stack = set(), [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(p for p in node._parents if p.requires_grad)
        nodes.append(len(seen))
        return backward(self, grad)

    def counting_scatter(self, values):
        nonlocal products
        products += 1
        return scatter(self, values)

    Tensor.backward, Scatter.__call__ = counting_backward, counting_scatter
    try:
        potential.value_and_grad(point)
    finally:
        Tensor.backward, Scatter.__call__ = backward, scatter
    return nodes, products
