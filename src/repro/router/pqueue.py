"""Bucketed (Dial-style) priority queue for quantized A* costs.

When the step-cost alphabet quantizes onto an integer lattice (see
:meth:`repro.router.costfield.CostField.quantize`), the A* open set needs
far less machinery than a binary heap of ``(float, float, int)`` tuples:

* keys become integers, and the full ``(f, g)`` priority packs into a
  single Python int ``f * modulus + g`` — one int comparison replaces a
  float-tuple comparison;
* the queue is **monotone**: every pushed key is >= the key currently
  being popped (step costs are non-negative and relaxations out of the
  current bucket strictly increase ``g``), so buckets can be retired in
  order and never revisited;
* all nodes sharing one ``(f, g)`` key form a *batch* that the expansion
  loop pops in one step and expands in node order (see
  ``repro.router.astar.AStarRouter``), because no member of the batch can
  relax another member (that would need a zero-cost step).

The structure is a dict from packed key to its node bucket plus a small
binary heap over the *distinct* packed keys — one heap entry per occupied
bucket rather than one per pushed node, which is where the tuple churn of
the seed router went.

When costs do not quantize (arbitrary continuous guidance vectors), the
router falls back to its scalar engine built directly on ``heapq`` — the
fallback trigger is simply ``CostField.quantize()`` returning ``None``.
"""

from __future__ import annotations

import heapq


class BucketQueue:
    """Monotone bucket queue over packed integer ``(f, g)`` keys.

    Args:
        modulus: exclusive upper bound on any ``g`` value; keys pack as
            ``f * modulus + g``.

    Nodes are grouped per distinct key, and push order within a bucket
    is preserved (callers sort when they need node-order batches).

    ``modulus`` / ``buckets`` / ``key_heap`` are deliberately public: the
    router's expansion loop inlines :meth:`push` to skip the call overhead
    (hundreds of thousands of pushes per route) and retires the smallest
    occupied bucket wholesale by popping ``key_heap`` and then
    ``buckets``.
    """

    __slots__ = ("modulus", "buckets", "key_heap")

    def __init__(self, modulus: int) -> None:
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        self.modulus = modulus
        self.buckets: dict[int, list[int]] = {}
        self.key_heap: list[int] = []

    def push(self, f: int, g: int, node: int) -> None:
        """Add a node under priority ``(f, g)``."""
        key = f * self.modulus + g
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [node]
            heapq.heappush(self.key_heap, key)
        else:
            bucket.append(node)

