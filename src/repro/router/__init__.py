"""Grid-based analog detailed router with symmetry and guidance support."""

from repro.router.astar import AStarRouter, CostParams
from repro.router.costfield import CostField, CostState
from repro.router.pqueue import BucketQueue
from repro.router.grid import FREE, BLOCKED, GridNode, RoutingGrid
from repro.router.guidance import AccessPoint, RoutingGuidance, uniform_guidance
from repro.router.iterative import IterativeRouter, RouterConfig
from repro.router.result import NetRoute, RoutingResult

__all__ = [
    "AStarRouter",
    "BucketQueue",
    "CostField",
    "CostParams",
    "CostState",
    "FREE",
    "BLOCKED",
    "GridNode",
    "RoutingGrid",
    "AccessPoint",
    "RoutingGuidance",
    "uniform_guidance",
    "IterativeRouter",
    "RouterConfig",
    "NetRoute",
    "RoutingResult",
]
