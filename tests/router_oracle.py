"""The flooding oracle: the iterative router without its reachability check.

:class:`FloodingRouter` runs every hard-mode A* search, including those
whose target no source can reach, which flood their sources' region and
return None.  It also skips the labelling, so it costs what the router
cost before the check.  The router tests hold the shipped router to its
paths, failures and iterations, and ``benchmarks/bench_perf.py`` times
the engines on it, because its floods are the workload the engine-speedup
floors were set on.
"""

from repro.router import IterativeRouter


class FloodingRouter(IterativeRouter):
    """:class:`~repro.router.IterativeRouter` that runs every hard search."""

    def _hard_components(self, net_name):
        return None
