"""Performance layer: the perf record, forward caches, parallel execution.

Three concerns live here, all serving the ROADMAP's "as fast as the
hardware allows" north star:

* :mod:`repro.perf.timing` — the machine-readable ``BENCH_perf.json``
  record, a projection of the run manifest's span aggregates, that
  tracks the performance trajectory;
* :mod:`repro.perf.cache` — graph-invariant forward-pass caches and the
  disjoint-union batching plan behind the batched 3DGNN forward;
* :mod:`repro.perf.parallel` — the process-pool executor for database
  construction (imported lazily: it pulls in the whole pipeline).
"""

from repro.perf.cache import (
    BatchedStatics,
    ForwardCacheStore,
    build_batched,
    graph_fingerprint,
)
from repro.perf.timing import (
    BENCH_SCHEMA_VERSION,
    PIPELINE_STAGES,
    bench_payload,
    compare_to_baseline,
    load_bench_json,
    write_bench_json,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PIPELINE_STAGES",
    "bench_payload",
    "compare_to_baseline",
    "load_bench_json",
    "write_bench_json",
    "BatchedStatics",
    "ForwardCacheStore",
    "build_batched",
    "graph_fingerprint",
    "ParallelConfig",
    "SamplePool",
]


def __getattr__(name: str):
    # repro.perf.parallel imports the core pipeline; loading it eagerly
    # from here would cycle (model -> perf.cache -> perf -> parallel ->
    # core -> model).  Resolve its exports on first touch instead.
    if name in ("ParallelConfig", "SamplePool"):
        from repro.perf import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
