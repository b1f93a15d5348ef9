"""Serving throughput benchmark: candidates/sec vs ``max_batch``.

Scores a fixed stream of guidance candidates on OTA1 through a real
:class:`repro.serve.ModelRegistry` checkpoint and the
:class:`repro.serve.ScoringService`, sweeping ``max_batch`` over
1 / 2 / 4 / 8 / 16 / 32, and records throughput into the ``serve``
section of ``BENCH_perf.json`` (the rest of the file — the pipeline
stages written by ``bench_perf.py`` — is preserved).

Expected shape: throughput rises monotonically with ``max_batch``.
The service hands the model one call per wave, with the weights held
fixed, and the model runs it in unions of ``TAPE_FREE_UNION``
candidates over buffers and frozen values its plans own, so larger
waves amortize per-wave Python overhead without allocating afresh or
outgrowing the cache.

Standalone usage (no pytest required)::

    python benchmarks/bench_serve.py --check

``--check`` fails (a) when any swept throughput drops below 1/3 of the
committed baseline's (CI's 3x gate, mirroring the stage-time gate of
``bench_perf.py``), (b) when the sweep is not monotone within
``MONOTONE_TOLERANCE`` (each step must retain at least ``1 - tol`` of
its predecessor's throughput), and (c) when the largest batch fails to
beat ``max_batch=1`` outright — the batching win the serving layer
exists for.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import build_benchmark, generic_40nm, place_benchmark
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d
from repro.perf.timing import load_bench_json
from repro.router import RoutingGrid
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringService,
    ServeConfig,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"
BATCH_SWEEP = (1, 2, 4, 8, 16, 32)
NUM_CANDIDATES = 64
# Best-of-N over the interleaved sweep.  Adjacent steps differ by only
# a few percent, so the min needs this many samples to converge past
# scheduler noise on a 1-vCPU runner; a full sweep pass costs ~0.5 s.
REPEATS = 25
# Each sweep step must retain at least (1 - tol) of its predecessor's
# throughput.  The curve is genuinely flat past TAPE_FREE_UNION (a wave
# of 32 is eight unions of 4), so adjacent steps sit within measurement
# noise of each other; a strict >= would flake.  12% clears the
# observed best-of-N jitter on a noisy shared runner while still
# catching a real cliff (e.g. cache thrash in oversized unions).
MONOTONE_TOLERANCE = 0.12


def measure(candidates: int = NUM_CANDIDATES,
            repeats: int = REPEATS) -> dict:
    """Sweep max_batch over a fixed candidate stream; return the record."""
    circuit = build_benchmark("OTA1")
    placement = place_benchmark(circuit, variant="A", seed=0, iterations=150)
    graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
    model = Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1])

    rng = np.random.default_rng(0)
    stream = [rng.uniform(0.5, 2.0, size=(graph.num_aps, 3))
              for _ in range(candidates)]

    best: dict[int, float] = {b: float("inf") for b in BATCH_SWEEP}
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.save("ota1", model, graph)
        # One checkpoint-loaded model shared by every swept service:
        # scoring is tape-free (read-only), and separate model copies
        # would give each sweep point its own allocation-layout luck —
        # a systematic per-point offset that best-of-N cannot average
        # away and that the monotone gate would misread as a cliff.
        served, _ = registry.load("ota1", graph=graph)
        services = {}
        for max_batch in BATCH_SWEEP:
            service = ScoringService(ServeConfig(max_batch=max_batch,
                                                 max_queue=candidates))
            service.register("ota1", served, graph)
            # Warm the block plans so steady-state is measured.
            list(service.score_stream(
                ScoreRequest("ota1", g) for g in stream[:max_batch]))
            services[max_batch] = service
        # Round-robin best-of-N: interleaving the sweep keeps slow machine
        # phases (page cache, noisy neighbours) from biasing whichever
        # batch size happens to be measured last.
        for _ in range(repeats):
            for max_batch, service in services.items():
                start = time.perf_counter()
                results = list(service.score_stream(
                    ScoreRequest("ota1", g) for g in stream))
                elapsed = time.perf_counter() - start
                assert all(r.status == "ok" for r in results)
                best[max_batch] = min(best[max_batch], elapsed)
    throughput = {str(b): round(candidates / t, 2) for b, t in best.items()}

    t1 = throughput[str(BATCH_SWEEP[0])]
    t_max = throughput[str(BATCH_SWEEP[-1])]
    return {
        "candidates": candidates,
        "circuit": "OTA1",
        "max_batch_sweep": list(BATCH_SWEEP),
        "throughput_per_sec": throughput,
        "speedup_max_vs_1": round(t_max / t1, 2),
    }


def check(current: dict, baseline: dict | None,
          max_ratio: float = 3.0,
          tolerance: float = MONOTONE_TOLERANCE) -> list[str]:
    """3x regression gate plus the monotone-throughput invariant."""
    problems: list[str] = []
    if current["speedup_max_vs_1"] <= 1.0:
        sweep = current["max_batch_sweep"]
        problems.append(
            f"no batching win: max_batch={sweep[-1]} is "
            f"{current['speedup_max_vs_1']}x max_batch=1 (need > 1x)")
    tp = current["throughput_per_sec"]
    sweep = current["max_batch_sweep"]
    for prev, nxt in zip(sweep, sweep[1:]):
        tp_prev, tp_next = float(tp[str(prev)]), float(tp[str(nxt)])
        if tp_next < tp_prev * (1.0 - tolerance):
            problems.append(
                f"throughput not monotone: max_batch={nxt} "
                f"({tp_next} candidates/s) dropped more than "
                f"{tolerance:.0%} below max_batch={prev} "
                f"({tp_prev} candidates/s)")
    if baseline is None:
        return problems
    base = baseline.get("throughput_per_sec", {})
    for key, base_tp in base.items():
        cur_tp = current["throughput_per_sec"].get(key)
        if cur_tp is None:
            problems.append(f"max_batch={key} missing from current sweep")
        elif cur_tp * max_ratio < float(base_tp):
            problems.append(
                f"max_batch={key} throughput regressed "
                f"{float(base_tp) / cur_tp:.1f}x ({base_tp} -> {cur_tp} "
                f"candidates/s, limit {max_ratio:.1f}x)")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidates", type=int, default=NUM_CANDIDATES)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="BENCH_perf.json to update in place")
    parser.add_argument("--baseline", default=str(DEFAULT_OUT),
                        help="committed record to compare against")
    parser.add_argument("--check", action="store_true",
                        help="fail on >3x throughput regression, a "
                             "non-monotone sweep, or no batching win")
    args = parser.parse_args(argv)

    baseline_serve = None
    if args.check:
        committed = load_bench_json(args.baseline)
        if committed is not None:
            baseline_serve = committed.get("serve")
            if baseline_serve is None:
                print(f"no serve section in {args.baseline}; skipping "
                      f"regression check")

    serve = measure(args.candidates)
    problems = check(serve, baseline_serve) if args.check else []

    out_path = Path(args.out)
    payload = load_bench_json(out_path) or {}
    payload["serve"] = serve
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote serve section of {out_path}")
    for key in serve["throughput_per_sec"]:
        print(f"  max_batch={key}: "
              f"{serve['throughput_per_sec'][key]} candidates/s")
    print(f"  speedup {serve['max_batch_sweep'][-1]} vs 1: "
          f"{serve['speedup_max_vs_1']}x")

    if problems:
        print("SERVE PERF REGRESSION:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
