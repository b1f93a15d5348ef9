"""Performance benchmark harness: stage timings -> BENCH_perf.json.

Runs the AnalogFold pipeline on OTA1 at the selected ``REPRO_SCALE`` (or
``--scale``) under a recording :class:`repro.obs.RunContext`, then records
per-stage wall time (route / extract / simulate / train / relax, plus
calls) from the run manifest's span aggregates, one paper-shape relaxation run
(GNN forwards, candidate evaluations and seconds), a
forward-scaling sweep (per-candidate ``forward_batch``
time vs batch size, float64 and float32, with the blocked-parity
contract numbers), and the minor page faults per 3DGNN call of a fresh
process into ``BENCH_perf.json`` at the repo root.

Expected shape: the route stage dominates database construction, train
dominates total time at representative scales, and relaxation runs
several times fewer GNN forward-backward passes than candidate
evaluations, each joint wave evaluation carrying a wave of candidates.

Standalone usage (no pytest required)::

    PYTHONPATH=src python benchmarks/bench_perf.py --scale smoke --check

``--check`` compares against the committed ``BENCH_perf.json`` before
overwriting it and exits non-zero when any stage regressed more than
3x (CI's gate; slower-than-baseline runners get headroom via the noise
floor in :func:`repro.perf.timing.compare_to_baseline`).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# ``src`` for the package, the root for the test-side router oracle.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

import numpy as np

from repro import AnalogFold, build_benchmark, generic_40nm, place_benchmark
from repro.core import PotentialFunction, PotentialRelaxer, RelaxationConfig
from repro.eval.compare import SCALES
from repro.obs import RunContext
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d
from repro.nn import Tensor, no_grad
from repro.perf.timing import (
    bench_payload,
    compare_to_baseline,
    load_bench_json,
    write_bench_json,
)
from repro.router import IterativeRouter, RoutingGrid
from repro.router.guidance import RoutingGuidance, random_guidance
from repro.serve import FLOAT32_PARITY_RTOL
from tests.evaluation_shape import evaluation_shape
from tests.router_oracle import FloodingRouter, SeedFloodingRouter

DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

#: Circuits of the router benchmark (every built-in OTA).
ROUTE_CIRCUITS = ("OTA1", "OTA2", "OTA3")

#: Timed repetitions per router scenario (best-of, interleaved).
ROUTE_REPEATS = 3

#: Engine gates for the ``route`` section under ``--check``, timed on
#: the flooding oracle (every hard search runs, as before the
#: reachability check), the workload these floors were set on.  The
#: neutral scenarios exercise the bucketed (dial) queue and must clear
#: 3x over the in-run seed engine (``tests/router_oracle.py``);
#: continuous random-guidance scenarios fall back to the scalar heap
#: engine, whose floor is lower.
#: Both are in-run comparisons, so the gate does not depend on runner
#: speed.
ROUTE_MIN_SPEEDUP_NEUTRAL = 3.0
ROUTE_MIN_SPEEDUP_GUIDED = 1.5

#: Batch sizes of the forward-scaling sweep (``forward`` section).
FORWARD_BATCHES = (1, 2, 4, 8, 16)

#: Timed repetitions per (batch, dtype) point, best-of.
FORWARD_REPEATS = 5

#: Timed one-candidate potential evaluations (``relax_eval_ms``), best-of.
RELAX_EVAL_REPEATS = 20

#: Gate: per-candidate time at the largest swept batch must amortize to
#: at most this fraction of the unbatched (B=1) per-candidate time.
#: The observed amortization is far stronger; 0.9 only asserts that
#: blocked batching keeps paying off at all past forward_block.
FORWARD_MAX_AMORTIZED_RATIO = 0.9


#: Circuits of the page-fault probe (``faults`` section).
FAULT_CIRCUITS = ("OTA1", "OTA3")

#: Batch of the probe's tape-free forward: one serving wave.
FAULT_BATCH = 16

#: Probed calls per point, after warm-up.
FAULT_CALLS = 20

#: Gate: most minor page faults one tape-free ``FAULT_BATCH``-candidate
#: ``forward_batch`` may take after warm-up, on every probe circuit.
#: Its per-edge and per-slot arrays live in buffers its plan owns; what
#: is left is scipy's CSR aggregation product allocating its (N*T, H)
#: result: 300-375 faults per call on OTA1 and 0 on OTA3 (2-vCPU Xeon
#: VM).  Allocating every array, the same call took about 2,200 (OTA1)
#: and 8,300-9,300 (OTA3).
TAPE_FREE_MAX_FAULTS_PER_CALL = 1000


def _route_once(placement, tech, guidance_seed, router_cls):
    """One timed ``route_all`` on a fresh grid.

    Returns (seconds, paths, failed nets, expansions).
    """
    grid = RoutingGrid(placement, tech)
    if guidance_seed is None:
        guidance = RoutingGuidance()
    else:
        rng = np.random.default_rng(guidance_seed)
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = random_guidance(keys, rng)
    router = router_cls(grid, guidance)
    start = time.perf_counter()
    result = router.route_all()
    elapsed = time.perf_counter() - start
    paths = {name: tuple(tuple(path) for path in route.paths)
             for name, route in result.routes.items()}
    return (elapsed, paths, result.failed_nets,
            router.astar.expansions_total)


#: The timed arms of one router scenario: (name, router class).  The
#: reference arm is the flooding oracle on the seed engine, the oracle
#: arm the flooding oracle on the shipped engines.
ROUTE_ARMS = (
    ("reference", SeedFloodingRouter),
    ("oracle", FloodingRouter),
    ("shipped", IterativeRouter),
)


def measure_route() -> dict:
    """Router benchmark on every OTA, neutral and guided.

    Each scenario routes the same placement three ways.  The engine
    comparison runs the flooding oracle (``tests/router_oracle.py``) on
    the seed (reference) engine and on the shipped engines (bucketed
    dial queue on neutral guidance, scalar heap fallback on continuous
    guidance); identity of their routed paths and expansion counts is
    part of the record (and the CI gate).  The shipped router, which
    skips hard searches whose target is unreachable, runs on the shipped
    engines; it must route exactly as the oracle does with no more
    expansions, and the oracle/shipped time ratio is what the skip saves.
    """
    tech = generic_40nm()
    scenarios: dict[str, dict] = {}
    labels = ("neutral", "guided")
    seconds = {label: dict.fromkeys((arm[0] for arm in ROUTE_ARMS), 0.0)
               for label in labels}
    expansions = {label: {"oracle": 0, "shipped": 0} for label in labels}
    identical = True
    matches = True
    for circuit_name in ROUTE_CIRCUITS:
        circuit = build_benchmark(circuit_name)
        placement = place_benchmark(circuit, variant="A", seed=0,
                                    iterations=200)
        for label, seed in zip(labels, (None, 7)):
            # Interleave the arms so slow drift on the runner (thermal,
            # background load) biases none of them.
            runs = {name: _route_once(placement, tech, seed, cls)
                    for name, cls in ROUTE_ARMS}
            best = {name: run[0] for name, run in runs.items()}
            for _ in range(ROUTE_REPEATS - 1):
                for name, cls in ROUTE_ARMS:
                    best[name] = min(best[name], _route_once(
                        placement, tech, seed, cls)[0])
            _, ref_paths, _, ref_exp = runs["reference"]
            _, oracle_paths, oracle_failed, oracle_exp = runs["oracle"]
            _, new_paths, new_failed, new_exp = runs["shipped"]
            same = oracle_paths == ref_paths and oracle_exp == ref_exp
            identical = identical and same
            matched = new_paths == oracle_paths and new_failed == oracle_failed
            matches = matches and matched
            for name in best:
                seconds[label][name] += best[name]
            expansions[label]["oracle"] += oracle_exp
            expansions[label]["shipped"] += new_exp
            nets = max(len(ref_paths), 1)
            scenarios[f"{circuit_name}.{label}"] = {
                "reference_seconds": round(best["reference"], 4),
                "auto_seconds": round(best["oracle"], 4),
                "speedup": round(best["reference"] / best["oracle"], 2),
                "expansions": oracle_exp,
                "expansions_per_sec": round(oracle_exp / best["oracle"]),
                "per_net_route_seconds": round(best["oracle"] / nets, 5),
                "paths_identical": same,
                "shipped_seconds": round(best["shipped"], 4),
                "shipped_expansions": new_exp,
                "shipped_matches_oracle": matched,
            }
    return {
        "scenarios": scenarios,
        "speedup": {label: round(seconds[label]["reference"]
                                 / seconds[label]["oracle"], 2)
                    for label in labels},
        "paths_identical": identical,
        "reachability": {
            "speedup": {label: round(seconds[label]["oracle"]
                                     / seconds[label]["shipped"], 2)
                        for label in labels},
            "expansions": expansions,
            "matches_oracle": matches,
        },
        "repeats": ROUTE_REPEATS,
    }


def check_route(route: dict, baseline: dict | None) -> list[str]:
    """Route-section gates: engine speedups and identity on the flooding
    oracle, and the shipped router against that oracle."""
    problems: list[str] = []
    speedup = route.get("speedup", {})
    neutral = float(speedup.get("neutral", 0.0))
    guided = float(speedup.get("guided", 0.0))
    if neutral < ROUTE_MIN_SPEEDUP_NEUTRAL:
        problems.append(
            f"route speedup (neutral/bucketed) {neutral:.2f}x below the "
            f"{ROUTE_MIN_SPEEDUP_NEUTRAL:.1f}x gate")
    if guided < ROUTE_MIN_SPEEDUP_GUIDED:
        problems.append(
            f"route speedup (guided/scalar) {guided:.2f}x below the "
            f"{ROUTE_MIN_SPEEDUP_GUIDED:.1f}x gate")
    scenarios = route.get("scenarios", {})
    if not route.get("paths_identical", False):
        bad = [name for name, s in scenarios.items()
               if not s.get("paths_identical", False)]
        problems.append(f"routed paths differ from the reference router "
                        f"in: {', '.join(bad) or 'unknown'}")
    reach = route.get("reachability", {})
    if not reach.get("matches_oracle", False):
        bad = [name for name, s in scenarios.items()
               if not s.get("shipped_matches_oracle", False)]
        problems.append(f"routed paths or failed nets differ from the "
                        f"flooding oracle in: {', '.join(bad) or 'unknown'}")
    for name, s in scenarios.items():
        if s.get("shipped_expansions", 0) > s.get("expansions", 0):
            problems.append(
                f"{name}: the router expanded {s['shipped_expansions']} "
                f"nodes, more than the flooding oracle's {s['expansions']}")
    for label, counts in reach.get("expansions", {}).items():
        if counts["shipped"] >= counts["oracle"]:
            problems.append(
                f"reachability check skipped no flood on {label} "
                f"scenarios: {counts['shipped']} expansions vs the "
                f"flooding oracle's {counts['oracle']}")
    if baseline is not None and "route" in baseline:
        base_route = float(
            baseline["route"].get("speedup", {}).get("neutral", 0.0))
        if base_route and neutral < base_route / 1.5:
            problems.append(
                f"route speedup (neutral) fell {base_route:.2f}x -> "
                f"{neutral:.2f}x vs committed baseline")
    return problems


def measure_forward() -> dict:
    """Forward-scaling benchmark: per-candidate time vs batch size.

    Times the taped blocked union forward (``Gnn3d.forward_batch``) on
    OTA1 across :data:`FORWARD_BATCHES` in both execution dtypes, and
    records the parity numbers the serving contract promises: float64
    blocked output vs the single-candidate forward (< 1e-10; only the
    metric head differs, one multi-row against one-row products) and
    float32 vs float64 (relative, gated at ``FLOAT32_PARITY_RTOL``).  Also
    times the one-candidate ``PotentialFunction.value_and_grad`` (forward
    and ``dV/dC`` backward) on OTA1, as ``relax_eval_ms``, and records its
    tape nodes
    and scatter (CSR) products, two deterministic counts.
    """
    circuit = build_benchmark("OTA1")
    placement = place_benchmark(circuit, variant="A", seed=0, iterations=150)
    graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
    ap_dim = graph.ap_features.shape[1]
    mod_dim = graph.module_features.shape[1]
    model64 = Gnn3d(ap_dim, mod_dim)
    model32 = Gnn3d(ap_dim, mod_dim).to_dtype(np.float32)

    rng = np.random.default_rng(0)
    batch_max = max(FORWARD_BATCHES)
    pool = rng.uniform(0.5, 2.0, size=(batch_max, graph.num_aps, 3))

    per_candidate: dict[str, dict[str, float]] = {
        "float64": {}, "float32": {}}
    for dtype_name, model in (("float64", model64), ("float32", model32)):
        for batch in FORWARD_BATCHES:
            guidance = Tensor(pool[:batch].astype(dtype_name))
            model.forward_batch(graph, guidance)  # warm the plan cache
            best = float("inf")
            for _ in range(FORWARD_REPEATS):
                start = time.perf_counter()
                model.forward_batch(graph, guidance)
                best = min(best, time.perf_counter() - start)
            per_candidate[dtype_name][str(batch)] = round(
                best / batch * 1e3, 4)

    # Parity at the largest batch: blocked vs single-candidate forward.
    blocked = model64.forward_batch(graph, Tensor(pool)).numpy()
    unbatched = np.stack([model64(graph, Tensor(g)).numpy() for g in pool])
    f64_abs = float(np.abs(blocked - unbatched).max())
    out32 = model32.forward_batch(
        graph, Tensor(pool.astype(np.float32))).numpy()
    f32_rel = float((np.abs(out32 - blocked)
                     / np.maximum(1.0, np.abs(blocked))).max())

    potential = PotentialFunction(model64, graph)
    point = pool[0].reshape(-1)
    potential.value_and_grad(point)  # warm the plan cache
    relax_best = float("inf")
    for _ in range(RELAX_EVAL_REPEATS):
        start = time.perf_counter()
        potential.value_and_grad(point)
        relax_best = min(relax_best, time.perf_counter() - start)
    (tape_nodes,), scatter_products = evaluation_shape(potential, point)

    b1 = per_candidate["float64"][str(FORWARD_BATCHES[0])]
    b_max = per_candidate["float64"][str(batch_max)]
    return {
        "circuit": "OTA1",
        "batch_sweep": list(FORWARD_BATCHES),
        "per_candidate_ms": per_candidate,
        "relax_eval_ms": round(relax_best * 1e3, 4),
        "relax_tape_nodes": tape_nodes,
        "relax_scatter_products": scatter_products,
        "amortized_ratio": round(b_max / b1, 3),
        "float64_blocked_vs_unbatched_max_abs": f64_abs,
        "float32_vs_float64_max_rel": f32_rel,
        "float32_parity_rtol": FLOAT32_PARITY_RTOL,
        "repeats": FORWARD_REPEATS,
    }


def check_forward(forward: dict, baseline: dict | None,
                  max_ratio: float = 3.0) -> list[str]:
    """Forward-section gates: parity contracts, amortization, and the
    baseline ratio on every timed point (``relax_eval_ms`` included)."""
    problems: list[str] = []
    if forward["float64_blocked_vs_unbatched_max_abs"] >= 1e-10:
        problems.append(
            f"float64 blocked forward differs from the single-candidate "
            f"forward by {forward['float64_blocked_vs_unbatched_max_abs']:g} "
            f"(contract: < 1e-10)")
    if forward["float32_vs_float64_max_rel"] >= FLOAT32_PARITY_RTOL:
        problems.append(
            f"float32 forward off by "
            f"{forward['float32_vs_float64_max_rel']:g} relative "
            f"(contract: < {FLOAT32_PARITY_RTOL:g})")
    if forward["amortized_ratio"] > FORWARD_MAX_AMORTIZED_RATIO:
        sweep = forward["batch_sweep"]
        problems.append(
            f"batching stopped amortizing: per-candidate time at "
            f"B={sweep[-1]} is {forward['amortized_ratio']}x B=1 "
            f"(gate: <= {FORWARD_MAX_AMORTIZED_RATIO})")
    if baseline is None or "forward" not in baseline:
        return problems
    base_relax = baseline["forward"].get("relax_eval_ms")
    if (base_relax is not None
            and forward["relax_eval_ms"] > float(base_relax) * max_ratio):
        problems.append(
            f"relaxation eval regressed "
            f"{forward['relax_eval_ms'] / float(base_relax):.1f}x "
            f"({base_relax} -> {forward['relax_eval_ms']} ms, "
            f"limit {max_ratio:.1f}x)")
    base = baseline["forward"].get("per_candidate_ms", {})
    for dtype_name, points in base.items():
        for key, base_ms in points.items():
            cur_ms = forward["per_candidate_ms"].get(
                dtype_name, {}).get(key)
            if cur_ms is not None and cur_ms > float(base_ms) * max_ratio:
                problems.append(
                    f"forward {dtype_name} B={key} regressed "
                    f"{cur_ms / float(base_ms):.1f}x ({base_ms} -> "
                    f"{cur_ms} ms/candidate, limit {max_ratio:.1f}x)")
    return problems


def _probe_calls(call, calls: int) -> tuple[float, float]:
    """(minor faults per call, best seconds per call) of ``calls`` runs
    of ``call`` after three warm-up runs."""
    for _ in range(3):
        call()
    best = float("inf")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / calls, best


def measure_faults() -> dict:
    """Minor page faults per 3DGNN call after warm-up (``faults``).

    Per probe circuit: a tape-free ``FAULT_BATCH``-candidate
    ``forward_batch`` (gated), the taped one-candidate
    ``PotentialFunction.value_and_grad`` (recorded only: a taped forward
    allocates every array its backward reads), and the tape-free
    per-candidate time at B=1 and B=``FAULT_BATCH``.  Fault counts
    depend on the heap's history, so :func:`main` runs this in a fresh
    process of its own.
    """
    record: dict = {"batch": FAULT_BATCH, "calls": FAULT_CALLS,
                    "tape_free": {}, "value_and_grad": {},
                    "tape_free_ms_per_candidate": {}}
    for name in FAULT_CIRCUITS:
        placement = place_benchmark(build_benchmark(name), variant="A",
                                    seed=0, iterations=150)
        graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
        model = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1])
        pool = np.random.default_rng(0).uniform(
            0.5, 2.0, size=(FAULT_BATCH, graph.num_aps, 3))
        per_candidate = {}
        with no_grad():
            for batch in (1, FAULT_BATCH):
                guidance = Tensor(pool[:batch])
                faults, best = _probe_calls(
                    lambda: model.forward_batch(graph, guidance),
                    FAULT_CALLS)
                per_candidate[str(batch)] = round(best / batch * 1e3, 4)
        record["tape_free"][name] = round(faults, 1)
        record["tape_free_ms_per_candidate"][name] = per_candidate
        potential = PotentialFunction(model, graph)
        point = pool[0].reshape(-1)
        faults, _best = _probe_calls(
            lambda: potential.value_and_grad(point), FAULT_CALLS)
        record["value_and_grad"][name] = round(faults, 1)
    return record


def measure_faults_in_fresh_process() -> dict:
    """:func:`measure_faults` in a newly spawned interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(measure_faults).result()


def check_faults(faults: dict) -> list[str]:
    """Fault gate: every tape-free probe call stays under
    :data:`TAPE_FREE_MAX_FAULTS_PER_CALL`."""
    return [
        f"tape-free B={faults['batch']} forward on {name} took {count:g} "
        f"minor page faults per call (gate: <= "
        f"{TAPE_FREE_MAX_FAULTS_PER_CALL})"
        for name, count in faults["tape_free"].items()
        if count > TAPE_FREE_MAX_FAULTS_PER_CALL]


#: Timed repetitions of the corpus ingest sweep, best-of.
INGEST_REPEATS = 5

#: Gate: end-to-end ingest (parse -> flatten -> symmetry -> autobench)
#: of the whole vendored corpus must stay under this budget.  The
#: importer is pure python over a few dozen cards; a second means a
#: quadratic blowup crept into flattening or symmetry search.
INGEST_MAX_SECONDS = 1.0


def measure_ingest() -> dict:
    """Importer throughput over the vendored corpus (``ingest`` section)."""
    from repro.io.ingest import ingest_file
    from repro.reliability.errors import SpiceParseError

    corpus_dir = REPO_ROOT / "tests" / "corpus"
    files = sorted(corpus_dir.glob("*.sp"))
    cards = sum(
        1 for path in files for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith(("*", "+")))

    best = float("inf")
    results = {}
    for _ in range(INGEST_REPEATS):
        start = time.perf_counter()
        results = {path.stem: ingest_file(path) for path in files}
        best = min(best, time.perf_counter() - start)

    # The taxonomy fixture must keep failing typed — a raw ValueError
    # escaping here is exactly the regression the CI smoke job guards.
    bad_typed = False
    try:
        ingest_file(corpus_dir / "bad" / "unsupported.sp")
    except SpiceParseError:
        bad_typed = True

    return {
        "files": len(files),
        "cards": cards,
        "seconds": round(best, 4),
        "cards_per_second": round(cards / best, 1),
        "symmetry_pairs": {
            name: len(res.bench.symmetry.net_pairs)
            for name, res in sorted(results.items())
        },
        "bad_fixture_typed": bad_typed,
    }


def check_ingest(ingest: dict, baseline: dict | None,
                 max_ratio: float = 3.0) -> list[str]:
    """Ingest-section gates: absolute budget plus baseline ratio."""
    problems: list[str] = []
    if ingest["seconds"] > INGEST_MAX_SECONDS:
        problems.append(
            f"corpus ingest took {ingest['seconds']}s "
            f"(budget {INGEST_MAX_SECONDS}s)")
    if not ingest["bad_fixture_typed"]:
        problems.append(
            "tests/corpus/bad/unsupported.sp no longer fails with "
            "SpiceParseError — taxonomy escape in the importer")
    for name, pairs in ingest["symmetry_pairs"].items():
        if pairs == 0:
            problems.append(f"no symmetry inferred for corpus file {name}")
    if baseline is not None and "ingest" in baseline:
        base_s = float(baseline["ingest"].get("seconds", 0.0))
        if base_s > 0 and ingest["seconds"] > base_s * max_ratio:
            problems.append(
                f"ingest regressed {ingest['seconds'] / base_s:.1f}x "
                f"({base_s} -> {ingest['seconds']}s, limit "
                f"{max_ratio:.1f}x)")
    return problems


def measure(scale_name: str, workers: int = 1) -> dict:
    """Run the instrumented pipeline and return the perf payload."""
    scale = SCALES[scale_name]
    circuit = build_benchmark("OTA1")
    tech = generic_40nm()
    placement = place_benchmark(circuit, variant="A", seed=0,
                                iterations=scale.placement_iterations)

    config = scale.analogfold_config(seed=0)
    config.workers = workers
    obs = RunContext.recording()
    fold = AnalogFold(circuit, placement, tech, config=config, obs=obs)
    result = fold.run()
    payload = bench_payload(obs.manifest()["spans"])

    # One relaxation run on the just-trained model (a separate potential
    # and an untraced relaxer, so the spans above stay untouched), at the
    # paper-default 12-restart / pool-6 shape regardless of scale.  A
    # forward carries a whole wave of candidates, so the record keeps
    # forwards, candidate evaluations and seconds: the forward count
    # alone is not a speedup.  The seconds are a single timing.
    relax_kwargs = dict(
        n_restarts=12,
        pool_size=6,
        n_derive=3,
        maxiter=15,
        seed=0,
        seed_points=0,
    )
    pot = PotentialFunction(fold.model, fold.database.graph,
                            c_max=config.dataset.c_max)
    relaxer = PotentialRelaxer(RelaxationConfig(**relax_kwargs))
    start = time.perf_counter()
    relaxer.run(pot)
    relax_seconds = time.perf_counter() - start

    payload.update({
        "scale": scale_name,
        "workers": workers,
        "circuit": "OTA1",
        "figure5_stage_seconds": {
            k: round(v, 4) for k, v in result.stage_seconds.items()
        },
        "relax_forwards": relaxer.trace.gnn_forwards,
        "relax_candidates": pot.stats.candidates,
        "relax_seconds": round(relax_seconds, 4),
        "total_seconds": round(
            sum(s["seconds"] for s in payload["stages"].values()), 4),
    })
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale",
                        default=os.environ.get("REPRO_SCALE", "smoke"),
                        choices=sorted(SCALES))
    parser.add_argument("--workers", type=int, default=1,
                        help="database-construction worker processes")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write the perf record")
    parser.add_argument("--baseline", default=str(DEFAULT_OUT),
                        help="committed baseline to compare against")
    parser.add_argument("--check", action="store_true",
                        help="fail when a stage regressed > 3x vs baseline "
                             "or a route gate fails")
    args = parser.parse_args(argv)

    payload = measure(args.scale, workers=args.workers)
    payload["route"] = measure_route()
    payload["forward"] = measure_forward()
    payload["faults"] = measure_faults_in_fresh_process()
    payload["ingest"] = measure_ingest()

    # The serve-throughput (benchmarks/bench_serve.py) and chaos
    # (benchmarks/bench_chaos.py) records share this file; carry their
    # sections over instead of dropping them on rewrite.
    existing = load_bench_json(args.out)
    if existing is not None:
        for section in ("serve", "chaos"):
            if section in existing:
                payload[section] = existing[section]

    problems: list[str] = []
    if args.check:
        baseline = load_bench_json(args.baseline)
        if baseline is None:
            print(f"no baseline at {args.baseline}; skipping regression "
                  f"check")
        elif baseline.get("scale") != payload.get("scale"):
            print(f"baseline scale {baseline.get('scale')!r} != current "
                  f"{payload.get('scale')!r}; skipping regression check")
        else:
            problems = compare_to_baseline(payload, baseline)
        problems += check_route(payload["route"], baseline)
        problems += check_forward(payload["forward"], baseline)
        problems += check_faults(payload["faults"])
        problems += check_ingest(payload["ingest"], baseline)

    out = write_bench_json(args.out, payload)
    print(f"wrote {out}")
    for name, stats in payload["stages"].items():
        print(f"  {name}: {stats['seconds']:.3f}s over {stats['calls']} calls")
    print(f"  relaxation: {payload['relax_forwards']} forwards = "
          f"{payload['relax_candidates']} candidates in "
          f"{payload['relax_seconds']:.2f}s")
    route = payload["route"]
    reach = route["reachability"]
    print(f"  route: {route['speedup']['neutral']}x neutral / "
          f"{route['speedup']['guided']}x guided vs in-run reference "
          f"(flooding oracle), paths_identical={route['paths_identical']}; "
          f"reachability {reach['speedup']['neutral']}x neutral / "
          f"{reach['speedup']['guided']}x guided vs the oracle, "
          f"matches_oracle={reach['matches_oracle']}")
    fwd = payload["forward"]
    print(f"  forward: B={fwd['batch_sweep'][-1]} amortizes to "
          f"{fwd['amortized_ratio']}x the B=1 per-candidate time "
          f"(f64 parity {fwd['float64_blocked_vs_unbatched_max_abs']:.1e}, "
          f"f32 rel {fwd['float32_vs_float64_max_rel']:.1e}); "
          f"relaxation eval {fwd['relax_eval_ms']} ms, "
          f"{fwd['relax_tape_nodes']} tape nodes, "
          f"{fwd['relax_scatter_products']} scatter products")
    faults = payload["faults"]
    for name, count in faults["tape_free"].items():
        ms = faults["tape_free_ms_per_candidate"][name]
        print(f"  faults on {name}: {count:g} per tape-free "
              f"B={faults['batch']} forward (gate <= "
              f"{TAPE_FREE_MAX_FAULTS_PER_CALL}), "
              f"{faults['value_and_grad'][name]:g} per value_and_grad; "
              f"tape-free {ms['1']} ms/candidate at B=1, "
              f"{ms[str(faults['batch'])]} at B={faults['batch']}")
    ing = payload["ingest"]
    print(f"  ingest: {ing['files']} corpus files / {ing['cards']} cards "
          f"in {ing['seconds']}s ({ing['cards_per_second']} cards/s)")

    if problems:
        print("PERF REGRESSION:")
        for p in problems:
            print(f"  {p}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
