"""Command-line interface for the AnalogFold reproduction.

Usage::

    python -m repro.cli table1
    python -m repro.cli place OTA1 --variant B --out ota1b.json
    python -m repro.cli route OTA1 --variant A --guidance guide.json
    python -m repro.cli fold OTA2 --samples 40 --epochs 20
    python -m repro.cli compare OTA1 --variant A --scale fast
    python -m repro.cli export-spice OTA3 --out ota3.sp
    python -m repro.cli serve-save OTA1 --registry reg --name ota1
    python -m repro.cli serve-score OTA1 --registry reg --model ota1 \
        --random 8 --out scores.jsonl
    python -m repro.cli serve-cluster OTA1 --registry reg --model ota1 \
        --workers 2 --random 32 --deadline 10 --out scores.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    IterativeRouter,
    RoutingGrid,
    build_benchmark,
    extract,
    generate_dataset,
    generic_40nm,
    place_benchmark,
    simulate_performance,
)
from repro.graph import build_hetero_graph
from repro.serve import (
    PRECISIONS,
    ClusterConfig,
    ModelRegistry,
    ScoreRequest,
    ScoringService,
    ServeCluster,
    ServeConfig,
)
from repro.core import RelaxationConfig
from repro.core.dataset import route_and_measure
from repro.eval import CROSSTOPO_SCALES, SCALES, evaluate_cell, format_table1, format_table2
from repro.obs import NULL_CONTEXT, RunContext, make_run_id, render_report
from repro.reliability import DegradationPolicy, ReproError
from repro.eval.runtime import runtime_breakdown_table
from repro.io import (
    load_guidance,
    load_placement,
    routing_to_def_text,
    save_guidance,
    save_placement,
)
from repro.io.spice import write_spice
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer
from repro.router.guidance import uniform_guidance
from repro.simulation.metrics import METRIC_NAMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("circuit", help="benchmark name (OTA1..OTA4)")
    parser.add_argument("--variant", default="A", choices="ABCD",
                        help="net-weight placement variant")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(format_table1())
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    circuit = build_benchmark(args.circuit)
    placement = place_benchmark(circuit, variant=args.variant, seed=args.seed,
                                iterations=args.iterations)
    width, height = placement.die_size()
    print(f"placed {len(placement.positions)} devices: "
          f"{width:.2f} x {height:.2f} um, hpwl {placement.total_hpwl():.1f}")
    if args.out:
        save_placement(placement, args.out)
        print(f"wrote {args.out}")
    return 0


def _load_or_place(args: argparse.Namespace):
    circuit = build_benchmark(args.circuit)
    if getattr(args, "placement", None):
        placement = load_placement(circuit, args.placement)
    else:
        placement = place_benchmark(circuit, variant=args.variant,
                                    seed=args.seed, iterations=400)
    return circuit, placement


def _cmd_route(args: argparse.Namespace) -> int:
    circuit, placement = _load_or_place(args)
    tech = generic_40nm()
    grid = RoutingGrid(placement, tech)
    guidance = load_guidance(args.guidance) if args.guidance else None
    start = time.perf_counter()
    result = IterativeRouter(grid, guidance=guidance).route_all()
    elapsed = time.perf_counter() - start
    print(f"routed in {elapsed:.2f}s: success={result.success}, "
          f"wl={result.total_wirelength()}, vias={result.total_vias()}")
    metrics = simulate_performance(circuit, extract(result, grid, tech))
    print(f"post-layout: {metrics}")
    if args.def_out:
        from pathlib import Path
        Path(args.def_out).write_text(routing_to_def_text(result, grid))
        print(f"wrote {args.def_out}")
    return 0 if result.success else 1


def _build_obs(args: argparse.Namespace) -> RunContext:
    """Observability context from --trace/--trace-dir/--metrics-summary.

    ``--trace PATH`` streams spans to PATH; ``--trace-dir DIR`` names the
    trace after the run id inside DIR (handy next to checkpoints); either
    writes the run manifest beside the trace on completion.  A bare
    ``--metrics-summary`` keeps everything in memory.  Without any of the
    three, the returned context is the shared no-op.
    """
    from pathlib import Path

    if args.trace:
        return RunContext.to_file(args.trace)
    if args.trace_dir:
        run_id = make_run_id()
        return RunContext.to_file(
            Path(args.trace_dir) / f"{run_id}.trace.jsonl", run_id=run_id)
    if args.metrics_summary:
        return RunContext()
    return NULL_CONTEXT


def _cmd_fold(args: argparse.Namespace) -> int:
    circuit, placement = _load_or_place(args)
    obs = _build_obs(args)
    fold = AnalogFold(
        circuit, placement, generic_40nm(),
        config=AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=args.samples, seed=args.seed),
            gnn=Gnn3dConfig(seed=args.seed),
            training=TrainConfig(epochs=args.epochs, seed=args.seed),
            relaxation=RelaxationConfig(n_restarts=args.restarts,
                                        seed=args.seed),
            policy=DegradationPolicy(
                max_retries=args.max_retries,
                min_valid_fraction=args.min_valid_fraction,
            ),
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            workers=args.workers,
        ),
        obs=obs,
    )
    try:
        result = fold.run()
    finally:
        obs.close()
    report = fold.database.report if fold.database else None
    if report is not None:
        print(f"database: {report.summary()}")
    print(f"AnalogFold metrics: {result.metrics}")
    print(f"winner: candidate {result.winner_index} "
          f"({result.winner_source}), candidate FoMs "
          f"{['%.3f' % f for f in result.candidate_foms]}")
    print(runtime_breakdown_table(result))
    if obs.enabled and args.metrics_summary:
        print()
        print(render_report(obs.aggregates, obs.metrics.counter_values()))
    if obs.trace_path is not None:
        print(f"wrote trace {obs.trace_path}")
        print(f"wrote manifest {obs.manifest_path}")
    if args.guidance_out:
        save_guidance(result.guidance, args.guidance_out)
        print(f"wrote {args.guidance_out}")
    return 0


def _cmd_serve_save(args: argparse.Namespace) -> int:
    circuit, placement = _load_or_place(args)
    tech = generic_40nm()
    name = args.name or args.circuit.lower()
    registry = ModelRegistry(args.registry)
    if args.samples:
        database = generate_dataset(
            circuit, placement, tech,
            DatasetConfig(num_samples=args.samples, seed=args.seed))
        graph = database.graph
        model = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1],
                      Gnn3dConfig(seed=args.seed))
        Trainer(model, graph,
                TrainConfig(epochs=args.epochs, seed=args.seed)
                ).fit(database.train_samples())
    else:
        graph = build_hetero_graph(RoutingGrid(placement, tech))
        model = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1],
                      Gnn3dConfig(seed=args.seed))
    manifest = registry.save(name, model, graph, precision=args.precision)
    print(f"saved {manifest.name}@{manifest.version} to {args.registry} "
          f"(fingerprint {manifest.graph_fingerprint[-1][:12]}, "
          f"{manifest.precision}, "
          f"{'trained' if args.samples else 'seed-initialized'})")
    return 0


def _serve_requests(args: argparse.Namespace, graph_id: str, num_aps: int,
                    c_max: float):
    """The request stream for serve-score: a JSONL file or random draws."""
    if args.in_path:
        from pathlib import Path

        with Path(args.in_path).open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                yield ScoreRequest(graph_id,
                                   np.asarray(record["guidance"], dtype=float),
                                   request_id=record.get("id"))
    else:
        rng = np.random.default_rng(args.seed)
        margin = min(0.2, c_max / 4.0)
        for index in range(args.random):
            yield ScoreRequest(
                graph_id,
                rng.uniform(margin, c_max - margin, size=(num_aps, 3)),
                request_id=f"rand-{index}")


def _cmd_serve_score(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.reliability import ServeError

    if not args.in_path and not args.random:
        raise ValueError("serve-score needs --in PATH or --random N")
    _circuit, placement = _load_or_place(args)
    graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
    name, _, version = args.model.partition("@")
    service = ScoringService(
        ServeConfig(max_batch=args.max_batch, max_queue=args.max_queue))
    manifest = service.register_checkpoint(
        name, ModelRegistry(args.registry), name, graph,
        version=version or None)
    out = (Path(args.out).open("w", encoding="utf-8") if args.out
           else sys.stdout)
    rejected = 0
    try:
        for request in _serve_requests(args, name, graph.num_aps,
                                       manifest.c_max):
            try:
                service.submit(request)
            except ServeError as exc:
                rejected += 1
                out.write(json.dumps(
                    {"id": request.request_id, "graph_id": name,
                     "status": "rejected", "error": str(exc)},
                    sort_keys=True) + "\n")
                continue
            if service.queue_depth >= args.max_batch:
                for result in service.flush():
                    out.write(json.dumps(result.to_dict(),
                                         sort_keys=True) + "\n")
        for result in service.flush():
            out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    stats = service.stats
    print(f"scored with {manifest.name}@{manifest.version}: "
          f"ok={stats.ok} failed={stats.failed} rejected={rejected} "
          f"batches={stats.batches} (max_batch={args.max_batch})",
          file=sys.stderr if not args.out else sys.stdout)
    if args.out:
        print(f"wrote {args.out}")
    return 0 if stats.failed == 0 and rejected == 0 else 1


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.reliability import ServeError

    if not args.in_path and not args.random:
        raise ValueError("serve-cluster needs --in PATH or --random N")
    _circuit, placement = _load_or_place(args)
    graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
    name, _, version = args.model.partition("@")
    registry = ModelRegistry(args.registry)
    manifest = registry.load_manifest(name, version or None)
    cluster = ServeCluster(
        registry,
        ClusterConfig(workers=args.workers, max_queue=args.max_queue,
                      default_deadline_s=args.deadline,
                      serve=ServeConfig(max_batch=args.max_batch,
                                        max_queue=args.max_queue)))
    cluster.add_endpoint(name, name, graph)
    out = (Path(args.out).open("w", encoding="utf-8") if args.out
           else sys.stdout)
    rejected = 0
    try:
        with cluster:
            for request in _serve_requests(args, name, graph.num_aps,
                                           manifest.c_max):
                try:
                    cluster.submit(name, request.guidance,
                                   request_id=request.request_id)
                except ServeError as exc:
                    rejected += 1
                    out.write(json.dumps(
                        {"id": request.request_id, "graph_id": name,
                         "status": "rejected", "error": str(exc)},
                        sort_keys=True) + "\n")
                    continue
                for result in cluster.take_completed():
                    out.write(json.dumps(result.to_dict(),
                                         sort_keys=True) + "\n")
            for result in cluster.drain():
                out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
            stats = cluster.stats
    finally:
        if args.out:
            out.close()
    print(f"cluster of {args.workers} served {manifest.name}: "
          f"ok={stats.ok} failed={stats.failed} timeout={stats.timeout} "
          f"shed={stats.shed} rejected={rejected} restarts={stats.restarts}",
          file=sys.stderr if not args.out else sys.stdout)
    if args.out:
        print(f"wrote {args.out}")
    degraded = stats.failed + stats.timeout + stats.shed + rejected
    return 0 if degraded == 0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    cell = evaluate_cell(args.circuit, args.variant, scale=args.scale,
                         seed=args.seed)
    print(format_table2([cell]))
    return 0


def _cmd_export_spice(args: argparse.Namespace) -> int:
    circuit = build_benchmark(args.circuit)
    write_spice(circuit, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.io.ingest import ingest_file

    result = ingest_file(args.netlist, top=args.top)
    manifest = result.manifest()
    if args.route:
        placement = place_benchmark(result.circuit, variant=args.variant,
                                    seed=args.seed,
                                    iterations=args.iterations)
        sample = route_and_measure(result.circuit, placement, generic_40nm(),
                                   uniform_guidance(),
                                   testbench_config=result.config)
        manifest["routed"] = {
            "wirelength": sample.result.total_wirelength(),
            "vias": sample.result.total_vias(),
            "metrics": {name: getattr(sample.metrics, name)
                        for name in METRIC_NAMES},
        }
    text = json.dumps(manifest, indent=2)
    if args.manifest_out:
        with open(args.manifest_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if args.spice_out:
        write_spice(result.circuit, args.spice_out)
        print(f"wrote {args.spice_out}", file=sys.stderr)
    return 0


def _cmd_crosstopo(args: argparse.Namespace) -> int:
    from repro.eval.crosstopo import format_crosstopo_table, run_crosstopo

    result = run_crosstopo(
        args.netlists,
        train_designs=tuple(args.train.split(",")),
        scale=args.scale,
        seed=args.seed,
    )
    table = format_crosstopo_table(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AnalogFold reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(
        func=_cmd_table1)

    p_place = sub.add_parser("place", help="place a benchmark")
    _add_common(p_place)
    p_place.add_argument("--iterations", type=int, default=1000)
    p_place.add_argument("--out", help="write placement JSON")
    p_place.set_defaults(func=_cmd_place)

    p_route = sub.add_parser("route", help="route a benchmark")
    _add_common(p_route)
    p_route.add_argument("--placement", help="placement JSON to load")
    p_route.add_argument("--guidance", help="guidance JSON to apply")
    p_route.add_argument("--def-out", help="write DEF-like routing dump")
    p_route.set_defaults(func=_cmd_route)

    p_fold = sub.add_parser("fold", help="run the AnalogFold pipeline")
    _add_common(p_fold)
    p_fold.add_argument("--placement", help="placement JSON to load")
    p_fold.add_argument("--samples", type=int, default=40)
    p_fold.add_argument("--epochs", type=int, default=20)
    p_fold.add_argument("--restarts", type=int, default=10)
    p_fold.add_argument("--guidance-out", help="write derived guidance JSON")
    p_fold.add_argument("--checkpoint", metavar="PATH",
                        help="append completed database samples to this "
                             "JSONL file as they finish")
    p_fold.add_argument("--resume", action="store_true",
                        help="reuse samples already in --checkpoint instead "
                             "of recomputing them")
    p_fold.add_argument("--workers", type=int, default=1,
                        help="worker processes for database construction "
                             "(output is bit-identical to serial)")
    p_fold.add_argument("--max-retries", type=int, default=1,
                        help="retries per failed database sample, each with "
                             "perturbed guidance (default 1)")
    p_fold.add_argument("--min-valid-fraction", type=float, default=0.5,
                        help="fraction of requested samples that must "
                             "survive or the run aborts (default 0.5)")
    p_fold.add_argument("--trace", metavar="PATH",
                        help="stream per-stage spans to this JSONL trace "
                             "file (run manifest written beside it)")
    p_fold.add_argument("--trace-dir", metavar="DIR",
                        help="like --trace, but names the trace after the "
                             "run id inside DIR")
    p_fold.add_argument("--metrics-summary", action="store_true",
                        help="print the per-stage breakdown table and "
                             "counters after the run")
    p_fold.set_defaults(func=_cmd_fold)

    p_ssave = sub.add_parser(
        "serve-save", help="snapshot a scoring model into a model registry")
    _add_common(p_ssave)
    p_ssave.add_argument("--placement", help="placement JSON to load")
    p_ssave.add_argument("--registry", required=True, metavar="DIR",
                         help="model-registry root directory")
    p_ssave.add_argument("--name",
                         help="model name (default: circuit, lowercased)")
    p_ssave.add_argument("--samples", type=int, default=0,
                         help="construct a database of this many samples "
                              "and train before saving (0 = save the "
                              "seed-initialized model)")
    p_ssave.add_argument("--epochs", type=int, default=20,
                         help="training epochs when --samples > 0")
    p_ssave.add_argument("--precision", choices=list(PRECISIONS),
                         default=PRECISIONS[0],
                         help="serving execution dtype stamped into the "
                              "manifest (weights persist float64; "
                              "float32 casts on load)")
    p_ssave.set_defaults(func=_cmd_serve_save)

    p_score = sub.add_parser(
        "serve-score",
        help="batch-score guidance candidates through a registry checkpoint")
    _add_common(p_score)
    p_score.add_argument("--placement", help="placement JSON to load")
    p_score.add_argument("--registry", required=True, metavar="DIR")
    p_score.add_argument("--model", required=True, metavar="NAME[@VERSION]",
                         help="registry model to serve (latest version "
                              "when omitted)")
    p_score.add_argument("--in", dest="in_path", metavar="PATH",
                         help="request JSONL, one "
                              '{"id": ..., "guidance": [[h,w,z] per AP]} '
                              "per line")
    p_score.add_argument("--random", type=int, default=0, metavar="N",
                         help="score N random feasible candidates instead "
                              "of reading --in")
    p_score.add_argument("--out", metavar="PATH",
                         help="write result JSONL here (default: stdout)")
    p_score.add_argument("--max-batch", type=int, default=8,
                         help="candidates coalesced per scoring wave")
    p_score.add_argument("--max-queue", type=int, default=64,
                         help="admission bound on pending requests")
    p_score.set_defaults(func=_cmd_serve_score)

    p_cluster = sub.add_parser(
        "serve-cluster",
        help="score through a supervised multi-worker serving cluster")
    _add_common(p_cluster)
    p_cluster.add_argument("--placement", help="placement JSON to load")
    p_cluster.add_argument("--registry", required=True, metavar="DIR")
    p_cluster.add_argument("--model", required=True,
                           metavar="NAME[@VERSION]",
                           help="registry model to serve (latest version "
                                "when omitted)")
    p_cluster.add_argument("--in", dest="in_path", metavar="PATH",
                           help="request JSONL, one "
                                '{"id": ..., "guidance": [[h,w,z] per AP]} '
                                "per line")
    p_cluster.add_argument("--random", type=int, default=0, metavar="N",
                           help="score N random feasible candidates "
                                "instead of reading --in")
    p_cluster.add_argument("--out", metavar="PATH",
                           help="write result JSONL here (default: stdout)")
    p_cluster.add_argument("--workers", type=int, default=2,
                           help="supervised worker processes")
    p_cluster.add_argument("--deadline", type=float, default=30.0,
                           help="per-request deadline, seconds")
    p_cluster.add_argument("--max-batch", type=int, default=8,
                           help="per-worker micro-batch size")
    p_cluster.add_argument("--max-queue", type=int, default=64,
                           help="global pending-queue bound (sheds "
                                "earliest-deadline-first beyond it)")
    p_cluster.set_defaults(func=_cmd_serve_cluster)

    p_cmp = sub.add_parser("compare", help="Table 2 row for one cell")
    _add_common(p_cmp)
    p_cmp.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    p_cmp.set_defaults(func=_cmd_compare)

    p_sp = sub.add_parser("export-spice", help="write a benchmark netlist")
    p_sp.add_argument("circuit")
    p_sp.add_argument("--out", required=True)
    p_sp.set_defaults(func=_cmd_export_spice)

    p_ing = sub.add_parser(
        "ingest",
        help="ingest a wild-dialect SPICE netlist (subckt hierarchies, "
             ".param, unit suffixes) and print the ingest manifest")
    p_ing.add_argument("netlist", help="path to the .sp file")
    p_ing.add_argument("--top", help="subcircuit to flatten "
                                     "(default: auto-detected root)")
    p_ing.add_argument("--variant", default="A", choices="ABCD")
    p_ing.add_argument("--seed", type=int, default=0)
    p_ing.add_argument("--iterations", type=int, default=300,
                       help="placement iterations when --route is given")
    p_ing.add_argument("--route", action="store_true",
                       help="also place, route, and simulate the ingested "
                            "circuit; adds a 'routed' manifest section")
    p_ing.add_argument("--manifest-out", metavar="PATH",
                       help="write the manifest JSON here too")
    p_ing.add_argument("--spice-out", metavar="PATH",
                       help="re-export in the repo's round-trip dialect")
    p_ing.set_defaults(func=_cmd_ingest)

    p_xt = sub.add_parser(
        "crosstopo",
        help="train on benchmark OTAs, score ingested netlists zero-shot")
    p_xt.add_argument("netlists", nargs="+",
                      help="wild-dialect .sp files to evaluate on")
    p_xt.add_argument("--train", default="OTA1,OTA2",
                      help="comma-separated training benchmarks")
    p_xt.add_argument("--scale", default="smoke",
                      choices=sorted(CROSSTOPO_SCALES))
    p_xt.add_argument("--seed", type=int, default=0)
    p_xt.add_argument("--out", metavar="PATH",
                      help="write the markdown table here too")
    p_xt.set_defaults(func=_cmd_crosstopo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Config validation (__post_init__) errors: bad flag values.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
