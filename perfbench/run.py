"""Repository benchmark: the fold and serve workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fold-ota1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload with the ``repro`` layers wrapped in spans
(``perfbench/tracer.py``) and reports the per-layer metrics, the tracing
overhead and a self-time table.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness, coverage or exact-repeat check is
printed on standard error and reported as ``"correct": false`` with no
metrics, and the exit code is 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything the benchmark writes, inside the checkout (ignored by git).
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("fold-ota1", "serve-ota1")

#: Thread pools capped at the CPUs this process may run on, set before
#: numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per untraced run; ``setup_s`` is their median (see untraced_run).
SETUP_REPEATS = 15
#: Fewest (untraced, traced) pairs of job 0 in a traced run; the
#: exact-repeat check compares the traced jobs of the pairs.
MIN_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "items_per_s": "1/s",
    "neg_fom": "fom",
    "ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_batch", "_per_restart")):
        return "ratio"
    return "count"


def cap_threads() -> dict[str, str]:
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cap
    return {var: cap for var in THREAD_VARS}


def import_program() -> None:
    """Import ``repro`` from the checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro was imported from "
                         f"{repro.__file__}, not from {src}")


class RepeatStore:
    """Exact outputs of earlier runs of one workload and seed in a checkout.

    The first value seen under a key is kept; a later run that produces
    another value is nondeterministic.  The file name carries a digest of
    the benchmark's and the program's sources, so only runs of the same
    code are compared: a change that moves a score by one ulp starts
    afresh instead of reading as nondeterminism.
    """

    def __init__(self, workload: str, seed: int) -> None:
        sources = hashlib.sha256()
        for path in [*sorted(HERE.glob("*.py")),
                     *sorted((ROOT / "src" / "repro").rglob("*.py"))]:
            sources.update(str(path.relative_to(ROOT)).encode())
            sources.update(path.read_bytes())
        self.path = (OUT / "repeat"
                     / f"{workload}-seed{seed}-{sources.hexdigest()[:12]}.json")
        self.values = (json.loads(self.path.read_text())
                       if self.path.exists() else {})

    def check(self, key: str, value) -> list[str]:
        seen = self.values.setdefault(key, value)
        if seen != value:
            return [f"nondeterminism: {key} differs from an earlier run of "
                    f"this seed: {seen!r}, now {value!r}"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        staging = self.path.with_suffix(".tmp")
        staging.write_text(json.dumps(self.values, sort_keys=True))
        os.replace(staging, self.path)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def untraced_run(workload, seconds: float, store: RepeatStore,
                 report_path: Path):
    """Set up SETUP_REPEATS times, warm up, then run jobs 0, 1, ... for
    ``seconds``.

    Each set-up and each job runs in its own host-speed window and its
    times are taken at nominal host speed (``hostspeed.py``): the shared
    host this was tuned on runs everything up to 1.5x slower for seconds
    to minutes at a time.  ``setup_s`` is the median set-up; the request
    latency percentiles pool every request of the run; ``items_per_s`` is
    all items over all busy time.  The raw and normalised samples are
    written to ``report_path``.
    """
    from hostspeed import HostSpeed

    setups, setup_speeds = [], []
    for _ in range(SETUP_REPEATS):
        with HostSpeed() as window:
            start = window.clock()
            workload.setup()
            setups.append(window.clock() - start)
        setup_speeds.append(window.speed())
    workload.warm_up()
    jobs, speeds, problems = [], [], []
    started = time.perf_counter()
    while not problems:
        with HostSpeed() as window:
            job = workload.job(len(jobs), window.clock)
        speeds.append(window.speed())
        problems += workload.verify(job)
        problems += store.check(f"digest:{len(jobs)}", job.digest)
        jobs.append(job)
        typical = statistics.median(j.busy_s for j in jobs)
        if time.perf_counter() - started + typical > seconds:
            break
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    latencies = [latency * speed for job, speed in zip(jobs, speeds)
                 for latency in job.latencies]
    metrics = {
        "setup_s": statistics.median(
            setup * speed for setup, speed in zip(setups, setup_speeds)),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * p90(latencies),
        "items_per_s": sum(job.items for job in jobs)
        / sum(job.busy_s * speed for job, speed in zip(jobs, speeds)),
        "neg_fom": statistics.median(-fom for job in jobs
                                     for fom in job.best_foms),
        "ok_frac": 1.0 - failed / attempted,
    }
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps({
        "workload": workload.name,
        "setup_s": setups,
        "setup_speeds": setup_speeds,
        "jobs": [{"busy_s": job.busy_s, "speed": speed, "items": job.items,
                  "latencies_s": job.latencies}
                 for job, speed in zip(jobs, speeds)],
        "metrics": metrics,
    }) + "\n")
    return metrics, attempted, failed, problems


def traced_run(workload, seconds: float, store: RepeatStore, env: dict,
               report_path: Path):
    """Trace one set-up and repeats of job 0, each beside an untraced twin.

    Order: untraced set-up, warm-up, traced set-up, then (untraced job 0,
    traced job 0) pairs until ``seconds`` are spent, at least MIN_PAIRS.
    The per-layer values are the traced set-up plus the mean traced job.
    """
    import tracer as tracing

    start = time.perf_counter()
    workload.setup()
    untraced_setup = time.perf_counter() - start
    workload.warm_up()
    trace = tracing.Tracer()
    tracing.install(trace)
    try:
        phase = trace.begin_phase("bench.setup")
        workload.setup()
        trace.end_phase(phase)
    finally:
        trace.uninstall()

    untraced, traced, jobs, problems = [], [], [], []
    started = time.perf_counter()
    pair_s = 0.0
    while not problems and (len(traced) < MIN_PAIRS or time.perf_counter()
                            - started + pair_s <= seconds):
        pair_start = time.perf_counter()
        start = time.perf_counter()
        job = workload.job(0)
        untraced.append(time.perf_counter() - start)
        problems += workload.verify(job) + store.check("digest:0", job.digest)
        tracing.install(trace)
        try:
            phase = trace.begin_phase("bench.job")
            start = time.perf_counter()
            job = workload.job(0)
            traced.append(time.perf_counter() - start)
            trace.end_phase(phase, job.counts)
        finally:
            trace.uninstall()
        problems += workload.verify(job) + store.check("digest:0", job.digest)
        jobs.append(job)
        pair_s = time.perf_counter() - pair_start

    analysis = tracing.analyse(trace)
    setup, job_phases = analysis.phases[0], analysis.phases[1:]
    setup_values = tracing.layer_values(setup)
    job_values = [tracing.layer_values(phase) for phase in job_phases]
    exact = [name for name in job_values[0] if not name.endswith("_s")]
    for repeat in job_values[1:]:
        for name in exact:
            if repeat[name] != job_values[0][name]:
                problems.append(
                    f"nondeterminism: {name} was {job_values[0][name]} in "
                    f"the first traced job 0 and {repeat[name]} in a repeat")
    problems += store.check("counts:0",
                            {name: job_values[0][name] for name in exact})

    calls = Counter()
    for phase in analysis.phases:
        calls.update(phase.calls)
    for span in workload.expect:
        if not calls[span]:
            problems.append(f"coverage: layer {span} never fired on "
                            f"{workload.name}")
    for span in workload.bypass:
        if calls[span]:
            problems.append(f"coverage: layer {span} fired {calls[span]} "
                            f"times on {workload.name}, which bypasses it")

    values = {name: setup_values[name]
              + statistics.fmean(v[name] for v in job_values)
              for name in setup_values}
    # Best job of each kind, as in the untraced run.
    traced_total = setup.duration + min(traced)
    untraced_total = untraced_setup + min(untraced)
    metrics = {
        **tracing.with_ratios(values),
        "trace.total_s": setup.duration + statistics.fmean(
            phase.duration for phase in job_phases),
        "trace.residual_s": setup.self_s["bench.setup"] + statistics.fmean(
            phase.self_s["bench.job"] for phase in job_phases),
        "trace.overhead_s": traced_total - untraced_total,
        "trace.overhead_frac": (traced_total - untraced_total)
        / untraced_total,
    }

    table = tracing.format_paths(analysis)
    summary = (f"tracing overhead {metrics['trace.overhead_s']:+.4f} s "
               f"({100 * metrics['trace.overhead_frac']:+.2f}%): traced "
               f"{traced_total:.4f} s vs untraced {untraced_total:.4f} s "
               f"(set-up + best job 0 of {len(traced)} pairs); "
               + ", ".join(f"{key}={value}" for key, value in env.items()))
    print("\n".join(table))
    print(summary)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps({
        "workload": workload.name,
        "env": env,
        "untraced_s": {"setup": untraced_setup, "jobs": untraced},
        "traced_s": {"setup": setup.duration, "jobs": traced},
        "metrics": metrics,
        "self_time_table": [
            {"span": " > ".join(span_path), "calls": calls_, "inclusive_s":
             inclusive, "self_s": own}
            for span_path, (calls_, inclusive, own) in analysis.paths.items()
        ],
    }, indent=1) + "\n")
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark "
                                     "workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caps = cap_threads()
    import_program()
    # Both import repro, which import_program has just made importable.
    import numpy
    from workloads import WORKLOADS

    env = {"nproc": len(os.sched_getaffinity(0)), **caps,
           "python": platform.python_version(), "numpy": numpy.__version__}
    store = RepeatStore(args.workload, args.seed)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            report = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, problems = traced_run(
                workload, args.seconds, store, env, report)
        else:
            report = OUT / f"run-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, problems = untraced_run(
                workload, args.seconds, store, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    store.save()

    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name)
             for name in metrics}
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
