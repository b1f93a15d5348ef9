"""The machine-readable performance record, ``BENCH_perf.json``.

``benchmarks/bench_perf.py`` runs the pipeline under a recording
:class:`~repro.obs.RunContext` and serializes the run manifest's span
aggregates for the hot paths (route / extract / simulate / train /
relax) as ``BENCH_perf.json`` at the repo root, so the performance
trajectory is tracked across PRs.  The spans are the only record of
hot-path time: the trace, the manifest, ``fold --metrics-summary`` and
this record all come from the same clock reads (see
``docs/OBSERVABILITY.md``).

Usage::

    obs = RunContext.recording()
    AnalogFold(circuit, placement, tech, obs=obs).run()
    bench_payload(obs.manifest()["spans"])
    # {"stages": {"route": {"seconds": ..., "calls": ...}, ...}, ...}
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any

#: Canonical stage names of the pipeline's hot paths, in flow order.
PIPELINE_STAGES = ("route", "extract", "simulate", "train", "relax")

#: Schema version of BENCH_perf.json; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 1


def bench_payload(spans: dict[str, dict[str, Any]],
                  extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble the BENCH_perf.json payload from a manifest's ``spans``.

    Only the :data:`PIPELINE_STAGES` rows are kept, as
    ``{stage: {"seconds": s, "calls": count}}``; finer spans such as
    ``route.net`` stay in the manifest.
    """
    payload: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "stages": {
            name: {"seconds": spans[name]["seconds"],
                   "calls": spans[name]["count"]}
            for name in PIPELINE_STAGES if name in spans
        },
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench_json(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a perf payload as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench_json(path: str | Path) -> dict[str, Any] | None:
    """Load a committed perf baseline; ``None`` when absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare_to_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_ratio: float = 3.0,
    min_seconds: float = 0.05,
) -> list[str]:
    """Regression check: stages slower than ``max_ratio`` x baseline.

    Stages faster than ``min_seconds`` in the baseline are skipped — at
    that scale the measurement is dominated by noise, and CI runners are
    slow and jittery (hence the generous default ratio).

    Returns a list of human-readable regression descriptions (empty =
    pass).
    """
    problems: list[str] = []
    base_stages = baseline.get("stages", {})
    cur_stages = current.get("stages", {})
    for name, base in base_stages.items():
        base_s = float(base.get("seconds", 0.0))
        if base_s < min_seconds:
            continue
        cur = cur_stages.get(name)
        if cur is None:
            problems.append(f"stage {name!r} missing from current run")
            continue
        cur_s = float(cur.get("seconds", 0.0))
        if cur_s > max_ratio * base_s:
            problems.append(
                f"stage {name!r} regressed {cur_s / base_s:.1f}x "
                f"({base_s:.3f}s -> {cur_s:.3f}s, limit {max_ratio:.1f}x)"
            )
    return problems
