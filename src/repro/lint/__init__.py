"""repro.lint: the AST-based invariant linter for this repository.

The reproduction's hard guarantees — bit-identical parallel dataset
generation, the typed :class:`~repro.reliability.errors.ReproError`
taxonomy, traces and counters identical across ``--workers`` counts —
all rest on code conventions: randomness flows through seeded
``np.random.Generator`` objects, timing through ``perf_counter``-based
helpers, pipeline failures through the taxonomy, metric and span names
through the schemes locked by the golden fixtures.  This package makes
those conventions *executable*: a pure-stdlib static analyzer that
parses every file once, runs all registered rules over the shared AST,
and fails CI on any non-baselined finding.

Usage::

    PYTHONPATH=src python -m repro.lint                 # lint src/repro
    PYTHONPATH=src python -m repro.lint --list-rules    # rule catalog
    PYTHONPATH=src python -m repro.lint --format=github # PR annotations

Suppress a single finding inline with a one-line constraint comment::

    stamp = time.time()  # repro-lint: disable=CLK001 -- manifest wall-clock

See ``docs/STATIC_ANALYSIS.md`` for every rule id, the invariant it
protects, and the baseline workflow.
"""

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_source, run_lint
from repro.lint.findings import Finding
from repro.lint.rules import all_rules, rule_catalog

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "all_rules",
    "lint_source",
    "load_baseline",
    "load_config",
    "rule_catalog",
    "run_lint",
    "write_baseline",
]
