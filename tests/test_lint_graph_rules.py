"""Fixture-driven pins for the whole-program (phase 2) lint rules.

Mirrors ``test_lint_rules.py`` for the interprocedural rule set: each
graph rule has a ``tests/lint_fixtures/<id>_bad.py`` seeded with
violations (exact-count pinned) and a compliant ``<id>_good.py`` twin
that must stay quiet under *all* graph rules.  Graph fixtures are fed
through :func:`repro.lint.engine.lint_project_sources` with module
overrides that place them inside the rules' jurisdiction (worker
modules, the serving surface, package ``__init__`` exports).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint.config import load_config
from repro.lint.engine import build_project, lint_project_sources, run_lint
from repro.lint.rules import rule_catalog
from repro.lint.rules.wholeprogram import (
    EXCEPTIONS_DOC,
    GRAPH_RULES,
    PRECISION_ROOTS,
    STAGE_ERROR_NAMES,
    WORKER_ENTRY_POINTS,
    all_graph_rules,
    computed_exception_table,
    parse_exceptions_md,
    render_exceptions_md,
)
from repro.lint.summaries import summarize_module

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Minimal taxonomy module paired with the EXC101 fixtures.
_ERRORS_SOURCE = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "\n"
    "\n"
    "class RoutingError(ReproError):\n"
    "    pass\n"
)

_ERRORS_FILE = ("src/repro/reliability/errors.py",
                "repro.reliability.errors", _ERRORS_SOURCE)

#: rule id -> (expected findings in the bad fixture, module override).
GRAPH_EXPECTED = {
    "WRK001": (3, "repro.perf.parallel"),
    "WRK002": (3, "repro.perf.parallel"),
    "TAPE001": (2, "repro.core.fixture"),
    "PRE001": (2, "repro.serve.service"),
    "EXC101": (1, "repro"),
}


def _fixture(rule_id: str, kind: str) -> str:
    return (FIXTURES / f"{rule_id.lower()}_{kind}.py").read_text()


def _project_files(rule_id: str, kind: str):
    """The (rel_path, module, source) triples for one fixture run."""
    _count, module = GRAPH_EXPECTED[rule_id]
    source = _fixture(rule_id, kind)
    if rule_id == "EXC101":
        # The fixture plays the role of the top-level package __init__.
        return [("src/repro/__init__.py", module, source), _ERRORS_FILE]
    rel = f"tests/lint_fixtures/{rule_id.lower()}_{kind}.py"
    return [(rel, module, source)]


class TestCatalogCoverage:
    def test_every_graph_rule_has_expectations_and_fixtures(self):
        ids = {cls.id for cls in GRAPH_RULES}
        assert ids == set(GRAPH_EXPECTED), (
            "GRAPH_EXPECTED out of sync with the graph-rule registry")
        for rule_id in ids:
            for kind in ("bad", "good"):
                path = FIXTURES / f"{rule_id.lower()}_{kind}.py"
                assert path.exists(), f"missing fixture {path.name}"

    def test_catalog_lists_graph_rules_with_project_scope(self):
        catalog = {entry["id"]: entry for entry in rule_catalog()}
        for cls in GRAPH_RULES:
            assert catalog[cls.id]["scope"] == "project"
            assert catalog[cls.id]["invariant"]

    def test_stage_error_names_mirror_runtime_taxonomy(self):
        # wholeprogram.py must stay import-free of the code it lints,
        # so it ships a static mirror of STAGE_ERRORS — pinned here.
        from repro.reliability.errors import STAGE_ERRORS

        runtime = {stage: cls.__name__
                   for stage, cls in STAGE_ERRORS.items()}
        assert STAGE_ERROR_NAMES == runtime

    def test_entry_points_resolve_to_repo_functions(self):
        # The reachability rules drop entry names that do not resolve,
        # so a renamed entry point would silently shrink their reach.
        project = run_lint(config=load_config(REPO_ROOT), rules=[],
                           whole_program=False).project
        unresolved = []
        for dotted in (*WORKER_ENTRY_POINTS, *PRECISION_ROOTS):
            symbol = project.resolve(dotted)
            if symbol is None or symbol.kind != "func":
                unresolved.append(dotted)
        assert unresolved == []


@pytest.mark.parametrize("rule_id", sorted(GRAPH_EXPECTED))
class TestPerGraphRule:
    def test_bad_fixture_fires(self, rule_id):
        count, _module = GRAPH_EXPECTED[rule_id]
        findings = lint_project_sources(
            _project_files(rule_id, "bad"),
            graph_rules=all_graph_rules(select={rule_id}))
        assert [f.rule_id for f in findings] == [rule_id] * count, (
            f"{rule_id} expected {count} findings, got "
            f"{[f.location() for f in findings]}")
        for finding in findings:
            assert finding.message

    def test_good_fixture_quiet_under_all_graph_rules(self, rule_id):
        findings = lint_project_sources(
            _project_files(rule_id, "good"),
            graph_rules=all_graph_rules())
        assert findings == [], (
            f"false positives on compliant fixture: "
            f"{[(f.rule_id, f.location()) for f in findings]}")


class TestExceptionContract:
    """EXC101 end to end: compute, render, parse, diff."""

    def _project(self):
        import ast

        files = _project_files("EXC101", "bad")
        summaries = {}
        for rel, module, source in files:
            summaries[module] = summarize_module(
                ast.parse(source), module, rel)
        return build_project(summaries)

    def test_computed_table_resolves_the_taxonomy(self):
        table = computed_exception_table(self._project())
        assert table == {"repro.route": ["RoutingError"]}

    def test_render_parse_round_trip(self):
        project = self._project()
        rendered = render_exceptions_md(project)
        assert parse_exceptions_md(rendered) == computed_exception_table(
            project)

    def test_matching_doc_is_quiet(self):
        doc = render_exceptions_md(self._project())
        findings = lint_project_sources(
            _project_files("EXC101", "bad"),
            graph_rules=all_graph_rules(select={"EXC101"}),
            exceptions_doc=doc)
        assert findings == []

    def test_divergent_doc_anchors_at_the_api(self):
        doc = ("| Public API | Raises |\n| --- | --- |\n"
               "| `repro.route` | `ExtractionError` |\n")
        findings = lint_project_sources(
            _project_files("EXC101", "bad"),
            graph_rules=all_graph_rules(select={"EXC101"}),
            exceptions_doc=doc)
        assert len(findings) == 1
        assert findings[0].path == "src/repro/__init__.py"
        assert "RoutingError" in findings[0].message

    def test_stale_doc_row_is_flagged(self):
        doc = ("| Public API | Raises |\n| --- | --- |\n"
               "| `repro.route` | `RoutingError` |\n"
               "| `repro.gone` | `ServeError` |\n")
        findings = lint_project_sources(
            _project_files("EXC101", "bad"),
            graph_rules=all_graph_rules(select={"EXC101"}),
            exceptions_doc=doc)
        assert len(findings) == 1
        assert findings[0].path == EXCEPTIONS_DOC
        assert "repro.gone" in findings[0].message


class TestGraphFindingSuppression:
    """Inline suppressions apply to phase-2 findings like any other."""

    def test_directive_silences_a_worker_mutation(self):
        source = (
            "_SEEN = []\n"
            "\n"
            "\n"
            "def _worker_run(task):\n"
            "    # repro-lint: disable-next-line=WRK001 -- test fixture\n"
            "    _SEEN.append(task)\n"
            "    return task\n"
        )
        findings = lint_project_sources(
            [("w.py", "repro.perf.parallel", source)],
            graph_rules=all_graph_rules(select={"WRK001"}))
        assert findings == []

    def test_unsuppressed_twin_still_fires(self):
        source = (
            "_SEEN = []\n"
            "\n"
            "\n"
            "def _worker_run(task):\n"
            "    _SEEN.append(task)\n"
            "    return task\n"
        )
        findings = lint_project_sources(
            [("w.py", "repro.perf.parallel", source)],
            graph_rules=all_graph_rules(select={"WRK001"}))
        assert [f.rule_id for f in findings] == ["WRK001"]
        assert findings[0].line_text.strip() == "_SEEN.append(task)"


class TestModuleCallsAreNotState:
    """WRK001 flags module-level containers, never a call on a module:
    ``np.add(a, b, out=c)`` calls a numpy function whose name happens to
    match a mutating method."""

    def _findings(self, kind: str, select=frozenset({"WRK001"})):
        name = f"wrk001_module_calls_{kind}.py"
        return lint_project_sources(
            [(f"tests/lint_fixtures/{name}", "repro.perf.parallel",
              (FIXTURES / name).read_text())],
            graph_rules=all_graph_rules(select=set(select)))

    def test_bad_fixture_flags_only_module_state(self):
        findings = self._findings("bad")
        assert [f.line_text.split("(")[0].strip() for f in findings] == [
            "_SEEN.append", "_BY_TASK.update", "os.environ.update"]
        assert [f.rule_id for f in findings] == ["WRK001"] * 3

    def test_good_fixture_quiet_under_all_graph_rules(self):
        findings = self._findings(
            "good", select={cls.id for cls in GRAPH_RULES})
        assert findings == []

    def test_from_imported_project_module_is_not_state(self):
        helpers = ("def update(values):\n"
                   "    return sorted(values)\n")
        worker = ("from repro.perf import helpers\n"
                  "from repro.perf.helpers import update\n"
                  "\n"
                  "\n"
                  "def _worker_run(task):\n"
                  "    update([task])\n"
                  "    return helpers.update([task])\n")
        findings = lint_project_sources(
            [("src/repro/perf/helpers.py", "repro.perf.helpers", helpers),
             ("src/repro/perf/parallel.py", "repro.perf.parallel", worker)],
            graph_rules=all_graph_rules(select={"WRK001"}))
        assert findings == []
