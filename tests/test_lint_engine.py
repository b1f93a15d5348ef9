"""Engine mechanics: suppressions, baseline, config, output, CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    lint_source,
    load_baseline,
    load_config,
    run_lint,
    write_baseline,
)
from repro.lint.__main__ import main
from repro.lint.engine import (
    PARSE_ERROR_ID,
    LintResult,
    iter_python_files,
    _module_name,
)
from repro.lint.findings import Finding
from repro.lint.output import render
from repro.lint.suppress import parse_suppressions

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

BAD_CLOCK = "import time\nstart = time.time()\n"


class TestSuppressions:
    def test_same_line(self):
        src = "import time\nt = time.time()  # repro-lint: disable=CLK001\n"
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 1

    def test_next_line(self):
        src = ("import time\n"
               "# repro-lint: disable-next-line=CLK001 -- wall stamp\n"
               "t = time.time()\n")
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 1

    def test_file_wide_and_all(self):
        src = ("# repro-lint: disable-file=all\n"
               "import time, random\n"
               "t = time.time()\n")
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 2

    def test_wrong_rule_id_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro-lint: disable=RNG001\n"
        findings, _ = lint_source(src, "x.py")
        assert [f.rule_id for f in findings] == ["CLK001"]

    def test_ids_case_insensitive_and_comma_separated(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=clk001, num001 -- why\n")
        assert sup.is_suppressed("CLK001", 1)
        assert sup.is_suppressed("NUM001", 1)
        assert not sup.is_suppressed("CLK001", 2)

    def test_directive_inside_string_is_inert(self):
        src = ("import time\n"
               "note = '# repro-lint: disable-file=all'\n"
               "t = time.time()\n")
        findings, _ = lint_source(src, "x.py")
        assert [f.rule_id for f in findings] == ["CLK001"]


class TestBaseline:
    def _findings(self):
        findings, _ = lint_source(BAD_CLOCK, "pkg/mod.py")
        assert len(findings) == 1
        return findings

    def test_round_trip(self, tmp_path):
        findings = self._findings()
        path = write_baseline(tmp_path / "base.json", findings)
        baseline = load_baseline(path)
        new, matched, stale = baseline.partition(findings)
        assert new == [] and matched == findings and stale == set()

    def test_line_number_drift_keeps_matching(self, tmp_path):
        path = write_baseline(tmp_path / "base.json", self._findings())
        drifted, _ = lint_source("\n\n\n" + BAD_CLOCK, "pkg/mod.py")
        new, matched, stale = load_baseline(path).partition(drifted)
        assert new == [] and len(matched) == 1 and stale == set()

    def test_stale_entries_reported(self, tmp_path):
        path = write_baseline(tmp_path / "base.json", self._findings())
        new, matched, stale = load_baseline(path).partition([])
        assert new == [] and matched == [] and len(stale) == 1

    def test_occurrence_disambiguation(self):
        src = "import time\nstart = time.time()\nstop = time.time()\n"
        findings, _ = lint_source(src, "x.py")
        assert len(findings) == 2
        baseline = Baseline()
        _, fps = [], []
        from repro.lint.baseline import _fingerprints
        fps = _fingerprints(findings)
        assert len(set(fps)) == 2  # same rule/path/text, distinct index
        baseline.entries = {fps[0]}
        new, matched, _ = baseline.partition(findings)
        assert len(new) == 1 and len(matched) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ("src/repro",)
        assert config.baseline == "lint-baseline.json"

    def test_reads_tool_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\n'
            'paths = ["lib"]\n'
            'baseline = "base.json"\n'
            'ignore = ["num001"]\n'
            'exclude = ["lib/vendored/*"]\n')
        config = load_config(tmp_path)
        assert config.paths == ("lib",)
        assert config.baseline == "base.json"
        assert config.ignored() == {"NUM001"}
        assert config.exclude == ("lib/vendored/*",)

    def test_bad_types_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = "src"\n')
        with pytest.raises(ValueError, match="paths"):
            load_config(tmp_path)


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings, _ = lint_source("def broken(:\n", "x.py")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_module_name_derivation(self):
        assert _module_name("src/repro/core/dataset.py") == (
            "repro.core.dataset")
        assert _module_name("src/repro/lint/__init__.py") == "repro.lint"
        assert _module_name("tests/test_core.py") == "tests.test_core"

    def test_stage_scoping_applies_from_real_paths(self):
        findings, _ = lint_source("raise RuntimeError('x')\n",
                                  "src/repro/router/astar.py")
        assert "EXC002" in {f.rule_id for f in findings}

    def test_exclude_patterns(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        (tmp_path / "skip.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path], tmp_path, exclude=("skip.py",))
        assert [p.name for p in files] == ["keep.py"]

    def test_run_lint_end_to_end(self, tmp_path):
        (tmp_path / "mod.py").write_text(BAD_CLOCK)
        config = LintConfig(root=tmp_path, paths=("mod.py",), baseline=None)
        result = run_lint(config=config)
        assert result.files_checked == 1
        assert [f.rule_id for f in result.findings] == ["CLK001"]
        assert not result.clean


class TestOutput:
    def _result(self):
        findings, _ = lint_source(BAD_CLOCK, "pkg/mod.py")
        return LintResult(findings=findings, files_checked=1)

    def test_text(self):
        text = render(self._result(), "text")
        assert "pkg/mod.py:2:9: CLK001" in text
        assert "1 finding in 1 files" in text

    def test_json(self):
        payload = json.loads(render(self._result(), "json"))
        assert set(payload) == {"findings", "baselined", "stale_baseline",
                                "files_checked", "suppressed"}
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "CLK001"
        assert payload["findings"][0]["line"] == 2

    def test_github_annotations_escaped(self):
        result = LintResult(findings=[Finding(
            path="a.py", line=3, col=1, rule_id="XYZ001",
            message="50% broken\nnewline")], files_checked=1)
        out = render(result, "github")
        assert "::error file=a.py,line=3,col=1" in out
        assert "50%25 broken%0Anewline" in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render(self._result(), "xml")


class TestCli:
    def _write_tree(self, tmp_path, source=BAD_CLOCK):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["mod.py"]\n'
            'baseline = "base.json"\n')
        (tmp_path / "mod.py").write_text(source)
        return tmp_path

    def test_findings_exit_1(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root)]) == 1
        assert "CLK001" in capsys.readouterr().out

    def test_clean_exit_0(self, tmp_path, capsys):
        root = self._write_tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root)]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert (root / "base.json").exists()
        assert main(["--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_strict_baseline_flags_stale(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        (root / "mod.py").write_text("x = 1\n")
        assert main(["--root", str(root)]) == 0
        assert main(["--root", str(root), "--strict-baseline"]) == 1

    def test_select_and_ignore(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root), "--select", "NUM001"]) == 0
        assert main(["--root", str(root), "--ignore", "CLK001"]) == 0
        assert main(["--root", str(root), "--select", "CLK001"]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "CLK001", "EXC002", "OBS001", "NUM003"):
            assert rule_id in out

    def test_json_format(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "CLK001"

    def test_github_format(self, tmp_path, capsys):
        root = self._write_tree(tmp_path)
        assert main(["--root", str(root), "--format", "github"]) == 1
        assert "::error file=mod.py,line=2" in capsys.readouterr().out

class TestDecoratorSuppression:
    """Regression: findings anchored at a decorator line and directives
    anchored at the ``def`` line (or vice versa) must pair up — the
    decorated statement is one unit for suppression purposes."""

    _BAD = ("from functools import lru_cache\n"
            "class C:\n"
            "    @lru_cache(maxsize=8)\n"
            "    def method(self, x):\n"
            "        return x\n")

    def test_num003_fires_at_the_decorator_line(self):
        findings, _ = lint_source(self._BAD, "x.py")
        assert [(f.rule_id, f.line) for f in findings] == [("NUM003", 3)]

    def test_directive_between_decorator_and_def_suppresses(self):
        src = ("from functools import lru_cache\n"
               "class C:\n"
               "    @lru_cache(maxsize=8)\n"
               "    # repro-lint: disable-next-line=NUM003 -- test pin\n"
               "    def method(self, x):\n"
               "        return x\n")
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 1

    def test_directive_above_decorator_suppresses(self):
        src = ("from functools import lru_cache\n"
               "class C:\n"
               "    # repro-lint: disable-next-line=NUM003 -- test pin\n"
               "    @lru_cache(maxsize=8)\n"
               "    def method(self, x):\n"
               "        return x\n")
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 1

    def test_same_line_on_def_suppresses_decorator_finding(self):
        src = ("from functools import lru_cache\n"
               "class C:\n"
               "    @lru_cache(maxsize=8)\n"
               "    def method(self, x):  # repro-lint: disable=NUM003\n"
               "        return x\n")
        findings, suppressed = lint_source(src, "x.py")
        assert findings == [] and suppressed == 1

    def test_wrong_id_between_decorator_and_def_does_not_suppress(self):
        src = ("from functools import lru_cache\n"
               "class C:\n"
               "    @lru_cache(maxsize=8)\n"
               "    # repro-lint: disable-next-line=CLK001 -- wrong id\n"
               "    def method(self, x):\n"
               "        return x\n")
        findings, _ = lint_source(src, "x.py")
        assert [f.rule_id for f in findings] == ["NUM003"]


class TestCliFlags:
    def _write_tree(self, tmp_path, source=BAD_CLOCK):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["mod.py"]\n'
            'baseline = "base.json"\n')
        (tmp_path / "mod.py").write_text(source)
        return tmp_path

    def test_rule_edit_takes_effect_on_the_next_run(self, tmp_path,
                                                     monkeypatch, capsys):
        # A rule edit takes effect on the next run: no run leaves state
        # behind that could carry findings over to a later one.
        import repro.lint.rules.clock

        root = self._write_tree(
            tmp_path, "import time\nstart = time.monotonic()\n")
        assert main(["--root", str(root)]) == 0
        monkeypatch.setitem(repro.lint.rules.clock._WALL_CLOCKS,
                            "time.monotonic", "time.monotonic()")
        assert main(["--root", str(root)]) == 1
        assert "CLK001" in capsys.readouterr().out
        written = {p.relative_to(root).as_posix() for p in root.rglob("*")}
        assert written == {"mod.py", "pyproject.toml"}

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--no-cache"],
                                      ["--changed-only"]])
    def test_incremental_flags_are_gone(self, tmp_path, flag, capsys):
        root = self._write_tree(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(root), *flag])
        assert exc.value.code == 2

    def test_max_seconds_gate_fails_on_overrun(self, tmp_path, capsys):
        root = self._write_tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "--max-seconds", "0.0"]) == 1
        assert "wall time" in capsys.readouterr().err

    def test_write_exceptions_creates_the_doc(self, tmp_path, capsys):
        root = self._write_tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "--write-exceptions"]) == 0
        doc = root / "docs" / "EXCEPTIONS.md"
        assert doc.exists()
        assert "Exception contracts" in doc.read_text()
