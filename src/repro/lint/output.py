"""Finding renderers: human text, machine JSON, GitHub annotations.

* ``text`` — ``path:line:col: ID message`` lines plus a summary, for
  terminals and test-failure output;
* ``json`` — one object with findings + run stats, for tooling;
* ``github`` — ``::error`` workflow commands, so the CI lint job
  surfaces findings as inline PR annotations.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult

FORMATS = ("text", "json", "github")


def render_text(result: LintResult) -> str:
    lines = [f"{f.location()}: {f.rule_id} {f.message}"
             for f in result.findings]
    summary = (f"{len(result.findings)} finding"
               f"{'s' if len(result.findings) != 1 else ''} "
               f"in {result.files_checked} files"
               f" ({result.suppressed} suppressed,"
               f" {len(result.baselined)} baselined)")
    if result.stale_baseline:
        summary += f", {len(result.stale_baseline)} stale baseline entries"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "stale_baseline": sorted(result.stale_baseline),
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_annotation(text: str) -> str:
    """Escape per the workflow-command rules (%, CR, LF in messages)."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def render_github(result: LintResult) -> str:
    lines = []
    for finding in result.findings:
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title=repro.lint {finding.rule_id}::"
            f"{_escape_annotation(finding.message)}")
    lines.append(
        f"{len(result.findings)} findings in {result.files_checked} files")
    return "\n".join(lines)


def render(result: LintResult, fmt: str) -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "github":
        return render_github(result)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
