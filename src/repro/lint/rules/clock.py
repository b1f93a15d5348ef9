"""Clock discipline: durations come from ``perf_counter``, nothing else.

Every span and relaxation-trace duration in this repo is measured on
the monotonic ``time.perf_counter`` clock (via ``obs.span``).  A wall clock (``time.time``,
``datetime.now``) mixed into a timed path makes durations jump on NTP
steps and DST, and breaks the trace/manifest agreement tests.  Wall
clocks are legitimate only for human-facing timestamps (the run
manifest's ``created_unix``) — those sites carry an inline suppression
stating exactly that.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import FileContext, Rule

_WALL_CLOCKS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.clock": "time.clock()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


class WallClockRule(Rule):
    """CLK001: no wall-clock reads; time with ``perf_counter`` helpers."""

    id = "CLK001"
    name = "wall-clock"
    invariant = ("all durations are measured on time.perf_counter via "
                 "obs.span; wall clocks only stamp human-facing metadata, "
                 "under an explicit suppression")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        qualname = ctx.qualified_name(node.func)
        if qualname is None:
            return
        label = _WALL_CLOCKS.get(qualname)
        if label is None:
            return
        ctx.report(self, node, (
            f"wall-clock read `{label}` — time code with obs.span() "
            "(perf_counter) instead; if this is a deliberate "
            "human-facing timestamp, suppress with "
            "`# repro-lint: disable=CLK001 -- <why>`"))
