"""ASCII telemetry dashboard.

Renders one :class:`~repro.obs.registry.TelemetryRegistry` into a terminal
report, reusing the :mod:`repro.viz.ascii` conventions (horizontal bars
with value annotations, sparklines for trajectories). All functions return
strings — callers print.
"""

from __future__ import annotations

from typing import List

from repro.obs.registry import TelemetryRegistry
from repro.viz.ascii import bar_chart, sparkline

_RULE = "─" * 64

# Event series whose numeric trajectory is worth a sparkline, in display
# order: (event name, field, label).
_KNOWN_SERIES = (
    ("train.epoch", "loss", "training loss / epoch"),
    ("train.epoch", "weight_mean", "mean candidate weight / epoch"),
    ("train.epoch", "rows_per_sec", "training throughput (rows/s) / epoch"),
    ("serve.batch", "n_alerts", "alerts / batch"),
    ("serve.batch", "latency_ms", "process latency (ms) / batch"),
    ("serve.batch", "n_quarantined", "quarantined rows / batch"),
    ("serve.batch", "n_target", "target-routed rows / batch"),
    ("serve.drift", "max_ks", "drift max KS / event"),
    ("lifecycle.cycle", "auprc_ratio", "refit AUPRC ratio / cycle"),
)


def _section(title: str) -> List[str]:
    return [_RULE, f" {title}", _RULE]


def render_dashboard(
    registry: TelemetryRegistry,
    title: str = "telemetry dashboard",
    max_events: int = 12,
) -> str:
    """Render the full registry: timers, counters, gauges, trends, events."""
    lines: List[str] = [f"═══ {title} ═══"]

    stats = registry.all_timer_stats()
    if stats:
        lines += _section("timers (wall clock)")
        totals = bar_chart(
            [s.name for s in stats], [s.total for s in stats],
            width=30, title="total seconds by timer:",
        )
        lines += totals.splitlines()
        lines.append("")
        pad = max(len(s.name) for s in stats)
        for s in stats:
            lines.append(f"{s.name.rjust(pad)}  {s.format_line()}")

    counters = registry.counters
    if counters:
        lines += _section("counters")
        names = sorted(counters)
        chart = bar_chart(names, [counters[n] for n in names], width=30)
        lines += chart.splitlines()

    gauges = registry.gauges
    if gauges:
        lines += _section("gauges")
        pad = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"{name.rjust(pad)}  {gauges[name]:.6g}")

    trend_lines = _render_trends(registry)
    if trend_lines:
        lines += _section("trends")
        lines += trend_lines

    if len(registry.events):
        lines += _section(f"events (last {max_events} of {registry.events.total_recorded})")
        for event in registry.events.tail(max_events):
            lines.append(" " + event.format_line())

    if len(lines) == 1:
        lines.append("(registry is empty)")
    return "\n".join(lines)


def _render_trends(registry: TelemetryRegistry) -> List[str]:
    lines: List[str] = []
    for event_name, field_name, label in _KNOWN_SERIES:
        series = registry.events.series(event_name, field_name)
        if len(series) >= 2:
            lines.append(f" {label}:")
            lines.append(f"   {sparkline(series)}  "
                         f"[{series[0]:.4g} → {series[-1]:.4g}]")
    return lines


def render_summary(registry: TelemetryRegistry) -> str:
    """Compact one-paragraph summary (for logs rather than terminals)."""
    stats = registry.all_timer_stats()
    timer_part = ", ".join(f"{s.name}:{s.total:.3f}s" for s in stats)
    counter_part = ", ".join(
        f"{name}={value:g}" for name, value in sorted(registry.counters.items())
    )
    return (f"timers[{timer_part or 'none'}] counters[{counter_part or 'none'}] "
            f"events={registry.events.total_recorded}")
