"""Server-rendered observability dashboard — pure stdlib HTML + SVG.

:func:`render_dashboard` turns one metrics snapshot plus the
:class:`~repro.obs.history.MetricsHistory` series into a single
self-contained HTML document: stat tiles, inline-SVG sparklines (qps /
hit rate / coalesce rate), a per-family latency heatmap over time with
a peel-vs-enumerate kernel-phase breakdown column, the
scheduler queue-depth bar, SLO status with the breach-event ring, and a
slow-trace exemplar table whose ids link to the ``/traces/<id>``
waterfalls.  Design constraints:

* **zero external fetches** — no ``<script>``, no ``<link>``, no
  webfonts, no CDN; everything is inline and the page renders identically
  offline (CI asserts the absence of third-party tags);
* **deterministic output** — same inputs, same bytes: numbers are
  formatted with fixed precision and every iteration is sorted, so
  golden-substring tests hold;
* **refresh without JS** — ``<meta http-equiv="refresh">`` reloads the
  page; hover detail uses native SVG ``<title>`` tooltips.

The palette is a validated light/dark pair (sequential = one blue ramp
light->dark for the heatmap; status colors are fixed and always paired
with a text label, never color alone).
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["render_dashboard"]

#: Sequential blue ramp (steps 100..700), light -> dark = low -> high.
_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

_STYLE = """\
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink-1: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --series-1: #2a78d6;
  --good: #0ca30c;
  --critical: #d03b3b;
  --warning: #fab219;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink-1: #ffffff;
    --ink-2: #c3c2b7;
    --grid: #2c2c2a;
    --series-1: #3987e5;
    --border: rgba(255, 255, 255, 0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 20px 24px 40px;
  background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; }
h2 { font-size: 13px; font-weight: 600; color: var(--ink-2);
     margin: 0 0 8px; text-transform: uppercase; letter-spacing: .04em; }
.sub { color: var(--muted); font-size: 12px; margin-bottom: 18px; }
.grid { display: flex; flex-wrap: wrap; gap: 16px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; min-width: 230px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 16px; margin-bottom: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px 12px; min-width: 132px;
}
.tile .v { font-size: 24px; font-weight: 650; }
.tile .l { font-size: 11px; color: var(--muted); text-transform: uppercase;
           letter-spacing: .04em; }
.status { font-weight: 650; }
.status.ok { color: var(--good); }
.status.bad { color: var(--critical); }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; color: var(--muted); font-weight: 500;
     font-size: 11px; text-transform: uppercase; letter-spacing: .04em;
     padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid); }
td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid);
     font-variant-numeric: tabular-nums; }
td.fam { font-variant-numeric: normal; color: var(--ink-2);
         font-size: 12px; max-width: 340px; overflow: hidden;
         text-overflow: ellipsis; white-space: nowrap; }
a { color: var(--series-1); text-decoration: none; }
a:hover { text-decoration: underline; }
.bar { background: var(--grid); border-radius: 3px; height: 10px;
       width: 160px; display: inline-block; vertical-align: middle; }
.bar i { background: var(--series-1); border-radius: 3px; height: 10px;
         display: block; }
.empty { color: var(--muted); font-style: italic; }
svg text { fill: var(--muted); font-size: 10px; }
.spark path { stroke: var(--series-1); fill: none; stroke-width: 2; }
.legend { font-size: 11px; color: var(--muted); margin-top: 6px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _num(value: Optional[float], digits: int = 2, unit: str = "") -> str:
    """Deterministic fixed-precision rendering; em-dash for no data."""
    if value is None:
        return "–"
    return f"{value:.{digits}f}{unit}"


def _sparkline(
    values: Sequence[Optional[float]],
    dom_id: str,
    width: int = 240,
    height: int = 48,
    digits: int = 2,
) -> str:
    """One inline-SVG sparkline (a thin polyline, no axes beyond a
    baseline); returns a placeholder span before two points exist."""
    known = [v for v in values if v is not None]
    if len(values) < 2 or not known:
        return '<span class="empty">no data yet</span>'
    lo, hi = min(known), max(known)
    span = (hi - lo) or 1.0
    step = (width - 4) / (len(values) - 1)
    coords: List[str] = []
    for i, value in enumerate(values):
        if value is None:
            continue
        x = 2 + i * step
        y = height - 6 - (value - lo) / span * (height - 14)
        coords.append(f"{x:.1f},{y:.1f}")
    last = known[-1]
    return (
        f'<svg id="{dom_id}" class="spark" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" aria-label="{dom_id}">'
        f'<title>last={last:.{digits}f} min={lo:.{digits}f} '
        f"max={hi:.{digits}f}</title>"
        f'<line x1="2" y1="{height - 6}" x2="{width - 2}" '
        f'y2="{height - 6}" stroke="var(--grid)" stroke-width="1"/>'
        f'<path d="M{" L".join(coords)}"/>'
        f'<text x="{width - 2}" y="10" text-anchor="end">'
        f"{last:.{digits}f}</text>"
        "</svg>"
    )


def _phase_breakdown(row: Optional[Dict[str, Any]]) -> str:
    """``peel X · enum Y`` from a family row's ``phases_ms`` breakdown.

    The two kernel halves of a query (fastpeel's peel, fastenum's
    enumeration); an em-dash when the family has no breakdown yet (pure
    cache traffic, or an algorithm outside the kernel dispatcher).
    """
    phases = (row or {}).get("phases_ms") or {}
    peel = phases.get("peel")
    enum = phases.get("enumerate")
    if peel is None and enum is None:
        return "–"
    return f"peel {_num(peel, 2)} · enum {_num(enum, 2)}"


def _heatmap(points: Sequence[Dict[str, Any]], max_cols: int = 40) -> str:
    """Per-family p95 latency over time as an SVG cell grid.

    Rows are families (sorted by label), columns are the most recent
    ticks; cell color is the p95 bucketed into the sequential ramp,
    normalised to the map's maximum.  Native ``<title>`` tooltips carry
    the exact value per cell.  A trailing column shows each family's
    latest peel-vs-enumerate kernel-phase breakdown (milliseconds, from
    ``record_phase`` via the family's ``phases_ms`` row).
    """
    window = list(points)[-max_cols:]
    labels = sorted({f for p in window for f in p.get("families", {})})
    if not window or not labels:
        return '<p class="empty">no per-family samples yet</p>'
    peak = 0.0
    for point in window:
        for row in point["families"].values():
            p95 = row.get("p95_ms")
            if p95 is not None and p95 > peak:
                peak = p95
    peak = peak or 1.0
    cell_w, cell_h, gap, label_w = 14, 16, 2, 260
    breakdown_w = 190
    grid_w = label_w + len(window) * (cell_w + gap) + 4
    width = grid_w + breakdown_w
    height = (cell_h + gap) * len(labels) + 18
    latest = window[-1]
    parts = [
        f'<svg id="heatmap" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        'aria-label="per-family p95 latency heatmap">'
    ]
    for r, label in enumerate(labels):
        y = r * (cell_h + gap)
        short = label if len(label) <= 38 else label[:35] + "…"
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 12}" text-anchor="end">'
            f"{_esc(short)}</text>"
        )
        for c, point in enumerate(window):
            row = point["families"].get(label)
            p95 = row.get("p95_ms") if row else None
            if p95 is None:
                fill = "var(--grid)"
                tip = f"{label}: no sample"
            else:
                idx = min(
                    len(_RAMP) - 1, int(p95 / peak * (len(_RAMP) - 1) + 0.5)
                )
                fill = _RAMP[idx]
                tip = f"{label}: p95={p95:.3f}ms"
            x = label_w + c * (cell_w + gap)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" '
                f'height="{cell_h}" rx="2" fill="{fill}">'
                f"<title>{_esc(tip)}</title></rect>"
            )
        parts.append(
            f'<text x="{grid_w + 8}" y="{y + 12}">'
            f"{_esc(_phase_breakdown(latest['families'].get(label)))}"
            "</text>"
        )
    parts.append(
        f'<text x="{label_w}" y="{height - 4}">older</text>'
        f'<text x="{grid_w - 4}" y="{height - 4}" text-anchor="end">'
        "now</text>"
        f'<text x="{grid_w + 8}" y="{height - 4}">kernel phases (ms)</text>'
        "</svg>"
    )
    parts.append(
        f'<div class="legend">p95 latency, light → dark = 0 → '
        f"{peak:.2f}ms (window max) · phases column: cumulative "
        "peel / enumerate ms (latest tick)</div>"
    )
    return "".join(parts)


def _queue_bars(server_depth: int) -> str:
    """The scheduler's queue-depth bar (value label beside it)."""
    pct = 100.0 if server_depth else 0.0
    return (
        '<table id="queues"><tr><th>queue</th><th>depth</th><th></th></tr>'
        f'<tr><td class="fam">scheduler</td><td>{server_depth}</td>'
        f'<td><span class="bar"><i style="width:{pct:.0f}%"></i>'
        "</span></td></tr></table>"
    )


def _slow_traces(summaries: Sequence[Dict[str, Any]]) -> str:
    if not summaries:
        return '<p class="empty">no slow traces retained</p>'
    parts = [
        '<table id="slow-traces"><tr><th>trace</th><th>name</th>'
        "<th>duration</th><th>spans</th></tr>"
    ]
    for row in summaries:
        trace_id = str(row.get("trace_id", ""))
        parts.append(
            f'<tr><td><a href="/traces/{_esc(trace_id)}">'
            f"{_esc(trace_id)}</a></td>"
            f'<td>{_esc(row.get("name", ""))}</td>'
            f'<td>{_num(row.get("duration_ms"), 3, "ms")}</td>'
            f'<td>{row.get("spans", 0)}</td></tr>'
        )
    parts.append("</table>")
    return "".join(parts)


def _slo_section(
    slo_status: Optional[Dict[str, Any]],
    breaches: Sequence[Dict[str, Any]],
) -> str:
    if slo_status is None:
        return (
            '<p class="empty">no SLOs configured '
            "(serve with --slo p95_ms=...,err_rate=...)</p>"
        )
    parts = [
        '<table id="slo"><tr><th>objective</th><th>target</th>'
        "<th>value</th><th>status</th></tr>"
    ]
    for name, obj in sorted(slo_status.get("objectives", {}).items()):
        digits = 3 if name == "err_rate" else 2
        state = (
            '<span class="status ok">✓ ok</span>'
            if obj.get("ok")
            else '<span class="status bad">✗ breach</span>'
        )
        parts.append(
            f"<tr><td>{_esc(name)}</td>"
            f'<td>{_num(obj.get("target"), digits)}</td>'
            f'<td>{_num(obj.get("value"), digits)}</td>'
            f"<td>{state}</td></tr>"
        )
    parts.append("</table>")
    recent = list(breaches)[-8:]
    if recent:
        parts.append('<div class="legend" id="breaches">recent events: ')
        parts.append(
            " · ".join(
                f'{_esc(ev.get("objective"))} {_esc(ev.get("event"))}'
                f' (value {_num(ev.get("value"), 3)})'
                for ev in reversed(recent)
            )
        )
        parts.append("</div>")
    return "".join(parts)


def render_dashboard(
    snapshot: Dict[str, Any],
    points: Optional[Sequence[Dict[str, Any]]] = None,
    slo_status: Optional[Dict[str, Any]] = None,
    breaches: Sequence[Dict[str, Any]] = (),
    slow_traces: Sequence[Dict[str, Any]] = (),
    readiness: Optional[Dict[str, Any]] = None,
    refresh_s: int = 5,
    window_s: Optional[float] = None,
) -> str:
    """Render the whole dashboard page from already-collected inputs.

    All inputs are plain dicts/lists (the exporter assembles them under
    its own locks); the renderer itself touches no shared state, so the
    output is a pure function of its arguments.
    """
    points = list(points or [])
    latest = points[-1] if points else None
    qps = latest["qps"] if latest else None
    hit = latest["hit_rate"] if latest else None
    p95 = (
        (latest.get("latency_overall_ms") or {}).get("p95")
        if latest
        else (snapshot.get("latency_overall_ms") or {}).get("p95")
    )
    if readiness is None:
        ready_chip = ""
    elif readiness.get("ready"):
        ready_chip = ' · <span class="status ok">● ready</span>'
    else:
        reasons = "; ".join(str(r) for r in readiness.get("reasons", []))
        ready_chip = (
            f' · <span class="status bad">✗ not ready: {_esc(reasons)}</span>'
        )
    window_note = (
        f"window {window_s:.0f}s · " if window_s is not None else ""
    )
    live = snapshot.get("live") or {}
    tiles = [
        ("qps", _num(qps, 2)),
        ("hit rate", _num(hit, 3)),
        ("p95 latency", _num(p95, 2, " ms")),
        ("queries", str(snapshot.get("queries_served", 0))),
        ("errors", str(snapshot.get("errors", 0))),
    ]
    if live.get("mutations_applied") or live.get("compactions"):
        tiles.append(("mutations", str(live.get("mutations_applied", 0))))
        tiles.append(("compactions", str(live.get("compactions", 0))))
    tile_html = "".join(
        f'<div class="tile"><div class="v">{value}</div>'
        f'<div class="l">{label}</div></div>'
        for label, value in tiles
    )
    spark_qps = _sparkline([p["qps"] for p in points], "spark-qps")
    spark_hit = _sparkline(
        [p["hit_rate"] for p in points], "spark-hit-rate", digits=3
    )
    spark_coalesce = _sparkline(
        [p["coalesce_rate"] for p in points], "spark-coalesce", digits=3
    )
    # Shown only once mutations flow: of the cached families mutations
    # touched, the fraction scoped invalidation had to drop.
    invalidation_card = ""
    if any(p.get("invalidation_rate") is not None for p in points):
        spark_invalidation = _sparkline(
            [p.get("invalidation_rate") for p in points],
            "spark-invalidation",
            digits=3,
        )
        invalidation_card = (
            f'<div class="card"><h2>invalidation rate</h2>'
            f"{spark_invalidation}</div>"
        )
    server_depth = (
        latest["queue_depth"]
        if latest
        else (snapshot.get("server") or {}).get("queue_depth", 0)
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{int(refresh_s)}">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro dashboard</title>
<style>
{_STYLE}</style>
</head>
<body>
<h1>repro dashboard</h1>
<div class="sub">{window_note}auto-refresh {int(refresh_s)}s · \
stdlib-rendered, no external assets{ready_chip}</div>
<div class="tiles">{tile_html}</div>
<div class="grid">
<div class="card"><h2>qps</h2>{spark_qps}</div>
<div class="card"><h2>hit rate</h2>{spark_hit}</div>
<div class="card"><h2>coalesce rate</h2>{spark_coalesce}</div>
{invalidation_card}</div>
<div class="grid" style="margin-top:16px">
<div class="card"><h2>per-family p95 latency</h2>{_heatmap(points)}</div>
<div class="card"><h2>queue depths</h2>\
{_queue_bars(server_depth)}</div>
</div>
<div class="grid" style="margin-top:16px">
<div class="card"><h2>service objectives</h2>\
{_slo_section(slo_status, breaches)}</div>
<div class="card"><h2>slow-trace exemplars</h2>\
{_slow_traces(slow_traces)}</div>
</div>
</body>
</html>
"""
