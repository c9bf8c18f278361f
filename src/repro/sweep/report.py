"""Self-contained HTML report for one sweep's analysis bundle.

Reuses the telemetry dashboard's stylesheet
(:data:`repro.obs.dashboard.DASHBOARD_CSS` — same palette, tiles,
cards and table styling) but renders everything server-side: the page
is static HTML with an inline SVG Pareto scatter, no JavaScript, so it
can be opened from ``analysis/report.html`` with no server and archived
alongside the JSON artifacts.
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.obs.dashboard import DASHBOARD_CSS

#: Plot geometry (SVG user units; the chart scales to container width).
_W, _H = 720, 300
_ML, _MR, _MT, _MB = 62, 16, 14, 38


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _config_label(rec: dict) -> str:
    assoc = rec["abtb_ways"] or "full"
    return (
        f"abtb={rec['abtb_entries']}/{assoc}/{rec['abtb_policy']} "
        f"bloom={rec['bloom_bits']}x{rec['bloom_hashes']} "
        f"btb={rec['btb_entries']}x{rec['btb_ways']} "
        f"gshare={rec['gshare_entries']}"
    )


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
    )


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _pareto_svg(configs: list[dict]) -> str:
    """Inline SVG scatter: cost (KiB) vs geomean speedup, frontier joined."""
    if not configs:
        return '<div class="empty">No completed configurations yet.</div>'
    xs = [rec["cost_bytes"] / 1024.0 for rec in configs]
    ys = [rec["speedup"] for rec in configs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # Breathe a little so edge points are not clipped by the plot border.
    x_pad = (x_hi - x_lo) * 0.06 or max(x_hi * 0.05, 0.5)
    y_pad = (y_hi - y_lo) * 0.08 or max(abs(y_hi) * 0.02, 0.01)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg class="chart" viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="Pareto frontier: speedup versus hardware cost" '
        f'style="height:{_H}px">'
    ]
    for tick in _axis_ticks(y_lo + y_pad, y_hi - y_pad):
        y = py(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="var(--gridline)" stroke-width="1"/>'
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:.3f}</text>'
        )
    for tick in _axis_ticks(x_lo + x_pad, x_hi - x_pad):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="var(--gridline)" stroke-width="1"/>'
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 4}" text-anchor="middle">'
        f"hardware cost (KiB)</text>"
    )
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})">geomean speedup</text>'
    )
    frontier = [rec for rec in configs if rec.get("on_frontier")]
    frontier.sort(key=lambda rec: rec["cost_bytes"])
    if len(frontier) > 1:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{px(rec['cost_bytes'] / 1024.0):.1f} "
            f"{py(rec['speedup']):.1f}"
            for i, rec in enumerate(frontier)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="var(--series-1)" '
            f'stroke-width="1.5" stroke-dasharray="4 3"/>'
        )
    for rec in configs:
        x, y = px(rec["cost_bytes"] / 1024.0), py(rec["speedup"])
        on = rec.get("on_frontier")
        fill = "var(--series-1)" if on else "var(--text-muted)"
        r = 4.5 if on else 3
        label = _esc(
            f"{_config_label(rec)}: speedup {rec['speedup']:.4f} at "
            f"{rec['cost_bytes'] / 1024.0:.1f} KiB"
        )
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}" '
            f'fill-opacity="{1.0 if on else 0.55}"><title>{label}</title></circle>'
        )
    parts.append("</svg>")
    legend = (
        '<div class="legend">'
        '<span><span class="key" style="background:var(--series-1)"></span>'
        "Pareto frontier</span>"
        '<span><span class="key" style="background:var(--text-muted)"></span>'
        "dominated</span></div>"
    )
    return legend + "".join(parts)


def _sensitivity_cards(tables: list[dict]) -> str:
    if not tables:
        return (
            '<section class="card"><h2>Axis sensitivity</h2>'
            '<div class="empty">No axis varied across at least two values.</div>'
            "</section>"
        )
    cards = []
    for table in tables:
        rows = "".join(
            f"<tr><td>{_esc(v['value'])}</td>"
            f'<td class="num">{v["count"]}</td>'
            f'<td class="num">{v["mean"]:.4f}</td>'
            f'<td class="num">{v["min"]:.4f}</td>'
            f'<td class="num">{v["max"]:.4f}</td></tr>'
            for v in table["values"]
        )
        cards.append(
            f'<section class="card">'
            f"<h2>Sensitivity — {_esc(table['axis'])} "
            f"(effect {table['effect']:.4f})</h2>"
            f'<table><thead><tr><th>value</th><th class="num">points</th>'
            f'<th class="num">mean speedup</th><th class="num">min</th>'
            f'<th class="num">max</th></tr></thead>'
            f"<tbody>{rows}</tbody></table></section>"
        )
    return "".join(cards)


def _configs_table(configs: list[dict], limit: int = 20) -> str:
    if not configs:
        return '<div class="empty">No completed configurations yet.</div>'
    ranked = sorted(configs, key=lambda rec: -rec["speedup"])[:limit]
    rows = []
    for rec in ranked:
        chip = '<span class="chip">pareto</span>' if rec.get("on_frontier") else ""
        per_wl = " ".join(
            f"{_esc(w)}={s:.3f}" for w, s in sorted(rec["workloads"].items())
        )
        rows.append(
            f"<tr><td>{_esc(_config_label(rec))} {chip}</td>"
            f'<td class="num">{rec["cost_bytes"] / 1024.0:.1f}</td>'
            f'<td class="num">{rec["speedup"]:.4f}</td>'
            f"<td>{per_wl}</td></tr>"
        )
    note = ""
    if len(configs) > limit:
        note = (
            f'<div class="meta">top {limit} of {len(configs)} configurations '
            f"by geomean speedup; the full set is in configs of points.json</div>"
        )
    return (
        f'<table><thead><tr><th>configuration</th><th class="num">cost (KiB)</th>'
        f'<th class="num">geomean speedup</th><th>per-workload</th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>{note}"
    )


def render_sweep_report(analysis: dict, summary: dict) -> str:
    """The complete static HTML page for one sweep analysis."""
    configs = analysis.get("configs", [])
    best = (analysis.get("best") or {}).get("overall")
    cache = summary.get("trace_cache") or {}
    tiles = [
        _tile("points", str(summary.get("points", 0))),
        _tile("completed", str(summary.get("completed", 0))),
        _tile("quarantined", str(summary.get("quarantined", 0))),
        _tile("pareto size", str(summary.get("pareto_size", 0))),
        _tile("best speedup", f"{best['speedup']:.4f}" if best else "—"),
        _tile("trace-cache hit rate", f"{cache.get('hit_rate', 0.0):.1%}"),
    ]
    best_line = ""
    if best:
        best_line = (
            f'<div class="meta">best configuration: '
            f"{_esc(_config_label(best))} at "
            f"{best['cost_bytes'] / 1024.0:.1f} KiB</div>"
        )
    per_wl = (analysis.get("best") or {}).get("per_workload") or {}
    best_rows = "".join(
        f"<tr><td>{_esc(w)}</td><td>{_esc(_config_label(row))}</td>"
        f'<td class="num">{row["speedup"]:.4f}</td>'
        f'<td class="num">{row.get("skip_rate", 0.0):.4f}</td></tr>'
        for w, row in per_wl.items()
    )
    best_card = ""
    if best_rows:
        best_card = (
            f'<section class="card"><h2>Best point per workload</h2>'
            f"<table><thead><tr><th>workload</th><th>configuration</th>"
            f'<th class="num">speedup</th><th class="num">skip rate</th>'
            f"</tr></thead><tbody>{best_rows}</tbody></table></section>"
        )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Sweep report — {_esc(summary.get("name", "sweep"))}</title>
<style>
{DASHBOARD_CSS}</style>
</head>
<body class="viz-root">
<main>
  <header class="top">
    <h1>Sweep report</h1>
    <span class="badge">{_esc(summary.get("name", "sweep"))}</span>
    <span class="meta">{summary.get("completed", 0)}/{summary.get("points", 0)}
      points completed, {summary.get("resumed", 0)} resumed,
      {summary.get("executed", 0)} executed this run</span>
  </header>
  <div class="tiles">{"".join(tiles)}</div>
  <section class="card">
    <h2>Pareto frontier — geomean speedup vs. modeled hardware cost</h2>
    {best_line}
    {_pareto_svg(configs)}
  </section>
  {best_card}
  <section class="card">
    <h2>Top configurations</h2>
    {_configs_table(configs)}
  </section>
  {_sensitivity_cards(analysis.get("sensitivity", []))}
</main>
</body>
</html>
"""


def write_sweep_report(path: str | Path, analysis: dict, summary: dict) -> Path:
    """Render and write the report; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_sweep_report(analysis, summary))
    return path
