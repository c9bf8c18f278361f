"""The zero-dependency campaign dashboard.

One self-contained HTML page — inline CSS, inline JS, inline SVG charts,
no npm, no CDN — rendered from a JSON *snapshot*.
``python -m repro dash --from <dir>`` builds the snapshot from a run's
exported artifacts (metrics, incidents, events, optional profile/trace)
via :func:`load_snapshot_from_dir`.

The page shows summary tiles, warm-up curves, the hot-trampoline table
from :class:`~repro.obs.profiler.TrampolineProfiler` exports, and a
correlated incident/event feed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.events import downsample

#: Schema version stamped on every snapshot.
SNAPSHOT_SCHEMA_VERSION = 1

#: Placeholder in the template the snapshot JSON replaces.
_PLACEHOLDER = "__SNAPSHOT__"

#: Point budget per series in a snapshot (downsampled, first/last kept).
SNAPSHOT_MAX_POINTS = 150

#: Events retained in a snapshot's feed seed.
SNAPSHOT_MAX_EVENTS = 100


def load_snapshot_from_dir(directory: str | Path) -> dict:
    """The dashboard snapshot, from exported artifacts in ``directory``.

    Recognised files (all optional — the dashboard renders empty states
    for whatever is missing): ``metrics.jsonl`` (the registry's JSONL
    export), ``incidents.jsonl``, ``events.jsonl`` (the bus export),
    ``profile.json`` (:meth:`TrampolineProfiler.write_json`), and
    ``trace.json`` (Chrome trace, counted only).  Unparseable lines are
    skipped — a dashboard must render *something* from a damaged export.
    """
    d = Path(directory)
    if not d.is_dir():
        raise FileNotFoundError(f"no such artifact directory: {d}")
    series: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for record in _jsonl_records(d / "metrics.jsonl"):
        kind = record.get("kind")
        name = record.get("name")
        if not isinstance(name, str):
            continue
        if kind == "series" and isinstance(record.get("points"), list):
            points = [
                (float(p[0]), float(p[1]))
                for p in record["points"]
                if isinstance(p, (list, tuple)) and len(p) == 2
            ]
            series[name] = {
                "points": [
                    [t, v] for t, v in downsample(points, SNAPSHOT_MAX_POINTS)
                ] if points else [],
                "appended": int(record.get("appended", len(points))),
            }
        elif kind in ("counter", "gauge") and isinstance(
            record.get("value"), (int, float)
        ):
            counters[name] = float(record["value"])

    incidents = [
        r for r in _jsonl_records(d / "incidents.jsonl") if r.get("kind")
    ]
    incident_counts: dict[str, int] = {}
    for incident in incidents:
        kind = str(incident["kind"])
        incident_counts[kind] = incident_counts.get(kind, 0) + 1

    events = [
        r for r in _jsonl_records(d / "events.jsonl") if r.get("kind")
    ][-SNAPSHOT_MAX_EVENTS:]

    profile = None
    profile_path = d / "profile.json"
    if profile_path.is_file():
        try:
            loaded = json.loads(profile_path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("sites"), list):
                profile = loaded
        except (json.JSONDecodeError, OSError):
            profile = None

    trace_events = 0
    trace_path = d / "trace.json"
    if trace_path.is_file():
        try:
            trace = json.loads(trace_path.read_text())
            events_list = (
                trace.get("traceEvents") if isinstance(trace, dict) else trace
            )
            trace_events = len(events_list) if isinstance(events_list, list) else 0
        except (json.JSONDecodeError, OSError):
            trace_events = 0

    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "mode": "offline",
        "generated_at": time.time(),
        "source": str(d),
        "incident_counts": dict(sorted(incident_counts.items())),
        "incidents": incidents[-50:],
        "series": series,
        "counters": counters,
        "events": events,
        "profile": profile,
        "trace_events": trace_events,
    }


def render_dashboard(snapshot: dict) -> str:
    """The self-contained dashboard HTML with ``snapshot`` embedded."""
    payload = json.dumps(snapshot, sort_keys=True)
    # "</" must not appear inside an inline <script> block.
    payload = payload.replace("</", "<\\/")
    return _TEMPLATE.replace(_PLACEHOLDER, payload)


def write_dashboard(snapshot: dict, out_path: str | Path) -> Path:
    """Render and write the dashboard; returns the written path."""
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(snapshot))
    return out


def _jsonl_records(path: Path) -> list[dict]:
    """Best-effort JSONL parse: bad lines are skipped, not fatal."""
    if not path.is_file():
        return []
    records: list[dict] = []
    try:
        text = path.read_text()
    except OSError:
        return []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


#: The dashboard's visual system -- palette variables (light/dark),
#: tiles, cards, tables, chart and badge styles -- exported so other
#: self-contained report pages (e.g. the sweep engine's Pareto report,
#: repro.sweep.report) render with the same look without duplicating
#: the stylesheet.
DASHBOARD_CSS = """.viz-root {
  color-scheme: light;
  --page:          #f9f9f7;
  --surface-1:     #fcfcfb;
  --text-primary:  #0b0b0b;
  --text-secondary:#52514e;
  --text-muted:    #898781;
  --gridline:      #e1e0d9;
  --baseline:      #c3c2b7;
  --border:        rgba(11,11,11,0.10);
  --series-1:      #2a78d6;
  --series-2:      #eb6834;
  --series-3:      #1baf7a;
  --status-warning:  #fab219;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:          #0d0d0d;
    --surface-1:     #1a1a19;
    --text-primary:  #ffffff;
    --text-secondary:#c3c2b7;
    --text-muted:    #898781;
    --gridline:      #2c2c2a;
    --baseline:      #383835;
    --border:        rgba(255,255,255,0.10);
    --series-1:      #3987e5;
    --series-2:      #d95926;
    --series-3:      #199e70;
    }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:          #0d0d0d;
  --surface-1:     #1a1a19;
  --text-primary:  #ffffff;
  --text-secondary:#c3c2b7;
  --text-muted:    #898781;
  --gridline:      #2c2c2a;
  --baseline:      #383835;
  --border:        rgba(255,255,255,0.10);
  --series-1:      #3987e5;
  --series-2:      #d95926;
  --series-3:      #199e70;
}
* { box-sizing: border-box; }
body.viz-root {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1200px; margin: 0 auto; padding: 20px 24px 48px; }
header.top {
  display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap;
  padding: 8px 0 16px;
}
header.top h1 { font-size: 20px; font-weight: 600; margin: 0; }
.badge {
  font-size: 11px; font-weight: 600; letter-spacing: 0.04em;
  padding: 2px 8px; border-radius: 999px; border: 1px solid var(--border);
  color: var(--text-secondary); text-transform: uppercase;
}
.meta { color: var(--text-muted); font-size: 12px; }
.tiles {
  display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr));
  gap: 12px; margin-bottom: 20px;
}
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 12px 14px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px; margin-bottom: 16px;
}
section.card h2 {
  font-size: 13px; font-weight: 600; margin: 0 0 10px;
  color: var(--text-secondary);
}
.grid2 { display: grid; grid-template-columns: 1fr 1fr; gap: 16px; }
@media (max-width: 860px) { .grid2 { grid-template-columns: 1fr; } }
.empty { color: var(--text-muted); font-size: 13px; padding: 14px 0; }
table { width: 100%; border-collapse: collapse; font-size: 13px; }
th {
  text-align: left; font-weight: 500; color: var(--text-muted);
  border-bottom: 1px solid var(--gridline); padding: 4px 8px 6px;
}
td {
  padding: 5px 8px; border-bottom: 1px solid var(--gridline);
  font-variant-numeric: tabular-nums;
}
tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; }
.chip {
  font-size: 11px; padding: 1px 7px; border-radius: 999px;
  border: 1px solid var(--border); color: var(--text-secondary);
  white-space: nowrap;
}
.legend {
  display: flex; gap: 14px; flex-wrap: wrap; font-size: 12px;
  color: var(--text-secondary); margin-bottom: 6px;
}
.legend .key {
  display: inline-block; width: 14px; height: 3px; border-radius: 2px;
  vertical-align: middle; margin-right: 5px;
}
svg.chart { width: 100%; height: 180px; display: block; }
svg.chart text {
  fill: var(--text-muted); font-size: 11px;
  font-variant-numeric: tabular-nums;
}
.tooltip {
  position: fixed; pointer-events: none; z-index: 10; display: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 9px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
.feed { max-height: 360px; overflow-y: auto; font-size: 13px; }
.feed .ev {
  display: flex; gap: 8px; padding: 5px 0; align-items: baseline;
  border-bottom: 1px solid var(--gridline);
}
.feed .ev:last-child { border-bottom: none; }
.feed .ico { flex: 0 0 auto; }
.feed .ico.warning { color: var(--status-warning); }
.feed .ico.error { color: var(--status-critical); }
.feed .ico.info { color: var(--text-muted); }
.feed .kind { color: var(--text-secondary); white-space: nowrap; }
.feed .msg { flex: 1; }
.feed .corr { color: var(--text-muted); font-size: 11px; white-space: nowrap; }
"""

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Campaign telemetry</title>
<style>
""" + DASHBOARD_CSS + """</style>
</head>
<body class="viz-root">
<main>
  <header class="top">
    <h1>Campaign telemetry</h1>
    <span id="mode-badge" class="badge"></span>
    <span id="meta" class="meta"></span>
  </header>
  <div id="tiles" class="tiles"></div>
  <div class="grid2">
    <section class="card">
      <h2>Warm-up curves</h2>
      <div id="curves-chart"></div>
    </section>
    <section class="card">
      <h2>Hot trampolines</h2>
      <div id="profile"></div>
    </section>
  </div>
  <section class="card">
    <h2>Incident &amp; event feed</h2>
    <div id="feed" class="feed"></div>
  </section>
</main>
<div id="tooltip" class="tooltip"></div>
<script>
"use strict";
var SNAPSHOT = __SNAPSHOT__;

var SERIES_COLORS = ["var(--series-1)", "var(--series-2)", "var(--series-3)"];
var SEV_ICON = { info: "\\u24D8", warning: "\\u26A0", error: "\\u2716" };

function el(tag, cls, text) {
  var node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
}
function fmt(n) {
  if (n === null || n === undefined || isNaN(n)) return "–";
  if (Math.abs(n) >= 1e6) return (n / 1e6).toFixed(1) + "M";
  if (Math.abs(n) >= 1e4) return (n / 1e3).toFixed(1) + "K";
  if (Number.isInteger(n)) return String(n);
  return n.toFixed(2);
}

function renderTiles(snap) {
  var counters = snap.counters || {};
  var incidents = 0;
  var counts = snap.incident_counts || {};
  Object.keys(counts).forEach(function (k) { incidents += counts[k]; });
  var tiles = [
    ["Shards completed", fmt(counters["campaign.pairs_completed"] || 0)],
    ["Incidents", fmt(incidents)],
    ["Events seen", fmt(counters["events.total"] || (snap.events || []).length)]
  ];
  var root = document.getElementById("tiles");
  root.textContent = "";
  tiles.forEach(function (t) {
    var tile = el("div", "tile");
    tile.appendChild(el("div", "label", t[0]));
    tile.appendChild(el("div", "value", String(t[1])));
    root.appendChild(tile);
  });
}

function lineChart(rootId, seriesDefs) {
  var root = document.getElementById(rootId);
  root.textContent = "";
  var defs = seriesDefs.filter(function (d) {
    return d.points && d.points.length > 0;
  });
  if (!defs.length) {
    root.appendChild(el("div", "empty", "No samples yet."));
    return;
  }
  if (defs.length > 1) {
    var legend = el("div", "legend");
    defs.forEach(function (d, i) {
      var item = el("span");
      var key = el("span", "key");
      key.style.background = SERIES_COLORS[i % SERIES_COLORS.length];
      item.appendChild(key);
      item.appendChild(document.createTextNode(d.label));
      legend.appendChild(item);
    });
    root.appendChild(legend);
  }
  var W = 520, H = 180, padL = 44, padR = 14, padT = 10, padB = 22;
  var svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("class", "chart");
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  var xs = [], ys = [];
  defs.forEach(function (d) {
    d.points.forEach(function (p) { xs.push(p[0]); ys.push(p[1]); });
  });
  var x0 = Math.min.apply(null, xs), x1 = Math.max.apply(null, xs);
  var y0 = 0, y1 = Math.max.apply(null, ys);
  if (x1 === x0) x1 = x0 + 1;
  if (y1 <= y0) y1 = y0 + 1;
  y1 = y1 * 1.08;
  function X(t) { return padL + (t - x0) / (x1 - x0) * (W - padL - padR); }
  function Y(v) { return H - padB - (v - y0) / (y1 - y0) * (H - padT - padB); }
  function svgEl(tag, attrs) {
    var node = document.createElementNS("http://www.w3.org/2000/svg", tag);
    Object.keys(attrs).forEach(function (k) { node.setAttribute(k, attrs[k]); });
    return node;
  }
  var ticks = 4;
  for (var i = 0; i <= ticks; i++) {
    var v = y0 + (y1 - y0) * i / ticks;
    var y = Y(v);
    svg.appendChild(svgEl("line", {
      x1: padL, x2: W - padR, y1: y, y2: y,
      stroke: i === 0 ? "var(--baseline)" : "var(--gridline)",
      "stroke-width": 1
    }));
    var label = svgEl("text", { x: padL - 6, y: y + 3.5, "text-anchor": "end" });
    label.textContent = fmt(v);
    svg.appendChild(label);
  }
  var xlab = svgEl("text", { x: W - padR, y: H - 6, "text-anchor": "end" });
  xlab.textContent = "t = " + fmt(x1);
  svg.appendChild(xlab);
  defs.forEach(function (d, i) {
    var color = SERIES_COLORS[i % SERIES_COLORS.length];
    var path = d.points.map(function (p, j) {
      return (j ? "L" : "M") + X(p[0]).toFixed(1) + " " + Y(p[1]).toFixed(1);
    }).join(" ");
    svg.appendChild(svgEl("path", {
      d: path, fill: "none", stroke: color, "stroke-width": 2,
      "stroke-linejoin": "round", "stroke-linecap": "round"
    }));
    var last = d.points[d.points.length - 1];
    svg.appendChild(svgEl("circle", {
      cx: X(last[0]), cy: Y(last[1]), r: 4, fill: color,
      stroke: "var(--surface-1)", "stroke-width": 2
    }));
  });
  var tooltip = document.getElementById("tooltip");
  svg.addEventListener("mousemove", function (evt) {
    var rect = svg.getBoundingClientRect();
    var tx = x0 + ((evt.clientX - rect.left) / rect.width * W - padL) /
             (W - padL - padR) * (x1 - x0);
    var lines = defs.map(function (d, i) {
      var best = d.points[0];
      d.points.forEach(function (p) {
        if (Math.abs(p[0] - tx) < Math.abs(best[0] - tx)) best = p;
      });
      return d.label + ": " + fmt(best[1]) + " @ t=" + fmt(best[0]);
    });
    tooltip.textContent = "";
    lines.forEach(function (line) { tooltip.appendChild(el("div", null, line)); });
    tooltip.style.display = "block";
    tooltip.style.left = (evt.clientX + 14) + "px";
    tooltip.style.top = (evt.clientY + 10) + "px";
  });
  svg.addEventListener("mouseleave", function () {
    tooltip.style.display = "none";
  });
  root.appendChild(svg);
}

function pickSeries(snap, name) {
  var entry = (snap.series || {})[name];
  return entry ? entry.points : null;
}

function renderCharts(snap) {
  var names = Object.keys(snap.series || {});
  var curves = names.filter(function (n) {
    return /abtb_hits_pki$/.test(n);
  }).sort();
  if (!curves.length) {
    curves = names.filter(function (n) { return /_pki$/.test(n); }).sort();
  }
  lineChart("curves-chart", curves.slice(0, 3).map(function (n) {
    return { label: n.replace(/\\.abtb_hits_pki$/, ""), points: pickSeries(snap, n) };
  }));
}

function renderTable(rootId, headers, rows, emptyText) {
  var root = document.getElementById(rootId);
  root.textContent = "";
  if (!rows.length) {
    root.appendChild(el("div", "empty", emptyText));
    return;
  }
  var table = el("table");
  var thead = el("thead");
  var tr = el("tr");
  headers.forEach(function (h) {
    tr.appendChild(el("th", h.num ? "num" : null, h.label));
  });
  thead.appendChild(tr);
  table.appendChild(thead);
  var tbody = el("tbody");
  rows.forEach(function (row) {
    var line = el("tr");
    row.forEach(function (cell, i) {
      line.appendChild(el("td", headers[i].num ? "num" : null, String(cell)));
    });
    tbody.appendChild(line);
  });
  table.appendChild(tbody);
  root.appendChild(table);
}

function renderProfile(snap) {
  var sites = (snap.profile && snap.profile.sites) || [];
  var rows = sites.slice(0, 10).map(function (s) {
    return [
      s.symbol || s.site_pc, fmt(s.calls), fmt(s.skipped),
      ((s.skip_rate || 0) * 100).toFixed(1) + "%",
      fmt(s.instructions), fmt(s.got_loads),
      ((s.abtb_hit_rate || 0) * 100).toFixed(1) + "%"
    ];
  });
  renderTable("profile",
    [{label: "call site"}, {label: "calls", num: true}, {label: "skips", num: true},
     {label: "skip%", num: true}, {label: "tramp instr", num: true},
     {label: "GOT loads", num: true}, {label: "ABTB hit%", num: true}],
    rows,
    "No trampoline profile in this snapshot (export one with `repro profile`).");
}

function feedLine(entry) {
  var sev = entry.severity || "info";
  var line = el("div", "ev");
  line.appendChild(el("span", "ico " + sev, SEV_ICON[sev] || SEV_ICON.info));
  line.appendChild(el("span", "kind",
    entry.kind + (entry.seq ? " #" + entry.seq : "")));
  line.appendChild(el("span", "msg", entry.message || ""));
  var corr = [entry.campaign_id, entry.shard_key, entry.worker_id]
    .filter(Boolean).join(" · ");
  if (corr) line.appendChild(el("span", "corr", corr));
  return line;
}

function renderFeed(snap) {
  var root = document.getElementById("feed");
  root.textContent = "";
  var entries = (snap.events || []).slice();
  if (!entries.length && (snap.incidents || []).length) {
    entries = snap.incidents.slice();
  }
  if (!entries.length) {
    root.appendChild(el("div", "empty", "No events yet."));
    return;
  }
  entries.slice().reverse().forEach(function (entry) {
    root.appendChild(feedLine(entry));
  });
}

function renderAll(snap) {
  document.getElementById("mode-badge").textContent = snap.mode;
  document.getElementById("meta").textContent =
    "artifacts: " + (snap.source || "?") +
    " · generated " + new Date(snap.generated_at * 1000).toLocaleTimeString();
  renderTiles(snap);
  renderCharts(snap);
  renderProfile(snap);
  renderFeed(snap);
}

renderAll(SNAPSHOT);

</script>
</body>
</html>
"""
