"""Table 3 — number of distinct trampolines used by program execution.

Paper values: Apache 501, Firefox 2457, Memcached 33, MySQL 1611.
Shape: Firefox exercises by far the most distinct library calls despite
calling them least often; Memcached uses a tiny, fixed set.

Distinct counts are measured over the warmup + measurement window (the
synthetic startup sweep is excluded), so the number is what the workload
*organically* exercises at the given scale; full coverage of the design
universe needs the larger presets.
"""

from __future__ import annotations

from repro.analysis.report import Report, Table
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import run_workload
from repro.experiments.scale import SMOKE, Scale
from repro.workloads import ALL_WORKLOADS

PAPER_DISTINCT = {"apache": 501, "firefox": 2457, "memcached": 33, "mysql": 1611}


def measure_distinct(scale: Scale) -> dict[str, tuple[int, int]]:
    """(distinct, total) trampoline executions per workload."""
    out: dict[str, tuple[int, int]] = {}
    for name, module in ALL_WORKLOADS.items():
        result = run_workload(
            module.config(),
            mechanism=None,
            warmup_requests=scale.warmup(name),
            measured_requests=scale.measured(name),
        )
        out[name] = (
            len(result.usage["touched_pairs"]),
            sum(n for _caller, _symbol, n in result.usage["pair_counts"]),
        )
    return out


def run(scale: Scale = SMOKE) -> Report:
    """Reproduce Table 3."""
    measured = measure_distinct(scale)
    universe = {n: m.config().distinct_pair_target for n, m in ALL_WORKLOADS.items()}
    diversity = {n: d / t if t else 0.0 for n, (d, t) in measured.items()}
    table = Table(
        "Table 3: Number of trampolines used by program execution",
        ["Workload", "Paper", "Measured (window)", "Diversity (distinct/call)", "Design universe"],
    )
    for name in sorted(measured):
        table.add_row(
            name, PAPER_DISTINCT[name], measured[name][0], round(diversity[name], 4), universe[name]
        )

    report = Report("table3", "Distinct trampolines exercised")
    report.tables.append(table)
    report.shape_checks = {
        "firefox has the most diverse call stream": max(diversity, key=diversity.get) == "firefox",
        "memcached has the least diverse call stream": min(diversity, key=diversity.get)
        == "memcached",
        "memcached uses a tiny fixed set (<50)": measured["memcached"][0] < 50,
        "design universes equal the paper's counts": all(
            universe[w] == PAPER_DISTINCT[w] for w in universe
        ),
    }
    report.notes.append(
        "in-window distinct counts grow toward the design universe with "
        "scale (the paper measured ~10^12 instructions); the universes are "
        "calibrated to the paper's Table 3 and diversity ratios preserve "
        "the paper's ordering at any scale"
    )
    return report


register(Experiment("table3", "Table 3", "Distinct trampolines used", run))
