"""Figure 4 — frequency of trampolines (log-log rank/frequency curves).

Paper shape: Apache and Memcached show steep cutoffs — a specific set of
library calls is made for every request — while Firefox's curve is much
shallower, spreading calls over thousands of trampolines.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import Report, Series, Table
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import run_workload
from repro.experiments.scale import SMOKE, Scale
from repro.workloads import ALL_WORKLOADS

#: The paper plots Apache, Firefox and Memcached.
PLOTTED = ("apache", "firefox", "memcached")


def frequency_curves(scale: Scale) -> dict[str, list[int]]:
    """Descending per-trampoline execution counts per workload."""
    out: dict[str, list[int]] = {}
    for name in PLOTTED:
        module = ALL_WORKLOADS[name]
        result = run_workload(
            module.config(),
            mechanism=None,
            warmup_requests=scale.warmup(name),
            measured_requests=scale.measured(name),
        )
        counts = [n for _caller, _symbol, n in result.usage["pair_counts"]]
        out[name] = sorted(counts, reverse=True)
    return out


def tail_steepness(curve: list[int]) -> float:
    """Log-log slope magnitude between the head and the 90th-percentile rank.

    Steeper (more negative slope, larger magnitude) means execution
    concentrates on a core set — the paper's Apache/Memcached cutoff.
    """
    if len(curve) < 4:
        return 0.0
    head = float(np.mean(curve[: max(1, len(curve) // 20)]))
    tail_rank = max(2, int(len(curve) * 0.9))
    tail = max(float(curve[tail_rank - 1]), 1.0)
    return float(np.log10(head / tail) / np.log10(tail_rank))


def run(scale: Scale = SMOKE) -> Report:
    """Reproduce Figure 4."""
    curves = frequency_curves(scale)
    report = Report("fig4", "Trampoline rank/frequency curves")
    steep: dict[str, float] = {}
    summary = Table(
        "Figure 4 summary", ["Workload", "Distinct", "Top-10 call share", "Steepness"]
    )
    for name, curve in curves.items():
        total = sum(curve) or 1
        top10 = sum(curve[:10]) / total
        steep[name] = tail_steepness(curve)
        summary.add_row(name, len(curve), round(top10, 3), round(steep[name], 3))
        report.series.append(
            Series(name, [float(i + 1) for i in range(len(curve))], [float(c) for c in curve])
        )
    report.tables.append(summary)
    mem_curve = curves["memcached"]
    mem_top10 = sum(mem_curve[:10]) / (sum(mem_curve) or 1)

    def head_share(curve: list[int]) -> float:
        """Call share of the top decile of touched trampolines."""
        k = max(1, len(curve) // 10)
        return sum(curve[:k]) / (sum(curve) or 1)

    report.shape_checks = {
        "memcached majority of calls in <10 functions": mem_top10 > 0.5,
        # The log-log slope estimator needs more in-window distinct pairs
        # than short runs give firefox, so the scale-robust concentration
        # signals carry the shape assertions; the slopes are reported above.
        "memcached curve steepest": steep["memcached"]
        > max(steep["apache"], steep["firefox"]),
        # Memcached's distinct set is too small (≈26) for a stable decile,
        # so the concentration comparison is apache vs firefox only.
        "firefox head-decile share below apache's": head_share(curves["firefox"])
        < head_share(curves["apache"]),
    }
    return report


register(Experiment("fig4", "Figure 4", "Frequency of trampolines", run))
