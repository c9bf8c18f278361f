"""Declarative design-space sweeps over the trampoline-skip mechanism.

``spec`` declares the experiment matrix, ``engine`` executes it through
the campaign runner (sharded, checkpointed, cache-deduplicated),
``analysis`` computes the Pareto frontier / sensitivity / best-point
bundle, and ``report`` renders the self-contained HTML page.
"""

from repro.sweep.analysis import (
    aggregate_configs,
    analyze_sweep,
    completed_rows,
    pareto_frontier,
    sensitivity,
)
from repro.sweep.engine import SweepResult, load_spec, report_sweep, run_sweep
from repro.sweep.report import render_sweep_report, write_sweep_report
from repro.sweep.spec import AXES, SweepPoint, SweepSpec, point_key

__all__ = [
    "AXES",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "aggregate_configs",
    "analyze_sweep",
    "completed_rows",
    "load_spec",
    "pareto_frontier",
    "point_key",
    "render_sweep_report",
    "report_sweep",
    "run_sweep",
    "sensitivity",
    "write_sweep_report",
]
