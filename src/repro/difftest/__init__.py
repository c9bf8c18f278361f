"""Differential correctness: prove the batched backend equals the reference."""

from repro.difftest.harness import (
    ABLATION_SHAPES,
    DEFAULT_ABTB_SIZES,
    DiffReport,
    Divergence,
    diff_backends,
    difftest_workload,
    run_matrix,
    snapshot_diff,
    workload_events,
)

__all__ = [
    "ABLATION_SHAPES",
    "DEFAULT_ABTB_SIZES",
    "DiffReport",
    "Divergence",
    "diff_backends",
    "difftest_workload",
    "run_matrix",
    "snapshot_diff",
    "workload_events",
]
