"""Experiments: one runnable reproduction per paper table/figure.

Use the registry to enumerate and run them::

    from repro.experiments import all_experiments, SMOKE
    for exp in all_experiments().values():
        print(exp.run(SMOKE).render())
"""

from repro.experiments.registry import Experiment, all_experiments, get, register
from repro.experiments.runner import (
    CampaignResult,
    RequestSample,
    RunResult,
    pair_key,
    run_campaign,
    run_pair,
    run_workload,
    summarize_pair,
)
from repro.experiments.scale import PAPER, SMOKE, Scale

__all__ = [
    "CampaignResult",
    "Experiment",
    "PAPER",
    "RequestSample",
    "RunResult",
    "SMOKE",
    "Scale",
    "all_experiments",
    "get",
    "pair_key",
    "register",
    "run_campaign",
    "run_pair",
    "run_workload",
    "summarize_pair",
]
