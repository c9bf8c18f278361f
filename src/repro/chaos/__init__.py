"""Chaos harness: fault injection + a stale-target correctness oracle.

See :mod:`repro.chaos.campaign` for the one-call entry points
(:func:`run_chaos`, :func:`run_fault_campaign`) and ``python -m repro chaos``
for the CLI.
"""

from repro.chaos.campaign import (
    CampaignConfig,
    CampaignReport,
    ChaosRunConfig,
    ChaosRunResult,
    run_chaos,
    run_corruption_trials,
    run_fault_campaign,
)
from repro.chaos.faults import (
    CORRUPTION_KINDS,
    AbtbThrashFault,
    BloomSaturationFault,
    ChaosContext,
    ContextSwitchFault,
    Fault,
    GotRewriteFault,
    IfuncReselectFault,
    LossyCoherence,
    SpuriousInvalFault,
    SyntheticSlots,
    corrupted_stream,
    default_faults,
)
from repro.chaos.injector import SAFE_HEADS, InjectionRecord, Injector
from repro.chaos.oracle import RESET, CorrectnessOracle, SkipRecord

__all__ = [
    "AbtbThrashFault",
    "BloomSaturationFault",
    "CampaignConfig",
    "CampaignReport",
    "ChaosContext",
    "ChaosRunConfig",
    "ChaosRunResult",
    "ContextSwitchFault",
    "CorrectnessOracle",
    "CORRUPTION_KINDS",
    "corrupted_stream",
    "default_faults",
    "Fault",
    "GotRewriteFault",
    "IfuncReselectFault",
    "InjectionRecord",
    "Injector",
    "LossyCoherence",
    "RESET",
    "run_chaos",
    "run_corruption_trials",
    "run_fault_campaign",
    "SAFE_HEADS",
    "SkipRecord",
    "SpuriousInvalFault",
    "SyntheticSlots",
]
