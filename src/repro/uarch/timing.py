"""Cycle cost model.

A simple additive timing model over the structural events the simulator
counts: base pipeline throughput plus fixed penalties for cache misses,
TLB walks and branch mispredictions.  Cycles are never accumulated event
by event; :func:`~repro.uarch.counters.cycles_of` prices a bundle of
counts with these penalties (and ``CPUConfig.direct_btb_bubble`` for BTB
bubbles) in one fixed order.  Penalties default to values representative
of the paper's Xeon E5450 (Core-microarchitecture) testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class TimingModel:
    """Penalty table used to convert event counts into cycles.

    Attributes:
        base_cpi: cycles per instruction with no stalls (superscalar issue).
        l1i_miss: extra cycles per L1I miss that hits the L2.
        l1d_miss: extra cycles per L1D miss that hits the L2.
        l2_miss: additional cycles when the L2 also misses (DRAM access).
        itlb_miss: extra cycles per I-TLB walk.
        dtlb_miss: extra cycles per D-TLB walk.
        mispredict: pipeline refill cost per branch misprediction.
        clock_ghz: clock rate used to convert cycles into wall time.
    """

    base_cpi: float = 0.40
    l1i_miss: float = 12.0
    l1d_miss: float = 14.0
    l2_miss: float = 120.0
    itlb_miss: float = 30.0
    dtlb_miss: float = 30.0
    mispredict: float = 14.0
    clock_ghz: float = 3.0

    def __post_init__(self) -> None:
        if self.base_cpi <= 0 or self.clock_ghz <= 0:
            raise ConfigError("base_cpi and clock_ghz must be positive")
        for name in ("l1i_miss", "l1d_miss", "l2_miss", "itlb_miss", "dtlb_miss", "mispredict"):
            if getattr(self, name) < 0:
                raise ConfigError(f"penalty {name} must be non-negative")

    def cycles_to_seconds(self, cycles: float) -> float:
        """Wall-clock seconds for ``cycles`` at the configured clock."""
        return cycles / (self.clock_ghz * 1e9)

    def cycles_to_microseconds(self, cycles: float) -> float:
        """Wall-clock microseconds for ``cycles``."""
        return cycles / (self.clock_ghz * 1e3)
