"""The hot-trampoline profiler: per-call-site / per-symbol attribution.

The paper argues in *totals* (Table 4's PKI counters); this profiler
answers the question totals cannot: **which call sites pay for the PLT?**
It rides the CPU's :meth:`~repro.uarch.cpu.CPUHooks.on_trampoline` hook
point and charges every trampoline interaction — stub instructions
fetched, GOT loads, ABTB hits/misses, mispredictions, committed skips —
to the originating call site, then renders top-N "hot trampoline" tables
via :class:`repro.analysis.report.Table`.

Call sites are named through a ``site_pc → "caller:symbol"`` map built
from the workload's linked program (:meth:`repro.obs.Observability.
attach_workload`), so the output reads like a real profiler's: symbols,
not addresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.report import Table
from repro.uarch.counters import PerfCounters
from repro.resilience.integrity import atomic_write
from repro.uarch.cpu import CPUHooks

#: Label for trampoline work with no known call site (tail-called stubs).
UNATTRIBUTED = "<unattributed>"


@dataclass
class SiteStats:
    """Costs charged to one call site."""

    site_pc: int
    executed: int = 0
    skipped: int = 0
    instructions: int = 0
    got_loads: int = 0
    abtb_hits: int = 0
    abtb_misses: int = 0
    mispredictions: int = 0

    @property
    def calls(self) -> int:
        """Total trampoline interactions (executed + skipped)."""
        return self.executed + self.skipped

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.calls if self.calls else 0.0

    @property
    def abtb_hit_rate(self) -> float:
        lookups = self.abtb_hits + self.abtb_misses
        return self.abtb_hits / lookups if lookups else 0.0


class TrampolineProfiler(CPUHooks):
    """Accumulates per-site trampoline costs from the CPU hook stream.

    Args:
        site_names: optional ``pc → name`` map; unnamed sites render as
            hex addresses and count as unattributed.
    """

    def __init__(self, site_names: dict[int, str] | None = None) -> None:
        self.site_names = site_names or {}
        self.sites: dict[int, SiteStats] = {}

    # -------------------------------------------------------------- hook

    def on_trampoline(
        self,
        site_pc: int,
        stub_pc: int,
        target: int,
        skipped: bool,
        n_instr: int,
        got_load: bool,
        abtb_hit: bool,
        mispredicted: bool,
    ) -> None:
        stats = self.sites.get(site_pc)
        if stats is None:
            stats = self.sites[site_pc] = SiteStats(site_pc)
        if skipped:
            stats.skipped += 1
        else:
            stats.executed += 1
            stats.instructions += n_instr
        if got_load:
            stats.got_loads += 1
        if abtb_hit:
            stats.abtb_hits += 1
        else:
            stats.abtb_misses += 1
        if mispredicted:
            stats.mispredictions += 1

    # --------------------------------------------------------- reporting

    def name_of(self, site_pc: int) -> str:
        return self.site_names.get(site_pc, f"{site_pc:#x}")

    def total_instructions(self) -> int:
        """Trampoline instructions charged across all sites."""
        return sum(s.instructions for s in self.sites.values())

    def attributed_instructions(self) -> int:
        """Trampoline instructions charged to *named* call sites."""
        return sum(
            s.instructions for pc, s in self.sites.items() if pc in self.site_names
        )

    def attribution_fraction(self, counters: PerfCounters | None = None) -> float:
        """Fraction of trampoline instructions attributed to named sites.

        Measured against the CPU's ``trampoline_instructions`` counter
        when given (ground truth includes anything the hook missed), else
        against the profiler's own total.
        """
        total = (
            counters.trampoline_instructions
            if counters is not None
            else self.total_instructions()
        )
        return self.attributed_instructions() / total if total else 1.0

    def top_sites(self, n: int = 10) -> list[SiteStats]:
        """The N hottest sites by trampoline interactions (then by
        instructions charged, so base-config profiles order identically)."""
        return sorted(
            self.sites.values(),
            key=lambda s: (s.calls, s.instructions, -s.site_pc),
            reverse=True,
        )[:n]

    def table(self, top: int = 10) -> Table:
        """The top-N hot-trampoline table."""
        table = Table(
            f"Hot trampolines (top {top} call sites)",
            [
                "call site",
                "symbol",
                "calls",
                "skips",
                "skip%",
                "tramp instr",
                "GOT loads",
                "ABTB hit%",
                "mispredicts",
            ],
        )
        for stats in self.top_sites(top):
            table.add_row(
                f"{stats.site_pc:#x}",
                self.name_of(stats.site_pc),
                stats.calls,
                stats.skipped,
                f"{stats.skip_rate:.1%}",
                stats.instructions,
                stats.got_loads,
                f"{stats.abtb_hit_rate:.1%}",
                stats.mispredictions,
            )
        return table

    def as_dicts(self, top: int = 10) -> list[dict]:
        """JSON-safe top-N site records (the dashboard's hot-trampoline
        table; same ordering as :meth:`table`)."""
        return [
            {
                "site_pc": f"{stats.site_pc:#x}",
                "symbol": self.name_of(stats.site_pc),
                "calls": stats.calls,
                "skipped": stats.skipped,
                "skip_rate": round(stats.skip_rate, 4),
                "instructions": stats.instructions,
                "got_loads": stats.got_loads,
                "abtb_hit_rate": round(stats.abtb_hit_rate, 4),
                "mispredictions": stats.mispredictions,
            }
            for stats in self.top_sites(top)
        ]

    def write_json(self, path, top: int = 20) -> None:
        """Write the top-N profile as JSON (consumed by ``repro dash``)."""
        payload = {
            "sites": self.as_dicts(top),
            "total_instructions": self.total_instructions(),
            "attributed_instructions": self.attributed_instructions(),
        }
        atomic_write(path, json.dumps(payload, indent=2) + "\n")

    def summary_lines(self, counters: PerfCounters | None = None) -> list[str]:
        """Human-readable attribution summary printed under the table."""
        total_sites = len(self.sites)
        named = sum(1 for pc in self.sites if pc in self.site_names)
        frac = self.attribution_fraction(counters)
        lines = [
            f"call sites observed : {total_sites} ({named} named)",
            f"trampoline instr    : {self.total_instructions()} charged, "
            f"{frac:.1%} attributed to named call sites",
        ]
        if counters is not None:
            lines.append(
                f"counter ground truth: {counters.trampoline_instructions} "
                f"trampoline instructions, {counters.trampolines_skipped} skips"
            )
        return lines
