"""Performance counters — the model's equivalent of the paper's VTune runs.

Counter names mirror Table 4 of the paper (misses and mispredictions per
kilo-instruction) plus mechanism-specific counters used by Figure 5 and
the ablation experiments.  ``btb_bubbles`` counts the taken direct
branches that miss the BTB: each costs a front-end redirect at decode,
not a misprediction (``btb_misses`` also counts indirect-branch misses).

``cycles`` is not counted but priced: :func:`cycles_of` is the one
definition of a cycle, a fixed-order sum of penalty × counter.
"""

from __future__ import annotations

_FIELDS = (
    "instructions",
    "cycles",
    "l1i_accesses",
    "l1i_misses",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "itlb_accesses",
    "itlb_misses",
    "dtlb_accesses",
    "dtlb_misses",
    "branches",
    "branch_mispredictions",
    "btb_lookups",
    "btb_misses",
    "btb_bubbles",
    "loads",
    "stores",
    "trampolines_executed",
    "trampolines_skipped",
    "trampoline_instructions",
    "got_loads",
    "resolver_runs",
    "abtb_hits",
    "abtb_misses",
    "abtb_inserts",
    "abtb_flushes",
    "bloom_store_hits",
    "context_switches",
)


def cycles_of(config, counts):
    """The cycles ``counts`` cost on a machine configured by ``config``.

    ``config`` is a :class:`~repro.uarch.cpu.CPUConfig` (its ``timing``
    penalties and its ``direct_btb_bubble``).  ``counts`` is a
    :class:`PerfCounters`, or one whose priced fields hold numpy arrays
    to price many points at once.  The terms are added in this one fixed
    order, so the same counts always price to the same float.
    """
    t = config.timing
    return (
        t.base_cpi * counts.instructions
        + t.l1i_miss * counts.l1i_misses
        + t.l2_miss * counts.l2_misses
        + t.itlb_miss * counts.itlb_misses
        + t.dtlb_miss * counts.dtlb_misses
        + t.l1d_miss * counts.l1d_misses
        + t.mispredict * counts.branch_mispredictions
        + config.direct_btb_bubble * counts.btb_bubbles
    )


class PerfCounters:
    """A bundle of monotonically increasing event counters.

    Supports snapshot/delta arithmetic so experiments can attribute costs
    to individual requests, and PKI normalisation for paper-style tables.
    """

    __slots__ = _FIELDS

    def __init__(self, **initial: int) -> None:
        for name in _FIELDS:
            setattr(self, name, initial.pop(name, 0))
        if initial:
            raise TypeError(f"unknown counter(s): {sorted(initial)}")

    @staticmethod
    def field_names() -> tuple[str, ...]:
        """All counter names in declaration order."""
        return _FIELDS

    def copy(self) -> "PerfCounters":
        """An independent snapshot of the current values."""
        out = PerfCounters()
        for name in _FIELDS:
            setattr(out, name, getattr(self, name))
        return out

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` (self - earlier)."""
        out = PerfCounters()
        for name in _FIELDS:
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        return out

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Element-wise sum into a new bundle (multi-run aggregation)."""
        out = PerfCounters()
        for name in _FIELDS:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def _value(self, field: str) -> int:
        """A counter value, with a helpful error for typo'd field names."""
        if field not in _FIELDS:
            raise ValueError(
                f"unknown counter field {field!r}; valid fields: {', '.join(_FIELDS)}"
            )
        return getattr(self, field)

    def pki(self, field: str) -> float:
        """A counter normalised per kilo-instruction, as the paper reports."""
        value = self._value(field)
        if self.instructions == 0:
            return 0.0
        return 1000.0 * value / self.instructions

    def rate(self, field: str, per: str = "instructions") -> float:
        """``field`` divided by ``per`` (0.0 when the denominator is zero).

        The metrics sampler uses this for windowed ratios, e.g.
        ``rate("abtb_hits", "btb_lookups")`` or plain per-instruction rates.
        """
        numerator = self._value(field)
        denominator = self._value(per)
        return numerator / denominator if denominator else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def as_dict(self) -> dict[str, int]:
        """Plain dict of all counters."""
        return {name: getattr(self, name) for name in _FIELDS}

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """All counter values, JSON-safe."""
        return self.as_dict()

    def restore(self, state: dict) -> None:
        """Restore a snapshot; unknown fields raise ValueError."""
        unknown = set(state) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown counter(s) in snapshot: {sorted(unknown)}")
        for name in _FIELDS:
            setattr(self, name, state.get(name, 0))

    def reset(self) -> None:
        """Zero every counter."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def describe(self) -> dict:
        """Static metadata: the counter fields tracked."""
        return {"kind": "perf_counters", "fields": list(_FIELDS)}

    def table4_row(self) -> dict[str, float]:
        """The five PKI metrics of the paper's Table 4."""
        return {
            "I-$ Misses": self.pki("l1i_misses"),
            "I-TLB Misses": self.pki("itlb_misses"),
            "D-$ Misses": self.pki("l1d_misses"),
            "D-TLB Misses": self.pki("dtlb_misses"),
            "Branch Mispredictions": self.pki("branch_mispredictions"),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={getattr(self, n)}" for n in _FIELDS if getattr(self, n))
        return f"PerfCounters({inner})"
