"""Branch target buffer model.

The BTB stores predicted targets indexed by branch PC.  It is the structure
the paper's mechanism reuses: the modified update logic writes the *library
function* address into a call site's entry instead of the trampoline
address, which is what makes the front end skip the trampoline.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.uarch.component import check_geometry, decode_lru_sets


class BTB:
    """Set-associative branch target buffer with LRU replacement."""

    def __init__(self, entries: int = 2048, ways: int = 4) -> None:
        if entries % ways != 0:
            raise ConfigError(f"BTB: {entries} entries not divisible by {ways} ways")
        self.ways = ways
        self.n_sets = entries // ways
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"BTB: set count {self.n_sets} must be a power of two")
        self._set_mask = self.n_sets - 1
        # Per set: pc -> (target, stamp), kept in LRU order (least
        # recently used first) for O(1) eviction; see cache.py.
        self._sets: list[dict[int, tuple[int, int]]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0
        self.lookups = 0
        self.misses = 0
        self.updates = 0

    def _set_for(self, pc: int) -> dict[int, tuple[int, int]]:
        return self._sets[(pc >> 2) & self._set_mask]

    def lookup(self, pc: int) -> int | None:
        """Predicted target for the branch at ``pc`` (None on miss)."""
        self.lookups += 1
        entries = self._set_for(pc)
        hit = entries.get(pc)
        if hit is None:
            self.misses += 1
            return None
        self._stamp += 1
        del entries[pc]  # move to MRU position (dict insertion order)
        entries[pc] = (hit[0], self._stamp)
        return hit[0]

    def update(self, pc: int, target: int) -> None:
        """Install or correct the target for the branch at ``pc``."""
        self.updates += 1
        self._stamp += 1
        entries = self._set_for(pc)
        if pc in entries:
            del entries[pc]
        elif len(entries) >= self.ways:
            del entries[next(iter(entries))]  # first key is LRU
        entries[pc] = (target, self._stamp)

    def peek(self, pc: int) -> int | None:
        """Non-mutating probe (no stats, no LRU update)."""
        hit = self._set_for(pc).get(pc)
        return hit[0] if hit is not None else None

    def invalidate(self, pc: int) -> None:
        """Drop the entry for one branch if present."""
        self._set_for(pc).pop(pc, None)

    def flush(self) -> None:
        """Invalidate every entry."""
        for entries in self._sets:
            entries.clear()

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """Complete prediction/LRU state plus stats, JSON-safe."""
        return {
            "n_sets": self.n_sets,
            "ways": self.ways,
            # One flat [pc, target, stamp, …] row per set, in LRU order.
            "sets": [
                [x for pc, (target, stamp) in entries.items() for x in (pc, target, stamp)]
                for entries in self._sets
            ],
            "stamp": self._stamp,
            "lookups": self.lookups,
            "misses": self.misses,
            "updates": self.updates,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on an identically shaped BTB."""
        check_geometry("BTB", state, n_sets=self.n_sets, ways=self.ways)
        self._sets = decode_lru_sets("BTB", state["sets"], self.n_sets, self.ways, width=3)
        self._stamp = int(state["stamp"])
        self.lookups = int(state["lookups"])
        self.misses = int(state["misses"])
        self.updates = int(state["updates"])

    def reset(self) -> None:
        """Cold BTB: empty sets, zeroed stats."""
        self.flush()
        self._stamp = 0
        self.lookups = 0
        self.misses = 0
        self.updates = 0

    def describe(self) -> dict:
        """Static geometry."""
        return {
            "kind": "btb",
            "entries": self.n_sets * self.ways,
            "ways": self.ways,
            "n_sets": self.n_sets,
        }

    @property
    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(len(s) for s in self._sets)
