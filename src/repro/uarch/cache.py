"""Set-associative cache model with LRU replacement.

Only hit/miss behaviour is modelled (no data): the paper's results are
counts of misses per kilo-instruction, which depend on tag state alone.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.uarch.component import check_geometry, decode_lru_sets, encode_lru_sets


class SetAssociativeCache:
    """A set-associative, LRU, allocate-on-miss cache.

    Used for both L1I and L1D.  Addresses are byte addresses; the cache
    indexes by line.
    """

    def __init__(self, name: str, size_bytes: int, line_bytes: int, ways: int) -> None:
        if size_bytes % (line_bytes * ways) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by line*ways {line_bytes * ways}"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"{name}: set count {self.n_sets} must be a power of two")
        self._set_mask = self.n_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        if (1 << self._line_shift) != line_bytes:
            raise ConfigError(f"{name}: line size {line_bytes} must be a power of two")
        # Per set: dict tag -> last-use stamp, kept in LRU order (least
        # recently used first) so eviction is O(1) instead of a min()
        # scan.  Hits delete and re-insert their key to move it to the
        # end, so stamps strictly increase along each set; snapshots
        # store every set as one flat row in this order.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def access_line(self, line: int) -> bool:
        """Access one cache line by line number; returns True on hit."""
        self.accesses += 1
        self._stamp += 1
        index = line & self._set_mask
        tag = line >> self._set_mask.bit_length() if self._set_mask else line
        entries = self._sets[index]
        if tag in entries:
            del entries[tag]  # move to MRU position (dict insertion order)
            entries[tag] = self._stamp
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            del entries[next(iter(entries))]  # first key is LRU
        entries[tag] = self._stamp
        return False

    def access(self, addr: int) -> bool:
        """Access the line containing byte address ``addr``."""
        return self.access_line(addr >> self._line_shift)

    def access_range(self, addr: int, nbytes: int) -> int:
        """Access every line covered by ``[addr, addr+nbytes)``; returns misses."""
        if nbytes <= 0:
            return 0
        first = addr >> self._line_shift
        last = (addr + nbytes - 1) >> self._line_shift
        before = self.misses
        for line in range(first, last + 1):
            self.access_line(line)
        return self.misses - before

    def line_of(self, addr: int) -> int:
        """Line number containing ``addr``."""
        return addr >> self._line_shift

    def contains(self, addr: int) -> bool:
        """Non-mutating residency probe (no stats, no LRU update)."""
        line = self.line_of(addr)
        index = line & self._set_mask
        tag = line >> self._set_mask.bit_length() if self._set_mask else line
        return tag in self._sets[index]

    def flush(self) -> None:
        """Invalidate all lines (stats are preserved)."""
        for entries in self._sets:
            entries.clear()

    @property
    def line_shift(self) -> int:
        """``log2(line_bytes)`` — byte address → line number shift."""
        return self._line_shift

    def hot_state(self) -> tuple:
        """Lookup state for the batched backend's inline hot loop.

        Returns ``(sets, set_mask, tag_shift, ways)``; ``sets`` is the
        live per-set table list (mutated in place by the caller), and
        ``tag_shift`` is ``set_mask.bit_length()`` — for a single-set
        structure the mask is 0, the shift is 0, and ``line >> 0`` equals
        the whole line, matching :meth:`access_line`'s tag rule.
        """
        return (self._sets, self._set_mask, self._set_mask.bit_length(), self.ways)

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """Complete tag/LRU state plus stats, JSON-safe."""
        return {
            "name": self.name,
            "n_sets": self.n_sets,
            "ways": self.ways,
            "line_bytes": self.line_bytes,
            "sets": encode_lru_sets(self._sets),
            "stamp": self._stamp,
            "accesses": self.accesses,
            "misses": self.misses,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on an identically shaped cache."""
        check_geometry(
            self.name,
            state,
            n_sets=self.n_sets,
            ways=self.ways,
            line_bytes=self.line_bytes,
        )
        self._sets = decode_lru_sets(self.name, state["sets"], self.n_sets, self.ways)
        self._stamp = int(state["stamp"])
        self.accesses = int(state["accesses"])
        self.misses = int(state["misses"])

    def reset(self) -> None:
        """Cold cache: empty sets, zeroed stats."""
        self.flush()
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def describe(self) -> dict:
        """Static geometry."""
        return {
            "kind": "set_associative_cache",
            "name": self.name,
            "size_bytes": self.n_sets * self.ways * self.line_bytes,
            "line_bytes": self.line_bytes,
            "ways": self.ways,
            "n_sets": self.n_sets,
        }

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        return self.misses / self.accesses if self.accesses else 0.0
