"""Bloom filter over GOT slot addresses.

The mechanism keeps a small Bloom filter containing the GOT addresses that
back live ABTB entries.  Every retired store (and incoming coherence
invalidation) probes the filter; a hit means some ABTB mapping *may* now be
stale, so the whole ABTB (and the filter itself) is cleared — correctness
by conservative flush (paper Section 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """SplitMix64 finaliser: a fast, well-distributed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array (wrapping arithmetic)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def positions_array(keys: np.ndarray, bits: int, hashes: int) -> np.ndarray:
    """Bit positions of many keys at once: row ``i`` holds what
    :meth:`BloomFilter._positions` returns for ``keys[i]``."""
    h1 = _splitmix64_array(np.asarray(keys).astype(np.uint64))
    h2 = _splitmix64_array(h1) | np.uint64(1)
    steps = np.arange(hashes, dtype=np.uint64)
    return ((h1[:, None] + steps * h2[:, None]) & np.uint64(bits - 1)).astype(np.intp)


class BloomFilter:
    """A counting-free Bloom filter sized for hardware implementation.

    Attributes:
        bits: number of filter bits (power of two).
        hashes: number of hash functions.
    """

    def __init__(self, bits: int = 1024, hashes: int = 2) -> None:
        if bits < 8 or bits & (bits - 1):
            raise ConfigError(f"bloom bits must be a power of two >= 8, got {bits}")
        if not 1 <= hashes <= 8:
            raise ConfigError(f"bloom hash count must be in [1, 8], got {hashes}")
        self.bits = bits
        self.hashes = hashes
        self._mask = bits - 1
        # Bit ``pos`` is bit ``pos & 7`` of byte ``pos >> 3``: a probe or
        # insert touches one byte, where a Python int bitset would copy
        # the whole filter on every shift.
        self._bytes = bytearray(bits // 8)
        # Distinct keys currently represented (re-inserting a key the
        # filter already holds must not grow the population, or the
        # analytic false-positive estimate drifts from reality).
        self._keys: set[int] = set()
        # key -> bit positions; pure function of (key, geometry), so the
        # cache survives clears.  The batched backend probes only the
        # stores :meth:`could_hit` keeps, so it fills the cache with
        # learned keys and those candidates alone.  Bounded defensively:
        # hashing is cheap enough that a rare full drop is invisible.
        self._pos_cache: dict[int, list[int]] = {}
        self.adds = 0
        self.queries = 0
        self.hits = 0

    def _positions(self, key: int) -> list[int]:
        pos = self._pos_cache.get(key)
        if pos is None:
            h1 = _splitmix64(key)
            h2 = _splitmix64(h1) | 1  # odd, so double hashing cycles all bits
            pos = [((h1 + i * h2) & _MASK64) & self._mask for i in range(self.hashes)]
            if len(self._pos_cache) >= (1 << 20):
                self._pos_cache.clear()
            self._pos_cache[key] = pos
        return pos

    def add(self, key: int) -> None:
        """Insert a key (a GOT slot address).

        Duplicate inserts are idempotent: they set no new bits and leave
        the population unchanged.
        """
        self.adds += 1
        b = self._bytes
        for pos in self._positions(key):
            b[pos >> 3] |= 1 << (pos & 7)
        self._keys.add(key)

    def maybe_contains(self, key: int) -> bool:
        """Probe; False is definitive, True may be a false positive."""
        self.queries += 1
        if not self._keys:
            # The probe is counted (hardware always queries), but an
            # empty filter has no bits set: the miss is immediate.
            return False
        b = self._bytes
        for pos in self._positions(key):
            if not b[pos >> 3] >> (pos & 7) & 1:
                return False
        self.hits += 1
        return True

    def could_hit(self, keys: np.ndarray, learned: np.ndarray) -> np.ndarray:
        """Mask of the ``keys`` a probe could hit while only ``learned``
        keys are added.

        A key is kept when every one of its bit positions is set now or
        by one of ``learned``.  :meth:`add` is the only thing that sets
        bits, so a key this rejects misses every probe, however those
        adds, probes and clears interleave.
        """
        union = np.unpackbits(np.frombuffer(self._bytes, np.uint8), bitorder="little")
        union[positions_array(learned, self.bits, self.hashes)] = 1
        return union[positions_array(keys, self.bits, self.hashes)].all(axis=1)

    def clear(self) -> None:
        """Reset all bits (performed together with an ABTB flush)."""
        self._bytes = bytearray(self.bits // 8)
        self._keys.clear()

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """Bitset (hex-encoded), the key set, and stats, JSON-safe."""
        return {
            "bits": self.bits,
            "hashes": self.hashes,
            "bitset": hex(int.from_bytes(self._bytes, "little")),
            "keys": sorted(self._keys),
            "population": len(self._keys),
            "adds": self.adds,
            "queries": self.queries,
            "hits": self.hits,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on an identically sized filter."""
        if state.get("bits") != self.bits or state.get("hashes") != self.hashes:
            raise ConfigError(
                f"bloom: snapshot (bits={state.get('bits')!r}, "
                f"hashes={state.get('hashes')!r}) does not match instance "
                f"(bits={self.bits}, hashes={self.hashes})"
            )
        bitset = int(state["bitset"], 16)
        if bitset < 0 or bitset >> self.bits:
            raise ConfigError(
                f"bloom: snapshot bitset {state['bitset']!r} does not fit "
                f"{self.bits} bits"
            )
        b = bytearray(bitset.to_bytes(self.bits // 8, "little"))
        keys = {int(k) for k in state["keys"]}
        if int(state["population"]) != len(keys):
            raise ConfigError(
                f"bloom: snapshot population {state['population']!r} does "
                f"not match its {len(keys)} distinct keys"
            )
        for key in keys:
            for pos in self._positions(key):
                if not b[pos >> 3] >> (pos & 7) & 1:
                    raise ConfigError(
                        f"bloom: snapshot bitset is missing bit {pos} for "
                        f"key {key:#x}"
                    )
        self._bytes = b
        self._keys = keys
        self.adds = int(state["adds"])
        self.queries = int(state["queries"])
        self.hits = int(state["hits"])

    def reset(self) -> None:
        """Cleared bits, zeroed stats."""
        self.clear()
        self.adds = 0
        self.queries = 0
        self.hits = 0

    def describe(self) -> dict:
        """Static configuration."""
        return {
            "kind": "bloom_filter",
            "bits": self.bits,
            "hashes": self.hashes,
            "storage_bytes": self.storage_bytes,
        }

    @property
    def population(self) -> int:
        """Distinct keys inserted since the last clear."""
        return len(self._keys)

    @property
    def set_bits(self) -> int:
        """Number of bits currently set."""
        return int.from_bytes(self._bytes, "little").bit_count()

    @property
    def false_positive_rate(self) -> float:
        """Analytic false-positive estimate for the current population."""
        population = len(self._keys)
        if population == 0:
            return 0.0
        fill = 1.0 - (1.0 - 1.0 / self.bits) ** (self.hashes * population)
        return fill**self.hashes

    @property
    def storage_bytes(self) -> int:
        """Hardware storage of the filter in bytes."""
        return self.bits // 8
