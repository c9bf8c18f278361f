"""Library-call popularity profiles.

Figure 4 of the paper shows per-workload trampoline frequency curves with
two regimes: a *core* of library calls exercised for essentially every
request (the steep plateau-and-cutoff of Apache and Memcached) and a
Zipf-like tail of rarer calls (the shallow slope of Firefox).  A
:class:`PopularityProfile` parameterises that mixture.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class PopularityProfile:
    """Mixture of a near-uniform core and a Zipf tail.

    Attributes:
        core_size: number of calls in the per-request core set.
        core_mass: probability mass given to the core (uniform within it).
        zipf_s: Zipf exponent of the tail (smaller = shallower curve).
    """

    core_size: int = 0
    core_mass: float = 0.0
    zipf_s: float = 1.0

    def __post_init__(self) -> None:
        if self.core_size < 0:
            raise ConfigError("core_size must be non-negative")
        if not 0.0 <= self.core_mass < 1.0:
            raise ConfigError("core_mass must be in [0, 1)")
        if self.core_size > 0 and self.core_mass == 0.0:
            raise ConfigError("a non-empty core needs positive core_mass")
        if self.zipf_s <= 0:
            raise ConfigError("zipf_s must be positive")

    def weights(self, universe: int) -> np.ndarray:
        """Sampling weights (summing to 1) for a ranked universe."""
        if universe < 1:
            raise ConfigError("universe must contain at least one call")
        core = min(self.core_size, universe)
        out = np.zeros(universe, dtype=np.float64)
        tail = universe - core
        if core and tail:
            out[:core] = self.core_mass / core
            ranks = np.arange(1, tail + 1, dtype=np.float64)
            tail_w = ranks**-self.zipf_s
            out[core:] = (1.0 - self.core_mass) * tail_w / tail_w.sum()
        elif core:
            out[:core] = 1.0 / core
        else:
            ranks = np.arange(1, universe + 1, dtype=np.float64)
            tail_w = ranks**-self.zipf_s
            out[:] = tail_w / tail_w.sum()
        return out


class Draws:
    """Scalar draws from a ``default_rng`` generator, draw for draw equal
    to its own methods but without their per-call argument handling.

    ``below(n)`` equals ``int(rng.integers(0, n))``: numpy's Lemire
    reduction of 32-bit draws, each 64-bit word of the bit generator
    yielding its low half first and keeping the high half for the next
    bounded draw.  numpy keeps that half inside the bit generator, where
    ``random_raw`` cannot see it, so this helper keeps its own: once a
    generator is wrapped, every bounded draw on it must go through
    ``below``.  Bounds outside ``(1, 2**32]`` go to numpy: ``n == 1``
    draws nothing, and larger bounds take 64-bit draws, which never
    touch the kept half.  ``random()`` is ``(word >> 11) * 2**-53``,
    numpy's double; ``normal`` and ``random(size)`` are numpy's own,
    since they consume whole words.
    """

    __slots__ = ("_rng", "_raw", "_half", "normal")

    def __init__(self, rng: np.random.Generator) -> None:
        if type(rng.bit_generator) is not np.random.PCG64:
            raise ConfigError(
                f"Draws needs default_rng's PCG64, got {type(rng.bit_generator).__name__}"
            )
        self._rng = rng
        self._raw = rng.bit_generator.random_raw
        self._half: int | None = None
        self.normal = rng.normal

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``."""
        if not 1 < n <= 0x1_0000_0000:
            return int(self._rng.integers(0, n))
        # The first 32-bit draw is _next32 inlined: this is the hot path.
        half = self._half
        if half is None:
            word = self._raw()
            self._half = word >> 32
            m = (word & 0xFFFFFFFF) * n
        else:
            self._half = None
            m = half * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x1_0000_0000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * n
        return m >> 32

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._raw()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def random(self, size: int | None = None):
        """A double in ``[0, 1)``, or ``size`` of them as an array."""
        if size is None:
            return (self._raw() >> 11) * 1.1102230246251565e-16  # 2**-53
        return self._rng.random(size)


class WeightedSampler:
    """Draws ranked indices according to a popularity profile.

    Sampling uses an inverse-CDF lookup on a cached cumulative table,
    giving O(log n) draws from a caller-supplied ``numpy`` generator (or
    :class:`Draws`).  ``sample`` bisects a list copy of the table, which
    gives the index ``np.searchsorted(side="right")`` gives.
    """

    def __init__(self, weights: np.ndarray) -> None:
        if weights.ndim != 1 or len(weights) == 0:
            raise ConfigError("weights must be a non-empty 1-D array")
        total = float(weights.sum())
        if total <= 0:
            raise ConfigError("weights must sum to a positive value")
        self._cdf = np.cumsum(weights / total)
        self._cdf[-1] = 1.0
        self._cdf_list = self._cdf.tolist()

    def __len__(self) -> int:
        return len(self._cdf)

    def sample(self, rng: np.random.Generator | Draws) -> int:
        """Draw one index."""
        return bisect_right(self._cdf_list, rng.random())

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` indices at once."""
        return np.searchsorted(self._cdf, rng.random(n), side="right")
