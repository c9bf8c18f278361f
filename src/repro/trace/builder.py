"""Array-native trace construction.

:class:`BatchBuilder` is the emission side of the numpy-native trace
pipeline: generators append flat integer rows (8 ints per event, matching
:data:`~repro.trace.batch.EVENT_DTYPE` column order) to a plain Python
list and :meth:`BatchBuilder.build` converts the whole run into a
:class:`~repro.trace.batch.TraceBatch` in a handful of numpy calls.  This
skips the per-event ``TraceEvent`` object construction *and* the
``from_events`` attribute harvest, which together dominate legacy trace
generation cost.

Row layout (all ints)::

    (kind, pc, n_instr, nbytes, target, mem_addr, taken, tag_index)

``tag_index`` is an index into the builder's tag table (``-1`` = no tag),
interned first-appearance-first exactly like ``TraceBatch.from_events``
dedupes tags — so a builder-built batch serialises byte-identically to a
``from_events``-built batch of the same events.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.isa.events import TraceEvent
from repro.isa.kinds import EventKind
from repro.trace.batch import EVENT_DTYPE, TagTable, TraceBatch

#: Integer event-kind constants for hot row emission (``EventKind.X`` is an
#: IntEnum — attribute access plus ``int()`` per event is measurable).
K_BLOCK = int(EventKind.BLOCK)
K_CALL_DIRECT = int(EventKind.CALL_DIRECT)
K_CALL_INDIRECT = int(EventKind.CALL_INDIRECT)
K_JMP_INDIRECT = int(EventKind.JMP_INDIRECT)
K_JMP_DIRECT = int(EventKind.JMP_DIRECT)
K_RET = int(EventKind.RET)
K_COND_BRANCH = int(EventKind.COND_BRANCH)
K_LOAD = int(EventKind.LOAD)
K_STORE = int(EventKind.STORE)
K_CONTEXT_SWITCH = int(EventKind.CONTEXT_SWITCH)
K_MARK = int(EventKind.MARK)

#: Number of flat ints per event row.
ROW_WIDTH = 8


class BatchBuilder:
    """Accumulates flat integer event rows and builds a :class:`TraceBatch`.

    Attributes:
        rows: flat list of ints, :data:`ROW_WIDTH` per event.  Emitters
            append with ``rows += (kind, pc, ni, nb, tgt, ma, taken, tag)``
            — tuple concatenation onto a list is the fastest append path
            CPython offers for fixed-width records.
        tags: the batch tag table being interned into.
    """

    __slots__ = ("rows", "_table")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self._table = TagTable()

    def __len__(self) -> int:
        return len(self.rows) // ROW_WIDTH

    @property
    def tags(self) -> list:
        return self._table.tags

    def tag_id(self, tag: object) -> int:
        """Intern ``tag`` (first-appearance order) and return its index."""
        return self._table.intern(tag)

    def extend_events(self, events: Iterable[TraceEvent]) -> None:
        """Append already-materialised events (the generic fallback used
        for cold resolver walks and non-templated linking modes)."""
        rows = self.rows
        for ev in events:
            tag = ev.tag
            rows += (
                int(ev.kind),
                ev.pc,
                ev.n_instr,
                ev.nbytes,
                ev.target,
                ev.mem_addr,
                1 if ev.taken else 0,
                -1 if tag is None else self.tag_id(tag),
            )

    def take(self) -> TraceBatch:
        """Build everything appended so far and start an empty chunk.

        The row list is cleared in place, so ``rows`` aliases held by
        emitters stay valid; the next chunk interns its tags afresh.
        """
        batch = self.build()
        self.rows.clear()
        self._table = TagTable()
        return batch

    def build(self) -> TraceBatch:
        """Convert everything appended so far into one :class:`TraceBatch`."""
        n = len(self.rows) // ROW_WIDTH
        data = np.empty(n, dtype=EVENT_DTYPE)
        if n:
            flat = np.array(self.rows, dtype=np.int64).reshape(n, ROW_WIDTH)
            data["kind"] = flat[:, 0]
            data["pc"] = flat[:, 1]
            data["n_instr"] = flat[:, 2]
            data["nbytes"] = flat[:, 3]
            data["target"] = flat[:, 4]
            data["mem_addr"] = flat[:, 5]
            data["taken"] = flat[:, 6]
            data["tag"] = flat[:, 7]
        return TraceBatch(data, list(self.tags))
