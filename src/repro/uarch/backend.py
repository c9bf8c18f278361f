"""Batched simulation backend: retire one structure at a time.

The reference interpreter (:meth:`repro.uarch.cpu.CPU.run`) dispatches one
handler per :class:`~repro.isa.events.TraceEvent` and touches every
structure for every event.  :class:`BatchedBackend` retires the same
stream as numpy :class:`~repro.trace.batch.TraceBatch` windows of at most
``batch_events`` rows, and within a window it visits each structure once,
in passes:

1. **control** — a scalar pass over the branch, call, store and
   coherence rows only.  It owns the BTB, gshare, RAS, ABTB and Bloom
   filter and fires every :class:`~repro.uarch.cpu.CPUHooks` callback,
   following ``CPU._trampoline_pair`` and the branch handlers row by row.
   Without hooks, a store or coherence row that cannot hit the Bloom
   filter only counts its query (:meth:`BatchedBackend._idle_snoops`).
   Trampoline pairs are found from the trace alone (a ``CALL_DIRECT``
   followed by the ``JMP_INDIRECT`` at its target, optionally through a
   ≤12-byte ``BLOCK`` stub), so the pass yields a *fetch mask* without
   the stub rows of skipped pairs, a *data mask* (loads, stores,
   indirect-call loads and the GOT loads of executed jumps) and the rows
   charged a misprediction or a BTB bubble;
2. **L1I** and **I-TLB** over the lines and pages of the fetched rows;
3. **D-TLB** and **L1D** over the data rows;
4. **L2** over both sides' L1 misses in row order, I-side before D-side
   within a row (I-side probes use the L1I line number, as ``CPU._fetch``
   passes it to ``l2.access_line``);
5. **marks**, priced from the counts before their rows.

Nothing on the control side reads cache or TLB state and every cache and
TLB keeps its own LRU stamp, so the passes are exact.  Within a cache or
TLB pass a run of ``r`` consecutive touches of one line or page is one
probe whose entry takes the stamp after the run: the most recently used
entry cannot have been evicted, so the remaining touches are hits.

**Cycles** are priced, never summed: both engines apply
:func:`~repro.uarch.counters.cycles_of` to counts, so equal counts give
bit-identical cycles.  Each pass yields the sorted rows that charged a
priced count (L1I, L2, I-TLB, D-TLB and L1D misses, mispredictions and
BTB bubbles).  A ``MARK`` prices the counts before its row: the running
totals plus ``np.searchsorted`` of its row in each of those arrays, and
the fetched instructions' cumulative sum.  A ``CONTEXT_SWITCH`` splits
the window: the rows before it retire, ``CPU._context_switch`` runs,
then the rest.

**Sync points.** ``sync_hook(position)`` fires after every window.  A
window normally ends where its batch ends, but if it ends on an open
pair head — a ``CALL_DIRECT``, or a ``CALL_DIRECT`` plus a ≤12-byte
``BLOCK`` at its target — it extends into the next batch until it no
longer does, and the next window starts after the borrowed rows.  That
covers exactly the rows the reference's lookahead reads, so at every
sync point a full :meth:`CPU.snapshot` equals a reference run over the
first ``position`` events.  :mod:`repro.difftest` enforces this.

**Shared prefix.**  Only a skipped trampoline makes an enhanced machine
fetch or load other rows than a base machine, so the memory passes
(2–4) of a pair's two runs are identical until the first span that
skips.  With a :class:`~repro.uarch.machine.SharedPrefix`, the run that
retires first records its caches, TLBs and memory counters before that
span (or before a span holding a ``MARK``, since marks are priced from
memory counts); the other run runs only the control pass until the
recorded row and adopts the record there.  Its sync points before that
row hold a stale memory side.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.isa.events import event_from_row
from repro.isa.kinds import BRANCH_KINDS, MAX_EVENT_KIND, EventKind
from repro.trace.batch import TraceBatch, iter_batches
from repro.uarch.counters import PerfCounters, cycles_of
from repro.uarch.cpu import Mark

_K_BLOCK = int(EventKind.BLOCK)
_K_CALL_DIRECT = int(EventKind.CALL_DIRECT)
_K_CALL_INDIRECT = int(EventKind.CALL_INDIRECT)
_K_JMP_INDIRECT = int(EventKind.JMP_INDIRECT)
_K_JMP_DIRECT = int(EventKind.JMP_DIRECT)
_K_RET = int(EventKind.RET)
_K_COND_BRANCH = int(EventKind.COND_BRANCH)
_K_LOAD = int(EventKind.LOAD)
_K_STORE = int(EventKind.STORE)
_K_CONTEXT_SWITCH = int(EventKind.CONTEXT_SWITCH)
_K_MARK = int(EventKind.MARK)
_K_COHERENCE_INVAL = int(EventKind.COHERENCE_INVAL)

#: ARM-style stubs longer than this are not trampoline prefixes.
_MAX_STUB_BYTES = 12


def _kind_table(kinds) -> np.ndarray:
    table = np.zeros(MAX_EVENT_KIND + 1, bool)
    table[[int(k) for k in kinds]] = True
    return table


#: Kinds that are fetched (before skipped stub rows are masked out).
_FETCHED = ~_kind_table(
    (EventKind.MARK, EventKind.CONTEXT_SWITCH, EventKind.COHERENCE_INVAL)
)
_BRANCH = _kind_table(BRANCH_KINDS)


def _open_head(tail: list) -> bool:
    """Does the reference's pair lookahead read past these last rows?

    ``tail`` holds up to the last two ``(kind, pc, nbytes, target)`` rows
    of a window.
    """
    if not tail:
        return False
    kind, pc, nbytes, _ = tail[-1]
    if kind == _K_CALL_DIRECT:
        return True
    if len(tail) < 2 or kind != _K_BLOCK or nbytes > _MAX_STUB_BYTES:
        return False
    head_kind, _, _, head_target = tail[-2]
    return head_kind == _K_CALL_DIRECT and pc == head_target


def _row(data: np.ndarray, i: int) -> tuple:
    row = data[i]
    return int(row["kind"]), int(row["pc"]), int(row["nbytes"]), int(row["target"])


def _lru_pass(structure, keys: np.ndarray) -> np.ndarray:
    """Probe ``structure`` (a cache or TLB) with ``keys`` in order.

    Consecutive repeats collapse into one probe stamped as the last touch
    of the run.  Updates the structure's LRU state, stamp and stats, and
    returns the indices into ``keys`` of the touches that missed.
    """
    n = len(keys)
    if not n:
        return np.empty(0, np.intp)
    new = np.empty(n, bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    run_keys = keys[starts]
    stamps = np.empty(len(starts), np.int64)
    stamps[:-1] = starts[1:]
    stamps[-1] = n
    stamps += structure._stamp
    sets, mask, tag_shift, ways = structure.hot_state()
    # Each set is a dict in LRU order: re-inserting a tag makes it MRU,
    # and the first key is the victim.  A miss is recorded by its stamp,
    # which is unique and increasing, so it finds its probe afterwards.
    missed = []
    miss = missed.append
    for index, tag, stamp in zip(
        (run_keys & mask).tolist(), (run_keys >> tag_shift).tolist(), stamps.tolist()
    ):
        entries = sets[index]
        if tag in entries:
            del entries[tag]
        else:
            miss(stamp)
            if len(entries) >= ways:
                del entries[next(iter(entries))]
        entries[tag] = stamp
    structure._stamp += n
    structure.accesses += n
    structure.misses += len(missed)
    return starts[np.searchsorted(stamps, missed)]


def _spans(first: np.ndarray, last: np.ndarray, rows: np.ndarray):
    """Expand inclusive ``[first, last]`` ranges into one key per touch,
    with the row each touch belongs to."""
    counts = last - first + 1
    total = int(counts.sum())
    if total == len(first):
        return first, rows
    ends = np.cumsum(counts)
    offsets = np.repeat(first - (ends - counts), counts)
    return offsets + np.arange(total), np.repeat(rows, counts)


class BatchedBackend:
    """Drives a :class:`~repro.uarch.cpu.CPU` over batched traces.

    The backend owns no architectural state: everything lives in the CPU
    and its components, exactly as under the reference interpreter, so
    snapshots, checkpoints and hook observations are unchanged.  A
    backend instance is reusable but not reentrant.
    """

    def __init__(self, cpu, batch_events: int = 4096) -> None:
        if batch_events < 1:
            raise ConfigError(f"batch_events must be positive, got {batch_events}")
        self.cpu = cpu
        self.batch_events = batch_events
        self._position = 0
        self._prefix = None

    @property
    def position(self) -> int:
        """Stream events retired so far."""
        return self._position

    # ----------------------------------------------------------------- run

    def run(self, events, sync_hook=None):
        """Process an event stream; returns the CPU's (live) counters.

        ``sync_hook(position)`` is called after each window retires; at
        that point the CPU state equals a reference run over the first
        ``position`` stream events, and ``counters.cycles`` holds the
        cycles those counts price to.
        """
        return self.run_batches(iter_batches(events, self.batch_events), sync_hook)

    def run_batches(self, batches, sync_hook=None, prefix=None):
        """Like :meth:`run`, but consumes :class:`TraceBatch` objects
        directly — the array-native hot path.

        Oversized batches are re-cut into zero-copy views
        (:meth:`TraceBatch.slices`) of at most ``batch_events`` rows, so
        sync-point spacing (and therefore difftest comparability) is
        identical to a :meth:`run` over the same stream.

        ``prefix`` (a :class:`~repro.uarch.machine.SharedPrefix`) lets
        the two runs of an uncached pair retire their shared start once.
        A recording prefix is recorded before the first span whose
        control pass skips a trampoline or that holds a ``MARK`` (marks
        are priced from the memory counts).  An adopting prefix makes
        every span before the recorded row run the control pass only;
        the span that starts at that row adopts the record first and
        then retires whole.  So at the sync points before that row the
        memory side and ``counters.cycles`` are stale: only the
        positions mean anything there.
        """
        cap = self.batch_events
        chunks = (
            piece
            for batch in batches
            if len(batch)
            for piece in (batch.slices(cap) if len(batch) > cap else (batch,))
        )
        cpu = self.cpu
        self._position = 0
        self._prefix = prefix if prefix is not None and not prefix.done else None
        cur = next(chunks, None)
        start = 0
        while cur is not None:
            pieces = [TraceBatch(cur.data[start:], cur.tags) if start else cur]
            data = pieces[0].data
            tail = [_row(data, i) for i in range(max(0, len(data) - 2), len(data))]
            nxt = next(chunks, None)
            start = 0
            # A pair head at the window end borrows the rows its
            # lookahead reads from the following batches.
            while nxt is not None and _open_head(tail):
                if start == len(nxt):
                    pieces.append(nxt)
                    nxt = next(chunks, None)
                    start = 0
                    continue
                tail = [tail[-1], _row(nxt.data, start)]
                start += 1
            if start:
                pieces.append(TraceBatch(nxt.data[:start], nxt.tags))
            window = pieces[0] if len(pieces) == 1 else TraceBatch.concat(pieces)
            self._retire(window)
            self._position += len(window)
            if sync_hook is not None:
                cpu.counters.cycles = cpu.cycles
                sync_hook(self._position)
            cur = nxt
        if prefix is not None:
            prefix.offset += self._position
        cpu.counters.cycles = cpu.cycles
        return cpu.counters

    def _retire(self, window: TraceBatch) -> None:
        """Retire one window, split at its context switches."""
        data = window.data
        if not len(data):
            return
        cols = {
            name: np.ascontiguousarray(data[name])
            for name in ("kind", "pc", "n_instr", "nbytes", "target", "mem_addr", "taken", "tag")
        }
        lo = 0
        for cs in np.flatnonzero(cols["kind"] == _K_CONTEXT_SWITCH).tolist():
            if cs > lo:
                self._retire_span(cols, window.tags, lo, cs)
            self.cpu._context_switch()
            lo = cs + 1
        if lo < len(data):
            self._retire_span(cols, window.tags, lo, len(data))

    # ------------------------------------------------------------- passes

    def _retire_span(self, cols: dict, tags: list, lo: int, hi: int) -> None:
        """Retire rows ``[lo, hi)``, which contain no context switch."""
        cpu = self.cpu
        c = cpu.counters
        kind = cols["kind"][lo:hi]
        pc = cols["pc"][lo:hi]
        n_instr = cols["n_instr"][lo:hi]
        nbytes = cols["nbytes"][lo:hi]
        mem_addr = cols["mem_addr"][lo:hi]
        m = hi - lo

        # Trampoline pairs, from the trace alone: the jump row of every
        # pair head (two rows on for an ARM stub).  A pair never spans a
        # context switch or a window end, so no row past ``hi`` is in one.
        target = cols["target"][lo:hi]
        heads = np.flatnonzero(kind == _K_CALL_DIRECT)
        jump_of = np.full(m, -1, np.int64)
        if len(heads):
            h = heads[heads + 1 < m]
            x86 = h[(kind[h + 1] == _K_JMP_INDIRECT) & (pc[h + 1] == target[h])]
            jump_of[x86] = x86 + 1
            h = heads[heads + 2 < m]
            s = h + 1
            arm = h[
                (kind[s] == _K_BLOCK)
                & (pc[s] == target[h])
                & (nbytes[s] <= _MAX_STUB_BYTES)
                & (kind[s + 1] == _K_JMP_INDIRECT)
                & (pc[s + 1] == pc[s] + nbytes[s])
            ]
            jump_of[arm] = arm + 2

        skipped, mispredicted, bubbled = self._control(cols, tags, lo, kind, jump_of)
        marks = np.flatnonzero(kind == _K_MARK)
        prefix = self._prefix
        if prefix is not None:
            start = prefix.offset + self._position + lo
            if not prefix.adopting:
                if len(skipped) or len(marks):
                    prefix.record(cpu, start)
                    self._prefix = None
            elif start < prefix.at:
                # Shared with the recorded run: only the control side.
                c.branch_mispredictions += len(mispredicted)
                c.btb_bubbles += len(bubbled)
                return
            else:
                prefix.adopt(cpu, start)
                self._prefix = None

        fetched = _FETCHED[kind]
        is_data = (kind == _K_LOAD) | (kind == _K_STORE) | (
            ((kind == _K_CALL_INDIRECT) | (kind == _K_JMP_INDIRECT)) & (mem_addr != 0)
        )
        if len(skipped):
            jumps = jump_of[skipped]
            fetched[jumps] = False
            fetched[jumps[jumps == skipped + 2] - 1] = False
            is_data[jumps] = False

        # Fetch side: L1I lines and I-TLB pages of every fetched row.
        rows = np.flatnonzero(fetched)
        fpc = pc[rows]
        flast = fpc + np.maximum(nbytes[rows], 1) - 1
        i_shift = cpu.l1i.line_shift
        lines, line_rows = _spans(fpc >> i_shift, flast >> i_shift, rows)
        i_miss = _lru_pass(cpu.l1i, lines)
        i_miss_rows = line_rows[i_miss]
        p_shift = cpu.itlb.page_shift
        pages, page_rows = _spans(fpc >> p_shift, flast >> p_shift, rows)
        it_miss_rows = page_rows[_lru_pass(cpu.itlb, pages)]

        # Data side: D-TLB then L1D over the data rows.
        drows = np.flatnonzero(is_data)
        daddr = mem_addr[drows]
        dt_miss_rows = drows[_lru_pass(cpu.dtlb, daddr >> cpu.dtlb.page_shift)]
        d1_miss = _lru_pass(cpu.l1d, daddr >> cpu.l1d.line_shift)
        d1_miss_rows = drows[d1_miss]

        # L2: both sides' misses in row order, I-side first within a row.
        order = np.argsort(
            np.concatenate((i_miss_rows * 2, d1_miss_rows * 2 + 1)), kind="stable"
        )
        l2_keys = np.concatenate((lines[i_miss], daddr[d1_miss] >> cpu.l2.line_shift))
        l2_rows = np.concatenate((i_miss_rows, d1_miss_rows))[order]
        l2_miss_rows = l2_rows[_lru_pass(cpu.l2, l2_keys[order])]

        # The priced counts, as the sorted rows that charged them.
        charged = {
            "l1i_misses": i_miss_rows,
            "l2_misses": l2_miss_rows,
            "itlb_misses": it_miss_rows,
            "dtlb_misses": dt_miss_rows,
            "l1d_misses": d1_miss_rows,
            "branch_mispredictions": mispredicted,
            "btb_bubbles": bubbled,
        }
        n_fetched = np.where(fetched, n_instr, 0)
        if len(marks):
            # A mark's cycles price the counts before its row.
            at = PerfCounters(instructions=np.cumsum(n_fetched)[marks] + c.instructions)
            for name, where in charged.items():
                setattr(at, name, getattr(c, name) + np.searchsorted(where, marks))
            tag_idx = cols["tag"][lo:hi][marks]
            cpu.marks.extend(
                Mark(None if ti < 0 else tags[ti], n, cyc)
                for ti, n, cyc in zip(
                    tag_idx.tolist(),
                    at.instructions.tolist(),
                    cycles_of(cpu.config, at).tolist(),
                )
            )

        for name, where in charged.items():
            setattr(c, name, getattr(c, name) + len(where))
        n_lines, n_pages, n_data = len(lines), len(pages), len(drows)
        n_stores = int(np.count_nonzero(kind == _K_STORE))
        c.instructions += int(n_fetched.sum())
        c.l1i_accesses += n_lines
        c.itlb_accesses += n_pages
        c.dtlb_accesses += n_data
        c.l1d_accesses += n_data
        c.l2_accesses += len(l2_keys)
        c.loads += n_data - n_stores
        c.stores += n_stores
        c.got_loads += int(np.count_nonzero(kind[drows] == _K_JMP_INDIRECT))
        c.branches += int(np.count_nonzero(_BRANCH[kind[rows]]))

    def _control(self, cols: dict, tags: list, lo: int, kind, jump_of) -> tuple:
        """The control pass over rows ``lo + [0, len(kind))``.

        Retires every branch, store and coherence row against the BTB,
        gshare, RAS and mechanism, firing hooks in stream order.  Returns
        sorted row arrays: the heads of the skipped trampoline pairs, then
        the rows charged a misprediction and the rows charged a BTB bubble.
        """
        cpu = self.cpu
        c = cpu.counters
        mech = cpu.mechanism
        hooks = cpu.hooks
        control = (kind != _K_BLOCK) & (kind != _K_LOAD) & (kind != _K_MARK)
        if hooks is None:
            # A hooked CPU sees every store; otherwise a snoop only
            # enters the loop if it can change the mechanism's state.
            control &= ~self._idle_snoops(cols, tags, lo, kind, jump_of)
        control[jump_of[jump_of >= 0]] = False
        rows = np.flatnonzero(control)
        at = rows + lo
        pcs = cols["pc"][at]
        jumps = jump_of[rows]
        jat = np.where(jumps >= 0, jumps + lo, at)  # unpaired rows point at themselves
        arm = jumps == rows + 2
        stub_instr = np.zeros(len(rows), np.int64)
        stub_instr[arm] = cols["n_instr"][at[arm] + 1]
        flags = ()
        if tags:
            named = [(t == "plt", t == "got-store") for t in tags] + [(False, False)]
            flags = np.array(named)[cols["tag"][at]].tolist()
        taken = cols["taken"][at].tolist()
        returns = (pcs + cols["nbytes"][at]).tolist()
        jump_rows = jumps.tolist()
        jump_pcs = cols["pc"][jat].tolist()
        jump_targets = cols["target"][jat].tolist()
        jump_addrs = cols["mem_addr"][jat].tolist()
        stub_instr = stub_instr.tolist()

        btb, gshare, ras = cpu.btb, cpu.gshare, cpu.ras
        b_sets, b_mask, b_ways, b_stamp = btb._sets, btb._set_mask, btb.ways, btb._stamp
        lookups = btb_misses = updates = 0
        g_table, g_mask, g_hmask = gshare._table, gshare._mask, gshare._history_mask
        g_hist = gshare._history
        g_preds = g_mis = 0
        r_stack, r_depth = ras._stack, ras.depth
        r_pushes = r_pops = r_mis = 0
        abtb_hits = abtb_misses = abtb_inserts = 0
        executed = skips = tramp_instr = 0
        mispredicted, bubbled, skipped = [], [], []
        mapped = None

        for j, (r, k, pc, tgt, ma) in enumerate(
            zip(
                rows.tolist(),
                kind[rows].tolist(),
                pcs.tolist(),
                cols["target"][at].tolist(),
                cols["mem_addr"][at].tolist(),
            )
        ):
            if k == _K_STORE:
                if hooks is not None:
                    hooks.on_store(ma)
                if mech is not None:
                    mech.snoop_store(ma)
                    if flags and flags[j][1] and not mech.config.use_bloom:
                        # Section 3.4: without the Bloom filter the dynamic
                        # linker invalidates the ABTB on every GOT rewrite.
                        mech.invalidate()
                continue
            if k == _K_COND_BRANCH:
                g_preds += 1
                gi = ((pc >> 2) ^ g_hist) & g_mask
                counter = g_table[gi]
                if not taken[j]:
                    if counter > 0:
                        g_table[gi] = counter - 1
                    g_hist = (g_hist << 1) & g_hmask
                    if counter >= 2:
                        g_mis += 1
                        mispredicted.append(r)
                    continue
                if counter < 3:
                    g_table[gi] = counter + 1
                g_hist = ((g_hist << 1) | 1) & g_hmask
                if counter < 2:
                    g_mis += 1
                    mispredicted.append(r)
            elif k == _K_RET:
                r_pops += 1
                if (r_stack.pop() if r_stack else None) != tgt:
                    r_mis += 1
                    mispredicted.append(r)
                continue
            elif k == _K_COHERENCE_INVAL:
                if mech is not None:
                    mech.coherence_invalidate(ma)
                continue
            elif k == _K_CALL_DIRECT or k == _K_CALL_INDIRECT:
                r_pushes += 1
                if len(r_stack) >= r_depth:
                    del r_stack[0]  # circular overflow
                r_stack.append(returns[j])

            # The branch's BTB lookup.
            lookups += 1
            entries = b_sets[(pc >> 2) & b_mask]
            hit = entries.get(pc)
            if hit is None:
                btb_misses += 1
                pred = None
            else:
                b_stamp += 1
                del entries[pc]
                pred = hit[0]
                entries[pc] = (pred, b_stamp)

            if k == _K_CALL_DIRECT:
                # A plain call, or the head of a trampoline pair.
                jr = jump_rows[j]
                before = len(mispredicted)
                update = None
                if mech is not None and jr >= 0:
                    jt = jump_targets[j]
                    mapped = mech.mapped_target(tgt)
                    if mapped is not None:
                        abtb_hits += 1
                    else:
                        abtb_misses += 1
                    if mapped is not None and pred == mapped:
                        # Promoted prediction validated by the ABTB: the
                        # stub is never fetched.
                        if mapped != jt:
                            mech.note_unsafe_skip()
                        skips += 1
                        skipped.append(r)
                        if hooks is not None:
                            hooks.on_skip(
                                self._event(cols, tags, r + lo),
                                self._event(cols, tags, jr + lo),
                                mapped,
                            )
                            hooks.on_trampoline(
                                pc, jump_pcs[j], mapped, True, 0, False, True, False
                            )
                        continue
                    # The modified update logic installs the mapped target.
                    if pred is not None and pred != tgt and pred != (mapped or -1):
                        mispredicted.append(r)
                        update = mapped if mapped is not None else tgt
                    elif pred is None:
                        bubbled.append(r)
                        update = mapped if mapped is not None else tgt
                        if mapped is not None:
                            mech.note_promotion()
                    elif mapped is not None and pred == tgt:
                        update = mapped
                        mech.note_promotion()
                else:
                    mapped = None
                    if pred is None:
                        bubbled.append(r)
                        update = tgt
                    elif pred != tgt:
                        mispredicted.append(r)
                        update = tgt
                if update is not None:
                    updates += 1
                    b_stamp += 1
                    if pred is not None:
                        del entries[pc]
                    elif len(entries) >= b_ways:
                        del entries[next(iter(entries))]
                    entries[pc] = (update, b_stamp)
                if jr < 0:
                    continue

                # The trampoline executes: its jump's BTB lookup and update.
                sni = stub_instr[j]
                jpc = jump_pcs[j]
                jt = jump_targets[j]
                jma = jump_addrs[j]
                executed += 1
                tramp_instr += 1 + sni
                lookups += 1
                jentries = b_sets[(jpc >> 2) & b_mask]
                hit = jentries.get(jpc)
                if hit is None:
                    btb_misses += 1
                    tpred = None
                else:
                    b_stamp += 1
                    del jentries[jpc]
                    tpred = hit[0]
                    jentries[jpc] = (tpred, b_stamp)
                if tpred != jt:
                    mispredicted.append(jr)
                updates += 1
                b_stamp += 1
                if jpc in jentries:
                    del jentries[jpc]
                elif len(jentries) >= b_ways:
                    del jentries[next(iter(jentries))]
                jentries[jpc] = (jt, b_stamp)
                if mech is not None and jma:
                    # Retire-time learning promotes the call's entry.
                    mech.learn(pc, tgt, jt, jma)
                    abtb_inserts += 1
                    updates += 1
                    b_stamp += 1
                    if pc in entries:
                        del entries[pc]
                    elif len(entries) >= b_ways:
                        del entries[next(iter(entries))]
                    entries[pc] = (jt, b_stamp)
                    mech.note_promotion()
                if hooks is not None:
                    hooks.on_trampoline(
                        pc,
                        jpc,
                        jt,
                        False,
                        1 + sni,
                        bool(jma),
                        mapped is not None,
                        len(mispredicted) > before,
                    )
                continue

            if k == _K_COND_BRANCH:
                if pred is None:
                    bubbled.append(r)
            elif k == _K_JMP_DIRECT:
                if pred is not None:
                    continue
                bubbled.append(r)
            else:
                # CALL_INDIRECT, or a JMP_INDIRECT outside a pair.
                wrong = pred != tgt
                if wrong:
                    mispredicted.append(r)
                if k == _K_JMP_INDIRECT and flags and flags[j][0]:
                    # A trampoline reached by a tail call: it executes,
                    # but the call+branch pattern never learns it.
                    executed += 1
                    tramp_instr += 1
                    if hooks is not None:
                        hooks.on_trampoline(pc, pc, tgt, False, 1, bool(ma), False, wrong)
            # The BTB update after the lookup.
            updates += 1
            b_stamp += 1
            if pred is not None:
                del entries[pc]
            elif len(entries) >= b_ways:
                del entries[next(iter(entries))]
            entries[pc] = (tgt, b_stamp)

        btb._stamp = b_stamp
        btb.lookups += lookups
        btb.misses += btb_misses
        btb.updates += updates
        gshare._history = g_hist
        gshare.predictions += g_preds
        gshare.mispredictions += g_mis
        ras.pushes += r_pushes
        ras.pops += r_pops
        ras.mispredictions += r_mis
        c.btb_lookups += lookups
        c.btb_misses += btb_misses
        c.trampolines_executed += executed
        c.trampolines_skipped += skips
        c.trampoline_instructions += tramp_instr
        c.abtb_hits += abtb_hits
        c.abtb_misses += abtb_misses
        c.abtb_inserts += abtb_inserts
        return tuple(np.array(rows, np.intp) for rows in (skipped, mispredicted, bubbled))

    def _idle_snoops(self, cols: dict, tags: list, lo: int, kind, jump_of) -> np.ndarray:
        """Mask of the store and coherence rows of rows ``lo + [0,
        len(kind))`` that cannot change the mechanism's state (every one
        without a mechanism), with their Bloom queries counted.

        Filter bits are set only by learning a pair jump's ``mem_addr``,
        so a snoop that :meth:`BloomFilter.could_hit` rejects against
        the span's pair jumps misses whatever the loop does before it.
        Without the filter (Section 3.4) only a ``got-store`` acts.
        """
        snoops = (kind == _K_STORE) | (kind == _K_COHERENCE_INVAL)
        mech = self.cpu.mechanism
        if mech is None:
            return snoops
        rows = np.flatnonzero(snoops)
        if mech.config.use_bloom:
            addrs = cols["mem_addr"][lo:lo + len(kind)]
            live = mech.bloom.could_hit(addrs[rows], addrs[jump_of[jump_of >= 0]])
            mech.bloom.queries += len(rows) - int(np.count_nonzero(live))
        else:
            got = [i for i, tag in enumerate(tags) if tag == "got-store"]
            live = (kind[rows] == _K_STORE) & np.isin(cols["tag"][rows + lo], got)
        snoops[rows[live]] = False
        return snoops

    @staticmethod
    def _event(cols: dict, tags: list, i: int):
        """Row ``i`` of a window as a :class:`TraceEvent` (for hooks)."""
        ti = int(cols["tag"][i])
        return event_from_row(
            int(cols["kind"][i]),
            int(cols["pc"][i]),
            int(cols["n_instr"][i]),
            int(cols["nbytes"][i]),
            int(cols["target"][i]),
            int(cols["mem_addr"][i]),
            int(cols["taken"][i]),
            None if ti < 0 else tags[ti],
        )
