"""Batched (vectorized hot path) simulation backend.

The reference interpreter (:meth:`repro.uarch.cpu.CPU.run`) dispatches one
handler call per :class:`~repro.isa.events.TraceEvent` and pays Python
attribute-access overhead for every counter bump and structure probe.  On
the long workload profiles ~99% of events are straight-line ``BLOCK``
runs, plain ``LOAD``/``STORE`` accesses, branches, and direct or
indirect calls and jumps (including the call + ``jmp *GOT`` trampoline
pairs the paper's mechanism targets) — kinds whose entire effect is
cache/TLB/predictor arithmetic plus calls into mechanism-owned state.

:class:`BatchedBackend` exploits that split:

* the event stream is cut into :class:`~repro.trace.batch.TraceBatch`
  chunks (numpy structured arrays); cache-line and TLB-page numbers for
  whole batches are derived with vectorized shifts up front;
* a tight scalar loop retires the fast kinds against local copies of the
  hot counters and the live cache/TLB/BTB/gshare/RAS state, mirroring
  :meth:`CPU._fetch` / :meth:`CPU._data_access` / the branch and
  trampoline-pair handlers operation-for-operation — including float
  addition order, so cycle totals are bit-identical.  Consecutive
  touches of the same cache line or TLB page (the common case for
  sequential fetch) are retired as guaranteed hits without re-probing
  the set, which is exact because the most recently used entry of a
  structure cannot have been evicted.  Trampoline-pair lookahead becomes
  an index peek at the next batch rows instead of a cursor round trip;
* everything else — context switches, coherence invalidations, calls
  whose trampoline lookahead crosses the batch boundary, and every kind
  when hooks observe the CPU — *falls back to the reference
  interpreter*: local state is synced into the
  CPU, the event retires through ``CPU._dispatch`` exactly as the
  reference backend would retire it, and the locals are reloaded.

Because the fallback runs the reference code itself and the fast path is
a literal transcription of it, the two backends are counter-for-counter
equivalent — a property enforced mechanically by :mod:`repro.difftest`
rather than assumed.

The backend reports a *sync point* after every batch (``sync_hook``): at
that moment no lookahead is outstanding, ``counters.cycles`` is synced,
and a full :meth:`CPU.snapshot` is comparable against a reference run
that consumed the same number of stream events.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, TraceError
from repro.isa.events import event_from_row
from repro.isa.kinds import MAX_EVENT_KIND, EventKind
from repro.trace.batch import TraceBatch, iter_batches
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
_K_MARK = int(EventKind.MARK)


class _DecodedBatch:
    """One :class:`TraceBatch` unpacked for the scalar hot loop.

    Columns are plain Python lists (indexing numpy scalars in a tight
    loop is slower than ``tolist()`` once); line/page numbers are
    precomputed for the whole batch with vectorized shifts.
    """

    __slots__ = (
        "n",
        "kind",
        "pc",
        "n_instr",
        "nbytes",
        "target",
        "mem_addr",
        "taken",
        "tag_idx",
        "tags",
        "ifirst",
        "ilast",
        "pfirst",
        "plast",
        "dvpn",
        "dline",
        "dline2",
    )

    def __init__(
        self,
        batch: TraceBatch,
        i_shift: int,
        it_shift: int,
        d1_shift: int,
        l2_shift: int,
        dt_shift: int,
    ) -> None:
        data = batch.data
        self.n = len(data)
        self.kind = data["kind"].tolist()
        pc = data["pc"]
        nb = data["nbytes"]
        ma = data["mem_addr"]
        self.pc = pc.tolist()
        self.n_instr = data["n_instr"].tolist()
        self.nbytes = nb.tolist()
        self.target = data["target"].tolist()
        self.mem_addr = ma.tolist()
        self.taken = data["taken"].tolist()
        # Most batches carry no tags at all; skip the column then.
        self.tag_idx = data["tag"].tolist() if batch.tags else None
        self.tags = batch.tags
        # Fetch spans: first/last code byte of each event, as the
        # reference computes them (``pc + max(nbytes, 1) - 1``).
        last_byte = pc + np.maximum(nb, 1) - 1
        self.ifirst = (pc >> i_shift).tolist()
        self.ilast = (last_byte >> i_shift).tolist()
        self.pfirst = (pc >> it_shift).tolist()
        self.plast = (last_byte >> it_shift).tolist()
        # Data side: D-TLB page and L1D line of ``mem_addr``; the L2 is
        # probed by its own line shift (equal to L1D's under the default
        # registry, in which case the column is shared).
        self.dvpn = (ma >> dt_shift).tolist()
        self.dline = (ma >> d1_shift).tolist()
        self.dline2 = (
            self.dline if l2_shift == d1_shift else (ma >> l2_shift).tolist()
        )

    def event(self, i: int):
        """Materialise row ``i`` for a reference-handler fallback."""
        ti = -1 if self.tag_idx is None else self.tag_idx[i]
        return event_from_row(
            self.kind[i],
            self.pc[i],
            self.n_instr[i],
            self.nbytes[i],
            self.target[i],
            self.mem_addr[i],
            self.taken[i],
            None if ti < 0 else self.tags[ti],
        )


class _BatchCursor:
    """The :class:`~repro.uarch.cpu.EventCursor` protocol over batches.

    Reference handlers passed a fallback event use this to look ahead
    (trampoline-pair detection) and push non-matching events back.  It
    reads straight from the backend's position, so lookahead can cross a
    batch boundary transparently.
    """

    __slots__ = ("_be",)

    def __init__(self, backend: "BatchedBackend") -> None:
        self._be = backend

    def next(self):
        be = self._be
        if be._pending:
            return be._pending.pop()
        while True:
            dec = be._cur
            if dec is None:
                return None
            i = be._i
            if i < dec.n:
                be._i = i + 1
                return dec.event(i)
            be._advance()

    def push(self, ev) -> None:
        self._be._pending.append(ev)


class BatchedBackend:
    """Drives a :class:`~repro.uarch.cpu.CPU` over batched traces.

    The backend owns no architectural state: everything lives in the CPU
    and its components, exactly as under the reference interpreter, so
    snapshots, checkpoints and mid-run hook observations are unchanged.
    A backend instance is reusable but not reentrant.
    """

    def __init__(self, cpu, batch_events: int = 4096) -> None:
        if batch_events < 1:
            raise ConfigError(f"batch_events must be positive, got {batch_events}")
        self.cpu = cpu
        self.batch_events = batch_events
        self._fast: tuple = ()
        self._shifts: tuple = ()
        self._batches = iter(())
        self._cur: _DecodedBatch | None = None
        self._i = 0
        self._base = 0
        self._pending: list = []
        self._cursor = _BatchCursor(self)

    @property
    def position(self) -> int:
        """Stream events consumed so far (lookahead included)."""
        return self._base + self._i

    # ----------------------------------------------------------------- run

    def run(self, events, sync_hook=None):
        """Process an event stream; returns the CPU's (live) counters.

        ``sync_hook(position)`` is called after each batch retires; at
        that point no lookahead is outstanding and the CPU state
        (``counters.cycles`` included) equals a reference run over the
        first ``position`` stream events.
        """
        self._batches = iter_batches(events, self.batch_events)
        return self._drive(sync_hook)

    def run_batches(self, batches, sync_hook=None):
        """Like :meth:`run`, but consumes :class:`TraceBatch` objects
        directly — the array-native hot path.

        No ``to_events`` / ``from_events`` round trip happens: oversized
        batches are re-cut into zero-copy views
        (:meth:`TraceBatch.slices`) of at most ``batch_events`` rows, so
        sync-point spacing (and therefore difftest comparability) is
        identical to a :meth:`run` over the same stream.
        """

        def resliced():
            cap = self.batch_events
            for batch in batches:
                m = len(batch)
                if not m:
                    continue
                if m <= cap:
                    yield batch
                else:
                    yield from batch.slices(cap)

        self._batches = resliced()
        return self._drive(sync_hook)

    def _drive(self, sync_hook):
        """Retire ``self._batches`` against the CPU (shared by
        :meth:`run` and :meth:`run_batches`)."""
        cpu = self.cpu
        fast = [False] * (MAX_EVENT_KIND + 1)
        fast[_K_BLOCK] = True
        fast[_K_LOAD] = True
        fast[_K_COND_BRANCH] = True
        fast[_K_RET] = True
        fast[_K_JMP_DIRECT] = True
        fast[_K_MARK] = True
        # Hooks want full event context for stores and trampoline pairs,
        # so an instrumented CPU retires those on the reference path.
        # (Store *snooping* goes through the mechanism's own methods —
        # its state needs no syncing — so a mechanism alone is fine.)
        fast[_K_STORE] = cpu.hooks is None
        fast[_K_CALL_DIRECT] = cpu.hooks is None
        fast[_K_CALL_INDIRECT] = cpu.hooks is None
        fast[_K_JMP_INDIRECT] = cpu.hooks is None
        self._fast = tuple(fast)
        self._shifts = (
            cpu.l1i.line_shift,
            cpu.itlb.page_shift,
            cpu.l1d.line_shift,
            cpu.l2.line_shift,
            cpu.dtlb.page_shift,
        )
        self._cur = None
        self._i = 0
        self._base = 0
        self._pending = []
        self._advance()
        while self._cur is not None:
            dec = self._cur
            self._run_batch(dec)
            if self._cur is dec and self._i >= dec.n:
                self._advance()
            if sync_hook is not None:
                cpu.counters.cycles = cpu.cycles
                sync_hook(self.position)
        cpu.counters.cycles = cpu.cycles
        return cpu.counters

    def _advance(self) -> None:
        """Move to the next batch (decoding it), or to end-of-stream."""
        if self._cur is not None:
            self._base += self._cur.n
        batch = next(self._batches, None)
        if batch is None:
            self._cur = None
            self._i = 0
            return
        self._cur = _DecodedBatch(batch, *self._shifts)
        self._i = 0

    # ---------------------------------------------------------- state sync
    #
    # The hot loop works on local copies of every scalar it mutates: the
    # cycle clock, counter fields, cache/TLB stamp/stats, and the BTB /
    # gshare / RAS scalars.  They are written back before any reference
    # handler runs and reloaded afterwards, so handlers always see (and
    # update) the truth.  Container state (set dicts, the gshare counter
    # table, the RAS stack) is mutated in place through shared
    # references; those references are refetched after every fallback in
    # case a handler replaced the container.

    def _load_state(self) -> tuple:
        cpu = self.cpu
        c = cpu.counters
        l1i, l2, l1d, itlb, dtlb = cpu.l1i, cpu.l2, cpu.l1d, cpu.itlb, cpu.dtlb
        btb, gshare, ras = cpu.btb, cpu.gshare, cpu.ras
        return (
            cpu.cycles,
            c.instructions,
            c.loads,
            c.stores,
            c.branches,
            c.branch_mispredictions,
            c.btb_lookups,
            c.btb_misses,
            c.trampolines_executed,
            c.trampolines_skipped,
            c.trampoline_instructions,
            c.got_loads,
            c.abtb_hits,
            c.abtb_misses,
            c.abtb_inserts,
            c.l1i_accesses,
            c.l1i_misses,
            c.l1d_accesses,
            c.l1d_misses,
            c.l2_accesses,
            c.l2_misses,
            c.itlb_accesses,
            c.itlb_misses,
            c.dtlb_accesses,
            c.dtlb_misses,
            l1i._stamp,
            l1i.accesses,
            l1i.misses,
            l2._stamp,
            l2.accesses,
            l2.misses,
            l1d._stamp,
            l1d.accesses,
            l1d.misses,
            itlb._stamp,
            itlb.accesses,
            itlb.misses,
            dtlb._stamp,
            dtlb.accesses,
            dtlb.misses,
            btb._stamp,
            btb.lookups,
            btb.misses,
            btb.updates,
            gshare._history,
            gshare.predictions,
            gshare.mispredictions,
            ras.pushes,
            ras.pops,
            ras.mispredictions,
        )

    def _store_state(self, state: tuple) -> None:
        cpu = self.cpu
        c = cpu.counters
        l1i, l2, l1d, itlb, dtlb = cpu.l1i, cpu.l2, cpu.l1d, cpu.itlb, cpu.dtlb
        btb, gshare, ras = cpu.btb, cpu.gshare, cpu.ras
        (
            cpu.cycles,
            c.instructions,
            c.loads,
            c.stores,
            c.branches,
            c.branch_mispredictions,
            c.btb_lookups,
            c.btb_misses,
            c.trampolines_executed,
            c.trampolines_skipped,
            c.trampoline_instructions,
            c.got_loads,
            c.abtb_hits,
            c.abtb_misses,
            c.abtb_inserts,
            c.l1i_accesses,
            c.l1i_misses,
            c.l1d_accesses,
            c.l1d_misses,
            c.l2_accesses,
            c.l2_misses,
            c.itlb_accesses,
            c.itlb_misses,
            c.dtlb_accesses,
            c.dtlb_misses,
            l1i._stamp,
            l1i.accesses,
            l1i.misses,
            l2._stamp,
            l2.accesses,
            l2.misses,
            l1d._stamp,
            l1d.accesses,
            l1d.misses,
            itlb._stamp,
            itlb.accesses,
            itlb.misses,
            dtlb._stamp,
            dtlb.accesses,
            dtlb.misses,
            btb._stamp,
            btb.lookups,
            btb.misses,
            btb.updates,
            gshare._history,
            gshare.predictions,
            gshare.mispredictions,
            ras.pushes,
            ras.pops,
            ras.mispredictions,
        ) = state

    # ----------------------------------------------------------- the loop

    def _run_batch(self, dec: _DecodedBatch) -> None:
        """Retire the current batch (and any lookahead it drags in).

        Returns with ``self._pending`` empty; ``self._cur``/``self._i``
        may point past ``dec`` when a trampoline pair straddled the
        batch boundary.
        """
        cpu = self.cpu
        t = cpu.config.timing
        base_cpi = t.base_cpi
        lat_i1 = t.l1i_miss
        lat_l2 = t.l2_miss
        lat_it = t.itlb_miss
        lat_dt = t.dtlb_miss
        lat_d1 = t.l1d_miss
        lat_mp = t.mispredict
        bubble = cpu.config.direct_btb_bubble
        l1i, l2, l1d, itlb, dtlb = cpu.l1i, cpu.l2, cpu.l1d, cpu.itlb, cpu.dtlb
        btb = cpu.btb
        gshare = cpu.gshare
        ras = cpu.ras
        b_sets = btb._sets
        b_mask = btb._set_mask
        b_ways = btb.ways
        g_table = gshare._table
        g_mask = gshare._mask
        g_hmask = gshare._history_mask
        r_stack = ras._stack
        r_depth = ras.depth
        marks_append = cpu.marks.append
        mech = cpu.mechanism
        snoop = mech.snoop_store if mech is not None else None
        mech_invalidate = mech.invalidate if mech is not None else None
        use_bloom = mech.config.use_bloom if mech is not None else True
        mapped_target = mech.mapped_target if mech is not None else None
        mech_learn = mech.learn if mech is not None else None
        note_promotion = mech.note_promotion if mech is not None else None
        note_unsafe_skip = mech.note_unsafe_skip if mech is not None else None
        i_sets, i_mask, i_tagshift, i_ways = l1i.hot_state()
        l2_sets, l2_mask, l2_tagshift, l2_ways = l2.hot_state()
        d1_sets, d1_mask, d1_tagshift, d1_ways = l1d.hot_state()
        it_sets, it_mask, it_tagshift, it_ways = itlb.hot_state()
        dt_sets, dt_mask, dt_tagshift, dt_ways = dtlb.hot_state()

        kinds = dec.kind
        pcs = dec.pc
        n_instrs = dec.n_instr
        nbs = dec.nbytes
        targets = dec.target
        mem_addrs = dec.mem_addr
        takens = dec.taken
        tag_idx = dec.tag_idx
        tags = dec.tags
        ifirst, ilast = dec.ifirst, dec.ilast
        pfirst, plast = dec.pfirst, dec.plast
        dvpns, dlines, dlines2 = dec.dvpn, dec.dline, dec.dline2
        n = dec.n
        fast = self._fast
        dispatch = cpu._dispatch
        cursor = self._cursor
        pending = self._pending
        # A fast-kind event that cannot be retired inline (a direct call
        # whose trampoline lookahead crosses the batch end) sets this to
        # route exactly one dispatch unit through the reference path.
        force_slow = False

        # MRU shortcut state for the fetch side: the most recently
        # touched L1I line / I-TLB page is guaranteed resident, so a
        # repeat touch is a hit whose only effect is accesses+1,
        # stamp+1, entry=stamp (the entry is already in MRU dict
        # position).  Sequential fetch makes this hit ~50% of the time;
        # the data side shows no such locality on the workload profiles
        # (<1% repeat lines), so D accesses always take the full probe.
        # A sentinel of -1 (no valid address shifts to it) disables the
        # shortcut; it is reset whenever a reference handler runs, since
        # handlers probe the same structures.
        last_iline = -1
        last_ie: dict = {}
        last_itg = 0
        last_vpn = -1
        last_pe: dict = {}
        last_ptg = 0

        (
            cycles,
            c_instr,
            c_loads,
            c_stores,
            c_branches,
            c_mispred,
            c_btb_lk,
            c_btb_miss,
            c_tramp_exec,
            c_tramp_skip,
            c_tramp_instr,
            c_got_loads,
            c_abtb_hits,
            c_abtb_misses,
            c_abtb_inserts,
            c_l1i_acc,
            c_l1i_mis,
            c_l1d_acc,
            c_l1d_mis,
            c_l2_acc,
            c_l2_mis,
            c_it_acc,
            c_it_mis,
            c_dt_acc,
            c_dt_mis,
            i_stamp,
            i_acc,
            i_mis,
            l2_stamp,
            l2_acc,
            l2_mis,
            d1_stamp,
            d1_acc,
            d1_mis,
            it_stamp,
            it_acc,
            it_mis,
            dt_stamp,
            dt_acc,
            dt_mis,
            b_stamp,
            b_lookups,
            b_misses,
            b_updates,
            g_hist,
            g_preds,
            g_mis,
            r_pushes,
            r_pops,
            r_mis,
        ) = self._load_state()

        while True:
            i = self._i
            if not pending and (self._cur is not dec or i >= n):
                break
            if not pending and not force_slow and fast[kinds[i]]:
                # ------------------------------------------- fast path
                while i < n:
                    k = kinds[i]
                    if not fast[k]:
                        break
                    if k == _K_MARK:
                        ti = -1 if tag_idx is None else tag_idx[i]
                        marks_append(
                            Mark(None if ti < 0 else tags[ti], c_instr, cycles)
                        )
                        i += 1
                        continue
                    if k == _K_CALL_DIRECT:
                        # Trampoline-pair lookahead as an index peek
                        # (CPU._handle_call_direct's cursor protocol).
                        # pair_s: ARM stub row or -1; pair_j: indirect
                        # branch row or -1 for a plain direct call.
                        pair_s = -1
                        pair_j = -1
                        nj = i + 1
                        if nj >= n:
                            force_slow = True  # lookahead leaves the batch
                            break
                        nk = kinds[nj]
                        if nk == _K_JMP_INDIRECT and pcs[nj] == targets[i]:
                            pair_j = nj  # x86-64 stub: branch is the body
                        elif (
                            nk == _K_BLOCK
                            and pcs[nj] == targets[i]
                            and nbs[nj] <= 12
                        ):
                            # ARM-style address-computation prefix.
                            nj2 = i + 2
                            if nj2 >= n:
                                force_slow = True
                                break
                            if (
                                kinds[nj2] == _K_JMP_INDIRECT
                                and pcs[nj2] == pcs[nj] + nbs[nj]
                            ):
                                pair_s = nj
                                pair_j = nj2
                    # --- CPU._fetch, inlined ---
                    ni = n_instrs[i]
                    c_instr += ni
                    cycles += ni * base_cpi
                    line = ifirst[i]
                    lb = ilast[i]
                    vpn = pfirst[i]
                    pb = plast[i]
                    if line == lb == last_iline and vpn == pb == last_vpn:
                        # Whole fetch inside the MRU line and MRU page:
                        # two guaranteed hits (and the reference's
                        # `0 * itlb_miss` charge is a float no-op).
                        c_l1i_acc += 1
                        i_acc += 1
                        i_stamp += 1
                        last_ie[last_itg] = i_stamp
                        c_it_acc += 1
                        it_acc += 1
                        it_stamp += 1
                        last_pe[last_ptg] = it_stamp
                        if k == _K_BLOCK:
                            i += 1
                            continue
                    else:
                        c_l1i_acc += lb - line + 1
                        while True:
                            if line == last_iline:
                                i_acc += 1
                                i_stamp += 1
                                last_ie[last_itg] = i_stamp
                            else:
                                i_acc += 1
                                i_stamp += 1
                                e = i_sets[line & i_mask]
                                tg = line >> i_tagshift
                                if tg in e:
                                    del e[tg]
                                    e[tg] = i_stamp
                                else:
                                    i_mis += 1
                                    if len(e) >= i_ways:
                                        del e[next(iter(e))]
                                    e[tg] = i_stamp
                                    c_l1i_mis += 1
                                    cycles += lat_i1
                                    c_l2_acc += 1
                                    l2_acc += 1
                                    l2_stamp += 1
                                    e2 = l2_sets[line & l2_mask]
                                    tg2 = line >> l2_tagshift
                                    if tg2 in e2:
                                        del e2[tg2]
                                        e2[tg2] = l2_stamp
                                    else:
                                        l2_mis += 1
                                        if len(e2) >= l2_ways:
                                            del e2[next(iter(e2))]
                                        e2[tg2] = l2_stamp
                                        c_l2_mis += 1
                                        cycles += lat_l2
                                last_iline = line
                                last_ie = e
                                last_itg = tg
                            if line >= lb:
                                break
                            line += 1
                        c_it_acc += pb - vpn + 1
                        if vpn == pb and vpn == last_vpn:
                            # Same single page again: guaranteed hit, and
                            # the reference's `0 * itlb_miss` cycle charge
                            # is a float no-op, so skipping it is
                            # bit-exact.
                            it_acc += 1
                            it_stamp += 1
                            last_pe[last_ptg] = it_stamp
                        else:
                            tmiss = 0
                            while True:
                                it_acc += 1
                                it_stamp += 1
                                e = it_sets[vpn & it_mask]
                                tg = vpn >> it_tagshift
                                if tg in e:
                                    del e[tg]
                                    e[tg] = it_stamp
                                else:
                                    it_mis += 1
                                    tmiss += 1
                                    if len(e) >= it_ways:
                                        del e[next(iter(e))]
                                    e[tg] = it_stamp
                                if vpn >= pb:
                                    break
                                vpn += 1
                            last_vpn = vpn
                            last_pe = e
                            last_ptg = tg
                            # One fused add, as the reference charges
                            # I-TLB misses.
                            c_it_mis += tmiss
                            cycles += tmiss * lat_it
                        if k == _K_BLOCK:
                            i += 1
                            continue
                    if k == _K_LOAD or k == _K_STORE:
                        # --- CPU._data_access, inlined ---
                        if k == _K_STORE:
                            c_stores += 1
                        else:
                            c_loads += 1
                        vpn = dvpns[i]
                        dt_acc += 1
                        dt_stamp += 1
                        e = dt_sets[vpn & dt_mask]
                        tg = vpn >> dt_tagshift
                        if tg in e:
                            del e[tg]
                            e[tg] = dt_stamp
                        else:
                            dt_mis += 1
                            if len(e) >= dt_ways:
                                del e[next(iter(e))]
                            e[tg] = dt_stamp
                            c_dt_mis += 1
                            cycles += lat_dt
                        c_dt_acc += 1
                        line = dlines[i]
                        d1_acc += 1
                        d1_stamp += 1
                        e = d1_sets[line & d1_mask]
                        tg = line >> d1_tagshift
                        if tg in e:
                            del e[tg]
                            e[tg] = d1_stamp
                        else:
                            d1_mis += 1
                            if len(e) >= d1_ways:
                                del e[next(iter(e))]
                            e[tg] = d1_stamp
                            c_l1d_mis += 1
                            cycles += lat_d1
                            c_l2_acc += 1
                            line2 = dlines2[i]
                            l2_acc += 1
                            l2_stamp += 1
                            e2 = l2_sets[line2 & l2_mask]
                            tg2 = line2 >> l2_tagshift
                            if tg2 in e2:
                                del e2[tg2]
                                e2[tg2] = l2_stamp
                            else:
                                l2_mis += 1
                                if len(e2) >= l2_ways:
                                    del e2[next(iter(e2))]
                                e2[tg2] = l2_stamp
                                c_l2_mis += 1
                                cycles += lat_l2
                        c_l1d_acc += 1
                        if k == _K_STORE and snoop is not None:
                            # --- CPU._handle_store's mechanism tail ---
                            snoop(mem_addrs[i])
                            if tag_idx is not None and not use_bloom:
                                ti = tag_idx[i]
                                if ti >= 0 and tags[ti] == "got-store":
                                    mech_invalidate()
                    elif k == _K_COND_BRANCH:
                        # --- CPU._cond_branch, inlined past the fetch
                        # (gshare.record and the BTB probe in locals) ---
                        c_branches += 1
                        pc_ = pcs[i]
                        tk = takens[i]
                        g_preds += 1
                        gi = ((pc_ >> 2) ^ g_hist) & g_mask
                        counter = g_table[gi]
                        if tk:
                            if counter < 3:
                                g_table[gi] = counter + 1
                            g_hist = ((g_hist << 1) | 1) & g_hmask
                            if counter < 2:  # predicted not-taken
                                g_mis += 1
                                c_mispred += 1
                                cycles += lat_mp
                            c_btb_lk += 1
                            b_lookups += 1
                            bse = b_sets[(pc_ >> 2) & b_mask]
                            hit = bse.get(pc_)
                            if hit is None:
                                b_misses += 1
                                c_btb_miss += 1
                                cycles += bubble
                            else:
                                b_stamp += 1
                                del bse[pc_]
                                bse[pc_] = (hit[0], b_stamp)
                            # update runs on hit and miss alike
                            b_updates += 1
                            b_stamp += 1
                            if pc_ in bse:
                                del bse[pc_]
                            elif len(bse) >= b_ways:
                                del bse[next(iter(bse))]
                            bse[pc_] = (targets[i], b_stamp)
                        else:
                            if counter > 0:
                                g_table[gi] = counter - 1
                            g_hist = (g_hist << 1) & g_hmask
                            if counter >= 2:  # predicted taken
                                g_mis += 1
                                c_mispred += 1
                                cycles += lat_mp
                    elif k == _K_RET:
                        # --- CPU._ret, inlined past the fetch ---
                        c_branches += 1
                        r_pops += 1
                        if r_stack:
                            predicted = r_stack.pop()
                        else:
                            predicted = None
                        if predicted != targets[i]:
                            r_mis += 1
                            c_mispred += 1
                            cycles += lat_mp
                    elif k == _K_JMP_DIRECT:
                        # --- CPU._jmp_direct, inlined past the fetch ---
                        c_branches += 1
                        c_btb_lk += 1
                        b_lookups += 1
                        pc_ = pcs[i]
                        bse = b_sets[(pc_ >> 2) & b_mask]
                        hit = bse.get(pc_)
                        if hit is None:
                            b_misses += 1
                            c_btb_miss += 1
                            cycles += bubble
                            b_updates += 1
                            b_stamp += 1
                            if len(bse) >= b_ways:
                                del bse[next(iter(bse))]
                            bse[pc_] = (targets[i], b_stamp)
                        else:
                            b_stamp += 1
                            del bse[pc_]
                            bse[pc_] = (hit[0], b_stamp)
                    elif k == _K_CALL_INDIRECT:
                        # --- CPU._call_indirect, inlined past the fetch ---
                        if mem_addrs[i]:
                            # target load: CPU._data_access, inlined
                            c_loads += 1
                            vpn = dvpns[i]
                            dt_acc += 1
                            dt_stamp += 1
                            e = dt_sets[vpn & dt_mask]
                            tg = vpn >> dt_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = dt_stamp
                            else:
                                dt_mis += 1
                                if len(e) >= dt_ways:
                                    del e[next(iter(e))]
                                e[tg] = dt_stamp
                                c_dt_mis += 1
                                cycles += lat_dt
                            c_dt_acc += 1
                            line = dlines[i]
                            d1_acc += 1
                            d1_stamp += 1
                            e = d1_sets[line & d1_mask]
                            tg = line >> d1_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = d1_stamp
                            else:
                                d1_mis += 1
                                if len(e) >= d1_ways:
                                    del e[next(iter(e))]
                                e[tg] = d1_stamp
                                c_l1d_mis += 1
                                cycles += lat_d1
                                c_l2_acc += 1
                                line2 = dlines2[i]
                                l2_acc += 1
                                l2_stamp += 1
                                e2 = l2_sets[line2 & l2_mask]
                                tg2 = line2 >> l2_tagshift
                                if tg2 in e2:
                                    del e2[tg2]
                                    e2[tg2] = l2_stamp
                                else:
                                    l2_mis += 1
                                    if len(e2) >= l2_ways:
                                        del e2[next(iter(e2))]
                                    e2[tg2] = l2_stamp
                                    c_l2_mis += 1
                                    cycles += lat_l2
                            c_l1d_acc += 1
                        c_branches += 1
                        pc_ = pcs[i]
                        r_pushes += 1
                        if len(r_stack) >= r_depth:
                            del r_stack[0]  # circular overflow
                        r_stack.append(pc_ + nbs[i])
                        c_btb_lk += 1
                        b_lookups += 1
                        bse = b_sets[(pc_ >> 2) & b_mask]
                        hit = bse.get(pc_)
                        if hit is None:
                            b_misses += 1
                            c_btb_miss += 1
                            pred = None
                        else:
                            b_stamp += 1
                            del bse[pc_]
                            bse[pc_] = (hit[0], b_stamp)
                            pred = hit[0]
                        if pred != targets[i]:
                            c_mispred += 1
                            cycles += lat_mp
                        # update runs unconditionally
                        b_updates += 1
                        b_stamp += 1
                        if pc_ in bse:
                            del bse[pc_]
                        elif len(bse) >= b_ways:
                            del bse[next(iter(bse))]
                        bse[pc_] = (targets[i], b_stamp)
                    elif k == _K_JMP_INDIRECT:
                        # --- CPU._jmp_indirect, inlined past the fetch.
                        # Only stream-reached stubs land here; pair tails
                        # are consumed by the CALL_DIRECT path above.
                        # (The tail-call hooks callback is void: this kind
                        # is fast only when hooks is None.) ---
                        if mem_addrs[i]:
                            # GOT load: CPU._data_access, inlined
                            c_loads += 1
                            vpn = dvpns[i]
                            dt_acc += 1
                            dt_stamp += 1
                            e = dt_sets[vpn & dt_mask]
                            tg = vpn >> dt_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = dt_stamp
                            else:
                                dt_mis += 1
                                if len(e) >= dt_ways:
                                    del e[next(iter(e))]
                                e[tg] = dt_stamp
                                c_dt_mis += 1
                                cycles += lat_dt
                            c_dt_acc += 1
                            line = dlines[i]
                            d1_acc += 1
                            d1_stamp += 1
                            e = d1_sets[line & d1_mask]
                            tg = line >> d1_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = d1_stamp
                            else:
                                d1_mis += 1
                                if len(e) >= d1_ways:
                                    del e[next(iter(e))]
                                e[tg] = d1_stamp
                                c_l1d_mis += 1
                                cycles += lat_d1
                                c_l2_acc += 1
                                line2 = dlines2[i]
                                l2_acc += 1
                                l2_stamp += 1
                                e2 = l2_sets[line2 & l2_mask]
                                tg2 = line2 >> l2_tagshift
                                if tg2 in e2:
                                    del e2[tg2]
                                    e2[tg2] = l2_stamp
                                else:
                                    l2_mis += 1
                                    if len(e2) >= l2_ways:
                                        del e2[next(iter(e2))]
                                    e2[tg2] = l2_stamp
                                    c_l2_mis += 1
                                    cycles += lat_l2
                            c_l1d_acc += 1
                            c_got_loads += 1
                        c_branches += 1
                        ti = -1 if tag_idx is None else tag_idx[i]
                        if ti >= 0 and tags[ti] == "plt":
                            # Tail-called trampoline: executes, never
                            # learned by the call+branch pattern.
                            c_tramp_exec += 1
                            c_tramp_instr += 1
                        pc_ = pcs[i]
                        c_btb_lk += 1
                        b_lookups += 1
                        bse = b_sets[(pc_ >> 2) & b_mask]
                        hit = bse.get(pc_)
                        if hit is None:
                            b_misses += 1
                            c_btb_miss += 1
                            pred = None
                        else:
                            b_stamp += 1
                            del bse[pc_]
                            bse[pc_] = (hit[0], b_stamp)
                            pred = hit[0]
                        if pred != targets[i]:
                            c_mispred += 1
                            cycles += lat_mp
                        # update runs unconditionally
                        b_updates += 1
                        b_stamp += 1
                        if pc_ in bse:
                            del bse[pc_]
                        elif len(bse) >= b_ways:
                            del bse[next(iter(bse))]
                        bse[pc_] = (targets[i], b_stamp)
                    else:
                        # --- CALL_DIRECT: CPU._call_direct or
                        # CPU._trampoline_pair, inlined past the fetch ---
                        c_branches += 1
                        pc_ = pcs[i]
                        real = targets[i]
                        r_pushes += 1
                        if len(r_stack) >= r_depth:
                            del r_stack[0]  # circular overflow
                        r_stack.append(pc_ + nbs[i])
                        c_btb_lk += 1
                        b_lookups += 1
                        bse = b_sets[(pc_ >> 2) & b_mask]
                        hit = bse.get(pc_)
                        if hit is None:
                            b_misses += 1
                            c_btb_miss += 1
                            pred = None
                        else:
                            b_stamp += 1
                            del bse[pc_]
                            bse[pc_] = (hit[0], b_stamp)
                            pred = hit[0]
                        if pair_j < 0:
                            # Plain direct call.
                            if pred is None:
                                cycles += bubble
                                b_updates += 1
                                b_stamp += 1
                                if len(bse) >= b_ways:
                                    del bse[next(iter(bse))]
                                bse[pc_] = (real, b_stamp)
                            elif pred != real:
                                c_mispred += 1
                                cycles += lat_mp
                                b_updates += 1
                                b_stamp += 1
                                del bse[pc_]
                                bse[pc_] = (real, b_stamp)
                            i += 1
                            continue
                        jpc = pcs[pair_j]
                        jt = targets[pair_j]
                        jma = mem_addrs[pair_j]
                        if mech is not None:
                            mapped = mapped_target(real)
                            if mapped is not None:
                                c_abtb_hits += 1
                            else:
                                c_abtb_misses += 1
                            if mapped is not None and pred == mapped:
                                # Promoted prediction validated by the
                                # ABTB: the stub's rows are consumed
                                # without charging any structure.
                                if mapped != jt:
                                    note_unsafe_skip()
                                c_tramp_skip += 1
                                i = pair_j + 1
                                continue
                            update_target = mapped if mapped is not None else real
                            if (
                                pred is not None
                                and pred != real
                                and pred != (mapped or -1)
                            ):
                                c_mispred += 1
                                cycles += lat_mp
                                b_updates += 1
                                b_stamp += 1
                                del bse[pc_]
                                bse[pc_] = (update_target, b_stamp)
                            elif pred is None:
                                cycles += bubble
                                b_updates += 1
                                b_stamp += 1
                                if len(bse) >= b_ways:
                                    del bse[next(iter(bse))]
                                bse[pc_] = (update_target, b_stamp)
                                if mapped is not None:
                                    note_promotion()
                            elif mapped is not None and pred == real:
                                b_updates += 1
                                b_stamp += 1
                                del bse[pc_]
                                bse[pc_] = (mapped, b_stamp)
                                note_promotion()
                        else:
                            if pred is None:
                                cycles += bubble
                                b_updates += 1
                                b_stamp += 1
                                if len(bse) >= b_ways:
                                    del bse[next(iter(bse))]
                                bse[pc_] = (real, b_stamp)
                            elif pred != real:
                                c_mispred += 1
                                cycles += lat_mp
                                b_updates += 1
                                b_stamp += 1
                                del bse[pc_]
                                bse[pc_] = (real, b_stamp)
                        # --- the trampoline executes ---
                        c_tramp_exec += 1
                        c_tramp_instr += 1 + (n_instrs[pair_s] if pair_s >= 0 else 0)
                        x = pair_s if pair_s >= 0 else pair_j
                        while True:
                            # Fetch the stub prefix (ARM) then the branch
                            # row — same inline fetch as the loop head.
                            ni = n_instrs[x]
                            c_instr += ni
                            cycles += ni * base_cpi
                            line = ifirst[x]
                            lb = ilast[x]
                            c_l1i_acc += lb - line + 1
                            while True:
                                if line == last_iline:
                                    i_acc += 1
                                    i_stamp += 1
                                    last_ie[last_itg] = i_stamp
                                else:
                                    i_acc += 1
                                    i_stamp += 1
                                    e = i_sets[line & i_mask]
                                    tg = line >> i_tagshift
                                    if tg in e:
                                        del e[tg]
                                        e[tg] = i_stamp
                                    else:
                                        i_mis += 1
                                        if len(e) >= i_ways:
                                            del e[next(iter(e))]
                                        e[tg] = i_stamp
                                        c_l1i_mis += 1
                                        cycles += lat_i1
                                        c_l2_acc += 1
                                        l2_acc += 1
                                        l2_stamp += 1
                                        e2 = l2_sets[line & l2_mask]
                                        tg2 = line >> l2_tagshift
                                        if tg2 in e2:
                                            del e2[tg2]
                                            e2[tg2] = l2_stamp
                                        else:
                                            l2_mis += 1
                                            if len(e2) >= l2_ways:
                                                del e2[next(iter(e2))]
                                            e2[tg2] = l2_stamp
                                            c_l2_mis += 1
                                            cycles += lat_l2
                                    last_iline = line
                                    last_ie = e
                                    last_itg = tg
                                if line >= lb:
                                    break
                                line += 1
                            vpn = pfirst[x]
                            pb = plast[x]
                            c_it_acc += pb - vpn + 1
                            if vpn == pb and vpn == last_vpn:
                                it_acc += 1
                                it_stamp += 1
                                last_pe[last_ptg] = it_stamp
                            else:
                                tmiss = 0
                                while True:
                                    it_acc += 1
                                    it_stamp += 1
                                    e = it_sets[vpn & it_mask]
                                    tg = vpn >> it_tagshift
                                    if tg in e:
                                        del e[tg]
                                        e[tg] = it_stamp
                                    else:
                                        it_mis += 1
                                        tmiss += 1
                                        if len(e) >= it_ways:
                                            del e[next(iter(e))]
                                        e[tg] = it_stamp
                                    if vpn >= pb:
                                        break
                                    vpn += 1
                                last_vpn = vpn
                                last_pe = e
                                last_ptg = tg
                                c_it_mis += tmiss
                                cycles += tmiss * lat_it
                            if x >= pair_j:
                                break
                            x = pair_j
                        if jma:
                            # --- GOT load: CPU._data_access, inlined ---
                            c_loads += 1
                            vpn = dvpns[pair_j]
                            dt_acc += 1
                            dt_stamp += 1
                            e = dt_sets[vpn & dt_mask]
                            tg = vpn >> dt_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = dt_stamp
                            else:
                                dt_mis += 1
                                if len(e) >= dt_ways:
                                    del e[next(iter(e))]
                                e[tg] = dt_stamp
                                c_dt_mis += 1
                                cycles += lat_dt
                            c_dt_acc += 1
                            line = dlines[pair_j]
                            d1_acc += 1
                            d1_stamp += 1
                            e = d1_sets[line & d1_mask]
                            tg = line >> d1_tagshift
                            if tg in e:
                                del e[tg]
                                e[tg] = d1_stamp
                            else:
                                d1_mis += 1
                                if len(e) >= d1_ways:
                                    del e[next(iter(e))]
                                e[tg] = d1_stamp
                                c_l1d_mis += 1
                                cycles += lat_d1
                                c_l2_acc += 1
                                line2 = dlines2[pair_j]
                                l2_acc += 1
                                l2_stamp += 1
                                e2 = l2_sets[line2 & l2_mask]
                                tg2 = line2 >> l2_tagshift
                                if tg2 in e2:
                                    del e2[tg2]
                                    e2[tg2] = l2_stamp
                                else:
                                    l2_mis += 1
                                    if len(e2) >= l2_ways:
                                        del e2[next(iter(e2))]
                                    e2[tg2] = l2_stamp
                                    c_l2_mis += 1
                                    cycles += lat_l2
                            c_l1d_acc += 1
                            c_got_loads += 1
                        c_branches += 1
                        c_btb_lk += 1
                        b_lookups += 1
                        bsej = b_sets[(jpc >> 2) & b_mask]
                        hit = bsej.get(jpc)
                        if hit is None:
                            b_misses += 1
                            c_btb_miss += 1
                            tpred = None
                        else:
                            b_stamp += 1
                            del bsej[jpc]
                            bsej[jpc] = (hit[0], b_stamp)
                            tpred = hit[0]
                        if tpred != jt:
                            c_mispred += 1
                            cycles += lat_mp
                        b_updates += 1
                        b_stamp += 1
                        if jpc in bsej:
                            del bsej[jpc]
                        elif len(bsej) >= b_ways:
                            del bsej[next(iter(bsej))]
                        bsej[jpc] = (jt, b_stamp)
                        # --- retire-time learning ---
                        if mech is not None and jma:
                            mech_learn(pc_, real, jt, jma)
                            c_abtb_inserts += 1
                            b_updates += 1
                            b_stamp += 1
                            if pc_ in bse:
                                del bse[pc_]
                            elif len(bse) >= b_ways:
                                del bse[next(iter(bse))]
                            bse[pc_] = (jt, b_stamp)
                            note_promotion()
                        i = pair_j
                    i += 1
                self._i = i
                continue
            # ------------------- slow path: reference dispatch units,
            # synced once per slow *run* rather than per event.
            self._store_state(
                (
                    cycles, c_instr, c_loads, c_stores,
                    c_branches, c_mispred, c_btb_lk, c_btb_miss,
                    c_tramp_exec, c_tramp_skip, c_tramp_instr, c_got_loads,
                    c_abtb_hits, c_abtb_misses, c_abtb_inserts,
                    c_l1i_acc, c_l1i_mis, c_l1d_acc, c_l1d_mis,
                    c_l2_acc, c_l2_mis, c_it_acc, c_it_mis,
                    c_dt_acc, c_dt_mis,
                    i_stamp, i_acc, i_mis, l2_stamp, l2_acc, l2_mis,
                    d1_stamp, d1_acc, d1_mis, it_stamp, it_acc, it_mis,
                    dt_stamp, dt_acc, dt_mis,
                    b_stamp, b_lookups, b_misses, b_updates,
                    g_hist, g_preds, g_mis,
                    r_pushes, r_pops, r_mis,
                )
            )
            first = True
            while True:
                if pending:
                    # A fallback handler's lookahead pushed events back;
                    # they retire through the reference dispatch before
                    # any more batch rows are consumed (LIFO, as
                    # EventCursor pops).
                    ev = pending.pop()
                else:
                    i = self._i
                    if self._cur is not dec or i >= n:
                        break
                    if fast[kinds[i]] and not (force_slow and first):
                        break
                    ev = dec.event(i)
                    self._i = i + 1
                handler = dispatch.get(ev.kind)
                if handler is None:
                    raise TraceError(f"unhandled event kind {ev.kind!r}")
                handler(ev, cursor)
                first = False
            force_slow = False
            (
                cycles,
                c_instr,
                c_loads,
                c_stores,
                c_branches,
                c_mispred,
                c_btb_lk,
                c_btb_miss,
                c_tramp_exec,
                c_tramp_skip,
                c_tramp_instr,
                c_got_loads,
                c_abtb_hits,
                c_abtb_misses,
                c_abtb_inserts,
                c_l1i_acc,
                c_l1i_mis,
                c_l1d_acc,
                c_l1d_mis,
                c_l2_acc,
                c_l2_mis,
                c_it_acc,
                c_it_mis,
                c_dt_acc,
                c_dt_mis,
                i_stamp,
                i_acc,
                i_mis,
                l2_stamp,
                l2_acc,
                l2_mis,
                d1_stamp,
                d1_acc,
                d1_mis,
                it_stamp,
                it_acc,
                it_mis,
                dt_stamp,
                dt_acc,
                dt_mis,
                b_stamp,
                b_lookups,
                b_misses,
                b_updates,
                g_hist,
                g_preds,
                g_mis,
                r_pushes,
                r_pops,
                r_mis,
            ) = self._load_state()
            # The handlers probed the same structures: MRU shortcuts are
            # stale, and a component may even have swapped its tables.
            last_iline = last_vpn = -1
            i_sets = l1i.hot_state()[0]
            l2_sets = l2.hot_state()[0]
            d1_sets = l1d.hot_state()[0]
            it_sets = itlb.hot_state()[0]
            dt_sets = dtlb.hot_state()[0]
            b_sets = btb._sets
            g_table = gshare._table
            r_stack = ras._stack

        self._store_state(
            (
                cycles, c_instr, c_loads, c_stores,
                c_branches, c_mispred, c_btb_lk, c_btb_miss,
                c_tramp_exec, c_tramp_skip, c_tramp_instr, c_got_loads,
                c_abtb_hits, c_abtb_misses, c_abtb_inserts,
                c_l1i_acc, c_l1i_mis, c_l1d_acc, c_l1d_mis,
                c_l2_acc, c_l2_mis, c_it_acc, c_it_mis,
                c_dt_acc, c_dt_mis,
                i_stamp, i_acc, i_mis, l2_stamp, l2_acc, l2_mis,
                d1_stamp, d1_acc, d1_mis, it_stamp, it_acc, it_mis,
                dt_stamp, dt_acc, dt_mis,
                b_stamp, b_lookups, b_misses, b_updates,
                g_hist, g_preds, g_mis,
                r_pushes, r_pops, r_mis,
            )
        )
