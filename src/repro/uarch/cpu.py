"""Trace-driven CPU front-end model.

The CPU consumes a stream of :class:`~repro.isa.events.TraceEvent` and
counts every structural effect the paper measures: L1I/L1D line touches,
I-TLB/D-TLB page touches, BTB lookups, direction predictions and RAS
operations.  Cycles are priced from those counts, never accumulated:
:attr:`CPU.cycles` applies :func:`~repro.uarch.counters.cycles_of` to the
live counters, the same formula the batched backend prices its marks with.

Architecturally the CPU is a *composition of components*: every hardware
structure it contains (caches, TLBs, BTB, direction predictor, RAS,
performance counters) implements the
:class:`~repro.uarch.component.SimComponent` protocol and is assembled
from the :class:`~repro.uarch.component.ComponentRegistry` the CPU is
constructed with.  That buys two things:

* **swappability** — alternative structures drop in by overriding a
  registry entry, without touching the CPU;
* **snapshot/restore** — :meth:`CPU.snapshot` serialises the complete
  machine state (components, mechanism, marks) to a
  JSON-safe dict and :meth:`CPU.restore` reproduces it exactly, which is
  what :mod:`repro.uarch.machine` checkpoints are built on.

Event handling is a dispatch table over per-kind handlers
(:attr:`CPU._dispatch`); the trampoline-pair lookahead runs through an
:class:`EventCursor` that supports bounded push-back, replacing the old
monolithic ``run()`` loop.

When constructed with a :class:`~repro.core.TrampolineSkipMechanism`, the
model implements the paper's protocol:

* a ``call`` immediately followed by the indirect branch at its target is a
  *trampoline pair*;
* at the pair's retirement the mechanism learns the trampoline→function
  mapping and the call's BTB entry is promoted to the function address;
* on later executions the promoted prediction is validated against the
  ABTB and the trampoline is skipped entirely — no fetch, no GOT load, no
  second BTB entry;
* retired stores are snooped against the Bloom filter; hits flush the ABTB
  and execution degrades gracefully to baseline behaviour.

Misprediction accounting is deliberately symmetric between base and
enhanced configurations (Section 3.3's parity argument): direct branches
never count as mispredictions (a BTB miss on one costs only a small
front-end bubble), while indirect branches, conditional direction errors
and RAS mismatches count fully in both systems.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dataclass_fields

from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import ConfigError, TraceError
from repro.isa.events import TraceEvent
from repro.isa.kinds import EventKind
from repro.uarch.component import ComponentRegistry, default_registry
from repro.uarch.counters import PerfCounters, cycles_of
from repro.uarch.timing import TimingModel

#: Component names the CPU's datapath requires from any registry.
REQUIRED_COMPONENTS = (
    "l1i",
    "l1d",
    "l2",
    "itlb",
    "dtlb",
    "btb",
    "gshare",
    "ras",
    "counters",
)

#: CPUConfig fields that must be powers of two (structure indexability).
_POWER_OF_TWO_FIELDS = (
    "l1i_bytes",
    "l1d_bytes",
    "l2_bytes",
    "line_bytes",
    "itlb_entries",
    "dtlb_entries",
    "btb_entries",
    "gshare_entries",
)

#: CPUConfig fields that must be positive integers.
_POSITIVE_FIELDS = (
    "l1i_ways",
    "l1d_ways",
    "l2_ways",
    "itlb_ways",
    "dtlb_ways",
    "btb_ways",
    "ras_depth",
)


@dataclass(frozen=True)
class CPUConfig:
    """Structure sizes, defaulting to the paper's Xeon E5450 testbed.

    Every field is validated at construction: non-power-of-two structure
    sizes or negative latencies raise :class:`ValueError` naming the bad
    field (rather than silently producing nonsense counters downstream).

    Attributes:
        l1i_bytes / l1i_ways: instruction cache geometry (32 KB, 8-way).
        l1d_bytes / l1d_ways: data cache geometry (32 KB, 8-way).
        l2_bytes / l2_ways: unified second-level cache (scaled from the
            E5450's shared 6 MB per core pair to the model's footprints).
        line_bytes: cache line size (64 B — four PLT stubs per line).
        itlb_entries / itlb_ways, dtlb_entries / dtlb_ways: TLB geometry.
        btb_entries / btb_ways: branch target buffer geometry (scaled
            to the synthetic workloads' branch-PC footprint).
        gshare_entries / history_bits: direction predictor geometry.
        ras_depth: return-address stack depth.
        direct_btb_bubble: cycles lost when a *direct* branch misses the
            BTB (front-end redirect at decode, not a true misprediction).
        timing: penalty table for the cycle model.
    """

    l1i_bytes: int = 32 * 1024
    l1i_ways: int = 8
    l1d_bytes: int = 32 * 1024
    l1d_ways: int = 8
    l2_bytes: int = 4 * 1024 * 1024
    l2_ways: int = 16
    line_bytes: int = 64
    itlb_entries: int = 128
    itlb_ways: int = 4
    dtlb_entries: int = 256
    dtlb_ways: int = 4
    btb_entries: int = 2048
    btb_ways: int = 4
    gshare_entries: int = 4096
    history_bits: int = 12
    ras_depth: int = 16
    direct_btb_bubble: float = 3.0
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        for name in _POWER_OF_TWO_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1 or value & (value - 1):
                raise ValueError(
                    f"CPUConfig.{name} must be a positive power of two, got {value!r}"
                )
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"CPUConfig.{name} must be >= 1, got {value!r}")
        if not 1 <= self.history_bits <= 32:
            raise ValueError(
                f"CPUConfig.history_bits must be in [1, 32], got {self.history_bits!r}"
            )
        if self.direct_btb_bubble < 0:
            raise ValueError(
                "CPUConfig.direct_btb_bubble is a latency and must be "
                f"non-negative, got {self.direct_btb_bubble!r}"
            )

    def as_dict(self) -> dict:
        """JSON-safe dict of every field (timing nested as a dict)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CPUConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown CPUConfig field(s): {sorted(unknown)}")
        payload = dict(data)
        if isinstance(payload.get("timing"), dict):
            payload["timing"] = TimingModel(**payload["timing"])
        return cls(**payload)


@dataclass
class Mark:
    """A request/phase boundary observed in the trace."""

    tag: object
    instructions: int
    cycles: float


class CPUHooks:
    """Observation points used by the chaos/fault-injection harness.

    Subclass (or duck-type) and override what you need; the default
    implementations are no-ops so hooks stay cheap to mix in.
    """

    def on_skip(self, call: TraceEvent, jmp: TraceEvent, target: int) -> None:
        """A trampoline skip committed: the call at ``call.pc`` went
        straight to ``target`` and the stub (``jmp``) was never fetched."""

    def on_store(self, addr: int) -> None:
        """A store to ``addr`` retired on this core."""

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
        """One trampoline interaction retired — executed *or* skipped.

        ``site_pc`` is the originating call site (equal to ``stub_pc`` for
        tail-called trampolines the pairing logic never sees), ``n_instr``
        the stub instructions actually fetched (0 on a skip).  The
        observability profiler charges per-call-site costs through this
        hook point.
        """


class ChainedHooks(CPUHooks):
    """Fan one CPU's hook stream out to several observers.

    Lets the chaos oracle and the observability profiler (or any other
    :class:`CPUHooks` implementations) watch the same core at once.
    """

    def __init__(self, *hooks: CPUHooks | None) -> None:
        self.hooks: tuple[CPUHooks, ...] = tuple(h for h in hooks if h is not None)

    def on_skip(self, call: TraceEvent, jmp: TraceEvent, target: int) -> None:
        for hook in self.hooks:
            hook.on_skip(call, jmp, target)

    def on_store(self, addr: int) -> None:
        for hook in self.hooks:
            hook.on_store(addr)

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
        for hook in self.hooks:
            hook.on_trampoline(
                site_pc,
                stub_pc,
                target,
                skipped,
                n_instr,
                got_load,
                abtb_hit,
                mispredicted,
            )


class EventCursor:
    """Pull-based view over an event stream with bounded push-back.

    The trampoline-pair handler looks ahead up to two events and may put
    them back; the cursor keeps that lookahead local instead of threading
    a ``pending`` list through the run loop.  Push-back is LIFO: events
    pushed in reverse order come back out in stream order.
    """

    __slots__ = ("_it", "_pushed")

    def __init__(self, events) -> None:
        self._it = iter(events)
        self._pushed: list[TraceEvent] = []

    def next(self) -> TraceEvent | None:
        """The next event, or None at end of stream."""
        if self._pushed:
            return self._pushed.pop()
        return next(self._it, None)

    def push(self, ev: TraceEvent) -> None:
        """Return an event to the front of the stream."""
        self._pushed.append(ev)


#: Schema version of :meth:`CPU.snapshot` payloads.  Version 2: the
#: Bloom filter snapshot carries its distinct-key set.  Version 3: cache,
#: TLB and BTB sets are flat rows in LRU order (see
#: :func:`~repro.uarch.component.decode_lru_sets`).  Version 4: no cycle
#: clock; the counters carry ``btb_bubbles`` and ``cycles`` is priced
#: from them.
CPU_SNAPSHOT_VERSION = 4


class CPU:
    """One simulated core, optionally equipped with the skip mechanism.

    Args:
        config: structure geometry (defaults to the paper's testbed).
        mechanism: optional trampoline-skip mechanism (the "enhanced"
            configuration).
        hooks: optional :class:`CPUHooks` observer.
        registry: component registry the core is assembled from; defaults
            to :func:`~repro.uarch.component.default_registry`.  Must
            provide every name in :data:`REQUIRED_COMPONENTS`.
    """

    def __init__(
        self,
        config: CPUConfig | None = None,
        mechanism: TrampolineSkipMechanism | None = None,
        hooks: CPUHooks | None = None,
        registry: ComponentRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else CPUConfig()
        self.registry = registry if registry is not None else default_registry()
        missing = [n for n in REQUIRED_COMPONENTS if n not in self.registry]
        if missing:
            raise ConfigError(f"component registry is missing {missing}")
        self.mechanism = mechanism
        self.hooks = hooks
        #: Name → component map; attributes of the same names alias it.
        self.components = self.registry.build(self.config)
        for name, component in self.components.items():
            setattr(self, name, component)
        self.counters: PerfCounters  # for type checkers; set via components
        self.marks: list[Mark] = []
        self._dispatch = self._build_dispatch()

    def _build_dispatch(self):
        """The per-kind handler table the run loop dispatches through."""
        K = EventKind
        return {
            K.BLOCK: self._handle_block,
            K.CALL_DIRECT: self._handle_call_direct,
            K.LOAD: self._handle_load,
            K.STORE: self._handle_store,
            K.COND_BRANCH: self._handle_cond_branch,
            K.RET: self._handle_ret,
            K.CALL_INDIRECT: self._handle_call_indirect,
            K.JMP_INDIRECT: self._handle_jmp_indirect,
            K.JMP_DIRECT: self._handle_jmp_direct,
            K.COHERENCE_INVAL: self._handle_coherence_inval,
            K.CONTEXT_SWITCH: self._handle_context_switch,
            K.MARK: self._handle_mark,
        }

    @property
    def cycles(self) -> float:
        """Cycles so far: the live counters priced by :func:`cycles_of`."""
        return cycles_of(self.config, self.counters)

    # ------------------------------------------------------------ plumbing

    def _fetch(self, ev: TraceEvent) -> None:
        """Count instruction fetch for an event's code bytes."""
        c = self.counters
        c.instructions += ev.n_instr

        shift = self.l1i._line_shift
        first = ev.pc >> shift
        last = (ev.pc + max(ev.nbytes, 1) - 1) >> shift
        c.l1i_accesses += last - first + 1
        for line in range(first, last + 1):
            if not self.l1i.access_line(line):
                c.l1i_misses += 1
                c.l2_accesses += 1
                if not self.l2.access_line(line):
                    c.l2_misses += 1

        pshift = self.itlb._page_shift
        pfirst = ev.pc >> pshift
        plast = (ev.pc + max(ev.nbytes, 1) - 1) >> pshift
        c.itlb_accesses += plast - pfirst + 1
        before = self.itlb.misses
        for vpn in range(pfirst, plast + 1):
            self.itlb.access_page(vpn)
        c.itlb_misses += self.itlb.misses - before

    def _data_access(self, addr: int, is_store: bool) -> None:
        """Count a data-side access (D-TLB walk + L1D line)."""
        c = self.counters
        if is_store:
            c.stores += 1
        else:
            c.loads += 1
        if not self.dtlb.access(addr):
            c.dtlb_misses += 1
        c.dtlb_accesses += 1
        if not self.l1d.access(addr):
            c.l1d_misses += 1
            c.l2_accesses += 1
            if not self.l2.access(addr):
                c.l2_misses += 1
        c.l1d_accesses += 1

    def _mispredict(self) -> None:
        self.counters.branch_mispredictions += 1

    def _btb_lookup(self, pc: int) -> int | None:
        self.counters.btb_lookups += 1
        target = self.btb.lookup(pc)
        if target is None:
            self.counters.btb_misses += 1
        return target

    # ------------------------------------------------------------- events

    def run(self, events) -> PerfCounters:
        """Process an event stream; returns the (live) counter bundle."""
        cursor = EventCursor(events)
        dispatch = self._dispatch
        while True:
            ev = cursor.next()
            if ev is None:
                break
            handler = dispatch.get(ev.kind)
            if handler is None:
                raise TraceError(f"unhandled event kind {ev.kind!r}")
            handler(ev, cursor)
        self.counters.cycles = self.cycles
        return self.counters

    # ------------------------------------------------------ event handlers
    #
    # One handler per EventKind; each takes the event and the cursor (only
    # CALL_DIRECT looks ahead, to detect trampoline pairs).

    def _handle_block(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._fetch(ev)

    def _handle_call_direct(self, ev: TraceEvent, cursor: EventCursor) -> None:
        nxt = cursor.next()
        if nxt is not None and nxt.kind == EventKind.JMP_INDIRECT and nxt.pc == ev.target:
            # x86-64 stub: the indirect branch is the whole body.
            self._trampoline_pair(ev, nxt)
        elif (
            nxt is not None
            and nxt.kind == EventKind.BLOCK
            and nxt.pc == ev.target
            and nxt.nbytes <= 12
        ):
            # ARM-style stub: an address-computation prefix before
            # the indirect branch (paper Figure 2b).
            nxt2 = cursor.next()
            if (
                nxt2 is not None
                and nxt2.kind == EventKind.JMP_INDIRECT
                and nxt2.pc == nxt.pc + nxt.nbytes
            ):
                self._trampoline_pair(ev, nxt2, stub=nxt)
            else:
                self._call_direct(ev)
                if nxt2 is not None:
                    cursor.push(nxt2)
                cursor.push(nxt)
        else:
            self._call_direct(ev)
            if nxt is not None:
                cursor.push(nxt)

    def _handle_load(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._fetch(ev)
        self._data_access(ev.mem_addr, is_store=False)

    def _handle_store(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._fetch(ev)
        self._data_access(ev.mem_addr, is_store=True)
        if self.hooks is not None:
            self.hooks.on_store(ev.mem_addr)
        if self.mechanism is not None:
            self.mechanism.snoop_store(ev.mem_addr)
            if ev.tag == "got-store" and not self.mechanism.config.use_bloom:
                # Section 3.4: without the Bloom filter, software
                # (the dynamic linker) explicitly invalidates the
                # ABTB whenever it rewrites a GOT slot.
                self.mechanism.invalidate()

    def _handle_cond_branch(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._cond_branch(ev)

    def _handle_ret(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._ret(ev)

    def _handle_call_indirect(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._call_indirect(ev)

    def _handle_jmp_indirect(self, ev: TraceEvent, cursor: EventCursor) -> None:
        # An indirect jump outside a trampoline pair (e.g. the
        # resolver's final jump to the function).
        self._jmp_indirect(ev)

    def _handle_jmp_direct(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._jmp_direct(ev)

    def _handle_coherence_inval(self, ev: TraceEvent, cursor: EventCursor) -> None:
        # A remote core invalidated this line; no local execution,
        # but the mechanism snoops it like a store (Section 3.2).
        if self.mechanism is not None:
            self.mechanism.coherence_invalidate(ev.mem_addr)

    def _handle_context_switch(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self._context_switch()

    def _handle_mark(self, ev: TraceEvent, cursor: EventCursor) -> None:
        self.marks.append(Mark(ev.tag, self.counters.instructions, self.cycles))

    # -------------------------------------------------------- branch kinds

    def _call_direct(self, ev: TraceEvent) -> None:
        """A direct call that is not a trampoline pair head."""
        self._fetch(ev)
        self.counters.branches += 1
        self.ras.push(ev.pc + ev.nbytes)
        pred = self._btb_lookup(ev.pc)
        if pred is None:
            # Direct target: decode redirects the front end — a bubble,
            # not an architectural misprediction.
            self.counters.btb_bubbles += 1
            self.btb.update(ev.pc, ev.target)
        elif pred != ev.target:
            # Only possible if the entry was promoted and then the pair
            # vanished (e.g. a patched binary); treat as a full flush.
            self._mispredict()
            self.btb.update(ev.pc, ev.target)

    def _jmp_direct(self, ev: TraceEvent) -> None:
        self._fetch(ev)
        self.counters.branches += 1
        pred = self._btb_lookup(ev.pc)
        if pred is None:
            self.counters.btb_bubbles += 1
            self.btb.update(ev.pc, ev.target)

    def _call_indirect(self, ev: TraceEvent) -> None:
        self._fetch(ev)
        if ev.mem_addr:
            self._data_access(ev.mem_addr, is_store=False)
        self.counters.branches += 1
        self.ras.push(ev.pc + ev.nbytes)
        pred = self._btb_lookup(ev.pc)
        if pred != ev.target:
            self._mispredict()
        self.btb.update(ev.pc, ev.target)

    def _jmp_indirect(self, ev: TraceEvent) -> None:
        """Indirect jump executed outside the trampoline-pair fast path."""
        self._fetch(ev)
        if ev.mem_addr:
            self._data_access(ev.mem_addr, is_store=False)
            self.counters.got_loads += 1
        self.counters.branches += 1
        tail_call = ev.tag == "plt"
        if tail_call:
            # A trampoline reached by a tail call (jmp, not call): it
            # executes but the mechanism's call+branch pattern never
            # learns it (Section 2.3's "unconventional tricks").
            self.counters.trampolines_executed += 1
            self.counters.trampoline_instructions += 1
        pred = self._btb_lookup(ev.pc)
        mispredicted = pred != ev.target
        if mispredicted:
            self._mispredict()
        self.btb.update(ev.pc, ev.target)
        if tail_call and self.hooks is not None:
            # No call site to charge: the stub's own PC is the best key.
            self.hooks.on_trampoline(
                ev.pc, ev.pc, ev.target, False, 1, bool(ev.mem_addr), False, mispredicted
            )

    def _cond_branch(self, ev: TraceEvent) -> None:
        self._fetch(ev)
        self.counters.branches += 1
        if self.gshare.record(ev.pc, ev.taken):
            self._mispredict()
        if ev.taken:
            pred = self._btb_lookup(ev.pc)
            if pred is None:
                self.counters.btb_bubbles += 1
            self.btb.update(ev.pc, ev.target)

    def _ret(self, ev: TraceEvent) -> None:
        self._fetch(ev)
        self.counters.branches += 1
        if self.ras.pop_and_check(ev.target):
            self._mispredict()

    # ----------------------------------------------------- trampoline pair

    def _trampoline_pair(
        self, call: TraceEvent, jmp: TraceEvent, stub: TraceEvent | None = None
    ) -> None:
        """A library call: ``call plt_stub`` + stub body ending in ``jmp *GOT``.

        ``stub`` carries the ARM-style address-computation prefix (None on
        x86-64).  With the mechanism enabled and the call's BTB entry
        promoted, the whole stub is skipped: its events are consumed
        without charging any structure — the instructions are never
        fetched or executed (3 instructions saved per call on ARM, 1 on
        x86-64).
        """
        c = self.counters
        mech = self.mechanism
        mp_before = c.branch_mispredictions
        abtb_hit = False

        self._fetch(call)
        c.branches += 1
        self.ras.push(call.pc + call.nbytes)
        pred = self._btb_lookup(call.pc)
        real = call.target  # the trampoline (PLT stub) address

        if mech is not None:
            mapped = mech.mapped_target(real)
            if mapped is not None:
                c.abtb_hits += 1
                abtb_hit = True
            else:
                c.abtb_misses += 1

            if mapped is not None and pred == mapped:
                # Promoted prediction validated by the ABTB: the trampoline
                # was never fetched.  (With the Bloom filter active the
                # mapping can never be stale; without it, a stale mapping is
                # a §3.4 contract violation that we count.)
                if mapped != jmp.target:
                    mech.note_unsafe_skip()
                c.trampolines_skipped += 1
                if self.hooks is not None:
                    self.hooks.on_skip(call, jmp, mapped)
                    self.hooks.on_trampoline(
                        call.pc, jmp.pc, mapped, True, 0, False, True, False
                    )
                return

            # The modified update logic always installs the ABTB-mapped
            # target when one exists (promotion), else the real target.
            update_target = mapped if mapped is not None else real
            if pred is not None and pred != real and pred != (mapped or -1):
                # Wrong-path fetch (e.g. promoted entry surviving an ABTB
                # flush): full pipeline flush, refetch of the trampoline.
                self._mispredict()
                self.btb.update(call.pc, update_target)
            elif pred is None:
                c.btb_bubbles += 1
                self.btb.update(call.pc, update_target)
                if mapped is not None:
                    mech.note_promotion()
            elif mapped is not None and pred == real:
                # Correct trampoline-path prediction, but the modified
                # update logic promotes the entry to the function address.
                self.btb.update(call.pc, mapped)
                mech.note_promotion()
        else:
            if pred is None:
                c.btb_bubbles += 1
                self.btb.update(call.pc, real)
            elif pred != real:
                self._mispredict()
                self.btb.update(call.pc, real)

        # --- the trampoline executes ---
        c.trampolines_executed += 1
        c.trampoline_instructions += 1 + (stub.n_instr if stub is not None else 0)
        if stub is not None:
            self._fetch(stub)
        self._fetch(jmp)
        if jmp.mem_addr:
            self._data_access(jmp.mem_addr, is_store=False)
            c.got_loads += 1
        c.branches += 1
        tpred = self._btb_lookup(jmp.pc)
        if tpred != jmp.target:
            self._mispredict()
        self.btb.update(jmp.pc, jmp.target)

        # --- retire-time learning ---
        # The ABTB is indexed by the call's real target (the stub address):
        # on x86-64 that equals the indirect branch's PC, on ARM the branch
        # sits after the stub's address-computation prefix.
        if mech is not None and jmp.mem_addr:
            mech.learn(call.pc, real, jmp.target, jmp.mem_addr)
            c.abtb_inserts += 1
            # Promote the call's BTB entry as the pair retires: the next
            # execution can already skip.  (On a first call this installs
            # the stub's lazy-resolution target, which the resolver's GOT
            # store immediately invalidates via the Bloom filter — one
            # extra startup misprediction, never in steady state.)
            self.btb.update(call.pc, jmp.target)
            mech.note_promotion()
        if self.hooks is not None:
            self.hooks.on_trampoline(
                call.pc,
                jmp.pc,
                jmp.target,
                False,
                1 + (stub.n_instr if stub is not None else 0),
                bool(jmp.mem_addr),
                abtb_hit,
                c.branch_mispredictions > mp_before,
            )

    # ------------------------------------------------------ context switch

    def _context_switch(self) -> None:
        self.counters.context_switches += 1
        self.itlb.flush()
        self.dtlb.flush()
        self.btb.flush()  # another process's branches evict our entries
        self.ras.clear()
        self.gshare.reset_history()
        if self.mechanism is not None:
            flushes_before = self.mechanism.abtb.flushes
            self.mechanism.on_context_switch()
            self.counters.abtb_flushes += self.mechanism.abtb.flushes - flushes_before

    # --------------------------------------------------------- SimComponent
    #
    # The CPU is itself a component: its snapshot is the composition of
    # its parts plus the mark stream.  Cycles are priced from the
    # counters, so there is no clock to save.

    def snapshot(self) -> dict:
        """Complete machine state as a JSON-safe dict.

        Mark tags that are tuples are serialised as lists and converted
        back to tuples by :meth:`restore` — the only tag shapes the
        workloads emit are flat tuples, strings and None.
        """
        self.counters.cycles = self.cycles
        state: dict = {
            "version": CPU_SNAPSHOT_VERSION,
            "components": {
                name: component.snapshot()
                for name, component in self.components.items()
            },
            "marks": [
                [_encode_tag(m.tag), m.instructions, m.cycles] for m in self.marks
            ],
            "mechanism": None,
        }
        if self.mechanism is not None:
            state["mechanism"] = self.mechanism.snapshot()
        return state

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on a compatibly configured CPU."""
        version = state.get("version")
        if version != CPU_SNAPSHOT_VERSION:
            raise ConfigError(
                f"CPU snapshot version {version!r} unsupported "
                f"(expected {CPU_SNAPSHOT_VERSION})"
            )
        comps = state["components"]
        missing = set(self.components) - set(comps)
        extra = set(comps) - set(self.components)
        if missing or extra:
            raise ConfigError(
                f"snapshot component mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        mech_state = state.get("mechanism")
        if mech_state is not None and self.mechanism is None:
            raise ConfigError("snapshot carries mechanism state but CPU has none")
        if mech_state is None and self.mechanism is not None:
            raise ConfigError("snapshot has no mechanism state but CPU has one")
        for name, component in self.components.items():
            component.restore(comps[name])
        if self.mechanism is not None:
            self.mechanism.restore(mech_state)
        self.marks = [
            Mark(_decode_tag(tag), int(instructions), float(cycles))
            for tag, instructions, cycles in state["marks"]
        ]

    def reset(self) -> None:
        """Cold machine: every component reset, marks gone."""
        for component in self.components.values():
            component.reset()
        if self.mechanism is not None:
            self.mechanism.reset()
        self.marks = []

    def describe(self) -> dict:
        """Static description: config plus every component's geometry."""
        return {
            "kind": "cpu",
            "config": self.config.as_dict(),
            "components": {
                name: component.describe()
                for name, component in self.components.items()
            },
            "mechanism": self.mechanism.describe() if self.mechanism else None,
        }

    # ----------------------------------------------------------- reporting

    def finalize(self) -> PerfCounters:
        """Write the priced cycles into the counters and return them."""
        self.counters.cycles = self.cycles
        if self.mechanism is not None:
            self.counters.abtb_flushes = self.mechanism.abtb.flushes
            self.counters.bloom_store_hits = self.mechanism.stats.store_flushes
        return self.counters


def _encode_tag(tag: object) -> object:
    """JSON-safe mark tag (tuples become tagged lists)."""
    if isinstance(tag, tuple):
        return list(tag)
    return tag


def _decode_tag(tag: object) -> object:
    """Inverse of :func:`_encode_tag` (lists come back as tuples)."""
    if isinstance(tag, list):
        return tuple(tag)
    return tag
