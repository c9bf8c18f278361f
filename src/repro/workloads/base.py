"""Synthetic workload framework.

A :class:`WorkloadConfig` describes an application the way the paper's
opportunity study characterises one: how much code it has, which libraries
it links, how many distinct library calls it makes (Table 3), how often it
makes them (Table 2), and how popularity is distributed over them
(Figure 4).  A :class:`Workload` builds the corresponding linked program
and generates request-by-request instruction traces under any
:class:`~repro.trace.engine.LinkMode`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.isa.arch import Arch
from repro.isa.events import (
    TraceEvent,
    block,
    call_indirect as call_indirect_event,
    cond_branch,
    context_switch,
    load,
    mark,
    ret as ret_event,
    store,
)
from repro.linker.dynamic import DynamicLinker, LinkedProgram
from repro.linker.layout import ClassicLayout, CompatLayout
from repro.linker.module import ModuleSpec
from repro.linker.patcher import CallSitePatcher
from repro.linker.static import StaticLinker, StaticProgram
from repro.linker.symbols import FunctionSpec, SymbolKind
from repro.memory.address_space import AddressSpace
from repro.memory.pages import PhysicalMemory
from repro.trace.batch import TraceBatch
from repro.trace.builder import (
    BatchBuilder,
    K_BLOCK,
    K_CALL_INDIRECT,
    K_COND_BRANCH,
    K_CONTEXT_SWITCH,
    K_LOAD,
    K_MARK,
    K_RET,
    K_STORE,
)
from repro.trace.engine import CALL_SITE_LEN, ExecutionEngine, LinkMode
from repro.workloads.profiles import Draws, PopularityProfile, WeightedSampler


#: Generated rows per chunk before a stream cuts at the next request or
#: import-pair boundary: the batched backend's batch size.
CHUNK_ROWS = 4096


def stable_hash(text: str) -> int:
    """Deterministic 32-bit hash (Python's str hash is salted per process)."""
    return zlib.crc32(text.encode())


@dataclass(frozen=True)
class LibrarySpec:
    """One shared library in the workload's link set.

    Attributes:
        name: library name (e.g. ``"libc.so"``).
        n_functions: functions the library defines.
        function_size: mean text bytes per function.
        import_pairs: number of cross-library call pairs where this
            library is the *caller* (its own PLT entries that get used).
        ifunc_fraction: fraction of defined functions that are GNU ifuncs.
    """

    name: str
    n_functions: int
    function_size: int = 256
    import_pairs: int = 0
    ifunc_fraction: float = 0.0


@dataclass(frozen=True)
class RequestClass:
    """Behavioural recipe for one request type (e.g. SPECweb "Search").

    Attributes:
        name: request type label.
        weight: share of this type in the request mix.
        segments: mean application compute segments per request.
        segment_instr: mean instructions per segment.
        call_prob: probability a segment makes a library call.
        lib_body_instr: mean instructions in a called library function.
        nested_prob: probability a library body calls another library.
        loads_per_segment / stores_per_segment: data accesses per segment.
        repeat_prob: probability a *nested* call repeats the previous
            nested call into the same library (loop-style burstiness).
        phase_len: segments per request phase.  A request executes as a
            sequence of phases (parse, handle, format, ...), each cycling
            over a small set of library calls — the temporal burstiness
            that makes tiny ABTBs effective (Figure 5's working sets).
        phase_set: distinct library calls per phase.
        app_phase_fns: distinct application functions a phase's compute
            segments cycle over.  Large values (Apache request handlers)
            create instruction-cache pressure; small values (Firefox's
            tight JS/rendering kernels) keep the hot code resident.
        virtual_call_prob: probability a segment performs a C++-style
            virtual dispatch (Section 2.4.2): an indirect call through a
            vtable slot.  These look up a table and branch like PLT calls
            but use a different instruction sequence, so the mechanism
            neither learns nor skips them — a fidelity check.
    """

    name: str
    weight: float = 1.0
    segments: int = 100
    segment_instr: int = 40
    call_prob: float = 0.9
    lib_body_instr: int = 40
    nested_prob: float = 0.3
    loads_per_segment: int = 2
    stores_per_segment: int = 1
    repeat_prob: float = 0.5
    phase_len: int = 30
    phase_set: int = 4
    app_phase_fns: int = 8
    virtual_call_prob: float = 0.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Full description of a synthetic application."""

    name: str
    libraries: tuple[LibrarySpec, ...]
    request_classes: tuple[RequestClass, ...]
    app_functions: int = 400
    app_function_size: int = 512
    app_import_pairs: int = 100
    profile: PopularityProfile = field(default_factory=PopularityProfile)
    lib_profile: PopularityProfile | None = None
    data_working_set: int = 1 << 20
    request_local_bytes: int = 16 * 1024
    request_slots: int = 16
    context_switch_interval: int = 0
    sites_per_pair: int = 1
    max_call_depth: int = 3
    #: Ratio of PLT slots to *exercised* PLT slots.  Real modules import
    #: far more symbols than any run calls, and slot order follows the
    #: source, so used trampolines are sparsely scattered: effectively one
    #: I-cache line per used trampoline and one D-cache line per used GOT
    #: slot (Section 2.2).  6 reproduces that sparsity.
    plt_sparsity: int = 6
    #: Trampoline encoding: x86-64 (1-instruction stubs) or ARM
    #: (3-instruction stubs — the mechanism saves 3x the instructions).
    arch: Arch = Arch.X86_64
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.request_classes:
            raise ConfigError("a workload needs at least one request class")
        if self.app_import_pairs < 1:
            raise ConfigError("app_import_pairs must be >= 1")
        total_lib_functions = sum(lib.n_functions for lib in self.libraries)
        if self.app_import_pairs > total_lib_functions:
            raise ConfigError("cannot import more symbols than the libraries define")
        if self.sites_per_pair < 1:
            raise ConfigError("sites_per_pair must be >= 1")

    @property
    def distinct_pair_target(self) -> int:
        """Designed universe of (caller module, symbol) trampoline pairs."""
        return self.app_import_pairs + sum(lib.import_pairs for lib in self.libraries)


@dataclass(frozen=True)
class CallPair:
    """One (caller module, symbol) pair with its call sites."""

    caller: str
    symbol: str
    sites: tuple[int, ...]


class Workload:
    """A built workload: linked program, engine, samplers, trace generator.

    Build one instance per simulation run; the generated trace is fully
    deterministic in (config, mode), so base and enhanced CPU runs over
    two separately built instances see identical event streams.
    """

    def __init__(
        self,
        config: WorkloadConfig,
        mode: LinkMode = LinkMode.DYNAMIC,
        with_memory: bool = False,
    ) -> None:
        self.config = config
        self.mode = mode
        rng = np.random.default_rng(config.seed)

        self._specs = self._build_specs(rng)
        self.phys: PhysicalMemory | None = None
        self.address_space: AddressSpace | None = None
        self.program: LinkedProgram | StaticProgram
        self.patcher: CallSitePatcher | None = None

        exe, libs = self._specs
        if mode is LinkMode.STATIC:
            self.program = StaticLinker().link(exe, libs)
        else:
            layout = CompatLayout() if mode is LinkMode.PATCHED else ClassicLayout(aslr=False)
            if with_memory or mode is LinkMode.PATCHED:
                self.phys = PhysicalMemory()
                linker = DynamicLinker(self.phys)
                self.address_space = AddressSpace(self.phys, f"{config.name}:proc0")
                self.program = linker.link(exe, libs, layout, self.address_space)
            else:
                self.program = DynamicLinker().link(exe, libs, layout)
            if mode is LinkMode.PATCHED:
                spaces = [self.address_space] if self.address_space else []
                self.patcher = CallSitePatcher(self.program, spaces)

        self.engine = ExecutionEngine(self.program, mode, self.patcher, arch=config.arch)
        self._pairs_by_module = self._assign_call_sites(rng)
        self._samplers = self._build_samplers()
        self._app_fn_sampler = WeightedSampler(
            PopularityProfile(zipf_s=0.8).weights(config.app_functions)
        )
        self._class_sampler = WeightedSampler(
            np.array([rc.weight for rc in config.request_classes], dtype=np.float64)
        )
        self._app_image = self.program.module("app")
        self._lib_data_base = {
            name: (image.got_range[1] + 4096 if hasattr(image, "got_range") else image.text_end + 4096)
            for name, image in self.program.modules.items()
        }
        self._heap = self.program.heap_base
        self._defining_module = {
            sym: self.program.symbols.lookup(sym).module
            for pairs in self._pairs_by_module.values()
            for p in pairs
            for sym in [p.symbol]
        }
        # Pure caches for the batch-emitting generation path (identical
        # values to what the legacy iterator computes per event).
        self._app_fn_entries = [
            self._app_image.functions[f"app_fn{i}"].entry
            for i in range(config.app_functions)
        ]
        self._hot_bytes = max(config.data_working_set // 32, 4096)
        self._lib_load_addr = {
            sym: (self._lib_data_base.get(mod, self._heap) + (stable_hash(sym) * 64) % (256 * 1024))
            & ~0x7
            for sym, mod in self._defining_module.items()
        }
        self._vcall_cache: dict[int, tuple[int, int]] = {}
        #: (caller, symbol) pairs whose trampolines were executed.
        self.touched_pairs: set[tuple[str, str]] = set()
        #: Per-pair trampoline execution counts (Figure 4's frequencies).
        self.pair_counts: dict[tuple[str, str], int] = {}
        self._instr_since_switch = 0

    # ------------------------------------------------------------ building

    def _build_specs(self, rng: np.random.Generator) -> tuple[ModuleSpec, list[ModuleSpec]]:
        cfg = self.config
        libs: list[ModuleSpec] = []
        all_symbols: list[str] = []
        symbols_by_lib: dict[str, list[str]] = {}
        for lib in cfg.libraries:
            fns: list[FunctionSpec] = []
            n_ifunc = int(lib.n_functions * lib.ifunc_fraction)
            for i in range(lib.n_functions):
                sym = f"{lib.name.split('.')[0]}_fn{i}"
                size = int(max(48, rng.normal(lib.function_size, lib.function_size / 4)))
                if i < n_ifunc:
                    fns.append(FunctionSpec(sym, size, SymbolKind.IFUNC, ifunc_variants=3))
                else:
                    fns.append(FunctionSpec(sym, size))
                all_symbols.append(sym)
            symbols_by_lib[lib.name] = [f.name for f in fns]
            libs.append(ModuleSpec(lib.name, fns, imports=[]))

        # App imports: a random subset of all library symbols, in an order
        # unrelated to popularity (PLT slot order follows the source).
        app_used = list(
            rng.choice(np.array(all_symbols, dtype=object), cfg.app_import_pairs, replace=False)
        )
        app_imports = self._sparsify_imports(app_used, all_symbols, rng)
        # Cross-library imports: each library that makes calls imports
        # symbols defined by *other* libraries.
        lib_used: dict[str, list[str]] = {}
        lib_imports: dict[str, list[str]] = {}
        for lib in cfg.libraries:
            if lib.import_pairs == 0:
                continue
            foreign = [s for other, syms in symbols_by_lib.items() if other != lib.name for s in syms]
            count = min(lib.import_pairs, len(foreign))
            used = list(rng.choice(np.array(foreign, dtype=object), count, replace=False))
            lib_used[lib.name] = used
            lib_imports[lib.name] = self._sparsify_imports(used, foreign, rng)

        self._used_imports = {"app": app_used, **lib_used}
        lib_specs = [
            ModuleSpec(spec.name, spec.functions, imports=lib_imports.get(spec.name, []))
            for spec in libs
        ]

        app_fns = [
            FunctionSpec(
                f"app_fn{i}",
                int(max(64, rng.normal(cfg.app_function_size, cfg.app_function_size / 4))),
            )
            for i in range(cfg.app_functions)
        ]
        exe = ModuleSpec("app", app_fns, imports=app_imports)
        return exe, lib_specs

    def _sparsify_imports(
        self, used: list[str], available: list[str], rng: np.random.Generator
    ) -> list[str]:
        """Pad the used import set with never-called imports and shuffle.

        The padding reproduces the paper's PLT sparsity: slot order follows
        the source, and most slots are never exercised by a given run.
        """
        target = len(used) * max(self.config.plt_sparsity, 1)
        used_set = set(used)
        pool = [s for s in available if s not in used_set]
        extra = min(target - len(used), len(pool))
        padding = list(rng.choice(np.array(pool, dtype=object), extra, replace=False)) if extra > 0 else []
        combined = list(used) + padding
        rng.shuffle(combined)
        return combined

    def _assign_call_sites(self, rng: np.random.Generator) -> dict[str, list[CallPair]]:
        """Place each *exercised* pair's call sites inside its caller."""
        cfg = self.config
        out: dict[str, list[CallPair]] = {}
        for name, image in self.program.modules.items():
            imports = self._used_imports.get(name, [])
            if not imports:
                continue
            fns = list(image.functions.values())
            pairs: list[CallPair] = []
            for k, symbol in enumerate(imports):
                sites = []
                for s in range(cfg.sites_per_pair):
                    host = fns[(k * cfg.sites_per_pair + s) % len(fns)]
                    # Sites are spread through the host's body, 5-byte call
                    # instructions at 16-byte granularity.
                    slot = 16 + ((k // len(fns) + s) * 32) % max(host.size - 32, 16)
                    sites.append(host.entry + slot)
                pairs.append(CallPair(name, symbol, tuple(sites)))
            out[name] = pairs
        return out

    def _build_samplers(self) -> dict[str, WeightedSampler]:
        cfg = self.config
        out: dict[str, WeightedSampler] = {}
        for name, pairs in self._pairs_by_module.items():
            profile = cfg.profile if name == "app" else (cfg.lib_profile or cfg.profile)
            out[name] = WeightedSampler(profile.weights(len(pairs)))
        return out

    # ---------------------------------------------------------- generation

    def request_mix(self, n_requests: int, rng: np.random.Generator) -> list[RequestClass]:
        """The deterministic sequence of request classes for a run."""
        return [self.config.request_classes[self._class_sampler.sample(rng)] for _ in range(n_requests)]

    def startup_trace(self) -> Iterator[TraceEvent]:
        """Process initialisation: call every import pair once.

        Real programs resolve the bulk of their GOT entries while starting
        up (library constructors, config parsing, first request); the
        paper measures long-running warm servers where resolution — and
        the one ABTB flush each resolution's GOT store causes — has long
        finished.  Experiments run this before their measurement window.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, 55]))
        rc = self.config.request_classes[0]
        for pairs in self._pairs_by_module.values():
            for pair in pairs:
                yield from self._library_call(rc, pair, pair.sites[0], rng, depth=self.config.max_call_depth)

    def trace(
        self,
        n_requests: int,
        include_marks: bool = True,
        classes: list[RequestClass] | None = None,
        start_id: int = 0,
    ) -> Iterator[TraceEvent]:
        """Generate the event stream for ``n_requests`` requests.

        ``start_id`` offsets request identities so a warmup run and a
        measurement run draw different per-request randomness.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, 77, start_id]))
        mix = classes if classes is not None else self.request_mix(n_requests, rng)
        for offset, rc in enumerate(mix):
            request_id = start_id + offset
            req_rng = np.random.default_rng(
                np.random.SeedSequence([self.config.seed, 101, request_id])
            )
            if include_marks:
                yield mark(("begin", rc.name, request_id))
            yield from self._request_events(rc, request_id, req_rng)
            if include_marks:
                yield mark(("end", rc.name, request_id))

    def prefork_trace(
        self,
        processes: int,
        requests_per_process: int,
        include_marks: bool = False,
    ) -> Iterator[TraceEvent]:
        """Round-robin request service across prefork worker processes.

        Models a single core timeslicing between identical forked workers
        (the Apache prefork MPM): one request per worker per turn, with a
        context switch between turns.  Because prefork siblings share the
        parent's address-space layout, ASID-retained ABTB entries remain
        *valid* across sibling switches — the scenario where the paper's
        Section 3.3 ASID remark pays off most.
        """
        if processes < 1 or requests_per_process < 1:
            raise ConfigError("prefork_trace needs >=1 process and >=1 request")
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, 88]))
        mix = self.request_mix(processes * requests_per_process, rng)
        request_id = 0
        for _turn in range(requests_per_process):
            for _worker in range(processes):
                rc = mix[request_id]
                req_rng = np.random.default_rng(
                    np.random.SeedSequence([self.config.seed, 101, request_id])
                )
                if include_marks:
                    yield mark(("begin", rc.name, request_id))
                yield from self._request_events(rc, request_id, req_rng)
                if include_marks:
                    yield mark(("end", rc.name, request_id))
                yield context_switch()
                request_id += 1

    def _request_events(
        self, rc: RequestClass, request_id: int, rng: np.random.Generator
    ) -> Iterator[TraceEvent]:
        cfg = self.config
        app_pairs = self._pairs_by_module.get("app", [])
        app_sampler = self._samplers.get("app")
        local_base = (
            self._heap
            + cfg.data_working_set
            + (request_id % cfg.request_slots) * cfg.request_local_bytes
        )
        n_segments = max(1, int(rng.normal(rc.segments, rc.segments * 0.12)))
        # Pre-draw randomness in bulk: one vectorised draw per segment
        # instead of several.
        u_call = rng.random(n_segments)
        phase_pairs: list[CallPair] = []
        phase_fns: list[int] = []
        last_nested: dict[str, CallPair] = {}
        for seg in range(n_segments):
            if seg % rc.phase_len == 0:
                # New phase: draw the small working sets of library calls
                # and of application functions this phase cycles over.
                if app_pairs:
                    k = max(1, min(rc.phase_set, len(app_pairs)))
                    phase_pairs = [app_pairs[app_sampler.sample(rng)] for _ in range(k)]
                phase_fns = [
                    self._app_fn_sampler.sample(rng)
                    for _ in range(max(1, rc.app_phase_fns))
                ]
            pair: CallPair | None = None
            if phase_pairs and u_call[seg] < rc.call_prob:
                pair = phase_pairs[int(rng.integers(0, len(phase_pairs)))]
            yield from self._app_segment(rc, pair, local_base, rng, phase_fns)
            if pair is not None:
                site = pair.sites[seg % len(pair.sites)]
                yield from self._library_call(rc, pair, site, rng, depth=0, last_nested=last_nested)
            if cfg.context_switch_interval:
                self._instr_since_switch += rc.segment_instr
                if self._instr_since_switch >= cfg.context_switch_interval:
                    self._instr_since_switch = 0
                    yield context_switch()

    def _app_segment(
        self,
        rc: RequestClass,
        pair: CallPair | None,
        local_base: int,
        rng: np.random.Generator,
        phase_fns: list[int] | None = None,
    ) -> Iterator[TraceEvent]:
        """Application compute: blocks in an app function, data accesses."""
        cfg = self.config
        if phase_fns:
            idx = phase_fns[int(rng.integers(0, len(phase_fns)))]
        else:
            idx = self._app_fn_sampler.sample(rng)
        fn_entry = self._app_image.functions[f"app_fn{idx}"].entry
        n = max(4, int(rng.normal(rc.segment_instr, rc.segment_instr * 0.2)))
        first = max(2, n // 2)
        yield block(fn_entry, first, first * 4)
        hot_bytes = max(cfg.data_working_set // 32, 4096)
        for _ in range(rc.loads_per_segment):
            u = rng.random()
            if u < 0.45:
                # Hot global structures (config, dispatch tables, caches).
                addr = self._heap + int(rng.integers(0, hot_bytes))
            elif u < 0.85:
                addr = local_base + int(rng.integers(0, cfg.request_local_bytes))
            else:
                # Cold sweep over the full working set.
                addr = self._heap + int(rng.integers(0, cfg.data_working_set))
            yield load(fn_entry + first * 4, addr & ~0x7)
        yield cond_branch(fn_entry + first * 4 + 4, fn_entry + 8, taken=bool(rng.random() < 0.72))
        rest = max(2, n - first)
        yield block(fn_entry + first * 4 + 10, rest, rest * 4)
        for _ in range(rc.stores_per_segment):
            addr = local_base + int(rng.integers(0, cfg.request_local_bytes))
            yield store(fn_entry + first * 4 + 14, addr & ~0x7)
        if rc.virtual_call_prob and rng.random() < rc.virtual_call_prob:
            # C++ virtual dispatch (Section 2.4.2): indirect call through
            # a vtable slot in the object.  Not a PLT pattern — the
            # mechanism must leave these alone.
            vidx = self._app_fn_sampler.sample(rng)
            vfn = self._app_image.functions[f"app_fn{vidx}"]
            vtable = self._heap + (stable_hash(f"vt{vidx}") % cfg.data_working_set) & ~0x7
            call_pc = fn_entry + first * 4 + 20
            yield call_indirect_event(call_pc, vfn.entry, vtable)
            vbody = max(4, rest // 2)
            yield block(vfn.entry, vbody, vbody * 4)
            yield ret_event(vfn.entry + vbody * 4, call_pc + 6)
        if pair is not None:
            # Control flows into the function hosting the call site just
            # before the library call itself.
            yield block(pair.sites[0] & ~0xF, 4, 16)

    def _library_call(
        self,
        rc: RequestClass,
        pair: CallPair,
        site_pc: int,
        rng: np.random.Generator,
        depth: int,
        last_nested: dict[str, CallPair] | None = None,
    ) -> Iterator[TraceEvent]:
        """One library call: trampoline (mode-dependent), body, return."""
        events, binding = self.engine.call_events(pair.caller, pair.symbol, site_pc)
        if binding.via_plt:
            key = (pair.caller, pair.symbol)
            self.touched_pairs.add(key)
            self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        yield from events

        body = max(6, int(rng.normal(rc.lib_body_instr, rc.lib_body_instr * 0.25)))
        half = max(3, body // 2)
        entry = binding.func_addr
        yield block(entry, half, half * 4)
        # Library static data access (per-function locality).
        lib_name = self._defining_module.get(pair.symbol)
        if lib_name is not None:
            base = self._lib_data_base.get(lib_name, self._heap)
            offset = (stable_hash(pair.symbol) * 64) % (256 * 1024)
            yield load(entry + half * 4, (base + offset) & ~0x7)

        nested = None
        if depth < self.config.max_call_depth and rng.random() < rc.nested_prob:
            nested_pairs = self._pairs_by_module.get(lib_name or "", [])
            if nested_pairs:
                previous = last_nested.get(lib_name) if last_nested is not None else None
                if previous is not None and rng.random() < rc.repeat_prob:
                    nested = previous
                else:
                    nested = nested_pairs[self._samplers[lib_name].sample(rng)]
                if last_nested is not None:
                    last_nested[lib_name] = nested
        if nested is not None:
            nested_site = nested.sites[0]
            yield from self._library_call(rc, nested, nested_site, rng, depth + 1, last_nested)

        yield cond_branch(entry + half * 4 + 6, entry + 4, taken=bool(rng.random() < 0.65))
        rest = max(3, body - half)
        yield block(entry + half * 4 + 12, rest, rest * 4)
        yield from self.engine.return_events(binding, site_pc)

    # ----------------------------------------------------- batch generation
    #
    # Array-native twins of the generators above.  Each method mirrors its
    # legacy counterpart *draw for draw* — same RNG streams, same control
    # flow, same per-event values — but appends flat integer rows to a
    # :class:`~repro.trace.builder.BatchBuilder` instead of yielding
    # ``TraceEvent`` objects, and warm library calls replay precomputed
    # engine templates (:meth:`ExecutionEngine.call_rows`).  Generation
    # streams: a chunk is cut at the first import-pair (startup) or
    # request (trace) boundary at or past ``CHUNK_ROWS`` rows, so a run
    # never holds more than about one backend batch of generated rows.
    # Each generator is wrapped in :class:`Draws`, whose scalar draws equal
    # numpy's without its per-call overhead.  The legacy iterators stay
    # as the reference oracle, drawing through numpy itself:
    # ``difftest.run_matrix`` proves full-CPU-snapshot equality between
    # the two paths.

    def startup_chunks(self) -> Iterator[TraceBatch]:
        """Batch twin of :meth:`startup_trace`, as a chunk stream."""
        builder = BatchBuilder()
        rng = Draws(np.random.default_rng(np.random.SeedSequence([self.config.seed, 55])))
        rc = self.config.request_classes[0]
        depth = self.config.max_call_depth
        for pairs in self._pairs_by_module.values():
            for pair in pairs:
                self._library_call_rows(rc, pair, pair.sites[0], rng, depth, None, builder)
                if len(builder) >= CHUNK_ROWS:
                    yield builder.take()
        if len(builder):
            yield builder.take()

    def trace_chunks(
        self,
        n_requests: int,
        include_marks: bool = True,
        classes: list[RequestClass] | None = None,
        start_id: int = 0,
    ) -> Iterator[TraceBatch]:
        """Batch twin of :meth:`trace`, as a chunk stream."""
        builder = BatchBuilder()
        rows = builder.rows
        rng = Draws(np.random.default_rng(np.random.SeedSequence([self.config.seed, 77, start_id])))
        mix = classes if classes is not None else self.request_mix(n_requests, rng)
        for offset, rc in enumerate(mix):
            request_id = start_id + offset
            req_rng = Draws(
                np.random.default_rng(np.random.SeedSequence([self.config.seed, 101, request_id]))
            )
            if include_marks:
                rows += (K_MARK, 0, 0, 0, 0, 0, 1, builder.tag_id(("begin", rc.name, request_id)))
            self._request_rows(rc, request_id, req_rng, builder)
            if include_marks:
                rows += (K_MARK, 0, 0, 0, 0, 0, 1, builder.tag_id(("end", rc.name, request_id)))
            if len(builder) >= CHUNK_ROWS:
                yield builder.take()
        if len(builder):
            yield builder.take()

    def startup_batch(self) -> TraceBatch:
        """Batch twin of :meth:`startup_trace` (event-for-event identical)."""
        return TraceBatch.concat(self.startup_chunks())

    def trace_batch(
        self,
        n_requests: int,
        include_marks: bool = True,
        classes: list[RequestClass] | None = None,
        start_id: int = 0,
    ) -> TraceBatch:
        """Batch twin of :meth:`trace` (event-for-event identical)."""
        return TraceBatch.concat(
            self.trace_chunks(n_requests, include_marks, classes, start_id)
        )

    def _request_rows(
        self, rc: RequestClass, request_id: int, rng: Draws, builder: BatchBuilder
    ) -> None:
        cfg = self.config
        rows = builder.rows
        app_pairs = self._pairs_by_module.get("app", [])
        app_sampler = self._samplers.get("app")
        local_base = (
            self._heap
            + cfg.data_working_set
            + (request_id % cfg.request_slots) * cfg.request_local_bytes
        )
        n_segments = max(1, int(rng.normal(rc.segments, rc.segments * 0.12)))
        u_call = rng.random(n_segments).tolist()
        phase_pairs: list[CallPair] = []
        phase_fns: list[int] = []
        last_nested: dict[str, CallPair] = {}
        switch_interval = cfg.context_switch_interval
        for seg in range(n_segments):
            if seg % rc.phase_len == 0:
                if app_pairs:
                    k = max(1, min(rc.phase_set, len(app_pairs)))
                    phase_pairs = [app_pairs[app_sampler.sample(rng)] for _ in range(k)]
                phase_fns = [
                    self._app_fn_sampler.sample(rng)
                    for _ in range(max(1, rc.app_phase_fns))
                ]
            pair: CallPair | None = None
            if phase_pairs and u_call[seg] < rc.call_prob:
                pair = phase_pairs[rng.below(len(phase_pairs))]
            self._app_segment_rows(rc, pair, local_base, rng, phase_fns, builder)
            if pair is not None:
                site = pair.sites[seg % len(pair.sites)]
                self._library_call_rows(rc, pair, site, rng, 0, last_nested, builder)
            if switch_interval:
                self._instr_since_switch += rc.segment_instr
                if self._instr_since_switch >= switch_interval:
                    self._instr_since_switch = 0
                    rows += (K_CONTEXT_SWITCH, 0, 0, 0, 0, 0, 1, -1)

    def _app_segment_rows(
        self,
        rc: RequestClass,
        pair: CallPair | None,
        local_base: int,
        rng: Draws,
        phase_fns: list[int],
        builder: BatchBuilder,
    ) -> None:
        cfg = self.config
        rows = builder.rows
        if phase_fns:
            idx = phase_fns[rng.below(len(phase_fns))]
        else:
            idx = self._app_fn_sampler.sample(rng)
        fn_entry = self._app_fn_entries[idx]
        n = max(4, int(rng.normal(rc.segment_instr, rc.segment_instr * 0.2)))
        first = max(2, n // 2)
        rows += (K_BLOCK, fn_entry, first, first * 4, 0, 0, 1, -1)
        hot_bytes = self._hot_bytes
        load_pc = fn_entry + first * 4
        for _ in range(rc.loads_per_segment):
            u = rng.random()
            if u < 0.45:
                addr = self._heap + rng.below(hot_bytes)
            elif u < 0.85:
                addr = local_base + rng.below(cfg.request_local_bytes)
            else:
                addr = self._heap + rng.below(cfg.data_working_set)
            rows += (K_LOAD, load_pc, 1, 4, 0, addr & ~0x7, 1, -1)
        rows += (
            K_COND_BRANCH, load_pc + 4, 1, 6, fn_entry + 8, 0,
            1 if rng.random() < 0.72 else 0, -1,
        )
        rest = max(2, n - first)
        rows += (K_BLOCK, load_pc + 10, rest, rest * 4, 0, 0, 1, -1)
        for _ in range(rc.stores_per_segment):
            addr = local_base + rng.below(cfg.request_local_bytes)
            rows += (K_STORE, load_pc + 14, 1, 4, 0, addr & ~0x7, 1, -1)
        if rc.virtual_call_prob and rng.random() < rc.virtual_call_prob:
            vidx = self._app_fn_sampler.sample(rng)
            cached = self._vcall_cache.get(vidx)
            if cached is None:
                vfn = self._app_image.functions[f"app_fn{vidx}"]
                cached = (
                    vfn.entry,
                    self._heap + (stable_hash(f"vt{vidx}") % cfg.data_working_set) & ~0x7,
                )
                self._vcall_cache[vidx] = cached
            ventry, vtable = cached
            call_pc = load_pc + 20
            vbody = max(4, rest // 2)
            rows += (K_CALL_INDIRECT, call_pc, 1, 6, ventry, vtable, 1, -1)
            rows += (K_BLOCK, ventry, vbody, vbody * 4, 0, 0, 1, -1)
            rows += (K_RET, ventry + vbody * 4, 1, 1, call_pc + 6, 0, 1, -1)
        if pair is not None:
            rows += (K_BLOCK, pair.sites[0] & ~0xF, 4, 16, 0, 0, 1, -1)

    def _library_call_rows(
        self,
        rc: RequestClass,
        pair: CallPair,
        site_pc: int,
        rng: Draws,
        depth: int,
        last_nested: dict[str, CallPair] | None,
        builder: BatchBuilder,
    ) -> None:
        rows = builder.rows
        entry, func_size, via_plt = self.engine.call_rows(
            pair.caller, pair.symbol, site_pc, builder
        )
        if via_plt:
            key = (pair.caller, pair.symbol)
            self.touched_pairs.add(key)
            self.pair_counts[key] = self.pair_counts.get(key, 0) + 1

        body = max(6, int(rng.normal(rc.lib_body_instr, rc.lib_body_instr * 0.25)))
        half = max(3, body // 2)
        rows += (K_BLOCK, entry, half, half * 4, 0, 0, 1, -1)
        lib_name = self._defining_module.get(pair.symbol)
        if lib_name is not None:
            rows += (K_LOAD, entry + half * 4, 1, 4, 0, self._lib_load_addr[pair.symbol], 1, -1)

        nested = None
        if depth < self.config.max_call_depth and rng.random() < rc.nested_prob:
            nested_pairs = self._pairs_by_module.get(lib_name or "", [])
            if nested_pairs:
                previous = last_nested.get(lib_name) if last_nested is not None else None
                if previous is not None and rng.random() < rc.repeat_prob:
                    nested = previous
                else:
                    nested = nested_pairs[self._samplers[lib_name].sample(rng)]
                if last_nested is not None:
                    last_nested[lib_name] = nested
        if nested is not None:
            self._library_call_rows(rc, nested, nested.sites[0], rng, depth + 1, last_nested, builder)

        rows += (
            K_COND_BRANCH, entry + half * 4 + 6, 1, 6, entry + 4, 0,
            1 if rng.random() < 0.65 else 0, -1,
        )
        rest = max(3, body - half)
        rows += (K_BLOCK, entry + half * 4 + 12, rest, rest * 4, 0, 0, 1, -1)
        rows += (K_RET, entry + max(func_size - 1, 1), 1, 1, site_pc + CALL_SITE_LEN, 0, 1, -1)

    # ---------------------------------------------------------- inspection

    def reset_usage_stats(self) -> None:
        """Forget which trampolines executed (e.g. after startup) so the
        Table 3 / Figure 4 statistics cover only the measurement period."""
        self.touched_pairs.clear()
        self.pair_counts.clear()

    @property
    def distinct_trampolines_touched(self) -> int:
        """Distinct (caller, symbol) trampolines executed so far (Table 3)."""
        return len(self.touched_pairs)

    def frequency_curve(self) -> list[int]:
        """Per-trampoline execution counts, most-frequent first (Figure 4)."""
        return sorted(self.pair_counts.values(), reverse=True)

    def all_call_sites(self) -> list[tuple[int, str, str]]:
        """(site_pc, caller, symbol) for every call site in the program."""
        out = []
        for pairs in self._pairs_by_module.values():
            for p in pairs:
                for site in p.sites:
                    out.append((site, p.caller, p.symbol))
        return out
