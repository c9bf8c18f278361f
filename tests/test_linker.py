"""Unit tests for modules, layout and the dynamic linker."""

from __future__ import annotations

import pytest

from repro.errors import LayoutError, LinkError
from repro.linker import (
    GOT_RESERVED_SLOTS,
    GOT_SLOT_SIZE,
    PLT_ENTRY_SIZE,
    ClassicLayout,
    CompatLayout,
    DynamicLinker,
    FunctionSpec,
    ModuleSpec,
    REL32_REACH,
    StaticLinker,
    SymbolKind,
    within_rel32,
)
from tests.conftest import tiny_specs


class TestModuleSpec:
    def test_duplicate_function_rejected(self):
        with pytest.raises(LinkError):
            ModuleSpec("m", [FunctionSpec("f", 64), FunctionSpec("f", 64)])

    def test_duplicate_import_rejected(self):
        with pytest.raises(LinkError):
            ModuleSpec("m", [], imports=["a", "a"])

    def test_plt_size_includes_plt0(self):
        spec = ModuleSpec("m", [], imports=["a", "b", "c"])
        assert spec.plt_size == PLT_ENTRY_SIZE * 4

    def test_got_size_includes_reserved(self):
        spec = ModuleSpec("m", [], imports=["a"])
        assert spec.got_size == GOT_SLOT_SIZE * (GOT_RESERVED_SLOTS + 1)

    def test_ifunc_variants_add_text(self):
        plain = ModuleSpec("m", [FunctionSpec("f", 100)])
        ifunc = ModuleSpec(
            "m", [FunctionSpec("f", 100, SymbolKind.IFUNC, ifunc_variants=3)]
        )
        assert ifunc.text_size == plain.text_size * 4  # resolver + 3 variants

    def test_function_too_small_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec("f", 4)


class TestModuleImage:
    def test_plt_entries_are_16_bytes_apart(self, tiny_program):
        app = tiny_program.module("app")
        addrs = [app.plt_entry(s) for s in app.imports()]
        assert all(b - a == PLT_ENTRY_SIZE for a, b in zip(addrs, addrs[1:]))

    def test_four_plt_stubs_per_cache_line(self, tiny_program):
        assert 64 // PLT_ENTRY_SIZE == 4

    def test_got_slots_are_8_bytes_apart(self, tiny_program):
        app = tiny_program.module("app")
        addrs = [app.got_slot(s) for s in app.imports()]
        assert all(b - a == GOT_SLOT_SIZE for a, b in zip(addrs, addrs[1:]))

    def test_plt0_precedes_stubs(self, tiny_program):
        app = tiny_program.module("app")
        assert app.plt0_address() < app.plt_entry(app.imports()[0])

    def test_push_address_inside_stub(self, tiny_program):
        app = tiny_program.module("app")
        stub = app.plt_entry("printf")
        assert stub < app.plt_push_address("printf") < stub + PLT_ENTRY_SIZE

    def test_unknown_import_raises(self, tiny_program):
        with pytest.raises(LinkError):
            tiny_program.module("app").plt_entry("nope")

    def test_unknown_function_raises(self, tiny_program):
        with pytest.raises(LinkError):
            tiny_program.module("app").function("nope")

    def test_plt_range_holds_stubs_not_functions(self, tiny_program):
        app = tiny_program.module("app")
        lo, hi = app.plt_range
        assert lo <= app.plt_entry("printf") < hi
        assert not lo <= app.function("main").entry < hi

    def test_functions_laid_out_in_order(self, tiny_program):
        app = tiny_program.module("app")
        assert app.function("main").entry < app.function("handler").entry


class TestLayouts:
    def test_classic_puts_libraries_high(self, tiny_program):
        app = tiny_program.module("app")
        libc = tiny_program.module("libc.so")
        assert libc.text_base > app.text_base
        assert libc.text_base > 0x7F00_0000_0000

    def test_classic_layout_beyond_rel32(self, tiny_program):
        app = tiny_program.module("app")
        libc = tiny_program.module("libc.so")
        site = app.function("main").entry + 32
        assert not within_rel32(site, libc.function("printf").entry)

    def test_compat_layout_within_rel32(self):
        exe, libs = tiny_specs()
        program = DynamicLinker().link(exe, libs, CompatLayout())
        site = program.module("app").function("main").entry + 32
        assert within_rel32(site, program.module("libc.so").function("printf").entry)

    def test_aslr_randomises_library_bases(self):
        exe, libs = tiny_specs()
        prog_a = DynamicLinker().link(exe, libs, ClassicLayout(aslr=True, seed=1))
        exe, libs = tiny_specs()
        prog_b = DynamicLinker().link(exe, libs, ClassicLayout(aslr=True, seed=2))
        assert (
            prog_a.module("libc.so").text_base != prog_b.module("libc.so").text_base
        )

    def test_aslr_deterministic_per_seed(self):
        exe, libs = tiny_specs()
        a = DynamicLinker().link(exe, libs, ClassicLayout(aslr=True, seed=7))
        exe, libs = tiny_specs()
        b = DynamicLinker().link(exe, libs, ClassicLayout(aslr=True, seed=7))
        assert a.module("libc.so").text_base == b.module("libc.so").text_base

    def test_no_section_overlap(self, tiny_program):
        ranges = []
        for image in tiny_program.modules.values():
            ranges.append(image.text_range)
            ranges.append(image.plt_range)
            ranges.append(image.got_range)
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi <= lo

    def test_compat_window_exhaustion(self):
        huge = ModuleSpec("big.so", [FunctionSpec("f", REL32_REACH // 2)])
        huge2 = ModuleSpec("big2.so", [FunctionSpec("g", REL32_REACH // 2)])
        layout = CompatLayout()
        layout.place_executable(ModuleSpec("app", [FunctionSpec("main", 64)]))
        layout.place_library(huge)
        with pytest.raises(LayoutError):
            layout.place_library(huge2)


class TestDynamicLinker:
    def test_undefined_import_rejected(self):
        exe = ModuleSpec("app", [FunctionSpec("main", 64)], imports=["missing"])
        with pytest.raises(LinkError):
            DynamicLinker().link(exe, [])

    def test_duplicate_module_names_rejected(self):
        exe, libs = tiny_specs()
        with pytest.raises(LinkError):
            DynamicLinker().link(exe, libs + [libs[0]])

    def test_symbols_resolve_to_defining_module(self, tiny_program):
        sym = tiny_program.symbols.lookup("printf")
        assert sym.module == "libc.so"
        assert sym.address == tiny_program.module("libc.so").function("printf").entry

    def test_interposition_first_definition_wins(self):
        lib1 = ModuleSpec("one.so", [FunctionSpec("dup", 64)])
        lib2 = ModuleSpec("two.so", [FunctionSpec("dup", 64)])
        exe = ModuleSpec("app", [FunctionSpec("main", 64)], imports=["dup"])
        program = DynamicLinker().link(exe, [lib1, lib2])
        assert program.symbols.lookup("dup").module == "one.so"

    def test_lazy_binding_first_call(self, tiny_program):
        binding = tiny_program.bind_call("app", "printf")
        assert binding.first_call
        assert binding.resolver_instructions > 0
        assert binding.via_plt

    def test_second_call_already_resolved(self, tiny_program):
        tiny_program.bind_call("app", "printf")
        binding = tiny_program.bind_call("app", "printf")
        assert not binding.first_call
        assert binding.resolver_instructions == 0

    def test_resolution_is_per_module(self, tiny_program):
        tiny_program.bind_call("app", "memcpy")
        binding = tiny_program.bind_call("libx.so", "memcpy")
        assert binding.first_call  # each module has its own GOT slot

    def test_bound_target_is_function_entry(self, tiny_program):
        binding = tiny_program.bind_call("app", "printf")
        assert binding.func_addr == tiny_program.module("libc.so").function("printf").entry

    def test_calling_unimported_symbol_raises(self, tiny_program):
        with pytest.raises(LinkError):
            tiny_program.bind_call("app", "strlen")  # app does not import it

    def test_bind_now_resolves_everything(self, tiny_program):
        count = tiny_program.bind_now()
        assert count == 5  # app: 3 imports, libx: 2
        assert tiny_program.resolved_count() == 5

    def test_got_value_transitions(self, tiny_program):
        assert tiny_program.got_value("app", "printf") is None
        tiny_program.bind_call("app", "printf")
        assert tiny_program.got_value("app", "printf") is not None

    def test_resolution_log_order(self, tiny_program):
        tiny_program.bind_call("app", "x_parse")
        tiny_program.bind_call("app", "printf")
        assert tiny_program.resolution_log == [("app", "x_parse"), ("app", "printf")]


class TestUnload:
    def test_unload_resets_got_slots(self, tiny_program):
        tiny_program.bind_call("app", "printf")
        reset = tiny_program.unload_library("libc.so")
        assert ("app", "printf") in [(m, s) for m, s, _ in reset]
        assert "libc.so" not in tiny_program.modules

    def test_unload_reports_got_addresses(self, tiny_program):
        app = tiny_program.module("app")
        expected_got = app.got_slot("printf")
        tiny_program.bind_call("app", "printf")
        reset = tiny_program.unload_library("libc.so")
        assert any(g == expected_got for _, _, g in reset)

    def test_unload_unknown_module_raises(self, tiny_program):
        with pytest.raises(LinkError):
            tiny_program.unload_library("nope.so")

    def test_unresolved_slots_not_reported(self, tiny_program):
        reset = tiny_program.unload_library("libc.so")
        assert reset == []  # nothing was resolved yet


class TestIfunc:
    def _program(self, hwcap: int):
        libc = ModuleSpec(
            "libc.so",
            [FunctionSpec("memcpy", 128, SymbolKind.IFUNC, ifunc_variants=3)],
        )
        exe = ModuleSpec("app", [FunctionSpec("main", 64)], imports=["memcpy"])
        return DynamicLinker().link(exe, [libc], hwcap_level=hwcap)

    def test_ifunc_selects_variant_by_hwcap(self):
        targets = {self._program(h).bind_call("app", "memcpy").func_addr for h in range(3)}
        assert len(targets) == 3

    def test_ifunc_resolution_costs_extra(self):
        plain_libc = ModuleSpec("libc.so", [FunctionSpec("memcpy", 128)])
        exe = ModuleSpec("app", [FunctionSpec("main", 64)], imports=["memcpy"])
        plain = DynamicLinker().link(exe, [plain_libc]).bind_call("app", "memcpy")
        ifunc = self._program(0).bind_call("app", "memcpy")
        assert ifunc.resolver_instructions > plain.resolver_instructions

    def test_ifunc_variant_is_stable_after_resolution(self):
        program = self._program(1)
        first = program.bind_call("app", "memcpy").func_addr
        second = program.bind_call("app", "memcpy").func_addr
        assert first == second


class TestStaticLinker:
    def test_static_has_no_plt(self):
        exe, libs = tiny_specs()
        program = StaticLinker().link(exe, libs)
        binding = program.bind_call("app", "printf")
        assert not binding.via_plt
        assert binding.plt_addr == 0 and binding.got_addr == 0

    def test_static_resolves_all_imports(self):
        exe, libs = tiny_specs()
        program = StaticLinker().link(exe, libs)
        for sym in ("printf", "x_parse", "memcpy"):
            assert program.bind_call("app", sym).func_addr > 0

    def test_static_undefined_symbol_raises(self):
        exe = ModuleSpec("app", [FunctionSpec("main", 64)], imports=["missing"])
        with pytest.raises(LinkError):
            StaticLinker().link(exe, [])

    def test_static_text_is_contiguous_low(self):
        exe, libs = tiny_specs()
        program = StaticLinker().link(exe, libs)
        entries = [
            img.function(f.name).entry
            for img in program.modules.values()
            for f in img.spec.functions
        ]
        assert max(entries) - min(entries) < (1 << 22)  # all within 4 MB

    def test_static_never_first_call(self):
        exe, libs = tiny_specs()
        program = StaticLinker().link(exe, libs)
        assert not program.bind_call("app", "printf").first_call
