"""Snapshot/restore, machine checkpointing, and the sharded campaign.

The central property here is the one checkpointing rests on:

    run(full trace)  ==  restore(snapshot(run(first half))); run(rest)

counter for counter, on every workload profile — plus the supporting
contracts: per-component JSON round-trips, MachineState persistence,
warm-up reuse producing identical measurement windows, and a sharded
campaign being byte-identical to a serial one.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.core import TrampolineSkipMechanism
from repro.core.config import MechanismConfig
from repro.errors import ChaosError, ConfigError, TraceError
from repro.experiments.runner import (
    pair_key,
    run_campaign,
    run_pair,
    run_workload,
    summarize_pair,
)
from repro.experiments.scale import Scale
from repro.isa.kinds import EventKind
from repro.trace.engine import LinkMode, TraceCursor
from repro.uarch import CPU, CPUConfig, CheckpointStore, MachineState
from repro.uarch.component import default_registry, verify_component_roundtrip
from repro.uarch.cpu import ChainedHooks, CPUHooks
from repro.workloads import ALL_WORKLOADS, Workload

#: A fast scale for the sharded-campaign identity tests.
TINY = Scale(
    "tiny",
    {"apache": (2, 4), "memcached": (3, 6), "mysql": (2, 4), "firefox": (2, 4)},
)


def _marks(cpu: CPU) -> list[tuple]:
    return [(m.tag, m.instructions, m.cycles) for m in cpu.marks]


# ------------------------------------------------------------ the property


@pytest.mark.parametrize("workload_name", sorted(ALL_WORKLOADS))
@pytest.mark.parametrize("enhanced", [False, True], ids=["base", "enhanced"])
def test_split_run_equals_full_run(workload_name: str, enhanced: bool) -> None:
    """run(trace) == restore(snapshot(run(half))) + run(rest), per profile."""
    cfg = ALL_WORKLOADS[workload_name].config()

    def build_cpu() -> CPU:
        mech = (
            TrampolineSkipMechanism(MechanismConfig(abtb_entries=64))
            if enhanced
            else None
        )
        return CPU(mechanism=mech)

    events = list(Workload(cfg, LinkMode.DYNAMIC).trace(6))
    # Split at a begin-MARK boundary: mid-pair splits would desync the
    # CALL_DIRECT lookahead, which is exactly what real checkpoints avoid
    # by cutting between requests.
    begins = [
        i
        for i, ev in enumerate(events)
        if ev.kind is EventKind.MARK
        and isinstance(ev.tag, tuple)
        and ev.tag[0] == "begin"
    ]
    split = begins[len(begins) // 2]
    assert 0 < split < len(events)

    reference = build_cpu()
    reference.run(iter(events))
    expected = reference.finalize().as_dict()

    first = build_cpu()
    first.run(iter(events[:split]))
    state = first.snapshot()
    state = json.loads(json.dumps(state))  # must survive serialisation

    resumed = build_cpu()
    resumed.restore(state)
    resumed.run(iter(events[split:]))
    got = resumed.finalize().as_dict()

    assert got == expected
    assert _marks(resumed) == _marks(reference)


def test_warmup_cache_hit_is_counter_identical(tmp_path) -> None:
    """A run restored from the warm-up cache measures identical windows."""
    cfg = ALL_WORKLOADS["firefox"].config()
    cold = run_workload(cfg, warmup_requests=3, measured_requests=5)
    store = CheckpointStore(tmp_path)
    filled = run_workload(
        cfg, warmup_requests=3, measured_requests=5, machine_cache=store
    )
    assert store.writes == 1
    cached = run_workload(
        cfg, warmup_requests=3, measured_requests=5, machine_cache=store
    )
    assert store.hits == 1
    for other in (filled, cached):
        assert other.counters.as_dict() == cold.counters.as_dict()
        assert [(r.request_id, r.instructions, r.cycles) for r in other.requests] == [
            (r.request_id, r.instructions, r.cycles) for r in cold.requests
        ]


# ------------------------------------------------------------- components


def test_every_registry_component_round_trips() -> None:
    config = CPUConfig()
    registry = default_registry()
    warmed = registry.build(config)
    cpu = CPU(config)
    cpu.run(Workload(ALL_WORKLOADS["firefox"].config()).trace(2))
    for name in registry.names():
        fresh = registry.factory(name)(config)
        verify_component_roundtrip(cpu.components[name], fresh)
        # And a never-used component round-trips too (empty state).
        verify_component_roundtrip(
            warmed[name], registry.factory(name)(config)
        )


def test_mechanism_round_trips_through_json() -> None:
    mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
    mech.learn(0x400000, 0x401000, 0x7F0000, 0x600000)
    mech.snoop_store(0x600000)
    mech.learn(0x400005, 0x401010, 0x7F0040, 0x600008)
    state = json.loads(json.dumps(mech.snapshot()))
    clone = TrampolineSkipMechanism(MechanismConfig(abtb_entries=16))
    clone.restore(state)
    assert clone.snapshot() == json.loads(json.dumps(state))
    assert clone.mapped_target(0x401010) == 0x7F0040
    with pytest.raises(ConfigError):
        TrampolineSkipMechanism(MechanismConfig(abtb_entries=32)).restore(state)


def test_cpu_restore_rejects_mismatches() -> None:
    cpu = CPU()
    state = cpu.snapshot()
    with pytest.raises(ConfigError):
        CPU(CPUConfig(btb_entries=1024)).restore(state)
    with pytest.raises(ConfigError):
        CPU(mechanism=TrampolineSkipMechanism()).restore(state)
    enhanced_state = CPU(mechanism=TrampolineSkipMechanism()).snapshot()
    with pytest.raises(ConfigError):
        CPU().restore(enhanced_state)
    bad_version = dict(state, version=999)
    with pytest.raises(ConfigError):
        CPU().restore(bad_version)


def _damage_row(state: dict, width: int, damage: str) -> None:
    row = state["sets"][0]
    if damage == "not whole entries":
        del row[-1]
    elif damage == "over-full":
        row += [1 << 40] * (width - 1) + [row[-1] + 1]
    elif damage == "set count":
        state["sets"].pop()
    elif damage == "repeated key":
        row[width] = row[0]
    elif damage == "repeated stamp":
        row[2 * width - 1] = row[width - 1]
    else:  # two entries swapped: stamps out of order
        row[: 2 * width] = row[width : 2 * width] + row[:width]


@pytest.mark.parametrize(
    "damage",
    ["not whole entries", "over-full", "set count", "repeated key", "repeated stamp", "swapped"],
)
@pytest.mark.parametrize(
    "name, label",
    [
        ("l1i", "L1I"), ("l1d", "L1D"), ("l2", "L2"),
        ("itlb", "ITLB"), ("dtlb", "DTLB"), ("btb", "BTB"),
    ],
)
def test_lru_restore_rejects_malformed_rows(name: str, label: str, damage: str) -> None:
    config = CPUConfig()
    build = default_registry().factory(name)
    structure = build(config)
    # Fill set 0 to capacity: keys n_sets apart share a set.
    for k in range(structure.ways):
        key = k * structure.n_sets
        if name == "btb":
            structure.update(key << 2, 0x1000 + k)
        elif name in ("itlb", "dtlb"):
            structure.access_page(key)
        else:
            structure.access_line(key)
    state = json.loads(json.dumps(structure.snapshot()))
    build(config).restore(state)  # the undamaged snapshot restores
    _damage_row(state, 3 if name == "btb" else 2, damage)
    with pytest.raises(ConfigError, match=label):
        build(config).restore(state)


def test_cpu_reset_matches_fresh_machine() -> None:
    cpu = CPU(mechanism=TrampolineSkipMechanism())
    cpu.run(Workload(ALL_WORKLOADS["firefox"].config()).trace(2))
    cpu.finalize()
    cpu.reset()
    fresh = CPU(mechanism=TrampolineSkipMechanism())
    assert cpu.snapshot() == fresh.snapshot()


# ------------------------------------------------------------ MachineState


def test_machine_state_save_load_verify(tmp_path) -> None:
    cfg = ALL_WORKLOADS["memcached"].config()
    workload = Workload(cfg)
    cpu = CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=32)))
    cursor = TraceCursor(workload.startup_trace())
    cpu.run(cursor)
    cpu.finalize()
    state = MachineState.capture(cpu, trace_position=cursor.index, meta={"w": "memcached"})
    path = state.save(tmp_path / "m.json")
    loaded = MachineState.load(path)
    loaded.validate_roundtrip()
    assert loaded.trace_position == cursor.index
    rebuilt = loaded.build_cpu()
    assert rebuilt.counters.as_dict() == cpu.counters.as_dict()
    assert rebuilt.mechanism is not None
    assert rebuilt.mechanism.config.abtb_entries == 32

    with pytest.raises(ConfigError):
        loaded.restore_into(CPU())  # no mechanism → config mismatch


def test_checkpoint_store_miss_hit_and_corruption(tmp_path) -> None:
    store = CheckpointStore(tmp_path)
    assert store.load("nope") is None
    state = MachineState.capture(CPU())
    store.save("k", state)
    assert store.load("k") is not None
    assert store.keys() == ["k"]
    store.path("bad").write_text("{not json")
    assert store.load("bad") is None
    assert (store.hits, store.misses) == (1, 2)


# -------------------------------------------------------------- satellites


def test_chained_hooks_mirror_typed_signature() -> None:
    base = inspect.signature(CPUHooks.on_trampoline)
    chained = inspect.signature(ChainedHooks.on_trampoline)
    assert list(chained.parameters) == list(base.parameters)
    for name, param in base.parameters.items():
        assert chained.parameters[name].kind == param.kind, name


def test_chained_hooks_fan_out_positionally() -> None:
    seen = []

    class Probe(CPUHooks):
        def on_trampoline(self, site_pc, stub_pc, target, skipped, n_instr,
                          got_load, abtb_hit, mispredicted):
            seen.append((site_pc, stub_pc, target, skipped, n_instr,
                         got_load, abtb_hit, mispredicted))

    hooks = ChainedHooks(Probe(), None, Probe())
    hooks.on_trampoline(1, 2, 3, True, 0, False, True, False)
    assert seen == [(1, 2, 3, True, 0, False, True, False)] * 2


@pytest.mark.parametrize(
    "field,value",
    [
        ("l1i_bytes", 3000),
        ("l1d_bytes", 0),
        ("l2_bytes", 5 * 1024 * 1024),
        ("line_bytes", 48),
        ("itlb_entries", 100),
        ("dtlb_entries", -4),
        ("btb_entries", 2000),
        ("gshare_entries", 4097),
    ],
)
def test_cpu_config_rejects_non_power_of_two(field: str, value: int) -> None:
    with pytest.raises(ValueError, match=field):
        CPUConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("l1i_ways", 0),
        ("btb_ways", -1),
        ("ras_depth", 0),
        ("history_bits", 0),
        ("history_bits", 33),
        ("direct_btb_bubble", -1.0),
    ],
)
def test_cpu_config_rejects_bad_values(field: str, value) -> None:
    with pytest.raises(ValueError, match=field):
        CPUConfig(**{field: value})


def test_cpu_config_defaults_still_valid() -> None:
    CPUConfig()  # must not raise


# ------------------------------------------------------------- TraceCursor


def test_trace_cursor_drain_and_seek() -> None:
    cursor = TraceCursor(iter(range(10)))
    assert cursor.drain(3) == 3
    assert cursor.index == 3
    cursor.seek(7)
    assert next(iter(cursor)) == 7
    assert cursor.index == 8
    with pytest.raises(TraceError):
        cursor.seek(2)
    with pytest.raises(TraceError):
        cursor.seek(99)


def test_trace_cursor_base_index_offsets_position() -> None:
    cursor = TraceCursor(iter(range(5)), base_index=100)
    cursor.drain()
    assert cursor.index == 105


def test_injector_base_index_drops_prefix_schedule() -> None:
    from repro.chaos.faults import ChaosContext, Fault
    from repro.chaos.injector import Injector

    class Noop(Fault):
        name = "noop"

        def fire(self, ctx, rng):
            return []

    ctx = ChaosContext.__new__(ChaosContext)  # schedule logic only
    fault = Noop()
    inj = Injector([fault], ctx, at=[(5, fault), (50, fault)], base_index=10)
    assert inj.index == 10
    assert inj.dropped_schedule == 1
    assert [pos for pos, _ in inj._scheduled] == [50]
    with pytest.raises(ChaosError):
        Injector([fault], ctx, base_index=-1)


# --------------------------------------------------------- sharded campaign


def test_sharded_campaign_matches_serial_byte_for_byte(tmp_path) -> None:
    workloads = ["firefox", "mysql"]
    serial = run_campaign(
        workloads, TINY, abtb_sizes=(16, 64),
        checkpoint_path=tmp_path / "serial.json",
    )
    sharded = run_campaign(
        workloads, TINY, abtb_sizes=(16, 64),
        checkpoint_path=tmp_path / "sharded.json",
        jobs=2, machine_cache_dir=tmp_path / "mc",
    )
    assert serial.ok and sharded.ok
    assert serial.completed == sharded.completed
    assert list(serial.completed) == list(sharded.completed)
    assert (tmp_path / "serial.json").read_bytes() == (
        tmp_path / "sharded.json"
    ).read_bytes()
    # Both run in workers; the reference that depends on no engine is a
    # pair run in this process.
    assert serial.completed == {
        pair_key(w, n, "tiny"): summarize_pair(*run_pair(w, TINY, abtb_entries=n))
        for w in workloads
        for n in (16, 64)
    }


def test_sharded_campaign_resumes_from_checkpoint(tmp_path) -> None:
    path = tmp_path / "ck.json"
    first = run_campaign(["firefox"], TINY, abtb_sizes=(16,), checkpoint_path=path)
    assert first.ok and first.resumed == 0
    again = run_campaign(
        ["firefox"], TINY, abtb_sizes=(16, 64), checkpoint_path=path, jobs=2
    )
    assert again.ok
    assert again.resumed == 1  # the abtb=16 pair came from the checkpoint
    assert first.completed["firefox::abtb=16::scale=tiny"] == \
        again.completed["firefox::abtb=16::scale=tiny"]


def test_campaign_rejects_bad_jobs() -> None:
    with pytest.raises(ConfigError):
        run_campaign(["firefox"], TINY, jobs=0)


def test_sharded_campaign_merges_worker_metrics(tmp_path) -> None:
    from repro.obs import Observability

    obs = Observability(metrics_out=str(tmp_path / "m.jsonl"), sample_every=0)
    result = run_campaign(
        ["firefox"], TINY, abtb_sizes=(16, 64), jobs=2, obs=obs
    )
    assert result.ok
    assert obs.metrics.counter("campaign.pairs_completed").value == 2.0
    assert len(obs.metrics.series("campaign.speedup")) == 2


# ------------------------------------------------------------- CLI surface


def test_cli_checkpoint_roundtrip(tmp_path, capsys) -> None:
    from repro.cli import main

    out = tmp_path / "ck.json"
    assert main([
        "checkpoint", "save", "firefox", "--out", str(out),
        "--requests", "2", "--enhanced", "--abtb", "32",
    ]) == 0
    assert out.exists()
    assert main(["checkpoint", "info", str(out)]) == 0
    info = capsys.readouterr().out
    assert "trace position" in info and "abtb_entries" in info
    shown = [line.split(":", 1)[1].strip() for line in info.splitlines()
             if line.startswith("cycles ")]
    captured = MachineState.load(out).cpu["components"]["counters"]["cycles"]
    assert captured > 0
    assert [float(value) for value in shown] == [captured]
    assert main(["checkpoint", "verify", str(out)]) == 0


def test_cli_campaign_jobs_flag(tmp_path) -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "campaign", "--workloads", "firefox", "--jobs", "2",
        "--machine-cache", str(tmp_path / "mc"),
    ])
    assert args.jobs == 2
    assert args.machine_cache == str(tmp_path / "mc")
