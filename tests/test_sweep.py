"""The sweep engine: spec expansion, set-associative ABTB, analysis,
end-to-end execution with resume, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.core.abtb import ABTB, ABTB_ENTRY_BYTES
from repro.core.config import MechanismConfig
from repro.difftest import difftest_workload
from repro.errors import ConfigError
from repro.experiments.hwcost import mechanism_storage_bytes
from repro.sweep import (
    SweepSpec,
    aggregate_configs,
    analyze_sweep,
    load_spec,
    pareto_frontier,
    report_sweep,
    run_sweep,
    sensitivity,
)

# Addresses on the 16-byte PLT-stub pitch: every +16 lands in the next set.
STRIDE = 16


def _tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="t",
        workloads=["memcached"],
        warmup=1,
        measured=3,
        abtb_entries=[16],
        bloom_bits=[1 << 14],
    )
    base.update(overrides)
    return SweepSpec(**base)


def _files(root) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --------------------------------------------------------------------------
# SweepSpec
# --------------------------------------------------------------------------


class TestSweepSpec:
    def test_expansion_is_the_full_cross_product(self):
        spec = _tiny_spec(
            workloads=["memcached", "apache"],
            abtb_entries=[16, 64],
            abtb_ways=[0, 4],
            bloom_bits=[1 << 14, 1 << 17],
        )
        points = spec.expand()
        assert spec.size() == 2 * 2 * 2 * 2
        assert len(points) == spec.size()
        assert len({p.key for p in points}) == len(points)

    def test_points_of_one_workload_share_cost_axis_keys(self):
        spec = _tiny_spec(abtb_entries=[16, 64])
        points = spec.expand()
        costs = {p.key: p.cost_bytes for p in points}
        for p in points:
            assert costs[p.key] == mechanism_storage_bytes(
                p.mechanism["abtb_entries"], bloom_bits=p.mechanism["bloom_bits"]
            )

    def test_round_trip_through_json(self, tmp_path):
        spec = _tiny_spec(abtb_ways=[0, 2], abtb_policy=["lru", "fifo"])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.load(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep spec field"):
            SweepSpec.from_dict({"abtb_size": [16]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            _tiny_spec(workloads=["redis"])

    def test_empty_and_duplicate_axes_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            _tiny_spec(abtb_entries=[])
        with pytest.raises(ConfigError, match="duplicate"):
            _tiny_spec(abtb_entries=[16, 16])

    def test_invalid_combination_raises_with_context(self):
        spec = _tiny_spec(abtb_entries=[16], abtb_ways=[5])  # 5 doesn't divide 16
        with pytest.raises(ConfigError, match="invalid sweep point"):
            spec.expand()

    def test_skip_invalid_drops_quietly(self):
        spec = _tiny_spec(abtb_entries=[16, 64], abtb_ways=[0, 5], skip_invalid=True)
        points = spec.expand()
        assert len(points) == 2  # only ways=0 survives for both sizes
        assert spec.size() == 4

    def test_scale_covers_every_workload(self):
        spec = _tiny_spec(workloads=["memcached", "apache"], warmup=3, measured=7)
        scale = spec.scale()
        assert (scale.warmup("memcached"), scale.measured("memcached")) == (3, 7)
        assert (scale.warmup("apache"), scale.measured("apache")) == (3, 7)


# --------------------------------------------------------------------------
# Set-associative ABTB
# --------------------------------------------------------------------------


class TestSetAssociativeABTB:
    def test_ways_must_divide_entries(self):
        with pytest.raises(ConfigError):
            ABTB(16, ways=5)
        with pytest.raises(ConfigError):
            MechanismConfig(abtb_entries=16, abtb_ways=5)

    def test_fully_associative_default_unchanged(self):
        abtb = ABTB(4)
        for i in range(5):
            abtb.insert(0x1000 + i * STRIDE, 0x2000 + i, 0x3000 + i)
        assert len(abtb) == 4
        assert abtb.lookup(0x1000) is None  # LRU victim across the whole table
        assert abtb.lookup(0x1000 + 4 * STRIDE) == 0x2000 + 4

    def test_set_conflicts_evict_within_one_set_only(self):
        # 8 entries / 2 ways = 4 sets; addresses 4*STRIDE apart collide.
        abtb = ABTB(8, ways=2)
        base = 0x1000
        conflicting = [base + i * 4 * STRIDE for i in range(3)]
        for i, addr in enumerate(conflicting):
            abtb.insert(addr, 0x2000 + i, 0x3000 + i)
        other = base + STRIDE  # different set, untouched by the conflicts
        abtb.insert(other, 0x2FFF, 0x3FFF)
        assert abtb.lookup(conflicting[0]) is None  # evicted by set pressure
        assert abtb.lookup(conflicting[1]) == 0x2001
        assert abtb.lookup(conflicting[2]) == 0x2002
        assert abtb.lookup(other) == 0x2FFF
        assert abtb.evictions == 1

    def test_fifo_policy_ignores_reuse_within_set(self):
        abtb = ABTB(8, ways=2, policy="fifo")
        a, b, c = (0x1000 + i * 4 * STRIDE for i in range(3))
        abtb.insert(a, 1, 11)
        abtb.insert(b, 2, 12)
        assert abtb.lookup(a) == 1  # reuse; FIFO must not refresh it
        abtb.insert(c, 3, 13)
        assert abtb.lookup(a) is None
        assert abtb.lookup(b) == 2

    def test_lru_policy_protects_reused_entry(self):
        abtb = ABTB(8, ways=2, policy="lru")
        a, b, c = (0x1000 + i * 4 * STRIDE for i in range(3))
        abtb.insert(a, 1, 11)
        abtb.insert(b, 2, 12)
        assert abtb.lookup(a) == 1
        abtb.insert(c, 3, 13)
        assert abtb.lookup(a) == 1
        assert abtb.lookup(b) is None

    def test_snapshot_round_trip_preserves_set_state(self):
        abtb = ABTB(8, ways=2)
        for i in range(6):
            abtb.insert(0x1000 + i * STRIDE, 0x2000 + i, 0x3000 + i)
        abtb.lookup(0x1000)
        state = abtb.snapshot()
        clone = ABTB(8, ways=2)
        clone.restore(state)
        assert clone.snapshot() == state
        assert len(clone) == len(abtb)

    def test_restore_rejects_mismatched_geometry(self):
        state = ABTB(8, ways=2).snapshot()
        with pytest.raises(ConfigError):
            ABTB(8, ways=4).restore(state)
        with pytest.raises(ConfigError):
            ABTB(8).restore(state)

    def test_storage_cost_is_associativity_independent(self):
        assert ABTB(64, ways=4).storage_bytes == 64 * ABTB_ENTRY_BYTES
        assert ABTB(64).storage_bytes == 64 * ABTB_ENTRY_BYTES

    def test_difftest_full_snapshot_equality_set_associative(self):
        report = difftest_workload(
            "memcached",
            requests=8,
            mechanism_config=MechanismConfig(abtb_entries=64, abtb_ways=4),
        )
        assert report.ok, report.render()


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------


def _row(workload, cost, speedup, **axes):
    base = {
        "workload": workload,
        "abtb_entries": 16,
        "abtb_ways": 0,
        "abtb_policy": "lru",
        "bloom_bits": 1 << 14,
        "bloom_hashes": 4,
        "btb_entries": 2048,
        "btb_ways": 4,
        "gshare_entries": 4096,
    }
    base.update(axes)
    base["cost_bytes"] = cost
    base["speedup"] = speedup
    base["key"] = f"{workload}:{cost}:{sorted(axes.items())}"
    return base


class TestAnalysis:
    def test_geomean_aggregation_across_workloads(self):
        rows = [
            _row("memcached", 100, 2.0),
            _row("apache", 100, 0.5),
        ]
        configs = aggregate_configs(rows)
        assert len(configs) == 1
        assert configs[0]["speedup"] == pytest.approx(1.0)
        assert configs[0]["workloads"] == {"memcached": 2.0, "apache": 0.5}

    def test_pareto_frontier_marks_dominated_points(self):
        configs = [
            {"cost_bytes": 100, "speedup": 1.10},
            {"cost_bytes": 200, "speedup": 1.05},  # dominated: dearer, slower
            {"cost_bytes": 300, "speedup": 1.30},
            {"cost_bytes": 300, "speedup": 1.20},  # equal cost, slower
        ]
        frontier = pareto_frontier(configs)
        assert [c["cost_bytes"] for c in frontier] == [100, 300]
        assert [c["on_frontier"] for c in configs] == [True, False, True, False]

    def test_sensitivity_ranks_axes_by_effect(self):
        rows = [
            _row("memcached", 100, 1.0, abtb_entries=16),
            _row("memcached", 200, 1.5, abtb_entries=64),
            _row("memcached", 100, 1.2, abtb_entries=16, abtb_ways=4),
            _row("memcached", 200, 1.3, abtb_entries=64, abtb_ways=4),
        ]
        axis_values = {"abtb_entries": (16, 64), "abtb_ways": (0, 4)}
        tables = sensitivity(rows, axis_values)
        assert [t["axis"] for t in tables] == ["abtb_entries", "abtb_ways"]
        entries = tables[0]
        assert entries["effect"] == pytest.approx(0.3)  # (1.4+1.5)/... means
        assert [v["value"] for v in entries["values"]] == [16, 64]

    def test_analyze_ignores_unfinished_points(self):
        spec = _tiny_spec(abtb_entries=[16, 64])
        points = spec.expand()
        done = {points[0].key: {"speedup": 1.2, "skip_rate": 0.1}}
        analysis = analyze_sweep(points, done, spec.axis_values())
        assert len(analysis["points"]) == 1
        assert len(analysis["configs"]) == 1
        assert analysis["best"]["overall"]["speedup"] == pytest.approx(1.2)


# --------------------------------------------------------------------------
# Engine end-to-end
# --------------------------------------------------------------------------


class TestEngine:
    def test_run_resume_and_report(self, tmp_path):
        spec = _tiny_spec(abtb_entries=[16, 64], abtb_ways=[0, 4])
        out = tmp_path / "sweep"
        result = run_sweep(spec, out, jobs=1)
        assert result.ok
        assert result.summary["completed"] == 4
        assert result.summary["executed"] == 4
        # All four points of the one workload shared one trace bundle.
        assert result.summary["trace_cache"]["hit_rate"] > 0
        analysis_dir = out / "analysis"
        for name in ("points", "pareto", "sensitivity", "best", "summary"):
            assert (analysis_dir / f"{name}.json").is_file()
        html = (analysis_dir / "report.html").read_text()
        assert "Pareto frontier" in html and "viz-root" in html

        # Resume: the checkpoint already has every point.
        resumed = run_sweep(None, out, jobs=1)
        assert resumed.summary["resumed"] == 4
        assert resumed.summary["executed"] == 0

        # Report-only never executes either.
        reported = report_sweep(out)
        assert reported.summary["completed"] == 4
        assert reported.summary["executed"] == 0
        assert load_spec(out) == spec

    def test_spec_mismatch_refused(self, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(_tiny_spec(), out)
        with pytest.raises(ConfigError, match="different spec"):
            run_sweep(_tiny_spec(abtb_entries=[64]), out)

    def test_report_requires_a_sweep_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="not a sweep output directory"):
            report_sweep(tmp_path)

    def test_sharded_run_matches_serial_checkpoint(self, tmp_path):
        spec = _tiny_spec(abtb_entries=[16, 64])
        serial = run_sweep(spec, tmp_path / "serial", jobs=1)
        sharded = run_sweep(spec, tmp_path / "sharded", jobs=2)
        assert serial.campaign.completed.keys() == sharded.campaign.completed.keys()
        for key in serial.campaign.completed:
            assert (
                serial.campaign.completed[key]["speedup"]
                == sharded.campaign.completed[key]["speedup"]
            )
        # Byte for byte, trace-cache counts in summary.json and
        # report.html included: both modes run the same pre-pass.
        serial_dir, sharded_dir = tmp_path / "serial", tmp_path / "sharded"
        checkpoint = "checkpoint.json"
        assert (serial_dir / checkpoint).read_bytes() == (sharded_dir / checkpoint).read_bytes()
        analysis = _files(serial_dir / "analysis")
        assert len(analysis) == 6
        assert analysis == _files(sharded_dir / "analysis")


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


class TestSweepCLI:
    def test_run_resume_report(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_tiny_spec(abtb_entries=[16, 64]).to_dict()))
        out = tmp_path / "out"
        assert main(["sweep", "run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert "2/2 point(s) completed" in capsys.readouterr().out
        assert main(["sweep", "resume", "--out", str(out)]) == 0
        assert "2 resumed, 0 executed" in capsys.readouterr().out
        assert main(["sweep", "report", "--out", str(out)]) == 0
        assert "pareto:" in capsys.readouterr().out

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"abtb_size": [16]}')
        code = main(["sweep", "run", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
