"""Tests for the experiment registry and the experiment implementations.

Full-scale shape checks run in the benchmark harness; here each
experiment is exercised at a tiny scale to validate mechanics (correct
tables, sane values) plus the scale-independent shape assertions.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, get
from repro.experiments.scale import SMOKE, Scale
from repro.experiments import ablation, fig4, fig5, fig7, hwcost, memsave, table2, table3

TINY = Scale(
    "tiny",
    {"apache": (3, 10), "memcached": (15, 80), "mysql": (3, 8), "firefox": (1, 4)},
)

EXPECTED_IDS = {
    "table2",
    "table3",
    "fig4",
    "table4",
    "fig5",
    "fig6",
    "table5",
    "fig7",
    "fig8_table6",
    "memsave",
    "hwcost",
    "ablation",
}


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_get_known(self):
        assert get("table2").experiment_id == "table2"

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get("table99")

    def test_experiments_have_descriptions(self):
        for exp in all_experiments().values():
            assert exp.description and exp.paper_ref


class TestTable2:
    def test_pki_ordering(self):
        pki = table2.measure_pki(TINY)
        assert pki["apache"] > pki["mysql"] > pki["memcached"] > pki["firefox"]

    def test_report_renders(self):
        report = table2.run(TINY)
        assert "Table 2" in report.render()
        assert len(report.tables[0].rows) == 4


class TestTable3:
    def test_distinct_counts_positive(self):
        measured = table3.measure_distinct(TINY)
        assert all(d > 0 for d, _ in measured.values())

    def test_memcached_tiny_set(self):
        measured = table3.measure_distinct(TINY)
        assert measured["memcached"][0] <= 33


class TestFig4:
    def test_curves_descend(self):
        curves = fig4.frequency_curves(TINY)
        for curve in curves.values():
            assert curve == sorted(curve, reverse=True)

    def test_memcached_head_concentration_strongest(self):
        # At tiny scales the zipf-tail estimators are noisy, but
        # memcached's per-request core dominates at any scale.
        curves = fig4.frequency_curves(TINY)
        share = {
            name: sum(curve[:10]) / (sum(curve) or 1) for name, curve in curves.items()
        }
        assert share["memcached"] > share["firefox"]


class TestFig5:
    def test_skip_grows_with_abtb(self):
        small = fig5.skip_fraction("memcached", 2, TINY)
        large = fig5.skip_fraction("memcached", 128, TINY)
        assert large >= small
        assert large > 0.8

    def test_single_entry_still_skips_some(self):
        assert fig5.skip_fraction("memcached", 1, TINY) > 0.0


class TestFig7:
    def test_peaks_shift_left(self):
        samples = fig7.measure(TINY)
        for name, (base_kc, enh_kc) in samples.items():
            assert sum(enh_kc) / len(enh_kc) <= sum(base_kc) / len(base_kc)


class TestHwcost:
    def test_storage_numbers(self):
        rows = hwcost.storage_table()
        table = dict((n, (full, enc)) for n, full, enc in rows)
        assert table[16] == (192, 96)
        assert table[256] == (3072, 1536)

    def test_report_all_shapes_hold(self):
        assert hwcost.run(TINY).all_shapes_hold


class TestMemsave:
    def test_patch_after_fork_wastes_memory(self):
        after, before, hardware = memsave.measure(TINY, processes=4)
        assert after["per_process_bytes"] > 0
        assert after["total_bytes"] >= after["pages_patched"] * 4096
        assert before["per_process_bytes"] == 0
        assert hardware["total_bytes"] == 0

    def test_eager_patching_resolves_everything(self):
        _, before, _ = memsave.measure(TINY, processes=2)
        assert before["sites_resolved_eagerly"] > 1000  # 501 pairs * 3 sites


class TestFig6Fig8Table5Measure:
    def test_fig6_measures_classes(self):
        from repro.experiments import fig6

        samples = fig6.measure(TINY)
        # TINY draws may miss a rare class; most must be present.
        assert len(samples) >= 4
        for base_us, enh_us in samples.values():
            assert len(base_us) == len(enh_us) > 0

    def test_fig8_cdfs_dominate_sanely(self):
        from repro.experiments import fig8

        cdfs = fig8.measure(TINY)
        assert set(cdfs) == {"New Order", "Payment"}
        for base_cdf, enh_cdf in cdfs.values():
            assert enh_cdf.percentile(50) <= base_cdf.percentile(50) * 1.05

    def test_table5_scores_positive(self):
        from repro.experiments import table5

        scores = table5.measure(TINY)
        assert len(scores) >= 3  # TINY draws may miss rare categories
        assert all(b > 0 and e > 0 for b, e in scores.values())


class TestAblation:
    def test_bloom_sweep_shows_cliff(self):
        sweep = ablation.bloom_sweep(TINY)
        smallest, largest = sweep[0], sweep[-1]
        assert smallest[2] > largest[2]  # more false flushes when small
        assert smallest[1] <= largest[1] + 0.02  # and no better skip rate

    def test_explicit_invalidate_safe(self):
        with_bloom, without = ablation.explicit_invalidate_study(TINY)
        assert without.mechanism.stats.unsafe_skips == 0
        assert abs(without.skip_rate - with_bloom.skip_rate) < 0.1

    def test_replacement_study_runs(self):
        skip = ablation.replacement_study(Scale("tiny", {"apache": (1, 3)}))
        assert set(skip) == {"lru", "fifo"}
        assert all(0.0 < rate < 1.0 for rate in skip.values())


@pytest.mark.slow
class TestFullSmokeShapes:
    """The complete shape-check battery at SMOKE scale (slow; also run by
    the benchmark harness)."""

    @pytest.mark.parametrize("eid", sorted(EXPECTED_IDS))
    def test_shapes_hold(self, eid):
        report = get(eid).run(SMOKE)
        failed = [name for name, ok in report.shape_checks.items() if not ok]
        assert not failed, f"{eid}: failed shape checks: {failed}"
