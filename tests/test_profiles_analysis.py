"""Tests for popularity profiles and the analysis utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CDF, Histogram, Report, Series, Summary, Table, dominates
from repro.analysis.stats import geomean, improvement_percent, mean, percentile, speedup
from repro.errors import ConfigError, ExperimentError
from repro.workloads import ALL_WORKLOADS
from repro.workloads.profiles import Draws, PopularityProfile, WeightedSampler


class TestPopularityProfile:
    def test_weights_sum_to_one(self):
        profile = PopularityProfile(core_size=5, core_mass=0.8, zipf_s=1.0)
        w = profile.weights(100)
        assert w.sum() == pytest.approx(1.0)

    def test_core_uniform(self):
        profile = PopularityProfile(core_size=4, core_mass=0.8, zipf_s=1.0)
        w = profile.weights(50)
        assert np.allclose(w[:4], 0.2)

    def test_tail_decreasing(self):
        profile = PopularityProfile(core_size=0, core_mass=0.0, zipf_s=1.0)
        w = profile.weights(100)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_core_larger_than_universe(self):
        profile = PopularityProfile(core_size=100, core_mass=0.9, zipf_s=1.0)
        w = profile.weights(10)
        assert np.allclose(w, 0.1)

    def test_steeper_zipf_concentrates(self):
        flat = PopularityProfile(zipf_s=0.5).weights(100)
        steep = PopularityProfile(zipf_s=1.5).weights(100)
        assert steep[0] > flat[0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            PopularityProfile(core_size=-1)
        with pytest.raises(ConfigError):
            PopularityProfile(core_size=3, core_mass=0.0)
        with pytest.raises(ConfigError):
            PopularityProfile(core_mass=1.5)
        with pytest.raises(ConfigError):
            PopularityProfile(zipf_s=0)
        with pytest.raises(ConfigError):
            PopularityProfile().weights(0)


class TestWeightedSampler:
    def test_respects_weights(self):
        sampler = WeightedSampler(np.array([0.9, 0.1]))
        rng = np.random.default_rng(1)
        draws = sampler.sample_many(rng, 2000)
        assert 0.85 < np.mean(draws == 0) < 0.95

    def test_single_item(self):
        sampler = WeightedSampler(np.array([1.0]))
        rng = np.random.default_rng(1)
        assert sampler.sample(rng) == 0

    def test_invalid_weights(self):
        with pytest.raises(ConfigError):
            WeightedSampler(np.array([]))
        with pytest.raises(ConfigError):
            WeightedSampler(np.array([0.0, 0.0]))

    def test_sample_is_searchsorted_right(self):
        sampler = WeightedSampler(PopularityProfile(core_size=3, core_mass=0.6).weights(40))
        cdf = sampler._cdf
        # Every table value (ties go right) and points between them.
        probes = [0.0, *cdf.tolist(), *np.random.default_rng(3).random(500).tolist()]

        class Fixed:
            def random(self):
                return u

        for u in probes:
            assert sampler.sample(Fixed()) == np.searchsorted(cdf, u, side="right")


def _config_sizes() -> list[int]:
    """The byte ranges the workloads draw addresses from."""
    sizes = set()
    for module in ALL_WORKLOADS.values():
        cfg = module.config()
        hot = max(cfg.data_working_set // 32, 4096)
        sizes |= {cfg.request_local_bytes, cfg.data_working_set, hot}
    return sorted(sizes)


#: Bounds for ``below``: the degenerate 1, small odd ranges, every power
#: of two, the 32-bit edges, 64-bit ranges, the workloads' byte ranges,
#: and ranges whose rejection threshold is a large share of 2**32 (so a
#: wrong threshold changes draws often).
BOUNDS = sorted(
    {1, 2, 3, 7, *(1 << k for k in range(33)), 2**32 - 1, 2**32 + 1, 2**40 + 3,
     2**31 + 1, 3 * 2**30 + 1, *_config_sizes()}
)

draw_ops = st.lists(
    st.one_of(
        st.tuples(st.just("below"), st.sampled_from(BOUNDS)),
        st.tuples(st.just("below"), st.integers(2, 2**32)),
        st.tuples(st.just("random"), st.none()),
        st.tuples(st.just("random"), st.integers(0, 4)),
        st.tuples(st.just("normal"), st.floats(-1e3, 1e3), st.floats(0.0, 50.0)),
    ),
    max_size=120,
)


class TestDraws:
    """``Draws`` equals the numpy generator it wraps, draw for draw."""

    @given(seed=st.integers(0, 2**64 - 1), ops=draw_ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_draw_for_draw(self, seed, ops):
        native = np.random.default_rng(seed)
        draws = Draws(np.random.default_rng(seed))
        for op, *args in ops:
            if op == "below":
                got = draws.below(args[0])
                assert type(got) is int
                assert got == int(native.integers(0, args[0])), (op, args)
            elif op == "normal":
                assert draws.normal(*args) == native.normal(*args)
            elif args[0] is None:
                got = draws.random()
                assert type(got) is float
                assert got == native.random()
            else:
                assert draws.random(args[0]).tolist() == native.random(args[0]).tolist()
        # Both streams end in the same place, kept half included.
        assert draws.below(3) == int(native.integers(0, 3))
        assert draws.random() == native.random()

    def test_rejects_a_non_pcg64_generator(self):
        with pytest.raises(ConfigError):
            Draws(np.random.Generator(np.random.Philox(1)))

    def test_bad_bound_raises_like_numpy(self):
        with pytest.raises(ValueError):
            Draws(np.random.default_rng(1)).below(0)


class TestStats:
    def test_mean_percentile(self):
        data = list(range(1, 101))
        assert mean(data) == 50.5
        assert percentile(data, 50) == pytest.approx(50.5)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            mean([])
        with pytest.raises(ExperimentError):
            percentile([], 50)

    def test_speedup_and_improvement(self):
        assert speedup(110, 100) == pytest.approx(1.1)
        assert improvement_percent(100, 96) == pytest.approx(4.0)

    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ExperimentError):
            geomean([1, -1])

    def test_summary(self):
        s = Summary.of(range(1, 101))
        assert s.n == 100
        assert s.p50 <= s.p90 <= s.p99


class TestCDF:
    def test_monotone(self):
        cdf = CDF.of([3, 1, 2])
        assert list(cdf.values) == [1, 2, 3]
        assert cdf.fractions[-1] == 1.0

    def test_percentile_lookup(self):
        cdf = CDF.of(range(1, 101))
        assert cdf.percentile(50) == pytest.approx(50, abs=1)
        assert cdf.percentile(95) == pytest.approx(95, abs=1)

    def test_fraction_below(self):
        cdf = CDF.of(range(1, 11))
        assert cdf.fraction_below(5) == 0.5

    def test_dominates(self):
        fast = CDF.of([1, 2, 3, 4])
        slow = CDF.of([2, 3, 4, 5])
        assert dominates(fast, slow)
        assert not dominates(slow, fast)

    def test_sampled_points(self):
        cdf = CDF.of(range(100))
        pts = cdf.sampled(10)
        assert len(pts) == 10
        assert pts[0][0] <= pts[-1][0]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            CDF.of([])


class TestHistogram:
    def test_counts_total(self):
        h = Histogram.of([1, 2, 2, 3], bins=4)
        assert h.total == 4
        assert sum(h.fractions()) == pytest.approx(1.0)

    def test_peak(self):
        h = Histogram.of([1.0] * 10 + [5.0], bins=5, lo=0, hi=5)
        assert h.peak_value() < 2.0

    def test_mode_shift_positive_when_faster(self):
        fast = Histogram.of([1.0] * 10, bins=10, lo=0, hi=10)
        slow = Histogram.of([8.0] * 10, bins=10, lo=0, hi=10)
        assert fast.mode_shift(slow) > 0

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            Histogram.of([])


class TestReport:
    def test_table_rendering(self):
        t = Table("T", ["a", "b"])
        t.add_row(1, 2.5)
        out = t.render()
        assert "T" in out and "2.500" in out

    def test_table_row_mismatch(self):
        t = Table("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_table_column(self):
        t = Table("T", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_report_shape_summary(self):
        r = Report("x", "d", shape_checks={"ok": True, "bad": False})
        assert not r.all_shapes_hold
        rendered = r.render()
        assert "[PASS] ok" in rendered and "[FAIL] bad" in rendered

    def test_series_render(self):
        s = Series("curve", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        assert "curve" in s.render()
