"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from arith import (  # noqa: E402
    attributed,
    by_name,
    min_samples,
    percentile,
    self_times,
    spread,
    valid_name,
)


class TestSampleCountRule:
    def test_p99_needs_a_thousand(self):
        assert min_samples(99) == 1000

    def test_p50_and_p90(self):
        assert min_samples(50) == 20
        assert min_samples(90) == 100

    def test_the_floor_leaves_ten_above(self):
        # nearest rank: with min_samples(p) values, exactly ten exceed p
        for pct in (50, 90, 99):
            n = min_samples(pct)
            values = list(range(n))
            assert sum(v > percentile(values, pct) for v in values) == 10

    def test_custom_tail(self):
        assert min_samples(99, tail=1) == 100

    @pytest.mark.parametrize("pct", [0, 100, -1, 150])
    def test_rejects_degenerate_percentiles(self, pct):
        with pytest.raises(ValueError):
            min_samples(pct)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSelfTime:
    def test_leaf_is_its_duration(self):
        assert self_times([("a", 0.0, 2.0, None)]) == [2.0]

    def test_children_subtracted(self):
        spans = [
            ("root", 0.0, 10.0, None),
            ("child", 1.0, 3.0, 0),
            ("child", 4.0, 8.0, 0),
            ("grandchild", 5.0, 6.0, 2),
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [("p", 0.0, 10.0, None), ("c", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_child_clipped_to_parent(self):
        spans = [("p", 0.0, 4.0, None), ("c", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_self_times_partition_the_roots(self):
        spans = [
            ("a", 0.0, 5.0, None), ("b", 1.0, 2.0, 0), ("c", 2.5, 4.0, 0),
            ("d", 6.0, 9.0, None), ("b", 7.0, 8.0, 3),
        ]
        assert sum(self_times(spans)) == pytest.approx(5.0 + 3.0)

    def test_by_name_sums_and_counts(self):
        spans = [("p", 0.0, 10.0, None), ("c", 1.0, 3.0, 0), ("c", 4.0, 5.0, 0)]
        assert by_name(spans) == {
            "p": pytest.approx((7.0, 1)),
            "c": pytest.approx((3.0, 2)),
        }


class TestMetricNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "query_p99_us", "rounds.approx-spt",
        "core.light_spanner.self_s", "0ok", "a" * 64,
    ])
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize("name", [
        "", "_lead", ".lead", "has space", "µs", "a/b", "a" * 65, "x:y",
    ])
    def test_invalid(self, name):
        assert not valid_name(name)

    def test_benchmark_json_names_and_units(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert all(valid_name(n) for n in names)
        assert len(set(names)) == len(names)

    def test_printed_metrics_match_benchmark_json(self):
        import run

        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            k: unit for k, (unit, _moves, _where) in run.PER_LAYER.items()
        }


class TestAttributed:
    def test_roots_alone_attribute_nothing(self):
        assert attributed([("core", 0.0, 5.0, None)]) == 0.0

    def test_children_and_grandchildren_counted_once(self):
        spans = [
            ("core", 0.0, 10.0, None),
            ("mst", 1.0, 4.0, 0),
            ("bfs", 2.0, 3.0, 1),
            ("spt", 6.0, 7.0, 0),
        ]
        assert attributed(spans) == pytest.approx(4.0)

    def test_skipped_roots_leave_their_subtree_out(self):
        spans = [
            ("graphs.generate", 0.0, 2.0, None),
            ("graphs.freeze", 0.5, 1.0, 0),
            ("core", 3.0, 9.0, None),
            ("graphs.freeze", 4.0, 6.0, 2),
        ]
        assert attributed(spans, skip=("graphs.generate",)) == pytest.approx(2.0)
        assert attributed(spans) == pytest.approx(2.5)

    def test_root_self_time_is_the_rest_of_the_window(self):
        spans = [("core", 0.0, 10.0, None), ("mst", 1.0, 4.0, 0)]
        assert self_times(spans)[0] + attributed(spans) == pytest.approx(10.0)


class TestSpread:
    def test_spread_is_iqr_over_median(self):
        # statistics.quantiles (exclusive method) on 1..9: q1 2.5, q3 7.5
        assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(5.0 / 5.0)


class TestServingMix:
    def test_mix_is_the_stress_query_tier(self):
        sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
        from repro.harness.queries import QUERY_MIXES
        import serving

        stress = QUERY_MIXES["stress"]
        assert (serving.HOT_PAIRS, serving.HOT_SHARE, serving.LANDMARKS) == (
            stress.hot_set, stress.hot_fraction, stress.landmarks)
        assert serving.HOT_PAIRS <= serving.CACHE_SIZE
