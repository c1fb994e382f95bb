"""Direct unit tests for the plain-text reporting helpers (repro.system.reporting)."""

import math

from repro.serving.cache import CacheStats, LRUCache
from repro.system.reporting import (
    format_cache_stats,
    format_table,
    per_dataset_table,
)


class TestFormatTable:
    def test_columns_align_and_floats_format(self):
        text = format_table(["name", "score"], [["a", 0.5], ["longer", 1.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "0.5000" in text and "1.0000" in text
        assert len({len(line) for line in lines[:2]}) <= 2  # header + rule line up

    def test_empty_rows_render_headers_only(self):
        text = format_table(["a", "b"], [])
        assert text.splitlines() == ["a  b", "-  -"]

    def test_nan_renders_as_na(self):
        text = format_table(["v"], [[float("nan")], [0.25]])
        assert "n/a" in text and "nan" not in text

    def test_ragged_rows_do_not_raise(self):
        text = format_table(["only"], [["x", "extra", "more"], ["y"]])
        assert "extra" in text and "more" in text

    def test_custom_float_format(self):
        assert "0.1" in format_table(["v"], [[0.125]], float_format="{:.1f}")


class TestFormatCacheStats:
    def test_fresh_cache_hit_rate_is_na_not_zero(self):
        text = format_cache_stats(LRUCache(capacity=4).stats)
        assert "hit rate" in text and "n/a" in text
        assert "0.0000" not in text.split("hit rate")[1].splitlines()[0]

    def test_counters_and_throughput_rows(self):
        stats = CacheStats(hits=3, misses=1, evictions=2, size=1, capacity=4)
        text = format_cache_stats(stats, throughput={"cold": 123.456})
        assert "cache hits" in text and "cache misses" in text
        assert "0.7500" in text  # hit rate
        assert "1/4" in text  # entries
        assert "cold throughput" in text and "123.5 series/s" in text

    def test_none_stats_render_disabled(self):
        text = format_cache_stats(None)
        assert "disabled" in text


class TestPerDatasetTable:
    def test_missing_scores_average_as_nan_not_crash(self):
        results = {"m1": {"ECG": 0.5, "IOPS": 0.7}, "m2": {}}
        text = per_dataset_table(results)
        assert "Average" in text
        assert "0.6000" in text  # m1 average
        assert "n/a" in text  # m2 has no scores anywhere
        assert not math.isnan(0.0)  # sanity: helper did not raise above

    def test_explicit_dataset_order_and_no_average(self):
        results = {"m": {"B": 1.0, "A": 0.0}}
        text = per_dataset_table(results, datasets=["B", "A"],
                                 include_average=False)
        lines = text.splitlines()
        assert lines[2].startswith("B") and lines[3].startswith("A")
        assert "Average" not in text
