import statistics

import pytest

from bench.stats import (
    median, percentile, segment_medians, spread, tail_quantile)


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert median(values) == 2.5
    assert percentile(list(range(101)), 0.95) == 95.0
    assert percentile([7.0], 0.95) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_tail_quantile_needs_ten_samples_beyond_it():
    assert tail_quantile(5) == 0.5
    assert tail_quantile(19) == 0.5
    assert tail_quantile(20) == 0.5
    assert tail_quantile(100) == pytest.approx(0.90)
    assert tail_quantile(200) == 0.95
    assert tail_quantile(20_000) == 0.95


def test_segment_medians_ignore_one_slow_segment():
    # Nine quiet segments and one in which everything took 100x.
    values, segments = [], []
    for s in range(10):
        for i in range(100):
            values.append((1.0 + i / 100.0) * (100.0 if s == 4 else 1.0))
            segments.append(s)
    out = segment_medians(values, segments, (0.5, 0.95))
    assert out[0.5] == pytest.approx(1.495)
    assert out[0.95] == pytest.approx(1.9405)
    # ...whereas the whole-run p95 is dragged up by the slow segment.
    assert percentile(values, 0.95) > 50.0


def test_segment_medians_checks_lengths():
    with pytest.raises(ValueError):
        segment_medians([1.0], [0, 1], (0.5,))


def test_spread_is_the_drivers_formula():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)
