import statistics

import pytest

from perfbench.stats import (
    iqr_share,
    median,
    percentile,
    samples_beyond,
    supported_tail,
)


@pytest.mark.parametrize("n", [3, 4, 7, 10, 31])
def test_quartiles_match_statistics_module(n):
    xs = [((i * 37) % 11) + i / 7 for i in range(n)]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    for p, q in ((25, q1), (50, q2), (75, q3)):
        # inside the sample range both interpolate the same order statistics
        if min(xs) < q < max(xs):
            assert percentile(xs, p) == pytest.approx(q, abs=1e-12)


def test_percentile_clamps_to_the_sample():
    assert percentile([5.0, 1.0, 3.0], 1.0) == 1.0
    assert percentile([5.0, 1.0, 3.0], 99.0) == 5.0
    assert percentile([2.0], 95.0) == 2.0
    assert median([4.0]) == 4.0
    assert median([1.0, 2.0, 10.0]) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 100.0)


def test_ten_samples_beyond_rule():
    assert samples_beyond(200, 95.0) == 10
    assert samples_beyond(199, 95.0) == 9
    assert supported_tail(200) == 95.0
    assert supported_tail(199) == 90.0
    assert supported_tail(1000) == 99.0
    assert supported_tail(20) == 50.0
    assert supported_tail(10) is None


def test_iqr_share_is_quartile_distance_over_median():
    xs = [9.0, 10.0, 10.0, 11.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert iqr_share(xs) == pytest.approx((q3 - q1) / q2)
    with pytest.raises(ValueError):
        iqr_share([0.0, 0.0, 0.0])
