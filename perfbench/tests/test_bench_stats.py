import random

import pytest

from run import CAL_REF_S, scaled_pass_times, tail_percentile


@pytest.mark.parametrize("n", [11, 12, 20, 37, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond_it(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct = tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_p90_of_a_hundred_and_p99_of_a_thousand():
    assert tail_percentile(range(100)) == (89, 90.0)
    assert tail_percentile(range(1000)) == (989, 99.0)


def test_tail_of_too_few_samples_is_the_largest():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail_percentile(range(10)) == (9, 100.0)


def test_steady_speed_scales_every_pass_alike():
    unit = 2 * CAL_REF_S  # a machine at half the reference speed
    scaled = scaled_pass_times([1.0, 2.0, 3.0], [unit] * 4, [0, 1, 2, 3])
    assert scaled == pytest.approx([0.5, 1.0, 1.5])


def test_each_pass_is_scaled_by_the_units_nearest_to_it():
    # ten passes; the machine halves its speed after the fifth
    cal_at = list(range(11))
    cal_s = [CAL_REF_S] * 5 + [2 * CAL_REF_S] * 6
    times = [1.0] * 5 + [2.0] * 5
    scaled = scaled_pass_times(times, cal_s, cal_at)
    assert scaled[:2] == pytest.approx([1.0, 1.0])
    assert scaled[-2:] == pytest.approx([1.0, 1.0])
