import numpy as np

from seeds import interquartile_mean, summary


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert interquartile_mean([3.0, 1.0, 2.0]) == 2.0
    assert interquartile_mean([10.0, 1.0, 2.0, 3.0, -50.0, 4.0, 5.0, 100.0]) == 3.5


def test_summary_is_deterministic_and_brackets_the_mean():
    rng = np.random.default_rng(4)
    per_seed = {seed: {f: float(v) for f, v in zip("ABC", rng.normal(50.0, 20.0, 3))}
                for seed in (13, 29, 41, 7, 8)}
    first = summary(per_seed)
    assert first == summary(per_seed)
    assert first["seeds"] == [13, 29, 41, 7, 8]
    for flag in "ABC":
        values = [means[flag] for means in per_seed.values()]
        site = first["sites"][flag]
        assert site["mean"] == float(np.mean(values)) and site["min"] == min(values)
        lo, hi = site["bootstrap"]
        assert min(values) <= lo <= site["mean"] <= hi <= max(values)
