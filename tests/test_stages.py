"""``tests/stages.py`` writes a complete record of a (tiny) pipeline run."""

import json

import stages


def test_a_tiny_pass_records_every_stage_and_call(tmp_path):
    bound = [(owner, attr, getattr(owner, attr))
             for owner, attr in [(o, a) for _, o, a in stages.TIMED]
             + [(stages.alignment, "match"), *stages.WINDOWS]]
    record = stages.bench_record(str(tmp_path), rounds=1, sessions=1,
                                 repeats=2)
    # every wrapper is unbound again
    assert all(getattr(owner, attr) is fn for owner, attr, fn in bound)
    json.dumps(record)                                # serializable as written
    assert (record["pass"]["rounds"], record["pass"]["eval_sessions"],
            record["pass"]["repeats"]) == (1, 1, 2)
    assert list(record["stages"]) == list(stages.STAGES)
    for times in record["stages"].values():
        assert set(times) == {"s", "wall_s"} and times["s"] > 0.0
    assert set(record["calls"]) == {
        "make_scenario", "generate", "fingerprint_at.hit", "fingerprint_at.miss",
        "match.warm_up", "match.full", "select_filter", "denoise_matrix", "SwitchEnv.observe",
        "SwitchEnv.step", "SwitchEnv.tail", "ppo_update",
        "imitate", "fit_reward_model"}
    for name, stats in record["calls"].items():
        assert set(stats) == {"calls", "mean_us", "p50_us", "total_s"}
        assert stats["calls"] > 0, name
    assert set(record["environment"]) == {"python", "numpy", "blas", "nproc",
                                          "machine", "threads"}
