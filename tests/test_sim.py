import dataclasses
import math

import numpy as np
import pytest

import envswitch.sim as sim
from envswitch.config import EngineConfig
from envswitch.sim import (RawTrace, Scenario, Waypoint, baseline_policy,
                           compute_onset, detect_outdoor_transition,
                           feedback_oracle, fingerprint_at, generate,
                           make_scenario, path_loss_rssi, rollback_occurred,
                           scenario_text, segment_before, truth_text, tts)

CFG = EngineConfig()


def synthetic_trace(rssi_series, rsrp=None, duration=None):
    """Minimal trace with a scripted serving-RSSI series (1 Hz)."""
    n = len(rssi_series)
    duration = float(duration or n)
    scenario = Scenario(
        site="A_indoor", duration=duration,
        waypoints=(Waypoint(0, 0, "office"), Waypoint(5, 0, "office")),
        ap_placements=((0.0, 0.0, 16.0),), degradation_onset=duration / 2,
        seed=0, zone_walls={"office": 0.0})
    rssi = np.asarray(rssi_series, dtype=float)[None, :]
    rsrp = np.full(n, -85.0) if rsrp is None else np.asarray(rsrp, dtype=float)
    return RawTrace(
        scenario=scenario, tick_t=np.arange(n * 10) / 10.0,
        pos=np.zeros((n * 10, 2)), tick_zone=["office"] * (n * 10),
        headings=np.zeros(n * 10), step_times=np.zeros(0),
        sec_t=np.arange(n, dtype=float), bssids=("02:00:00:00:00:01",),
        rssi_by_ap=rssi, noiseless_by_ap=rssi.copy(),
        cell_id=np.full(n, 501), rsrp=rsrp, rsrq=np.full(n, -10.0),
        gnss_snr=np.zeros(n), gnss_sats=np.zeros(n),
        gnss_fix=np.zeros(n, dtype=bool), sec_zone=["office"] * n,
        door_time=None, degradation_onset=duration / 2, zone_transitions=[])


class TestGenerate:
    def test_deterministic(self):
        sc = make_scenario("A", 4, CFG.radio, CFG.walker)
        a = generate(sc, CFG.radio, CFG.walker)
        b = generate(sc, CFG.radio, CFG.walker)
        assert np.array_equal(a.rssi_by_ap, b.rssi_by_ap)
        assert np.array_equal(a.gnss_snr, b.gnss_snr)
        assert np.array_equal(a.step_times, b.step_times)
        assert a.checksum() == b.checksum()

    def test_trace_is_read_only_with_cached_checksum(self, monkeypatch):
        sc = make_scenario("C", 4, CFG.radio, CFG.walker)
        trace = generate(sc, CFG.radio, CFG.walker)
        arrays = [f.name for f in dataclasses.fields(trace)
                  if isinstance(getattr(trace, f.name), np.ndarray)]
        assert len(arrays) == 13
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0
        fresh = generate(sc, CFG.radio, CFG.walker)
        hashed = []
        real = sim.fnv1a64
        monkeypatch.setattr(sim, "fnv1a64",
                            lambda *a: hashed.append(1) or real(*a))
        first = trace.checksum()
        assert trace.checksum() == first and len(hashed) == 1
        assert fresh.checksum() == first and len(hashed) == 2

    def test_site_a_is_indoor_no_fix(self):
        sc = make_scenario("A", 1, CFG.radio, CFG.walker)
        trace = generate(sc, CFG.radio, CFG.walker)
        assert float(np.mean(~trace.gnss_fix)) >= 0.95
        assert trace.door_time is None

    def test_site_c_door_drop_at_least_10db_noiseless(self):
        radio = CFG.radio
        for seed in range(5):
            sc = make_scenario("C", seed, radio, CFG.walker)
            sc = dataclasses.replace(sc, shadow_sigma_db=0.0)
            trace = generate(sc, radio, CFG.walker)
            assert trace.door_time is not None
            serving = trace.noiseless_serving()
            at_door = serving[int(trace.door_time)]
            later = serving[int(trace.door_time) + 5]
            assert at_door - later >= 10.0

    def test_rssi_decreases_with_distance_noiseless(self):
        sc = make_scenario("A", 0, CFG.radio, CFG.walker)
        values = [path_loss_rssi(16.0, d, "office", sc, CFG.radio)
                  for d in (2.0, 5.0, 11.0, 25.0, 60.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_site_c_satellites_indoor_below_outdoor(self):
        indoor_means, outdoor_means = [], []
        for seed in range(30):
            trace = generate(make_scenario("C", seed, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            outdoor = np.array([z in trace.scenario.outdoor_zones
                                for z in trace.sec_zone])
            indoor_means.append(trace.gnss_sats[~outdoor].mean())
            outdoor_means.append(trace.gnss_sats[outdoor].mean())
        assert np.mean(indoor_means) < np.mean(outdoor_means)

    def test_site_c_single_indoor_outdoor_transition(self):
        for seed in range(5):
            trace = generate(make_scenario("C", seed, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            outdoor = [z in trace.scenario.outdoor_zones for z in trace.sec_zone]
            flips = sum(1 for a, b in zip(outdoor, outdoor[1:]) if a != b)
            assert flips == 1 and outdoor[-1]

    def test_rssi_range_respected(self):
        for flag in ("A", "B", "C"):
            trace = generate(make_scenario(flag, 2, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            assert trace.rssi_by_ap.min() >= CFG.radio.rssi_floor_dbm
            assert trace.rssi_by_ap.max() <= CFG.radio.rssi_ceil_dbm

    def test_invalid_scenario_rejected(self):
        sc = make_scenario("A", 0, CFG.radio, CFG.walker)
        bad = dataclasses.replace(sc, degradation_onset=sc.duration + 5)
        with pytest.raises(ValueError):
            generate(bad, CFG.radio, CFG.walker)
        with pytest.raises(ValueError):
            make_scenario("D", 0, CFG.radio, CFG.walker)

    def test_onset_inside_session(self):
        for flag in ("A", "B", "C"):
            for seed in range(4):
                sc = make_scenario(flag, seed, CFG.radio, CFG.walker)
                assert 0.0 < sc.degradation_onset < sc.duration


class TestBaselinePolicy:
    def test_never_triggered_is_censored(self):
        trace = synthetic_trace([-40.0] * 30)
        completion, censored = baseline_policy(trace, threshold=-70.0)
        assert censored and completion == trace.duration

    def test_step_trace_fires_by_arithmetic(self):
        # oracle: below cut from t=20; dwell 3 satisfied at t=23; +2 assoc
        rssi = [-50.0] * 20 + [-90.0] * 20
        trace = synthetic_trace(rssi)
        completion, censored = baseline_policy(
            trace, threshold=-70.0, hysteresis=5.0, dwell=3.0, assoc_delay=2.0)
        assert not censored
        assert completion == pytest.approx(25.0)

    def test_hysteresis_never_fires_earlier(self):
        rng = np.random.default_rng(2)
        hovering = -76.0 + rng.normal(0, 2.0, 60)
        trace = synthetic_trace(hovering)
        t0, c0 = baseline_policy(trace, -75.0, 0.0, 3.0, 2.0)
        t5, c5 = baseline_policy(trace, -75.0, 5.0, 3.0, 2.0)
        if not c0 and not c5:
            assert t5 >= t0

    def test_dwell_monotonicity(self):
        rng = np.random.default_rng(3)
        series = -78.0 + rng.normal(0, 2.5, 60)
        trace = synthetic_trace(series)
        prev = -1.0
        for dwell in (1.0, 3.0, 6.0):
            completion, _ = baseline_policy(trace, -75.0, 2.0, dwell, 2.0)
            assert completion >= prev
            prev = completion

    def test_threshold_validation(self):
        trace = synthetic_trace([-50.0] * 5)
        with pytest.raises(ValueError):
            baseline_policy(trace, threshold=-150.0)


class TestTts:
    def test_paper_site_a_day1_reconstruction(self):
        assert tts(32.68, 20.0) == pytest.approx(12.68)

    def test_zero_and_preemptive(self):
        assert tts(20.0, 20.0) == 0.0
        assert tts(18.0, 20.0) == -2.0

    def test_floor_clamp(self):
        assert tts(2.0, 20.0) == -5.0
        assert tts(2.0, 20.0, floor=-2.0) == -2.0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            tts(-1.0, 5.0)

    def test_shift_invariance(self):
        for delta in (3.7, 12.0):
            assert tts(30.0 + delta, 20.0 + delta) == pytest.approx(
                tts(30.0, 20.0), abs=1e-9)


class TestFeedbackOracle:
    def test_perfect_switch_scores_one(self):
        trace = synthetic_trace([-60.0] * 40)
        onset = trace.degradation_onset
        assert feedback_oracle(onset, trace) == 1.0
        assert feedback_oracle(onset - 2.0, trace) == 1.0
        assert feedback_oracle(onset + 3.0, trace) == 1.0

    def test_rollback_scores_minus_one(self):
        rsrp = np.full(40, -120.0)   # new link unusable everywhere
        trace = synthetic_trace([-60.0] * 40, rsrp=rsrp)
        assert rollback_occurred(trace, trace.degradation_onset,
                                 CFG.reward.rollback_usable_dbm,
                                 CFG.reward.rollback_dwell_s)
        assert feedback_oracle(trace.degradation_onset, trace) == -1.0

    def test_late_switch_taper_is_ordered(self):
        trace = synthetic_trace([-60.0] * 80)
        onset = trace.degradation_onset
        # oracle: taper evaluated by hand from the documented shape
        cfg = CFG.reward
        ten_late = feedback_oracle(onset + 10.0, trace)
        four_late = feedback_oracle(onset + 4.0, trace)
        assert ten_late == pytest.approx(1.0 - cfg.hf_taper_per_s * 7.0)
        assert four_late == pytest.approx(1.0 - cfg.hf_taper_per_s * 1.0)
        assert -1.0 < ten_late < four_late < 1.0

    def test_early_taper_steeper_than_late(self):
        trace = synthetic_trace([-60.0] * 80)
        onset = trace.degradation_onset
        early = feedback_oracle(onset - 6.0, trace)
        late = feedback_oracle(onset + 7.0, trace)
        assert early < late

    def test_deterministic(self):
        trace = synthetic_trace([-60.0] * 40)
        vals = {feedback_oracle(11.0, trace) for _ in range(5)}
        assert len(vals) == 1

    def test_accepts_decision_objects(self):
        from envswitch.policy import PolicyDecision, PolicyState
        trace = synthetic_trace([-60.0] * 40)
        onset = trace.degradation_onset
        decision = PolicyDecision(action="handover", state=PolicyState(),
                                  time=onset - 0.5, completion=onset)
        assert feedback_oracle(decision, trace) == feedback_oracle(onset, trace)


class TestWindowing:
    def test_segment_before_covers_buffer(self):
        trace = generate(make_scenario("A", 5, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        seg = segment_before(trace, 20.0, CFG)
        assert len(seg) == CFG.window.buffer_windows
        ts = seg.timestamps()
        assert ts[-1] == pytest.approx(19.5)   # window midpoints
        assert ts[0] == pytest.approx(10.5)

    def test_fingerprint_full_presence_at_full_rate(self):
        trace = generate(make_scenario("C", 1, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        fp = fingerprint_at(trace, 10.0, CFG)
        assert fp.present.all()

    def test_detect_outdoor_transition_on_site_c(self):
        trace = generate(make_scenario("C", 3, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        flags, t_detect = detect_outdoor_transition(trace, CFG)
        assert flags == (True, True, True)
        assert t_detect is not None
        assert trace.door_time <= t_detect <= trace.door_time + 12.0

    def test_no_transition_on_site_a(self):
        trace = generate(make_scenario("A", 3, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        flags, t_detect = detect_outdoor_transition(trace, CFG)
        assert t_detect is None
        assert flags == (False, False, False)


class TestSidecars:
    def test_truth_text_fields(self):
        trace = generate(make_scenario("C", 2, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        text = truth_text(trace)
        assert "degradation_onset = " in text
        assert "door_time = " in text
        assert "zone_transitions = " in text

    def test_scenario_text_roundtrippable_fields(self):
        sc = make_scenario("B", 2, CFG.radio, CFG.walker)
        text = scenario_text(sc)
        assert f"site = {sc.site}" in text
        assert "ap = " in text and "waypoint = " in text

    def test_scenario_text_loads_back(self):
        from envswitch.sim import parse_scenario_text
        sc = make_scenario("C", 4, CFG.radio, CFG.walker)
        back = parse_scenario_text(scenario_text(sc), CFG.radio, CFG.walker)
        assert back.site == sc.site and back.seed == sc.seed
        assert back.duration == sc.duration
        assert back.ap_placements == sc.ap_placements
        assert [w.zone for w in back.waypoints] == [w.zone for w in sc.waypoints]
        assert back.degradation_onset == pytest.approx(sc.degradation_onset)
        # a loaded scenario generates the identical trace
        a = generate(sc, CFG.radio, CFG.walker)
        b = generate(back, CFG.radio, CFG.walker)
        assert a.checksum() == b.checksum()

    def test_scenario_text_requires_site_and_seed(self):
        from envswitch.sim import parse_scenario_text
        with pytest.raises(ValueError):
            parse_scenario_text("duration = 60\n")

    def test_compute_onset_matches_noiseless_crossing(self):
        sc = make_scenario("A", 6, CFG.radio, CFG.walker)
        trace = generate(dataclasses.replace(sc, shadow_sigma_db=0.0),
                         CFG.radio, CFG.walker)
        serving = trace.noiseless_serving()
        onset = sc.degradation_onset
        i = int(math.floor(onset))
        assert serving[i] >= -75.0 >= serving[i + 1]
