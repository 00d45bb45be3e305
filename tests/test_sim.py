import dataclasses
import math
import types

import numpy as np
import pytest

import envswitch.sim as sim
from envswitch.config import EngineConfig
from envswitch.fingerprints import (CellSample, GnssSample, RawWindow, WifiScan,
                                    summarize_window)
from envswitch.sim import (RawTrace, Scenario, Waypoint, baseline_policy,
                           compute_onset, detect_outdoor_transition,
                           feedback_oracle, fingerprint_at, generate,
                           make_scenario, path_loss_rssi,
                           rollback_occurred, scenario_text, segment_before,
                           truth_text, tts)

CFG = EngineConfig()


# ---------------------------------------------------------------------------
# scalar oracles of the vectorized kinematics and of the window path
# ---------------------------------------------------------------------------


def position_at(phases, t: float):
    """(x, y, zone, moving, heading) at time t, one phase at a time."""
    for t0, t1, kind, (a, b) in phases:
        if t0 <= t < t1 or (t >= t1 and (t0, t1, kind, (a, b)) is phases[-1]):
            if kind == "pause" or t >= t1:
                return b.x, b.y, b.zone, False, math.atan2(b.y - a.y, b.x - a.x)
            frac = (t - t0) / (t1 - t0)
            x = a.x + frac * (b.x - a.x)
            y = a.y + frac * (b.y - a.y)
            return x, y, a.zone, True, math.atan2(b.y - a.y, b.x - a.x)
    last = phases[-1][3][1]
    return last.x, last.y, last.zone, False, 0.0


def scalar_onset(scenario, radio, threshold=-75.0):
    """compute_onset over position_at."""
    phases = sim._walk_schedule(scenario)
    prev = None
    for i in range(int(scenario.duration)):
        t = float(i)
        x, y, zone, _, _ = position_at(phases, t)
        best = max(path_loss_rssi(tx, math.hypot(x - ax, y - ay), zone,
                                  scenario, radio)
                   for ax, ay, tx in scenario.ap_placements)
        if prev is not None and prev >= threshold > best:
            frac = (prev - threshold) / (prev - best)
            return float(t - 1.0 + frac)
        prev = best
    return None


def window_from_trace(trace, t_start, t_end, scan_times=None, top_k=3):
    """Raw per-modality samples of [t_start, t_end) as RawWindow objects."""
    tick_sel = (trace.tick_t >= t_start) & (trace.tick_t < t_end)
    steps = trace.step_times[(trace.step_times >= t_start)
                             & (trace.step_times < t_end)]
    sec_sel = np.where((trace.sec_t >= t_start) & (trace.sec_t < t_end))[0]
    if scan_times is None:
        scan_idx = sec_sel
    else:
        scan_idx = [i for i in sec_sel if float(trace.sec_t[i]) in scan_times]
    wifi = [WifiScan(float(trace.sec_t[i]), trace.topk_readings(i, top_k))
            for i in scan_idx]
    cell = [CellSample(float(trace.sec_t[i]), int(trace.cell_id[i]),
                       float(trace.rsrp[i]), float(trace.rsrq[i]))
            for i in sec_sel]
    gnss = [GnssSample(float(trace.sec_t[i]), float(trace.gnss_snr[i]),
                       float(trace.gnss_sats[i]), bool(trace.gnss_fix[i]))
            for i in sec_sel]
    return RawWindow(t_start=t_start, t_end=t_end, step_times=steps,
                     headings=trace.headings[tick_sel], wifi_scans=wifi,
                     cell_samples=cell, gnss_samples=gnss,
                     hour_of_day=trace.scenario.start_hour + t_start / 3600.0)


def reference_fingerprint_at(trace, t_end, cfg, scan_times=None):
    """fingerprint_at through window_from_trace and summarize_window."""
    t_start = t_end - cfg.window.window_s
    w = window_from_trace(trace, t_start, t_end, scan_times)
    wifi_quality = 1.0
    if scan_times is not None and not w.wifi_scans:
        stale = cfg.device.wifi_stale_s
        older = [s for s in scan_times if s < t_start]
        if older:
            last = max(older)
            age = t_end - last
            if age <= stale:
                sec = int(last)
                if 0 <= sec < len(trace.sec_t):
                    w.wifi_scans = [WifiScan(last, trace.topk_readings(sec))]
                    wifi_quality = max(0.0, 1.0 - age / stale)
    present = {
        "pdr": True,
        "wifi": len(w.wifi_scans) > 0,
        "cell": len(w.cell_samples) > 0,
        "gnss": len(w.gnss_samples) > 0,
        "time": True,
    }
    quality = {"wifi": wifi_quality if present["wifi"] else 0.0}
    return summarize_window(w, present, quality=quality, norm=cfg.norm)


def fp_bytes(fp):
    return (fp.timestamp.hex(), fp.features.tobytes(), fp.present.tobytes(),
            fp.quality.tobytes())


def scan_schedule(duration, boosts=(), period=2.0, boosted=1.0):
    """Scan times the way a rollout schedules them; ``boosts`` lists
    (start, end) spans scanned at the boosted period."""
    times, t = set(), 0.0
    while t < duration:
        times.add(t)
        t += boosted if any(a <= t < b for a, b in boosts) else period
    return times


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
        real = sim.hashlib.blake2b
        monkeypatch.setattr(sim, "hashlib", types.SimpleNamespace(
            blake2b=lambda *a, **k: hashed.append(1) or real(*a, **k)))
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
        t_detect = detect_outdoor_transition(trace, CFG)
        assert t_detect is not None
        assert trace.door_time <= t_detect <= trace.door_time + 12.0

    def test_no_transition_on_site_a(self):
        trace = generate(make_scenario("A", 3, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        assert detect_outdoor_transition(trace, CFG) is None


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

    def test_compute_onset_matches_noiseless_crossing(self):
        sc = make_scenario("A", 6, CFG.radio, CFG.walker)
        trace = generate(dataclasses.replace(sc, shadow_sigma_db=0.0),
                         CFG.radio, CFG.walker)
        serving = trace.noiseless_serving()
        onset = sc.degradation_onset
        i = int(math.floor(onset))
        assert serving[i] >= -75.0 >= serving[i + 1]


def kinematics_match_oracle(scenario, walker):
    """Vectorized positions, zones, moving flags and headings equal
    position_at's at every tick, on every phase boundary and on a 0.25 s grid
    past the session end."""
    phases = sim._walk_schedule(scenario)
    n_ticks = int(round(scenario.duration * walker.tick_hz))
    times = np.concatenate([np.arange(n_ticks) / walker.tick_hz,
                            [t for p in phases for t in p[:2]],
                            np.arange(0.0, scenario.duration + 5.0, 0.25)])
    pos, zones, moving, headings = sim._kinematics(scenario, times)
    expected = [position_at(phases, t) for t in times]
    assert pos.tobytes() == np.array([e[:2] for e in expected]).tobytes()
    assert zones == [e[2] for e in expected]
    assert moving.tolist() == [e[3] for e in expected]
    assert headings.tobytes() == np.array([e[4] for e in expected]).tobytes()
    return True


class TestKinematics:
    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_vectorized_walk_equals_scalar_oracle(self, site):
        for seed in range(50):
            sc = make_scenario(site, seed, CFG.radio, CFG.walker)
            assert kinematics_match_oracle(sc, CFG.walker)
            assert compute_onset(sc, CFG.radio) == scalar_onset(sc, CFG.radio)

    def test_repeated_waypoint_and_short_session(self):
        sc = make_scenario("A", 3, CFG.radio, CFG.walker)
        # a zero-length move between two copies of the second waypoint
        back = dataclasses.replace(
            sc, waypoints=sc.waypoints[:2] + sc.waypoints[1:], duration=20.0)
        back.degradation_onset = compute_onset(back, CFG.radio)
        back.validate()
        assert len(back.waypoints) == len(sc.waypoints) + 1
        assert back.waypoints[1] == back.waypoints[2]
        phases = sim._walk_schedule(back)
        assert phases[-1][0] > back.duration      # the walk outlasts the session
        assert kinematics_match_oracle(back, CFG.walker)
        assert compute_onset(back, CFG.radio) == scalar_onset(back, CFG.radio)
        trace = generate(back, CFG.radio, CFG.walker)
        assert len(trace.tick_t) == 200


def window_cfg(window_s=1.0):
    cfg = EngineConfig()
    cfg.window.window_s = window_s
    return cfg


class TestWindowOracle:
    SCHEDULES = {
        "all": None,
        "every_2s": scan_schedule(90.0),
        "boosted_1s": scan_schedule(90.0, boosts=((6.0, 16.0), (30.0, 40.0))),
        # gaps longer than wifi_stale_s, and scans off the 1 Hz grid
        "gaps": {0.0, 7.0, 8.5, 15.0, 16.0, 24.5, 30.0, 41.0, 47.0, 60.0},
    }

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    @pytest.mark.parametrize("window_s", [0.5, 1.0, 2.0])
    def test_fingerprint_at_equals_summarize_window(self, site, window_s):
        trace = generate(make_scenario(site, 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        cfg = window_cfg(window_s)
        rng = np.random.default_rng(3)
        ends = np.concatenate([np.arange(window_s, trace.duration, 1.0),
                               rng.uniform(10.0, trace.duration - 10.0, 12)])
        for t in ends.tolist():
            for schedule in self.SCHEDULES.values():
                want = fp_bytes(reference_fingerprint_at(trace, t, cfg, schedule))
                assert fp_bytes(fingerprint_at(trace, t, cfg, schedule)) == want
                # the second call is a memo hit
                assert fp_bytes(fingerprint_at(trace, t, cfg, schedule)) == want

    def test_segment_windows_equal_the_oracle(self):
        trace = generate(make_scenario("B", 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        seg = segment_before(trace, 23.37, CFG)
        t = max(0.0, 23.37 - 10 * CFG.window.window_s)
        for fp in seg.windows:
            t += CFG.window.window_s
            assert fp_bytes(fp) == fp_bytes(reference_fingerprint_at(trace, t, CFG))

    def test_the_schedules_cover_each_wifi_case(self):
        trace = generate(make_scenario("C", 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        seen = set()
        for schedule in self.SCHEDULES.values():
            for t in np.arange(1.0, trace.duration, 0.5).tolist():
                fp = reference_fingerprint_at(trace, t, CFG, schedule)
                seen.add((bool(fp.present[1]), float(fp.quality[1])))
        assert (True, 1.0) in seen and (False, 0.0) in seen
        assert any(0.0 < q < 1.0 for _, q in seen)    # a decayed carry-over


class TestWindowMemo:
    def trace(self):
        return generate(make_scenario("B", 11, CFG.radio, CFG.walker),
                        CFG.radio, CFG.walker)

    def test_repeated_call_returns_the_same_window(self):
        trace = self.trace()
        scans = scan_schedule(trace.duration)
        first = fingerprint_at(trace, 12.0, CFG, scans)
        again = fingerprint_at(trace, 12.0, CFG, set(scans))
        assert again is first
        assert fp_bytes(again) == fp_bytes(reference_fingerprint_at(trace, 12.0, CFG, scans))

    def test_scan_set_and_carry_over_key_the_memo(self):
        trace = self.trace()
        t = 9.0                                   # window [8, 9); staleness 4 s
        cases = {
            "in_window": {0.0, 8.0},
            "fresh_carry": {0.0, 6.0},
            "edge_carry": {0.0, 5.0},             # age 4: present, quality 0
            "too_stale": {0.0, 4.0},
            "off_grid_carry": {0.0, 6.5},         # read from second 6
        }
        got = {}
        for name, scans in cases.items():
            got[name] = fp_bytes(fingerprint_at(trace, t, CFG, scans))
            assert got[name] == fp_bytes(reference_fingerprint_at(trace, t, CFG, scans))
        memo = next(iter(trace._windows.values()))
        assert len(memo) == len(cases)
        assert len({got[n] for n in ("in_window", "fresh_carry", "edge_carry",
                                     "too_stale")}) == 4
        assert got["off_grid_carry"] != got["fresh_carry"]
        # scans the window does not read share the entry
        fingerprint_at(trace, t, CFG, {2.0, 6.0})
        fingerprint_at(trace, t, CFG, {1.0, 3.0, 4.0})
        assert len(memo) == len(cases)

    def test_config_changes_are_never_served_stale(self):
        trace = self.trace()
        cfg = EngineConfig()
        scans = {0.0, 6.0, 12.0}
        seen = []

        def check(t):
            fp = fingerprint_at(trace, t, cfg, scans)
            assert fp_bytes(fp) == fp_bytes(reference_fingerprint_at(trace, t, cfg, scans))
            assert fp_bytes(fp) not in seen
            seen.append(fp_bytes(fp))
            return fp

        check(10.0)
        cfg.norm.bounds["wifi_topk_mean"] = (-90.0, -40.0)      # in place
        check(10.0)
        cfg.norm.bounds = dict(cfg.norm.bounds, gnss_snr=(0.0, 40.0))
        check(10.0)
        cfg.window.window_s = 2.0
        check(10.0)
        cfg.window.window_s = 0.5
        check(10.0)
        cfg.device.wifi_stale_s = 3.0     # the 6 s scan is now too old
        last = check(10.0)
        # settings equal by value share the memo
        cfg.norm = dataclasses.replace(cfg.norm, bounds=dict(cfg.norm.bounds))
        assert fingerprint_at(trace, 10.0, cfg, scans) is last
