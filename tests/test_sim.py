import dataclasses
import math
import types

import numpy as np
import pytest

import envswitch.sim as sim
from envswitch.config import RSSI_RANGE_DBM, EngineConfig
from envswitch.fingerprints import (MODALITY_SLICES, CellSample, GnssSample,
                                    RawWindow, WifiScan, summarize_window)
from envswitch.policy import TTS_REPORT_FLOOR_S
from envswitch.sim import (HF_TAPER_PER_S, TICK_HZ, RawTrace, Scenario,
                           Waypoint, baseline_policy, detect_outdoor_transition,
                           feedback_oracle, fingerprint_at, generate,
                           make_scenario, scenario_text, segment_before,
                           truth_text, tts)

CFG = EngineConfig()
THRESHOLD = CFG.baseline.threshold_dbm


# ---------------------------------------------------------------------------
# scalar oracles of the vectorized kinematics, radio streams and window path
# ---------------------------------------------------------------------------


def path_loss_rssi(tx_power: float, distance: float, zone: str,
                   scenario, radio) -> float:
    """Noiseless log-distance RSSI at a position in a zone."""
    d = max(distance, 1.0)
    exponent = (radio.exponent_outdoor if zone in scenario.outdoor_zones
                else radio.exponent_indoor)
    walls = scenario.zone_walls.get(zone, 0.0)
    rssi = tx_power - radio.pl0_db - 10.0 * exponent * math.log10(d) \
        - walls * radio.wall_db
    return float(min(max(rssi, RSSI_RANGE_DBM[0]), RSSI_RANGE_DBM[1]))


def topk_readings(trace, t_idx: int, k: int = 3):
    """The ``k`` strongest (BSSID, RSSI) readings of second ``t_idx``, ties
    in AP order."""
    order = np.argsort(-trace.rssi_by_ap[:, t_idx], kind="stable")
    return [(trace.bssids[a], float(trace.rssi_by_ap[a, t_idx]))
            for a in order[:k]]


def scan_summary(readings):
    """(top-3 mean RSSI, strongest RSSI, strongest BSSID) of one scan, as
    ``fingerprints.wifi_features`` summarizes each scan."""
    ordered = sorted(readings, key=lambda r: (-r[1], r[0]))
    top = ordered[:3]
    return sum(r[1] for r in top) / len(top), ordered[0][1], ordered[0][0]


def scalar_trace_streams(scenario, radio, walker):
    """``generate`` one tick and one second at a time, its draws made as
    interleaved scalar calls: every ``RawTrace`` field by name, the onset
    from ``scalar_onset``."""
    rng = np.random.default_rng(scenario.seed)
    n_ticks = int(round(scenario.duration * TICK_HZ))
    tick_t = np.arange(n_ticks) / TICK_HZ
    pos, tick_zone, moving, headings = sim._kinematics(scenario, tick_t)

    per_tick = scenario.speed_mps / walker.stride_m / TICK_HZ
    step_ticks = []
    acc = 0.0
    for i in np.flatnonzero(moving).tolist():
        acc += per_tick
        if acc >= 1.0:
            step_ticks.append(i)
            acc -= 1.0
    step_times = tick_t[np.array(step_ticks, dtype=int)]

    n_secs = int(scenario.duration)
    sec_t = np.arange(n_secs, dtype=float)
    sec_idx = np.minimum((sec_t * TICK_HZ).astype(int), n_ticks - 1)
    sec_zone = [tick_zone[i] for i in sec_idx]

    door_time = None
    zone_transitions = []
    for i in range(1, n_ticks):
        if tick_zone[i] != tick_zone[i - 1]:
            zone_transitions.append((float(tick_t[i]), tick_zone[i - 1], tick_zone[i]))
            was_out = tick_zone[i - 1] in scenario.outdoor_zones
            is_out = tick_zone[i] in scenario.outdoor_zones
            if is_out and not was_out and door_time is None:
                door_time = float(tick_t[i])

    n_aps = len(scenario.ap_placements)
    rssi_by_ap = np.empty((n_aps, n_secs))
    shadow = rng.normal(0.0, scenario.shadow_sigma_db, size=(n_aps, n_secs))
    sec_pos = pos[sec_idx].tolist()
    for a, (ax, ay, tx) in enumerate(scenario.ap_placements):
        for i, (x, y) in enumerate(sec_pos):
            d = math.hypot(x - ax, y - ay)
            clean = path_loss_rssi(tx, d, sec_zone[i], scenario, radio)
            rssi_by_ap[a, i] = min(max(clean + shadow[a, i], RSSI_RANGE_DBM[0]),
                                   RSSI_RANGE_DBM[1])

    cell_id = np.full(n_secs, 501, dtype=int)
    rsrp = np.empty(n_secs)
    rsrq = np.empty(n_secs)
    for i in range(n_secs):
        base = (scenario.cell_rsrp_outdoor if sec_zone[i] in scenario.outdoor_zones
                else scenario.cell_rsrp_indoor)
        rsrp[i] = base + 1.5 * math.sin(sec_t[i] / 30.0) + rng.normal(0.0, 1.0)
        rsrq[i] = -10.0 + rng.normal(0.0, 0.8)

    snr = np.empty(n_secs)
    sats = np.empty(n_secs)
    fix = np.zeros(n_secs, dtype=bool)
    for i, t in enumerate(sec_t):
        if sec_zone[i] in scenario.outdoor_zones and door_time is not None:
            clear = door_time + scenario.gnss_clear_delay_s
            ramp = float(min(max((t - clear) / 5.0, 0.0), 1.0))
        else:
            ramp = 0.0
        snr[i] = max(0.0, 4.0 + 28.0 * ramp + rng.normal(0.0, 1.5))
        sats[i] = max(0.0, 2.5 + 9.5 * ramp + rng.normal(0.0, 0.8))
        fix[i] = ramp >= 0.6

    return dict(
        tick_t=tick_t, pos=pos, headings=headings,
        step_times=step_times, sec_t=sec_t,
        bssids=tuple(sim._bssid(scenario.seed, a) for a in range(n_aps)),
        rssi_by_ap=rssi_by_ap, cell_id=cell_id, rsrp=rsrp, rsrq=rsrq,
        gnss_snr=snr, gnss_sats=sats, gnss_fix=fix, door_time=door_time,
        degradation_onset=scalar_onset(scenario, radio,
                                       scenario.onset_threshold_dbm),
        zone_transitions=zone_transitions)


def wifi_summaries_oracle(trace):
    """``RawTrace.wifi_summaries`` one second at a time, through
    ``scan_summary`` of the top-3 readings."""
    means, strongest, bssids = zip(*[scan_summary(topk_readings(trace, i))
                                     for i in range(len(trace.sec_t))])
    return np.array(means), np.array(strongest), bssids


def trace_matches_oracle(scenario):
    """``generate``'s trace equals ``scalar_trace_streams`` field for field,
    arrays byte for byte with their dtype, and its WiFi summaries equal
    ``wifi_summaries_oracle``'s."""
    trace = generate(scenario, CFG.radio, CFG.walker)
    for name, want in scalar_trace_streams(scenario, CFG.radio, CFG.walker).items():
        got = getattr(trace, name)
        assert type(got) is type(want), name
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name
    got, want = trace.wifi_summaries(), wifi_summaries_oracle(trace)
    for a, b in zip(got[:2], want[:2]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got[2] == want[2]
    return True


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


def scalar_onset(scenario, radio, threshold):
    """The first time the noiseless serving RSSI crosses ``threshold``
    heading down, interpolated linearly between the whole seconds around it,
    over position_at one second at a time; None if it never does."""
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
        scans = [(float(trace.sec_t[i]), i) for i in sec_sel]
    else:
        # a scan at time s reads second int(s), on the 1 Hz grid or not
        scans = [(float(s), int(s)) for s in scan_times
                 if t_start <= s < t_end and 0 <= int(s) < len(trace.sec_t)]
    wifi = [WifiScan(s, topk_readings(trace, i, top_k)) for s, i in scans]
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


def reference_fingerprint_at(trace, t_end, scan_times=None):
    """fingerprint_at through window_from_trace and summarize_window."""
    t_start = t_end - sim.WINDOW_S
    w = window_from_trace(trace, t_start, t_end, scan_times)
    if scan_times is not None and not w.wifi_scans:
        older = [s for s in scan_times if s < t_start]
        if older:
            last = max(older)
            sec = int(last)
            if t_end - last <= sim.WIFI_STALE_S and 0 <= sec < len(trace.sec_t):
                w.wifi_scans = [WifiScan(last, topk_readings(trace, sec))]
    present = {
        "pdr": True,
        "wifi": len(w.wifi_scans) > 0,
        "cell": len(w.cell_samples) > 0,
        "gnss": len(w.gnss_samples) > 0,
        "time": True,
    }
    return summarize_window(w, present)


def fp_bytes(fp):
    return (fp.timestamp.hex(), fp.features.tobytes(), fp.present.tobytes())


def scan_schedule(duration, boosts=(), period=2.0, boosted=1.0):
    """Scan times the way a rollout schedules them, ascending; ``boosts``
    lists (start, end) spans scanned at the boosted period."""
    times, t = [], 0.0
    while t < duration:
        times.append(t)
        t += boosted if any(a <= t < b for a, b in boosts) else period
    return times


def sec_zones(trace):
    """The simulator's zone at each whole second of ``trace``: every whole
    second is a tick, so these are the labels ``generate`` used."""
    return sim._kinematics(trace.scenario, trace.sec_t)[1]


def synthetic_trace(rssi_series, duration=None):
    """Minimal trace with a scripted serving-RSSI series (1 Hz), its onset
    halfway."""
    n = len(rssi_series)
    duration = float(duration or n)
    scenario = Scenario(
        site="A_indoor", duration=duration,
        waypoints=(Waypoint(0, 0, "office"), Waypoint(5, 0, "office")),
        ap_placements=((0.0, 0.0, 16.0),), onset_threshold_dbm=THRESHOLD,
        seed=0, zone_walls={"office": 0.0})
    rssi = np.asarray(rssi_series, dtype=float)[None, :]
    return RawTrace(
        scenario=scenario, tick_t=np.arange(n * 10) / 10.0,
        pos=np.zeros((n * 10, 2)), headings=np.zeros(n * 10),
        step_times=np.zeros(0), sec_t=np.arange(n, dtype=float),
        bssids=("02:00:00:00:00:01",), rssi_by_ap=rssi, cell_id=np.full(n, 501),
        rsrp=np.full(n, -85.0), rsrq=np.full(n, -10.0),
        gnss_snr=np.zeros(n), gnss_sats=np.zeros(n),
        gnss_fix=np.zeros(n, dtype=bool), door_time=None,
        degradation_onset=duration / 2, zone_transitions=[])


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
        assert len(arrays) == 12
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
            serving = trace.serving_rssi()           # no shadowing
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
                                for z in sec_zones(trace)])
            indoor_means.append(trace.gnss_sats[~outdoor].mean())
            outdoor_means.append(trace.gnss_sats[outdoor].mean())
        assert np.mean(indoor_means) < np.mean(outdoor_means)

    def test_site_c_single_indoor_outdoor_transition(self):
        for seed in range(5):
            trace = generate(make_scenario("C", seed, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            outdoor = [z in trace.scenario.outdoor_zones for z in sec_zones(trace)]
            flips = sum(1 for a, b in zip(outdoor, outdoor[1:]) if a != b)
            assert flips == 1 and outdoor[-1]

    def test_rssi_range_respected(self):
        for flag in ("A", "B", "C"):
            trace = generate(make_scenario(flag, 2, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            assert trace.rssi_by_ap.min() >= RSSI_RANGE_DBM[0]
            assert trace.rssi_by_ap.max() <= RSSI_RANGE_DBM[1]

    def test_invalid_scenario_rejected(self):
        # a threshold at the first second's noiseless serving RSSI is
        # crossed at t = 0, outside the session
        sc = dataclasses.replace(make_scenario("A", 0, CFG.radio, CFG.walker),
                                 shadow_sigma_db=0.0)
        first = float(generate(sc, CFG.radio, CFG.walker).serving_rssi()[0])
        bad = dataclasses.replace(sc, onset_threshold_dbm=first)
        with pytest.raises(ValueError, match="onset must lie inside the session"):
            generate(bad, CFG.radio, CFG.walker)
        with pytest.raises(ValueError):
            make_scenario("D", 0, CFG.radio, CFG.walker)

    def test_a_threshold_the_walk_never_crosses_is_refused(self):
        # site A's noiseless serving RSSI stays above -95 dBm
        baseline = dataclasses.replace(CFG.baseline, threshold_dbm=-95.0)
        sc = make_scenario("A", 5, CFG.radio, CFG.walker, baseline)
        with pytest.raises(ValueError, match=r"^A_indoor seed 5: degradation "
                                             r"never reaches threshold$"):
            generate(sc, CFG.radio, CFG.walker)

    def test_onset_is_where_the_baseline_threshold_is_crossed(self):
        baseline = dataclasses.replace(CFG.baseline, threshold_dbm=-70.0)
        onsets = {}
        for flag in ("A", "B", "C"):
            sc = make_scenario(flag, 13, CFG.radio, CFG.walker, baseline)
            assert sc.onset_threshold_dbm == -70.0
            onset = generate(sc, CFG.radio, CFG.walker).degradation_onset
            assert onset == scalar_onset(sc, CFG.radio, -70.0)
            onsets[flag] = round(onset, 2)
            # the default baseline keeps the -75 dBm onset
            default = make_scenario(flag, 13, CFG.radio, CFG.walker)
            assert generate(default, CFG.radio, CFG.walker).degradation_onset \
                == scalar_onset(default, CFG.radio, THRESHOLD)
        assert onsets == {"A": 14.30, "B": 22.06, "C": 15.60}

    def test_onset_inside_session(self):
        for flag in ("A", "B", "C"):
            for seed in range(4):
                sc = make_scenario(flag, seed, CFG.radio, CFG.walker)
                onset = generate(sc, CFG.radio, CFG.walker).degradation_onset
                assert 0.0 < onset < sc.duration


class TestBaselinePolicy:
    def test_never_triggered_is_censored(self):
        trace = synthetic_trace([-40.0] * 30)
        completion, censored = baseline_policy(
            trace, -70.0, CFG.baseline.hysteresis_db, CFG.baseline.dwell_s,
            CFG.baseline.assoc_delay_s)
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
            baseline_policy(trace, -150.0, CFG.baseline.hysteresis_db,
                            CFG.baseline.dwell_s, CFG.baseline.assoc_delay_s)


class TestTts:
    FLOOR = TTS_REPORT_FLOOR_S

    def test_paper_site_a_day1_reconstruction(self):
        assert tts(32.68, 20.0, self.FLOOR) == pytest.approx(12.68)

    def test_zero_and_preemptive(self):
        assert tts(20.0, 20.0, self.FLOOR) == 0.0
        assert tts(18.0, 20.0, self.FLOOR) == -2.0

    def test_floor_clamp(self):
        assert tts(2.0, 20.0, self.FLOOR) == -5.0
        assert tts(2.0, 20.0, floor=-2.0) == -2.0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            tts(-1.0, 5.0, self.FLOOR)

    def test_shift_invariance(self):
        for delta in (3.7, 12.0):
            assert tts(30.0 + delta, 20.0 + delta, self.FLOOR) == pytest.approx(
                tts(30.0, 20.0, self.FLOOR), abs=1e-9)


class TestFeedbackOracle:
    def test_perfect_switch_scores_one(self):
        trace = synthetic_trace([-60.0] * 40)
        onset = trace.degradation_onset
        assert feedback_oracle(onset, trace) == 1.0
        assert feedback_oracle(onset - 2.0, trace) == 1.0
        assert feedback_oracle(onset + 3.0, trace) == 1.0

    def test_late_switch_taper_is_ordered(self):
        trace = synthetic_trace([-60.0] * 80)
        onset = trace.degradation_onset
        # oracle: taper evaluated by hand from the documented shape
        ten_late = feedback_oracle(onset + 10.0, trace)
        four_late = feedback_oracle(onset + 4.0, trace)
        assert ten_late == pytest.approx(1.0 - HF_TAPER_PER_S * 7.0)
        assert four_late == pytest.approx(1.0 - HF_TAPER_PER_S * 1.0)
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
        assert len(seg.windows) == CFG.window.buffer_windows
        ts = [w.timestamp for w in seg.windows]
        assert ts[-1] == pytest.approx(19.5)   # window midpoints
        assert ts[0] == pytest.approx(10.5)

    def test_segment_before_ends_on_its_own_grid(self, monkeypatch):
        """Window ends come from their index: a buffer before 40.0 or 23.37
        ends exactly there, and one before 6.3, shorter than the buffer,
        keeps the windows ending at k * WINDOW_S."""
        trace = generate(make_scenario("B", 3, CFG.radio, CFG.walker), CFG.radio, CFG.walker)
        ends = []

        def spy(trace, t_end, *args):
            ends.append(t_end)
            return fingerprint_at(trace, t_end, *args)

        monkeypatch.setattr(sim, "fingerprint_at", spy)
        for t_event in (40.0, 23.37):
            ends.clear()
            seg = segment_before(trace, t_event, CFG)
            assert len(seg.windows) == len(ends) == 10
            assert ends[-1] == t_event
            assert ends == [t_event - (10 - k) * sim.WINDOW_S for k in range(1, 11)]
        ends.clear()
        assert len(segment_before(trace, 6.3, CFG).windows) == 6
        assert ends == [k * sim.WINDOW_S for k in range(1, 7)]

    def test_fingerprint_full_presence_at_full_rate(self):
        trace = generate(make_scenario("C", 1, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        fp = fingerprint_at(trace, 10.0, range(len(trace.sec_t)))
        assert fp.present.all()

    def test_detect_outdoor_transition_on_site_c(self):
        trace = generate(make_scenario("C", 3, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        t_detect = detect_outdoor_transition(trace, CFG)
        assert t_detect is not None
        assert trace.door_time <= t_detect <= trace.door_time + 12.0

    def test_detection_follows_the_configured_threshold(self):
        # a flat -70 dBm link never decays sharply, so only the weak-WiFi
        # level decides condition (b)
        trace = generate(make_scenario("C", 3, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        flat = dataclasses.replace(trace, rssi_by_ap=np.full_like(trace.rssi_by_ap, -70.0))
        assert detect_outdoor_transition(flat, CFG) is None
        weak_at_70 = dataclasses.replace(
            CFG, baseline=dataclasses.replace(CFG.baseline, threshold_dbm=-65.0))
        assert detect_outdoor_transition(flat, weak_at_70) == detect_outdoor_transition(trace, CFG)

    def test_site_c_seed_194_anchors_without_a_door_cue(self):
        # the door is at 14.7 s, and GNSS and WiFi first agree at 20.0 s,
        # more than 5 s later: that second anchors the walk
        trace = generate(make_scenario("C", 194, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        assert detect_outdoor_transition(trace, CFG) == 20.0

    @pytest.mark.parametrize("site", ["B", "C"])
    def test_detection_reads_no_ground_truth(self, site):
        # blanking the simulator's zones and door time leaves every second
        # a device observes as it was
        found = []
        for seed in range(6):
            trace = generate(make_scenario(site, seed, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            blind = dataclasses.replace(
                trace, door_time=None, scenario=dataclasses.replace(
                    trace.scenario, outdoor_zones=frozenset()))
            found.append(detect_outdoor_transition(trace, CFG))
            assert detect_outdoor_transition(blind, CFG) == found[-1], seed
        assert None not in found

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
        serving = trace.serving_rssi()           # no shadowing: noiseless
        onset = trace.degradation_onset
        i = int(math.floor(onset))
        assert serving[i] >= -75.0 >= serving[i + 1]


def kinematics_match_oracle(scenario):
    """Vectorized positions, zones, moving flags and headings equal
    position_at's at every tick, on every phase boundary and on a 0.25 s grid
    past the session end."""
    phases = sim._walk_schedule(scenario)
    n_ticks = int(round(scenario.duration * TICK_HZ))
    times = np.concatenate([np.arange(n_ticks) / TICK_HZ,
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
            assert kinematics_match_oracle(sc)
            assert generate(sc, CFG.radio, CFG.walker).degradation_onset \
                == scalar_onset(sc, CFG.radio, THRESHOLD)

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_bench_style_walkers_take_the_onset_from_the_trace(self, site):
        # walkers drawn as the benchmark draws its users', at a -70 dBm
        # threshold: each trace's onset is the scalar crossing of its walk
        baseline = dataclasses.replace(CFG.baseline, threshold_dbm=-70.0)
        rng = np.random.default_rng(7)
        for seed in range(20):
            walker = dataclasses.replace(
                CFG.walker, speed_mps=float(rng.uniform(1.05, 1.35)),
                stride_m=float(rng.uniform(0.65, 0.75)))
            sc = make_scenario(site, seed, CFG.radio, walker, baseline)
            assert generate(sc, CFG.radio, walker).degradation_onset \
                == scalar_onset(sc, CFG.radio, -70.0)

    def test_jitter_is_the_scalar_draws_in_one_array(self):
        wps = make_scenario("B", 0, CFG.radio, CFG.walker).waypoints
        for seed in range(20):
            scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
            want = wps[:1] + tuple(
                Waypoint(w.x + scalar.uniform(-1.0, 1.0),
                         w.y + scalar.uniform(-1.0, 1.0), w.zone)
                for w in wps[1:])
            assert sim._jitter_waypoints(wps, batched, 1.0) == want
            assert scalar.uniform() == batched.uniform()     # as many draws

    def test_repeated_waypoint_and_short_session(self):
        sc = make_scenario("A", 3, CFG.radio, CFG.walker)
        # a zero-length move between two copies of the second waypoint
        back = dataclasses.replace(
            sc, waypoints=sc.waypoints[:2] + sc.waypoints[1:], duration=20.0)
        assert len(back.waypoints) == len(sc.waypoints) + 1
        assert back.waypoints[1] == back.waypoints[2]
        phases = sim._walk_schedule(back)
        assert phases[-1][0] > back.duration      # the walk outlasts the session
        assert kinematics_match_oracle(back)
        trace = generate(back, CFG.radio, CFG.walker)
        assert trace.degradation_onset == scalar_onset(back, CFG.radio, THRESHOLD)
        assert len(trace.tick_t) == 200
        assert trace_matches_oracle(back)


class TestTraceOracle:
    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_vectorized_streams_equal_scalar_oracle(self, site):
        doors = 0
        for seed in range(50):
            sc = make_scenario(site, seed, CFG.radio, CFG.walker)
            assert trace_matches_oracle(sc)
            doors += generate(sc, CFG.radio, CFG.walker).door_time is not None
        # site A never leaves the building; B and C always do
        assert doors == (0 if site == "A" else 50)

    def test_without_shadowing(self):
        for site in ("A", "B", "C"):
            for seed in range(5):
                sc = make_scenario(site, seed, CFG.radio, CFG.walker)
                assert trace_matches_oracle(
                    dataclasses.replace(sc, shadow_sigma_db=0.0))

    def test_four_aps_tied_at_the_top(self):
        # APs 1-4 share one placement, so without shadowing they tie every
        # second; AP 4 has the smallest of their BSSIDs
        seed = next(s for s in range(100)
                    if sim._bssid(s, 4) < min(sim._bssid(s, a) for a in (1, 2, 3)))
        sc = dataclasses.replace(
            make_scenario("A", seed, CFG.radio, CFG.walker),
            ap_placements=((0.0, 0.0, 16.0),) + ((20.0, 1.0, 16.0),) * 4,
            shadow_sigma_db=0.0)
        assert trace_matches_oracle(sc)
        trace = generate(sc, CFG.radio, CFG.walker)
        means, strongest, bssids = trace.wifi_summaries()
        tied = trace.rssi_by_ap[1] > trace.rssi_by_ap[0]
        assert 0 < tied.sum() < len(tied)
        # the top 3 are APs 1-3 by index, so AP 4 is never the strongest
        top3 = min(trace.bssids[1:4])
        assert {bssids[i] for i in np.flatnonzero(tied)} == {top3}
        assert trace.bssids[4] not in bssids
        lead = trace.rssi_by_ap[1, tied]
        assert strongest[tied].tolist() == lead.tolist()
        assert means[tied].tolist() == ((lead + lead + lead) / 3).tolist()


class TestWindowOracle:
    # None stands for the trace's every-second schedule, range(len(trace.sec_t))
    SCHEDULES = {
        "every_second": None,
        "every_2s": scan_schedule(90.0),
        "boosted_1s": scan_schedule(90.0, boosts=((6.0, 16.0), (30.0, 40.0))),
        # gaps longer than WIFI_STALE_S, and scans off the 1 Hz grid
        "gaps": [0.0, 7.0, 8.5, 15.0, 16.0, 24.5, 30.0, 41.0, 47.0, 60.0],
    }

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    @pytest.mark.parametrize("window_s", [0.5, 1.0, 2.0])
    def test_fingerprint_at_equals_summarize_window(self, site, window_s, monkeypatch):
        # the window code reads WINDOW_S wherever it needs the length, so a
        # different constant summarizes windows of that length exactly
        monkeypatch.setattr(sim, "WINDOW_S", window_s)
        trace = generate(make_scenario(site, 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        rng = np.random.default_rng(3)
        ends = np.concatenate([np.arange(window_s, trace.duration, 1.0),
                               rng.uniform(10.0, trace.duration - 10.0, 12)])
        for t in ends.tolist():
            for schedule in self.SCHEDULES.values():
                schedule = range(len(trace.sec_t)) if schedule is None else schedule
                want = fp_bytes(reference_fingerprint_at(trace, t, schedule))
                assert fp_bytes(fingerprint_at(trace, t, schedule)) == want
                # the second call is a memo hit
                assert fp_bytes(fingerprint_at(trace, t, schedule)) == want

    # a stale carry-over (9 s carries 8.5), absent WiFi (15 s) and two
    # scans in one window (31 and 31.5)
    SPARSE = [0.0, 7.0, 8.5, 20.0, 31.0, 31.5, 45.0]

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    @pytest.mark.parametrize("window_s", [0.2, 0.5, 1.0, 2.0])
    def test_a_sparse_schedule_equals_the_oracle(self, site, window_s, monkeypatch):
        """At whole and half-second ends, under a schedule with long gaps;
        the trace turns its per-second streams into lists once."""
        monkeypatch.setattr(sim, "WINDOW_S", window_s)
        trace = generate(make_scenario(site, 5, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        assert trace._streams is None
        streams = None
        for t in np.arange(0.5, len(trace.sec_t) + 0.25, 0.5).tolist():
            want = fp_bytes(reference_fingerprint_at(trace, t, self.SPARSE))
            assert fp_bytes(fingerprint_at(trace, t, self.SPARSE)) == want
            assert fp_bytes(fingerprint_at(trace, t, self.SPARSE)) == want
            streams = streams or trace._streams
            assert trace._streams is streams
        assert trace.streams() is streams and all(type(s) is list for s in streams)
        seen = set()
        for (t_end, scans), fp in trace._windows.items():
            assert bool(scans) == bool(fp.present[1])
            if not scans:
                seen.add("absent")
            elif scans[-1] < t_end - window_s:
                seen.add("carried")
            elif len(scans) == 2:
                seen.add("two")
        assert {"absent", "carried"} <= seen and ("two" in seen) == (window_s >= 1.0)

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_every_second_schedule_sees_every_sample(self, site):
        """Inside the trace, the every-second schedule reads what the oracle
        reads with every per-second sample visible, at whole and half
        seconds; a window ending after the last second is refused."""
        for seed in range(4):
            trace = generate(make_scenario(site, seed, CFG.radio, CFG.walker),
                             CFG.radio, CFG.walker)
            every_second = range(len(trace.sec_t))
            assert len(trace.sec_t) == int(trace.duration)
            for t in np.arange(0.5, len(trace.sec_t) + 0.25, 0.5).tolist():
                assert (fp_bytes(fingerprint_at(trace, t, every_second))
                        == fp_bytes(reference_fingerprint_at(trace, t)))
            for t in (len(trace.sec_t) + 0.5, len(trace.sec_t) + 1.0):
                with pytest.raises(ValueError, match=f"t_end = {t} .* {len(trace.sec_t)} s"):
                    fingerprint_at(trace, t, every_second)

    def test_segment_windows_equal_the_oracle(self):
        trace = generate(make_scenario("B", 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        seg = segment_before(trace, 23.37, CFG)
        t = max(0.0, 23.37 - 10 * sim.WINDOW_S)
        for fp in seg.windows:
            t += sim.WINDOW_S
            assert fp_bytes(fp) == fp_bytes(reference_fingerprint_at(trace, t))

    def test_the_schedules_cover_each_wifi_case(self):
        trace = generate(make_scenario("C", 7, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        for schedule in self.SCHEDULES.values():
            schedule = range(len(trace.sec_t)) if schedule is None else schedule
            for t in np.arange(1.0, trace.duration, 0.5).tolist():
                fingerprint_at(trace, t, schedule)
        # a memo key is (t_end, the scans the window reads): those inside it
        # or, failing them, the one it carries over
        seen = set()
        for (t_end, scans), fp in trace._windows.items():
            assert bool(scans) == bool(fp.present[1])
            if not scans:
                seen.add("absent")
            elif scans[-1] < t_end - sim.WINDOW_S:
                assert len(scans) == 1
                seen.add("carried")
            else:
                seen.add("fresh")
        assert seen == {"fresh", "carried", "absent"}


class TestWindowMemo:
    def trace(self):
        return generate(make_scenario("B", 11, CFG.radio, CFG.walker),
                        CFG.radio, CFG.walker)

    def test_repeated_call_returns_the_same_window(self):
        trace = self.trace()
        scans = scan_schedule(trace.duration)
        first = fingerprint_at(trace, 12.0, scans)
        again = fingerprint_at(trace, 12.0, tuple(scans))
        assert again is first
        assert fp_bytes(again) == fp_bytes(reference_fingerprint_at(trace, 12.0, scans))

    def test_scan_set_and_carry_over_key_the_memo(self):
        trace = self.trace()
        t = 9.0                                   # window [8, 9); staleness 4 s
        cases = {
            "in_window": [0.0, 8.0],
            "fresh_carry": [0.0, 6.0],
            "edge_carry": [0.0, 5.0],             # age 4: still present
            "too_stale": [0.0, 4.0],
            "off_grid_carry": [0.0, 6.5],         # read from second 6
        }
        got = {}
        for name, scans in cases.items():
            got[name] = fp_bytes(fingerprint_at(trace, t, scans))
            assert got[name] == fp_bytes(reference_fingerprint_at(trace, t, scans))
        memo = trace._windows
        assert len(memo) == len(cases)
        assert len({got[n] for n in ("in_window", "fresh_carry", "edge_carry",
                                     "too_stale")}) == 4
        # both carry second 6, so the windows are equal; the memo still
        # keeps one entry for each
        assert got["off_grid_carry"] == got["fresh_carry"]
        # scans the window does not read share the entry
        fingerprint_at(trace, t, [2.0, 6.0])
        fingerprint_at(trace, t, [1.0, 3.0, 4.0])
        assert len(memo) == len(cases)

    def test_an_off_grid_scan_is_read_in_its_own_window(self):
        trace = self.trace()
        wifi = MODALITY_SLICES["wifi"]
        schedule = [0.0, 8.5]
        for t in (9.0, 10.0):              # [8, 9) holds the scan; [9, 10) carries it
            fp = fingerprint_at(trace, t, schedule)
            assert fp_bytes(fp) == fp_bytes(reference_fingerprint_at(trace, t, schedule))
            assert fp.present[1]
            # one scan reading second 8, as the on-grid scan at 8.0 does
            on_grid = fingerprint_at(trace, t, [0.0, 8.0])
            assert fp.features[wifi].tobytes() == on_grid.features[wifi].tobytes()

    def test_a_library_window_and_a_rollout_window_share_an_entry(self):
        # segment_before's window [8, 9) and a rollout's under the 2 s
        # schedule both read the scan at second 8: 8 == 8.0 in the key
        trace = self.trace()
        library = segment_before(trace, 9.0, CFG).windows[-1]
        assert (9.0, (8,)) in trace._windows
        entries = len(trace._windows)
        assert fingerprint_at(trace, 9.0, scan_schedule(trace.duration)) is library
        assert len(trace._windows) == entries

    def test_the_schedule_is_a_sequence(self):
        # a set has no order to bisect
        with pytest.raises(TypeError):
            fingerprint_at(self.trace(), 9.0, {0.0, 6.0})

    def test_config_changes_are_never_served_stale(self):
        # a window reads no setting a run may vary, so a buffer of another
        # length is served the same memoized windows, each the oracle's
        trace = self.trace()
        buffer = segment_before(trace, 20.0, CFG)
        short = segment_before(trace, 20.0, dataclasses.replace(
            CFG, window=dataclasses.replace(CFG.window, buffer_windows=3)))
        assert len(trace._windows) == 10
        assert [id(fp) for fp in short.windows] == [id(fp) for fp in buffer.windows[-3:]]
        for k, fp in enumerate(buffer.windows, 11):
            assert fp_bytes(fp) == fp_bytes(reference_fingerprint_at(trace, float(k)))
