"""Deterministic simulation of three site archetypes with synthetic signals.

Sites mirror common mobility patterns: A is a fully indoor office walk toward
a far wing, B exits an office front door onto an entrance apron, C leaves an
apartment building and continues outdoors.  WiFi follows a log-distance path
loss model with per-zone wall attenuation and lognormal shadowing; GNSS
reappears within seconds of a door crossing; PDR comes from a constant-speed
walker with pauses at turns.  Everything is a pure function of (scenario,
seed).

The module also hosts the threshold+hysteresis baseline switch policy, the
time-to-switch metric, and the simulated human-feedback oracle.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .config import EngineConfig, RadioConfig, RewardConfig, WalkerConfig
from .fingerprints import (FEATURE_NAMES, Fingerprint, FingerprintSequence,
                           assemble_fingerprint, cell_summary, fnv1a64,
                           gnss_summary, pdr_summary, scan_summary,
                           time_summary, wifi_summary)
# unused here; bench/spans.py wraps this name
from .fingerprints import summarize_window
from .serialize import fmt

SITES = ("A_indoor", "B_door_egress", "C_apartment_mixed")
SITE_SHORT = {"A": "A_indoor", "B": "B_door_egress", "C": "C_apartment_mixed"}


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    zone: str


@dataclass
class Scenario:
    """Everything needed to reproduce one session deterministically."""

    site: str
    duration: float
    waypoints: tuple
    ap_placements: tuple          # ((x, y, tx_power_dbm), ...)
    degradation_onset: float
    seed: int
    zone_walls: dict = field(default_factory=dict)
    outdoor_zones: frozenset = frozenset()
    speed_mps: float = 1.2
    pause_s: float = 0.5
    shadow_sigma_db: float = 2.0
    cell_rsrp_indoor: float = -88.0
    cell_rsrp_outdoor: float = -80.0
    start_hour: float = 10.0
    # sky-view clearance after the door: open courtyards get a fix within
    # ~5 s, building-hugging aprons (urban canyon) take longer
    gnss_clear_delay_s: float = 0.0

    def validate(self):
        if self.site not in SITES:
            raise ValueError(f"unknown site: {self.site!r}")
        if not 0.0 < self.degradation_onset < self.duration:
            raise ValueError("degradation onset must lie inside the session")
        if len(self.waypoints) < 2:
            raise ValueError("scenario needs at least two waypoints")
        zones = [w.zone for w in self.waypoints]
        outdoor = [z in self.outdoor_zones for z in zones]
        transitions = sum(1 for a, b in zip(outdoor, outdoor[1:]) if a != b)
        if self.site == "A_indoor" and any(outdoor):
            raise ValueError("site A paths are fully indoor")
        if self.site == "C_apartment_mixed":
            if transitions != 1 or not outdoor[-1]:
                raise ValueError("site C must transition indoor -> outdoor exactly once")
        if self.site == "B_door_egress" and transitions != 1:
            raise ValueError("site B must exit exactly once")


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------


def _walk_schedule(scenario: Scenario):
    """Piecewise (t0, t1, kind, data) phases: 'move' or 'pause' segments."""
    phases = []
    t = 0.0
    wps = scenario.waypoints
    for k in range(len(wps) - 1):
        a, b = wps[k], wps[k + 1]
        dist = math.hypot(b.x - a.x, b.y - a.y)
        dur = dist / scenario.speed_mps if dist > 0 else 0.0
        if dur > 0:
            phases.append((t, t + dur, "move", (a, b)))
            t += dur
        if k + 1 < len(wps) - 1 and scenario.pause_s > 0:
            phases.append((t, t + scenario.pause_s, "pause", (b, b)))
            t += scenario.pause_s
    phases.append((t, max(t, scenario.duration), "pause",
                   (wps[-1], wps[-1])))
    return phases


def _kinematics(scenario: Scenario, times: np.ndarray):
    """(pos (n, 2), zones, moving, headings) of the walker at ``times``.

    A time belongs to the first phase that ends after it; times past the
    last phase hold at the final waypoint.  A move phase interpolates
    ``a + frac * (b - a)`` and reports its start zone; a pause sits at its
    waypoint.  Every phase's heading is ``atan2`` of its displacement.
    """
    phases = _walk_schedule(scenario)
    t0, t1, kinds, ends = zip(*phases)
    t0, t1 = np.array(t0), np.array(t1)
    starts, stops = zip(*ends)
    ax, ay = np.array([w.x for w in starts]), np.array([w.y for w in starts])
    bx, by = np.array([w.x for w in stops]), np.array([w.y for w in stops])
    moves = np.array(kinds) == "move"
    zones = [a.zone if kind == "move" else b.zone
             for kind, a, b in zip(kinds, starts, stops)]
    headings = np.array([math.atan2(b.y - a.y, b.x - a.x)
                         for a, b in zip(starts, stops)])

    k = np.minimum(np.searchsorted(t1, times, side="right"), len(phases) - 1)
    moving = moves[k]
    x, y = bx[k], by[k]
    m = k[moving]
    frac = (times[moving] - t0[m]) / (t1[m] - t0[m])
    x[moving] = ax[m] + frac * (bx[m] - ax[m])
    y[moving] = ay[m] + frac * (by[m] - ay[m])
    return (np.column_stack((x, y)), [zones[i] for i in k.tolist()], moving,
            headings[k])


# ---------------------------------------------------------------------------
# radio
# ---------------------------------------------------------------------------


def path_loss_rssi(tx_power: float, distance: float, zone: str,
                   scenario: Scenario, radio: RadioConfig) -> float:
    """Noiseless log-distance RSSI at a position in a zone."""
    d = max(distance, 1.0)
    exponent = (radio.exponent_outdoor if zone in scenario.outdoor_zones
                else radio.exponent_indoor)
    walls = scenario.zone_walls.get(zone, 0.0)
    rssi = tx_power - radio.pl0_db - 10.0 * exponent * math.log10(d) \
        - walls * radio.wall_db
    return float(min(max(rssi, radio.rssi_floor_dbm), radio.rssi_ceil_dbm))


@dataclass
class RawTrace:
    """Per-tick PDR stream plus per-second radio/GNSS streams.

    ``generate`` makes every array read-only: one trace is shared by every
    rollout of its scenario, and its checksum, its per-second WiFi summaries
    and each window ``fingerprint_at`` builds from it are computed once.
    """

    scenario: Scenario
    tick_t: np.ndarray
    pos: np.ndarray               # (n_ticks, 2)
    tick_zone: list
    headings: np.ndarray
    step_times: np.ndarray
    sec_t: np.ndarray
    bssids: tuple
    rssi_by_ap: np.ndarray        # (n_aps, n_secs) with shadowing
    noiseless_by_ap: np.ndarray
    cell_id: np.ndarray
    rsrp: np.ndarray
    rsrq: np.ndarray
    gnss_snr: np.ndarray
    gnss_sats: np.ndarray
    gnss_fix: np.ndarray
    sec_zone: list
    door_time: float | None
    degradation_onset: float
    zone_transitions: list
    _checksum: str | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _wifi: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    # fingerprint_at's memo: normalization -> {window key: Fingerprint}
    _windows: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def duration(self) -> float:
        return self.scenario.duration

    def serving_rssi(self) -> np.ndarray:
        return self.rssi_by_ap.max(axis=0)

    def noiseless_serving(self) -> np.ndarray:
        return self.noiseless_by_ap.max(axis=0)

    def topk_readings(self, t_idx: int, k: int = 3):
        order = np.argsort(-self.rssi_by_ap[:, t_idx], kind="stable")
        return [(self.bssids[a], float(self.rssi_by_ap[a, t_idx]))
                for a in order[:k]]

    def wifi_summaries(self):
        """Per-second ``scan_summary`` of the top-3 readings, computed once:
        (top-K means, strongest RSSIs, strongest BSSIDs)."""
        if self._wifi is None:
            per_sec = [scan_summary(self.topk_readings(i))
                       for i in range(len(self.sec_t))]
            means, strongest, bssids = zip(*per_sec)
            self._wifi = (np.array(means), np.array(strongest), bssids)
        return self._wifi

    def checksum(self) -> str:
        """16 hex digits: an 8-byte BLAKE2b of the radio, GNSS and position
        arrays, computed once per trace."""
        if self._checksum is None:
            payload = (self.rssi_by_ap.tobytes() + self.rsrp.tobytes()
                       + self.gnss_snr.tobytes() + self.pos.tobytes())
            self._checksum = hashlib.blake2b(payload, digest_size=8).hexdigest()
        return self._checksum


def _gnss_streams(scenario, sec_t, sec_zone, door_time, rng):
    n = len(sec_t)
    snr = np.empty(n)
    sats = np.empty(n)
    fix = np.zeros(n, dtype=bool)
    for i, t in enumerate(sec_t):
        outdoor = sec_zone[i] in scenario.outdoor_zones
        if outdoor and door_time is not None:
            clear = door_time + scenario.gnss_clear_delay_s
            ramp = float(min(max((t - clear) / 5.0, 0.0), 1.0))
        else:
            ramp = 0.0
        snr[i] = max(0.0, 4.0 + 28.0 * ramp + rng.normal(0.0, 1.5))
        sats[i] = max(0.0, 2.5 + 9.5 * ramp + rng.normal(0.0, 0.8))
        fix[i] = ramp >= 0.6
    return snr, sats, fix


def generate(scenario: Scenario, radio: RadioConfig | None = None,
             walker: WalkerConfig | None = None) -> RawTrace:
    """Synthesize the full multi-modal trace for one scenario, seeded."""
    scenario.validate()
    radio = radio or RadioConfig()
    walker = walker or WalkerConfig()
    rng = np.random.default_rng(scenario.seed)

    n_ticks = int(round(scenario.duration * walker.tick_hz))
    tick_t = np.arange(n_ticks) / walker.tick_hz
    pos, tick_zone, moving, headings = _kinematics(scenario, tick_t)

    # step events from a constant cadence while moving
    per_tick = scenario.speed_mps / walker.stride_m / walker.tick_hz
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
    sec_idx = np.minimum((sec_t * walker.tick_hz).astype(int), n_ticks - 1)
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
    noiseless_by_ap = np.empty((n_aps, n_secs))
    shadow = rng.normal(0.0, scenario.shadow_sigma_db, size=(n_aps, n_secs))
    sec_pos = pos[sec_idx].tolist()
    for a, (ax, ay, tx) in enumerate(scenario.ap_placements):
        for i, (x, y) in enumerate(sec_pos):
            d = math.hypot(x - ax, y - ay)
            clean = path_loss_rssi(tx, d, sec_zone[i], scenario, radio)
            noiseless_by_ap[a, i] = clean
            rssi_by_ap[a, i] = min(max(clean + shadow[a, i],
                                       radio.rssi_floor_dbm),
                                   radio.rssi_ceil_dbm)
    bssids = tuple(_bssid(scenario.seed, a) for a in range(n_aps))

    cell_id = np.full(n_secs, 501, dtype=int)
    rsrp = np.empty(n_secs)
    rsrq = np.empty(n_secs)
    for i in range(n_secs):
        base = (scenario.cell_rsrp_outdoor if sec_zone[i] in scenario.outdoor_zones
                else scenario.cell_rsrp_indoor)
        rsrp[i] = base + 1.5 * math.sin(sec_t[i] / 30.0) + rng.normal(0.0, 1.0)
        rsrq[i] = -10.0 + rng.normal(0.0, 0.8)

    gnss_snr, gnss_sats, gnss_fix = _gnss_streams(scenario, sec_t, sec_zone,
                                                  door_time, rng)

    arrays = (tick_t, pos, headings, step_times, sec_t, rssi_by_ap,
              noiseless_by_ap, cell_id, rsrp, rsrq, gnss_snr, gnss_sats,
              gnss_fix)
    for a in arrays:
        a.flags.writeable = False
    return RawTrace(
        scenario=scenario, tick_t=tick_t, pos=pos, tick_zone=tick_zone,
        headings=headings, step_times=step_times, sec_t=sec_t, bssids=bssids,
        rssi_by_ap=rssi_by_ap, noiseless_by_ap=noiseless_by_ap,
        cell_id=cell_id, rsrp=rsrp, rsrq=rsrq, gnss_snr=gnss_snr,
        gnss_sats=gnss_sats, gnss_fix=gnss_fix, sec_zone=sec_zone,
        door_time=door_time, degradation_onset=scenario.degradation_onset,
        zone_transitions=zone_transitions,
    )


def _bssid(seed: int, ap_index: int) -> str:
    h = fnv1a64(f"{seed}:{ap_index}", "bssid")
    octets = [(h >> (8 * k)) & 0xFF for k in range(5)]
    return "02:" + ":".join(f"{o:02x}" for o in octets)


# ---------------------------------------------------------------------------
# degradation onset
# ---------------------------------------------------------------------------


def compute_onset(scenario: Scenario, radio: RadioConfig | None = None,
                  threshold: float = -75.0) -> float | None:
    """First time the noiseless serving RSSI crosses the threshold heading down."""
    radio = radio or RadioConfig()
    sec_t = np.arange(int(scenario.duration), dtype=float)
    pos, zones, _, _ = _kinematics(scenario, sec_t)
    prev = None
    for t, (x, y), zone in zip(sec_t.tolist(), pos.tolist(), zones):
        best = max(path_loss_rssi(tx, math.hypot(x - ax, y - ay), zone,
                                  scenario, radio)
                   for ax, ay, tx in scenario.ap_placements)
        if prev is not None and prev >= threshold > best:
            frac = (prev - threshold) / (prev - best)
            return float(t - 1.0 + frac)
        prev = best
    return None


# ---------------------------------------------------------------------------
# site builders
# ---------------------------------------------------------------------------


def _jitter_waypoints(wps, rng, amount: float):
    out = []
    for k, w in enumerate(wps):
        if k == 0:
            out.append(w)
        else:
            out.append(Waypoint(w.x + rng.uniform(-amount, amount),
                                w.y + rng.uniform(-amount, amount), w.zone))
    return tuple(out)


def make_scenario(site: str, seed: int, radio: RadioConfig | None = None,
                  walker: WalkerConfig | None = None) -> Scenario:
    """Deterministic per-seed scenario for a site archetype."""
    site = SITE_SHORT.get(site, site)
    radio = radio or RadioConfig()
    walker = walker or WalkerConfig()
    rng = np.random.default_rng(fnv1a64(f"scenario:{site}:{seed}"))
    speed = walker.speed_mps * rng.uniform(0.95, 1.05)

    if site == "A_indoor":
        wps = (Waypoint(1.5, 0.0, "office"), Waypoint(6.0, 0.0, "office"),
               Waypoint(10.0, 0.5, "hall"), Waypoint(19.0, 1.0, "wing"),
               Waypoint(27.5, 1.5, "far_wing"), Waypoint(34.0, 2.0, "far_wing"))
        scenario = Scenario(
            site=site, duration=60.0,
            waypoints=_jitter_waypoints(wps, rng, 0.4),
            ap_placements=((0.0, 0.0, 16.0),),
            degradation_onset=1.0, seed=seed,
            zone_walls={"office": 0.0, "hall": 2.0, "wing": 3.0,
                        "far_wing": 4.0},
            outdoor_zones=frozenset(), speed_mps=speed,
            pause_s=walker.pause_s, shadow_sigma_db=2.0,
        )
    elif site == "B_door_egress":
        wps = (Waypoint(1.5, 0.0, "office"), Waypoint(8.0, 0.0, "hall"),
               Waypoint(14.0, 0.5, "lobby"), Waypoint(18.0, 0.5, "lobby"),
               Waypoint(22.0, 0.0, "apron"), Waypoint(30.0, 2.0, "apron"),
               Waypoint(32.0, 2.75, "apron_far"), Waypoint(38.0, 5.0, "apron_far"),
               Waypoint(46.0, 8.0, "apron_far"))
        scenario = Scenario(
            site=site, duration=75.0,
            waypoints=_jitter_waypoints(wps, rng, 1.0),
            ap_placements=((0.0, 0.0, 16.0),),
            degradation_onset=1.0, seed=seed,
            zone_walls={"office": 0.0, "hall": 1.0, "lobby": 2.0,
                        "apron": 3.4, "apron_far": 4.2},
            outdoor_zones=frozenset({"apron", "apron_far"}), speed_mps=speed,
            pause_s=walker.pause_s + rng.uniform(0.0, 1.5),
            shadow_sigma_db=3.0, gnss_clear_delay_s=6.0,
        )
    elif site == "C_apartment_mixed":
        wps = (Waypoint(2.0, 0.0, "apartment"), Waypoint(6.0, 0.0, "corridor"),
               Waypoint(10.0, 1.0, "stairwell"), Waypoint(15.0, 1.5, "stairwell"),
               Waypoint(18.0, 2.0, "courtyard"), Waypoint(24.0, 4.0, "courtyard"),
               Waypoint(30.0, 9.0, "street"), Waypoint(36.0, 16.0, "street"),
               Waypoint(42.0, 24.0, "street"))
        scenario = Scenario(
            site=site, duration=85.0,
            waypoints=_jitter_waypoints(wps, rng, 0.5),
            ap_placements=((0.0, 0.0, 22.0),),
            degradation_onset=1.0, seed=seed,
            zone_walls={"apartment": 0.0, "corridor": 1.0, "stairwell": 2.0,
                        "courtyard": 4.0, "street": 4.0},
            outdoor_zones=frozenset({"courtyard", "street"}), speed_mps=speed,
            pause_s=walker.pause_s, shadow_sigma_db=2.0,
        )
    else:
        raise ValueError(f"unknown site: {site!r}")

    onset = compute_onset(scenario, radio)
    if onset is None:
        raise ValueError(f"{site} seed {seed}: degradation never reaches threshold")
    scenario.degradation_onset = onset
    scenario.validate()
    return scenario


# ---------------------------------------------------------------------------
# baseline policy, TTS, feedback
# ---------------------------------------------------------------------------


def baseline_policy(trace: RawTrace, threshold: float = -75.0,
                    hysteresis: float = 5.0, dwell: float = 3.0,
                    assoc_delay: float = 2.0):
    """Switch after RSSI stays below threshold - hysteresis for dwell seconds.

    Returns (completion_time, censored).  Never-triggered sessions report the
    trace end as a censored completion.
    """
    if not -100.0 < threshold < -30.0:
        raise ValueError("threshold must lie inside the physical RSSI range")
    rssi = trace.serving_rssi()
    cut = threshold - hysteresis
    first_below = None
    for i, value in enumerate(rssi):
        if value < cut:
            if first_below is None:
                first_below = trace.sec_t[i]
            if trace.sec_t[i] - first_below >= dwell:
                return float(trace.sec_t[i] + assoc_delay), False
        else:
            first_below = None
    return float(trace.duration), True


def tts(switch_completion: float, degradation_onset: float,
        floor: float = -5.0) -> float:
    """Time-to-switch, clamped below at the configured pre-emption floor."""
    if switch_completion < 0.0 or degradation_onset < 0.0:
        raise ValueError("times must be nonnegative")
    return max(floor, switch_completion - degradation_onset)


def rollback_occurred(trace: RawTrace, completion: float,
                      usable_dbm: float = -105.0, dwell: float = 2.0) -> bool:
    """True when the new (cellular) link sits below usability for >= dwell s."""
    start = int(math.ceil(completion))
    run = 0
    for i in range(start, len(trace.sec_t)):
        if trace.rsrp[i] < usable_dbm:
            run += 1
            if run >= dwell:
                return True
        else:
            run = 0
    return False


def feedback_oracle(completion: float, trace: RawTrace,
                    reward_cfg: RewardConfig | None = None) -> float:
    """Simulated human feedback in [-1, 1] for a switch completed at
    ``completion``.

    +1 inside [onset - early, onset + late] around the trace's degradation
    onset; -1 on a rollback; otherwise a linear taper away from the window,
    floored at -1.  Deterministic.
    """
    cfg = reward_cfg or RewardConfig()
    onset = trace.degradation_onset
    if rollback_occurred(trace, completion, cfg.rollback_usable_dbm,
                         cfg.rollback_dwell_s):
        return -1.0
    lo = onset - cfg.hf_window_early_s
    hi = onset + cfg.hf_window_late_s
    if lo <= completion <= hi:
        return 1.0
    if completion < lo:
        return float(max(-1.0, 1.0 - cfg.hf_taper_early_per_s * (lo - completion)))
    return float(max(-1.0, 1.0 - cfg.hf_taper_per_s * (completion - hi)))


# ---------------------------------------------------------------------------
# trace -> fingerprint windows
# ---------------------------------------------------------------------------


def fingerprint_at(trace: RawTrace, t_end: float, cfg: EngineConfig,
                   scan_times=None) -> Fingerprint:
    """Summarize the window [t_end - cfg.window.window_s, t_end).

    ``scan_times`` restricts WiFi scans to a device schedule; None means
    every per-second sample is visible.  When the schedule leaves the window
    without a WiFi scan, the freshest earlier scan inside the staleness
    budget is carried over with decayed quality; beyond the budget WiFi is
    marked absent.

    The result is memoized on the trace, keyed on everything the window
    reads: t_end, the window length, the staleness budget, the
    normalization, the scans inside the window and, when there are none,
    the latest earlier scan.
    """
    window_s, stale = cfg.window.window_s, cfg.device.wifi_stale_s
    t_start = t_end - window_s
    lo, hi = np.searchsorted(trace.sec_t, (t_start, t_end)).tolist()
    scans = carried = None
    if scan_times is not None:
        scans = tuple(i for i in range(lo, hi)
                      if float(trace.sec_t[i]) in scan_times)
        if not scans:
            carried = max((s for s in scan_times if s < t_start), default=None)
    # one memo per normalization, so its key is held once, not per window
    affine = cfg.norm.affine(FEATURE_NAMES)
    memo = trace._windows.setdefault(affine, {})
    key = (t_end, window_s, stale, scans, carried)
    fp = memo.get(key)
    if fp is None:
        fp = memo[key] = _summarize_trace_window(
            trace, t_start, t_end, (lo, hi), scans, carried, stale, affine)
    return fp


def _summarize_trace_window(trace, t_start, t_end, sec_span, scans, carried,
                            stale, affine):
    """``fingerprint_at`` on a memo miss, from slices of the trace's arrays;
    ``sec_span`` is the window's [lo, hi) range of seconds."""
    lo, hi = sec_span
    lo_t, hi_t = np.searchsorted(trace.tick_t, (t_start, t_end)).tolist()
    lo_s, hi_s = np.searchsorted(trace.step_times, (t_start, t_end)).tolist()
    raw = {
        "pdr": pdr_summary(hi_s - lo_s, t_end - t_start,
                           trace.headings[lo_t:hi_t]),
        "wifi": (0.0, 0.0, 0.0), "cell": (0.0, 0.0, 0.0),
        "gnss": (0.0, 0.0, 0.0),
        "time": time_summary(trace.scenario.start_hour + t_start / 3600.0),
    }
    secs = list(range(lo, hi)) if scans is None else list(scans)
    times = trace.sec_t[secs]
    wifi_quality = 1.0
    if carried is not None:
        age = t_end - carried
        if age <= stale and 0 <= int(carried) < len(trace.sec_t):
            secs, times = [int(carried)], [carried]
            wifi_quality = max(0.0, 1.0 - age / stale)
    if secs:
        means, strongest, bssids = trace.wifi_summaries()
        raw["wifi"] = wifi_summary(means[secs], strongest[secs],
                                   [bssids[i] for i in secs], times)
    if hi > lo:
        raw["cell"] = cell_summary(trace.rsrp[lo:hi], trace.rsrq[lo:hi],
                                   trace.cell_id[lo:hi])
        raw["gnss"] = gnss_summary(trace.gnss_snr[lo:hi],
                                   trace.gnss_sats[lo:hi],
                                   trace.gnss_fix[lo:hi])
    present = {"pdr": True, "wifi": bool(secs), "cell": hi > lo,
               "gnss": hi > lo, "time": True}
    quality = {"wifi": wifi_quality if secs else 0.0}
    return assemble_fingerprint(0.5 * (t_start + t_end), raw, present,
                                quality, affine)


def segment_before(trace: RawTrace, t_event: float,
                   cfg: EngineConfig) -> FingerprintSequence:
    """The pre-switch buffer: ``cfg.window.buffer_windows`` windows ending at
    t_event."""
    n = cfg.window.buffer_windows
    t0 = max(0.0, t_event - n * cfg.window.window_s)
    windows = []
    t = t0 + cfg.window.window_s
    while t <= t_event + 1e-9:
        windows.append(fingerprint_at(trace, t, cfg))
        t += cfg.window.window_s
    return FingerprintSequence(windows)


def detect_outdoor_transition(trace: RawTrace, cfg: EngineConfig) -> float | None:
    """The first second where all three exit conditions hold, or None.

    (a) continuous high-confidence GNSS, (b) WiFi weak or sharply decaying
    within 5 s, (c) PDR motion consistent with a door exit.
    """
    rssi = trace.serving_rssi()
    outdoor = [z in trace.scenario.outdoor_zones for z in trace.sec_zone]
    for i in range(len(trace.sec_t)):
        t = float(trace.sec_t[i])
        gnss_ok = i >= 1 and bool(trace.gnss_fix[i]) and bool(trace.gnss_fix[i - 1])
        wifi_decay = bool(rssi[i] < -75.0
                          or (i >= 5 and rssi[i] - rssi[i - 5] <= -8.0))
        pdr_exit = bool(outdoor[i] and trace.door_time is not None
                        and 0.0 <= t - trace.door_time <= 5.0)
        if gnss_ok and wifi_decay and pdr_exit:
            return t
    return None


# ---------------------------------------------------------------------------
# ground-truth sidecar
# ---------------------------------------------------------------------------


def truth_text(trace: RawTrace) -> str:
    lines = [
        f"degradation_onset = {fmt(trace.degradation_onset)}",
        f"door_time = {fmt(trace.door_time) if trace.door_time is not None else 'none'}",
        "zone_transitions = " + ";".join(
            f"{fmt(t)}:{a}>{b}" for t, a, b in trace.zone_transitions),
    ]
    return "\n".join(lines) + "\n"


def scenario_text(s: Scenario) -> str:
    lines = [
        f"site = {s.site}",
        f"seed = {s.seed}",
        f"duration = {fmt(s.duration)}",
    ]
    for ax, ay, tx in s.ap_placements:
        lines.append(f"ap = {fmt(ax)},{fmt(ay)},{fmt(tx)}")
    for w in s.waypoints:
        lines.append(f"waypoint = {fmt(w.x)},{fmt(w.y)},{w.zone}")
    return "\n".join(lines) + "\n"
