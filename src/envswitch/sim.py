"""Deterministic simulation of three site archetypes with synthetic signals.

Sites mirror common mobility patterns: A is a fully indoor office walk toward
a far wing, B exits an office front door onto an entrance apron, C leaves an
apartment building and continues outdoors.  WiFi follows a log-distance path
loss model with per-zone wall attenuation and lognormal shadowing; GNSS
reappears within seconds of a door crossing; PDR comes from a constant-speed
walker with pauses at turns.  Everything is a pure function of (scenario,
seed).  The per-second streams are whole-trace array passes that draw from
one generator in a fixed order: the (n_aps, n_secs) shadowing, then an
(RSRP, RSRQ) noise pair per second, then a GNSS (SNR, satellites) pair per
second; these are the values the same draws made one second at a time give.
The trace labels its degradation onset from its own noiseless per-second
RSSI, so each walk is simulated once.

The module also hosts the threshold+hysteresis baseline switch policy, the
time-to-switch metric, and the simulated human-feedback oracle.
"""

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from operator import ne

import numpy as np

from .config import (RSSI_RANGE_DBM, BaselineConfig, EngineConfig, RadioConfig,
                     WalkerConfig)
from .fingerprints import (Fingerprint, FingerprintSequence,
                           assemble_fingerprint, cell_summary, fnv1a64,
                           gnss_summary, pdr_summary, time_summary,
                           wifi_summary)
# unused here; bench/spans.py wraps this name
from .fingerprints import summarize_window
from .serialize import fmt

SITES = ("A_indoor", "B_door_egress", "C_apartment_mixed")
WINDOW_S = 1.0          # one fingerprint window per second
TICK_HZ = 10.0          # PDR ticks per second; every whole second is a tick
WIFI_STALE_S = 4.0      # a carried-over scan older than this marks WiFi absent
# The simulated human's feedback window and taper (see ``feedback_oracle``).
# The early side tapers faster: premature switches annoy more than slightly
# late ones.
HF_WINDOW_EARLY_S = 2.0
HF_WINDOW_LATE_S = 3.0
HF_TAPER_PER_S = 0.25
HF_TAPER_EARLY_PER_S = 0.6
SITE_SHORT = {"A": "A_indoor", "B": "B_door_egress", "C": "C_apartment_mixed"}


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    zone: str


@dataclass
class Scenario:
    """Everything needed to reproduce one session deterministically, with
    the serving RSSI whose downward crossing is its degradation onset."""

    site: str
    duration: float
    waypoints: tuple
    ap_placements: tuple          # ((x, y, tx_power_dbm), ...)
    onset_threshold_dbm: float
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
    return (np.column_stack((x, y)), list(map(zones.__getitem__, k.tolist())),
            moving, headings[k])


# ---------------------------------------------------------------------------
# radio
# ---------------------------------------------------------------------------


def _path_loss(scenario: Scenario, radio: RadioConfig, pos: np.ndarray,
               zones) -> np.ndarray:
    """Noiseless log-distance RSSI (n_aps, n) of every AP at positions ``pos``
    (n, 2) in ``zones``, clamped to ``RSSI_RANGE_DBM``.  ``hypot`` and
    ``log10`` are ``math``'s, per element: numpy's differ in the last bit."""
    outdoor = np.array([z in scenario.outdoor_zones for z in zones], dtype=bool)
    exponent = np.where(outdoor, radio.exponent_outdoor, radio.exponent_indoor)
    walls = np.array([scenario.zone_walls.get(z, 0.0) for z in zones], dtype=float)
    aps = np.array(scenario.ap_placements, dtype=float).reshape(-1, 3)
    d = list(map(math.hypot, (pos[:, 0] - aps[:, :1]).ravel().tolist(),
                 (pos[:, 1] - aps[:, 1:2]).ravel().tolist()))
    log_d = np.array(list(map(math.log10, np.maximum(d, 1.0).tolist())))
    log_d = log_d.reshape(len(aps), len(pos))
    rssi = aps[:, 2:] - radio.pl0_db - 10.0 * exponent * log_d \
        - walls * radio.wall_db
    return np.minimum(np.maximum(rssi, RSSI_RANGE_DBM[0]), RSSI_RANGE_DBM[1])


@dataclass
class RawTrace:
    """Per-tick PDR stream plus per-second radio/GNSS streams, and the
    degradation onset ``generate`` labels from the noiseless per-second RSSI.
    Of the simulator's zone labels it keeps only ``door_time`` and
    ``zone_transitions``, for the ground-truth sidecar.

    ``generate`` makes every array read-only: one trace is shared by every
    rollout of its scenario, and its checksum, WiFi summaries, stream lists
    and each window ``fingerprint_at`` builds from it are computed once.
    """

    scenario: Scenario
    tick_t: np.ndarray
    pos: np.ndarray               # (n_ticks, 2)
    headings: np.ndarray
    step_times: np.ndarray
    sec_t: np.ndarray
    bssids: tuple
    rssi_by_ap: np.ndarray        # (n_aps, n_secs) with shadowing
    cell_id: np.ndarray
    rsrp: np.ndarray
    rsrq: np.ndarray
    gnss_snr: np.ndarray
    gnss_sats: np.ndarray
    gnss_fix: np.ndarray
    door_time: float | None
    degradation_onset: float
    zone_transitions: list
    _checksum: str | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _wifi: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    _streams: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # fingerprint_at's memo: {(t_end, scans read): Fingerprint}
    _windows: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def duration(self) -> float:
        return self.scenario.duration

    def serving_rssi(self) -> np.ndarray:
        return self.rssi_by_ap.max(axis=0)

    def wifi_summaries(self):
        """Per-second summaries of the top-3 readings, computed once:
        (top-K means, strongest RSSIs, strongest BSSIDs).

        One stable sort down the AP axis picks each second's top 3, ties
        going to the lower AP index; among their strongest readings the
        smallest BSSID names the strongest AP, and the mean adds the
        readings in descending order."""
        if self._wifi is None:
            rssi = self.rssi_by_ap
            top = np.argsort(-rssi, axis=0, kind="stable")[:3]
            values = np.take_along_axis(rssi, top, axis=0)
            rank = np.argsort(np.argsort(self.bssids, kind="stable"))
            tied = np.where(values == values[0], rank[top], len(rank))
            strongest = top[tied.argmin(axis=0), np.arange(rssi.shape[1])]
            # the sum adds row by row: the readings in descending order
            self._wifi = (values.sum(axis=0) / len(values), values[0],
                          tuple(self.bssids[a] for a in strongest.tolist()))
        return self._wifi

    def streams(self):
        """step_times, sec_t and the cellular and GNSS streams as lists, made once."""
        if self._streams is None:
            self._streams = tuple(a.tolist() for a in (
                self.step_times, self.sec_t, self.rsrp, self.rsrq, self.cell_id,
                self.gnss_snr, self.gnss_sats, self.gnss_fix))
        return self._streams

    def checksum(self) -> str:
        """16 hex digits: an 8-byte BLAKE2b of the radio, GNSS and position
        arrays, computed once per trace."""
        if self._checksum is None:
            payload = (self.rssi_by_ap.tobytes() + self.rsrp.tobytes()
                       + self.gnss_snr.tobytes() + self.pos.tobytes())
            self._checksum = hashlib.blake2b(payload, digest_size=8).hexdigest()
        return self._checksum


def generate(scenario: Scenario, radio: RadioConfig | None = None,
             walker: WalkerConfig | None = None) -> RawTrace:
    """Synthesize the full multi-modal trace for one scenario, seeded.

    The degradation onset is the first time the noiseless serving RSSI (the
    strongest AP's, at whole seconds) crosses ``onset_threshold_dbm``
    heading down, interpolated linearly between the seconds around it.  A
    walk that never crosses it, or crosses it at 0, is refused."""
    scenario.validate()
    radio = radio or RadioConfig()
    walker = walker or WalkerConfig()
    rng = np.random.default_rng(scenario.seed)

    n_ticks = int(round(scenario.duration * TICK_HZ))
    tick_t = np.arange(n_ticks) / TICK_HZ
    pos, tick_zone, moving, headings = _kinematics(scenario, tick_t)

    # step events from a constant cadence while moving
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
    sec_zone = list(map(tick_zone.__getitem__, sec_idx.tolist()))
    outdoor = np.array([z in scenario.outdoor_zones for z in sec_zone], dtype=bool)

    # the ticks whose zone differs from the tick before
    changes = compress(range(1, n_ticks), map(ne, tick_zone[1:], tick_zone))
    zone_transitions = [(float(tick_t[i]), tick_zone[i - 1], tick_zone[i])
                        for i in changes]
    door_time = next((t for t, a, b in zone_transitions
                      if b in scenario.outdoor_zones
                      and a not in scenario.outdoor_zones), None)

    noiseless_by_ap = _path_loss(scenario, radio, pos[sec_idx], sec_zone)
    best, threshold = noiseless_by_ap.max(axis=0), scenario.onset_threshold_dbm
    down = np.flatnonzero((best[:-1] >= threshold) & (threshold > best[1:]))
    if not len(down):
        raise ValueError(f"{scenario.site} seed {scenario.seed}: "
                         "degradation never reaches threshold")
    prev, now = best[down[0]:down[0] + 2].tolist()
    onset = float(sec_t[down[0]] + (prev - threshold) / (prev - now))
    if not 0.0 < onset < scenario.duration:
        raise ValueError("degradation onset must lie inside the session")

    shadow = rng.normal(0.0, scenario.shadow_sigma_db, size=noiseless_by_ap.shape)
    rssi_by_ap = np.minimum(np.maximum(noiseless_by_ap + shadow,
                                       RSSI_RANGE_DBM[0]), RSSI_RANGE_DBM[1])
    bssids = tuple(_bssid(scenario.seed, a) for a in range(len(rssi_by_ap)))

    cell_id = np.full(n_secs, 501, dtype=int)
    cell_noise = rng.normal(0.0, (1.0, 0.8), size=(n_secs, 2))
    base = np.where(outdoor, scenario.cell_rsrp_outdoor, scenario.cell_rsrp_indoor)
    swing = np.array(list(map(math.sin, (sec_t / 30.0).tolist())))
    rsrp = base + 1.5 * swing + cell_noise[:, 0]
    rsrq = -10.0 + cell_noise[:, 1]

    # GNSS ramps up over 5 s from gnss_clear_delay_s after the door
    ramp = np.zeros(n_secs)
    if door_time is not None:
        clear = door_time + scenario.gnss_clear_delay_s
        ramp[outdoor] = np.minimum(np.maximum((sec_t[outdoor] - clear) / 5.0,
                                              0.0), 1.0)
    gnss_noise = rng.normal(0.0, (1.5, 0.8), size=(n_secs, 2))
    gnss_snr = np.maximum(0.0, 4.0 + 28.0 * ramp + gnss_noise[:, 0])
    gnss_sats = np.maximum(0.0, 2.5 + 9.5 * ramp + gnss_noise[:, 1])
    gnss_fix = ramp >= 0.6

    arrays = (tick_t, pos, headings, step_times, sec_t, rssi_by_ap, cell_id,
              rsrp, rsrq, gnss_snr, gnss_sats, gnss_fix)
    for a in arrays:
        a.flags.writeable = False
    return RawTrace(
        scenario=scenario, tick_t=tick_t, pos=pos, headings=headings,
        step_times=step_times, sec_t=sec_t, bssids=bssids,
        rssi_by_ap=rssi_by_ap, cell_id=cell_id, rsrp=rsrp, rsrq=rsrq,
        gnss_snr=gnss_snr, gnss_sats=gnss_sats, gnss_fix=gnss_fix,
        door_time=door_time, degradation_onset=onset,
        zone_transitions=zone_transitions,
    )


def _bssid(seed: int, ap_index: int) -> str:
    h = fnv1a64(f"{seed}:{ap_index}", "bssid")
    octets = [(h >> (8 * k)) & 0xFF for k in range(5)]
    return "02:" + ":".join(f"{o:02x}" for o in octets)


# ---------------------------------------------------------------------------
# site builders
# ---------------------------------------------------------------------------


def _jitter_waypoints(wps, rng, amount: float):
    """Every waypoint but the first, moved by a uniform (x, y) offset; the
    offsets are one draw, x before y, waypoint after waypoint."""
    offsets = rng.uniform(-amount, amount, size=(len(wps) - 1, 2)).tolist()
    return wps[:1] + tuple(Waypoint(w.x + dx, w.y + dy, w.zone)
                           for w, (dx, dy) in zip(wps[1:], offsets))


def make_scenario(site: str, seed: int, radio: RadioConfig | None = None,
                  walker: WalkerConfig | None = None,
                  baseline: BaselineConfig | None = None) -> Scenario:
    """Deterministic per-seed scenario for a site archetype, whose trace
    labels its degradation onset where the noiseless RSSI crosses
    ``baseline.threshold_dbm``.  ``radio`` is unread: ``generate`` takes
    the radio model."""
    site = SITE_SHORT.get(site, site)
    walker = walker or WalkerConfig()
    baseline = baseline or BaselineConfig()
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
            onset_threshold_dbm=baseline.threshold_dbm, seed=seed,
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
            onset_threshold_dbm=baseline.threshold_dbm, seed=seed,
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
            onset_threshold_dbm=baseline.threshold_dbm, seed=seed,
            zone_walls={"apartment": 0.0, "corridor": 1.0, "stairwell": 2.0,
                        "courtyard": 4.0, "street": 4.0},
            outdoor_zones=frozenset({"courtyard", "street"}), speed_mps=speed,
            pause_s=walker.pause_s, shadow_sigma_db=2.0,
        )
    else:
        raise ValueError(f"unknown site: {site!r}")

    scenario.validate()
    return scenario


# ---------------------------------------------------------------------------
# baseline policy, TTS, feedback
# ---------------------------------------------------------------------------


def baseline_policy(trace: RawTrace, threshold: float, hysteresis: float,
                    dwell: float, assoc_delay: float):
    """Switch after RSSI stays below threshold - hysteresis for dwell seconds.

    Returns (completion_time, censored).  Never-triggered sessions report the
    trace end as a censored completion.
    """
    if not RSSI_RANGE_DBM[0] < threshold < RSSI_RANGE_DBM[1]:
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
        floor: float) -> float:
    """Time-to-switch, clamped below at the pre-emption ``floor``."""
    if switch_completion < 0.0 or degradation_onset < 0.0:
        raise ValueError("times must be nonnegative")
    return max(floor, switch_completion - degradation_onset)


def feedback_oracle(completion: float, trace: RawTrace) -> float:
    """Simulated human feedback in [-1, 1] for a switch completed at
    ``completion``.

    +1 inside [onset - ``HF_WINDOW_EARLY_S``, onset + ``HF_WINDOW_LATE_S``]
    around the trace's degradation onset; otherwise a linear taper away from
    the window (``HF_TAPER_EARLY_PER_S`` before it, ``HF_TAPER_PER_S`` after
    it), floored at -1.  Deterministic.
    """
    onset = trace.degradation_onset
    lo = onset - HF_WINDOW_EARLY_S
    hi = onset + HF_WINDOW_LATE_S
    if lo <= completion <= hi:
        return 1.0
    if completion < lo:
        return float(max(-1.0, 1.0 - HF_TAPER_EARLY_PER_S * (lo - completion)))
    return float(max(-1.0, 1.0 - HF_TAPER_PER_S * (completion - hi)))


# ---------------------------------------------------------------------------
# trace -> fingerprint windows
# ---------------------------------------------------------------------------


def fingerprint_at(trace: RawTrace, t_end: float, scan_times) -> Fingerprint:
    """Summarize the window [t_end - WINDOW_S, t_end) under the ascending
    WiFi scan schedule ``scan_times``; ``range(len(trace.sec_t))`` scans
    every second.  A scan at time s reads second ``int(s)``.  A window
    without a scan carries the freshest earlier one over while it is at
    most ``WIFI_STALE_S`` old, marking WiFi present, and otherwise marks
    WiFi absent; both are found by bisecting the schedule.  A window ending
    after the trace's last second raises ValueError.

    The result is memoized on the trace, keyed on what the window reads
    that can vary: t_end and the scans it reads, by value, so schedules that
    agree on them share the entry.  A miss slices the trace's ``streams``.
    """
    if t_end > len(trace.sec_t):
        raise ValueError(f"window end t_end = {t_end} is after the trace's {len(trace.sec_t)} s")
    t_start = t_end - WINDOW_S
    # the schedule's scans in [t_start, t_end) are scan_times[a:b]
    a = bisect_left(scan_times, t_start)
    scans = tuple(s for s in scan_times[a:bisect_left(scan_times, t_end, a)] if int(s) >= 0)
    if (not scans and a and t_end - scan_times[a - 1] <= WIFI_STALE_S
            and int(scan_times[a - 1]) >= 0):
        scans = (scan_times[a - 1],)
    key = (t_end, scans)
    fp = trace._windows.get(key)
    if fp is None:
        fp = trace._windows[key] = _summarize_trace_window(trace, t_start, t_end, scans)
    return fp


def _summarize_trace_window(trace, t_start, t_end, scans):
    """``fingerprint_at`` on a memo miss, from the trace's ``streams``."""
    step_times, sec_t, *seconds = trace.streams()
    lo, hi = trace.tick_t.searchsorted((t_start, t_end)).tolist()
    raw = {
        "pdr": pdr_summary(bisect_left(step_times, t_end) - bisect_left(step_times, t_start),
                           t_end - t_start, trace.headings[lo:hi]),
        "wifi": (0.0,) * 3, "cell": (0.0,) * 3, "gnss": (0.0,) * 3,
        "time": time_summary(trace.scenario.start_hour + t_start / 3600.0),
    }
    if scans:
        secs = [int(s) for s in scans]
        means, strongest, bssids = trace.wifi_summaries()
        # Python floats read one by one: a window holds a scan or two
        raw["wifi"] = wifi_summary([means.item(i) for i in secs],
                                   [strongest.item(i) for i in secs],
                                   [bssids[i] for i in secs], scans)
    lo, hi = bisect_left(sec_t, t_start), bisect_left(sec_t, t_end)
    if hi > lo:
        raw["cell"] = cell_summary(*(s[lo:hi] for s in seconds[:3]))
        raw["gnss"] = gnss_summary(*(s[lo:hi] for s in seconds[3:]))
    present = {"pdr": True, "wifi": bool(scans), "cell": hi > lo,
               "gnss": hi > lo, "time": True}
    return assemble_fingerprint(0.5 * (t_start + t_end), raw, present)


def segment_before(trace: RawTrace, t_event: float,
                   cfg: EngineConfig) -> FingerprintSequence:
    """The pre-switch buffer: the n = ``cfg.window.buffer_windows`` windows
    ending at ``t_event - (n - k) * WINDOW_S`` for k = 1 .. n, the last
    exactly at t_event.  An event before ``n * WINDOW_S`` keeps the windows
    from 0 instead, ending at ``k * WINDOW_S`` (``cli.trace_to_sequence``'s
    grid) up to t_event.  Each end is computed from its index, so no
    rounding accumulates, and each window scans every second."""
    n = cfg.window.buffer_windows
    if t_event >= n * WINDOW_S:
        ends = [t_event - (n - k) * WINDOW_S for k in range(1, n + 1)]
    else:
        ends = [k * WINDOW_S for k in range(1, n + 1)
                if k * WINDOW_S <= t_event + 1e-9]
    return FingerprintSequence(fingerprint_at(trace, t, range(len(trace.sec_t))) for t in ends)


def detect_outdoor_transition(trace: RawTrace, cfg: EngineConfig) -> float | None:
    """The first second where both exit conditions hold, or None.

    (a) GNSS fixes in this second and the one before, and (b) WiFi weak
    (below ``cfg.baseline.threshold_dbm``, the level ``trigger_guide`` calls
    weak) or sharply decaying within 5 s.  A device observes both.
    """
    rssi = trace.serving_rssi()
    for i in range(1, len(trace.sec_t)):
        gnss_ok = bool(trace.gnss_fix[i]) and bool(trace.gnss_fix[i - 1])
        wifi_decay = bool(rssi[i] < cfg.baseline.threshold_dbm
                          or (i >= 5 and rssi[i] - rssi[i - 5] <= -8.0))
        if gnss_ok and wifi_decay:
            return float(trace.sec_t[i])
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
