"""The three site archetypes and the threshold baseline they calibrate.

Generates sessions for the fully indoor office walk (A), the office door
egress (B), and the apartment indoor-to-outdoor transition (C), then prints
the baseline time-to-switch distribution per site and the C-specific exit
conditions (GNSS reappearing, WiFi decaying sharply, a door crossing in the
step pattern).
"""

from dataclasses import replace

import numpy as np

from envswitch.config import EngineConfig
from envswitch.policy import TTS_REPORT_FLOOR_S
from envswitch.sim import (baseline_policy, detect_outdoor_transition,
                           generate, make_scenario, tts)

cfg = EngineConfig()

for flag, blurb in (("A", "office indoor, walk to a far wing"),
                    ("B", "office door egress onto the entrance apron"),
                    ("C", "apartment corridor, then courtyard and street")):
    onsets, baselines = [], []
    for seed in range(12):
        scenario = make_scenario(flag, seed, cfg.radio, cfg.walker)
        trace = generate(scenario, cfg.radio, cfg.walker)
        completion, censored = baseline_policy(
            trace, cfg.baseline.threshold_dbm, cfg.baseline.hysteresis_db,
            cfg.baseline.dwell_s, cfg.baseline.assoc_delay_s)
        onsets.append(trace.degradation_onset)
        baselines.append(tts(completion, trace.degradation_onset,
                             TTS_REPORT_FLOOR_S)
                         if not censored else np.nan)
    arr = np.array(baselines)
    print(f"site {flag} ({blurb})")
    print(f"  degradation onset: {np.mean(onsets):5.1f} s on average")
    print(f"  baseline TTS     : mean {np.nanmean(arr):5.2f} s, "
          f"range [{np.nanmin(arr):.1f}, {np.nanmax(arr):.1f}], "
          f"censored {int(np.isnan(arr).sum())}/12\n")

# the site-C commit rule requires both exit conditions at once: two
# consecutive GNSS fixes and weak or sharply decaying WiFi
scenario = make_scenario("C", 3, cfg.radio, cfg.walker)
trace = generate(scenario, cfg.radio, cfg.walker)
t_detect = detect_outdoor_transition(trace, cfg)
print("site C exit detection:")
print(f"  door crossing at      {trace.door_time:5.1f} s")
print(f"  joint trigger at      {t_detect:5.1f} s")

# the strongest AP's RSSI without shadowing: the same walk, noiseless
serving = generate(replace(scenario, shadow_sigma_db=0.0), cfg.radio,
                   cfg.walker).serving_rssi()
d = int(trace.door_time)
print(f"  WiFi at door vs +5 s: {serving[d]:6.1f} -> {serving[d + 5]:6.1f} dBm "
      f"({serving[d] - serving[d + 5]:.1f} dB drop)")
print(f"  GNSS fix flag around the door: "
      f"{trace.gnss_fix[d - 2:d + 10].astype(int)}")
