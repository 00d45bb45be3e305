"""Build a personalized fingerprint library from one simulated day.

Walks through the passive-collection side: a simulated indoor session is
windowed into multi-modal fingerprints, the 10 s before the switch becomes a
library prototype, a commit past the library's capacity evicts its oldest
prototype, and the summary text of one episode matched against the library
shows what (and only what) would ever leave the device.
"""

from dataclasses import replace

from envswitch.alignment import MetricModel
from envswitch.cloudedge import summarize_trajectory
from envswitch.config import EngineConfig
from envswitch.filters import SelectorModel
from envswitch.fingerprints import FEATURE_NAMES, FingerprintLibrary, SwitchEvent
from envswitch.policy import MatcherStack, ScriptedPolicy, rollout, trigger_guide
from envswitch.sim import baseline_policy, generate, make_scenario, segment_before

cfg = EngineConfig()

# One office-indoor session: the user walks from their desk toward a far
# wing, WiFi decays, the baseline heuristic eventually switches to cellular.
scenario = make_scenario("A", seed=7, radio=cfg.radio, walker=cfg.walker)
trace = generate(scenario, cfg.radio, cfg.walker)
completion, censored = baseline_policy(
    trace, cfg.baseline.threshold_dbm, cfg.baseline.hysteresis_db,
    cfg.baseline.dwell_s, cfg.baseline.assoc_delay_s)
print(f"degradation onset at {trace.degradation_onset:6.2f} s")
print(f"baseline switch completes at {completion:6.2f} s (censored={censored})")

# The pre-switch buffer: ten 1 s windows, each a 14-feature fingerprint
buffer = segment_before(trace, completion, cfg)
features, _ = buffer.packed()
print(f"\npre-switch buffer: {features.shape[0]} windows x {features.shape[1]} features")
mid = buffer.windows[5]
print("one window, feature by feature:")
for name, value, in zip(FEATURE_NAMES, mid.features):
    print(f"  {name:20s} {value:+.3f}")
print(f"  presence mask        {mid.present.astype(int)}")

# Commit the segment into a library of capacity 2 (the pipeline keeps 24 per
# site): a commit past the capacity evicts the oldest prototype
library = FingerprintLibrary(replace(cfg.library, capacity=2))
event = SwitchEvent(buffer.windows[-1].timestamp, "wifi_to_cell")
pid = library.commit_segment(buffer, event, created_day=0)
print(f"\ncommitted prototype {pid} (library size {len(library)})")

for day in range(1, 4):
    sc = make_scenario("A", seed=7 + day, radio=cfg.radio, walker=cfg.walker)
    tr = generate(sc, cfg.radio, cfg.walker)
    comp, cens = baseline_policy(tr, cfg.baseline.threshold_dbm,
                                 cfg.baseline.hysteresis_db,
                                 cfg.baseline.dwell_s,
                                 cfg.baseline.assoc_delay_s)
    if not cens:
        buf = segment_before(tr, comp, cfg)
        library.commit_segment(buf, SwitchEvent(buf.windows[-1].timestamp,
                                                "wifi_to_cell"), created_day=day)
print(f"after three more days: {len(library)} prototypes, "
      f"day 0's evicted: {pid not in library.sequences}")

# What leaves the device: the trigger rule drives one new session against the
# library, and the episode ships one text, a salted hash of the edge id and
# the quantized last step with its feedback and its step index
stack = MatcherStack(selector=SelectorModel.zeros(), metric=MetricModel.identity(),
                     library=library, band=cfg.match.band, cfg=cfg)
sc = make_scenario("A", seed=11, radio=cfg.radio, walker=cfg.walker)
traj = rollout(ScriptedPolicy(trigger_guide(cfg)), sc, stack,
               trace=generate(sc, cfg.radio, cfg.walker))
print("\nshipped summary text (the only exportable view):")
print(summarize_trajectory(traj, "edge-A", cfg.library.salt), end="")
