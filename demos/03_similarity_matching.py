"""Learned-metric alignment: similarity rising ahead of a handover.

Builds a small library from simulated switch-anchored segments, trains the
modality-weighted metric on switch-tag supervision, and then replays an
unseen session printing the match similarity second by second: near
zero on the early walk, climbing through the degradation onset.  This is
the anticipation signal the handover policy conditions on.
"""

import numpy as np

from envswitch.alignment import margin_loss_grads, train_metric, MetricModel
from envswitch.cli import build_site_library, build_training_pairs
from envswitch.config import EngineConfig
from envswitch.filters import SelectorModel
from envswitch.fingerprints import fnv1a64
from envswitch.policy import MatcherStack, ScriptedPolicy, rollout
from envswitch.sim import generate, make_scenario

cfg = EngineConfig()
seed = 13

libraries = {}
for flag in ("A", "B", "C"):
    seeds = [seed + 100 * {"A": 1, "B": 2, "C": 3}[flag] + k for k in range(6)]
    libraries[flag], _, _ = build_site_library(flag, seeds, cfg)
    print(f"site {flag}: {len(libraries[flag])} switch-anchored prototypes")

pairs = build_training_pairs(libraries, seed)


def mean_margin_loss(metric):
    return np.mean([margin_loss_grads(metric, pos, negs)[0] for pos, negs in pairs])


metric = MetricModel.from_seed(fnv1a64(f"metric:{seed}") % (2 ** 32))
print(f"\nmargin loss before training: {mean_margin_loss(metric):.3f}")
metric = train_metric(metric, pairs, epochs=25, step_size=0.15)
print(f"margin loss after training:  {mean_margin_loss(metric):.3f}")
print(f"modality weights (pdr, wifi, cell, gnss, time): "
      f"{np.round(metric.weights, 3)}")

# replay an unseen site-A session and watch the similarity climb
selector = SelectorModel.from_seed(fnv1a64(f"selector:{seed}") % (2 ** 32))
stack = MatcherStack(selector=selector, metric=metric,
                     library=libraries["A"], band=cfg.match.band, cfg=cfg)
scenario = make_scenario("A", seed + 10_000, cfg.radio, cfg.walker)
trace = generate(scenario, cfg.radio, cfg.walker)
traj = rollout(ScriptedPolicy(lambda t, s: "hold"), scenario, stack,
               trace=trace)

print(f"\nunseen session, onset at {trace.degradation_onset:.1f} s")
print("  t    similarity  (x = S, | marks onset)")
onset = int(round(trace.degradation_onset))
for step in range(0, traj.states.shape[0], 2):
    s = traj.states[step, 0]
    bar = "x" * int(round(40 * s))
    marker = " <- onset" if step + 1 == onset or step + 2 == onset else ""
    print(f" {step + 1:3d}   {s:0.3f}  {bar}{marker}")
