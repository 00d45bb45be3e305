"""End to end: train the full stack, then race it against the baseline.

Runs the complete pipeline at a reduced round count so it finishes in about
a minute: per-site libraries from baseline-anchored switches, metric and
selector training, trigger-rule pretraining, the cloud-edge rounds with the
simulated-feedback reward model and the distillation of the cloud policy
to every edge, and finally a held-out evaluation of that policy printing the
per-session TTS table for every site.

The production entry point is the CLI:

    envswitch train --seed 13 --out models
    envswitch evaluate --models models --out reports --sessions 20
"""

import numpy as np

from envswitch.cli import evaluate_site, render_table, train_models
from envswitch.config import EngineConfig

cfg = EngineConfig()
seed = 13

print("training (8 cloud-edge rounds for the demo; the CLI default is 20)...")
selector, metric, policy, reward_model, stacks, state, _ = \
    train_models(seed, cfg, rounds=8)

print("\nper-round mean composite reward:")
for i, value in enumerate(state.mean_rewards, 1):
    print(f"  round {i:2d}: {value:7.2f}")

SITE_NAMES = {"A": "A_indoor", "B": "B_door_egress", "C": "C_apartment_mixed"}
for flag in ("A", "B", "C"):
    reports, checksums = evaluate_site(flag, policy, stacks[flag],
                                       sessions=6, seed=seed, cfg=cfg)
    print()
    print(render_table(SITE_NAMES[flag], reports))
    print(f"  both policies saw identical traces: "
          f"{all(a == b for _, a, b in checksums)}")
