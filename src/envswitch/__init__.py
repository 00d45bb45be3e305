"""Survey-free environment recognition and proactive network handover.

The library builds a personalized multi-modal fingerprint library from
passively collected signals, matches live windows against it with an
adaptively filtered, learned-metric DTW, and trains a handover policy with
PPO on a composite reward that mixes transition-time improvement, matching
quality, and simulated human feedback, coordinated by a cloud-edge loop.
"""

from .alignment import (AlignmentResult, BandTooNarrowError, MetricModel,
                        cell_cost, dtw, margin_loss, match, soft_dtw,
                        train_metric)
from .config import EngineConfig, load_config
from .fingerprints import (Fingerprint, FingerprintLibrary,
                           FingerprintSequence, RawWindow, SwitchEvent,
                           desensitize, summarize_window)
from .filters import (FilterChoice, FilterContext, SelectorModel,
                      apply_elp, apply_gaussian, apply_kalman, denoise,
                      select_filter, train_selector)
from .policy import (PolicyModel, PolicyState, RewardWeights, act,
                     ppo_update, rollout)
from .cloudedge import (EdgeAgent, RewardModel, RoundState, aggregate,
                        fit_reward_model, offline_update, run_round)
from .sim import (RawTrace, Scenario, baseline_policy, feedback_oracle,
                  generate, make_scenario, tts)

__version__ = "0.1.0"
