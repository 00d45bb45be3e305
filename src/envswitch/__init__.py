"""Survey-free environment recognition and proactive network handover.

The library builds a personalized multi-modal fingerprint library from
passively collected signals, matches live windows against it with an
adaptively filtered, learned-metric DTW, and trains a handover policy with
PPO on a composite reward that mixes transition-time improvement, matching
quality, and simulated human feedback, coordinated by a cloud-edge loop.
"""

__version__ = "0.1.0"
