"""Configuration objects and the key-value text config format.

A field holds what a run may vary: the radio propagation model, the
walker, the threshold+hysteresis baseline, the paper's three reward
weights, PPO hyperparameters, the cloud-edge round schedule, the library's
capacity and salt, the buffer length and the matcher's band.  A fixed
constant lives with the code that reads it instead: the device's sensing
schedule, the trigger threshold, the shaping weights, the TTS floors, the
GAE lambda and the policy width in ``policy``; the window length, the WiFi
staleness budget, the PDR tick rate and the simulated human's feedback
shape in ``sim``; the selector's coefficient boxes in ``filters``; the
guide's exploration mix and the summary quantization grid in
``cloudedge``; the matcher-training constants and the round count in
``cli``.  The signal ranges
``RSSI_RANGE_DBM`` and ``FEATURE_RANGES`` are module constants here, as
the simulator, the features and the policy all read them.  A flat
``section.key = value`` text file can override any field, e.g.::

    # run.cfg
    radio.wall_db = 6.0
    baseline.threshold_dbm = -72
    reward.eta = 1.0

Lines starting with ``#`` and blank lines are ignored.
"""

import dataclasses
import math
from dataclasses import dataclass, field


# The physical range of an RSSI reading in dBm: the radio clamps to it, the
# WiFi level feature is normalized over it, and the baseline's threshold
# lies inside it.
RSSI_RANGE_DBM = (-100.0, -30.0)

# The physical (lo, hi) range of each fingerprint feature; a raw value x
# normalizes to (x - center) / halfspan of its range, roughly onto [-1, 1].
FEATURE_RANGES = {
    "pdr_step_rate": (0.0, 3.0),
    "pdr_heading_change": (-math.pi, math.pi),
    "pdr_stop_flag": (0.0, 1.0),
    "wifi_topk_mean": RSSI_RANGE_DBM,
    "wifi_slope": (-10.0, 10.0),
    "wifi_churn": (0.0, 1.0),
    "cell_rsrp": (-120.0, -60.0),
    "cell_rsrq": (-20.0, 0.0),
    "cell_change": (0.0, 1.0),
    "gnss_snr": (0.0, 50.0),
    "gnss_sats": (0.0, 20.0),
    "gnss_fix": (0.0, 1.0),
    "time_sin": (-1.0, 1.0),
    "time_cos": (-1.0, 1.0),
}


def _require(section: str, cfg, key: str, ok: bool, want: str):
    """Refuse the value of ``section.key`` unless ``ok``, naming the key and
    what it must be, so that a value that would hang the pipeline, fill its
    models with NaN or fail only mid-run is refused when it is read."""
    if not ok:
        raise ValueError(f"config key '{section}.{key}' must be {want}, "
                         f"got {getattr(cfg, key)!r}")


@dataclass
class WindowConfig:
    """The pre-switch buffer of 1 s fingerprint windows."""

    buffer_windows: int = 10       # pre-switch buffer length (10 s at 1 s windows)

    def __post_init__(self):
        _require("window", self, "buffer_windows", self.buffer_windows >= 2,
                 "at least 2")


@dataclass
class LibraryConfig:
    capacity: int = 24             # prototypes kept per site library
    salt: str = "edge-default"     # per-user salt for identifier hashing

    def __post_init__(self):
        # training pairs prototypes within one library
        _require("library", self, "capacity", self.capacity >= 2, "at least 2")
        # an empty salt leaves the shipped edge hash an unsalted hash of the
        # device id, which anyone can recompute
        _require("library", self, "salt", self.salt.strip() != "", "non-blank")


@dataclass
class MatchConfig:
    band: int = 3                  # Sakoe-Chiba band width in windows

    def __post_init__(self):
        _require("match", self, "band", self.band >= 1, "at least 1")


@dataclass
class RadioConfig:
    """Log-distance path loss with per-zone wall attenuation and shadowing."""

    pl0_db: float = 40.0           # loss at 1 m
    exponent_indoor: float = 2.2
    exponent_outdoor: float = 2.0
    wall_db: float = 8.0           # penalty per wall between AP and user


@dataclass
class WalkerConfig:
    speed_mps: float = 1.2
    pause_s: float = 0.5           # stop at each turn waypoint
    stride_m: float = 0.7

    def __post_init__(self):
        for key in ("speed_mps", "stride_m"):
            _require("walker", self, key, getattr(self, key) > 0, "> 0")


@dataclass
class BaselineConfig:
    """Threshold + hysteresis + dwell heuristic."""

    threshold_dbm: float = -75.0
    hysteresis_db: float = 5.0
    dwell_s: float = 3.0
    assoc_delay_s: float = 2.0

    def __post_init__(self):
        lo, hi = RSSI_RANGE_DBM
        _require("baseline", self, "threshold_dbm",
                 lo < self.threshold_dbm < hi, f"in ({lo:g}, {hi:g})")


@dataclass
class RewardConfig:
    """The paper's three weights of the composite reward
    R = eta*dtime + lam*sim + gamma_hf*hf."""

    eta: float = 1.0
    lam: float = 0.5
    gamma_hf: float = 2.0

    def __post_init__(self):
        for key in ("eta", "lam", "gamma_hf"):
            _require("reward", self, key, getattr(self, key) >= 0, ">= 0")
        if self.eta == self.lam == self.gamma_hf == 0:
            raise ValueError("config keys 'reward.eta', 'reward.lam' and "
                             "'reward.gamma_hf' must not all be 0")


@dataclass
class PpoConfig:
    clip_eps: float = 0.15
    discount: float = 0.99
    entropy_coef: float = 0.015
    value_coef: float = 0.5
    epochs: int = 6
    step_size: float = 0.01

    def __post_init__(self):
        _require("ppo", self, "clip_eps", 0 < self.clip_eps < 1, "in (0, 1)")


@dataclass
class CloudEdgeConfig:
    distill_period: int = 2
    episodes_per_edge: int = 10
    hf_withheld_fraction: float = 0.3   # episodes whose direct feedback is missing
    reward_model_epochs: int = 40
    reward_model_step: float = 0.05

    def __post_init__(self):
        for key in ("distill_period", "episodes_per_edge"):
            _require("cloudedge", self, key, getattr(self, key) >= 1, "at least 1")


@dataclass
class EngineConfig:
    """Bundle of every sub-config; the single object most entry points take."""

    window: WindowConfig = field(default_factory=WindowConfig)
    library: LibraryConfig = field(default_factory=LibraryConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    walker: WalkerConfig = field(default_factory=WalkerConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    cloudedge: CloudEdgeConfig = field(default_factory=CloudEdgeConfig)


_SECTIONS = frozenset(f.name for f in dataclasses.fields(EngineConfig))


def _coerce(dotted: str, current, text: str):
    """``text`` parsed as the type of the field's current value, a float
    finite; a text that does not parse is refused, naming the key."""
    if isinstance(current, str):
        return text.strip()
    try:
        value = type(current)(text)
    except ValueError as e:
        raise ValueError(f"config key {dotted!r} takes {type(current).__name__} "
                         f"values: {e}") from None
    if not math.isfinite(value):
        raise ValueError(f"config key {dotted!r} must be finite, got {text!r}")
    return value


def apply_overrides(cfg: EngineConfig, pairs) -> EngineConfig:
    """Apply ``section.key -> value`` overrides to a copy of ``cfg``; each
    section is rebuilt, so its own checks see the value."""
    cfg = dataclasses.replace(cfg)
    for dotted, raw in pairs:
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS or not key:
            raise ValueError(f"unknown config key: {dotted!r}")
        sub = getattr(cfg, section)
        if not hasattr(sub, key):
            raise ValueError(f"unknown config key: {dotted!r}")
        value = _coerce(dotted, getattr(sub, key), raw)
        setattr(cfg, section, dataclasses.replace(sub, **{key: value}))
    return cfg


def load_config(path, base: EngineConfig | None = None) -> EngineConfig:
    """Load overrides from a key-value text file on top of defaults, one
    line at a time, so that an error names the file and line it came from."""
    cfg = base if base is not None else EngineConfig()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            try:
                if not eq:
                    raise ValueError("expected 'key = value'")
                cfg = apply_overrides(cfg, [(key.strip(), value.strip())])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return cfg
