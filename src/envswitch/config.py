"""Configuration objects and the key-value text config format.

Every tunable constant in the library lives here rather than inline in the
numeric code: feature normalization spans, the radio propagation model, the
threshold+hysteresis baseline, reward weights, PPO hyperparameters, and the
cloud-edge round schedule.  A flat ``section.key = value`` text file can
override any field, e.g.::

    # run.cfg
    radio.wall_db = 6.0
    baseline.threshold_dbm = -72
    reward.eta = 1.0

Lines starting with ``#`` and blank lines are ignored.
"""

import dataclasses
import math
from dataclasses import dataclass, field


def _require(section: str, cfg, key: str, ok: bool, want: str):
    """Refuse the value of ``section.key`` unless ``ok``, naming the key and
    what it must be, so that a value that would hang the pipeline, fill its
    models with NaN or fail only mid-run is refused when it is read."""
    if not ok:
        raise ValueError(f"config key '{section}.{key}' must be {want}, "
                         f"got {getattr(cfg, key)!r}")


@dataclass
class WindowConfig:
    """Windowing of raw streams into fingerprints."""

    window_s: float = 1.0          # one summary window per second
    buffer_windows: int = 10       # pre-switch buffer length (10 s at 1 s windows)

    def __post_init__(self):
        _require("window", self, "window_s", self.window_s > 0, "> 0")


@dataclass
class NormalizationConfig:
    """Per-feature affine maps onto roughly [-1, 1].

    A raw value ``x`` normalizes to ``(x - center) / halfspan``.  Bounds are
    chosen from the physical ranges of each signal (RSSI in [-100, -30] dBm,
    RSRP in [-120, -60] dBm, and so on).
    """

    bounds: dict = field(default_factory=lambda: {
        "pdr_step_rate": (0.0, 3.0),
        "pdr_heading_change": (-3.141592653589793, 3.141592653589793),
        "pdr_stop_flag": (0.0, 1.0),
        "wifi_topk_mean": (-100.0, -30.0),
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
    })

    def affine(self, names) -> tuple:
        """(centers, halfspans) of the features ``names``, as two tuples:
        a raw value ``x`` normalizes to ``(x - center) / halfspan``."""
        bounds = [self.bounds[name] for name in names]
        return (tuple([0.5 * (lo + hi) for lo, hi in bounds]),
                tuple([0.5 * (hi - lo) for lo, hi in bounds]))


@dataclass
class LibraryConfig:
    retention_days: int = 14       # rolling retention, ~2 weeks
    capacity: int = 24             # prototypes kept per site library
    salt: str = "edge-default"     # per-user salt for identifier hashing


@dataclass
class FilterConfig:
    """Legal ranges for denoiser coefficients (selector outputs squash here)."""

    q_range: tuple = (0.0, 1.0)
    r_range: tuple = (0.01, 10.0)
    sigma_range: tuple = (0.1, 3.0)
    alpha_range: tuple = (0.05, 1.0)
    hidden: int = 16               # selector network width


@dataclass
class MatchConfig:
    band: int = 3                  # Sakoe-Chiba band width in windows
    embed_dim: int = 4             # per-modality linear embedding output dim
    margin: float = 1.0
    gamma_soft: float = 0.1        # soft-min smoothing used during training
    negatives_per_positive: int = 4


@dataclass
class RadioConfig:
    """Log-distance path loss with per-zone wall attenuation and shadowing."""

    pl0_db: float = 40.0           # loss at 1 m
    exponent_indoor: float = 2.2
    exponent_outdoor: float = 2.0
    wall_db: float = 8.0           # penalty per wall between AP and user
    rssi_floor_dbm: float = -100.0
    rssi_ceil_dbm: float = -30.0


@dataclass
class WalkerConfig:
    speed_mps: float = 1.2
    pause_s: float = 0.5           # stop at each turn waypoint
    stride_m: float = 0.7
    tick_hz: float = 10.0


@dataclass
class BaselineConfig:
    """Threshold + hysteresis + dwell heuristic."""

    threshold_dbm: float = -75.0
    hysteresis_db: float = 5.0
    dwell_s: float = 3.0
    assoc_delay_s: float = 2.0


@dataclass
class RewardConfig:
    """Composite reward R = eta*dtime + lam*sim + gamma_hf*hf."""

    eta: float = 1.0
    lam: float = 0.5
    gamma_hf: float = 2.0
    # Simulated-feedback shape: +1 inside [onset - early, onset + late],
    # then a linear taper per second outside, floored at -1.  The early side
    # tapers faster: premature switches annoy more than slightly late ones.
    hf_window_early_s: float = 2.0
    hf_window_late_s: float = 3.0
    hf_taper_per_s: float = 0.25
    hf_taper_early_per_s: float = 0.6
    # Rollback: after a switch the new link must stay usable; below this level
    # for >= rollback_dwell_s counts as a rollback (feedback -1).
    rollback_usable_dbm: float = -105.0
    rollback_dwell_s: float = 2.0
    # Reported TTS floor vs the tighter floor used inside the reward, which
    # keeps "switch absurdly early" from ever being reward-positive.
    tts_report_floor_s: float = -5.0
    tts_reward_floor_s: float = -2.0
    tau: float = 0.55              # similarity trigger for shaping / scripted policy
    shaping_bonus: float = 1.0
    # per-step credit for staying on a still-healthy link (RSSI at or above
    # the baseline threshold); leaving a good link early forfeits it
    healthy_link_bonus: float = 0.15

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
    gae_lambda: float = 0.95
    entropy_coef: float = 0.015
    value_coef: float = 0.5
    epochs: int = 6
    step_size: float = 0.01
    guide_eps: float = 0.5   # trigger-rule exploration mix during training
    hidden: int = 32

    def __post_init__(self):
        _require("ppo", self, "clip_eps", 0 < self.clip_eps < 1, "in (0, 1)")


@dataclass
class CloudEdgeConfig:
    n_rounds: int = 20
    distill_period: int = 2
    episodes_per_edge: int = 10
    hf_withheld_fraction: float = 0.3   # episodes whose direct feedback is missing
    reward_model_epochs: int = 40
    reward_model_step: float = 0.05
    state_quant: float = 0.01           # summary tuple quantization grid

    def __post_init__(self):
        for key in ("distill_period", "episodes_per_edge"):
            _require("cloudedge", self, key, getattr(self, key) >= 1, "at least 1")
        _require("cloudedge", self, "state_quant", self.state_quant > 0, "> 0")


@dataclass
class DeviceConfig:
    """On-device sampling behavior during a rollout."""

    scan_period_s: float = 2.0
    boosted_period_s: float = 1.0
    boost_duration_s: float = 10.0
    wifi_stale_s: float = 4.0           # scans older than this mark WiFi absent

    def __post_init__(self):
        _require("device", self, "scan_period_s", self.scan_period_s > 0, "> 0")
        _require("device", self, "boosted_period_s", self.boosted_period_s > 0, "> 0")


@dataclass
class EngineConfig:
    """Bundle of every sub-config; the single object most entry points take."""

    window: WindowConfig = field(default_factory=WindowConfig)
    norm: NormalizationConfig = field(default_factory=NormalizationConfig)
    library: LibraryConfig = field(default_factory=LibraryConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    walker: WalkerConfig = field(default_factory=WalkerConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    cloudedge: CloudEdgeConfig = field(default_factory=CloudEdgeConfig)
    device: DeviceConfig = field(default_factory=DeviceConfig)


_SECTIONS = frozenset(f.name for f in dataclasses.fields(EngineConfig))


def _coerce(dotted: str, current, text: str):
    """``text`` parsed as the type of the field's current value: a float
    must be finite, a tuple as long as the default; a field of any other
    type (``norm.bounds``, a dict) cannot be set from text."""
    if isinstance(current, int):
        return int(text)
    if isinstance(current, (float, tuple)):
        values = tuple(float(v) for v in text.split(","))
        want = len(current) if isinstance(current, tuple) else 1
        if len(values) != want:
            raise ValueError(f"config key {dotted!r} takes {want} comma-separated "
                             f"value(s), got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"config key {dotted!r} must be finite, got {text!r}")
        return values if isinstance(current, tuple) else values[0]
    if isinstance(current, str):
        return text.strip()
    raise ValueError(f"config key {dotted!r} holds a {type(current).__name__} "
                     "and cannot be overridden")


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
    """Load overrides from a key-value text file on top of defaults."""
    cfg = base if base is not None else EngineConfig()
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return apply_overrides(cfg, pairs)
