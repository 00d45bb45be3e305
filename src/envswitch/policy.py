"""Edge decision policy: the switching world, its drivers, reward and PPO.

``SwitchEnv`` steps one walk at 1 Hz.  Its state holds the matcher's top
similarity, its short trend, the current radio state and pacing features,
and each second takes one of four actions: hold, raise the scan rate,
pre-associate a candidate link, or hand over.  ``rollout`` drives it with a
learned ``PolicyModel`` or a ``ScriptedPolicy`` such as the operational
trigger rule.  Training maximizes a composite reward mixing transition-time
improvement against the threshold baseline, matching quality, and simulated
human feedback.
"""

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import alignment
from .config import EngineConfig, PpoConfig, RewardConfig
from .filters import context_from_windows
from .fingerprints import (FEATURE_CENTERS, FEATURE_HALFSPANS, FEATURE_NAMES,
                           MODALITIES, N_FEATURES)
from .mlp import Adam, TwoLayerNet, softmax
from .serialize import dump_tensors, parse_tensors
from .sim import (RawTrace, baseline_policy, feedback_oracle, fingerprint_at,
                  tts)

ACTIONS = ("hold", "scan_boost", "pre_associate", "handover")
# the device's WiFi scan schedule: one scan per SCAN_PERIOD_S, or per
# BOOSTED_PERIOD_S for BOOST_DURATION_S after a scan_boost
SCAN_PERIOD_S = 2.0
BOOSTED_PERIOD_S = 1.0
BOOST_DURATION_S = 10.0
# the similarity at which the matcher counts as confident: the trigger rule
# fires on it, and the shaped reward hints toward acting on it
TAU = 0.55
SHAPING_BONUS = 1.0
# per-step credit for staying on a still-healthy link (RSSI at or above the
# baseline threshold); leaving a good link early forfeits it
HEALTHY_LINK_BONUS = 0.15
# the reported TTS floor and the tighter floor used inside the reward, which
# keeps "switch absurdly early" from ever being reward-positive
TTS_REPORT_FLOOR_S = -5.0
TTS_REWARD_FLOOR_S = -2.0
GAE_LAMBDA = 0.95
POLICY_HIDDEN = 32      # hidden width of the trained policy
N_ACTIONS = len(ACTIONS)
STATE_DIM = 7
_WIFI_LEVEL = FEATURE_NAMES.index("wifi_topk_mean")


@dataclass
class PolicyState:
    """One second's state: the 7 roughly unit-scaled policy features and the
    ``pre_associated`` flag, which the trigger rule reads and ``features()``
    leaves out (as an 8th policy feature it lost at most training seeds)."""

    similarity: float = 0.0       # top-1 match similarity in [0, 1]
    sim_trend: float = 0.0        # change over the last 3 windows
    rssi: float = 0.0             # normalize_rssi of the current RSSI
    gnss_fix: float = 0.0
    step_rate: float = 0.0
    scan_age: float = 0.0
    on_cell: float = 0.0          # current link: 0 WiFi, 1 cellular
    pre_associated: bool = False  # a candidate link is pre-associated

    def features(self) -> np.ndarray:
        v = (self.similarity, self.sim_trend, self.rssi, self.gnss_fix,
             self.step_rate, self.scan_age, self.on_cell)
        if not all(map(math.isfinite, v)):
            raise ValueError("policy state features must be finite")
        return np.array(v)


def normalize_rssi(dbm: float) -> float:
    """Serving RSSI in dBm as the policy's unit-scaled ``rssi`` feature, in
    the units of the fingerprints' WiFi level feature."""
    return (dbm - FEATURE_CENTERS[_WIFI_LEVEL]) / FEATURE_HALFSPANS[_WIFI_LEVEL]


@dataclass
class PolicyModel:
    """Small map from state features to 4 action logits plus a value head."""

    net: TwoLayerNet

    @classmethod
    def from_seed(cls, seed: int, hidden: int, n_inputs: int = STATE_DIM,
                  n_actions: int = N_ACTIONS) -> "PolicyModel":
        return cls(TwoLayerNet.from_seed(n_inputs, hidden, n_actions + 1, seed))

    @classmethod
    def zeros(cls, hidden: int, n_inputs: int = STATE_DIM,
              n_actions: int = N_ACTIONS) -> "PolicyModel":
        return cls(TwoLayerNet.zeros(n_inputs, hidden, n_actions + 1))

    @property
    def n_actions(self) -> int:
        return self.net.b2.size - 1

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("policy."))

    @classmethod
    def deserialize(cls, text: str) -> "PolicyModel":
        net = TwoLayerNet.from_tensors(parse_tensors(text), "policy.")
        if (net.w1.shape[1], len(net.b2)) != (STATE_DIM, N_ACTIONS + 1):
            raise ValueError(f"tensors policy.w1 {net.w1.shape} and policy.b2 {net.b2.shape} "
                             f"do not map {STATE_DIM} inputs to {N_ACTIONS + 1} outputs")
        return cls(net)


def act(model: PolicyModel, feats: np.ndarray, mode: str, rng=None,
        guide: int | None = None, guide_eps: float = 0.0):
    """Pick an action for one state's feature row (``PolicyState.features()``);
    returns (action_index, log_prob, value).

    ``sample`` draws from the softmax with the required ``rng``; ``greedy``
    takes the lowest-index argmax.  Deterministic given (model, feats, rng).
    With a ``guide`` action index, ``sample`` draws from the behaviour
    mixture (1 - guide_eps) * policy + guide_eps * onehot(guide) and returns
    the mixture's log-prob, so the PPO ratio stays a valid importance weight.
    A draw is ``rng.choice(n_actions, p=probs)`` computed as ``_draw`` does.
    ``act_rows`` samples many unguided rows in one pass.
    """
    out, _ = model.net.forward(feats)
    probs = softmax(out[:-1])
    if mode == "greedy":
        idx = int(probs.argmax())
    elif mode == "sample":
        if rng is None:
            raise ValueError("act samples with a generator; pass rng=")
        if guide is not None:
            probs = (1.0 - guide_eps) * probs
            probs[guide] += guide_eps
        idx = _draw(probs, rng)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return idx, float(np.log(probs[idx])), float(out[-1])


def act_rows(model: PolicyModel, feats: np.ndarray, rng):
    """``act(model, row, "sample", rng)`` for each row of ``feats`` (n, 7)
    in turn, in one pass; returns the (n,) arrays of action indices,
    log-probs and values, and leaves ``rng`` where that loop would.

    Bit for bit: the stacked forward ``(X[:, None, :] @ w1.T)[:, 0]``
    equals ``net.forward`` row by row (a plain ``X @ w1.T`` does not),
    ``mlp.softmax`` of the rows equals that of each row, and the draws are
    ``_draw_rows``'.
    """
    net = model.net
    x = np.asarray(feats, dtype=float)
    h = np.tanh((x[:, None, :] @ net.w1.T)[:, 0] + net.b1)
    out = (h[:, None, :] @ net.w2.T)[:, 0] + net.b2
    probs = softmax(out[:, :-1])
    idx = _draw_rows(probs, rng)
    return idx, np.log(probs[np.arange(len(x)), idx]), out[:, -1]


# numpy's tolerance on the sum of ``p`` in ``Generator.choice``
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _draw(probs: np.ndarray, rng) -> int:
    """``int(rng.choice(len(probs), p=probs))``, by numpy's own algorithm.

    The cumulative sum, divided by its last entry (``_cdf``), is searched
    (side "right") for one ``rng.random()``, so the result and the
    generator's state after the draw are those of ``choice``.  Before the
    draw, ``p`` gets ``choice``'s checks, and nothing is drawn if one fails.
    """
    return bisect_right(_cdf(probs.tolist()), rng.random())


def _draw_rows(probs: np.ndarray, rng) -> np.ndarray:
    """``_draw`` of each row of ``probs`` in turn, as an int array.

    Every row gets ``_draw``'s checks first, so a bad row raises what
    ``_draw`` raises and nothing is drawn; then one ``rng.random(n)``, which
    equals n calls of ``rng.random()``, is searched row by row.
    """
    cdfs = [_cdf(p) for p in probs.tolist()]
    return np.array(list(map(bisect_right, cdfs, rng.random(len(cdfs)).tolist())),
                    dtype=int)


def _cdf(p: list) -> list:
    """The normalized cumulative sum ``choice`` searches, after its checks
    on the same compensated sum of ``p``: a NaN sum, a negative entry or a
    sum more than sqrt(eps) from 1 raises ValueError."""
    total, carry = p[0], 0.0
    for q in p[1:]:
        y = q - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if min(p) < 0.0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _P_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = list(accumulate(p))
    return [c / cdf[-1] for c in cdf]


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------


def imitate(model: PolicyModel, states, actions, epochs: int,
            step_size: float) -> PolicyModel:
    """Cross-entropy imitation of (state, action) pairs; value head untouched.

    ``epochs`` full-batch Adam steps at ``step_size``.  Used to pre-train
    the deployable policy on the operational trigger rule before the online
    rounds adapt it.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=int)
    if states.shape[0] == 0:
        raise ValueError("empty imitation batch")
    net = model.net.copy()
    optimizer = Adam(net, lr=step_size)
    n = states.shape[0]
    n_actions = model.n_actions
    onehot = np.zeros((n, n_actions))
    onehot[np.arange(n), actions] = 1.0
    for _ in range(max(0, epochs)):
        out, cache = net.forward(states)
        probs = softmax(out[:, :n_actions])
        dlogits = (probs - onehot) / n
        dy = np.concatenate([dlogits, np.zeros((n, 1))], axis=1)
        grads = net.backward(cache, dy)
        net = optimizer.step(net, grads)
    return PolicyModel(net)


def clipped_surrogate(ratio, advantage, clip_eps: float):
    """PPO objective min(r*A, clip(r, 1-eps, 1+eps)*A), elementwise."""
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return np.minimum(ratio * advantage, clipped * advantage)


def gae_advantages(rewards, values, discount: float, lam: float):
    """Generalized advantage estimation over one episode (terminal value 0)."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    T = rewards.size
    adv = np.zeros(T)
    gae = 0.0
    for t in range(T - 1, -1, -1):
        next_value = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + discount * next_value - values[t]
        gae = delta + discount * lam * gae
        adv[t] = gae
    returns = adv + values
    return adv, returns


@dataclass
class Trajectory:
    """One episode of interaction, with terminal reward components split out.

    Training episodes run to the trace horizon, and their steps after the
    switch are inert: ``rollout`` fills them from one ``SwitchEnv.tail()``,
    byte for byte as a per-second loop would (their step rewards are 0, and
    a sampled policy's actions, log-probs and values come from
    ``act_rows``).  A ``greedy`` episode ends with its handover step.
    The terminal components (eta * dtime and gamma_hf * hf) attach at
    ``terminal_step``, the step where the switch completed (or the last
    step when censored or cut at the handover).
    """

    states: np.ndarray            # (T, state_dim)
    actions: np.ndarray           # (T,)
    log_probs: np.ndarray
    values: np.ndarray
    step_rewards: np.ndarray      # per-step lam*sim + shaping
    dtime: float = 0.0
    hf: float | None = None       # None when direct feedback was withheld
    completion: float = 0.0
    censored: bool = False
    action_time: float | None = None
    terminal_step: int = -1
    policy_tts: float = 0.0
    baseline_tts: float = 0.0
    trace_checksum: str = ""

    def rewards_with(self, reward: RewardConfig, hf_value: float) -> np.ndarray:
        r = self.step_rewards.copy()
        r[self.terminal_step] += reward.eta * self.dtime + reward.gamma_hf * hf_value
        return r

    def total_reward(self, reward: RewardConfig) -> float:
        """Summed reward, withheld feedback counting as 0."""
        return float(self.rewards_with(reward, 0.0 if self.hf is None else self.hf).sum())


def batch_advantages(batch, ppo: PpoConfig, reward: RewardConfig):
    """Per-episode GAE (``ppo.discount``, ``GAE_LAMBDA``) of the rewards
    weighted by ``reward``, concatenated and batch-normalized.

    Withheld feedback counts as 0.  Returns (advantages, returns); the
    returns are the unnormalized GAE returns the value head regresses on.
    """
    advantages, returns = [], []
    for traj in batch:
        rewards = traj.rewards_with(reward, 0.0 if traj.hf is None else traj.hf)
        # the per-scenario baseline-TTS term inside dtime is a constant the
        # policy cannot influence; subtracting it is a per-episode reward
        # baseline that leaves the optimum unchanged and de-noises advantages
        rewards[traj.terminal_step] -= reward.eta * traj.baseline_tts
        adv, ret = gae_advantages(rewards, traj.values, ppo.discount, GAE_LAMBDA)
        advantages.append(adv)
        returns.append(ret)
    advantages = np.concatenate(advantages)
    std = advantages.std()
    if std > 1e-8:
        advantages = (advantages - advantages.mean()) / std
    return advantages, np.concatenate(returns)


def ppo_update(model: PolicyModel, batch, ppo: PpoConfig,
               reward: RewardConfig) -> PolicyModel:
    """Clipped-surrogate PPO over a batch of trajectories, set by ``ppo``.

    Advantages come from ``batch_advantages(batch, ppo, reward)``; the value
    head trains on the GAE returns; an entropy bonus keeps exploration
    alive.  Returns a new model after ``ppo.epochs`` Adam steps.
    """
    if not batch:
        raise ValueError("empty trajectory batch")

    advantages, returns = batch_advantages(batch, ppo, reward)
    states = np.concatenate([traj.states for traj in batch])
    actions = np.concatenate([traj.actions for traj in batch]).astype(int)
    old_logp = np.concatenate([traj.log_probs for traj in batch])

    net = model.net.copy()
    optimizer = Adam(net, lr=ppo.step_size)
    n = states.shape[0]
    n_actions = model.n_actions
    onehot = np.zeros((n, n_actions))
    onehot[np.arange(n), actions] = 1.0
    for _ in range(max(0, ppo.epochs)):
        out, cache = net.forward(states)
        logits, values = out[:, :n_actions], out[:, n_actions]
        probs = softmax(logits)
        logp_all = np.log(np.clip(probs, 1e-12, None))
        logp = logp_all[np.arange(n), actions]
        ratio = np.exp(logp - old_logp)
        raw = ratio * advantages
        # min(r*A, clip(r)*A) only passes gradient where the raw term is active
        use_raw = clipped_surrogate(ratio, advantages, ppo.clip_eps) == raw
        coef = np.where(use_raw, raw, 0.0) / n
        dlogits = -coef[:, None] * (onehot - probs)

        # entropy bonus: H = -sum p log p; dH/dlogits = -p * (logp + H)
        entropy = -(probs * logp_all).sum(axis=1)
        dlogits += ppo.entropy_coef / n * (probs * (logp_all + entropy[:, None]))

        dvalues = ppo.value_coef * 2.0 * (values - returns) / n
        dy = np.concatenate([dlogits, dvalues[:, None]], axis=1)
        grads = net.backward(cache, dy)
        net = optimizer.step(net, grads)
    return PolicyModel(net)


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


@dataclass
class MatcherStack:
    """Everything the matcher needs at decision time.

    ``cfg`` is the config of the run the stack serves; ``rollout`` reads
    every setting from it.  ``band`` must be ``cfg.match.band``, and a stack
    built with another band is refused.

    ``top_similarity`` memoizes its results.  The memo belongs to one library
    version, metric, selector and band, and is dropped when any of them
    changes, or when it reaches ``MEMO_LIMIT`` entries (one training run has
    under 1,000 distinct windows; evaluation never repeats one).
    """

    MEMO_LIMIT = 2048

    selector: object
    metric: object
    library: object
    band: int
    cfg: EngineConfig
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _memo_owners: tuple = field(default=(), init=False, repr=False,
                                compare=False)
    _memo_version: tuple = field(default=(), init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        if self.band != self.cfg.match.band:
            raise ValueError(f"MatcherStack band {self.band} differs from "
                             f"its config's match.band {self.cfg.match.band}")

    def top_similarity(self, features, present, scan_age: float) -> float:
        """Top-1 ``match`` similarity of a live window, 0.0 if nothing aligns.

        The window is scored with the selector context
        ``context_from_windows(features, present, scan_age)``.  That context
        is a function of the three arguments, so their bytes key the memo.
        """
        owners = (self.library, self.metric, self.selector)
        version = (self.library.version, self.band)
        if (version != self._memo_version
                or not all(map(operator.is_, owners, self._memo_owners))):
            self._memo = {}
            self._memo_owners, self._memo_version = owners, version
        key = (features.tobytes(), present.tobytes(), scan_age)
        if key not in self._memo:
            if len(self._memo) >= self.MEMO_LIMIT:
                self._memo = {}
            live = (features, present)
            ranked = alignment.match(self.metric, self.selector, live,
                                     self.library, self.band, 1,
                                     context_from_windows(*live, scan_age))
            self._memo[key] = ranked[0][1].similarity if ranked else 0.0
        return self._memo[key]


class ScriptedPolicy:
    """Act from a function of (t, PolicyState), e.g. ``trigger_guide(cfg)``."""

    def __init__(self, fn):
        self.fn = fn

    def decide(self, t, state):
        return self.fn(t, state)


def trigger_guide(cfg: EngineConfig):
    """The operational trigger rule, a function of (t, PolicyState).

    Pre-associate and then hand over when either cue fires: a confident
    library match (similarity at least ``TAU``), or the egress fallback (a
    GNSS fix with WiFi already weak).  The rule reads the state's ``pre_associated`` flag, which the
    policy does not see.  Training rollouts mix it in so well-timed switches
    appear in every batch, and ``ScriptedPolicy(trigger_guide(cfg))`` drives
    it alone; the learned policy is free to act earlier or later.
    """
    weak_rssi = normalize_rssi(cfg.baseline.threshold_dbm)

    def guide(t, state: PolicyState) -> str:
        if state.similarity >= TAU or (state.gnss_fix >= 0.5
                                       and state.rssi <= weak_rssi):
            return "handover" if state.pre_associated else "pre_associate"
        return "hold"

    return guide


class SwitchEnv:
    """One walk's switching world at 1 Hz: the scan schedule, the live
    window and its ``stack.top_similarity``, the state, the shaped step
    reward, the action effects and the terminal outcome.  The scan schedule
    is the device's fixed one (``SCAN_PERIOD_S``, ``BOOSTED_PERIOD_S`` and
    ``BOOST_DURATION_S``), and so are the shaping (``TAU``,
    ``SHAPING_BONUS``, ``HEALTHY_LINK_BONUS``) and the TTS floors
    (``TTS_REPORT_FLOOR_S``, ``TTS_REWARD_FLOOR_S``); the buffer length, the
    reward weights and the baseline are ``stack.cfg``'s.

    A driver alternates ``observe()``, which moves to the next second ``t``
    and returns its ``PolicyState``, and ``step(action)``, which applies one
    of ``ACTIONS`` and returns the step reward, until ``done``.  scan_boost
    halves scan-age growth for a while, pre_associate cuts the handover's
    association delay from 2 s to 0.5 s, and handover completes the switch.
    A second before the switch reads one ``fingerprint_at`` window and earns
    lam * similarity plus shaping (trigger hint, healthy link credit); an
    inert second after it reads none and earns 0, whatever the action.  So
    once switched, a driver may instead call ``tail()``, which runs every
    remaining second at once and returns their feature rows.  Both take
    each second's 7 features from ``_advance``, which also runs the scan
    schedule (a boost before the switch shapes the tail's scan ages) and
    reads sample ``int(t)``, one per second of the horizon.  Only
    ``rollout`` steps an env: the bench's decision clock times
    ``fingerprint_at`` per rollout, and the tail reads no window.
    """

    def __init__(self, trace: RawTrace, stack: MatcherStack):
        cfg = self.cfg = stack.cfg
        self.trace, self.stack = trace, stack
        self.t = 0.0
        self.pre_associated = self.switched = False
        self.completion = self.action_time = None
        self.horizon = int(trace.duration)
        self.done = self.horizon <= 1
        self.scan_times = []        # ascending, as fingerprint_at bisects it
        self.next_scan = 0.0
        self.boost_until = -1.0
        self.sim_history = []
        self.serving = trace.serving_rssi().tolist()
        self.rssi_feature = [normalize_rssi(dbm) for dbm in self.serving]
        self.gnss_fix = [1.0 if fix else 0.0 for fix in trace.gnss_fix.tolist()]
        # step_rate[step - 1] counts the (sorted) step_times in [step - 1, step)
        steps_before = trace.step_times.searchsorted(
            np.arange(self.horizon, dtype=float)).tolist()
        self.step_rate = [min(1.0, (b - a) / 3.0)
                          for a, b in zip(steps_before, steps_before[1:])]
        # the live window, oldest first: rows [:k] of two preallocated buffers
        size = cfg.window.buffer_windows
        self.live_features = np.empty((size, N_FEATURES))
        self.live_present = np.empty((size, len(MODALITIES)), dtype=bool)
        self.k = 0

    def observe(self) -> PolicyState:
        """Move to the next second and return its state."""
        return PolicyState(*self._advance(), pre_associated=self.pre_associated)

    def tail(self) -> np.ndarray:
        """Step a switched env to the horizon in one pass; returns the
        remaining seconds' feature rows (n, 7), empty when ``done``.

        Row i is ``observe().features()`` of the i-th remaining second: the
        inert seconds read no window, take no action effect and earn 0, so
        nothing in them depends on the actions a driver would take.
        """
        if not self.switched:
            raise ValueError("only a switched env has an inert tail")
        rows = [self._advance() for _ in range(self.horizon - 1 - int(self.t))]
        self.done = True
        feats = np.array(rows).reshape(-1, STATE_DIM)
        if not np.isfinite(feats).all():
            raise ValueError("policy state features must be finite")
        return feats

    def _advance(self) -> tuple:
        """Move to the next second: run the scan schedule through it, read
        its window and top similarity (none after the switch: 0.0) into the
        history; returns the second's 7 ``PolicyState`` feature values."""
        step = int(self.t) + 1
        t = self.t = float(step)
        while self.next_scan <= t:
            self.scan_times.append(self.next_scan)
            self.next_scan += (BOOSTED_PERIOD_S
                               if self.next_scan < self.boost_until
                               else SCAN_PERIOD_S)
        scan_age = t - self.scan_times[-1]
        sim_top = 0.0
        if not self.switched:
            window = fingerprint_at(self.trace, t, self.scan_times)
            features, present, k = self.live_features, self.live_present, self.k
            if k == len(features):      # full: drop the oldest row
                features[:-1], present[:-1] = features[1:], present[1:]
            else:
                k = self.k = k + 1
            features[k - 1] = window.features
            present[k - 1] = window.present
            if k >= 2 and len(self.stack.library) > 0:
                sim_top = self.stack.top_similarity(features[:k], present[:k],
                                                    scan_age)
        history = self.sim_history
        history.append(sim_top)
        return (sim_top, sim_top - (history[-4] if len(history) >= 4 else 0.0),
                self.rssi_feature[step], self.gnss_fix[step],
                self.step_rate[step - 1], min(1.0, scan_age / 5.0),
                1.0 if self.switched else 0.0)

    def step(self, action: str) -> float:
        """Apply ``action`` at the observed second; returns its reward."""
        self.done = self.t >= self.horizon - 1
        if self.switched:
            return 0.0
        cfg, sim_top, t = self.cfg, self.sim_history[-1], self.t
        reward = cfg.reward.lam * sim_top
        if self.serving[int(t)] >= cfg.baseline.threshold_dbm:
            reward += HEALTHY_LINK_BONUS
        if action == "handover":
            # one-shot trigger hint: act when the matcher is confident
            reward += SHAPING_BONUS if sim_top >= TAU else -SHAPING_BONUS
            self.completion = t + (0.5 if self.pre_associated
                                   else cfg.baseline.assoc_delay_s)
            self.action_time, self.switched = t, True
        elif action == "pre_associate":
            if not self.pre_associated and sim_top >= TAU:
                reward += 0.5 * SHAPING_BONUS
            elif self.pre_associated:
                reward -= 0.05
            self.pre_associated = True
        else:
            if action == "scan_boost":
                self.boost_until = t + BOOST_DURATION_S
            elif action != "hold":
                raise ValueError(f"unknown action: {action!r}")
            if sim_top >= TAU:
                # sitting on a confident match delays the switch
                reward -= 0.3 * SHAPING_BONUS
        return reward

    def outcome(self) -> dict:
        """``Trajectory``'s terminal fields for the seconds stepped so far."""
        cfg, trace = self.cfg, self.trace
        onset, base = trace.degradation_onset, cfg.baseline
        base_completion, _ = baseline_policy(
            trace, base.threshold_dbm, base.hysteresis_db, base.dwell_s,
            base.assoc_delay_s)
        base_tts = tts(base_completion, onset, TTS_REPORT_FLOOR_S)
        censored = self.completion is None
        completion = float(trace.duration) if censored else self.completion
        return dict(
            dtime=base_tts - tts(completion, onset, TTS_REWARD_FLOOR_S),
            hf=feedback_oracle(completion, trace),
            completion=completion, censored=censored,
            action_time=self.action_time,
            terminal_step=min(int(self.t) - 1, max(0, int(round(completion)) - 1)),
            policy_tts=tts(completion, onset, TTS_REPORT_FLOOR_S),
            baseline_tts=base_tts, trace_checksum=trace.checksum())


def rollout(policy, scenario, stack: MatcherStack, mode: str = "sample",
            seed: int = 0, *, trace: RawTrace, guide_eps: float = 0.0) -> Trajectory:
    """Drive a ``SwitchEnv(trace, stack)`` with ``policy``: observe, decide,
    step, until the env has switched; then a ``greedy`` rollout stops, and
    any other runs the inert seconds to the horizon in one ``env.tail()``.

    A ``ScriptedPolicy`` decides from ``(t, state)``, also on every tail
    second; a ``PolicyModel`` acts in ``mode``, and with ``guide_eps`` > 0 a
    ``sample`` mixes ``trigger_guide(stack.cfg)`` into each draw before the
    switch (see ``act``).  Its tail is sampled by ``act_rows``, which leaves
    the trajectory and the generator as a per-second ``act`` would.
    ``trace`` is replayed; ``scenario`` is unread.
    """
    env = SwitchEnv(trace, stack)
    rng = np.random.default_rng(seed)
    guide = trigger_guide(stack.cfg) if guide_eps > 0.0 else None
    scripted = isinstance(policy, ScriptedPolicy)
    rows = []       # (features, action index, log-prob, value, step reward)
    while not (env.done or env.switched):
        state = env.observe()
        feats = state.features()
        if scripted:
            idx, logp, value = ACTIONS.index(policy.decide(env.t, state)), 0.0, 0.0
        else:
            # training rollouts mix the trigger rule in until the switch
            guide_idx = None if guide is None else ACTIONS.index(guide(env.t, state))
            idx, logp, value = act(policy, feats, mode, rng, guide_idx,
                                   guide_eps)
        rows.append((feats, idx, logp, value, env.step(ACTIONS[idx])))
    # the columns are Trajectory's first five fields, in order
    columns = list(map(np.array, zip(*rows) if rows else [()] * 5))
    if not (env.done or mode == "greedy"):
        seconds = range(int(env.t) + 1, env.horizon)
        feats = env.tail()
        zeros = np.zeros(len(feats))
        if scripted:
            states = (PolicyState(*row, pre_associated=env.pre_associated)
                      for row in feats.tolist())
            idx = [ACTIONS.index(policy.decide(float(t), state))
                   for t, state in zip(seconds, states)]
            tail = np.array(idx, dtype=int), zeros, zeros
        else:
            tail = act_rows(policy, feats, rng)
        columns = [np.concatenate(pair)
                   for pair in zip(columns, (feats, *tail, zeros))]
    return Trajectory(*columns, **env.outcome())
