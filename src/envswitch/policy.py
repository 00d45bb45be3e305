"""Edge decision policy: environment-aware actions, composite reward, PPO.

The policy observes the matcher's top similarity, its short trend, the
current radio state, and pacing features, and picks one of four actions per
second: hold, raise the scan rate, pre-associate a candidate link, or hand
over.  Training maximizes a composite reward mixing transition-time
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
from .fingerprints import FEATURE_NAMES, MODALITIES, N_FEATURES
from .mlp import Adam, TwoLayerNet, softmax
from .serialize import dump_tensors, parse_tensors
from .sim import (RawTrace, baseline_policy, feedback_oracle, fingerprint_at,
                  tts)

ACTIONS = ("hold", "scan_boost", "pre_associate", "handover")
N_ACTIONS = len(ACTIONS)
STATE_DIM = 7


@dataclass
class PolicyState:
    """Features the policy conditions on, all roughly unit-scaled."""

    similarity: float = 0.0       # top-1 match similarity in [0, 1]
    sim_trend: float = 0.0        # change over the last 3 windows
    rssi: float = 0.0             # normalize_rssi of the current RSSI
    gnss_fix: float = 0.0
    step_rate: float = 0.0
    scan_age: float = 0.0
    on_cell: float = 0.0          # current link: 0 WiFi, 1 cellular

    def features(self) -> np.ndarray:
        v = (self.similarity, self.sim_trend, self.rssi, self.gnss_fix,
             self.step_rate, self.scan_age, self.on_cell)
        if not all(map(math.isfinite, v)):
            raise ValueError("policy state features must be finite")
        return np.array(v)


def normalize_rssi(dbm: float) -> float:
    """Serving RSSI in dBm as the policy's unit-scaled ``rssi`` feature."""
    return (dbm + 65.0) / 35.0


@dataclass
class PolicyModel:
    """Small map from state features to 4 action logits plus a value head."""

    net: TwoLayerNet

    @classmethod
    def from_seed(cls, seed: int, hidden: int = 32, n_inputs: int = STATE_DIM,
                  n_actions: int = N_ACTIONS) -> "PolicyModel":
        return cls(TwoLayerNet.from_seed(n_inputs, hidden, n_actions + 1, seed))

    @classmethod
    def zeros(cls, hidden: int = 32, n_inputs: int = STATE_DIM,
              n_actions: int = N_ACTIONS) -> "PolicyModel":
        return cls(TwoLayerNet.zeros(n_inputs, hidden, n_actions + 1))

    @property
    def n_actions(self) -> int:
        return self.net.b2.size - 1

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("policy."))

    @classmethod
    def deserialize(cls, text: str) -> "PolicyModel":
        return cls(TwoLayerNet.from_tensors(parse_tensors(text), "policy."))


def act(model: PolicyModel, state, mode: str = "sample", rng=None,
        guide: int | None = None, guide_eps: float = 0.0):
    """Pick an action; returns (action_index, log_prob, value).

    ``sample`` draws from the softmax with the required ``rng``; ``greedy``
    takes the lowest-index argmax.  Deterministic given (model, state, rng).
    With a ``guide`` action index, ``sample`` draws from the behaviour
    mixture (1 - guide_eps) * policy + guide_eps * onehot(guide) and returns
    the mixture's log-prob, so the PPO ratio stays a valid importance weight.
    A draw is ``rng.choice(n_actions, p=probs)`` computed as ``_draw`` does.
    """
    feats = state.features() if isinstance(state, PolicyState) else state
    out, _ = model.net.forward(feats)
    row = out.tolist()
    # ``mlp.softmax`` of the logits; Python's max of the row is numpy's, and
    # ``np.add.reduce`` is the sum ``ndarray.sum`` runs, without its wrapper
    e = np.exp(out[:-1] - max(row[:-1]))
    probs = e / np.add.reduce(e)
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
    return idx, float(np.log(probs[idx])), row[-1]


# numpy's tolerance on the sum of ``p`` in ``Generator.choice``
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _draw(probs: np.ndarray, rng) -> int:
    """``int(rng.choice(len(probs), p=probs))``, by numpy's own algorithm.

    The cumulative sum, divided by its last entry, is searched (side
    "right") for one ``rng.random()``, so the result and the generator's
    state after the draw are those of ``choice``.  Before the draw, ``p``
    gets ``choice``'s checks, on the same compensated sum: a NaN sum, a
    negative entry or a sum more than sqrt(eps) from 1 raises ValueError.
    """
    p = probs.tolist()
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
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


# ---------------------------------------------------------------------------
# PPO
# ---------------------------------------------------------------------------


def imitate(model: PolicyModel, states, actions, epochs: int = 150,
            step_size: float = 0.02) -> PolicyModel:
    """Cross-entropy imitation of (state, action) pairs; value head untouched.

    Used to pre-train the deployable policy on the operational trigger rule
    before the online rounds adapt it.
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
    switch are inert; a ``greedy`` episode ends with its handover step.
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
    """Per-episode GAE (``ppo.discount``, ``ppo.gae_lambda``) of the rewards
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
        adv, ret = gae_advantages(rewards, traj.values, ppo.discount, ppo.gae_lambda)
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

    ``top_similarity`` memoizes its results.  The memo belongs to one library
    version, metric, selector and band, and is dropped when any of them
    changes, or when it reaches ``MEMO_LIMIT`` entries (one training run has
    under 1,000 distinct windows; evaluation never repeats one).
    """

    MEMO_LIMIT = 2048

    selector: object
    metric: object
    library: object
    band: int = 3
    cfg: EngineConfig = field(default_factory=EngineConfig)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _memo_owners: tuple = field(default=(), init=False, repr=False,
                                compare=False)
    _memo_version: tuple = field(default=(), init=False, repr=False,
                                 compare=False)

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
    """Test/demo helper: act from a function of (t, PolicyState)."""

    def __init__(self, fn):
        self.fn = fn

    def decide(self, t, state):
        return self.fn(t, state)


def trigger_guide(cfg: EngineConfig):
    """The operational trigger rule used to seed exploration.

    Pre-associate and then hand over when either cue fires: a confident
    library match, or the egress fallback (a GNSS fix with WiFi already
    weak).  Training rollouts mix this in so well-timed switches appear in
    every batch; the learned policy is free to act earlier or later.
    """
    tau = cfg.reward.tau
    weak_rssi = normalize_rssi(cfg.baseline.threshold_dbm)

    def guide(t, state: PolicyState, pre_associated: bool) -> str:
        triggered = (state.similarity >= tau
                     or (state.gnss_fix >= 0.5 and state.rssi <= weak_rssi))
        if triggered:
            return "handover" if pre_associated else "pre_associate"
        return "hold"

    return guide


def rollout(policy, scenario, stack: MatcherStack, mode: str = "sample",
            seed: int = 0, *, trace: RawTrace, guide_eps: float = 0.0) -> Trajectory:
    """Step the simulated trace at 1 Hz and let the policy act.

    Action effects: scan_boost halves scan-age growth for a while,
    pre_associate cuts the eventual handover's association delay from 2 s to
    0.5 s, handover completes the switch.  A ``greedy`` rollout ends with
    the handover step; any other keeps stepping inertly to the horizon, so
    every training rollout sees the same states.  Steps before the switch
    read one ``fingerprint_at`` window each; inert steps read none.
    Every setting comes from ``stack.cfg``.  Per-step reward is lam *
    similarity plus shaping (trigger hint, healthy link credit); the
    completion step adds eta * dtime + gamma_hf * HF.  With ``guide_eps`` >
    0, ``sample`` mixes ``trigger_guide(stack.cfg)`` into each draw before
    the switch (see ``act``).  ``trace`` is replayed; ``scenario`` is unread.
    """
    cfg = stack.cfg
    rng = np.random.default_rng(seed)
    guide = trigger_guide(cfg) if guide_eps > 0.0 else None
    base_completion, _ = baseline_policy(
        trace, cfg.baseline.threshold_dbm, cfg.baseline.hysteresis_db,
        cfg.baseline.dwell_s, cfg.baseline.assoc_delay_s)
    base_tts = tts(base_completion, trace.degradation_onset,
                   cfg.reward.tts_report_floor_s)

    device = cfg.device
    scan_times = []             # ascending, as fingerprint_at bisects it
    next_scan = 0.0
    boost_until = -1.0
    pre_associated = False
    switched = False
    completion = None
    action_time = None
    sim_history = []
    states_v, actions_v, logps, values, rewards = [], [], [], [], []
    scripted = isinstance(policy, ScriptedPolicy)

    # per-second inputs, read once from the trace's arrays
    serving = trace.serving_rssi().tolist()
    rssi_feature = [normalize_rssi(dbm) for dbm in serving]
    gnss_fix = [1.0 if fix else 0.0 for fix in trace.gnss_fix.tolist()]
    last_sec = len(trace.sec_t) - 1
    horizon = int(trace.duration)
    # step_rate[step - 1] counts the steps in [step - 1, step); step_times
    # is sorted
    steps_before = trace.step_times.searchsorted(
        np.arange(horizon, dtype=float)).tolist()
    step_rate = [min(1.0, (b - a) / 3.0)
                 for a, b in zip(steps_before, steps_before[1:])]
    affine = cfg.norm.affine(FEATURE_NAMES)
    # the live window, oldest first: rows [:k] of two preallocated buffers
    size = cfg.window.buffer_windows
    live_features = np.empty((size, N_FEATURES))
    live_present = np.empty((size, len(MODALITIES)), dtype=bool)
    k = 0
    last_scan = 0.0
    for step in range(1, horizon):
        t = float(step)
        # device scan schedule
        while next_scan <= t:
            scan_times.append(next_scan)
            last_scan = next_scan
            period = (device.boosted_period_s if next_scan < boost_until
                      else device.scan_period_s)
            next_scan += period
        scan_age = t - last_scan

        sec = min(step, last_sec)
        rssi = serving[sec]
        sim_top = 0.0
        if not switched:
            window = fingerprint_at(trace, t, cfg, scan_times, affine)
            if k == size:
                # full: drop the oldest row
                live_features[:-1] = live_features[1:]
                live_present[:-1] = live_present[1:]
            else:
                k += 1
            live_features[k - 1] = window.features
            live_present[k - 1] = window.present
            if k >= 2 and len(stack.library) > 0:
                sim_top = stack.top_similarity(live_features[:k],
                                               live_present[:k], scan_age)
        sim_history.append(sim_top)
        trend = sim_top - (sim_history[-4] if len(sim_history) >= 4 else 0.0)

        state = PolicyState(
            similarity=sim_top, sim_trend=trend,
            rssi=rssi_feature[sec], gnss_fix=gnss_fix[sec],
            step_rate=step_rate[step - 1],
            scan_age=min(1.0, scan_age / 5.0),
            on_cell=1.0 if switched else 0.0)

        feats = state.features()
        if scripted:
            idx = ACTIONS.index(policy.decide(t, state))
            logp, value = 0.0, 0.0
        else:
            # training rollouts mix the trigger rule in until the switch
            guide_idx = None
            if guide is not None and not switched:
                guide_idx = ACTIONS.index(guide(t, state, pre_associated))
            idx, logp, value = act(policy, feats, mode, rng, guide_idx,
                                   guide_eps)
        action = ACTIONS[idx]

        reward = 0.0
        if not switched:
            reward = cfg.reward.lam * sim_top
            if rssi >= cfg.baseline.threshold_dbm:
                reward += cfg.reward.healthy_link_bonus
            bonus = cfg.reward.shaping_bonus
            if action == "handover":
                # one-shot trigger hint: act when the matcher is confident
                reward += bonus if sim_top >= cfg.reward.tau else -bonus
            elif action == "pre_associate":
                if not pre_associated and sim_top >= cfg.reward.tau:
                    reward += 0.5 * bonus
                elif pre_associated:
                    reward -= 0.05
            elif sim_top >= cfg.reward.tau:
                # sitting on a confident match delays the switch
                reward -= 0.3 * bonus

            if action == "scan_boost":
                boost_until = t + device.boost_duration_s
            elif action == "pre_associate":
                pre_associated = True
            elif action == "handover":
                delay = 0.5 if pre_associated else cfg.baseline.assoc_delay_s
                completion = t + delay
                action_time = t
                switched = True

        states_v.append(feats)
        actions_v.append(idx)
        logps.append(logp)
        values.append(value)
        rewards.append(reward)
        if switched and mode == "greedy":
            break

    censored = completion is None
    if censored:
        completion = float(trace.duration)
    policy_tts_report = tts(completion, trace.degradation_onset,
                            cfg.reward.tts_report_floor_s)
    policy_tts_reward = tts(completion, trace.degradation_onset,
                            cfg.reward.tts_reward_floor_s)
    dtime = base_tts - policy_tts_reward
    hf = feedback_oracle(completion, trace, reward_cfg=cfg.reward)
    terminal_step = min(len(rewards) - 1, max(0, int(round(completion)) - 1))

    traj = Trajectory(
        states=np.array(states_v), actions=np.array(actions_v),
        log_probs=np.array(logps), values=np.array(values),
        step_rewards=np.array(rewards), dtime=dtime, hf=hf,
        completion=completion, censored=censored,
        action_time=action_time, terminal_step=terminal_step,
        policy_tts=policy_tts_report, baseline_tts=base_tts,
        trace_checksum=trace.checksum())
    return traj
