"""Cloud-edge training loop: summaries up, reward model + policy, updates down.

Edges roll out the current policy on their own scenarios and ship only
desensitized tuples (quantized state features, action, feedback when the
user gave any, relative step offset).  The cloud aggregates the inbox, fits
a reward model on the tuples that carry direct feedback, substitutes model
predictions where feedback is missing, runs a PPO update, and periodically
distills the result back into every edge.  An offline, advantage-weighted
update covers edges that temporarily cannot reach the cloud.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import EngineConfig
from .fingerprints import fnv1a64, hash_identifier
from .mlp import TwoLayerNet, softmax
from .policy import (ACTIONS, MatcherStack, PolicyModel, RewardWeights,
                     Trajectory, _batch_advantages, ppo_update, rollout,
                     trigger_guide)
from .serialize import dump_tensors, fmt, parse_tensors
from .sim import generate  # unused here; bench/spans.py wraps this name

N_ACTIONS = len(ACTIONS)


# ---------------------------------------------------------------------------
# desensitized summaries on the wire
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRecord:
    """One (state, action, hf, offset) tuple; hf is NaN when withheld."""

    state: tuple
    action: int
    hf: float
    offset: float


@dataclass
class EdgeSummary:
    """Desensitized per-round digest an edge ships to the cloud.

    State features already are unitless, identifier-free quantities (the
    similarity statistics among them); offsets are relative to the episode
    start, and the edge identity is a salted hash.
    """

    version: int
    edge_id_hash: str
    records: tuple

    def serialize(self) -> str:
        body_lines = [f"{self.version},{self.edge_id_hash},{len(self.records)}"]
        for r in self.records:
            feats = " ".join(fmt(v) for v in r.state)
            body_lines.append(f"{feats}|{r.action}|{fmt(r.hf)}|{fmt(r.offset)}")
        body = "\n".join(body_lines)
        return f"{len(body.encode('utf-8'))}\n{body}\n"


def parse_summary(text: str) -> EdgeSummary:
    first, _, rest = text.partition("\n")
    length = int(first)
    body = rest.encode("utf-8")[:length].decode("utf-8")
    lines = body.split("\n")
    version_s, edge_hash, count_s = lines[0].split(",")
    records = []
    for ln in lines[1:1 + int(count_s)]:
        feats_s, action_s, hf_s, offset_s = ln.split("|")
        records.append(SummaryRecord(
            state=tuple(float(v) for v in feats_s.split()),
            action=int(action_s), hf=float(hf_s), offset=float(offset_s)))
    return EdgeSummary(int(version_s), edge_hash, tuple(records))


def summarize_trajectory(traj: Trajectory, version: int, edge_id: str,
                         salt: str, quant: float = 0.01) -> EdgeSummary:
    """Quantize an episode into wire records (direct HF only on the last)."""
    records = []
    T = traj.states.shape[0]
    # the elementwise form of fingerprints.quantize
    states = (np.round(traj.states / quant) * quant).tolist()
    for t in range(T):
        hf = float("nan")
        if t == T - 1 and traj.hf is not None:
            hf = float(traj.hf)
        records.append(SummaryRecord(tuple(states[t]), int(traj.actions[t]),
                                     hf, float(t)))
    return EdgeSummary(version, hash_identifier(edge_id, salt), tuple(records))


def aggregate(inbox):
    """Merge summaries into (state, action, hf, offset) arrays.

    Canonically sorted by (edge hash, offset, action, state) so any
    permutation of the inbox yields the same batch.  Empty inbox -> empty
    arrays.
    """
    rows = []
    for summary in inbox:
        for r in summary.records:
            rows.append((summary.edge_id_hash, r.offset, r.action, r.state, r.hf))
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    if not rows:
        return (np.zeros((0, 7)), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    states = np.array([row[3] for row in rows])
    actions = np.array([row[2] for row in rows], dtype=int)
    hfs = np.array([row[4] for row in rows])
    offsets = np.array([row[1] for row in rows])
    return states, actions, hfs, offsets


# ---------------------------------------------------------------------------
# reward model
# ---------------------------------------------------------------------------


@dataclass
class RewardModel:
    """Maps (state features, action one-hot) to predicted feedback in [-1, 1]."""

    net: TwoLayerNet

    @classmethod
    def from_seed(cls, seed: int, state_dim: int = 7, hidden: int = 16) -> "RewardModel":
        return cls(TwoLayerNet.from_seed(state_dim + N_ACTIONS, hidden, 1, seed))

    def predict(self, states, actions) -> np.ndarray:
        x = _reward_inputs(states, actions)
        out, _ = self.net.forward(x)
        return np.tanh(out[..., 0])

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("reward."))

    @classmethod
    def deserialize(cls, text: str) -> "RewardModel":
        return cls(TwoLayerNet.from_tensors(parse_tensors(text), "reward."))


def _reward_inputs(states, actions):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    actions = np.atleast_1d(np.asarray(actions, dtype=int))
    onehot = np.zeros((states.shape[0], N_ACTIONS))
    onehot[np.arange(states.shape[0]), actions] = 1.0
    return np.concatenate([states, onehot], axis=1)


def fit_reward_model(model: RewardModel, batch, epochs: int = 40,
                     step_size: float = 0.05) -> RewardModel:
    """Squared-error regression of predicted feedback onto recorded feedback."""
    states, actions, hfs = batch
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 0:
        raise ValueError("empty reward-model batch")
    x = _reward_inputs(states, actions)
    y = np.asarray(hfs, dtype=float)
    net = model.net.copy()
    n = x.shape[0]
    for _ in range(max(0, epochs)):
        out, cache = net.forward(x)
        pred = np.tanh(out[:, 0])
        err = pred - y
        dy = (2.0 / n) * err * (1.0 - pred * pred)
        grads, _ = net.backward(cache, dy[:, None])
        net = net.step(grads, step_size)
    return RewardModel(net)


def reward_model_loss(model: RewardModel, batch) -> float:
    states, actions, hfs = batch
    pred = model.predict(states, actions)
    return float(np.mean((pred - np.asarray(hfs, dtype=float)) ** 2))


# ---------------------------------------------------------------------------
# round state and the loop
# ---------------------------------------------------------------------------


@dataclass
class EdgeAgent:
    """One device: its site, matcher stack, trace pool, and local policy.

    ``traces`` are the generated walks the edge replays, one per pool
    scenario; each carries its ``scenario``.
    """

    edge_id: str
    stack: MatcherStack
    traces: list
    policy: PolicyModel
    policy_version: int = 0
    local_log: list = field(default_factory=list)
    log_capacity: int = 400

    def record(self, traj) -> None:
        self.local_log.append(traj)
        if len(self.local_log) > self.log_capacity:
            self.local_log.pop(0)


@dataclass
class RoundState:
    round_index: int
    n_rounds: int
    cloud_policy: PolicyModel
    cloud_version: int
    reward_model: RewardModel
    edge_versions: dict = field(default_factory=dict)
    inbox: list = field(default_factory=list)
    mean_rewards: list = field(default_factory=list)


def run_round(state: RoundState, edges, cfg: EngineConfig | None = None,
              seed: int = 0) -> RoundState:
    """Execute one cloud-edge round; returns the updated RoundState.

    Order of events: edge rollouts -> summaries + trajectories, cloud
    aggregation, reward-model fit on direct feedback, HF substitution for
    withheld episodes, PPO update, then distillation every
    ``distill_period`` rounds.
    """
    cfg = cfg or EngineConfig()
    ce = cfg.cloudedge
    if state.round_index >= state.n_rounds:
        raise ValueError("round budget exhausted")
    weights = RewardWeights(cfg.reward.eta, cfg.reward.lam, cfg.reward.gamma_hf)
    guide = trigger_guide(cfg)
    # guided exploration anneals to zero so the final rounds are on-policy
    progress = state.round_index / max(1.0, 0.6 * state.n_rounds)
    guide_eps = cfg.ppo.guide_eps * max(0.0, 1.0 - progress)

    trajectories = []
    inbox = []
    for edge in edges:
        edge_rng = np.random.default_rng(
            fnv1a64(f"round:{state.round_index}:{edge.edge_id}:{seed}"))
        pool = edge.traces
        for k in range(ce.episodes_per_edge):
            i = (state.round_index * ce.episodes_per_edge + k) % len(pool)
            trace = pool[i]
            traj = rollout(edge.policy, trace.scenario, edge.stack,
                           mode="sample", seed=int(edge_rng.integers(2 ** 62)),
                           trace=trace, weights=weights, guide=guide,
                           guide_eps=guide_eps)
            withheld = edge_rng.random() < ce.hf_withheld_fraction
            if withheld:
                traj = replace(traj, hf=None)
            trajectories.append(traj)
            edge.record(traj)
            inbox.append(summarize_trajectory(
                traj, edge.policy_version, edge.edge_id,
                edge.stack.cfg.library.salt, ce.state_quant))

    states, actions, hfs, _ = aggregate(inbox)
    have_hf = np.isfinite(hfs)
    reward_model = state.reward_model
    if have_hf.any():
        reward_model = fit_reward_model(
            reward_model, (states[have_hf], actions[have_hf], hfs[have_hf]),
            ce.reward_model_epochs, ce.reward_model_step)

    # direct feedback is used verbatim; the model only fills the gaps
    filled = []
    for traj in trajectories:
        if traj.hf is None:
            hf_hat = float(reward_model.predict(traj.states[-1:],
                                                traj.actions[-1:])[0])
            filled.append(replace(traj, hf=hf_hat))
        else:
            filled.append(traj)

    new_policy = ppo_update(
        state.cloud_policy, filled, cfg.ppo.clip_eps, cfg.ppo.epochs,
        cfg.ppo.step_size, cfg.ppo.gae_lambda, cfg.ppo.discount,
        cfg.ppo.entropy_coef, cfg.ppo.value_coef, weights)
    new_version = state.cloud_version + 1

    mean_reward = float(np.mean([t.total_reward(weights) for t in filled]))
    next_index = state.round_index + 1
    edge_versions = dict(state.edge_versions)
    if next_index % ce.distill_period == 0 or next_index == state.n_rounds:
        for edge in edges:
            edge.policy = new_policy
            edge.policy_version = new_version
            edge_versions[edge.edge_id] = new_version

    return RoundState(
        round_index=next_index, n_rounds=state.n_rounds,
        cloud_policy=new_policy, cloud_version=new_version,
        reward_model=reward_model, edge_versions=edge_versions,
        inbox=inbox, mean_rewards=state.mean_rewards + [mean_reward])


# ---------------------------------------------------------------------------
# offline (connectivity-limited) update
# ---------------------------------------------------------------------------


def offline_update(policy: PolicyModel, log, step_size: float = 0.05,
                   temperature: float = 1.0, max_norm: float = 0.5,
                   discount: float = 0.99, gae_lambda: float = 0.95,
                   weights: RewardWeights | None = None) -> PolicyModel:
    """Advantage-weighted, behavior-cloning-style update from a local log.

    No new rollouts: each logged action is imitated with weight
    exp(advantage / temperature); the parameter change is max-norm clipped so
    one offline pass can never jump far from the deployed policy.
    """
    if not log:
        raise ValueError("empty trajectory log")
    weights = weights or RewardWeights()
    adv, _ = _batch_advantages(log, weights, discount, gae_lambda)
    states = np.concatenate([traj.states for traj in log])
    actions = np.concatenate([traj.actions for traj in log]).astype(int)
    weights_awr = np.minimum(np.exp(adv / temperature), 20.0)

    net = policy.net.copy()
    out, cache = net.forward(states)
    n_actions = policy.n_actions
    probs = softmax(out[:, :n_actions])
    n = states.shape[0]
    onehot = np.zeros((n, n_actions))
    onehot[np.arange(n), actions] = 1.0
    dlogits = -(weights_awr[:, None] * (onehot - probs)) / n
    dy = np.concatenate([dlogits, np.zeros((n, 1))], axis=1)
    grads, _ = net.backward(cache, dy)

    stepped = net.step(grads, step_size)
    delta = stepped.to_vector() - net.to_vector()
    biggest = float(np.max(np.abs(delta))) if delta.size else 0.0
    if biggest > max_norm:
        delta *= max_norm / biggest
    return PolicyModel(net.from_vector(net.to_vector() + delta))


# ---------------------------------------------------------------------------
# distillation message
# ---------------------------------------------------------------------------


def encode_distillation(version: int, policy: PolicyModel) -> str:
    return f"version {version}\n" + policy.serialize()


def decode_distillation(text: str):
    first, _, rest = text.partition("\n")
    if not first.startswith("version "):
        raise ValueError("not a distillation message")
    return int(first.split()[1]), PolicyModel.deserialize(rest)
